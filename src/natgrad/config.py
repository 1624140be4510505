"""Experiment configuration: JSON files with model / solver / output sections.

The config is the reproduction contract for an experiment: it fully determines
the model, the descent settings, and where results land. See the README for
the field-by-field schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .fields import read_field
from .grids import Grid, integer
from .models import (
    GaussianMixtureModel,
    LinearToyModel,
    WaveFwiModel,
    ricker_wavelet,
)
from .solver import NgdConfig, explicit_route


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


@dataclass
class Experiment:
    model: object
    theta0: np.ndarray
    solver: NgdConfig
    output_dir: Path
    snapshot_every: int
    reference_point: np.ndarray | None = None


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing {key!r} in {where} section")
    return section[key]


def _section(value, keys, where: str) -> dict:
    """value, once it is an object whose every key is one of keys."""
    if not isinstance(value, dict):
        raise ConfigError(f"the {where} section must be an object")
    unknown = set(value) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    return value


def _build_gaussian_mixture(section: dict):
    _section(section, ("kind", "domain", "interior", "model_components", "free",
                       "reference_components", "theta0"), "model")
    domain = _require(section, "domain", "model")
    interior = _require(section, "interior", "model")
    grid = Grid.regular(domain, interior)
    model = GaussianMixtureModel.from_reference_mixture(
        grid,
        _require(section, "model_components", "model"),
        _require(section, "free", "model"),
        _require(section, "reference_components", "model"),
    )
    theta0 = np.asarray(_require(section, "theta0", "model"), dtype=float)
    return model, theta0


def _build_linear_toy(section: dict):
    if "matrix_file" in section:
        _section(section, ("kind", "matrix_file", "reference_file", "theta0"), "model")
        a = read_field(section["matrix_file"])
        reference = read_field(_require(section, "reference_file", "model"))
        model = LinearToyModel(a, reference.ravel())
    else:
        _section(section, ("kind", "rows", "cols", "seed", "theta_true", "theta0"), "model")
        rows = integer(_require(section, "rows", "model"), "rows")
        cols = integer(_require(section, "cols", "model"), "cols")
        model, theta_true = LinearToyModel.random_positive(
            rows, cols, integer(section.get("seed", 0), "seed"),
            theta_true=section.get("theta_true"),
        )
    theta0 = np.asarray(
        section.get("theta0", np.zeros(model.param_dim) + 0.5), dtype=float
    )
    return model, theta0


def _model_field(spec, cells) -> np.ndarray:
    """Materialize a model field from a constant, layers, file, or inline list."""
    nx, nz = cells
    if isinstance(spec, dict):
        if len(spec) != 1:
            raise ConfigError(f"a model field object takes one key, not {sorted(spec)}")
        [(form, arg)] = spec.items()
        if form == "constant":
            return np.full(nx * nz, float(arg))
        if form == "layered":
            layered = _section(arg, ("background", "layers"), "layered")
            field = np.full((nx, nz), float(layered.get("background", 1.0)))
            for depth, value in layered.get("layers", []):
                depth = integer(depth, "layer depth")
                if not 0 <= depth < nz:
                    raise ConfigError(f"layer depth {depth} is outside 0..{nz - 1}")
                field[:, depth:] = float(value)
            return field.ravel()
        if form == "file":
            field = read_field(arg)
            if field.shape not in ((nx, nz), (nx * nz,)):
                raise ConfigError(
                    f"model field file has shape {field.shape}, "
                    f"expected ({nx}, {nz}) or ({nx * nz},)"
                )
            return field.ravel()
        raise ConfigError(f"unknown model field form {form!r}")
    arr = np.asarray(spec, dtype=float)
    if arr.size != nx * nz:
        raise ConfigError(f"model field has {arr.size} entries, expected {nx * nz}")
    return arr.ravel()


def _build_wave(section: dict):
    _section(section, ("kind", "cells", "spacing", "nt", "dt", "sources", "receivers",
                       "wavelet", "sponge", "true_model", "initial_model"), "model")
    cells = tuple(integer(n, "cells") for n in _require(section, "cells", "model"))
    spacing = tuple(float(h) for h in section.get("spacing", (1.0, 1.0)))
    n_t = integer(_require(section, "nt", "model"), "nt")
    dt = float(_require(section, "dt", "model"))

    sources = _require(section, "sources", "model")
    if isinstance(sources, dict):
        spec = _section(sources, ("count", "row"), "sources")
        count = integer(spec.get("count", 1), "sources.count")
        xs = np.linspace(0, cells[0] - 1, count + 2)[1:-1].round().astype(int)
        sources = [(int(x), spec.get("row", 0)) for x in xs]

    receivers = section.get("receivers", "top-row")
    if receivers == "top-row":
        receivers = [(ix, 0) for ix in range(cells[0])]

    wl = _section(section.get("wavelet", {"peak_freq": 0.08}), ("peak_freq", "delay"),
                  "wavelet")
    wavelet = ricker_wavelet(n_t, dt, float(wl["peak_freq"]), wl.get("delay"))

    sponge = _section(section.get("sponge", {}), ("width", "strength"), "sponge")
    model = WaveFwiModel(
        cells=cells,
        spacing=spacing,
        dt=dt,
        sources=sources,
        receivers=receivers,
        wavelet=wavelet,
        sponge_width=sponge.get("width", 10),
        sponge_strength=float(sponge.get("strength", 0.015)),
    )
    theta0 = model.check_theta(
        _model_field(_require(section, "initial_model", "model"), cells))
    true_field = _model_field(_require(section, "true_model", "model"), cells)
    model.generate_reference(true_field)
    return model, theta0


_BUILDERS = {
    "gaussian-mixture": _build_gaussian_mixture,
    "linear-toy": _build_linear_toy,
    "wave-fwi": _build_wave,
}

_SOLVER_KEYS = {f.name for f in fields(NgdConfig)}
_OUTPUT_KEYS = ("directory", "snapshot_every")
_TOP_KEYS = ("model", "solver", "output", "reference_point")


def load_experiment(path, seed_override=None, out_override=None) -> Experiment:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    _section(raw, _TOP_KEYS, "top-level")

    model_section = _require(raw, "model", "top-level")
    kind = _require(model_section, "kind", "model")
    if kind not in _BUILDERS:
        raise ConfigError(f"unknown model kind {kind!r}")
    try:
        model, theta0 = _BUILDERS[kind](model_section)
        if theta0.shape != (model.param_dim,):
            raise ValueError(f"theta0 has {theta0.size} entries, expected {model.param_dim}")
        if not np.all(np.isfinite(theta0)):
            raise ValueError("theta0 entries must be finite")
    except (TypeError, ValueError, KeyError, OSError) as exc:
        raise ConfigError(f"bad model section: {exc}")

    solver_section = dict(_section(raw.get("solver", {}), _SOLVER_KEYS, "solver"))
    if seed_override is not None:
        solver_section["seed"] = int(seed_override)
    try:
        solver = NgdConfig(**solver_section)
        explicit_route(model, solver)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad solver section: {exc}")

    output = _section(raw.get("output", {}), _OUTPUT_KEYS, "output")
    try:
        out_dir = Path(out_override) if out_override else Path(output.get("directory", "out"))
        snapshot_every = integer(output.get("snapshot_every", 0), "snapshot_every")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad output section: {exc}")

    ref_point = raw.get("reference_point")
    try:
        if ref_point is not None:
            ref_point = np.asarray(ref_point, float)
            if ref_point.shape != (model.param_dim,):
                raise ValueError(f"{ref_point.size} entries, expected {model.param_dim}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad reference_point: {exc}")
    return Experiment(
        model=model,
        theta0=theta0,
        solver=solver,
        output_dir=out_dir,
        snapshot_every=snapshot_every,
        reference_point=ref_point,
    )
