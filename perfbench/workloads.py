"""The three benchmark workloads: generated configs and per-run correctness checks.

Each workload turns a seed into one or more ``natgrad`` command lines with
generated JSON configs. Seed 0 is the paper's exact setup; other seeds jitter
only the start point, within the ranges in ``JITTER`` (chosen so that every
correctness check below still holds; see perfbench/baseline.json).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent

COV = [[0.6, 0.0], [0.0, 0.6]]
MIXTURE_MODEL = {
    "kind": "gaussian-mixture",
    "domain": [[-2.75, 7.25], [-2.75, 7.25]],
    "interior": [72, 72],
    "model_components": [
        {"weight": 0.2, "mean": [0.0, 0.0], "cov": COV},
        {"weight": 0.8, "mean": [4.0, 3.0], "cov": COV},
    ],
    "free": ["c0.mean.0", "c0.mean.1"],
    "reference_components": [
        {"weight": 0.3, "mean": [1.0, 3.0], "cov": COV},
        {"weight": 0.7, "mean": [3.0, 2.0], "cov": COV},
    ],
}
MIXTURE_THETA0 = (5.0, 3.0)
MIXTURE_STEPS = (
    ("gd", 0.3), ("l2", 0.04), ("fisher-rao", 0.8),
    ("h1", 0.2), ("h-1", 0.2), ("w2", 3.0),
)
FWI_INITIAL = 1.0
WAVE12_INITIAL = 1.05
# Misfit of plain gradient descent on fwi-w2-budget at seed 0 (ROADMAP baseline).
GD_SEED_MISFIT = 0.23293

# Uniform start-point jitter for seeds != 0: one (low, high) per coordinate.
# Mixture: the fixed-step w2 run switches basin (ends ~0.96 from the global
# minimizer) for x offsets above about +0.04, so x stays in [-0.1, 0.02]. The
# wave offsets stay far inside the CFL bound (initial model >= 0.64 at
# dt = 0.4). The FWI offset is one-sided: below 1.0 the line search accepts
# every first trial and ends one forward solve earlier (444 propagations) at a
# misfit near 0.13, so symmetric jitter would make the per-seed misfit bimodal.
JITTER = {
    "mixture-basins": ((-0.1, 0.02), (-0.1, 0.1)),   # theta0 offsets
    "fwi-w2-budget": ((0.0, 0.005),),                # constant initial model
    "wave12-check": ((-0.002, 0.002),),              # constant initial model
}


def mixture_minimizer() -> tuple[float, float]:
    """Global minimizer stored by perfbench/oracle.py (seed-independent)."""
    data = json.loads((HERE / "mixture_minimizer.json").read_text())
    return tuple(data["theta_star"])


def _jitter(name: str, seed: int) -> list[float]:
    if seed == 0:
        return [0.0] * len(JITTER[name])
    rng = random.Random(f"{name}:{seed}")
    return [rng.uniform(low, high) for low, high in JITTER[name]]


def _wave_model(cells, n_t, sources, peak_freq, layers, initial):
    return {
        "kind": "wave-fwi",
        "cells": list(cells),
        "spacing": [1.0, 1.0],
        "nt": n_t,
        "dt": 0.4,
        "sources": {"count": sources, "row": 0},
        "receivers": "top-row",
        "wavelet": {"peak_freq": peak_freq},
        "sponge": {"width": 10},
        "true_model": {"layered": {"background": 1.0, "layers": layers}},
        "initial_model": {"constant": initial},
    }


@dataclass(frozen=True)
class Invocation:
    """One ``natgrad`` command: its label, config and command-line words."""

    label: str
    config: dict
    command: str  # "run" or "check"


def mixture_invocations(seed: int) -> list[Invocation]:
    d = _jitter("mixture-basins", seed)
    theta0 = [MIXTURE_THETA0[0] + d[0], MIXTURE_THETA0[1] + d[1]]
    out = []
    for metric, step in MIXTURE_STEPS:
        cfg = {
            "model": dict(MIXTURE_MODEL, theta0=theta0),
            "solver": {"metric": metric, "step0": step, "fixed_step": True,
                       "max_iters": 60, "seed": 0},
        }
        out.append(Invocation(metric, cfg, "run"))
    return out


def fwi_invocations(seed: int) -> list[Invocation]:
    m0 = FWI_INITIAL + _jitter("fwi-w2-budget", seed)[0]
    cfg = {
        "model": _wave_model((30, 30), 300, 4, 0.09, [[10, 1.44], [20, 0.81]], m0),
        "solver": {"metric": "w2", "step0": 4.0, "max_iters": 1000,
                   "max_propagations": 400, "damping_lambda": 1e-4,
                   "cg_tol": 1e-3, "cg_max_iter": 10, "seed": 0},
    }
    return [Invocation("w2", cfg, "run")]


def wave12_invocations(seed: int) -> list[Invocation]:
    m0 = WAVE12_INITIAL + _jitter("wave12-check", seed)[0]
    cfg = {
        "model": _wave_model((12, 12), 160, 2, 0.1, [[4, 1.44], [8, 0.81]], m0),
        "solver": {"metric": "w2", "seed": 0},
    }
    return [Invocation("check", cfg, "check")]


def _monotone(losses) -> bool:
    return all(b <= a for a, b in zip(losses, losses[1:]))


def check_mixture(results: dict) -> list[str]:
    """Acceptance criterion 5 against the stored global minimizer."""
    star = mixture_minimizer()
    problems = []
    dist = {}
    for label, res in results.items():
        if res["rc"] not in (0, 2):
            problems.append(f"{label}: exit code {res['rc']}")
            continue
        dist[label] = math.dist(res["theta"], star)
        if not _monotone(res["losses"]):
            problems.append(f"{label}: loss trace not monotone")
    if problems:
        return problems
    w2 = results["w2"]["losses"][-1]
    for label in results:
        if label == "w2":
            continue
        if not w2 < results[label]["losses"][-1]:
            problems.append(f"w2 loss {w2:.6e} not below {label}")
        if not dist[label] > 1.0:
            problems.append(f"{label} ends {dist[label]:.3f} from the global minimizer")
    if not dist["w2"] <= 0.5:
        problems.append(f"w2 ends {dist['w2']:.3f} from the global minimizer")
    return problems


def check_fwi(results: dict) -> list[str]:
    """w2 beats GD's seed misfit at the same budget; finite, monotone trace."""
    res = results["w2"]
    if res["rc"] not in (0, 2):
        return [f"exit code {res['rc']}"]
    losses = res["losses"]
    problems = []
    if not all(math.isfinite(v) for v in losses):
        problems.append("non-finite loss in trace")
    if not _monotone(losses):
        problems.append("loss trace not monotone")
    if not losses[-1] <= GD_SEED_MISFIT:
        problems.append(f"final misfit {losses[-1]:.6f} above GD's {GD_SEED_MISFIT}")
    return problems


CHECK_NAMES = ("fd-gradient", "adjoint-dot-product", "direction-equivalence",
               "info-matrix-identity")


def check_wave12(results: dict) -> list[str]:
    """``natgrad check`` exits 0 with all four PASS lines."""
    res = results["check"]
    lines = res["stdout"].splitlines()
    problems = [] if res["rc"] == 0 else [f"exit code {res['rc']}"]
    for name in CHECK_NAMES:
        if not any(line.startswith(f"PASS  {name}:") for line in lines):
            problems.append(f"no PASS line for {name}")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: object  # seed -> list[Invocation]
    check: object  # {label: worker result} -> list of problems
    wave: bool  # uses the wave model (so wave allocation probes apply)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mixture-basins", mixture_invocations, check_mixture, False),
        Workload("fwi-w2-budget", fwi_invocations, check_fwi, True),
        Workload("wave12-check", wave12_invocations, check_wave12, True),
    )
}
