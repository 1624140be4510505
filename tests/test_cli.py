"""End-to-end CLI: configs, outputs, exit codes, determinism."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import natgrad
from natgrad import cli
from natgrad.config import load_experiment
from natgrad.fields import read_field, write_field
from natgrad.models import wave


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def toy_config(tmp_path):
    return write_config(
        tmp_path / "toy.json",
        {
            "model": {
                "kind": "linear-toy", "rows": 20, "cols": 5, "seed": 3,
                "theta0": [0.5, 0.5, 0.5, 0.5, 0.5],
            },
            "solver": {"metric": "l2", "step0": 1.0, "max_iters": 6, "seed": 0},
            "output": {"directory": str(tmp_path / "out")},
        },
    )


@pytest.fixture
def mixture_config(tmp_path):
    cov = [[0.6, 0.0], [0.0, 0.6]]
    return write_config(
        tmp_path / "gm.json",
        {
            "model": {
                "kind": "gaussian-mixture",
                "domain": [[-2.75, 7.25], [-2.75, 7.25]],
                "interior": [24, 24],
                "reference_components": [
                    {"weight": 0.3, "mean": [1.0, 3.0], "cov": cov},
                    {"weight": 0.7, "mean": [3.0, 2.0], "cov": cov},
                ],
                "model_components": [
                    {"weight": 0.2, "mean": [0.0, 0.0], "cov": cov},
                    {"weight": 0.8, "mean": [4.0, 3.0], "cov": cov},
                ],
                "free": ["c0.mean.0", "c0.mean.1"],
                "theta0": [5.0, 3.0],
            },
            "solver": {"metric": "l2", "step0": 0.04, "fixed_step": True,
                       "max_iters": 10, "seed": 0},
            "output": {"directory": str(tmp_path / "gm_out"), "snapshot_every": 5},
        },
    )


@pytest.fixture
def wave_config(tmp_path):
    return write_config(
        tmp_path / "wave.json",
        {
            "model": {
                "kind": "wave-fwi", "cells": [8, 8], "spacing": [1.0, 1.0],
                "nt": 100, "dt": 0.4,
                "sources": {"count": 1, "row": 0},
                "receivers": "top-row",
                "wavelet": {"peak_freq": 0.1},
                "true_model": {"layered": {"background": 1.0, "layers": [[4, 1.44]]}},
                "initial_model": {"constant": 1.1},
            },
            "solver": {"metric": "l2", "step0": 1.0, "max_iters": 2,
                       "cg_max_iter": 5, "damping_lambda": 1e-6, "seed": 0},
            "output": {"directory": str(tmp_path / "wave_out")},
        },
    )


def _initial_model_from_wrong_shape(model):
    """Start the 8x8 wave model from a (4, 16) dump: 64 entries, wrong grid."""
    write_field("m4x16.f64", np.full((4, 16), 1.1))
    model.update(initial_model={"file": "m4x16.f64"})


def read_trace(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_cli_import_loads_no_scipy_sparse():
    # Every metric is matrix-free (the Sobolev Laplacian by its stencil), so
    # a natgrad process never loads scipy.sparse.
    code = ("import sys, natgrad.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))")
    env = dict(os.environ, PYTHONPATH=str(Path(natgrad.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestRun:
    def test_toy_reaches_round_off_then_stalls(self, toy_config, tmp_path):
        code = cli.main(["run", "-c", toy_config])
        # The first step lands on the minimizer up to round-off; the next
        # steps still lower the round-off loss, until a line search stalls.
        # How many such steps are taken depends on the round-off.
        assert code == 2
        rows = read_trace(tmp_path / "out" / "trace.csv")
        losses = [float(r["loss"]) for r in rows[1:]]
        assert losses and all(loss < 1e-20 for loss in losses)
        assert all(b < a for a, b in zip(losses, losses[1:]))
        theta = read_field(tmp_path / "out" / "theta_final.f64")
        assert theta.shape == (5,)

    def test_trace_strictly_monotone(self, mixture_config, tmp_path):
        code = cli.main(["run", "-c", mixture_config])
        assert code == 0
        rows = read_trace(tmp_path / "gm_out" / "trace.csv")
        losses = [float(r["loss"]) for r in rows]
        props = [int(r["propagations"]) for r in rows]
        assert all(b < a for a, b in zip(losses, losses[1:]))
        assert all(b > a for a, b in zip(props, props[1:]))

    def test_snapshots_written(self, mixture_config, tmp_path):
        cli.main(["run", "-c", mixture_config])
        assert (tmp_path / "gm_out" / "theta_iter0000.f64").exists()
        assert (tmp_path / "gm_out" / "theta_iter0005.f64").exists()

    def test_unconverged_cg_warns_once(self, toy_config, tmp_path, capsys):
        assert cli.main(["run", "-c", toy_config]) == 2
        assert capsys.readouterr().err == ""
        with open(toy_config) as fh:
            payload = json.load(fh)
        payload["solver"].update(path="implicit", cg_max_iter=1, cg_tol=1e-12)
        cfg = write_config(tmp_path / "cg1.json", payload)
        code = cli.main(["run", "-c", cfg])
        err = capsys.readouterr().err.splitlines()
        assert code in (0, 2)
        assert len(err) == 1 and err[0].startswith("warning: l2: ")
        with open(tmp_path / "out" / "trace.csv") as fh:
            assert tuple(next(csv.reader(fh))) == cli.TRACE_COLUMNS

    def test_zero_direction_exits_2_with_one_warning(self, tmp_path, capsys):
        theta0 = [0.5, 0.7, 0.9, 1.1, 1.3]
        cfg = write_config(
            tmp_path / "at_ref.json",
            {
                "model": {"kind": "linear-toy", "rows": 20, "cols": 5, "seed": 3,
                          "theta_true": theta0, "theta0": theta0},
                "solver": {"metric": "l2", "step0": 1.0, "fixed_step": True,
                           "max_iters": 6, "seed": 0},
                "output": {"directory": str(tmp_path / "out")},
            },
        )
        assert cli.main(["run", "-c", cfg]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("warning: l2: ") and "exactly zero" in err[0]
        rows = read_trace(tmp_path / "out" / "trace.csv")
        assert [r["iter"] for r in rows] == ["0"]

    def test_rank_0_jacobian_reported_once(self, mixture_config, tmp_path):
        # The free component's mean starts 250 units outside the domain, where
        # its density and so the Jacobian are exactly 0: the least-squares
        # stack has rank 0. The run's whole stderr, Python warnings included,
        # is the one zero-direction line.
        with open(mixture_config) as fh:
            payload = json.load(fh)
        payload["model"]["theta0"] = [-250.0, -250.0]
        cfg = write_config(tmp_path / "far.json", payload)
        env = dict(os.environ, PYTHONPATH=str(Path(natgrad.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-m", "natgrad.cli", "run", "-c", cfg],
                             env=env, capture_output=True, text=True)
        assert out.returncode == 2
        err = out.stderr.splitlines()
        assert len(err) == 1
        assert err[0].startswith(
            "warning: l2: the descent direction is exactly zero at iteration 1; ")

    def test_fixed_step_leaving_feasible_set_exits_2(self, mixture_config, tmp_path, capsys):
        # The benchmark's mixture-basins h-1 run at seed 130: its fixed step
        # overflows to theta = (inf, -inf) at iteration 28.
        with open(mixture_config) as fh:
            payload = json.load(fh)
        payload["model"].update(interior=[72, 72],
                                theta0=[4.900145266897968, 2.9863634340183696])
        payload["solver"].update(metric="h-1", step0=0.2, max_iters=60)
        cfg = write_config(tmp_path / "overflow.json", payload)
        assert cli.main(["run", "-c", cfg]) == 2
        assert "Traceback" not in capsys.readouterr().err
        rows = read_trace(tmp_path / "gm_out" / "trace.csv")
        assert [int(r["iter"]) for r in rows] == list(range(28))
        assert (tmp_path / "gm_out" / "theta_final.f64").exists()

    def test_budget_stop_exits_0(self, toy_config, tmp_path, capsys):
        # Left alone, this run's line search stalls after four steps (exit 2);
        # a two-propagation budget stops it after the first.
        with open(toy_config) as fh:
            payload = json.load(fh)
        payload["solver"].update(max_propagations=2)
        cfg = write_config(tmp_path / "budget.json", payload)
        assert cli.main(["run", "-c", cfg]) == 0
        assert capsys.readouterr().err == ""
        rows = read_trace(tmp_path / "out" / "trace.csv")
        assert [(r["iter"], r["propagations"]) for r in rows] == [("0", "1"), ("1", "2")]

    def test_malformed_config_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["run", "-c", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_damping_metric_exits_1(self, tmp_path, capsys):
        for name in ("bogus", "gd"):
            cfg = write_config(
                tmp_path / f"damp_{name}.json",
                {
                    "model": {"kind": "linear-toy", "rows": 20, "cols": 5, "seed": 3},
                    "solver": {"metric": "l2", "damping_lambda": 0.1,
                               "damping_metric": name},
                    "output": {"directory": str(tmp_path / name)},
                },
            )
            assert cli.main(["run", "-c", cfg]) == 1
            assert "error:" in capsys.readouterr().err
            assert not (tmp_path / name).exists()

    @pytest.mark.parametrize(
        "config,solver",
        [
            ("toy_config", {"metric": "h1", "minibatch_size": 10}),
            ("mixture_config", {"path": "implicit"}),
            ("mixture_config", {"hutchinson_m": 10}),
            ("toy_config", {"minibatch_size": 10, "damping_lambda": 0.1,
                            "damping_metric": "h1"}),
            ("toy_config", {"hutchinson_m": 0}),
        ],
        ids=["minibatch-h1", "implicit-no-adjoint", "hutchinson-no-adjoint",
             "minibatch-damping-metric", "hutchinson-no-probes"],
    )
    def test_unsupported_route_exits_1(self, request, tmp_path, capsys, config, solver):
        with open(request.getfixturevalue(config)) as fh:
            payload = json.load(fh)
        payload["solver"].update(solver)
        payload["output"]["directory"] = str(tmp_path / "route_out")
        cfg = write_config(tmp_path / "route.json", payload)
        assert cli.main(["run", "-c", cfg]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "route_out").exists()

    @pytest.mark.parametrize(
        "config,edit",
        [
            ("mixture_config", lambda m: m["model_components"][0].update(sigma=1.0)),
            ("mixture_config", lambda m: m.update(interior=72)),
            ("mixture_config", lambda m: m.update(interior=[24.5, 24])),
            ("mixture_config", lambda m: m.update(interior=[24, True])),
            ("wave_config", lambda m: m.update(cells=8)),
            ("wave_config", lambda m: m.update(nt=0)),
            ("wave_config", lambda m: m["sources"].update(count=0)),
            ("wave_config", lambda m: m["wavelet"].update(peak_freq=0)),
            ("wave_config", lambda m: m.update(cells=[8.5, 8])),
            ("wave_config", lambda m: m.update(nt=True)),
            ("wave_config", lambda m: m.update(nt=100.5)),
            ("wave_config", lambda m: m["sources"].update(count=1.7)),
            ("wave_config", lambda m: m["sources"].update(row=0.5)),
            ("wave_config", lambda m: m.update(sources=[[3.5, 0]])),
            ("wave_config", lambda m: m.update(receivers=[[2, True], [3, 0]])),
            ("wave_config", lambda m: m.update(sponge={"width": 10.5})),
            ("wave_config", lambda m: m["true_model"]["layered"].update(layers=[[4.5, 1.44]])),
            ("toy_config", lambda m: m.update(rows=20.5)),
            ("toy_config", lambda m: m.update(cols=True, theta0=[0.5])),
            ("toy_config", lambda m: m.update(seed=3.5)),
            ("mixture_config", lambda m: m.update(domain=[[-2.75, 7.25]])),
            ("mixture_config", lambda m: m.update(domain=[[-2.75, 7.25]] * 3)),
            ("mixture_config", lambda m: m.update(domain=[[-2.75, float("nan")]] * 2)),
            ("mixture_config", lambda m: m.update(intrior=[24, 24])),
            ("toy_config", lambda m: m.update(reference_file="ref.f64")),
            ("wave_config", lambda m: m.update(spong={"width": 3})),
            ("wave_config", lambda m: m.update(cfl_factor=0.5)),
            ("wave_config", lambda m: m["sources"].update(rows=0)),
            ("wave_config", lambda m: m["wavelet"].update(freq=0.1)),
            ("wave_config", lambda m: m.update(sponge={"width": 10, "strenght": 0.01})),
            ("wave_config", lambda m: m.update(sponge=10)),
            ("wave_config", lambda m: m["true_model"]["layered"].update(layer=[[2, 1.2]])),
            ("wave_config", lambda m: m["initial_model"].update(file="m.f64")),
            ("wave_config", lambda m: m.update(initial_model={"const": 1.1})),
            ("wave_config", lambda m: m.update(initial_model=[1.1] * 63)),
            ("wave_config", lambda m: m.update(sources=[[3]])),
            ("wave_config", _initial_model_from_wrong_shape),
            ("wave_config", lambda m: m.update(spacing=[1.0])),
            ("wave_config", lambda m: m.update(spacing=[1.0, 1.0, 1.0])),
            ("wave_config", lambda m: m.update(spacing=[float("nan"), 1.0])),
            ("wave_config", lambda m: m.update(dt=-0.4)),
            ("wave_config", lambda m: m.update(dt=0)),
            ("wave_config", lambda m: m.update(dt=float("nan"))),
            ("wave_config", lambda m: m.update(sponge={"width": -1})),
            ("wave_config", lambda m: m.update(sponge={"strength": float("nan")})),
            ("wave_config", lambda m: m.update(sponge={"strength": float("inf")})),
            ("wave_config", lambda m: m.update(sponge={"width": 10, "strength": 3.0})),
            ("wave_config", lambda m: m["wavelet"].update(delay=float("nan"))),
            ("wave_config", lambda m: m["true_model"]["layered"].update(layers=[[-2, 1.44]])),
            ("wave_config", lambda m: m["true_model"]["layered"].update(layers=[[50, 1.44]])),
        ],
        ids=["component-extra-key", "scalar-interior", "fractional-interior", "bool-interior",
             "scalar-cells", "no-time-steps", "no-sources", "zero-peak-frequency",
             "fractional-cells", "bool-nt", "fractional-nt", "fractional-source-count",
             "fractional-source-row", "fractional-source-index", "bool-receiver-index",
             "fractional-sponge-width", "fractional-layer-depth", "fractional-rows",
             "bool-cols", "fractional-seed", "domain-one-axis", "domain-three-axes",
             "nan-domain",
             "mixture-unknown-key", "toy-unread-key", "misspelled-sponge",
             "leftover-cfl-factor", "sources-unknown-key", "wavelet-unknown-key",
             "sponge-unknown-key", "sponge-not-object", "layered-unknown-key",
             "model-field-two-forms", "model-field-unknown-form", "inline-model-field-length",
             "one-index-source", "model-field-file-shape",
             "one-spacing", "three-spacings", "nan-spacing", "negative-dt", "zero-dt",
             "nan-dt", "negative-sponge-width", "nan-sponge-strength", "inf-sponge-strength",
             "sponge-strength-zeroing-damping",
             "nan-wavelet-delay", "negative-layer-depth", "layer-depth-below-grid"],
    )
    def test_malformed_model_section_exits_1(self, request, monkeypatch, tmp_path, capsys,
                                             config, edit):
        # Wrong types in the model section reach the model builders as a
        # TypeError, a key no builder reads would be ignored, and a value out
        # of range (a NaN spacing, dt <= 0, a layer below the grid) would
        # march or be dropped; each must be reported as a config error, not
        # a traceback, a silent default or a nonsense run.
        monkeypatch.chdir(tmp_path)  # where an edit writes the dumps it names
        with open(request.getfixturevalue(config)) as fh:
            payload = json.load(fh)
        edit(payload["model"])
        payload["output"]["directory"] = str(tmp_path / "model_out")
        cfg = write_config(tmp_path / "model.json", payload)
        assert cli.main(["run", "-c", cfg]) == 1
        assert capsys.readouterr().err.startswith("error: bad model section: ")
        assert not (tmp_path / "model_out").exists()

    @pytest.mark.parametrize("command", ["run", "check"])
    @pytest.mark.parametrize(
        "config,edit,reason",
        [
            ("mixture_config", lambda m: m.update(theta0=[5.0, 3.0, 1.0]),
             "theta0 has 3 entries, expected 2"),
            ("mixture_config", lambda m: m.update(theta0=[float("nan"), 3.0]),
             "theta0 entries must be finite"),
            ("wave_config", lambda m: m.update(initial_model={"constant": 0.2}),
             "time step 0.4 violates the CFL bound"),
        ],
        ids=["mixture-theta0-length", "mixture-theta0-nan", "wave-start-violates-cfl"],
    )
    def test_rejected_start_point_exits_1(self, request, tmp_path, capsys, command,
                                          config, edit, reason):
        # A start point the model cannot take is a config error, found before
        # the first solve rather than as a traceback from inside it.
        with open(request.getfixturevalue(config)) as fh:
            payload = json.load(fh)
        edit(payload["model"])
        payload["output"]["directory"] = str(tmp_path / "start_out")
        cfg = write_config(tmp_path / "start.json", payload)
        assert cli.main([command, "-c", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad model section: ") and reason in err
        assert not (tmp_path / "start_out").exists()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda p: p["output"].update(snapshot_every="often"),
            lambda p: p["output"].update(snapshot_every=2.5),
            lambda p: p["output"].update(snapshot_every=True),
            lambda p: p.update(reference_point="origin"),
            lambda p: p.update(reference_point=[1.0, 2.0]),
            lambda p: p.update(solver=[1, 2]),
            lambda p: p["solver"].update(max_iters="ten"),
            lambda p: p["solver"].update(max_propagations=2.5),
            lambda p: p["solver"].update(cg_max_iter=True),
            lambda p: p["solver"].update(cg_tol=0.0),
            lambda p: p["solver"].update(cg_tol=float("nan")),
            lambda p: p["solver"].update(cg_max_iter=0),
            lambda p: p["solver"].update(rank_tol=0.0),
            lambda p: p["solver"].update(rank_tol=2.0),
            lambda p: p["solver"].update(max_iters=-1),
            lambda p: p["solver"].update(max_propagations=-1),
            lambda p: p["solver"].update(damping_lambda=float("nan")),
            lambda p: p["solver"].update(sufficient_decrease=float("nan")),
            lambda p: p["solver"].update(ls_max_halvings=0),
            lambda p: p["solver"].update(seed=2.5),
            lambda p: p["solver"].update(seed=True),
            lambda p: p["solver"].update(seed=-1),
            lambda p: p["solver"].update(minibatch_size=10.5),
            lambda p: p["solver"].update(hutchinson_m=2.5),
            lambda p: p.update(solvr={"metric": "h1"}),
            lambda p: p["output"].update(dir="elsewhere"),
        ],
        ids=["snapshot-every-word", "snapshot-every-fraction", "snapshot-every-bool",
             "reference-point-word", "reference-point-length",
             "solver-list",
             "max-iters-word", "max-propagations-float", "cg-max-iter-bool",
             "cg-tol-zero", "cg-tol-nan", "cg-max-iter-zero", "rank-tol-zero",
             "rank-tol-above-one", "max-iters-negative", "max-propagations-negative",
             "damping-lambda-nan", "sufficient-decrease-nan", "ls-max-halvings-zero",
             "seed-fraction", "seed-bool", "seed-negative", "minibatch-size-fraction",
             "hutchinson-m-fraction", "top-level-unknown-key", "output-unknown-key"],
    )
    def test_malformed_value_exits_1(self, toy_config, tmp_path, capsys, edit):
        # A value of the wrong type, or a key nothing reads, anywhere in the
        # config is a config error, reported before the output directory is
        # made, not a traceback.
        with open(toy_config) as fh:
            payload = json.load(fh)
        edit(payload)
        payload["output"]["directory"] = str(tmp_path / "value_out")
        cfg = write_config(tmp_path / "value.json", payload)
        assert cli.main(["run", "-c", cfg]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "value_out").exists()

    def test_unknown_model_kind_exits_1(self, tmp_path):
        cfg = write_config(
            tmp_path / "unknown.json",
            {"model": {"kind": "pinn"}, "solver": {}, "output": {}},
        )
        assert cli.main(["run", "-c", cfg]) == 1

    def test_determinism_byte_identical_traces(self, mixture_config, tmp_path):
        cli.main(["run", "-c", mixture_config, "--out", str(tmp_path / "a")])
        cli.main(["run", "-c", mixture_config, "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "trace.csv").read_bytes()
        b = (tmp_path / "b" / "trace.csv").read_bytes()
        assert a == b

    def test_gd_builds_no_damping_metric(self, toy_config, tmp_path, monkeypatch):
        # Steepest descent ignores damping, so it must not build (or refresh)
        # the regularizer it would never apply.
        from natgrad import solver

        calls = []
        original = solver.build_metric_for_model
        monkeypatch.setattr(solver, "build_metric_for_model",
                            lambda *a, **k: calls.append(a) or original(*a, **k))
        with open(toy_config) as fh:
            payload = json.load(fh)
        payload["solver"].update(metric="gd", step0=0.5)
        plain = write_config(tmp_path / "gd.json", payload)
        payload["solver"].update(damping_lambda=0.5, damping_metric="fisher-rao")
        damped = write_config(tmp_path / "gd_damped.json", payload)
        for cfg, out in ((plain, "plain"), (damped, "damped")):
            assert cli.main(["run", "-c", cfg, "--out", str(tmp_path / out)]) in (0, 2)
        assert calls == []
        a = (tmp_path / "plain" / "trace.csv").read_bytes()
        b = (tmp_path / "damped" / "trace.csv").read_bytes()
        assert a == b

    def test_seed_override_changes_sketch_run(self, tmp_path):
        cfg = write_config(
            tmp_path / "sk.json",
            {
                "model": {"kind": "linear-toy", "rows": 30, "cols": 5, "seed": 3,
                          "theta0": [0.4] * 5},
                "solver": {"metric": "l2", "step0": 0.5, "max_iters": 4,
                           "minibatch_size": 10, "seed": 0},
                "output": {"directory": str(tmp_path / "s0")},
            },
        )
        cli.main(["run", "-c", cfg])
        cli.main(["run", "-c", cfg, "--seed", "1", "--out", str(tmp_path / "s1")])
        t0 = (tmp_path / "s0" / "trace.csv").read_bytes()
        t1 = (tmp_path / "s1" / "trace.csv").read_bytes()
        assert t0 != t1


class TestCompare:
    def test_summary_rows_in_metric_order(self, mixture_config, tmp_path):
        code = cli.main(
            ["compare", "-c", mixture_config, "-m", "gd,l2",
             "--steps", "0.3,0.04", "--out", str(tmp_path / "cmp")]
        )
        assert code == 0
        with open(tmp_path / "cmp" / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["metric"] for r in rows] == ["gd", "l2"]
        assert (tmp_path / "cmp" / "gd" / "trace.csv").exists()
        assert (tmp_path / "cmp" / "l2" / "trace.csv").exists()

    def test_single_metric_matches_run(self, toy_config, tmp_path):
        cli.main(["run", "-c", toy_config, "--out", str(tmp_path / "single")])
        cli.main(["compare", "-c", toy_config, "-m", "l2",
                  "--out", str(tmp_path / "cmp1")])
        run_trace = (tmp_path / "single" / "trace.csv").read_bytes()
        cmp_trace = (tmp_path / "cmp1" / "l2" / "trace.csv").read_bytes()
        assert run_trace == cmp_trace

    def test_every_metric_pays_its_first_forward(self, tmp_path):
        # A one-propagation budget stops each run right after its forward at
        # theta0, so the shared model's cache still holds theta0 when the
        # next metric starts. That run must still be charged its forward, and
        # so stop at theta0 too, instead of taking a step on a free forward.
        cfg = write_config(tmp_path / "budget.json", {
            "model": {"kind": "linear-toy", "rows": 20, "cols": 5, "seed": 3,
                      "theta0": [0.5] * 5},
            "solver": {"metric": "l2", "max_propagations": 1, "seed": 0},
        })
        assert cli.main(["compare", "-c", cfg, "-m", "gd,l2,h1",
                         "--out", str(tmp_path / "cmp")]) == 0
        for metric in ("gd", "l2", "h1"):
            with open(tmp_path / "cmp" / metric / "trace.csv") as fh:
                rows = list(csv.DictReader(fh))
            assert [(r["iter"], r["propagations"]) for r in rows] == [("0", "1")]

    def test_unknown_metric_rejected_before_any_run(self, toy_config, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert cli.main(["compare", "-c", toy_config, "-m", "l2,bogus",
                         "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (out / "l2").exists()

    @pytest.mark.parametrize("steps", ["0.5,0", "0.5,abc", "0.5,-1", "0.5,nan", "inf,0.5"])
    def test_bad_step_rejected_before_any_run(self, toy_config, tmp_path, capsys, steps):
        out = tmp_path / "cmp"
        assert cli.main(["compare", "-c", toy_config, "-m", "l2,gd",
                         "--steps", steps, "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_unsupported_route_rejected_before_any_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "sketch.json", {
            "model": {"kind": "linear-toy", "rows": 20, "cols": 5, "seed": 3},
            "solver": {"minibatch_size": 10, "seed": 0},
        })
        out = tmp_path / "cmp"
        assert cli.main(["compare", "-c", cfg, "-m", "l2,h1", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_reference_point_adds_distance(self, toy_config, tmp_path, capsys):
        with open(toy_config) as fh:
            payload = json.load(fh)
        ref = [0.6, 0.7, 0.8, 0.9, 1.0]
        payload.update(reference_point=ref)
        cfg = write_config(tmp_path / "ref.json", payload)
        out = tmp_path / "cmp"
        assert cli.main(["compare", "-c", cfg, "-m", "gd,l2", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        with open(out / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["metric", "final_loss", "propagations", "theta_distance"]
        for row, line in zip(rows, lines, strict=True):
            theta = read_field(out / row["metric"] / "theta_final.f64")
            dist = float(row["theta_distance"])
            assert dist == float(np.linalg.norm(theta - ref))
            assert line.startswith(row["metric"]) and line.endswith(f"  dist={dist:.4f}")

    def test_mismatched_steps_rejected(self, toy_config):
        assert cli.main(["compare", "-c", toy_config, "-m", "gd,l2",
                         "--steps", "0.1"]) == 1


class TestCheck:
    def test_toy_all_pass(self, toy_config, capsys):
        assert cli.main(["check", "-c", toy_config]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_wave_all_pass(self, wave_config, capsys):
        assert cli.main(["check", "-c", wave_config]) == 0
        out = capsys.readouterr().out
        assert "adjoint-dot-product" in out
        assert "direction-equivalence" in out
        assert "FAIL" not in out

    def test_all_odd_wave_panel_w2_passes(self, wave_config, tmp_path, capsys):
        # 9 receivers x 161 samples: every panel count is odd, so each
        # transport root has a singular, grounded parity block.
        with open(wave_config) as fh:
            payload = json.load(fh)
        payload["model"].update(cells=[9, 9], nt=161)
        payload["solver"]["metric"] = "w2"
        cfg = write_config(tmp_path / "odd.json", payload)
        with pytest.warns(UserWarning, match="every interior count is odd"):
            assert cli.main(["check", "-c", cfg]) == 0
        out = capsys.readouterr().out
        assert "PASS  direction-equivalence" in out and "FAIL" not in out

    def test_fd_gradient_charge_leaves_theta0_cached(self, wave_config, tmp_path):
        # Two forwards per difference pair, then one forward and one adjoint
        # at theta0. That solve runs last, so the checks after it find theta0
        # cached without a restoring forward.
        with open(wave_config) as fh:
            payload = json.load(fh)
        payload["model"]["sources"]["count"] = 2
        exp = load_experiment(write_config(tmp_path / "two.json", payload))
        model, theta0 = exp.model, exp.theta0
        model.propagation_counter = 0
        ok, _ = cli._check_fd_gradient(model, theta0, np.random.default_rng(0))
        assert ok
        charge = (2 * min(5, model.param_dim) + 2) * model.n_sources
        assert model.propagation_counter == charge
        model.solve_forward(theta0.copy())  # a cache hit charges nothing
        assert model.propagation_counter == charge

    def test_mixture_fd_jacobian_pass(self, mixture_config, capsys):
        assert cli.main(["check", "-c", mixture_config]) == 0
        assert "fd-gradient" in capsys.readouterr().out

    def test_broken_adjoint_detected(self, wave_config, monkeypatch, capsys):
        # Fault injection: the reverse solve's correlation with u_tt off by
        # 0.1%, so the transpose identity no longer holds.
        original = wave._SourceGroup.reverse
        monkeypatch.setattr(wave._SourceGroup, "reverse",
                            lambda group, data: 1.001 * original(group, data))
        assert cli.main(["check", "-c", wave_config]) == 3
        assert "FAIL  adjoint-dot-product" in capsys.readouterr().out

    def test_scaled_born_injection_detected(self, wave_config, monkeypatch, capsys):
        # Fault injection: the linearized solve injects 1.001 eta u_tt.
        original = wave._SourceGroup.born
        monkeypatch.setattr(wave._SourceGroup, "born",
                            lambda group, eta: original(group, 1.001 * eta))
        assert cli.main(["check", "-c", wave_config]) == 3
        assert "FAIL  adjoint-dot-product" in capsys.readouterr().out

    def test_scaled_toy_transpose_detected_by_dot_product(self, toy_config, monkeypatch,
                                                          capsys):
        # Fault injection: only d_theta h^T off by 0.1%, which the check's
        # dot product pairs with the unchanged d_theta h.
        original = natgrad.LinearToyModel.apply_dtheta_h_transpose
        monkeypatch.setattr(natgrad.LinearToyModel, "apply_dtheta_h_transpose",
                            lambda self, lam: 1.001 * original(self, lam))
        assert cli.main(["check", "-c", toy_config]) == 3
        assert "FAIL  adjoint-dot-product" in capsys.readouterr().out

    def test_scaled_toy_actions_detected(self, toy_config, monkeypatch, capsys):
        # Fault injection: both d_theta h actions off by 0.1%. The explicit
        # route reads the model's own Jacobian A, so it no longer agrees
        # with the matrix-free route built from the actions.
        for name in ("apply_dtheta_h", "apply_dtheta_h_transpose"):
            original = getattr(natgrad.LinearToyModel, name)

            def scaled(self, v, original=original):
                return 1.001 * original(self, v)

            monkeypatch.setattr(natgrad.LinearToyModel, name, scaled)
        assert cli.main(["check", "-c", toy_config]) == 3
        assert "FAIL  direction-equivalence" in capsys.readouterr().out


class TestFieldIo:
    def test_roundtrip(self, tmp_path, rng):
        arr = rng.standard_normal((4, 6))
        write_field(tmp_path / "f.f64", arr)
        back = read_field(tmp_path / "f.f64")
        np.testing.assert_array_equal(back, arr)
        header = (tmp_path / "f.f64.hdr").read_text()
        assert "shape 4 6" in header and "little-endian" in header

    def test_toy_from_matrix_files_matches_generated(self, toy_config, tmp_path):
        # rows 20, cols 5, seed 3 as in toy_config, dumped and read back.
        model, _ = natgrad.LinearToyModel.random_positive(20, 5, 3)
        write_field(tmp_path / "a.f64", model.a)
        write_field(tmp_path / "ref.f64", model.reference)
        with open(toy_config) as fh:
            payload = json.load(fh)
        payload["model"] = {"kind": "linear-toy", "matrix_file": str(tmp_path / "a.f64"),
                            "reference_file": str(tmp_path / "ref.f64"),
                            "theta0": payload["model"]["theta0"]}
        cfg = write_config(tmp_path / "files.json", payload)
        cli.main(["run", "-c", toy_config, "--out", str(tmp_path / "seeded")])
        cli.main(["run", "-c", cfg, "--out", str(tmp_path / "files")])
        for name in ("trace.csv", "theta_final.f64"):
            assert ((tmp_path / "files" / name).read_bytes()
                    == (tmp_path / "seeded" / name).read_bytes())

    def test_wave_inline_model_field_matches_constant(self, wave_config, tmp_path):
        with open(wave_config) as fh:
            payload = json.load(fh)
        payload["model"]["initial_model"] = [1.1] * 64
        cfg = write_config(tmp_path / "inline.json", payload)
        cli.main(["run", "-c", wave_config, "--out", str(tmp_path / "constant")])
        cli.main(["run", "-c", cfg, "--out", str(tmp_path / "inline")])
        for name in ("trace.csv", "theta_final.f64"):
            assert ((tmp_path / "inline" / name).read_bytes()
                    == (tmp_path / "constant" / name).read_bytes())

    def test_wave_config_with_model_file(self, tmp_path):
        field = np.full((8, 8), 1.2)
        field[:, 4:] = 0.9
        write_field(tmp_path / "true.f64", field)
        cfg = write_config(
            tmp_path / "wf.json",
            {
                "model": {
                    "kind": "wave-fwi", "cells": [8, 8], "nt": 80, "dt": 0.4,
                    "sources": {"count": 1}, "wavelet": {"peak_freq": 0.1},
                    "true_model": {"file": str(tmp_path / "true.f64")},
                    "initial_model": {"constant": 1.0},
                },
                "solver": {"metric": "gd", "step0": 1.0, "max_iters": 1, "seed": 0},
                "output": {"directory": str(tmp_path / "wf_out")},
            },
        )
        assert cli.main(["run", "-c", cfg]) in (0, 2)
