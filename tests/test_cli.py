"""End-to-end CLI: configs, outputs, exit codes, determinism."""

import csv
import json

import numpy as np
import pytest

from natgrad import WaveFwiModel, cli
from natgrad.fields import read_field, write_field


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


def read_trace(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestRun:
    def test_toy_converges_first_iteration(self, toy_config, tmp_path):
        code = cli.main(["run", "-c", toy_config])
        # Exact step to the minimizer, then the next line search stagnates.
        assert code == 2
        rows = read_trace(tmp_path / "out" / "trace.csv")
        assert float(rows[1]["loss"]) < 1e-20
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

    def test_mixture_fd_jacobian_pass(self, mixture_config, capsys):
        assert cli.main(["check", "-c", mixture_config]) == 0
        assert "fd-gradient" in capsys.readouterr().out

    def test_broken_adjoint_detected(self, wave_config, monkeypatch, capsys):
        # Fault injection: perturb the reverse-time solve so the transpose
        # identity no longer holds.
        original = WaveFwiModel.apply_drho_h_transpose_inverse

        def broken(self, data_rhs):
            fields = original(self, data_rhs)
            return [f * 1.001 for f in fields]

        monkeypatch.setattr(WaveFwiModel, "apply_drho_h_transpose_inverse", broken)
        assert cli.main(["check", "-c", wave_config]) == 3
        assert "FAIL  adjoint-dot-product" in capsys.readouterr().out


class TestFieldIo:
    def test_roundtrip(self, tmp_path, rng):
        arr = rng.standard_normal((4, 6))
        write_field(tmp_path / "f.f64", arr, spacings=(0.5, 0.25))
        back = read_field(tmp_path / "f.f64")
        np.testing.assert_array_equal(back, arr)
        header = (tmp_path / "f.f64.hdr").read_text()
        assert "shape 4 6" in header and "little-endian" in header

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
