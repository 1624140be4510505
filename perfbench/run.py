"""natgrad benchmark: three paper workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the package is imported from ``src/``). Each
repetition runs every ``natgrad`` command of the workload in its own fresh
process (``worker.py``), one after the other, so peak RSS, the
``build_operator_set`` cache and the model forward caches start empty and
every ``natgrad run`` loads its own model. BLAS runs single-threaded.
Repetitions continue while another one fits in ``--seconds``; every
repetition is checked for correctness (``workloads.py``).

``--trace 0`` reports the end-to-end metrics, as medians over repetitions.
``--trace 1`` alternates plain and traced repetitions and reports per-layer
metrics from the traced ones, plus the tracing overhead (traced minus plain
``wall_s``). It also writes the span dump and a per-layer
table to ``.perfbench_out/traces/``. A wave workload adds one allocation probe
per command (tracemalloc inside the first timed forward solve and
information-matrix action only; the probe stops the command after that).

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` (repetitions) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import LAYERS, PROPAGATION_KIND, SETUP  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_LOADS = 5
BLAS_THREADS = 1
WORKER_TIMEOUT_S = 170

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "propagations": "count",
    "final_misfit": "loss",
    "peak_rss_mib": "MiB",
}

# Layers reported as {calls, self_s}; optimize and line_search report other counts.
_CALLED = tuple(dict.fromkeys(
    name for name, _, _ in LAYERS
    if name not in (SETUP, "solver.optimize", "solver.line_search")
))
# name -> (unit, better)
PER_LAYER = {
    f"{SETUP}.self_s": ("s", "lower"),
    **{f"{n}.{k}": u for n in _CALLED
       for k, u in (("calls", ("count", "lower")), ("self_s", ("s", "lower")))},
    **{f"wave.propagations.{k}": ("count", "lower") for k in PROPAGATION_KIND.values()},
    "wave.s_per_propagation": ("s", "lower"),
    "wave.cell_updates_per_s": ("1/s", "higher"),
    "wave.solve_forward.peak_alloc_mib": ("MiB", "lower"),
    **{f"grids.backend.{b}": ("count", "lower") for b in ("dense", "sparse", "lsmr")},
    "grids.rank_deficient": ("count", "lower"),
    "grids.build_operator_set.hits": ("count", "higher"),
    "grids.build_operator_set.misses": ("count", "lower"),
    "linalg.cg_solve.iterations": ("count", "lower"),
    "linalg.cg_solve.iters_per_solve": ("count", "lower"),
    "linalg.cg_solve.converged_ratio": ("ratio", "higher"),
    "linalg.zero_matrix_fallbacks": ("count", "lower"),
    "solver.optimize.self_s": ("s", "lower"),
    "solver.gl_action.peak_alloc_mib": ("MiB", "lower"),
    "solver.line_search.calls": ("count", "lower"),
    "solver.line_search.trials": ("count", "lower"),
    "solver.line_search.accept_ratio": ("ratio", "higher"),
    "solver.iterations": ("count", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}


class WorkerFailed(RuntimeError):
    """A natgrad command's process exited without a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Runner:
    """Runs repetitions of one workload at one seed inside a work directory."""

    def __init__(self, workload, seed: int, work: Path, span_file: Path | None):
        self.workload = workload
        self.work = work
        self.span_file = span_file
        self.env = _child_env()
        self.commands = []
        for inv in workload.invocations(seed):
            d = work / inv.label
            d.mkdir()
            (d / "config.json").write_text(json.dumps(inv.config))
            argv = [inv.command, "-c", str(d / "config.json")]
            if inv.command == "run":
                argv += ["--out", str(d / "out")]
            self.commands.append((inv.label, argv))
        self.reps = 0

    def _worker(self, label: str, argv: list, mode: str) -> dict:
        spec = {"argv": argv, "mode": mode, "loads": SETUP_LOADS,
                "run_id": f"{label}#{self.reps}", "span_file": str(self.span_file)}
        spec_path = self.work / label / f"spec-{mode}.json"
        spec_path.write_text(json.dumps(spec))
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            cwd=self.work / label, env=self.env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise WorkerFailed(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        return json.loads(lines[-1])

    def rep(self, mode: str) -> tuple[dict, list]:
        """One repetition: every command once; returns (results, problems)."""
        self.reps += 1
        results = {label: self._worker(label, argv, mode) for label, argv in self.commands}
        return results, self.workload.check(results)

    def probe(self) -> dict:
        peaks = {}
        for label, argv in self.commands:
            for name, mib in self._worker(label, argv, "probe")["peak_alloc_mib"].items():
                peaks[name] = max(peaks.get(name, 0.0), mib)
        return peaks


def end_to_end(results: dict) -> dict:
    """End-to-end metrics of one repetition."""
    headline = results.get("w2") or results["check"]
    return {
        "wall_s": sum(r["wall_s"] for r in results.values()),
        "setup_s": sum(r["setup_s"] for r in results.values()),
        "propagations": sum(r["propagations"] for r in results.values()),
        "final_misfit": headline["losses"][-1],
        "peak_rss_mib": max(r["rss_mib"] for r in results.values()),
    }


def per_layer(results: dict) -> tuple[dict, dict]:
    """Per-layer metrics of one traced repetition (summed over its commands),
    and the summed per-layer rows for the table."""
    rows, out = {}, {}
    wall = unattributed = cell_updates = 0.0
    extra = {"zero_matrix_fallbacks": 0, "operator_set_hits": 0, "operator_set_misses": 0}
    for r in results.values():
        tr = r["trace"]
        wall += tr["wall_s"]
        unattributed += tr["layers"].get("unattributed", {}).get("self_s", 0.0)
        for name, row in tr["layers"].items():
            acc = rows.setdefault(name, {})
            for key, value in row.items():
                acc[key] = acc.get(key, 0) + value
        for key in extra:
            extra[key] += tr[key]
        wave_props = sum(tr["layers"].get(n, {}).get("propagations", 0)
                         for n in PROPAGATION_KIND)
        cell_updates += wave_props * r["cell_updates_per_propagation"]

    def get(name, key):
        return rows.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    out[f"{SETUP}.self_s"] = get(SETUP, "self_s")
    for name in _CALLED:
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.self_s"] = get(name, "self_s")
    solve_s = sum(get(n, "self_s") for n in PROPAGATION_KIND)
    for name, kind in PROPAGATION_KIND.items():
        out[f"wave.propagations.{kind}"] = get(name, "propagations")
    out["wave.s_per_propagation"] = ratio(
        solve_s, sum(get(n, "propagations") for n in PROPAGATION_KIND))
    out["wave.cell_updates_per_s"] = ratio(cell_updates, solve_s)
    for b in ("dense", "sparse", "lsmr"):
        out[f"grids.backend.{b}"] = get("grids.build_weighted_divergence", f"backend.{b}")
    out["grids.rank_deficient"] = get("grids.build_weighted_divergence", "rank_deficient")
    out["grids.build_operator_set.hits"] = extra["operator_set_hits"]
    out["grids.build_operator_set.misses"] = extra["operator_set_misses"]
    cg_calls = get("linalg.cg_solve", "calls")
    out["linalg.cg_solve.iterations"] = get("linalg.cg_solve", "iterations")
    out["linalg.cg_solve.iters_per_solve"] = ratio(get("linalg.cg_solve", "iterations"), cg_calls)
    out["linalg.cg_solve.converged_ratio"] = ratio(get("linalg.cg_solve", "converged"), cg_calls)
    out["linalg.zero_matrix_fallbacks"] = extra["zero_matrix_fallbacks"]
    out["solver.optimize.self_s"] = get("solver.optimize", "self_s")
    out["solver.line_search.calls"] = get("solver.line_search", "calls")
    out["solver.line_search.trials"] = get("solver.line_search", "trials")
    out["solver.line_search.accept_ratio"] = ratio(
        get("solver.line_search", "accepted"), get("solver.line_search", "trials"))
    out["solver.iterations"] = get("solver.optimize", "iterations")
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = unattributed
    return out, rows


def _median_dict(samples: list) -> dict:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def _percentile_note(values: list) -> str:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return f"n={n}: no percentile has 10 samples beyond it"
    p = int(100 * (1 - 10 / n))
    q = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return f"n={n}: p{p}={q:.4f}"


def _layer_table(rows: dict, wall: float, unattributed: float) -> str:
    lines = [f"{'layer':<38} {'calls':>7} {'self_s':>10} {'share':>7}  counts"]
    body = sorted(((n, r) for n, r in rows.items() if n != "unattributed"),
                  key=lambda item: -item[1].get("self_s", 0.0))
    total = unattributed
    for name, row in body:
        counts = {k: v for k, v in row.items() if k not in ("calls", "self_s")}
        share = "setup" if name == SETUP else f"{row['self_s'] / wall:7.1%}"
        if name != SETUP:
            total += row["self_s"]
        lines.append(f"{name:<38} {int(row.get('calls', 0)):>7} {row['self_s']:>10.4f} "
                     f"{share:>7}  {json.dumps(counts) if counts else ''}")
    lines.append(f"{'unattributed':<38} {'':>7} {unattributed:>10.4f} {unattributed / wall:7.1%}")
    lines.append(f"{'sum of self times (= traced wall_s)':<38} {'':>7} {total:>10.4f}")
    lines.append(f"{'traced wall_s':<38} {'':>7} {wall:>10.4f}")
    return "\n".join(lines)


class Tally:
    """Repetitions attempted and failed (correctness check or crash)."""

    def __init__(self):
        self.attempted = self.failed = 0

    def rep(self, runner: Runner, mode: str) -> dict | None:
        """Run and check one repetition; returns its results unless it crashed."""
        self.attempted += 1
        try:
            results, problems = runner.rep(mode)
        except WorkerFailed as exc:
            results, problems = None, [str(exc)]
        if problems:
            self.failed += 1
            print(f"{mode} rep {self.attempted}: FAILED: {'; '.join(problems)}",
                  file=sys.stderr)
        return results


def _repeat(seconds: float, body) -> None:
    """Call body() at least once, then while another call fits in `seconds`."""
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        body()
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return


def timed_run(runner: Runner, seconds: float):
    samples, tally = [], Tally()

    def body():
        results = tally.rep(runner, "plain")
        if results is not None:
            e2e = end_to_end(results)
            samples.append(e2e)
            print(f"rep {tally.attempted}: "
                  + ", ".join(f"{k}={v:.6g}" for k, v in e2e.items())
                  + f"; base_rss_mib={max(r['base_rss_mib'] for r in results.values()):.1f}")

    _repeat(seconds, body)
    if not samples:
        raise WorkerFailed("no repetition produced results")
    print("wall_s " + _percentile_note([s["wall_s"] for s in samples]))
    print(f"error_rate={tally.failed / tally.attempted:.3f} "
          f"({tally.failed}/{tally.attempted} repetitions)")
    return _median_dict(samples), tally


def traced_run(runner: Runner, seconds: float, trace_dir: Path, name: str, seed: int):
    plain, traced, tables, tally = [], [], [], Tally()

    def body():
        results = tally.rep(runner, "plain")
        if results is not None:
            plain.append(end_to_end(results)["wall_s"])
        results = tally.rep(runner, "trace")
        if results is not None:
            metrics, rows = per_layer(results)
            traced.append(metrics)
            tables.append(_layer_table(rows, metrics["trace.wall_s"],
                                       metrics["trace.unattributed_s"]))

    _repeat(seconds, body)
    if not plain or not traced:
        raise WorkerFailed("no plain and traced repetition pair produced results")
    metrics = _median_dict(traced)
    peaks = runner.probe() if runner.workload.wave else {}
    metrics["wave.solve_forward.peak_alloc_mib"] = peaks.get("wave.solve_forward", 0.0)
    metrics["solver.gl_action.peak_alloc_mib"] = peaks.get("solver.gl_action", 0.0)
    plain_wall = statistics.median(plain)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - plain_wall
    metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / plain_wall
    report = (f"workload {name}, seed {seed}: plain wall_s median {plain_wall:.4f} "
              f"(n={len(plain)}), traced {metrics['trace.wall_s']:.4f} (n={len(traced)}), "
              f"tracing overhead {metrics['trace.overhead_s']:+.4f} s "
              f"({metrics['trace.overhead_share']:+.2%}); "
              f"error_rate {tally.failed}/{tally.attempted}\n\n{tables[-1]}\n\n"
              f"wave.s_per_propagation {metrics['wave.s_per_propagation']:.5f} s; "
              f"wave.cell_updates_per_s {metrics['wave.cell_updates_per_s']:.4g} (computed: "
              "propagations x n_t x padded cells / self time of the three wave solves)\n"
              "tracemalloc peak of the first timed call: wave.solve_forward "
              f"{metrics['wave.solve_forward.peak_alloc_mib']:.2f} MiB, solver.gl_action "
              f"{metrics['solver.gl_action.peak_alloc_mib']:.2f} MiB\n")
    (trace_dir / f"{name}-seed{seed}.txt").write_text(report)
    print(report)
    return metrics, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "natgrad" / "cli.py").is_file():
        print(f"error: no natgrad sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_root = ROOT / ".perfbench_out"
    trace_dir = out_root / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    span_file = trace_dir / f"{args.workload}-seed{args.seed}.spans.jsonl"
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root))
    try:
        runner = Runner(WORKLOADS[args.workload], args.seed, work,
                        span_file if args.trace else None)
        print(f"workload {args.workload}, seed {args.seed}, nproc {os.cpu_count()}, "
              f"BLAS threads {BLAS_THREADS}, python {sys.version.split()[0]}")
        if args.trace:
            span_file.unlink(missing_ok=True)
            metrics, tally = traced_run(
                runner, args.seconds, trace_dir, args.workload, args.seed)
            units = {k: u for k, (u, _) in PER_LAYER.items()}
        else:
            metrics, tally = timed_run(runner, args.seconds)
            units = END_TO_END
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
