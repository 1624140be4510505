"""One natgrad command in a fresh process: ``python3 worker.py SPEC.json``.

SPEC holds ``argv`` (the natgrad command line), ``mode`` (plain, trace or
probe), ``loads`` (how many times set-up runs in a plain run) and, for trace
mode, ``run_id`` and ``span_file``. The command runs in-process through
``natgrad.cli.main``. The last line of standard output is one JSON object
with the timings, peak RSS and the outputs the correctness checks need.

Timed section (``wall_s``): ``cli.main`` minus its own ``load_experiment``
call. Set-up (``setup_s``): the median of ``loads`` calls of
``load_experiment`` on the same config, the first being the one inside
``cli.main``; the others run after it, so the timed section starts cold.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import natgrad.cli  # noqa: E402
import natgrad.config  # noqa: E402
from natgrad.fields import read_field  # noqa: E402
from natgrad.grids import build_operator_set  # noqa: E402

from tracing import ROOT, AllocProbe, Tracer  # noqa: E402

ZERO_MATRIX_WARNING = "least-squares matrix is numerically zero"


def _rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_loader(loads: list, experiments: list):
    """Wrap cli.load_experiment, recording its duration and its Experiment."""
    inner = natgrad.cli.load_experiment

    def load(*args, **kwargs):
        t0 = time.perf_counter()
        exp = inner(*args, **kwargs)
        loads.append(time.perf_counter() - t0)
        experiments.append(exp)
        return exp

    natgrad.cli.load_experiment = load


def _outputs(argv, exp) -> dict:
    """What the run left behind: loss trace, final theta, propagations."""
    model = exp.model
    found = {"cell_updates_per_propagation": getattr(model, "n_t", 0)
             * getattr(model, "npx", 0) * getattr(model, "npz", 0)}
    if argv[0] == "check":
        # `check` optimizes nothing; its misfit is the loss at the check point.
        found["propagations"] = model.propagation_counter
        found["losses"] = [model.loss_and_grad_rho(model.solve_forward(exp.theta0))[0]]
        return found
    out = Path(argv[argv.index("--out") + 1])
    with open(out / "trace.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    theta = read_field(out / "theta_final.f64").ravel()
    found["propagations"] = int(rows[-1]["propagations"])
    found["losses"] = [float(r["loss"]) for r in rows]
    found["theta"] = theta.tolist() if theta.size <= 16 else None
    return found


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    argv, mode = spec["argv"], spec["mode"]
    base_rss = _rss_mib()
    loads, experiments = [], []
    tracer = probe = None
    if mode == "trace":
        tracer = Tracer(spec["run_id"])
        tracer.install()
    elif mode == "probe":
        probe = AllocProbe()
        probe.install()
    _timed_loader(loads, experiments)

    stdout = io.StringIO()
    with warnings.catch_warnings(record=(mode == "trace")) as caught:
        if mode == "trace":
            warnings.simplefilter("always")
        root = tracer.open(ROOT) if tracer else None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                rc = natgrad.cli.main(argv)
        except AllocProbe.Done:
            rc = None
        wall = time.perf_counter() - t0 - loads[0]
        if tracer:
            tracer.close(root)
    peak_rss = _rss_mib()

    result = {"rc": rc, "stdout": stdout.getvalue(), "wall_s": wall,
              "rss_mib": peak_rss, "base_rss_mib": base_rss}
    if mode == "probe":
        result["peak_alloc_mib"] = probe.peak_mib
        print(json.dumps(result))
        return
    if mode == "trace":
        # Summarize before reading outputs, which may call traced functions.
        summary = tracer.summary()
        summary["zero_matrix_fallbacks"] = sum(
            str(w.message).startswith(ZERO_MATRIX_WARNING) for w in caught
        )
        info = build_operator_set.cache_info()
        summary["operator_set_hits"], summary["operator_set_misses"] = info.hits, info.misses
        result["trace"] = summary
        with open(spec["span_file"], "a") as fh:
            for line in tracer.dump_lines():
                fh.write(json.dumps(line) + "\n")
    result.update(_outputs(argv, experiments[0]))
    if mode == "trace":
        print(json.dumps(result))
        return

    config = argv[argv.index("-c") + 1]
    for _ in range(spec["loads"] - 1):
        t0 = time.perf_counter()
        natgrad.config.load_experiment(config)
        loads.append(time.perf_counter() - t0)
    result["setup_s"] = statistics.median(loads)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
