"""Direction equivalence on the fwi-w2-budget model (30x30 cells, p = 900).

``natgrad check`` compares the explicit QR direction with the matrix-free CG
direction only when p <= 200, so its comparison never reaches the model behind
the FWI benchmark. This script runs that same comparison (the check's
``_check_direction_equivalence``) on the seed-0 ``fwi-w2-budget`` config of
perfbench/workloads.py and prints the relative error, the propagations it
charged, its wall time and the process's peak resident memory (ru_maxrss).
It exits 1 when the relative error is 1e-6 or more, as the check would fail.

From the repository root, at one BLAS thread as the benchmark runs:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/fwi_direction_equivalence.py

It takes about 20 s and 0.6 GiB.
"""

from __future__ import annotations

import json
import resource
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

from natgrad.cli import _check_direction_equivalence  # noqa: E402
from natgrad.config import load_experiment  # noqa: E402


def main() -> int:
    config = workloads.fwi_invocations(0)[0].config
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fwi.json"
        path.write_text(json.dumps(config))
        exp = load_experiment(path)
    model = exp.model
    start_props, start = model.propagation_counter, time.perf_counter()
    _, detail = _check_direction_equivalence(model, exp.theta0, exp.solver.metric)
    wall = time.perf_counter() - start
    rel = float(detail.split()[-1])
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"model: {model.nx}x{model.nz} cells, p = {model.param_dim}")
    print(f"rel err {rel:.3e} (fails at >= 1e-6)")
    print(f"propagations {model.propagation_counter - start_props}")
    print(f"wall {wall:.1f} s")
    print(f"ru_maxrss {rss:.0f} MiB")
    return 0 if rel < 1e-6 else 1


if __name__ == "__main__":
    sys.exit(main())
