"""Recompute the stored global minimizer of the mixture-basins loss.

    PYTHONPATH=src python3 perfbench/oracle.py

Brute force over the domain (81 x 81 coarse grid, then 13 x 13 around the best
point), as in acceptance criterion 5. The reference mixture does not depend
on the workload seed, so one stored minimizer serves every seed.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from natgrad.config import load_experiment

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import HERE, mixture_invocations  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mixture.json"
        path.write_text(json.dumps(mixture_invocations(0)[0].config))
        model = load_experiment(path).model

    def loss_at(a, b):
        return model.loss_and_grad_rho(model.density(np.array([a, b])))[0]

    best = (np.inf, 0.0, 0.0)
    for a in np.linspace(-2.75, 7.25, 81):
        for b in np.linspace(-2.75, 7.25, 81):
            best = min(best, (loss_at(a, b), a, b))
    _, a0, b0 = best
    for a in np.linspace(a0 - 0.15, a0 + 0.15, 13):
        for b in np.linspace(b0 - 0.15, b0 + 0.15, 13):
            best = min(best, (loss_at(a, b), a, b))
    out = {"theta_star": [float(best[1]), float(best[2])], "loss": float(best[0])}
    (HERE / "mixture_minimizer.json").write_text(json.dumps(out, indent=1) + "\n")
    print(out)


if __name__ == "__main__":
    main()
