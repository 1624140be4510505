"""Linear model with constraint rho = A theta.

Both Jacobian routes are exposed: the explicit k x p matrix is simply A, and
the constraint actions reduce to identities (d_rho h = I, d_theta h = -A).
This makes the model the reference oracle for checking that the explicit QR
path and the matrix-free adjoint/CG path compute the same directions.
"""

from __future__ import annotations

import numpy as np

from ..grids import Grid
from .base import ForwardModel


class LinearToyModel(ForwardModel):
    def __init__(self, a, reference):
        super().__init__()
        self.a = np.asarray(a, dtype=float)
        if self.a.ndim != 2:
            raise ValueError("A must be a matrix")
        self.reference = np.asarray(reference, dtype=float)
        if self.reference.shape != (self.a.shape[0],):
            raise ValueError("reference length must match the row count of A")
        self.grid = Grid.index_space([self.a.shape[0]])

    @classmethod
    def random_positive(cls, rows: int, cols: int, seed: int, theta_true=None):
        """Random instance whose states A theta stay strictly positive for
        positive theta, so density-weighted metrics are usable."""
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.1, 1.0, size=(rows, cols))
        if theta_true is None:
            theta_true = rng.uniform(0.5, 1.5, size=cols)
        theta_true = np.asarray(theta_true, dtype=float)
        return cls(a, a @ theta_true), theta_true

    @property
    def state_dim(self) -> int:
        return self.a.shape[0]

    @property
    def param_dim(self) -> int:
        return self.a.shape[1]

    def _solve(self, theta) -> np.ndarray:
        self.propagation_counter += 1
        return self.a @ theta

    # --- explicit route ---------------------------------------------------
    def jacobian(self, theta) -> np.ndarray:
        return self.a.copy()

    # --- constraint route: h(rho, theta) = rho - A theta -------------------
    def apply_drho_h_inverse(self, rhs) -> np.ndarray:
        self.propagation_counter += 1
        return np.asarray(rhs, dtype=float).copy()

    def apply_drho_h_transpose_inverse(self, rhs) -> np.ndarray:
        self.propagation_counter += 1
        return np.asarray(rhs, dtype=float).copy()

    def apply_dtheta_h(self, eta) -> np.ndarray:
        return -(self.a @ np.asarray(eta, dtype=float))

    def apply_dtheta_h_transpose(self, lam) -> np.ndarray:
        return -(self.a.T @ np.asarray(lam, dtype=float))
