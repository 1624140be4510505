"""Shared model contract.

A model maps parameters theta in R^p to an observed state rho in R^k and
exposes whichever Jacobian access it has:

* explicit models implement ``jacobian(theta)`` returning the dense k x p
  matrix of state sensitivities;
* constraint-based models expose four linear actions derived from the
  constraint h(state, theta) = 0:

      apply_drho_h_inverse(rhs)            solve d_rho h . gamma = rhs, observed
      apply_drho_h_transpose_inverse(rhs)  solve d_rho h^T . lam = rhs injected
      apply_dtheta_h(eta)                  d_theta h . eta
      apply_dtheta_h_transpose(lam)        d_theta h^T . lam

  Constraint fields are one array. For models whose observation is the full
  constraint state (the linear toy), rhs/lam vectors live in R^k. For the
  wave model they are space-time stacks with a leading source axis,
  (n_sources, n_t, npx, npz); the inverse action returns receiver traces and
  the transposed inverse takes trace-space input, so the two remain exact
  adjoints of each other between those spaces. ``apply_dtheta_h`` may return
  a lazy array-like (the wave model's Born source) that supports negation and
  ``np.asarray``; ``apply_drho_h_inverse`` accepts it, its negation, or any
  array-like of the field shape. Likewise ``apply_drho_h_transpose_inverse``
  may return lazy adjoint fields (the wave model's ``AdjointFields``) that
  carry what ``apply_dtheta_h_transpose`` needs, their correlation with the
  cached forward fields, and have ``shape``; ``apply_dtheta_h_transpose``
  accepts them (from the current forward solve only) or any array-like of
  the field shape. ``np.asarray`` on them re-runs the adjoint solve, which
  is charged to ``propagation_counter``.

Every model tracks ``propagation_counter``: one unit per forward, adjoint, or
linearized-forward solve (per source for the wave model, whose batched solves
march every source at once), the cost unit used in convergence histories.
The wave model's ``receiver_jacobian`` is charged the same way: it marches
one reverse solve per receiver, n_sources receivers per batched march, so
ceil(n_receivers / n_sources) * n_sources propagations instead of one
linearized solve per parameter.
``reset_accounting()`` zeroes it together with the forward cache.

Metrics see the state through ``metric_domain``, (grid, panels): the state
is ``panels`` copies of ``grid`` concatenated (``self.grid`` once by
default; one receiver x time panel per source for the wave model), and
``metric_state(rho)``, the positive density that weights Fisher-Rao and
transport metrics (rho itself by default; the wave model normalizes each
trace panel, since traces change sign).
"""

from __future__ import annotations

import numpy as np


def least_squares_misfit(rho, reference) -> tuple[float, np.ndarray]:
    """Plain least-squares data misfit: (0.5 ||rho - ref||^2, rho - ref)."""
    residual = np.asarray(rho, dtype=float) - np.asarray(reference, dtype=float)
    return 0.5 * float(residual @ residual), residual


class ForwardModel:
    """Base class carrying the propagation counter and misfit plumbing."""

    def __init__(self):
        self.propagation_counter = 0
        # Parameters of the cached forward solve; None when nothing is cached.
        self._cache_theta = None

    def _is_cached(self, theta) -> bool:
        """True when the cached forward solve was made at exactly theta."""
        return self._cache_theta is not None and np.array_equal(theta, self._cache_theta)

    def reset_accounting(self) -> None:
        """Zero the propagation counter and drop the cached forward solve, so
        the next run starts from scratch and pays for its first forward."""
        self.propagation_counter = 0
        self._cache_theta = None

    # --- dimensions -----------------------------------------------------
    @property
    def state_dim(self) -> int:
        raise NotImplementedError

    @property
    def param_dim(self) -> int:
        raise NotImplementedError

    # --- forward map and objective ---------------------------------------
    def solve_forward(self, theta) -> np.ndarray:
        raise NotImplementedError

    def loss_and_grad_rho(self, rho) -> tuple[float, np.ndarray]:
        """Least-squares misfit against the model's ``reference`` state."""
        return least_squares_misfit(rho, self.reference)

    @property
    def metric_domain(self):
        """(grid, panels): the metric acts on ``panels`` copies of ``grid``."""
        return self.grid, 1

    def metric_state(self, rho) -> np.ndarray:
        """The density that state-dependent metrics are weighted with."""
        return np.asarray(rho, dtype=float)

    # --- capability probes ------------------------------------------------
    @property
    def has_explicit_jacobian(self) -> bool:
        return hasattr(self, "jacobian")

    @property
    def has_adjoint_actions(self) -> bool:
        return hasattr(self, "apply_drho_h_inverse")
