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

  For models whose observation is the full constraint state (the linear
  toy), constraint fields are vectors in R^k. For the wave model they are
  space-time stacks with a leading source axis, (n_sources, n_t, npx, npz);
  the inverse action returns receiver traces and the transposed inverse
  takes trace-space input, so the two remain exact adjoints of each other
  between those spaces. The wave model's fields never leave it as arrays:
  ``apply_dtheta_h`` returns a ``BornSource``, which only
  ``apply_drho_h_inverse`` takes, and ``apply_drho_h_transpose_inverse``
  an ``AdjointFields``, which only ``apply_dtheta_h_transpose`` takes. So
  every caller composes the actions as the adjoint-state method does:
  Z eta = d_rho h^-1 d_theta h eta and Z^T g = d_theta h^T d_rho h^-T g.

Every model tracks ``propagation_counter``: one unit per forward, adjoint, or
linearized-forward solve (per source for the wave model, whose batched solves
march every source at once), the cost unit used in convergence histories.
The wave model's ``receiver_jacobian`` is charged the same way: it marches
one reverse solve per receiver, n_sources receivers per batched march, so
ceil(n_receivers / n_sources) * n_sources propagations instead of one
linearized solve per parameter.

The forward cache lives here: a model implements ``_solve(theta)``, the
state at a theta that ``check_theta`` accepted (its length; the wave model
adds positivity and the CFL bound), charging its own propagations.
``solve_forward`` calls it only at a new theta, caches (theta, state) once
it returns and hands out copies; ``reset_accounting()`` zeroes the counter
and drops the cache.

Metrics see the state through ``metric_domain``, (grid, panels): the state
is ``panels`` copies of ``grid`` concatenated (``self.grid`` once by
default; one receiver x time panel per source for the wave model), and
``metric_state(rho)``, the positive density that weights Fisher-Rao and
transport metrics (rho itself by default; the wave model normalizes each
trace panel, since traces change sign).
"""

from __future__ import annotations

import numpy as np


class ForwardModel:
    """Base class carrying the propagation counter, the forward cache and the
    least-squares misfit."""

    def __init__(self):
        self.propagation_counter = 0
        # (theta, state) of the last forward solve; None when nothing is cached.
        self._cache = None

    def _is_cached(self, theta) -> bool:
        """True when the cached forward solve was made at exactly theta."""
        return self._cache is not None and np.array_equal(theta, self._cache[0])

    def reset_accounting(self) -> None:
        """Zero the propagation counter and drop the cached forward solve, so
        the next run starts from scratch and pays for its first forward."""
        self.propagation_counter = 0
        self._cache = None

    # --- dimensions -----------------------------------------------------
    @property
    def state_dim(self) -> int:
        raise NotImplementedError

    @property
    def param_dim(self) -> int:
        raise NotImplementedError

    # --- forward map and objective ---------------------------------------
    def check_theta(self, theta) -> np.ndarray:
        """theta as a float array, once it has param_dim entries."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.param_dim,):
            raise ValueError(f"theta must have length {self.param_dim}")
        return theta

    def solve_forward(self, theta) -> np.ndarray:
        """The state at theta, from the cache when theta is the cached one."""
        theta = self.check_theta(theta)
        if not self._is_cached(theta):
            self._cache = None  # a solve that raises leaves no cache
            self._cache = (theta.copy(), self._solve(theta))
        return self._cache[1].copy()

    def loss_and_grad_rho(self, rho) -> tuple[float, np.ndarray]:
        """Least-squares misfit against the model's ``reference`` state:
        (0.5 ||rho - ref||^2, rho - ref), summed by np.sum: a BLAS dot
        product's order would depend on the thread count."""
        if self.reference is None:
            raise RuntimeError("no observed data set; call generate_reference first")
        residual = np.asarray(rho, dtype=float) - self.reference
        return 0.5 * float(np.sum(residual * residual)), residual

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
