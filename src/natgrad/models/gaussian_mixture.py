"""Bivariate Gaussian mixture on a 2D grid with an analytic Jacobian.

The state is the mixture density sampled at the interior grid points;
parameters are a chosen subset of component weights and mean coordinates.
The objective is the least-squares misfit against a stored reference density,
so the explicit QR route applies directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..grids import Grid
from .base import ForwardModel, least_squares_misfit


@dataclass(frozen=True)
class GaussianComponent:
    weight: float
    mean: tuple[float, float]
    cov: tuple[tuple[float, float], tuple[float, float]]

    def cov_matrix(self) -> np.ndarray:
        c = np.asarray(self.cov, dtype=float)
        if c.shape != (2, 2) or not np.allclose(c, c.T):
            raise ValueError("covariance must be symmetric 2x2")
        if np.any(np.linalg.eigvalsh(c) <= 0.0):
            raise ValueError("covariance must be positive definite")
        return c


def _component_density(points, mean, cov) -> np.ndarray:
    inv = np.linalg.inv(cov)
    det = np.linalg.det(cov)
    diff = points - mean
    quad = np.einsum("ni,ij,nj->n", diff, inv, diff)
    return np.exp(-0.5 * quad) / (2.0 * np.pi * np.sqrt(det))


def parse_free_parameter(text: str) -> tuple[int, str, int]:
    """Parse selectors like 'c0.mean.0' or 'c1.weight'."""
    parts = text.split(".")
    if not parts[0].startswith("c"):
        raise ValueError(f"bad free-parameter selector {text!r}")
    comp = int(parts[0][1:])
    if parts[1] == "weight" and len(parts) == 2:
        return comp, "weight", 0
    if parts[1] == "mean" and len(parts) == 3 and parts[2] in ("0", "1"):
        return comp, "mean", int(parts[2])
    raise ValueError(f"bad free-parameter selector {text!r}")


class GaussianMixtureModel(ForwardModel):
    """Mixture density model; free parameters select weights/mean coordinates.

    Freed weights are varied directly (no renormalization of the others), so
    the Jacobian column of a weight parameter is simply that component's
    normal density field.
    """

    def __init__(self, grid: Grid, components, free, reference):
        super().__init__()
        if grid.dim != 2:
            raise ValueError("the mixture model lives on a 2D grid")
        self.grid = grid
        self.components = [
            c if isinstance(c, GaussianComponent) else GaussianComponent(**c)
            for c in components
        ]
        weights = np.array([c.weight for c in self.components])
        if np.any(weights < 0.0):
            raise ValueError("component weights must be nonnegative")
        for c in self.components:
            c.cov_matrix()
        self.free = [
            parse_free_parameter(f) if isinstance(f, str) else tuple(f) for f in free
        ]
        for comp, kind, _ in self.free:
            if not 0 <= comp < len(self.components):
                raise ValueError(f"free parameter references component {comp}")
            if kind not in ("weight", "mean"):
                raise ValueError(f"unsupported free parameter kind {kind!r}")
        self.reference = np.asarray(reference, dtype=float)
        if self.reference.shape != (grid.size,):
            raise ValueError("reference must be sampled on the grid")
        self._points = grid.points()
        self._cache_rho = None

    @classmethod
    def from_reference_mixture(cls, grid, model_components, free, reference_components):
        """Sample the reference density from another mixture on the same grid."""
        ref = [
            c if isinstance(c, GaussianComponent) else GaussianComponent(**c)
            for c in reference_components
        ]
        pts = grid.points()
        rho_star = np.zeros(grid.size)
        for c in ref:
            rho_star += c.weight * _component_density(
                pts, np.asarray(c.mean, float), c.cov_matrix()
            )
        return cls(grid, model_components, free, rho_star)

    @property
    def state_dim(self) -> int:
        return self.grid.size

    @property
    def param_dim(self) -> int:
        return len(self.free)

    def theta0(self) -> np.ndarray:
        """Current values of the free parameters."""
        out = np.empty(self.param_dim)
        for i, (comp, kind, axis) in enumerate(self.free):
            c = self.components[comp]
            out[i] = c.weight if kind == "weight" else c.mean[axis]
        return out

    def _resolved(self, theta):
        """Per-component (weight, mean, cov) with theta substituted."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.param_dim,):
            raise ValueError(f"theta must have length {self.param_dim}")
        weights = [c.weight for c in self.components]
        means = [np.asarray(c.mean, dtype=float).copy() for c in self.components]
        covs = [c.cov_matrix() for c in self.components]
        for value, (comp, kind, axis) in zip(theta, self.free):
            if kind == "weight":
                weights[comp] = value
            else:
                means[comp][axis] = value
        return weights, means, covs

    def density(self, theta) -> np.ndarray:
        weights, means, covs = self._resolved(theta)
        rho = np.zeros(self.grid.size)
        for w, mu, cov in zip(weights, means, covs):
            rho += w * _component_density(self._points, mu, cov)
        return rho

    def solve_forward(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if self._cache_theta is not None and np.array_equal(theta, self._cache_theta):
            return self._cache_rho.copy()
        self.propagation_counter += 1
        self._cache_theta = theta.copy()
        self._cache_rho = self.density(theta)
        return self._cache_rho.copy()

    def jacobian(self, theta) -> np.ndarray:
        """Column j is the density derivative with respect to free parameter j."""
        weights, means, covs = self._resolved(theta)
        z = np.empty((self.grid.size, self.param_dim))
        for j, (comp, kind, axis) in enumerate(self.free):
            dens = _component_density(self._points, means[comp], covs[comp])
            if kind == "weight":
                z[:, j] = dens
            else:
                inv = np.linalg.inv(covs[comp])
                diff = self._points - means[comp]
                z[:, j] = weights[comp] * dens * (diff @ inv[:, axis])
        return z

    def loss_and_grad_rho(self, rho):
        return least_squares_misfit(rho, self.reference)

    def loss_and_grads(self, theta):
        """(loss, grad wrt state, grad wrt parameters) at theta."""
        rho = self.density(theta)
        loss, grad_rho = self.loss_and_grad_rho(rho)
        grad_theta = self.jacobian(theta).T @ grad_rho
        return loss, grad_rho, grad_theta
