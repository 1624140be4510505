"""Bivariate Gaussian mixture on a 2D grid with an analytic Jacobian.

The state is the mixture density sampled at the interior grid points;
parameters are a chosen subset of component weights and mean coordinates.
The objective is the least-squares misfit against a stored reference density,
so the explicit QR route applies directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..grids import Grid
from .base import ForwardModel


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


def _component_density(points, mean, inv, det) -> np.ndarray:
    """Normal density at points, from the covariance's inverse and determinant."""
    diff = points - mean
    d0, d1 = diff[:, 0], diff[:, 1]
    # The terms and order of einsum("ni,ij,nj->n", diff, inv, diff), which
    # this matches bit for bit at a fifth of its cost.
    quad = (d0 * inv[0, 0] * d0 + d0 * inv[0, 1] * d1
            + d1 * inv[1, 0] * d0 + d1 * inv[1, 1] * d1)
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
        # Validated and factored once: every density evaluation reuses them.
        covs = [c.cov_matrix() for c in self.components]
        self._factors = [(np.linalg.inv(c), np.linalg.det(c)) for c in covs]
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
        # Per-component normal densities at the cached theta, shared with
        # jacobian().
        self._cache_dens = None

    @cached_property
    def _fixed_dens(self) -> dict:
        """Densities of the components no free parameter references; they never change."""
        freed = {c for c, _, _ in self.free}
        return {
            c: _component_density(self._points, np.asarray(comp.mean, float), *self._factors[c])
            for c, comp in enumerate(self.components) if c not in freed
        }

    @classmethod
    def from_reference_mixture(cls, grid, model_components, free, reference_components):
        """Sample the reference density from another mixture on the same grid:
        the density of a model of that mixture with nothing freed."""
        reference = cls(grid, reference_components, [], np.zeros(grid.size))
        return cls(grid, model_components, free, reference.density([]))

    @property
    def state_dim(self) -> int:
        return self.grid.size

    @property
    def param_dim(self) -> int:
        return len(self.free)

    def _resolved(self, theta):
        """Per-component weights and means with theta substituted."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.param_dim,):
            raise ValueError(f"theta must have length {self.param_dim}")
        weights = [c.weight for c in self.components]
        means = [np.asarray(c.mean, dtype=float).copy() for c in self.components]
        for value, (comp, kind, axis) in zip(theta, self.free):
            if kind == "weight":
                weights[comp] = value
            else:
                means[comp][axis] = value
        return weights, means

    def _densities(self, means, comps) -> dict:
        """Normal density of each listed component; fixed ones are reused."""
        return {
            c: self._fixed_dens[c] if c in self._fixed_dens
            else _component_density(self._points, means[c], *self._factors[c])
            for c in comps
        }

    def density(self, theta) -> np.ndarray:
        return self._density_parts(theta)[0]

    def _density_parts(self, theta):
        """(mixture density, per-component densities) at theta."""
        weights, means = self._resolved(theta)
        dens = self._densities(means, range(len(self.components)))
        rho = np.zeros(self.grid.size)
        for w, d in zip(weights, dens.values()):
            rho += w * d
        return rho, dens

    def solve_forward(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if self._is_cached(theta):
            return self._cache_rho.copy()
        self.propagation_counter += 1
        self._cache_theta = theta.copy()
        self._cache_rho, self._cache_dens = self._density_parts(theta)
        return self._cache_rho.copy()

    def jacobian(self, theta) -> np.ndarray:
        """Column j is the density derivative with respect to free parameter j.

        At the cached theta the forward solve's component densities are
        reused; elsewhere each freed component is evaluated once. Neither
        charges a propagation.
        """
        weights, means = self._resolved(theta)
        if self._is_cached(theta):
            dens = self._cache_dens
        else:
            dens = self._densities(means, {c for c, _, _ in self.free})
        z = np.empty((self.grid.size, self.param_dim))
        for j, (comp, kind, axis) in enumerate(self.free):
            if kind == "weight":
                z[:, j] = dens[comp]
            else:
                inv = self._factors[comp][0]
                diff = self._points - means[comp]
                z[:, j] = weights[comp] * dens[comp] * (diff @ inv[:, axis])
        return z
