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


def _component_density(x, y, mean, inv, det) -> np.ndarray:
    """Normal density at the points (x, y), from the covariance's inverse and
    determinant."""
    d0, d1 = x - mean[0], y - mean[1]
    # The terms and order of einsum("ni,ij,nj->n", diff, inv, diff), which
    # this matches bit for bit at a sixth of its cost: d0 inv00 d0 + d0 inv01
    # d1 + d1 inv10 d0 + d1 inv11 d1, summed left to right in place.
    quad = d0 * inv[0, 0]
    quad *= d0
    term = np.empty_like(quad)
    for a, (i, j), b in ((d0, (0, 1), d1), (d1, (1, 0), d0), (d1, (1, 1), d1)):
        np.multiply(a, inv[i, j], out=term)
        term *= b
        quad += term
    quad *= -0.5
    np.exp(quad, out=quad)
    quad /= 2.0 * np.pi * np.sqrt(det)
    return quad


def _centred(x, y, mean) -> np.ndarray:
    """The (n, 2) array of points minus mean, built column by column: numpy
    broadcasts over a length-2 last axis five times slower."""
    diff = np.empty((x.size, 2))
    np.subtract(x, mean[0], out=diff[:, 0])
    np.subtract(y, mean[1], out=diff[:, 1])
    return diff


def parse_free_parameter(text: str) -> tuple[int, str, int]:
    """Parse selectors like 'c0.mean.0' or 'c1.weight'."""
    parts = str(text).split(".")
    if parts[0][:1] == "c" and parts[0][1:].isdigit():
        if parts[1:] == ["weight"]:
            return int(parts[0][1:]), "weight", 0
        if parts[1:] in (["mean", "0"], ["mean", "1"]):
            return int(parts[0][1:]), "mean", int(parts[2])
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
        self.free = [parse_free_parameter(f) for f in free]
        for comp, _, _ in self.free:
            if not 0 <= comp < len(self.components):
                raise ValueError(f"free parameter references component {comp}")
        self.reference = np.asarray(reference, dtype=float)
        if self.reference.shape != (grid.size,):
            raise ValueError("reference must be sampled on the grid")
        # Contiguous coordinate arrays: elementwise kernels on them run twice
        # as fast as on the strided columns of grid.points().
        self._xy = tuple(np.ascontiguousarray(c) for c in grid.points().T)
        # Per-component normal densities of the last forward solve, shared
        # with jacobian() at the cached theta.
        self._forward_dens = None

    @cached_property
    def _fixed_dens(self) -> dict:
        """Densities of the components no free parameter references; they never change."""
        freed = {c for c, _, _ in self.free}
        return {
            c: _component_density(*self._xy, np.asarray(comp.mean, float), *self._factors[c])
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
        """Per-component weights and means with a checked theta substituted."""
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
            else _component_density(*self._xy, means[c], *self._factors[c])
            for c in comps
        }

    def density(self, theta) -> np.ndarray:
        return self._density_parts(self.check_theta(theta))[0]

    def _density_parts(self, theta):
        """(mixture density, per-component densities) at theta."""
        weights, means = self._resolved(theta)
        dens = self._densities(means, range(len(self.components)))
        rho = np.zeros(self.grid.size)
        for w, d in zip(weights, dens.values()):
            rho += w * d
        return rho, dens

    solve_forward = ForwardModel.solve_forward  # in the class body, where tracers patch it

    def _solve(self, theta) -> np.ndarray:
        self.propagation_counter += 1
        rho, self._forward_dens = self._density_parts(theta)
        return rho

    def jacobian(self, theta) -> np.ndarray:
        """Column j is the density derivative with respect to free parameter j.

        At the cached theta the forward solve's component densities are
        reused; elsewhere each freed component is evaluated once. Neither
        charges a propagation.
        """
        theta = self.check_theta(theta)
        weights, means = self._resolved(theta)
        if self._is_cached(theta):
            dens = self._forward_dens
        else:
            dens = self._densities(means, {c for c, _, _ in self.free})
        # Row-major, although the w2 and Fisher-Rao roots act faster on a
        # column-major Z: the gradient Z^T grad_rho would round differently.
        z = np.empty((self.grid.size, self.param_dim))
        shared = {}  # component -> (weight x density, centred points)
        for j, (comp, kind, axis) in enumerate(self.free):
            if kind == "weight":
                z[:, j] = dens[comp]
                continue
            if comp not in shared:
                shared[comp] = (weights[comp] * dens[comp], _centred(*self._xy, means[comp]))
            scaled, diff = shared[comp]
            # The product's rounding depends on diff's (n, 2) row-major layout.
            np.multiply(scaled, diff @ self._factors[comp][0][:, axis], out=z[:, j])
        return z
