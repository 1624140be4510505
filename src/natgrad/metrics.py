"""Metric operator family: for each metric a pair of linear actions v -> L v
and g -> pinv(L^T) g, plus information-matrix assembly.

Every descent direction is computed from the same least-squares problem

    min_eta || pinv(L^T) grad_rho_f + (L Z) eta ||_2,

so switching metrics only swaps the L pair:

    l2           L = I
    fisher-rao   L = diag(1/sqrt(rho))
    h1           L = [I; G],              pinv(L^T) g = [w; G w], w = (I+G^TG)^-1 g
    h-1          L = [I; G](I+G^TG)^-1,   pinv(L^T) g = [g; G g]
    hdot1        L = G,                   pinv(L^T) g = G (G^TG)^+ g
    hdot-1       L = G (G^TG)^+,          pinv(L^T) g = G g
    w2           L = pinv(B),             pinv(L^T) g = B^T g

with G the staggered Neumann gradient and B the density-weighted
central-difference divergence. Fisher-Rao and the transport metric depend on
the current density and must be refreshed every iteration; refreshing returns
a new operator, so operators stay immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .grids import (
    Grid,
    WeightedDivergence,
    build_operator_set,
    build_weighted_divergence,
)

_FAMILIES = ("l2", "fisher-rao", "sobolev", "wasserstein")
# Metric names in configs and on the command line: (family, order, homogeneous).
_NAMED = {
    "l2": ("l2",), "fisher-rao": ("fisher-rao",), "w2": ("wasserstein",),
    "h1": ("sobolev", 1), "h-1": ("sobolev", -1),
    "hdot1": ("sobolev", 1, True), "hdot-1": ("sobolev", -1, True),
}


@dataclass(frozen=True)
class MetricKind:
    """Identifies one metric family plus its parameters."""

    family: str
    order: int = 1
    homogeneous: bool = False
    mobility_exponent: float = 0.5

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown metric family {self.family!r}")
        if self.family == "sobolev" and self.order not in (1, -1):
            raise ValueError("sobolev order must be +1 or -1")
        if not 0.0 <= self.mobility_exponent <= 1.0:
            raise ValueError("mobility exponent must lie in [0, 1]")

    @property
    def state_dependent(self) -> bool:
        return self.family in ("fisher-rao", "wasserstein")

    @staticmethod
    def parse(text: str) -> "MetricKind":
        """Parse the metric names used in configs and on the command line."""
        t = text.strip().lower()
        if t.startswith("w2:k="):
            return MetricKind("wasserstein", mobility_exponent=float(t[5:]))
        if t not in _NAMED:
            raise ValueError(f"unknown metric name {text!r}")
        return MetricKind(*_NAMED[t])

    def label(self) -> str:
        if self.family == "sobolev":
            base = "hdot" if self.homogeneous else "h"
            return f"{base}{self.order}"
        if self.family == "wasserstein" and self.mobility_exponent != 0.5:
            return f"w2:k={self.mobility_exponent:g}"
        return {"l2": "l2", "fisher-rao": "fisher-rao", "wasserstein": "w2"}[self.family]


@dataclass(frozen=True)
class InfoMatrix:
    """Symmetric PSD information matrix (L Z)^T (L Z) for one metric."""

    matrix: np.ndarray
    kind: MetricKind


class _Actions(NamedTuple):
    """One metric's linear actions on a vector or a (k, p) column block.

    ``project`` maps onto range(L^T) and is None when L^T has full row rank.
    """

    L: Callable[[np.ndarray], np.ndarray]
    Lt_pinv: Callable[[np.ndarray], np.ndarray]
    LtL: Callable[[np.ndarray], np.ndarray]
    row_dim: int
    project: Callable[[np.ndarray], np.ndarray] | None = None
    divergence: WeightedDivergence | None = None


def _identity(v):
    return v


def _remove_mean(g):
    return g - g.mean(axis=0)


def _l2_actions(kind: MetricKind, grid: Grid, rho) -> _Actions:
    return _Actions(_identity, _identity, _identity, grid.size)


def _fisher_rao_actions(kind: MetricKind, grid: Grid, rho) -> _Actions:
    # Transposing lets one weight per state entry scale a vector or every
    # column of a block.
    sqrt_rho = np.sqrt(rho)
    return _Actions(
        L=lambda v: (v.T / sqrt_rho).T,
        Lt_pinv=lambda g: (g.T * sqrt_rho).T,
        LtL=lambda v: (v.T / rho).T,
        row_dim=grid.size,
    )


def _sobolev_actions(kind: MetricKind, grid: Grid, rho) -> _Actions:
    ops = build_operator_set(grid)
    g = ops.grad_neumann
    gtg = -ops.laplacian_neumann
    if kind.homogeneous:
        def stack(v):
            return g @ v

        def gram(v):
            return gtg @ v

        solve, rows, project = ops.solve_poisson_deflated, ops.edge_count, _remove_mean
    else:
        def stack(v):
            return np.concatenate([v, g @ v])

        def gram(v):
            return v + gtg @ v

        solve, rows, project = ops.solve_h1, grid.size + ops.edge_count, None

    def solve_then_stack(v):
        return stack(solve(v))

    # Orders +1 and -1 swap the roles of L and pinv(L^T).
    if kind.order == 1:
        return _Actions(stack, solve_then_stack, gram, rows, project)
    return _Actions(solve_then_stack, stack, solve, rows, project)


def _transport_actions(kind: MetricKind, grid: Grid, rho) -> _Actions:
    wdiv = build_weighted_divergence(grid, rho, kind.mobility_exponent)
    project = wdiv.project_range if wdiv.rank_deficient else None
    return _Actions(
        wdiv.apply_pinv, wdiv.apply_bt, wdiv.apply_gram_pinv,
        grid.dim * grid.size, project, wdiv,
    )


_ACTIONS = {
    "l2": _l2_actions,
    "fisher-rao": _fisher_rao_actions,
    "sobolev": _sobolev_actions,
    "wasserstein": _transport_actions,
}


class _InfoMatrixMixin:
    """Information-matrix assembly shared by single-grid and per-panel metrics."""

    def info_matrix(self, z) -> InfoMatrix:
        """Assemble (L Z)^T (L Z), symmetrized."""
        y = self.apply_L_matrix(z)
        g = y.T @ y
        return InfoMatrix(matrix=0.5 * (g + g.T), kind=self.kind)


class MetricOperator(_InfoMatrixMixin):
    """The (L, pinv(L^T)) action pair for one metric on one grid.

    Every action takes a state vector or a (k, p) block of state columns.
    """

    def __init__(self, kind: MetricKind, grid: Grid, rho: np.ndarray | None = None):
        if kind.state_dependent:
            if rho is None:
                raise ValueError(f"metric {kind.label()!r} requires a density")
            rho = np.asarray(rho, dtype=float)
            if np.any(rho <= 0.0):
                raise ValueError("density must be strictly positive")
        self.kind = kind
        self.grid = grid
        self.rho = rho
        self.state_dependent = kind.state_dependent
        self._actions = _ACTIONS[kind.family](kind, grid, rho)
        self.row_dim = self._actions.row_dim
        self.needs_tangent_projection = self._actions.project is not None
        self.weighted_divergence = self._actions.divergence

    def refresh(self, rho) -> "MetricOperator":
        """Return an operator rebuilt at the new density (self if state-free)."""
        if not self.state_dependent:
            return self
        return MetricOperator(self.kind, self.grid, rho)

    def apply_L(self, v) -> np.ndarray:
        return self._actions.L(np.asarray(v, dtype=float))

    def apply_Lt_pinv(self, grad) -> np.ndarray:
        return self._actions.Lt_pinv(np.asarray(grad, dtype=float))

    def apply_LtL(self, v) -> np.ndarray:
        """Apply L^T L in one shot (exact closed forms, no stacking)."""
        return self._actions.LtL(np.asarray(v, dtype=float))

    def project_state_gradient(self, g) -> np.ndarray:
        """Project onto range(L^T): the component of the state gradient the
        metric can see. Only the homogeneous Sobolev metrics (constants are
        dropped) and a rank-deficient transport divergence project; the
        matrix-free route must feed Z^T applied to this projection to agree
        with the least-squares formulation."""
        g = np.asarray(g, dtype=float)
        if not self.needs_tangent_projection:
            return g
        return self._actions.project(g)

    def apply_L_matrix(self, z) -> np.ndarray:
        """Apply L to a (k, p) matrix as one block."""
        return self.apply_L(z)


def build_metric(kind: MetricKind | str, grid: Grid, rho=None) -> MetricOperator:
    if isinstance(kind, str):
        kind = MetricKind.parse(kind)
    return MetricOperator(kind, grid, rho)


def normalize_to_density(values, floor_fraction: float = 0.1) -> np.ndarray:
    """Affine shift-and-scale of arbitrary data onto a strictly positive density.

    Shifts by -min + floor_fraction * (max - min), then scales to mean one
    (unit total mass under the unweighted quadrature, where each sample has
    unit cell measure). Mean-one rather than sum-one keeps density-weighted
    operators on the same scale as their unweighted counterparts regardless of
    the panel size. Flat inputs map to the uniform density.
    """
    v = np.asarray(values, dtype=float)
    spread = float(v.max() - v.min())
    if spread <= 1e-300:
        return np.ones(v.shape)
    shifted = v - v.min() + floor_fraction * spread
    return shifted * (v.size / shifted.sum())


class BlockMetric(_InfoMatrixMixin):
    """One metric applied per data panel, summed into a single operator.

    Used for multi-source data: the state vector is the concatenation of
    n_blocks panels, each living on ``block_grid``. State-dependent metrics
    weight each panel by its own normalized density; state-free metrics share
    a single underlying operator across panels.
    """

    def __init__(
        self,
        kind: MetricKind | str,
        block_grid: Grid,
        n_blocks: int,
        densities=None,
    ):
        if isinstance(kind, str):
            kind = MetricKind.parse(kind)
        self.kind = kind
        self.block_grid = block_grid
        self.n_blocks = n_blocks
        self.state_dependent = kind.state_dependent
        self.grid = block_grid
        if kind.state_dependent:
            if densities is None:
                raise ValueError(f"metric {kind.label()!r} requires panel densities")
            self._blocks = [
                MetricOperator(kind, block_grid, normalize_to_density(d))
                for d in densities
            ]
        else:
            shared = MetricOperator(kind, block_grid)
            self._blocks = [shared] * n_blocks

    @property
    def block_size(self) -> int:
        return self.block_grid.size

    @property
    def row_dim(self) -> int:
        return sum(b.row_dim for b in self._blocks)

    @property
    def needs_tangent_projection(self) -> bool:
        return any(b.needs_tangent_projection for b in self._blocks)

    def _split(self, v) -> list[np.ndarray]:
        """Panels of a state vector or of a block of state columns."""
        v = np.asarray(v, dtype=float)
        expected = self.n_blocks * self.block_size
        if v.ndim not in (1, 2) or v.shape[0] != expected:
            raise ValueError(f"state shape {v.shape} does not start with {expected}")
        return np.split(v, self.n_blocks)

    def _map(self, action, v) -> np.ndarray:
        """Apply a MetricOperator action panel by panel and stack the results."""
        panels = self._split(v)
        return np.concatenate([action(b, p) for b, p in zip(self._blocks, panels)])

    def refresh(self, state) -> "BlockMetric":
        if not self.state_dependent:
            return self
        return BlockMetric(
            self.kind, self.block_grid, self.n_blocks, densities=self._split(state)
        )

    def apply_L(self, v) -> np.ndarray:
        return self._map(MetricOperator.apply_L, v)

    def apply_Lt_pinv(self, grad) -> np.ndarray:
        return self._map(MetricOperator.apply_Lt_pinv, grad)

    def apply_LtL(self, v) -> np.ndarray:
        return self._map(MetricOperator.apply_LtL, v)

    def project_state_gradient(self, g) -> np.ndarray:
        return self._map(MetricOperator.project_state_gradient, g)

    def apply_L_matrix(self, z) -> np.ndarray:
        return self._map(MetricOperator.apply_L_matrix, z)
