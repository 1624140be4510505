"""Metric operator family: for each metric a pair of linear actions v -> L v
and g -> pinv(L^T) g, plus information-matrix assembly.

Every descent direction is computed from the same least-squares problem

    min_eta || pinv(L^T) grad_rho_f + (L Z) eta ||_2,

so switching metrics only swaps the L pair. The minimum-norm solution sees L
only through L^T L and range(L^T): a stacked L = Q L' with orthonormal
columns in Q gives the same eta as L' (Bjorck, Numerical Methods for Least
Squares Problems, 1996, ch. 1-2). So every L here has exactly k rows (k =
state size), a k x k root of the same L^T L as the stacked form in the last
column:

    name         L                    pinv(L^T) g               stacked form
    l2           I                    g
    fisher-rao   diag(1/sqrt(rho))    sqrt(rho) g
    h1           (1+lam)^(1/2) C      (1+lam)^(-1/2) C g        [I; G]
    h-1          (1+lam)^(-1/2) C     (1+lam)^(1/2) C g         [I; G](I+G^TG)^-1
    hdot1        lam^(1/2) C P        (lam^+)^(1/2) C P g       G
    hdot-1       (lam^+)^(1/2) C P    lam^(1/2) C P g           G (G^TG)^+
    w2           R^-T P               R (g - g_0 1)             pinv(B)

with G the staggered Neumann gradient, C the orthonormal 2D DCT-II and lam
its Neumann eigenvalues (C^T diag(lam) C = G^T G; lam^+ is 1/lam, zero on
the constant mode), P the mean removal, B the density-weighted
central-difference divergence and R the upper Cholesky factor of B B^T
per index-parity block in red-black form: the red rows are diagonal plus
couplings, the black rows the banded factor of the Schur complement on the
black points. P and g_0 (the value at the grounded node, the densest black
node) act only on the transport's singular block, present when every
interior count is odd. L^T L itself is applied by its closed forms (the
stencil of G^T G, one DCT scaling for its inverses, pinv(B B^T)).

Fisher-Rao and the transport metric depend on the current density and must
be refreshed every iteration. Refreshing spends the operator it is called
on: it builds the new operator one panel at a time and frees each old panel
once its replacement is built, so no refresh holds two whole copies of a
metric, and the spent operator refuses every action.

One class, ``MetricOperator``, covers every model: it acts on ``panels``
copies of one grid, with L block diagonal over them. The model says which
grid and how many panels (``metric_domain``: one grid for the mixture and
the toy, one receiver x time panel per source for the wave model) and which
density weights them (``metric_state``).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .grids import Grid, build_operator_set, build_weighted_divergence

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
    """One metric's linear actions on a vector or a (k, p) column block; each
    maps k rows to k rows.

    ``project`` maps onto range(L^T) and is None when L^T has full row rank.
    """

    L: Callable[[np.ndarray], np.ndarray]
    Lt_pinv: Callable[[np.ndarray], np.ndarray]
    LtL: Callable[[np.ndarray], np.ndarray]
    project: Callable[[np.ndarray], np.ndarray] | None = None


def _identity(v):
    return v


def _remove_mean(g):
    return g - g.mean(axis=0)


def _l2_actions(kind: MetricKind, grid: Grid, rho) -> _Actions:
    return _Actions(_identity, _identity, _identity)


def _fisher_rao_actions(kind: MetricKind, grid: Grid, rho) -> _Actions:
    # Transposing lets one weight per state entry scale a vector or every
    # column of a block.
    sqrt_rho = np.sqrt(rho)
    return _Actions(
        L=lambda v: (v.T / sqrt_rho).T,
        Lt_pinv=lambda g: (g.T * sqrt_rho).T,
        LtL=lambda v: (v.T / rho).T,
    )


def _sobolev_actions(kind: MetricKind, grid: Grid, rho) -> _Actions:
    ops = build_operator_set(grid)
    lam = ops.eigenvalues
    if kind.homogeneous:
        # The mean goes first, so constants map to exactly zero; the constant
        # mode's scale is zero either way.
        center = project = _remove_mean
        root = np.sqrt(lam)
        inverse_root = 1.0 / np.where(lam == 0.0, np.inf, root)
        inverse = 1.0 / np.where(lam == 0.0, np.inf, lam)
    else:
        center, project = _identity, None
        root = np.sqrt(1.0 + lam)
        inverse_root, inverse = 1.0 / root, 1.0 / (1.0 + lam)

    # Orders +1 and -1 swap the roles of L and pinv(L^T).
    if kind.order == -1:
        root, inverse_root = inverse_root, root

    def gram(v):
        # L^T L: G^T G (plus I) by its stencil, or for order -1 its
        # (pseudo)inverse, one scaling in the DCT basis.
        if kind.order == -1:
            return ops.apply_spectral(v, inverse)
        lap = ops.apply_laplacian(v)
        return -lap if kind.homogeneous else v - lap

    def apply_l(v):
        return ops.transform(center(v), root)

    def apply_lt_pinv(g):
        return ops.transform(center(g), inverse_root)

    return _Actions(apply_l, apply_lt_pinv, gram, project)


def _transport_actions(kind: MetricKind, grid: Grid, rho) -> _Actions:
    wdiv = build_weighted_divergence(grid, rho, kind.mobility_exponent)
    project = wdiv.project_range if wdiv.rank_deficient else None
    return _Actions(
        wdiv.apply_inverse_root, wdiv.apply_root, wdiv.apply_gram_pinv, project
    )


_ACTIONS = {
    "l2": _l2_actions,
    "fisher-rao": _fisher_rao_actions,
    "sobolev": _sobolev_actions,
    "wasserstein": _transport_actions,
}


class MetricOperator:
    """The (L, pinv(L^T)) action pair for one metric on ``panels`` copies of
    a grid.

    The state is the concatenation of ``panels`` vectors on ``grid`` (a
    single grid is one panel), and L is block diagonal over them. A
    state-dependent metric weights each panel by its own slice of ``rho``; a
    state-free one shares one set of actions across every panel. Every action
    takes a state vector or a (k, p) block of state columns. ``kind`` is a
    ``MetricKind`` or a metric name as in configs.
    """

    def __init__(self, kind: MetricKind | str, grid: Grid, rho: np.ndarray | None = None,
                 panels: int = 1):
        if isinstance(kind, str):
            kind = MetricKind.parse(kind)
        self.kind = kind
        self.grid = grid
        self.panels = panels
        self.state_dependent = kind.state_dependent
        self._state_size = panels * grid.size
        if self.state_dependent:
            if rho is None:
                raise ValueError(f"metric {kind.label()!r} requires a density")
            self.rho = self._checked_density(rho)
            self._actions = self._build_panels()
        else:
            self.rho = None
            self._actions = [_ACTIONS[kind.family](kind, grid, None)] * panels
        # Whether L^T drops directions depends on the kind and the grid only,
        # so every panel agrees.
        self.needs_tangent_projection = self._actions[0].project is not None

    def _checked_density(self, rho) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        if rho.shape != (self._state_size,):
            raise ValueError(f"density shape {rho.shape} is not ({self._state_size},)")
        if np.any(rho <= 0.0):
            raise ValueError("density must be strictly positive")
        return rho

    def _build_panels(self, spent: list | None = None) -> list:
        """Build each panel's actions at ``self.rho``. Once panel i is built,
        ``spent[i]`` (the same panel of the operator being refreshed) is
        dropped, so at most one panel is held beyond one metric."""
        build = _ACTIONS[self.kind.family]
        actions = []
        for i, r in enumerate(np.split(self.rho, self.panels)):
            actions.append(build(self.kind, self.grid, r))
            if spent is not None:
                spent[i] = None
        return actions

    def _live_actions(self) -> list:
        if self._actions is None:
            raise RuntimeError(
                "this metric operator was spent by refresh; use the operator refresh returned"
            )
        return self._actions

    def _state(self, v) -> np.ndarray:
        """A state vector or (k, p) block, checked against a live operator."""
        self._live_actions()
        v = np.asarray(v, dtype=float)
        if v.ndim not in (1, 2) or v.shape[0] != self._state_size:
            raise ValueError(f"state shape {v.shape} does not start with {self._state_size}")
        return v

    def _map(self, action: str, v) -> np.ndarray:
        """Apply one action panel by panel and stack the results."""
        v = self._state(v)
        if self.panels == 1:
            return getattr(self._actions[0], action)(v)
        parts = np.split(v, self.panels)
        return np.concatenate([getattr(a, action)(p) for a, p in zip(self._actions, parts)])

    def refresh(self, rho) -> "MetricOperator":
        """Return the operator rebuilt at the new density (self if state-free).

        Refreshing spends a state-dependent operator: its density goes
        first, then each old panel as soon as its new one is built, so the
        returned operator is the only usable one and every action of the
        spent one raises RuntimeError. A density that fails its checks
        leaves this operator as it was."""
        if not self.state_dependent:
            return self
        spent = self._live_actions()
        rho = self._checked_density(rho)
        self.rho = self._actions = None
        fresh = copy.copy(self)
        fresh.rho = rho
        fresh._actions = fresh._build_panels(spent)
        return fresh

    def apply_Lt_pinv(self, grad) -> np.ndarray:
        return self._map("Lt_pinv", grad)

    def apply_LtL(self, v) -> np.ndarray:
        """Apply L^T L in one shot (exact closed forms, no stacking)."""
        return self._map("LtL", v)

    def project_state_gradient(self, g) -> np.ndarray:
        """Project onto range(L^T): the component of the state gradient the
        metric can see. Only the homogeneous Sobolev metrics (constants are
        dropped) and a rank-deficient transport divergence project; the
        matrix-free route must feed Z^T applied to this projection to agree
        with the least-squares formulation."""
        if not self.needs_tangent_projection:
            return self._state(g)
        return self._map("project", g)

    def apply_L_matrix(self, z) -> np.ndarray:
        """Apply L to a state vector or to a (k, p) matrix as one block."""
        return self._map("L", z)

    def info_matrix(self, z) -> InfoMatrix:
        """Assemble (L Z)^T (L Z), symmetrized."""
        y = self.apply_L_matrix(z)
        g = y.T @ y
        return InfoMatrix(matrix=0.5 * (g + g.T), kind=self.kind)


# The benchmark tracer still patches methods by this name; the alias goes
# once it reads cProfile instead (ROADMAP items 18 and 4).
BlockMetric = MetricOperator
