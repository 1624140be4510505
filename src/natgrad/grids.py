"""Uniform-grid discretizations of the differential operators behind each metric.

Two stencil families live here:

* a staggered zero-Neumann gradient (forward differences onto interior edges)
  whose negative transpose is the matching divergence, used by the Sobolev
  metrics; the Laplacian is defined as -G^T G so adjoint identities hold to
  machine precision rather than to discretization order;
* the central-difference divergence with zero-Dirichlet velocity boundaries,
  weighted by a power of the density, used by the optimal-transport metric.

Grid values are flattened in C order with the x axis slowest (index =
ix * n_y + iy), matching the Kronecker products used to build operators.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .linalg import solve_least_squares_min_norm

# Above this many entries in B^T the rank-deficient (every interior count odd)
# weighted divergence switches from the dense minimum-norm solve to lsmr.
DENSE_BT_LIMIT = 20_000


@dataclass(frozen=True)
class Grid:
    """A uniform 1D or 2D grid described by its interior points.

    ``interior_counts`` are the numbers of interior points per axis; the
    boundary points implied by ``extents`` are not carried in state vectors.
    """

    interior_counts: tuple[int, ...]
    spacings: tuple[float, ...]
    extents: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.interior_counts) not in (1, 2):
            raise ValueError("only 1D and 2D grids are supported")
        if any(n < 1 for n in self.interior_counts):
            raise ValueError("interior counts must be >= 1")
        if any(h <= 0 for h in self.spacings):
            raise ValueError("spacings must be positive")

    @classmethod
    def regular(cls, extents, interior_counts) -> "Grid":
        """Build a grid from axis bounds; spacing is (b - a) / (count + 1)."""
        extents = tuple((float(a), float(b)) for a, b in extents)
        counts = tuple(int(n) for n in interior_counts)
        spacings = tuple(
            (b - a) / (n + 1) for (a, b), n in zip(extents, counts)
        )
        return cls(counts, spacings, extents)

    @classmethod
    def index_space(cls, interior_counts) -> "Grid":
        """Grid with unit spacing, used for data panels (e.g. receiver x time)."""
        counts = tuple(int(n) for n in interior_counts)
        extents = tuple((0.0, float(n + 1)) for n in counts)
        return cls(counts, tuple(1.0 for _ in counts), extents)

    @property
    def dim(self) -> int:
        return len(self.interior_counts)

    @property
    def size(self) -> int:
        return int(np.prod(self.interior_counts))

    def axis_points(self, axis: int) -> np.ndarray:
        a, _ = self.extents[axis]
        h = self.spacings[axis]
        n = self.interior_counts[axis]
        return a + h * np.arange(1, n + 1)

    def points(self) -> np.ndarray:
        """Interior point coordinates, shape (size, dim), x-major flattening."""
        axes = [self.axis_points(i) for i in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    @property
    def cell_area(self) -> float:
        return float(np.prod(self.spacings))


def central_difference_matrix(n: int) -> sp.csr_matrix:
    """Central difference matrix with zero-Dirichlet boundary: +1 super, -1 sub."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return sp.csr_matrix((1, 1))
    ones = np.ones(n - 1)
    return sp.diags([ones, -ones], [1, -1], shape=(n, n)).tocsr()


def forward_difference_matrix(n: int) -> sp.csr_matrix:
    """Forward difference onto the n-1 interior edges of n cell centers."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return sp.csr_matrix((0, 1))
    ones = np.ones(n - 1)
    return sp.diags([-ones, ones], [0, 1], shape=(n - 1, n)).tocsr()


def axis_central_operators(grid: Grid) -> tuple[sp.csr_matrix, ...]:
    """Central-difference derivative along each axis, scaled by 1/(2h)."""
    counts = grid.interior_counts
    if grid.dim == 1:
        return ((1.0 / (2.0 * grid.spacings[0])) * central_difference_matrix(counts[0]),)
    c_x = central_difference_matrix(counts[0])
    c_y = central_difference_matrix(counts[1])
    i_x = sp.identity(counts[0], format="csr")
    i_y = sp.identity(counts[1], format="csr")
    a_x = (1.0 / (2.0 * grid.spacings[0])) * sp.kron(c_x, i_y, format="csr")
    a_y = (1.0 / (2.0 * grid.spacings[1])) * sp.kron(i_x, c_y, format="csr")
    return (a_x, a_y)


def neumann_gradient(grid: Grid) -> sp.csr_matrix:
    """Staggered gradient (edges x k) with exactly the constants in its kernel."""
    counts = grid.interior_counts
    if grid.dim == 1:
        return (1.0 / grid.spacings[0]) * forward_difference_matrix(counts[0])
    d_x = forward_difference_matrix(counts[0])
    d_y = forward_difference_matrix(counts[1])
    i_x = sp.identity(counts[0], format="csr")
    i_y = sp.identity(counts[1], format="csr")
    g_x = (1.0 / grid.spacings[0]) * sp.kron(d_x, i_y, format="csr")
    g_y = (1.0 / grid.spacings[1]) * sp.kron(i_x, d_y, format="csr")
    return sp.vstack([g_x, g_y], format="csr")


class DifferentialOperatorSet:
    """Neumann gradient/Laplacian with cached elliptic factorizations.

    The Laplacian is the literal -G^T G, so <G u, w> = <u, G^T w> holds to
    machine precision and G 1 = 0 exactly. The deflated Poisson solve uses a
    sparse KKT system enforcing a zero-mean solution.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self.grad_neumann = neumann_gradient(grid)
        gtg = (self.grad_neumann.T @ self.grad_neumann).tocsc()
        self.laplacian_neumann = (-gtg).tocsr()
        k = grid.size
        self._h1_lu = spla.splu((sp.identity(k, format="csc") + gtg).tocsc())
        ones = sp.csc_matrix(np.ones((k, 1)))
        kkt = sp.bmat([[gtg, ones], [ones.T, None]], format="csc")
        self._poisson_lu = spla.splu(kkt)

    @property
    def edge_count(self) -> int:
        return self.grad_neumann.shape[0]

    def solve_h1(self, v: np.ndarray) -> np.ndarray:
        """Solve (I + G^T G) w = v."""
        return self._h1_lu.solve(np.asarray(v, dtype=float))

    def solve_poisson_deflated(self, v: np.ndarray) -> np.ndarray:
        """Solve G^T G w = v - mean(v) with mean(w) = 0, column by column."""
        v = np.asarray(v, dtype=float)
        rhs = np.concatenate([v, np.zeros((1,) + v.shape[1:])])
        return self._poisson_lu.solve(rhs)[:-1]


@lru_cache(maxsize=32)
def build_operator_set(grid: Grid) -> DifferentialOperatorSet:
    """Operator sets are immutable; cache them per grid."""
    return DifferentialOperatorSet(grid)


@dataclass(frozen=True)
class WeightedDivergence:
    """Density-weighted central-difference divergence B = -[A_x D, A_y D].

    D = diag(rho^mobility_exponent); exponent 0.5 gives the optimal-transport
    operator, 0 the plain divergence. With rho > 0 the cokernel of B is the
    tensor product of the per-axis kernels of the central-difference matrix,
    which is one-dimensional for an odd count and trivial for an even one. So
    B is full row rank exactly when some interior count is even; when every
    count is odd the rank drops by one and the minimum-norm backend is used.

    ``backend`` is "sparse" (LU of B B^T) for full rank, otherwise "dense"
    (pinv(B), formed once by the pivoted-QR minimum-norm solve) up to
    DENSE_BT_LIMIT entries of B^T and "lsmr" above. Every action accepts a
    vector or a block of columns.
    """

    grid: Grid
    mobility_exponent: float
    b: sp.csr_matrix
    backend: str
    _gram_lu: spla.SuperLU | None = field(default=None, repr=False)
    _pinv: np.ndarray | None = field(default=None, repr=False)

    @property
    def rank_deficient(self) -> bool:
        return self.backend != "sparse"

    def apply_pinv(self, zeta) -> np.ndarray:
        """Minimum-norm solution of B y = zeta (the action of pinv(B))."""
        zeta = np.asarray(zeta, dtype=float)
        if self.backend == "sparse":
            return self.b.T @ self._gram_lu.solve(zeta)
        if self.backend == "dense":
            return self._pinv @ zeta
        return self._lsmr(self.b, zeta)

    def apply_bt(self, g) -> np.ndarray:
        """Apply B^T, the matching (negative) weighted gradient."""
        return self.b.T @ np.asarray(g, dtype=float)

    def apply_gram_pinv(self, v) -> np.ndarray:
        """Apply pinv(B B^T), equal to pinv(B)^T pinv(B)."""
        v = np.asarray(v, dtype=float)
        if self.backend == "sparse":
            return self._gram_lu.solve(v)
        if self.backend == "dense":
            return self._pinv.T @ (self._pinv @ v)
        return self._lsmr(self.b.T, self.apply_pinv(v))

    @staticmethod
    def _lsmr(a: sp.csr_matrix, rhs: np.ndarray) -> np.ndarray:
        """Minimum-norm least-squares solution of a x = rhs by lsmr."""

        def solve(r):
            return spla.lsmr(a, r, atol=1e-13, btol=1e-13, maxiter=20000)[0]

        # lsmr takes one right-hand side at a time.
        if rhs.ndim == 1:
            return solve(rhs)
        return np.column_stack([solve(r) for r in rhs.T])


def build_weighted_divergence(
    grid: Grid, rho, mobility_exponent: float = 0.5
) -> WeightedDivergence:
    """Assemble B for the current density and prepare its pseudoinverse backend."""
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (grid.size,):
        raise ValueError(f"rho shape {rho.shape} does not match grid size {grid.size}")
    if np.any(rho <= 0.0):
        raise ValueError("density must be strictly positive")
    if not 0.0 <= mobility_exponent <= 1.0:
        raise ValueError("mobility exponent must lie in [0, 1]")
    weights = rho**mobility_exponent if mobility_exponent != 0.0 else np.ones_like(rho)
    d = sp.diags(weights)
    blocks = [-(a @ d) for a in axis_central_operators(grid)]
    b = sp.hstack(blocks, format="csr") if len(blocks) > 1 else blocks[0].tocsr()

    if any(n % 2 == 0 for n in grid.interior_counts):
        lu = spla.splu((b @ b.T).tocsc())
        return WeightedDivergence(grid, mobility_exponent, b, "sparse", lu)
    backend = "dense" if b.shape[0] * b.shape[1] <= DENSE_BT_LIMIT else "lsmr"
    warnings.warn(
        "every interior count is odd: the weighted divergence loses full row "
        f"rank and the {backend} minimum-norm backend will be used"
    )
    if backend == "lsmr":
        return WeightedDivergence(grid, mobility_exponent, b, backend)
    # Factor once per density: pinv(B) column by column.
    pinv = solve_least_squares_min_norm(b.toarray(), np.eye(b.shape[0]))
    return WeightedDivergence(grid, mobility_exponent, b, backend, _pinv=pinv)
