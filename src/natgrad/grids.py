"""Uniform-grid discretizations of the differential operators behind each metric.

Two stencil families live here:

* a staggered zero-Neumann gradient (forward differences onto interior edges)
  whose negative transpose is the matching divergence, used by the Sobolev
  metrics; the Laplacian is defined as -G^T G so adjoint identities hold to
  machine precision rather than to discretization order, and its elliptic
  solves are exact in the DCT-II eigenbasis, with no factorization;
* the central-difference divergence with zero-Dirichlet velocity boundaries,
  weighted by a power of the density, used by the optimal-transport metric;
  its Gram matrix is factored per index-parity block by banded Cholesky.

Grid values are flattened in C order with the x axis slowest (index =
ix * n_y + iy), matching the Kronecker products used to build operators.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.linalg import get_lapack_funcs

# LAPACK's banded Cholesky factorization and solve, called directly: scipy's
# cholesky_banded and cho_solve_banded wrappers cost several times the LAPACK
# call itself on small blocks.
_pbtrf = get_lapack_funcs("pbtrf", dtype=np.float64)
_pbtrs = get_lapack_funcs("pbtrs", dtype=np.float64)


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
    ones = np.ones(n - 1)
    return sp.diags([ones, -ones], [1, -1], shape=(n, n)).tocsr()


def _per_axis(grid: Grid, matrix, scale: float) -> list[sp.csr_matrix]:
    """The 1D operator matrix(n) * scale / h along each axis of the grid."""
    counts, ops = grid.interior_counts, []
    for axis, (n, h) in enumerate(zip(counts, grid.spacings)):
        factors = [sp.identity(m, format="csr") for m in counts]
        factors[axis] = (scale / h) * matrix(n)
        ops.append(factors[0] if grid.dim == 1 else sp.kron(*factors, format="csr"))
    return ops


def axis_central_operators(grid: Grid) -> tuple[sp.csr_matrix, ...]:
    """Central-difference derivative along each axis, scaled by 1/(2h)."""
    return tuple(_per_axis(grid, central_difference_matrix, 0.5))


def neumann_gradient(grid: Grid) -> sp.csr_matrix:
    """Staggered gradient (edges x k) with exactly the constants in its kernel:
    per axis, forward differences onto the n-1 interior edges of n centres."""
    def forward(n):
        ones = np.ones(n - 1)
        return sp.diags([-ones, ones], [0, 1], shape=(n - 1, n))
    return sp.vstack(_per_axis(grid, forward, 1.0), format="csr")


class DifferentialOperatorSet:
    """Neumann gradient/Laplacian with exact elliptic solves in the DCT basis.

    The Laplacian is the literal -G^T G, so <G u, w> = <u, G^T w> holds to
    machine precision and G 1 = 0 exactly. The orthonormal DCT-II (row k:
    cos(pi k (j + 1/2) / n), normalized) diagonalizes each axis's G^T G with
    eigenvalues (2 - 2 cos(pi k / n)) / h^2, and a 2D grid sums the two axes'
    values. So both solves transform, scale and transform back with one dense
    DCT-II matrix per axis: nothing is factored.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self.grad_neumann = neumann_gradient(grid)
        self.laplacian_neumann = (-(self.grad_neumann.T @ self.grad_neumann)).tocsr()
        lead = (2 - grid.dim) * (1,)  # a 1D grid as (1, n): one x point adds nothing
        self._shape = lead + grid.interior_counts
        self._dct, lam = [], 0.0
        for n, h in zip(self._shape, lead + grid.spacings):
            k = np.arange(n)
            dct = np.sqrt(2.0 / n) * np.cos(np.pi * np.outer(k, k + 0.5) / n)
            dct[0] = np.sqrt(1.0 / n)
            self._dct.append(dct)
            lam = np.add.outer(lam, (2.0 - 2.0 * np.cos(np.pi * k / n)) / (h * h))
        self._h1_scale = 1.0 / (1.0 + lam)
        lam[0, 0] = np.inf  # the constant mode, dropped
        self._poisson_scale = 1.0 / lam

    @property
    def edge_count(self) -> int:
        return self.grad_neumann.shape[0]

    def solve_h1(self, v: np.ndarray) -> np.ndarray:
        """Solve (I + G^T G) w = v, for a vector or each column of a block."""
        return self._spectral_solve(v, self._h1_scale)

    def solve_poisson_deflated(self, v: np.ndarray) -> np.ndarray:
        """Solve G^T G w = v - mean(v) with mean(w) = 0, column by column."""
        return self._spectral_solve(v, self._poisson_scale)

    def _spectral_solve(self, v, scale) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        (cx, cy), u = self._dct, v.reshape(self._shape + (-1,))  # columns last
        # Along x as one product over the flattened rest, along y batched.
        u = np.matmul(cy, (cx @ u.reshape(len(cx), -1)).reshape(u.shape))
        u = np.matmul(cy.T, u * scale[..., None])
        return (cx.T @ u.reshape(len(cx), -1)).reshape(v.shape)


@lru_cache(maxsize=32)
def build_operator_set(grid: Grid) -> DifferentialOperatorSet:
    """Operator sets are immutable; cache them per grid."""
    return DifferentialOperatorSet(grid)


@dataclass(frozen=True)
class WeightedDivergence:
    """Density-weighted central-difference divergence B = -[A_x D, A_y D].

    D = diag(rho^mobility_exponent); exponent 0.5 gives the optimal-transport
    operator, 0 the plain divergence. B B^T couples a point only to the points
    two apart along one axis, so ordered by index parity (ix mod 2, iy mod 2)
    it splits exactly into at most four weighted 5-point Laplacians on
    half-size grids, each factored by banded Cholesky. With rho > 0 the
    cokernel of B is the product of the per-axis kernels (1, 0, 1, 0, ...) of
    the central difference: trivial if some interior count is even, else the
    all-ones field on the even-even sub-lattice, whose block alone is then
    singular and is solved with that field projected out (minimum norm).

    ``backend`` is always "sparse" (a sparse banded factor). Every action
    accepts a vector or a block of columns.
    """

    grid: Grid
    mobility_exponent: float
    weights: np.ndarray = field(repr=False)
    # (flat indices, banded factor, singular?) per parity block, even-even first.
    _blocks: tuple = field(repr=False)

    backend = "sparse"

    @property
    def rank_deficient(self) -> bool:
        return all(n % 2 for n in self.grid.interior_counts)

    @property
    def b(self) -> sp.csr_matrix:
        """B assembled as a sparse matrix; the actions never form it."""
        d = sp.diags(self.weights)
        return sp.hstack([-(a @ d) for a in axis_central_operators(self.grid)], format="csr")

    def apply_pinv(self, zeta) -> np.ndarray:
        """Minimum-norm solution of B y = zeta (the action of pinv(B))."""
        return self.apply_bt(self._solve_gram(zeta))

    def apply_bt(self, g) -> np.ndarray:
        """Apply B^T, the matching (negative) weighted gradient, by stencil."""
        g = np.asarray(g, dtype=float)
        counts = self.grid.interior_counts
        u = g.reshape(counts + g.shape[1:])
        w = self.weights.reshape(counts + (1,) * (g.ndim - 1))
        out = np.empty((len(counts),) + u.shape)
        for axis, h in enumerate(self.grid.spacings):
            # -(A^T g) = (C g) / (2h) with (C g)[i] = g[i+1] - g[i-1], written
            # in place into this axis's half of the output.
            head, d = (slice(None),) * axis, out[axis]
            d[head + (slice(None, -1),)] = u[head + (slice(1, None),)]
            d[head + (-1,)] = 0.0
            d[head + (slice(1, None),)] -= u[head + (slice(None, -1),)]
            d *= w / (2.0 * h)
        return out.reshape((-1,) + g.shape[1:])

    def apply_gram_pinv(self, v) -> np.ndarray:
        """Apply pinv(B B^T), equal to pinv(B)^T pinv(B)."""
        return self._solve_gram(v)

    def project_range(self, g) -> np.ndarray:
        """Orthogonal projection onto range(B), i.e. B pinv(B) g."""
        out = np.array(g, dtype=float)
        if self.rank_deficient:  # the even-even block holds the cokernel
            out[self._blocks[0][0]] -= out[self._blocks[0][0]].mean(axis=0)
        return out

    def _solve_gram(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        out = np.empty_like(v)
        for idx, factor, singular in self._blocks:
            r = v[idx] - v[idx].mean(axis=0) if singular else v[idx]
            # r is a fresh copy (fancy indexing), so the solve may overwrite it.
            x, info = _pbtrs(factor, r, lower=False, overwrite_b=True)
            if info != 0:
                raise ValueError(f"banded solve failed: pbtrs info {info}")
            out[idx] = x - x.mean(axis=0) if singular else x
        return out


@lru_cache(maxsize=32)
def _parity_layout(grid: Grid) -> tuple:
    """The grid-only part of the parity split: the counts as 2D, the axis
    scales 1/(4 h^2), whether the axes swap to put the short one fastest, and
    per parity block its slice, shape, flat indices and whether it is singular."""
    lead = (2 - grid.dim) * (1,)  # a 1D grid as (1, n): one x point adds nothing
    counts, spacings = lead + grid.interior_counts, lead + grid.spacings
    swap = counts[0] < counts[1]
    order = np.arange(grid.size).reshape(counts)
    order = order.T if swap else order
    blocks = []
    for ps, pf in np.ndindex(*(min(2, n) for n in order.shape)):
        idx = order[ps::2, pf::2]
        singular = ps == pf == 0 and all(n % 2 for n in counts)
        blocks.append((np.s_[ps::2, pf::2], idx.shape, idx.ravel(), singular))
    return counts, tuple(1.0 / (4.0 * h * h) for h in spacings), swap, tuple(blocks)


def _parity_blocks(grid: Grid, q: np.ndarray) -> tuple:
    """Banded Cholesky factors of B B^T's parity blocks, built from q = D^2."""
    counts, (cx, cy), swap, layout = _parity_layout(grid)
    q = q.reshape(counts)
    qp = np.pad(q, 1)
    diag = cx * (qp[:-2, 1:-1] + qp[2:, 1:-1]) + cy * (qp[1:-1, :-2] + qp[1:-1, 2:])
    # Coupling of i and i+2 along each axis: -q[i+1] / (4 h^2).
    slow, fast = cx * q[1:-1, :], cy * q[:, 1:-1]
    if swap:  # the short axis fastest
        diag, slow, fast = diag.T, fast.T, slow.T
    blocks = []
    for sl, (ms, mf), idx, singular in layout:
        # Upper band storage ab, written as its C-order transpose
        # band[j, k, row] = ab[row, j mf + k]: row mf holds the diagonal,
        # row mf-1 the fast neighbour (j-1, j), row 0 the slow one (j-mf, j).
        band = np.zeros((ms, mf, mf + 1))
        band[..., mf] = diag[sl]
        band[1:, :, 0] -= slow[sl]
        band[:, 1:, mf - 1] -= fast[sl]
        if singular:
            # Ground node 0 of this graph Laplacian (kernel: ones); on a
            # consistent right-hand side the solve then leaves node 0 at zero.
            band[0, 0, mf] += diag[sl].max() or 1.0
        factor, info = _pbtrf(band.reshape(ms * mf, mf + 1).T, lower=0, overwrite_ab=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"banded Cholesky failed: pbtrf info {info}")
        blocks.append((idx, factor, singular))
    return tuple(blocks)


def build_weighted_divergence(
    grid: Grid, rho, mobility_exponent: float = 0.5
) -> WeightedDivergence:
    """Factor B B^T for the current density, one banded Cholesky per parity block."""
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (grid.size,):
        raise ValueError(f"rho shape {rho.shape} does not match grid size {grid.size}")
    if np.any(rho <= 0.0):
        raise ValueError("density must be strictly positive")
    if not 0.0 <= mobility_exponent <= 1.0:
        raise ValueError("mobility exponent must lie in [0, 1]")
    weights = rho**mobility_exponent if mobility_exponent != 0.0 else np.ones_like(rho)
    blocks = _parity_blocks(grid, weights * weights)
    wdiv = WeightedDivergence(grid, mobility_exponent, weights, blocks)
    if wdiv.rank_deficient:
        warnings.warn(
            "every interior count is odd: the weighted divergence loses full row "
            "rank and its pseudoinverse projects out the even sub-lattice constant"
        )
    return wdiv
