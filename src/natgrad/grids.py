"""Uniform-grid discretizations of the differential operators behind each metric.

Two stencil families live here:

* the Laplacian -G^T G of a staggered zero-Neumann gradient G, used by the
  Sobolev metrics: applied by its 5-point stencil, so adjoint identities hold
  to machine precision rather than to discretization order, and its inverses
  are exact scalings in the DCT-II eigenbasis, with no factorization;
* the central-difference divergence with zero-Dirichlet velocity boundaries,
  weighted by a power of the density, used by the optimal-transport metric;
  its Gram matrix splits into index-parity blocks, and each block is factored
  by eliminating its red points (a diagonal) and then banded Cholesky on the
  Schur complement over its black points.

Grid values are flattened in C order with the x axis slowest (index =
ix * n_y + iy).
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import get_blas_funcs, get_lapack_funcs

# LAPACK's banded Cholesky factorization and solve, and the triangular banded
# solve and product on its factor, called directly: scipy's cholesky_banded and
# cho_solve_banded wrappers cost several times the LAPACK call itself on small
# blocks.
_pbtrf = get_lapack_funcs("pbtrf", dtype=np.float64)
_pbtrs = get_lapack_funcs("pbtrs", dtype=np.float64)
_tbtrs = get_lapack_funcs("tbtrs", dtype=np.float64)
_tbmv = get_blas_funcs("tbmv", dtype=np.float64)

# Block actions run on column-major chunks of at most this many columns, so
# a pass runs down k rows (not along a C-order row of 2) and a wide block's
# chunk (five 1920 x 16 arrays on the wave panel, 1.2 MB) stays in L2.
_CHUNK = 16


def integer(value, name: str) -> int:
    """A count or index, as an int: an integer, not 8.5, 8.0 or true."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return int(value)


@dataclass(frozen=True)
class Grid:
    """A uniform 1D or 2D grid described by its interior points.

    ``interior_counts`` are the numbers of interior points per axis; the
    boundary points implied by ``extents`` are not carried in state vectors.
    """

    interior_counts: tuple[int, ...]
    extents: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.interior_counts) not in (1, 2):
            raise ValueError("only 1D and 2D grids are supported")
        if len(self.extents) != len(self.interior_counts):
            raise ValueError(f"{len(self.extents)} axis extents for "
                             f"{len(self.interior_counts)} interior counts")
        if any(n < 1 for n in self.interior_counts):
            raise ValueError("interior counts must be >= 1")
        if not all(0.0 < h < float("inf") for h in self.spacings):  # NaN fails too
            raise ValueError("spacings must be positive and finite")

    @classmethod
    def regular(cls, extents, interior_counts) -> "Grid":
        """Build a grid from axis bounds [a, b] and interior counts."""
        extents = tuple((float(a), float(b)) for a, b in extents)
        counts = tuple(integer(n, "interior count") for n in interior_counts)
        return cls(counts, extents)

    @classmethod
    def index_space(cls, interior_counts) -> "Grid":
        """Grid with unit spacing, used for data panels (e.g. receiver x time)."""
        return cls.regular([(0, n + 1) for n in interior_counts], interior_counts)

    @property
    def spacings(self) -> tuple[float, ...]:
        """(b - a) / (count + 1) per axis."""
        return tuple(
            (b - a) / (n + 1) for (a, b), n in zip(self.extents, self.interior_counts)
        )

    @property
    def dim(self) -> int:
        return len(self.interior_counts)

    @property
    def as_2d(self) -> tuple[tuple[int, ...], tuple[float, ...]]:
        """Counts and spacings as 2D: a 1D grid is (1, n), its x point inert."""
        lead = (2 - self.dim) * (1,)
        return lead + self.interior_counts, lead + self.spacings

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


class DifferentialOperatorSet:
    """The zero-Neumann Laplacian -G^T G by its 5-point stencil, and its
    eigenbasis. G is the staggered gradient (per axis, forward differences
    onto the n-1 interior edges of n centres, so G 1 = 0 exactly). The
    orthonormal DCT-II C (row k: cos(pi k (j + 1/2) / n), normalized)
    diagonalizes each axis's G^T G with eigenvalues (2 - 2 cos(pi k / n)) / h^2,
    and a 2D grid sums the two axes' values, so f(G^T G) = C^T diag(f(lam)) C
    with one dense DCT-II matrix per axis: nothing is factored.
    ``eigenvalues`` holds lam per mode, in the order ``transform`` returns them.
    """

    def __init__(self, grid: Grid):
        self._shape, spacings = grid.as_2d
        self._dct, lam = [], 0.0
        for n, h in zip(self._shape, spacings):
            k = np.arange(n)
            dct = np.sqrt(2.0 / n) * np.cos(np.pi * np.outer(k, k + 0.5) / n)
            dct[0] = np.sqrt(1.0 / n)
            self._dct.append(dct)
            lam = np.add.outer(lam, (2.0 - 2.0 * np.cos(np.pi * k / n)) / (h * h))
        self.eigenvalues = lam.ravel()
        # The stencil's entries are those of the assembled product -G^T G: G's
        # are +-1/h, so a neighbour's is (1/h)(1/h) and the centre's sums one
        # such product per edge at the point, the x edges first.
        self._coupling = tuple((1.0 / h) * (1.0 / h) for h in spacings)
        diag = np.zeros(self._shape)
        for axis, c in enumerate(self._coupling):
            head = (slice(None),) * axis
            diag[head + (slice(1, None),)] += c
            diag[head + (slice(None, -1),)] += c
        self._centre = -diag[..., None]

    def apply_laplacian(self, v) -> np.ndarray:
        """-G^T G v by its 5-point stencil, for a vector or each column of a
        block. The terms are added into zeros in the assembled matrix's
        column order (x-, y-, centre, y+, x+), so each entry equals the
        sparse product's to the bit."""
        v = np.asarray(v, dtype=float)
        u = v.reshape(self._shape + (-1,))
        out = np.zeros(u.shape)
        cx, cy = self._coupling
        out[1:] += cx * u[:-1]
        out[:, 1:] += cy * u[:, :-1]
        out += self._centre * u
        out[:, :-1] += cy * u[:, 1:]
        out[:-1] += cx * u[1:]
        return out.reshape(v.shape)

    def transform(self, v, scale) -> np.ndarray:
        """diag(scale) C v, with one scale per mode (flat, as ``eigenvalues``),
        for a vector or each column of a block."""
        v = np.asarray(v, dtype=float)
        (cx, cy), u = self._dct, v.reshape(self._shape + (-1,))  # columns last
        # Along x as one product over the flattened rest, along y batched.
        u = np.matmul(cy, (cx @ u.reshape(len(cx), -1)).reshape(u.shape))
        return (u * scale.reshape(self._shape + (1,))).reshape(v.shape)

    def apply_spectral(self, v, scale) -> np.ndarray:
        """C^T diag(scale) C v: the function of G^T G that takes the values
        ``scale`` at ``eigenvalues``, for a vector or each column of a block."""
        cx, cy = self._dct
        u = np.matmul(cy.T, self.transform(v, scale).reshape(self._shape + (-1,)))
        return (cx.T @ u.reshape(len(cx), -1)).reshape(np.shape(v))


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
    it splits exactly into at most four weighted 5-point Laplacians M on
    half-size grids. With rho > 0 the cokernel of B is the product of the
    per-axis kernels (1, 0, 1, 0, ...) of the central difference: trivial if
    some interior count is even, else the all-ones field on the even-even
    sub-lattice, whose block alone is then singular and is solved with that
    field projected out (minimum norm).

    Each block is bipartite under a red-black colouring of its points (black
    where the block coordinates sum to even, node 0 included), so in
    red-then-black order M = [[D_r, E], [E^T, F]] with D_r diagonal, and its
    upper Cholesky factor (M = R^T R) is

        R = [[D_r^1/2, D_r^-1/2 E], [0, R_S]],

    with R_S the banded Cholesky factor of the Schur complement
    S = F - E^T D_r^-1 E, a 9-point operator on the black half (George and
    Liu, Computer Solution of Large Sparse Positive Definite Systems, 1981).
    R gives the k-row roots the transport metric uses: R^-T, with
    (R^-T)^T R^-T = pinv(B B^T), and R, with ||R g|| = ||B^T g||; row i of
    either root sits at grid point i. The singular block is grounded in S at
    its black node with the largest diagonal; removing the mean (for R^-T) or
    the grounded node's value (for R) keeps both identities exact.

    ``backend`` is always "sparse" (a sparse banded factor). Every action
    accepts a vector or a block of columns.
    """

    grid: Grid
    weights: np.ndarray = field(repr=False)
    # The couplings of each point to the points two further along axis 0 and
    # along axis 1, at flat distances 2 n_1 and 2, so each is k minus its
    # distance long (zero where the axis-1 neighbour falls off the row).
    _couplings: tuple = field(repr=False)
    # 1/d, d^1/2 and d^-1/2 of B B^T's diagonal d at the red points, zero at
    # the black ones, as (k, 1) columns.
    _inv_d: np.ndarray = field(repr=False)
    _sqrt_d: np.ndarray = field(repr=False)
    _inv_sqrt_d: np.ndarray = field(repr=False)
    # The black points' flat indices in banded order, and the upper banded
    # Cholesky factor R_S of the Schur complements of every parity block.
    _black: np.ndarray = field(repr=False)
    _factor: np.ndarray = field(repr=False)
    # The singular block's grounded node (flat index), None when B has full
    # row rank.
    _ground: int | None = field(repr=False)

    backend = "sparse"

    @property
    def rank_deficient(self) -> bool:
        """Whether every interior count is odd; only then is a node grounded."""
        return self._ground is not None

    # apply_pinv and apply_bt have no caller in natgrad; the benchmark tracer
    # patches apply_pinv by name, so both stay until ROADMAP items 18 and 4.
    def apply_pinv(self, zeta) -> np.ndarray:
        """Minimum-norm solution of B y = zeta (the action of pinv(B))."""
        return self.apply_bt(self.apply_gram_pinv(zeta))

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
        """Apply pinv(B B^T), equal to pinv(B)^T pinv(B): w_b = S^-1 (v_b -
        E^T (v_r / d)), then w_r = (v_r - E w_b) / d."""
        x = self._by_chunks(self._gram_solve, v, center=True)
        if self.rank_deficient:
            self._remove_block_mean(x.reshape(len(x), -1))
        return x

    def apply_inverse_root(self, zeta) -> np.ndarray:
        """Apply R^-T, a k-row root of pinv(B B^T), after removing the
        singular block's mean: red rows z_r / d^1/2, black rows
        R_S^-T (z_b - E^T (z_r / d))."""
        return self._by_chunks(self._inverse_root, zeta, center=True)

    def apply_root(self, g) -> np.ndarray:
        """Apply R, so ||R g|| = ||B^T g||, after removing the singular
        block's grounded node value: red rows d^1/2 g_r + (E g_b) / d^1/2,
        black rows R_S g_b."""
        return self._by_chunks(self._root, g, center=False)

    def project_range(self, g) -> np.ndarray:
        """Orthogonal projection onto range(B), i.e. B pinv(B) g."""
        if not self.rank_deficient:
            return np.array(g, dtype=float)
        return self._columns(g, center=True).reshape(np.shape(g))

    def _by_chunks(self, action, a, center: bool) -> np.ndarray:
        """``action(u, out, work, couplings)`` on F-contiguous chunks u of a
        (see ``_columns``), into an output in a's memory order."""
        u = self._columns(a, center)
        out = np.empty_like(u)
        k = len(u)
        work = np.empty((4, min(u.shape[1], _CHUNK), k)).transpose(0, 2, 1)
        for j in range(0, u.shape[1], _CHUNK):
            o = out[:, j:j + _CHUNK]
            n = o.shape[1]  # couplings once per column, zero into the next one
            couplings = [np.concatenate([c, np.zeros(k - len(c))] * (n - 1) + [c])
                         for c in self._couplings] if n > 1 else self._couplings
            y = o if o.flags.f_contiguous else work[3, :, :n]
            action(np.asfortranarray(u[:, j:j + _CHUNK]), y, work[:, :, :n], couplings)
            if y is not o:
                o[...] = y
        return out.reshape(np.shape(a))

    def _black_rhs(self, u, work, couplings) -> np.ndarray:
        """u_b - E^T (u_r / d): the black rows, F-contiguous as LAPACK takes them."""
        rhs = self._couple(np.multiply(u, self._inv_d, out=work[0]), work[1], work[2], couplings)
        rhs += u
        return np.take(rhs.T, self._black, axis=1).T

    def _inverse_root(self, u, out, work, couplings) -> None:
        np.multiply(u, self._inv_sqrt_d, out=out)
        x, info = _tbtrs(self._factor, self._black_rhs(u, work, couplings), trans="T",
                         overwrite_b=True)
        if info != 0:
            raise ValueError(f"banded triangular solve failed: tbtrs info {info}")
        self._set_black_rows(out, x)

    def _root(self, u, out, work, couplings) -> None:
        # E is minus the couplings, and every neighbour of a red point is black.
        eg = self._couple(u, work[1], work[2], couplings)
        eg *= self._inv_sqrt_d
        np.multiply(u, self._sqrt_d, out=out)
        out -= eg
        xb = np.take(u.T, self._black, axis=1).T
        for c in xb.T:
            _tbmv(self._factor.shape[0] - 1, self._factor, c, overwrite_x=True)
        self._set_black_rows(out, xb)

    def _gram_solve(self, u, out, work, couplings) -> None:
        xb, info = _pbtrs(self._factor, self._black_rhs(u, work, couplings), lower=False,
                          overwrite_b=True)
        if info != 0:
            raise ValueError(f"banded solve failed: pbtrs info {info}")
        out.fill(0.0)
        self._set_black_rows(out, xb)
        red = self._couple(out, work[1], work[2], couplings)
        red += u
        red *= self._inv_d  # zero at black points
        out += red

    def _set_black_rows(self, out, xb) -> None:
        for o, x in zip(out.T, xb.T):  # faster than one scatter of rows
            o[self._black] = x

    def _columns(self, a, center: bool) -> np.ndarray:
        """``a`` as a (k, columns) array in its own memory order; on the
        singular block a copy with its mean (``center``) or its grounded node
        value removed."""
        a = np.asarray(a, dtype=float)
        u = a.reshape(len(a), -1)
        if self.rank_deficient:
            u = u.copy(order="K") if np.may_share_memory(u, a) else u
            if center:
                self._remove_block_mean(u)
            else:
                self._singular_block(u)[...] -= u[self._ground].copy()
        return u

    def _singular_block(self, u) -> np.ndarray:
        """The even-even parity block of u (k, columns), as a grid view."""
        return u.reshape(self.grid.as_2d[0] + (-1,))[::2, ::2]

    def _remove_block_mean(self, u) -> None:
        """Subtract the even-even parity block's mean per column, in place."""
        block = self._singular_block(u)
        block -= block.mean(axis=(0, 1))

    @staticmethod
    def _couple(x, out, tmp, couplings) -> np.ndarray:
        """Minus the off-diagonal of B B^T applied to a chunk x, into ``out``:
        each point sums its couplings times the values two points away per
        axis; at a black point that is -E^T x_r, at a red one -E x_b. The
        shifts run over the flat chunk, whose next column a zero coupling
        keeps out: its +-0 term leaves a sum started at +0 as it was."""
        xf, of, tf = x.ravel("F"), out.ravel("F"), tmp.ravel("F")
        of.fill(0.0)
        for c in couplings:
            s, t = len(xf) - len(c), tf[:len(c)]  # s: this axis's flat distance
            of[:-s] += np.multiply(c, xf[s:], out=t)
            of[s:] += np.multiply(c, xf[:-s], out=t)
        return out


@lru_cache(maxsize=32)
def _parity_layout(grid: Grid) -> tuple:
    """The grid-only part of the red-black factor.

    Returns the counts as 2D; the axis scales 1/(4 h^2); the red points as a
    1/0 mask over the padded rows of ``_factor_parity_blocks``, and its
    complement; the black points' flat indices in banded order, parity block
    by parity block (the even-even block first), and how many belong to the
    even-even block; the bandwidth kd; and each Schur band entry's index in
    that function's stencil rows with its position in the C-order transpose
    of the upper band storage, in the order of the positions.

    A block is ordered with the short grid axis fastest and its black points
    keep that order, so S's band is kd = the blocks' largest fast extent
    wide. The blocks share no entry, so one band holds them all and one
    banded Cholesky factors them together.
    """
    counts, spacings = grid.as_2d
    flat = np.arange(grid.size).reshape(counts)
    i, j = np.indices(counts)
    red = (i // 2 + j // 2) % 2 == 1  # block coordinates (i // 2, j // 2)
    order = flat.T if counts[0] < counts[1] else flat
    black = []
    for ps, pf in np.ndindex(*(min(2, n) for n in order.shape)):
        idx = order[ps::2, pf::2]
        a, b = np.indices(idx.shape)
        black.append(idx[(a + b) % 2 == 0])  # row-major, so in banded order
    kd = (order.shape[1] + 1) // 2
    place = np.zeros(grid.size, dtype=np.intp)  # each black point's band column
    place[np.concatenate(black)] = np.arange(sum(map(len, black)))
    # S couples black x to black y through the red points between them: y = x,
    # x + (4, 0), x + (0, 4), x + (2, 2) and x + (2, -2), a stencil row each,
    # indexed at x's padded position (the last at x - (0, 2)).
    pairs = [(flat, flat), (flat[:-4], flat[4:]), (flat[:, :-4], flat[:, 4:]),
             (flat[:-2, :-2], flat[2:, 2:]), (flat[:-2, 2:], flat[2:, :-2])]
    src, dst = [], []
    for row, (x, y) in enumerate(pairs):
        keep = ~red.ravel()[x.ravel()]
        x, y = x.ravel()[keep], y.ravel()[keep]
        padded = x + x // counts[1] - (2 if row == 4 else 0)
        src.append(row * (grid.size + counts[0]) + padded)
        px, py = place[x], place[y]
        # Upper band storage: entry (x, y) sits in the later point's column,
        # kd minus their distance down from the diagonal.
        dst.append(np.maximum(px, py) * (kd + 1) + kd - np.abs(py - px))
    padded_red = np.zeros((counts[0], counts[1] + 1))
    padded_red[:, :-1] = red
    scales = tuple(1.0 / (4.0 * h * h) for h in spacings)
    return (counts, scales, padded_red.ravel(), 1.0 - padded_red.ravel(),
            np.concatenate(black), len(black[0]), kd, np.concatenate(src), np.concatenate(dst))


def _factor_parity_blocks(grid: Grid, q: np.ndarray) -> tuple:
    """The couplings, the red-point scales, the black points and the Schur
    complement factor R_S of B B^T, built from q = D^2, in the order of
    WeightedDivergence's private fields.

    The grid arrays live in padded rows (a zero column after each grid row,
    a zero row above and below q), so a neighbour is a flat shift and every
    pass is contiguous. Each array equals the 2D expression in its comment
    to the bit: -1/d carries a minus sign, and a term with a zero coupling
    from the padding adds or subtracts 0.
    """
    counts, (cx, cy), red, black_mask, black, n_even, kd, src, dst = _parity_layout(grid)
    w = counts[1] + 1
    k = counts[0] * w
    qz = np.zeros(k + 2 * w)
    qz[w:w + k].reshape(counts[0], w)[:, :-1] = q.reshape(counts)
    # d = cx (q[i-1] + q[i+1]) + cy (q[j-1] + q[j+1]), zero off the grid
    diag = cx * (qz[:k] + qz[2 * w:]) + cy * (qz[w - 1:w - 1 + k] + qz[w + 1:w + 1 + k])
    # Couplings of i and i + 2, c0 = cx q[1:-1] and c1 = cy q[:, 1:-1]; 1/d at
    # the red points (d > 0), 0 at the black ones (d may be 0); and -1/d.
    c0, c1 = cx * qz[2 * w:k], cy * qz[w + 1:w + 1 + k]
    inv_d = red / (diag + black_mask)
    neg = -inv_d
    # S = F - E^T D_r^-1 E: a red point r between black x and y adds
    # -c_xr c_ry / d_r to S[x, y], and F = d. Stencil rows of y - x = (0, 0),
    # (4, 0), (0, 4), (2, 2) and (2, -2):
    values = np.empty((5, k))
    schur, s40, s04, s22, s2m = values
    schur[...] = diag
    # schur[2:] -= c0^2 inv_d[:-2], schur[:-2] -= c0^2 inv_d[2:], then axis 1
    for s, cc in ((2 * w, c0 * c0), (2, (c1 * c1)[:-2])):
        schur[s:] -= cc * inv_d[:k - s]
        schur[:k - s] -= cc * inv_d[s:]
    # -(c0[:-2] c0[2:] inv_d[2:-2]) and -(c1[:, :-2] c1[:, 2:] inv_d[:, 2:-2])
    for out, c, s in ((s40, c0, 2 * w), (s04, c1, 2)):
        m = max(len(c) - s, 0)
        out[:m] = c[:m] * c[s:] * neg[s:s + m]
    # -(c0[:, :-2] inv_d[2:, :-2] c1[2:] + c1[:-2] inv_d[:-2, 2:] c0[:, 2:]) and
    # -(c0[:, 2:] inv_d[2:, 2:] c1[2:] + c1[:-2] inv_d[:-2, :-2] c0[:, :-2])
    m, p0 = max(k - 2 * w - 2, 0), c0 * neg[2 * w:]
    for out, s in ((s22, 2), (s2m, 0)):
        out[:m] = (p0[2 - s:2 - s + m] * c1[2 * w:2 * w + m]
                   + c1[:m] * neg[s:s + m] * c0[s:s + m])
    band = np.zeros((len(black), kd + 1))
    band.ravel()[dst] = values.ravel()[src]
    ground = None
    if all(n % 2 for n in counts):
        # Ground the singular even-even block (kernel: ones) at its densest
        # black node; on a consistent right-hand side the solve then leaves
        # that node at zero. A weakly coupled node would leave the grounded
        # block an eigenvalue of about its own coupling over the block size,
        # which round-off can turn negative when the density spans many
        # decades.
        d0 = diag.reshape(-1, w)[:, :-1].ravel()[black[:n_even]]
        at = int(np.argmax(d0))
        band[at, kd] += d0[at] or 1.0
        ground = int(black[at])
    factor, info = _pbtrf(band.T, lower=0, overwrite_ab=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"banded Cholesky failed: pbtrf info {info}")
    # The actions shift over the grid without padding, so their axis-1
    # coupling is zero where it would wrap onto the next row.
    c1 = c1.reshape(-1, w)[:, :-1]
    c1[:, -2:] = 0.0
    inv_d, sqrt_d, c0 = (a.reshape(-1, w)[:, :-1].ravel()
                         for a in (inv_d, np.sqrt(diag * red), c0))
    return ((c0, c1.ravel()[:max(grid.size - 2, 0)]), inv_d[:, None], sqrt_d[:, None],
            np.sqrt(inv_d)[:, None], black, factor, ground)


def build_weighted_divergence(
    grid: Grid, rho, mobility_exponent: float = 0.5
) -> WeightedDivergence:
    """Factor B B^T for the current density: the red points eliminated, then
    one banded Cholesky of the Schur complement on the black points."""
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (grid.size,):
        raise ValueError(f"rho shape {rho.shape} does not match grid size {grid.size}")
    if np.any(rho <= 0.0):
        raise ValueError("density must be strictly positive")
    if not 0.0 <= mobility_exponent <= 1.0:
        raise ValueError("mobility exponent must lie in [0, 1]")
    weights = rho**mobility_exponent
    wdiv = WeightedDivergence(grid, weights, *_factor_parity_blocks(grid, weights * weights))
    if wdiv.rank_deficient:
        warnings.warn(
            "every interior count is odd: the weighted divergence loses full row "
            "rank and its pseudoinverse projects out the even sub-lattice constant"
        )
    return wdiv
