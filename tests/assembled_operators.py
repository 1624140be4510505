"""Sparse matrices of the operators natgrad applies by stencil: oracles that
the matrix-free transport actions are checked against."""

import numpy as np
import scipy.sparse as sp


def central_difference_matrix(n: int) -> sp.csr_matrix:
    """Central difference matrix with zero-Dirichlet boundary: +1 super, -1 sub."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ones = np.ones(n - 1)
    return sp.diags([ones, -ones], [1, -1], shape=(n, n)).tocsr()


def axis_central_operators(grid) -> tuple[sp.csr_matrix, ...]:
    """Central-difference derivative along each axis, scaled by 1/(2h)."""
    counts, ops = grid.interior_counts, []
    for axis, (n, h) in enumerate(zip(counts, grid.spacings)):
        factors = [sp.identity(m, format="csr") for m in counts]
        factors[axis] = (0.5 / h) * central_difference_matrix(n)
        ops.append(factors[0] if grid.dim == 1 else sp.kron(*factors, format="csr"))
    return tuple(ops)


def divergence_matrix(wdiv) -> sp.csr_matrix:
    """B = -[A_x D, A_y D] of a WeightedDivergence, assembled."""
    d = sp.diags(wdiv.weights)
    return sp.hstack([-(a @ d) for a in axis_central_operators(wdiv.grid)], format="csr")
