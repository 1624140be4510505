"""Assembled matrices of the operators natgrad applies by stencil or by a
k-row root: oracles that the matrix-free metric actions are checked against."""

import warnings

import numpy as np
import scipy.sparse as sp

from natgrad.grids import build_weighted_divergence, neumann_gradient


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


def stacked_metric_root(name: str, grid, rho) -> np.ndarray:
    """The stacked L that each k-row metric root is orthogonally equivalent
    to, dense: [I; G] for h1, G for hdot1, their duals for h-1 and hdot-1,
    pinv(B) for w2, and the diagonal L of l2 and fisher-rao."""
    if name == "l2":
        return np.eye(grid.size)
    if name == "fisher-rao":
        return np.diag(1.0 / np.sqrt(rho))
    if name == "w2":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the all-odd rank warning
            wdiv = build_weighted_divergence(grid, rho)
        return np.linalg.pinv(divergence_matrix(wdiv).toarray())
    g = neumann_gradient(grid).toarray()
    stack = np.vstack([np.eye(grid.size), g])
    return {
        "h1": stack,
        "h-1": stack @ np.linalg.inv(stack.T @ stack),
        "hdot1": g,
        "hdot-1": g @ np.linalg.pinv(g.T @ g),
    }[name]
