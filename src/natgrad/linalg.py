"""Dense linear-algebra kernels: rank-revealing QR, minimum-norm least squares
and conjugate gradient.

Everything here is plain 64-bit float numpy/scipy. Factorization results are
immutable value objects; all functions are pure.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as sla


@dataclass(frozen=True)
class PivotedQRFactors:
    """Column-pivoted QR factorization A P = Q R with a detected numerical rank.

    ``numerical_rank`` counts the leading diagonal entries of R with
    |R[i,i]| > truncation_tolerance * |R[0,0]|.
    """

    q: np.ndarray
    r: np.ndarray
    permutation: np.ndarray
    numerical_rank: int
    truncation_tolerance: float


@dataclass(frozen=True)
class CgReport:
    """Outcome of a conjugate-gradient solve.

    ``model_decrease`` is the change -1/2 b^T x of the quadratic model
    1/2 x^T A x - b^T x from x = 0 to the returned iterate (negative when the
    model decreases). CG iterates from zero satisfy x^T A x = b^T x, so it
    costs no product.
    """

    solution: np.ndarray
    iterations: int
    final_relative_residual: float
    converged: bool
    model_decrease: float


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def qr_column_pivoted(a, tol: float = 1e-10) -> PivotedQRFactors:
    """Rank-revealing QR with column pivoting.

    The numerical rank is the number of diagonal entries of R exceeding
    tol * |R[0,0]|; the pivoting guarantees |R[i,i]| is non-increasing.
    """
    a = _as_matrix(a)
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    q, r, perm = sla.qr(a, mode="economic", pivoting=True, check_finite=False)
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] == 0.0:
        rank = 0
    else:
        rank = int(np.count_nonzero(diag > tol * diag[0]))
    return PivotedQRFactors(
        q=q, r=r, permutation=perm, numerical_rank=rank, truncation_tolerance=tol
    )


def solve_least_squares_min_norm(a, b, tol: float = 1e-10) -> np.ndarray:
    """Minimum-norm least-squares solution of ``a @ x ~ b``, for a vector ``b``
    or for each column of a matrix ``b``.

    Uses two QR passes: a column-pivoted QR of ``a`` truncated at the numerical
    rank, then a second QR of the truncated triangular block transposed, so the
    returned solution is the minimum-norm minimizer (equal to pinv(a) @ b).
    A zero (or numerically rank-0) matrix yields the zero vector with a warning.
    """
    a = np.asarray(a, dtype=float)  # qr_column_pivoted validates it
    b = np.asarray(b, dtype=float)
    if b.ndim not in (1, 2) or b.shape[:1] != a.shape[:1]:
        raise ValueError(f"rhs shape {b.shape} does not match matrix {a.shape}")
    if not np.all(np.isfinite(b)):
        raise ValueError("rhs entries must be finite")
    piv = qr_column_pivoted(a, tol=tol)
    r = piv.numerical_rank
    if r == 0:
        warnings.warn("least-squares matrix is numerically zero; returning 0")
        return np.zeros((a.shape[1],) + b.shape[1:])
    qt_b = piv.q[:, :r].T @ b
    r_trunc = piv.r[:r, :]
    q1, r1 = sla.qr(r_trunc.T, mode="economic", check_finite=False)  # a is checked
    x_perm = q1 @ sla.solve_triangular(r1.T, qt_b, lower=True, check_finite=False)
    x = np.empty((a.shape[1],) + b.shape[1:])
    x[piv.permutation] = x_perm
    return x


def cg_solve(
    apply_a: Callable[[np.ndarray], np.ndarray],
    b,
    tol: float = 1e-8,
    max_iter: int | None = None,
) -> CgReport:
    """Conjugate gradient with full reorthogonalization for a symmetric positive
    (semi)definite action.

    The normalized residuals (the Lanczos vectors) are kept, and each new
    residual is orthogonalized against all of them twice (classical
    Gram-Schmidt) before the direction update, so the basis stays orthogonal
    in floating point and the solve needs at most n products: it stops once
    the basis spans R^n. The basis takes (min(max_iter, n) + 1) x n floats.

    The recurrence residual is projected and so drifts from b - A x; the
    stopping test and the reported residual use a second residual
    b - sum(alpha A d), over the search directions d, built only from the
    products actually applied. Stops
    when that residual is <= tol * ||b||. Exhausting max_iter (default 3n) or
    n returns the last iterate with converged=False so the caller can decide
    how to proceed.
    """
    b = np.asarray(b, dtype=float)
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    n = b.shape[0]
    if max_iter is None:
        max_iter = 3 * n
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return CgReport(np.zeros(n), 0, 0.0, True, 0.0)
    cap = min(max_iter, n)
    basis = np.empty((cap + 1, n))
    basis[0] = b / b_norm
    x = np.zeros(n)
    res = b.copy()  # recurrence residual, kept orthogonal to the basis
    applied_res = b.copy()  # b minus the applied products: the stopping residual
    direction = res.copy()
    rs = res @ res
    rel = 1.0
    iterations = 0
    while rel > tol and iterations < cap:
        a_dir = apply_a(direction)
        denom = direction @ a_dir
        if denom <= 0.0:
            # Indefinite or null direction; stop with the current iterate.
            break
        alpha = rs / denom
        x += alpha * direction
        applied_res -= alpha * a_dir
        rel = np.linalg.norm(applied_res) / b_norm
        res -= alpha * a_dir
        iterations += 1
        known = basis[:iterations]
        for _ in range(2):
            res -= (known @ res) @ known
        rs_new = res @ res
        if rs_new == 0.0:
            # The Krylov space is exhausted: x solves the system.
            break
        basis[iterations] = res / np.sqrt(rs_new)
        direction *= rs_new / rs
        direction += res
        rs = rs_new
    return CgReport(x, iterations, float(rel), bool(rel <= tol), -0.5 * float(b @ x))
