"""Dense linear-algebra kernels: rank-revealing QR, minimum-norm least squares
and conjugate gradient.

Everything here is plain 64-bit float numpy/scipy. The QR factors stay inside
the minimum-norm solve; the CG outcome is an immutable value object, and all
functions are pure, apart from the in-place QR that the minimum-norm solve
runs on a stack its caller hands over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import get_lapack_funcs

# Resolved once: the minimum-norm solve calls LAPACK directly, in the same
# sequence as scipy.linalg.qr and solve_triangular but without their wrapper
# layers, which cost more than the factorization of a tall, narrow Jacobian.
_geqp3 = get_lapack_funcs("geqp3", dtype=np.float64)
_geqrf = get_lapack_funcs("geqrf", dtype=np.float64)
_orgqr = get_lapack_funcs("orgqr", dtype=np.float64)
_trtrs = get_lapack_funcs("trtrs", dtype=np.float64)


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


def _lapack(routine, *args):
    """Call a workspace-taking LAPACK routine on arrays it may overwrite.

    The workspace size comes from a query first, as scipy.linalg.qr does;
    without it xGEQP3 falls back to its slower unblocked path.
    """
    lwork = int(routine(*args, lwork=-1, overwrite_a=1)[-2][0])
    *out, _, info = routine(*args, lwork=lwork, overwrite_a=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK {routine.__name__}")
    return out


def _economic_qr(a, pivoting: bool):
    """The economic QR of a nonempty, Fortran-ordered ``a``, which it
    overwrites: the LAPACK calls of ``scipy.linalg.qr(a, mode="economic",
    pivoting=pivoting)``, whose factors (and column permutation) it returns
    bit for bit."""
    m, n = a.shape
    if pivoting:
        qr, perm, tau = _lapack(_geqp3, a)
        perm -= 1  # LAPACK numbers columns from 1
    else:
        qr, tau = _lapack(_geqrf, a)
    r = np.triu(qr if m < n else qr[:n, :])
    (q,) = _lapack(_orgqr, qr[:, :m] if m < n else qr, tau)
    return (q, r, perm) if pivoting else (q, r)


def solve_least_squares_min_norm(
    a, b, tol: float = 1e-10, *, _overwrite_a: bool = False
) -> np.ndarray:
    """Minimum-norm least-squares solution of ``a @ x ~ b``, for a vector ``b``
    or for each column of a matrix ``b``.

    Uses two QR passes: a column-pivoted QR of ``a`` truncated at the numerical
    rank, the number of diagonal entries of R exceeding tol * |R[0,0]| (the
    pivoting keeps |R[i,i]| non-increasing), then a second QR of the truncated
    triangular block transposed, so the returned solution is the minimum-norm
    minimizer (equal to pinv(a) @ b). A numerically rank-0 matrix, an empty one
    included, yields zeros.

    Neither input is written: the QR factors a Fortran-ordered copy of ``a``.
    The one exception is ``_overwrite_a=True``, which only
    ``solver.direction_explicit`` passes for the stack it has just built: a
    writeable, Fortran-ordered float64 ``a`` is then factored in place, its
    entries overwritten, while any other ``a`` (C-ordered, another dtype, not
    contiguous) is still copied. LAPACK gets the same values in the same
    layout either way, so the solution is the same to the bit.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    b = np.asarray(b, dtype=float)
    if b.ndim not in (1, 2) or b.shape[:1] != a.shape[:1]:
        raise ValueError(f"rhs shape {b.shape} does not match matrix {a.shape}")
    if not np.all(np.isfinite(b)):
        raise ValueError("rhs entries must be finite")
    x = np.zeros((a.shape[1],) + b.shape[1:])
    if a.size == 0:  # LAPACK rejects an empty matrix
        return x
    in_place = _overwrite_a and a.flags.f_contiguous and a.flags.writeable
    q, r, perm = _economic_qr(a if in_place else np.array(a, order="F"), pivoting=True)
    diag = np.abs(np.diag(r))
    rank = int(np.count_nonzero(diag > tol * diag[0]))
    if rank == 0:
        return x
    qt_b = q[:, :rank].T @ b
    # r is this call's own, so its transposed rows may be overwritten.
    q1, r1 = _economic_qr(np.asfortranarray(r[:rank, :].T), pivoting=False)
    # The trtrs call of solve_triangular(r1.T, qt_b, lower=True): r1 is
    # C-ordered, so r1.T is passed as it is, a lower triangle.
    y, info = _trtrs(r1.T, qt_b, lower=1, trans=0, overwrite_b=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"trtrs failed with info {info}")
    x[perm] = q1 @ y
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
    products actually applied. Stops when that residual is <= tol * ||b||.
    Exhausting min(max_iter, n) products (max_iter defaults to n) returns the
    last iterate with converged=False so the caller can decide how to proceed.
    """
    b = np.asarray(b, dtype=float)
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    n = b.shape[0]
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return CgReport(np.zeros(n), 0, 0.0, True, 0.0)
    cap = n if max_iter is None else min(max_iter, n)
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
