"""Factorization and solver kernels against independent dense oracles."""

import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from natgrad.linalg import cg_solve, solve_least_squares_min_norm


class TestMinNormLeastSquares:
    def test_identity(self):
        x = solve_least_squares_min_norm(np.eye(2), [3.0, -1.0])
        np.testing.assert_allclose(x, [3.0, -1.0], atol=1e-14)

    def test_rank_one_min_norm_point(self):
        # Residual is minimized on the line x1 + x2 = 1; its closest point to
        # the origin is (1/2, 1/2).
        x = solve_least_squares_min_norm([[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0])
        np.testing.assert_allclose(x, [0.5, 0.5], atol=1e-14)

    def test_matches_svd_pseudoinverse_on_ranked_matrices(self, rng):
        for trial in range(10):
            rank = int(rng.integers(1, 5))
            left = rng.standard_normal((30, rank))
            right = rng.standard_normal((rank, 8))
            a = left @ right
            b = rng.standard_normal(30)
            x = solve_least_squares_min_norm(a, b)
            x_svd = np.linalg.pinv(a) @ b
            assert np.linalg.norm(x - x_svd) <= 1e-8 * max(np.linalg.norm(x_svd), 1.0)

    def test_zero_matrix_returns_zero_without_warning(self):
        # The optimizer reports the zero direction as its stop status.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = solve_least_squares_min_norm(np.zeros((4, 3)), np.ones(4))
        assert np.array_equal(x, np.zeros(3))

    def test_tiny_diagonal_truncated(self):
        # Rank 1 at tol 1e-10: the 1e-14 pivot is cut, so the second component
        # is 0, not 1e14.
        x = solve_least_squares_min_norm([[1.0, 0.0], [0.0, 1e-14]], [1.0, 1.0])
        assert np.array_equal(x, [1.0, 0.0])

    @pytest.mark.parametrize("tol", [0.0, 1.0, 2.0])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must lie in"):
            solve_least_squares_min_norm(np.eye(2), np.ones(2), tol=tol)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_matrix_rejected(self, bad):
        a = np.eye(3)
        a[1, 2] = bad
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            solve_least_squares_min_norm(a, np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rhs_rejected(self, bad):
        for b in (np.ones(3), np.ones((3, 2))):
            b[-1] = bad
            with pytest.raises(ValueError, match="rhs entries must be finite"):
                solve_least_squares_min_norm(np.eye(3), b)

    def test_vector_matrix_rejected(self):
        with pytest.raises(ValueError, match="expected a 2D matrix"):
            solve_least_squares_min_norm(np.ones(3), np.ones(3))


def scipy_min_norm(a, b, tol=1e-10):
    """The minimum-norm solve through scipy's wrappers: pivoted economic QR,
    the QR of the truncated triangle transposed, then a triangular solve."""
    q, r, perm = sla.qr(a, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    rank = int(np.count_nonzero(diag > tol * diag[0]))
    q1, r1 = sla.qr(r[:rank, :].T, mode="economic")
    x = np.empty((a.shape[1],) + b.shape[1:])
    x[perm] = q1 @ sla.solve_triangular(r1.T, q[:, :rank].T @ b, lower=True)
    return x


def _oracle_matrices():
    """Tall, tall rank-deficient, wide, square and single-column matrices, a
    mixture-sized Jacobian and a wave-check-sized W2 block."""
    rng = np.random.default_rng(7)
    return {
        "tall": rng.standard_normal((40, 6)),
        "tall-rank-3": rng.standard_normal((40, 3)) @ rng.standard_normal((3, 9)),
        "wide": rng.standard_normal((7, 25)),
        "wide-rank-2": rng.standard_normal((7, 2)) @ rng.standard_normal((2, 25)),
        "square": rng.standard_normal((12, 12)),
        "single-column": rng.standard_normal((30, 1)),
        "fortran-tall": np.asfortranarray(rng.standard_normal((40, 6))),
        "mixture-5184x2": rng.standard_normal((5184, 2)),
        "wave-3984x144": rng.standard_normal((3984, 144)),
    }


ORACLE_MATRICES = _oracle_matrices()


class TestDirectLapackOracle:
    """The direct LAPACK calls reproduce scipy's wrappers bit for bit."""

    @pytest.mark.parametrize("name", list(ORACLE_MATRICES))
    def test_min_norm_solve_equals_scipy(self, name):
        a = ORACLE_MATRICES[name]
        kept_a = a.copy()
        rng = np.random.default_rng(11)
        m = a.shape[0]
        for b in (rng.standard_normal(m), rng.standard_normal((m, 3)),
                  np.asfortranarray(rng.standard_normal((m, 3)))):
            kept = b.copy()
            x = solve_least_squares_min_norm(a, b)
            want = scipy_min_norm(a, b)
            assert x.shape == want.shape and np.array_equal(x, want)
            assert np.array_equal(b, kept) and np.array_equal(a, kept_a)

    @pytest.mark.parametrize("name", list(ORACLE_MATRICES))
    def test_in_place_solve_equals_copying_call(self, name):
        # The in-place path that direction_explicit takes factors its
        # Fortran-ordered stack itself, and gets the copying call's bits.
        a = ORACLE_MATRICES[name]
        rng = np.random.default_rng(11)
        m = a.shape[0]
        for b in (rng.standard_normal(m), rng.standard_normal((m, 3)),
                  np.asfortranarray(rng.standard_normal((m, 3)))):
            work = np.array(a, order="F")
            x = solve_least_squares_min_norm(work, b, _overwrite_a=True)
            assert np.array_equal(x, solve_least_squares_min_norm(a, b))
            assert not np.array_equal(work, a)  # factored where it lies

    def test_public_call_never_writes_a(self):
        # A Fortran-ordered float64 matrix is the one layout the in-place
        # path would factor as it is; without the keyword it is copied.
        a = np.array(ORACLE_MATRICES["wave-3984x144"], order="F")
        kept = a.copy()
        solve_least_squares_min_norm(a, np.ones(a.shape[0]))
        assert np.array_equal(a, kept)

    @pytest.mark.parametrize("layout", ["c-ordered", "float32", "strided", "read-only"])
    def test_in_place_path_copies_other_layouts(self, layout):
        base = ORACLE_MATRICES["tall"]
        a = {"c-ordered": np.ascontiguousarray(base),
             "float32": np.asfortranarray(base, dtype=np.float32),
             "strided": np.asfortranarray(np.repeat(base, 2, axis=1))[:, ::2],
             "read-only": np.asfortranarray(base)}[layout]
        a.flags.writeable = layout != "read-only"
        assert not (a.flags.f_contiguous and a.flags.writeable and a.dtype == np.float64)
        kept = a.copy()
        b = np.arange(a.shape[0], dtype=float)
        x = solve_least_squares_min_norm(a, b, _overwrite_a=True)
        assert np.array_equal(a, kept)
        assert np.array_equal(x, solve_least_squares_min_norm(a, b))

    def test_rank_deficiency_is_seen(self):
        # Without the cut at ranks 3 and 2 the round-off pivots would be
        # inverted; with it the solve returns the row-space part of z.
        rng = np.random.default_rng(5)
        for name, rank in (("tall-rank-3", 3), ("wide-rank-2", 2)):
            a = ORACLE_MATRICES[name]
            _, s, vt = np.linalg.svd(a)
            assert np.count_nonzero(s > 1e-10 * s[0]) == rank
            z = rng.standard_normal(a.shape[1])
            x = solve_least_squares_min_norm(a, a @ z)
            row_part = vt[:rank].T @ (vt[:rank] @ z)
            assert np.linalg.norm(x - row_part) <= 1e-10 * np.linalg.norm(row_part)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_empty_matrix_is_rank_0(self, shape):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = solve_least_squares_min_norm(np.zeros(shape), np.ones(shape[0]))
        assert np.array_equal(x, np.zeros(shape[1]))


class TestPseudoApplyUnderdetermined:
    """The minimum-norm solve applied to wide, full-row-rank systems B y = zeta,
    i.e. y = pinv(B) zeta."""

    def test_min_norm_of_sum_constraint(self):
        # B = [1, 1]: the closest point to the origin on y1 + y2 = 2.
        y = solve_least_squares_min_norm([[1.0, 1.0]], [2.0])
        np.testing.assert_allclose(y, [1.0, 1.0], atol=1e-14)

    def test_identity(self, rng):
        z = rng.standard_normal(4)
        y = solve_least_squares_min_norm(np.eye(4), z)
        np.testing.assert_allclose(y, z, atol=1e-14)

    def test_random_full_row_rank_consistency_and_null_component(self, rng):
        b = rng.standard_normal((9, 18))
        zeta = rng.standard_normal(9)
        y = solve_least_squares_min_norm(b, zeta)
        assert np.linalg.norm(b @ y - zeta) <= 1e-10 * np.linalg.norm(zeta)
        # Null-space basis from an SVD oracle: y must be orthogonal to it.
        _, _, vt = np.linalg.svd(b)
        assert np.linalg.norm(vt[9:, :] @ y) <= 1e-10 * np.linalg.norm(y)
        np.testing.assert_allclose(y, np.linalg.pinv(b) @ zeta, atol=1e-10)

    def test_larger_consistency_property(self, rng):
        for _ in range(5):
            k, n = 50, 100
            b = rng.standard_normal((k, n))
            zeta = rng.standard_normal(k)
            y = solve_least_squares_min_norm(b, zeta)
            assert np.linalg.norm(b @ y - zeta) <= 1e-10 * np.linalg.norm(zeta)
            x_svd = np.linalg.pinv(b) @ zeta
            assert np.linalg.norm(y - x_svd) <= 1e-8 * np.linalg.norm(x_svd)


class TestCgSolve:
    def test_diagonal_system(self):
        rep = cg_solve(lambda v: np.diag([1.0, 2.0]) @ v, [1.0, 2.0], tol=1e-12)
        np.testing.assert_allclose(rep.solution, [1.0, 1.0], atol=1e-10)
        assert rep.converged and rep.iterations <= 2

    def test_hand_solve(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        rep = cg_solve(lambda v: a @ v, [3.0, 3.0], tol=1e-12)
        np.testing.assert_allclose(rep.solution, [1.0, 1.0], atol=1e-10)

    def test_zero_rhs(self):
        rep = cg_solve(lambda v: v, np.zeros(3))
        assert rep.iterations == 0 and rep.converged
        np.testing.assert_allclose(rep.solution, np.zeros(3))

    # Each bad argument is named before any product is applied; NaN slips
    # through a plain tol <= 0 test, and max_iter 0 used to return zeros.
    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1e-8, float("inf")])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            cg_solve(self.no_product, np.ones(3), tol=tol)

    @pytest.mark.parametrize("max_iter, message", [
        (0, "at least 1"), (-2, "at least 1"), (2.5, "an integer"), (True, "an integer")])
    def test_bad_max_iter_rejected(self, max_iter, message):
        with pytest.raises(ValueError, match=f"max_iter must be {message}"):
            cg_solve(self.no_product, np.ones(3), max_iter=max_iter)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rhs_rejected(self, bad):
        with pytest.raises(ValueError, match="rhs b must be finite"):
            cg_solve(self.no_product, np.array([1.0, bad, 2.0]))

    @staticmethod
    def no_product(v):
        raise AssertionError("a rejected argument must stop the solve before any product")

    def test_spd_within_dimension_plus_slack(self, rng):
        for n in (10, 30, 50):
            m = rng.standard_normal((n, n))
            a = m @ m.T + n * np.eye(n)
            b = rng.standard_normal(n)
            rep = cg_solve(lambda v: a @ v, b, tol=1e-10, max_iter=n + 5)
            assert rep.converged
            assert np.linalg.norm(a @ rep.solution - b) <= 1e-9 * np.linalg.norm(b)

    def test_max_iter_exhaustion_flagged(self, rng):
        m = rng.standard_normal((40, 40))
        a = m @ m.T + 1e-6 * np.eye(40)
        rep = cg_solve(lambda v: a @ v, rng.standard_normal(40), tol=1e-14, max_iter=2)
        assert not rep.converged
        assert rep.iterations == 2

    def test_report_invariant(self, rng):
        a = np.diag(rng.uniform(1.0, 3.0, 20))
        rep = cg_solve(lambda v: a @ v, rng.standard_normal(20), tol=1e-8)
        if rep.converged:
            assert rep.final_relative_residual <= 1e-8

    @staticmethod
    def rotated_spd(n, cond, seed):
        """Random orthogonal rotation of the spectrum geomspace(1, cond)."""
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        return (q * np.geomspace(1.0, cond, n)) @ q.T, rng.standard_normal(n)

    def test_ill_conditioned_within_dimension(self):
        # Plain CG loses orthogonality here and needs 513 products.
        n = 60
        a, b = self.rotated_spd(n, 1e6, seed=0)
        rep = cg_solve(lambda v: a @ v, b, tol=1e-10, max_iter=10 * n)
        assert rep.converged and rep.iterations <= n
        assert np.linalg.norm(a @ rep.solution - b) <= 1e-10 * np.linalg.norm(b)

    def test_reported_residual_is_true_residual(self, rng):
        def true_rel(apply_a, b, x):
            # Extended precision, so the check does not add its own rounding.
            r = apply_a(x.astype(np.longdouble)) - b
            return float(np.linalg.norm(r) / np.linalg.norm(b))

        # Plain CG's recurrence residual claims 1e-10 on the three cond 1e8
        # systems while the true residual is 4e-10 to 1.2e-9.
        cases = [self.rotated_spd(n, cond, seed) for n, cond, seed in
                 ((10, 1e8, 0), (20, 1e8, 2), (30, 1e8, 1), (60, 1e6, 0))]
        for a, b in cases:
            rep = cg_solve(lambda v: a @ v, b, tol=1e-10, max_iter=10 * b.size)
            if rep.converged:
                assert true_rel(lambda v: a @ v, b, rep.solution) <= 1e-10

        # n = 144, cond 1e8: 1e-10 is out of reach. Once the basis spans R^n
        # the projected recurrence residual is ~1e-47, so stopping on it would
        # claim convergence. A diagonal operator applies each product with one
        # rounding per entry, so any gap left is the solver's own accounting.
        lam = np.geomspace(1.0, 1e8, 144)
        b = rng.standard_normal(144)
        rep = cg_solve(lambda v: lam * v, b, tol=1e-10, max_iter=1440)
        true = true_rel(lambda v: lam * v, b, rep.solution)
        assert not rep.converged
        assert abs(rep.final_relative_residual - true) <= 0.1 * true

    @pytest.mark.parametrize("max_iter", [1, 10, 40, 60])
    def test_model_decrease_is_the_quadratic_at_the_iterate(self, max_iter):
        # CG iterates from zero satisfy x^T A x = b^T x, so -1/2 b^T x is the
        # quadratic model 1/2 x^T A x - b^T x; truncated and converged alike.
        a, b = self.rotated_spd(60, 1e6, seed=0)
        rep = cg_solve(lambda v: a @ v, b, tol=1e-30, max_iter=max_iter)
        x = rep.solution
        quadratic = 0.5 * x @ a @ x - b @ x
        assert rep.iterations == max_iter
        assert quadratic < 0.0
        assert abs(rep.model_decrease - quadratic) <= 1e-10 * abs(quadratic)
        assert cg_solve(lambda v: a @ v, np.zeros(60)).model_decrease == 0.0

    @pytest.mark.parametrize("max_iter", [5, 59, 60, 600])
    def test_basis_memory_and_exact_termination(self, max_iter):
        n = 60
        a, b = self.rotated_spd(n, 1e6, seed=4)
        products = []

        def apply_a(v):
            products.append(1)
            return a @ v

        tracemalloc.start()
        try:
            rep = cg_solve(apply_a, b, tol=1e-30, max_iter=max_iter)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # At most min(max_iter, n) + 1 basis vectors plus a few working ones.
        vectors = min(max_iter, n) + 1 + 12
        assert peak <= vectors * n * 8
        # tol is out of reach: the solve ends at max_iter or, past n, at
        # exact termination once the basis spans R^n.
        assert not rep.converged
        assert rep.iterations == len(products) == min(max_iter, n)
