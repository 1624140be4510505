"""Factorization and solver kernels against independent dense oracles."""

import tracemalloc

import numpy as np
import pytest

from natgrad import linalg
from natgrad.linalg import cg_solve, qr_column_pivoted, solve_least_squares_min_norm


class TestQrColumnPivoted:
    def test_rank_one_by_construction(self):
        piv = qr_column_pivoted([[1.0, 2.0], [2.0, 4.0]], tol=1e-10)
        assert piv.numerical_rank == 1

    def test_full_rank_random_vs_svd(self, rng):
        a = rng.standard_normal((20, 5))
        piv = qr_column_pivoted(a, tol=1e-10)
        svd_rank = np.linalg.matrix_rank(a, tol=1e-10)
        assert piv.numerical_rank == svd_rank == 5

    def test_tiny_diagonal_truncated(self):
        piv = qr_column_pivoted([[1.0, 0.0], [0.0, 1e-14]], tol=1e-10)
        assert piv.numerical_rank == 1

    def test_diagonal_nonincreasing_and_reconstruction(self, rng):
        a = rng.standard_normal((30, 8)) @ rng.standard_normal((8, 8))
        piv = qr_column_pivoted(a)
        diag = np.abs(np.diag(piv.r))
        assert np.all(np.diff(diag) <= 1e-12 * diag[0])
        rel = np.linalg.norm(piv.q @ piv.r - a[:, piv.permutation]) / np.linalg.norm(a)
        assert rel <= 1e-12

    def test_bad_tol_rejected(self):
        with pytest.raises(ValueError):
            qr_column_pivoted(np.eye(2), tol=2.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            qr_column_pivoted([[np.nan], [1.0]])


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

    def test_zero_matrix_warns_and_returns_zero(self):
        with pytest.warns(UserWarning):
            x = solve_least_squares_min_norm(np.zeros((4, 3)), np.ones(4))
        np.testing.assert_allclose(x, np.zeros(3))

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

    def test_matrix_validated_once(self, monkeypatch, rng):
        calls = []
        original = linalg._as_matrix
        monkeypatch.setattr(linalg, "_as_matrix", lambda a: calls.append(1) or original(a))
        solve_least_squares_min_norm(rng.standard_normal((6, 3)), rng.standard_normal(6))
        assert len(calls) == 1


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
