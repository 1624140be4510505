"""Factorization and solver kernels against independent dense oracles."""

import numpy as np
import pytest

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

