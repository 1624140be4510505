"""Grid operators: stencils, adjoint exactness, kernels, divergence rank."""

import warnings

import numpy as np
import pytest
from scipy.linalg import cho_solve_banded, cholesky_banded

from assembled_operators import (
    axis_central_operators,
    central_difference_matrix,
    divergence_matrix,
)
from natgrad.grids import (
    DifferentialOperatorSet,
    Grid,
    _parity_blocks,
    build_operator_set,
    build_weighted_divergence,
    neumann_gradient,
)
from natgrad.linalg import qr_column_pivoted, solve_least_squares_min_norm
from natgrad.metrics import build_metric


class TestCentralDifference:
    def test_three_point_matrix(self):
        c = central_difference_matrix(3).toarray()
        np.testing.assert_array_equal(
            c, [[0.0, 1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, -1.0, 0.0]]
        )

    def test_single_point(self):
        assert central_difference_matrix(1).toarray() == np.zeros((1, 1))

    def test_matvec_hand_computed(self):
        c = central_difference_matrix(4)
        np.testing.assert_allclose(c @ [1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 2.0, -3.0])

    def test_singular_iff_odd(self):
        for n in (2, 3, 4, 5, 8, 9):
            c = central_difference_matrix(n).toarray()
            rank = np.linalg.matrix_rank(c, tol=1e-12)
            assert rank == (n if n % 2 == 0 else n - 1)


class TestNeumannOperators:
    def test_gradient_kills_constants_exactly(self, grid_2d):
        ops = build_operator_set(grid_2d)
        assert np.abs(ops.grad_neumann @ np.ones(grid_2d.size)).max() == 0.0
        assert np.abs(ops.laplacian_neumann @ np.ones(grid_2d.size)).max() == 0.0

    def test_laplacian_is_negative_gram(self, grid_2d):
        ops = build_operator_set(grid_2d)
        gram = (ops.grad_neumann.T @ ops.grad_neumann).toarray()
        np.testing.assert_allclose(ops.laplacian_neumann.toarray(), -gram, atol=0)

    def test_adjoint_exactness(self, grid_2d, rng):
        ops = build_operator_set(grid_2d)
        u = rng.standard_normal(grid_2d.size)
        w = rng.standard_normal(ops.grad_neumann.shape[0])
        lhs = (ops.grad_neumann @ u) @ w
        rhs = u @ (ops.grad_neumann.T @ w)
        assert abs(lhs - rhs) <= 1e-14 * max(abs(lhs), 1.0)

    def test_axis_operators_act_separably(self, rng):
        # Kronecker structure: on a separable field a(x) b(y), the x operator
        # differentiates a and leaves b alone (and symmetrically for y).
        grid = Grid.regular([[0, 1], [0, 2]], [4, 6])
        a_x, a_y = axis_central_operators(grid)
        a = rng.standard_normal(4)
        b = rng.standard_normal(6)
        field = np.outer(a, b).ravel()
        c4 = central_difference_matrix(4) / (2 * grid.spacings[0])
        c6 = central_difference_matrix(6) / (2 * grid.spacings[1])
        np.testing.assert_allclose(
            a_x @ field, np.outer(c4 @ a, b).ravel(), atol=1e-13
        )
        np.testing.assert_allclose(
            a_y @ field, np.outer(a, c6 @ b).ravel(), atol=1e-13
        )
        # Constant-along-x fields vanish away from the Dirichlet boundary.
        const_x = np.tile(b, 4)
        interior = np.abs(a_x @ const_x).reshape(4, 6)[1:-1, :]
        assert interior.max() == 0.0

    def test_1d_gradient_shape(self):
        grid = Grid.regular([[0, 1]], [5])
        g = neumann_gradient(grid)
        assert g.shape == (4, 5)
        assert np.abs(g @ np.ones(5)).max() == 0.0


class TestEllipticInverses:
    def test_h1_roundtrip(self, grid_2d, rng):
        ops = build_operator_set(grid_2d)
        u = rng.standard_normal(grid_2d.size)
        gram = ops.grad_neumann.T @ ops.grad_neumann
        v = u + gram @ u
        np.testing.assert_allclose(ops.solve_h1(v), u, atol=1e-10)

    def test_poisson_deflated_constant_maps_to_zero(self, grid_2d):
        ops = build_operator_set(grid_2d)
        w = ops.solve_poisson_deflated(np.ones(grid_2d.size))
        np.testing.assert_allclose(w, np.zeros(grid_2d.size), atol=1e-12)

    def test_poisson_deflated_roundtrip(self, grid_2d, rng):
        ops = build_operator_set(grid_2d)
        v = rng.standard_normal(grid_2d.size)
        w = ops.solve_poisson_deflated(v)
        assert abs(w.mean()) <= 1e-12
        back = ops.grad_neumann.T @ (ops.grad_neumann @ w)
        np.testing.assert_allclose(back, v - v.mean(), atol=1e-10)

    # 1D, 2D odd and even, non-square with anisotropic spacing, the 30x300
    # index-space data panel, and n = 1 axes (G^T G has a zero axis there).
    SPECTRAL_GRIDS = [
        Grid.regular([[0.0, 1.0]], [9]),
        Grid.regular([[0.0, 1.0], [0.0, 1.0]], [7, 9]),
        Grid.regular([[0.0, 1.0], [0.0, 1.0]], [8, 6]),
        Grid.regular([[0.0, 1.0], [-1.0, 4.0]], [5, 12]),
        Grid.index_space([30, 300]),
        Grid.regular([[0.0, 1.0], [0.0, 2.0]], [1, 6]),
        Grid.index_space([1]),
    ]

    @pytest.mark.parametrize(
        "grid", SPECTRAL_GRIDS, ids=lambda g: "x".join(map(str, g.interior_counts))
    )
    @pytest.mark.parametrize("cols", [None, 3], ids=["vector", "block"])
    def test_spectral_solves_match_assembled_gram(self, rng, grid, cols):
        ops = DifferentialOperatorSet(grid)
        g = ops.grad_neumann
        gtg = g.T @ g  # assembled sparse G^T G
        v = rng.standard_normal(grid.size if cols is None else (grid.size, cols))
        w = ops.solve_h1(v)
        assert w.shape == v.shape
        assert np.linalg.norm(w + gtg @ w - v) <= 1e-12 * np.linalg.norm(v)
        w = ops.solve_poisson_deflated(v)
        assert w.shape == v.shape
        rhs = v - v.mean(axis=0)
        assert np.linalg.norm(gtg @ w - rhs) <= 1e-12 * np.linalg.norm(v)
        assert np.abs(w.mean(axis=0)).max() <= 1e-12 * max(np.abs(w).max(), 1.0)
        if grid.size <= 100:  # the solutions themselves, against dense ones
            dense = gtg.toarray()
            ref = np.linalg.solve(np.eye(grid.size) + dense, v)
            tol = 1e-12 * np.abs(ref).max()
            np.testing.assert_allclose(ops.solve_h1(v), ref, rtol=0, atol=tol)
            ref = np.linalg.pinv(dense) @ v
            tol = 1e-12 * max(np.abs(ref).max(), 1.0)
            np.testing.assert_allclose(w, ref, rtol=0, atol=tol)

    @pytest.mark.parametrize("name", ["h1", "h-1", "hdot1", "hdot-1"])
    def test_metric_factors_nothing(self, rng, monkeypatch, name):
        # Every dense and sparse factorization entry point raises; building a
        # fresh operator set (as in a fresh process) and applying every
        # action of the metric must not reach one.
        import scipy.linalg
        import scipy.sparse.linalg

        def forbidden(*args, **kwargs):
            raise AssertionError("a Sobolev metric called a factorization")

        for mod, names in (
            (scipy.sparse.linalg, ("splu", "spilu", "factorized", "spsolve")),
            (scipy.linalg, ("lu_factor", "cho_factor", "cholesky", "cholesky_banded", "solve")),
        ):
            for fn in names:
                monkeypatch.setattr(mod, fn, forbidden)
        monkeypatch.setattr("natgrad.grids._pbtrf", forbidden)
        grid = Grid.regular([[0.0, 1.0], [0.0, 1.0]], [7, 5])
        monkeypatch.setattr(
            "natgrad.metrics.build_operator_set", lambda g: DifferentialOperatorSet(g)
        )
        metric = build_metric(name, grid)
        v = rng.standard_normal(grid.size)
        for out in (metric.apply_L(v), metric.apply_Lt_pinv(v), metric.apply_LtL(v),
                    metric.apply_L_matrix(rng.standard_normal((grid.size, 2)))):
            assert np.all(np.isfinite(out))


class TestWeightedDivergence:
    def test_unit_density_gives_plain_divergence(self, grid_2d):
        rho = np.ones(grid_2d.size)
        wdiv = build_weighted_divergence(grid_2d, rho)
        a_x, a_y = axis_central_operators(grid_2d)
        import scipy.sparse as sp

        plain = -sp.hstack([a_x, a_y]).toarray()
        np.testing.assert_allclose(divergence_matrix(wdiv).toarray(), plain, atol=0)

    def test_zero_mobility_ignores_density(self, grid_2d, rng):
        rho = rng.uniform(0.5, 3.0, grid_2d.size)
        wdiv0 = build_weighted_divergence(grid_2d, rho, mobility_exponent=0.0)
        wdiv1 = build_weighted_divergence(grid_2d, np.ones(grid_2d.size), 0.0)
        np.testing.assert_allclose(
            divergence_matrix(wdiv0).toarray(), divergence_matrix(wdiv1).toarray(), atol=0
        )

    def test_full_rank_on_even_interior_counts(self, rng):
        # With strictly positive density, even interior counts (an odd number
        # of mesh intervals per axis) give full row rank; odd counts on every
        # axis leave an alternating checkerboard field in the cokernel.
        for m in (2, 4, 6, 8):
            grid = Grid.regular([[0, 1], [0, 1]], [m, m])
            rho = rng.uniform(0.5, 2.0, grid.size)
            wdiv = build_weighted_divergence(grid, rho)
            piv = qr_column_pivoted(divergence_matrix(wdiv).toarray().T, tol=1e-10)
            assert piv.numerical_rank == grid.size
            assert not wdiv.rank_deficient

    def test_rank_drop_on_odd_interior_counts(self, rng):
        for m in (3, 9):
            grid = Grid.regular([[0, 1], [0, 1]], [m, m])
            rho = rng.uniform(0.5, 2.0, grid.size)
            with pytest.warns(UserWarning):
                wdiv = build_weighted_divergence(grid, rho)
            piv = qr_column_pivoted(divergence_matrix(wdiv).toarray().T, tol=1e-10)
            assert piv.numerical_rank == grid.size - 1
            assert wdiv.rank_deficient

    def test_pinv_consistency_and_null_orthogonality(self, grid_2d, rng):
        rho = rng.uniform(0.5, 2.0, grid_2d.size)
        wdiv = build_weighted_divergence(grid_2d, rho)
        zeta = rng.standard_normal(grid_2d.size)
        y = wdiv.apply_pinv(zeta)
        b_dense = divergence_matrix(wdiv).toarray()
        assert np.linalg.norm(b_dense @ y - zeta) <= 1e-10 * np.linalg.norm(zeta)
        _, _, vt = np.linalg.svd(b_dense)
        null_basis = vt[grid_2d.size :, :]
        assert np.linalg.norm(null_basis @ y) <= 1e-10 * np.linalg.norm(y)

    def test_full_rank_when_any_interior_count_is_even(self, rng):
        # The cokernel of B is ker(C_x) (x) ker(C_y), which is trivial as soon
        # as one axis has an even count: mixed-parity grids are full rank and
        # never warn.
        for counts in [(3, 4), (9, 10), (1, 4), (11, 12)]:
            grid = Grid.regular([[0, 1], [0, 1]], counts)
            rho = rng.uniform(0.5, 2.0, grid.size)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                wdiv = build_weighted_divergence(grid, rho)
            assert not wdiv.rank_deficient
            assert wdiv.backend == "sparse"
            b_dense = divergence_matrix(wdiv).toarray()
            assert qr_column_pivoted(b_dense.T, tol=1e-10).numerical_rank == grid.size
            zeta = rng.standard_normal(grid.size)
            np.testing.assert_allclose(
                wdiv.apply_pinv(zeta), np.linalg.pinv(b_dense) @ zeta, atol=1e-9
            )
            np.testing.assert_allclose(
                wdiv.apply_gram_pinv(zeta),
                np.linalg.pinv(b_dense @ b_dense.T) @ zeta, atol=1e-9,
            )

    def test_pinv_on_rank_deficient_matches_svd(self, rng):
        # Every count odd: the even-even parity block is singular and its null
        # vector is projected out.
        for counts in ((3, 3), (11, 11)):
            grid = Grid.regular([[0, 1], [0, 1]], counts)
            rho = rng.uniform(0.5, 2.0, grid.size)
            with pytest.warns(UserWarning):
                wdiv = build_weighted_divergence(grid, rho)
            zeta = rng.standard_normal(grid.size)
            b_dense = divergence_matrix(wdiv).toarray()
            y_svd = np.linalg.pinv(b_dense) @ zeta
            np.testing.assert_allclose(wdiv.apply_pinv(zeta), y_svd, atol=1e-9)
            gram_svd = np.linalg.pinv(b_dense @ b_dense.T) @ zeta
            np.testing.assert_allclose(
                wdiv.apply_gram_pinv(zeta), gram_svd,
                atol=1e-9 * np.abs(gram_svd).max(),
            )

    def test_rank_deficient_actions_match_per_call_min_norm_solve(self, rng):
        # The grounded parity-block factor must agree with a fresh pivoted-QR
        # minimum-norm solve per call, for a vector and for a block of columns.
        grid = Grid.regular([[0, 1], [0, 1]], [9, 9])
        with pytest.warns(UserWarning):
            wdiv = build_weighted_divergence(grid, rng.uniform(0.5, 2.0, grid.size))
        b_dense = divergence_matrix(wdiv).toarray()
        for rhs in (rng.standard_normal(grid.size), rng.standard_normal((grid.size, 3))):
            y = solve_least_squares_min_norm(b_dense, rhs)
            gram = solve_least_squares_min_norm(b_dense.T, y)
            for got, want in ((wdiv.apply_pinv(rhs), y), (wdiv.apply_gram_pinv(rhs), gram)):
                assert got.shape == want.shape
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_gram_pinv_matches_svd(self, grid_2d, rng):
        rho = rng.uniform(0.5, 2.0, grid_2d.size)
        wdiv = build_weighted_divergence(grid_2d, rho)
        v = rng.standard_normal(grid_2d.size)
        b = divergence_matrix(wdiv)
        gram = (b @ b.T).toarray()
        np.testing.assert_allclose(
            wdiv.apply_gram_pinv(v), np.linalg.pinv(gram) @ v, atol=1e-10
        )

    def test_sparse_backend_agrees_with_dense(self, rng):
        # 12x12 interior: full rank by parity.
        grid = Grid.regular([[0, 1], [0, 1]], [12, 12])
        rho = rng.uniform(0.5, 2.0, grid.size)
        wdiv = build_weighted_divergence(grid, rho)
        assert wdiv.backend == "sparse"
        zeta = rng.standard_normal(grid.size)
        y = wdiv.apply_pinv(zeta)
        y_svd = np.linalg.pinv(divergence_matrix(wdiv).toarray()) @ zeta
        np.testing.assert_allclose(y, y_svd, atol=1e-9)

    def test_bt_is_literal_transpose(self, grid_2d, rng):
        rho = rng.uniform(0.5, 2.0, grid_2d.size)
        wdiv = build_weighted_divergence(grid_2d, rho)
        g = rng.standard_normal(grid_2d.size)
        w = rng.standard_normal(2 * grid_2d.size)
        lhs = (divergence_matrix(wdiv) @ w) @ g
        rhs = w @ wdiv.apply_bt(g)
        assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), 1.0)

    # Even, mixed, all-odd (up to 31x31), (1, n) and 1D grids, dx != dy.
    @pytest.mark.parametrize("counts", [
        (6, 8), (6, 5), (4, 9), (3, 3), (9, 9), (11, 11), (31, 31),
        (1, 3), (1, 4), (9,), (8,), (1,),
    ], ids=lambda c: "x".join(map(str, c)))
    @pytest.mark.parametrize("kappa", [0.0, 0.5, 1.0])
    def test_parity_block_factor_matches_svd_pinv(self, rng, counts, kappa):
        grid = Grid.regular([[0.0, 1.0], [0.0, 2.3]][: len(counts)], counts)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            wdiv = build_weighted_divergence(grid, rng.uniform(0.5, 2.0, grid.size), kappa)
        pinv = np.linalg.pinv(divergence_matrix(wdiv).toarray())
        for rhs in (rng.standard_normal(grid.size), rng.standard_normal((grid.size, 3))):
            y = pinv @ rhs
            gram = pinv.T @ y
            for got, want in ((wdiv.apply_pinv(rhs), y), (wdiv.apply_gram_pinv(rhs), gram)):
                assert got.shape == want.shape
                assert np.linalg.norm(got - want) <= 1e-12 * max(np.linalg.norm(want), 1e-300)

    @staticmethod
    def _even_sublattice(counts):
        n = np.zeros(counts)
        n[(slice(None, None, 2),) * len(counts)] = 1.0
        return n.ravel()

    def test_even_sublattice_indicator_spans_cokernel(self, rng):
        for counts in ((3, 3), (9, 11), (1, 5), (7,)):
            grid = Grid.regular([[0.0, 1.0], [0.0, 1.0]][: len(counts)], counts)
            n = self._even_sublattice(counts)
            for _ in range(3):
                with pytest.warns(UserWarning):
                    wdiv = build_weighted_divergence(grid, rng.uniform(0.1, 5.0, grid.size))
                b = divergence_matrix(wdiv)
                assert np.linalg.norm(b.T @ n) <= 1e-14 * np.linalg.norm(b.toarray())
                assert np.linalg.norm(wdiv.apply_bt(n)) == 0.0

    def test_range_projection_matches_b_pinv(self, rng):
        for counts in ((3, 3), (11, 9), (6, 5), (9,)):
            grid = Grid.regular([[0.0, 1.0], [0.0, 1.0]][: len(counts)], counts)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                wdiv = build_weighted_divergence(grid, rng.uniform(0.5, 2.0, grid.size))
            for g in (rng.standard_normal(grid.size), rng.standard_normal((grid.size, 3))):
                want = divergence_matrix(wdiv) @ wdiv.apply_pinv(g)
                got = wdiv.project_range(g)
                assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(g)
                if wdiv.rank_deficient:
                    n = self._even_sublattice(counts)
                    assert np.linalg.norm(n @ got) <= 1e-13 * np.linalg.norm(g)

    def test_bt_stencil_equals_sparse_transpose(self, rng):
        for counts in ((6, 5), (1, 4), (9,), (1,)):
            grid = Grid.regular([[0.0, 1.0], [0.0, 2.3]][: len(counts)], counts)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                wdiv = build_weighted_divergence(grid, rng.uniform(0.5, 2.0, grid.size))
            for g in (rng.standard_normal(grid.size), rng.standard_normal((grid.size, 3))):
                want = divergence_matrix(wdiv).T @ g
                got = wdiv.apply_bt(g)
                assert got.shape == want.shape
                assert np.linalg.norm(got - want) <= 1e-14 * max(np.linalg.norm(want), 1e-300)

    @staticmethod
    def _bt_by_moveaxis(wdiv, g):
        """The earlier apply_bt, one zeroed temporary per axis, concatenated."""
        u = g.reshape(wdiv.grid.interior_counts + g.shape[1:])
        w = wdiv.weights.reshape(wdiv.grid.interior_counts + (1,) * (g.ndim - 1))
        parts = []
        for axis, h in enumerate(wdiv.grid.spacings):
            a, diff = np.moveaxis(u, axis, 0), np.zeros_like(u)
            d = np.moveaxis(diff, axis, 0)
            d[:-1] = a[1:]
            d[1:] -= a[:-1]
            parts.append((diff * (w / (2.0 * h))).reshape(g.shape))
        return np.concatenate(parts)

    def test_bt_in_place_stencil_is_bit_identical(self, rng):
        # The in-place stencil keeps the operation order of each element.
        for counts in ((12, 160), (6, 5), (1, 4), (9,), (1,)):
            grid = Grid.regular([[0.0, 1.0], [0.0, 2.3]][: len(counts)], counts)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                wdiv = build_weighted_divergence(grid, rng.uniform(0.5, 2.0, grid.size))
            for g in (rng.standard_normal(grid.size), rng.standard_normal((grid.size, 144))):
                assert np.array_equal(wdiv.apply_bt(g), self._bt_by_moveaxis(wdiv, g))

    def test_gram_solve_equals_scipy_banded_solve(self, rng):
        # The direct LAPACK call is the routine cho_solve_banded wraps.
        for counts in ((6, 8), (9, 9), (1, 4), (7,)):
            grid = Grid.regular([[0.0, 1.0], [0.0, 2.3]][: len(counts)], counts)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                wdiv = build_weighted_divergence(grid, rng.uniform(0.5, 2.0, grid.size))
            for v in (rng.standard_normal(grid.size), rng.standard_normal((grid.size, 3))):
                want = np.empty_like(v)
                for idx, factor, singular in wdiv._blocks:
                    r = v[idx] - v[idx].mean(axis=0) if singular else v[idx]
                    x = cho_solve_banded((factor, False), r, check_finite=False)
                    want[idx] = x - x.mean(axis=0) if singular else x
                assert np.array_equal(wdiv.apply_gram_pinv(v), want)

    @staticmethod
    def _factors_by_padding(grid, q):
        """The earlier per-block band build: np.pad, then cholesky_banded."""
        lead = (2 - grid.dim) * (1,)
        counts, spacings = lead + grid.interior_counts, lead + grid.spacings
        cx, cy = (1.0 / (4.0 * h * h) for h in spacings)
        q = q.reshape(counts)
        qp = np.pad(q, 1)
        diag = cx * (qp[:-2, 1:-1] + qp[2:, 1:-1]) + cy * (qp[1:-1, :-2] + qp[1:-1, 2:])
        slow, fast = cx * q[1:-1, :], cy * q[:, 1:-1]
        if counts[0] < counts[1]:
            diag, slow, fast = diag.T, fast.T, slow.T
        factors = []
        for ps, pf in np.ndindex(*(min(2, n) for n in diag.shape)):
            d = diag[ps::2, pf::2]
            ms, mf = d.shape
            ab = np.zeros((mf + 1, ms * mf), order="F")
            ab[mf] = d.ravel()
            ab[0, mf:] -= slow[ps::2, pf::2].ravel()
            ab[mf - 1] -= np.pad(fast[ps::2, pf::2], ((0, 0), (1, 0))).ravel()
            if ps == pf == 0 and all(n % 2 for n in counts):
                ab[mf, 0] += ab[mf].max() or 1.0
            factors.append(cholesky_banded(ab, check_finite=False))
        return factors

    # The FWI panel sizes (30x300 and the rank-deficient 31x301), the mixture
    # grid, and small, (1, n) and 1D grids.
    @pytest.mark.parametrize("counts", [
        (72, 72), (30, 300), (31, 301), (300, 30), (7, 9), (1, 5), (2, 1), (9,), (1,),
    ], ids=lambda c: "x".join(map(str, c)))
    def test_parity_factors_are_bit_identical_to_padded_build(self, rng, counts):
        grid = Grid.regular([[0.0, 1.0], [0.0, 2.3]][: len(counts)], counts)
        q = rng.uniform(0.25, 4.0, grid.size)
        blocks = _parity_blocks(grid, q)
        want = self._factors_by_padding(grid, q)
        assert len(blocks) == len(want)
        for (_, factor, _), ref in zip(blocks, want):
            assert np.array_equal(factor, ref)

    def test_nonpositive_density_rejected(self, grid_2d):
        rho = np.ones(grid_2d.size)
        rho[3] = 0.0
        with pytest.raises(ValueError):
            build_weighted_divergence(grid_2d, rho)


class TestGrid:
    def test_regular_spacing(self):
        grid = Grid.regular([[0.0, 1.0]], [9])
        assert grid.spacings == (0.1,)
        np.testing.assert_allclose(grid.axis_points(0), 0.1 * np.arange(1, 10))

    def test_points_x_major(self):
        grid = Grid.regular([[0, 1], [0, 1]], [2, 3])
        pts = grid.points()
        assert pts.shape == (6, 2)
        # x is the slow axis: the first three points share x.
        assert np.allclose(pts[:3, 0], pts[0, 0])

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid((0,), (1.0,), ((0.0, 1.0),))
        with pytest.raises(ValueError):
            Grid((2, 2, 2), (1.0, 1.0, 1.0), ((0.0, 1.0),) * 3)
