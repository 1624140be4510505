"""Grid operators: stencils, adjoint exactness, kernels, divergence rank."""

import warnings

import numpy as np
import pytest

from assembled_operators import (
    RedBlackReference,
    axis_central_operators,
    central_difference_matrix,
    divergence_matrix,
    divergence_rank,
    neumann_gradient,
    neumann_laplacian,
)
from natgrad import grids
from natgrad.grids import (
    DifferentialOperatorSet,
    Grid,
    build_operator_set,
    build_weighted_divergence,
)
from natgrad.linalg import solve_least_squares_min_norm
from natgrad.metrics import MetricOperator


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
        assert np.abs(neumann_gradient(grid_2d) @ np.ones(grid_2d.size)).max() == 0.0
        assert np.abs(ops.apply_laplacian(np.ones(grid_2d.size))).max() == 0.0

    def test_laplacian_is_negative_gram(self, grid_2d):
        ops = build_operator_set(grid_2d)
        g = neumann_gradient(grid_2d)
        gram = (g.T @ g).toarray()
        np.testing.assert_allclose(ops.apply_laplacian(np.eye(grid_2d.size)), -gram, atol=0)

    # 72x72 (the mixture grid), the 30x300 and 12x160 index-space data
    # panels, dx != dy on odd, even and square grids, n = 1 axes, 1D and a
    # single point.
    STENCIL_GRIDS = [
        Grid.regular([[-2.75, 7.25], [-2.75, 7.25]], [72, 72]),
        Grid.index_space([30, 300]),
        Grid.index_space([12, 160]),
        Grid.regular([[0.0, 1.0], [0.0, 2.3]], [7, 11]),
        Grid.regular([[0.0, 1.7], [0.0, 1.0]], [13, 6]),
        Grid.regular([[0.0, 1.0], [0.0, 3.0]], [4, 4]),
        Grid.regular([[0.0, 1.0], [0.0, 2.0]], [1, 7]),
        Grid.regular([[0.0, 1.0], [0.0, 2.0]], [5, 1]),
        Grid.regular([[0.0, 1.0]], [9]),
        Grid.index_space([1]),
    ]

    @pytest.mark.parametrize(
        "grid", STENCIL_GRIDS, ids=lambda g: "x".join(map(str, g.interior_counts))
    )
    def test_stencil_equals_assembled_product_bit_for_bit(self, rng, grid):
        # The stencil adds its terms in the sparse product's order, so every
        # entry and every sign of zero must match, for vectors and blocks in
        # either memory order.
        ops = DifferentialOperatorSet(grid)
        lap = neumann_laplacian(grid)
        for shape in [(grid.size,), (grid.size, 1), (grid.size, 3), (grid.size, 144)]:
            for order in "CF":
                v = np.asarray(rng.standard_normal(shape), order=order)
                flat = v.ravel(order="K")  # a view, so zeros land in v
                flat[::7], flat[3::11] = 0.0, -0.0
                out, ref = ops.apply_laplacian(v), lap @ v
                assert out.shape == ref.shape
                assert np.array_equal(out, ref)
                assert np.array_equal(np.signbit(out), np.signbit(ref))
        for v in (np.zeros(grid.size), -np.zeros(grid.size), np.ones(grid.size)):
            out, ref = ops.apply_laplacian(v), lap @ v
            assert np.array_equal(out, ref)
            assert np.array_equal(np.signbit(out), np.signbit(ref))

    def test_adjoint_exactness(self, grid_2d, rng):
        g = neumann_gradient(grid_2d)
        u = rng.standard_normal(grid_2d.size)
        w = rng.standard_normal(g.shape[0])
        lhs = (g @ u) @ w
        rhs = u @ (g.T @ w)
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
    # The h-1 L^T L is (I + G^T G)^-1 and the hdot-1 one (G^T G)^+, each one
    # scaling in the DCT basis.
    def test_h1_roundtrip(self, grid_2d, rng):
        g = neumann_gradient(grid_2d)
        u = rng.standard_normal(grid_2d.size)
        gram = g.T @ g
        v = u + gram @ u
        np.testing.assert_allclose(MetricOperator("h-1", grid_2d).apply_LtL(v), u, atol=1e-10)

    def test_poisson_deflated_constant_maps_to_zero(self, grid_2d):
        w = MetricOperator("hdot-1", grid_2d).apply_LtL(np.ones(grid_2d.size))
        np.testing.assert_allclose(w, np.zeros(grid_2d.size), atol=1e-12)

    def test_poisson_deflated_roundtrip(self, grid_2d, rng):
        g = neumann_gradient(grid_2d)
        v = rng.standard_normal(grid_2d.size)
        w = MetricOperator("hdot-1", grid_2d).apply_LtL(v)
        assert abs(w.mean()) <= 1e-12
        back = g.T @ (g @ w)
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
        g = neumann_gradient(grid)
        gtg = g.T @ g  # assembled sparse G^T G
        solve_h1 = MetricOperator("h-1", grid).apply_LtL
        v = rng.standard_normal(grid.size if cols is None else (grid.size, cols))
        w = solve_h1(v)
        assert w.shape == v.shape
        assert np.linalg.norm(w + gtg @ w - v) <= 1e-12 * np.linalg.norm(v)
        w = MetricOperator("hdot-1", grid).apply_LtL(v)
        assert w.shape == v.shape
        rhs = v - v.mean(axis=0)
        assert np.linalg.norm(gtg @ w - rhs) <= 1e-12 * np.linalg.norm(v)
        assert np.abs(w.mean(axis=0)).max() <= 1e-12 * max(np.abs(w).max(), 1.0)
        if grid.size <= 100:  # the solutions themselves, against dense ones
            dense = gtg.toarray()
            ref = np.linalg.solve(np.eye(grid.size) + dense, v)
            tol = 1e-12 * np.abs(ref).max()
            np.testing.assert_allclose(solve_h1(v), ref, rtol=0, atol=tol)
            ref = np.linalg.pinv(dense) @ v
            tol = 1e-12 * max(np.abs(ref).max(), 1.0)
            np.testing.assert_allclose(w, ref, rtol=0, atol=tol)

    @pytest.mark.parametrize("name", ["h1", "h-1", "hdot1", "hdot-1"])
    def test_metric_factors_nothing(self, rng, monkeypatch, name):
        # Every dense factorization entry point raises; building a fresh
        # operator set (as in a fresh process) and applying every action of
        # the metric must not reach one. natgrad imports no scipy.sparse
        # (test_cli_import_loads_no_scipy_sparse), so its solvers need no patch.
        import scipy.linalg

        def forbidden(*args, **kwargs):
            raise AssertionError("a Sobolev metric called a factorization")

        for fn in ("lu_factor", "cho_factor", "cholesky", "cholesky_banded", "solve"):
            monkeypatch.setattr(scipy.linalg, fn, forbidden)
        monkeypatch.setattr("natgrad.grids._pbtrf", forbidden)
        grid = Grid.regular([[0.0, 1.0], [0.0, 1.0]], [7, 5])
        monkeypatch.setattr(
            "natgrad.metrics.build_operator_set", lambda g: DifferentialOperatorSet(g)
        )
        metric = MetricOperator(name, grid)
        v = rng.standard_normal(grid.size)
        for out in (metric.apply_L_matrix(v), metric.apply_Lt_pinv(v), metric.apply_LtL(v),
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
            assert divergence_rank(wdiv) == grid.size
            assert not wdiv.rank_deficient

    def test_rank_drop_on_odd_interior_counts(self, rng):
        for m in (3, 9):
            grid = Grid.regular([[0, 1], [0, 1]], [m, m])
            rho = rng.uniform(0.5, 2.0, grid.size)
            with pytest.warns(UserWarning):
                wdiv = build_weighted_divergence(grid, rho)
            assert divergence_rank(wdiv) == grid.size - 1
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
            assert divergence_rank(wdiv) == grid.size
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

    # The grids of test_parity_block_factor_matches_svd_pinv.
    @pytest.mark.parametrize("counts", [
        (6, 8), (6, 5), (4, 9), (3, 3), (9, 9), (11, 11), (31, 31),
        (1, 3), (1, 4), (9,), (8,), (1,),
    ], ids=lambda c: "x".join(map(str, c)))
    def test_red_black_factor_is_a_root_of_the_grounded_block(self, rng, counts):
        # R assembled densely: red rows from B B^T itself (d^1/2 on the
        # diagonal, the couplings over d^1/2), black rows from the stored
        # Schur factors. Then R^T R = B B^T + c e_g e_g^T, with c > 0 only on
        # an all-odd grid, at a black node g of the even-even block, and the
        # roots are R^-T P and R (I - 1_even e_g^T).
        grid = Grid.regular([[0.0, 1.0], [0.0, 2.3]][: len(counts)], counts)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            wdiv = build_weighted_divergence(grid, rng.uniform(0.5, 2.0, grid.size))
        b = divergence_matrix(wdiv).toarray()
        m = b @ b.T
        i, j = np.indices((1,) * (2 - grid.dim) + counts)
        red = np.flatnonzero((i // 2 + j // 2) % 2)
        root = np.zeros_like(m)
        for r in red:
            others = np.setdiff1d(red, r)
            assert not m[r, others].any()  # the block is bipartite
            root[r] = m[r] / np.sqrt(m[r, r])
        black, factor = wdiv._black, wdiv._factor
        assert np.array_equal(np.sort(np.concatenate([black, red])), np.arange(grid.size))
        kd, n = factor.shape[0] - 1, len(black)
        schur = np.zeros((n, n))
        for off in range(min(kd, n - 1) + 1):  # upper band storage
            cols = np.arange(off, n)
            schur[cols - off, cols] = factor[kd - off, off:]
        root[np.ix_(black, black)] = schur
        excess = root.T @ root - m
        even = self._even_sublattice(counts)
        if wdiv.rank_deficient:
            g = int(np.argmax(np.diag(excess)))
            assert excess[g, g] > 0.0 and even[g] == 1.0 and g not in red
            excess[g, g] = 0.0
        assert np.abs(excess).max() <= 1e-13 * np.abs(m).max()
        block = rng.standard_normal((grid.size, 3))
        for rhs in (rng.standard_normal(grid.size), block, np.asfortranarray(block)):
            centred, grounded = np.array(rhs), np.array(rhs)
            if wdiv.rank_deficient:
                mask = even.astype(bool)
                centred[mask] -= centred[mask].mean(axis=0)
                grounded[mask] -= rhs[g]
            for got, want in ((wdiv.apply_inverse_root(rhs), np.linalg.solve(root.T, centred)),
                              (wdiv.apply_root(rhs), root @ grounded)):
                assert got.shape == want.shape
                assert np.linalg.norm(got - want) <= 1e-12 * max(np.linalg.norm(want), 1e-300)

    # The mixture grid and the FWI panel sizes, rank-deficient 31x301 included.
    @pytest.mark.parametrize("counts", [(72, 72), (30, 300), (31, 301)],
                             ids=lambda c: "x".join(map(str, c)))
    def test_factor_work_is_the_black_half(self, rng, monkeypatch, counts):
        # A machine-independent work guard: a build factors only the Schur
        # complements on the black points, at most ceil(k/2) rows plus one
        # per parity block (the full blocks held k rows), in one band with kd
        # the blocks' extent along the short grid axis.
        pbtrf, bands = grids._pbtrf, []

        def record(ab, **kwargs):
            bands.append(ab.shape)
            return pbtrf(ab, **kwargs)

        monkeypatch.setattr(grids, "_pbtrf", record)
        grid = Grid.regular([[0.0, 1.0], [0.0, 2.3]], counts)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            build_weighted_divergence(grid, rng.uniform(0.5, 2.0, grid.size))
        [(rows, n)] = bands
        assert rows - 1 == (min(counts) + 1) // 2
        assert n <= -(-grid.size // 2) + 4

    def test_nonpositive_density_rejected(self, grid_2d):
        rho = np.ones(grid_2d.size)
        rho[3] = 0.0
        with pytest.raises(ValueError):
            build_weighted_divergence(grid_2d, rho)


class TestRedBlackOracle:
    """The transport factor and its actions equal their first transcription
    (``RedBlackReference``) bit for bit, whatever the grid, the mobility, the
    column count or the memory order of the input."""

    GRIDS = {
        "72x72": ([[-2.75, 7.25], [-2.75, 7.25]], (72, 72)),
        "30x300": (None, (30, 300)),
        "12x160": (None, (12, 160)),
        "11x11": ([[0.0, 1.0], [0.0, 1.0]], (11, 11)),
        "9x31": ([[0.0, 1.0], [0.0, 2.3]], (9, 31)),
        "1x7": ([[0.0, 1.0], [0.0, 2.3]], (1, 7)),
        "1d": ([[0.0, 1.0]], (9,)),
        "dx!=dy": ([[0.0, 1.0], [0.0, 2.3]], (6, 5)),
    }

    @pytest.mark.parametrize("name", list(GRIDS))
    @pytest.mark.parametrize("kappa", [0.0, 0.5, 1.0])
    def test_factor_and_actions_are_bit_identical(self, rng, name, kappa):
        extents, counts = self.GRIDS[name]
        grid = Grid.index_space(counts) if extents is None else Grid.regular(extents, counts)
        # A density over several decades, as a mixture tail or a wave panel has.
        rho = np.exp(3.0 * rng.standard_normal(grid.size))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the all-odd rank warning
            wdiv = build_weighted_divergence(grid, rho, kappa)
        ref = RedBlackReference(grid, rho, kappa)
        assert np.array_equal(wdiv._factor, ref.factor)
        assert np.array_equal(wdiv._black, ref.black)
        assert wdiv._ground == ref.ground
        inputs = [rng.standard_normal(grid.size)]
        for cols in (1, 2, 144):
            block = rng.standard_normal((grid.size, cols))
            inputs += [block, np.asfortranarray(block)]
        # Signed zeros: a zero sum must keep the sign that the reference gives it.
        inputs.append(-np.abs(block[:, :2]) * (rng.random((grid.size, 2)) < 0.5))
        for v in inputs:
            for action in ("apply_inverse_root", "apply_root", "apply_gram_pinv"):
                got, want = getattr(wdiv, action)(v), getattr(ref, action)(v)
                assert got.shape == want.shape
                assert got.flags.c_contiguous == want.flags.c_contiguous
                assert np.array_equal(got, want), (action, v.shape)
                assert np.array_equal(np.signbit(got), np.signbit(want)), (action, v.shape)


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
            Grid((0,), ((0.0, 1.0),))
        with pytest.raises(ValueError):
            Grid((2, 2, 2), ((0.0, 1.0),) * 3)
        for extents in ((1.0, 1.0), (0.0, np.nan), (0.0, np.inf)):
            with pytest.raises(ValueError, match="spacings must be positive and finite"):
                Grid((2,), (extents,))

    @pytest.mark.parametrize("extents", [[[0, 1]], [[0, 1]] * 3])
    def test_extents_must_match_counts(self, extents):
        with pytest.raises(ValueError, match="axis extents for 2 interior counts"):
            Grid.regular(extents, [24, 24])

    def test_index_space_is_regular_with_unit_spacing(self):
        grid = Grid.index_space([3, 5])
        assert grid == Grid.regular([[0, 4], [0, 6]], [3, 5])
        assert grid.spacings == (1.0, 1.0)

    def test_index_space_rejects_fractional_count(self):
        with pytest.raises(ValueError, match="interior count must be an integer"):
            Grid.index_space([4.6])
