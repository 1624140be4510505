"""Metric operators: action tables, information-matrix identities, refresh."""

import numpy as np
import pytest

from natgrad.grids import Grid, build_operator_set
from natgrad.metrics import (
    BlockMetric,
    MetricKind,
    MetricOperator,
    build_metric,
    normalize_to_density,
)
from natgrad.solver import direction_explicit

ALL_METRICS = ["l2", "fisher-rao", "h1", "h-1", "hdot1", "hdot-1", "w2"]


class TestMetricKind:
    def test_parse_roundtrip(self):
        for name in ALL_METRICS:
            assert MetricKind.parse(name).label() == name

    def test_parse_mobility(self):
        kind = MetricKind.parse("w2:k=0.25")
        assert kind.family == "wasserstein"
        assert kind.mobility_exponent == 0.25

    def test_state_dependence_table(self):
        expected = {
            "l2": False, "fisher-rao": True, "h1": False, "h-1": False,
            "hdot1": False, "hdot-1": False, "w2": True,
        }
        for name, dep in expected.items():
            assert MetricKind.parse(name).state_dependent is dep

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            MetricKind.parse("h2")


class TestBuildAndRefresh:
    def test_l2_identity_action(self, grid_2d, rng):
        op = build_metric("l2", grid_2d)
        v = rng.standard_normal(grid_2d.size)
        np.testing.assert_array_equal(op.apply_L(v), v)

    def test_fisher_rao_elementwise(self):
        grid = Grid.index_space([3, 1])
        op = build_metric("fisher-rao", grid, rho=np.array([4.0, 1.0, 0.25]))
        np.testing.assert_allclose(op.apply_L([2.0, 3.0, 1.0]), [1.0, 3.0, 2.0])
        np.testing.assert_allclose(
            build_metric("fisher-rao", Grid.index_space([2, 1]),
                         rho=np.array([4.0, 1.0])).apply_Lt_pinv([1.0, 2.0]),
            [2.0, 2.0],
        )

    def test_state_dependent_requires_density(self, grid_2d):
        with pytest.raises(ValueError):
            build_metric("w2", grid_2d)
        with pytest.raises(ValueError):
            build_metric("fisher-rao", grid_2d, rho=-np.ones(grid_2d.size))

    def test_refresh_noop_for_state_free(self, grid_2d, rng):
        for name in ("l2", "h1", "h-1", "hdot1", "hdot-1"):
            op = build_metric(name, grid_2d)
            assert op.refresh(rng.uniform(1, 2, grid_2d.size)) is op

    def test_refresh_rebuilds_fisher_rao(self, grid_2d, rng):
        rho = rng.uniform(0.5, 2.0, grid_2d.size)
        op = build_metric("fisher-rao", grid_2d, rho=rho)
        rho2 = rng.uniform(0.5, 2.0, grid_2d.size)
        op2 = op.refresh(rho2)
        v = rng.standard_normal(grid_2d.size)
        np.testing.assert_allclose(op2.apply_L(v), v / np.sqrt(rho2))

    def test_refresh_rebuilds_transport_roundtrip(self, grid_2d, rng):
        rho = rng.uniform(0.5, 2.0, grid_2d.size)
        op = build_metric("w2", grid_2d, rho=rho)
        rho2 = rng.uniform(0.5, 2.0, grid_2d.size)
        op2 = op.refresh(rho2)
        zeta = rng.standard_normal(grid_2d.size)
        y = op2.apply_L(zeta)
        assert np.linalg.norm(op2.weighted_divergence.b @ y - zeta) <= 1e-10 * np.linalg.norm(zeta)

    def test_row_dims(self, grid_2d):
        k = grid_2d.size
        edges = build_operator_set(grid_2d).edge_count
        dims = {
            "l2": k, "fisher-rao": k, "h1": k + edges, "h-1": k + edges,
            "hdot1": edges, "hdot-1": edges, "w2": 2 * k,
        }
        rho = np.ones(k)
        for name, d in dims.items():
            kind = MetricKind.parse(name)
            op = build_metric(kind, grid_2d, rho if kind.state_dependent else None)
            assert op.row_dim == d


class TestActionTables:
    def test_hdot1_kills_constants(self, grid_2d):
        op = build_metric("hdot1", grid_2d)
        np.testing.assert_allclose(
            op.apply_L(np.ones(grid_2d.size)), np.zeros(op.row_dim), atol=0
        )

    def test_w2_pinv_roundtrip(self, grid_2d, rng):
        rho = rng.uniform(0.5, 2.0, grid_2d.size)
        op = build_metric("w2", grid_2d, rho=rho)
        zeta = rng.standard_normal(grid_2d.size)
        y = op.apply_L(zeta)
        assert np.linalg.norm(op.weighted_divergence.b @ y - zeta) <= 1e-10 * np.linalg.norm(zeta)

    def test_w2_lt_pinv_is_weighted_gradient(self, grid_2d, rng):
        # With unit density the transpose action is the plain central-difference
        # gradient stack.
        op = build_metric("w2", grid_2d, rho=np.ones(grid_2d.size))
        g = rng.standard_normal(grid_2d.size)
        from natgrad.grids import axis_central_operators
        import scipy.sparse as sp

        a_x, a_y = axis_central_operators(grid_2d)
        plain_bt = -sp.hstack([a_x, a_y]).T
        np.testing.assert_allclose(op.apply_Lt_pinv(g), plain_bt @ g, atol=1e-13)

    def test_adjoint_consistency_full_row_rank(self, grid_2d, rng):
        rho = rng.uniform(0.5, 2.0, grid_2d.size)
        for name in ("l2", "fisher-rao", "h1", "h-1", "w2"):
            kind = MetricKind.parse(name)
            op = build_metric(kind, grid_2d, rho if kind.state_dependent else None)
            v = rng.standard_normal(grid_2d.size)
            g = rng.standard_normal(grid_2d.size)
            lhs = op.apply_L(v) @ op.apply_Lt_pinv(g)
            assert abs(lhs - v @ g) <= 1e-10 * max(abs(v @ g), 1.0)

    def test_adjoint_consistency_homogeneous_projects_mean(self, grid_2d, rng):
        for name in ("hdot1", "hdot-1"):
            op = build_metric(name, grid_2d)
            v = rng.standard_normal(grid_2d.size)
            g = rng.standard_normal(grid_2d.size) + 2.0
            lhs = op.apply_L(v) @ op.apply_Lt_pinv(g)
            rhs = v @ (g - g.mean())
            assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)

    def test_fused_gram_action_matches_two_applies(self, grid_2d, rng):
        rho = rng.uniform(0.5, 2.0, grid_2d.size)
        z = rng.standard_normal((grid_2d.size, 4))
        for name in ALL_METRICS:
            kind = MetricKind.parse(name)
            op = build_metric(kind, grid_2d, rho if kind.state_dependent else None)
            y = op.apply_L_matrix(z)
            gram_via_stack = z.T @ np.column_stack(
                [op.apply_LtL(z[:, j]) for j in range(4)]
            )
            np.testing.assert_allclose(y.T @ y, gram_via_stack, atol=1e-11)


class TestInfoMatrix:
    def test_l2_orthonormal_columns(self, rng):
        grid = Grid.index_space([4, 4])
        q, _ = np.linalg.qr(rng.standard_normal((16, 5)))
        g = build_metric("l2", grid).info_matrix(q).matrix
        np.testing.assert_allclose(g, np.eye(5), atol=1e-13)

    def test_fisher_rao_weighted_sums(self, rng):
        # Entrywise assembly: G_ij = sum_x z_i z_j / rho on a 5-point grid.
        grid = Grid.index_space([5, 1])
        rho = rng.uniform(0.5, 2.0, 5)
        z = rng.standard_normal((5, 3))
        g = build_metric("fisher-rao", grid, rho=rho).info_matrix(z).matrix
        expected = np.einsum("ki,k,kj->ij", z, 1.0 / rho, z)
        np.testing.assert_allclose(g, expected, atol=1e-13)

    def test_h1_expands_to_gram(self, grid_2d, rng):
        z = rng.standard_normal((grid_2d.size, 4))
        ops = build_operator_set(grid_2d)
        gram = (ops.grad_neumann.T @ ops.grad_neumann).toarray()
        expected = z.T @ z + z.T @ gram @ z
        g = build_metric("h1", grid_2d).info_matrix(z).matrix
        np.testing.assert_allclose(g, expected, atol=1e-11)

    def test_entrywise_identity_all_metrics(self, rng):
        # Information matrix equals the Gram matrix of transformed columns,
        # assembled entry by entry, on a 9x9 grid with 6 parameters.
        grid = Grid.regular([[0, 1], [0, 1]], [9, 9])
        rho = rng.uniform(0.5, 2.0, grid.size)
        z = rng.standard_normal((grid.size, 6))
        for name in ALL_METRICS:
            kind = MetricKind.parse(name)
            if kind.family == "wasserstein":
                with pytest.warns(UserWarning):
                    op = build_metric(kind, grid, rho)
            else:
                op = build_metric(kind, grid, rho if kind.state_dependent else None)
            g = op.info_matrix(z).matrix
            cols = [op.apply_L(z[:, j]) for j in range(6)]
            entrywise = np.array([[ci @ cj for cj in cols] for ci in cols])
            assert np.abs(g - entrywise).max() <= 1e-12 * max(np.abs(g).max(), 1.0)

    def test_symmetric_psd(self, grid_2d, rng):
        rho = rng.uniform(0.5, 2.0, grid_2d.size)
        z = rng.standard_normal((grid_2d.size, 5))
        for name in ALL_METRICS:
            kind = MetricKind.parse(name)
            op = build_metric(kind, grid_2d, rho if kind.state_dependent else None)
            g = op.info_matrix(z).matrix
            assert np.abs(g - g.T).max() <= 1e-12
            eigs = np.linalg.eigvalsh(g)
            assert eigs.min() >= -1e-10 * np.abs(eigs).max()

    def test_fisher_rao_scaling_law(self, grid_2d, rng):
        # G(c * rho) = G(rho) / c.
        rho = rng.uniform(0.5, 2.0, grid_2d.size)
        z = rng.standard_normal((grid_2d.size, 3))
        g1 = build_metric("fisher-rao", grid_2d, rho=rho).info_matrix(z).matrix
        g4 = build_metric("fisher-rao", grid_2d, rho=4.0 * rho).info_matrix(z).matrix
        np.testing.assert_allclose(g4, g1 / 4.0, atol=1e-12 * np.abs(g1).max())


class TestTransportCoincidence:
    def test_w2_equals_unweighted_divergence_direction_at_unit_density(
        self, grid_2d, rng
    ):
        # At rho = 1 the mobility-weighted and unweighted divergences are the
        # same matrix, so the descent directions coincide.
        z = rng.standard_normal((grid_2d.size, 4))
        grad = rng.standard_normal(grid_2d.size)
        ones = np.ones(grid_2d.size)
        op_w2 = build_metric("w2", grid_2d, rho=ones)
        op_unw = build_metric("w2:k=0", grid_2d, rho=ones)
        eta_w2 = direction_explicit(z, op_w2, grad)
        eta_unw = direction_explicit(z, op_unw, grad)
        rel = np.linalg.norm(eta_w2 - eta_unw) / np.linalg.norm(eta_unw)
        assert rel <= 1e-8

    def test_constant_density_scales_direction_linearly(self, grid_2d, rng):
        # For rho = c the transport metric is 1/c times the unweighted one,
        # so the direction picks up exactly a factor c (no cancellation).
        z = rng.standard_normal((grid_2d.size, 4))
        grad = rng.standard_normal(grid_2d.size)
        c = 2.7
        op_c = build_metric("w2", grid_2d, rho=np.full(grid_2d.size, c))
        op_unw = build_metric("w2:k=0", grid_2d, rho=np.ones(grid_2d.size))
        eta_c = direction_explicit(z, op_c, grad)
        eta_unw = direction_explicit(z, op_unw, grad)
        rel = np.linalg.norm(eta_c - c * eta_unw) / np.linalg.norm(eta_c)
        assert rel <= 1e-8


class TestTangentProjection:
    def test_flags(self, grid_2d):
        rho = np.ones(grid_2d.size)
        for name in ("l2", "fisher-rao", "h1", "h-1", "w2"):
            kind = MetricKind.parse(name)
            op = build_metric(kind, grid_2d, rho if kind.state_dependent else None)
            assert not op.needs_tangent_projection
        for name in ("hdot1", "hdot-1"):
            assert build_metric(name, grid_2d).needs_tangent_projection

    def test_homogeneous_projection_removes_mean(self, grid_2d, rng):
        op = build_metric("hdot1", grid_2d)
        g = rng.standard_normal(grid_2d.size) + 5.0
        proj = op.project_state_gradient(g)
        np.testing.assert_allclose(proj, g - g.mean(), atol=1e-14)


class TestNormalization:
    def test_positive_and_mean_one(self, rng):
        v = rng.standard_normal(500)
        dens = normalize_to_density(v)
        assert dens.min() > 0.0
        assert abs(dens.mean() - 1.0) <= 1e-12

    def test_flat_input_uniform(self):
        np.testing.assert_allclose(normalize_to_density(np.full(7, 3.3)), np.ones(7))


class TestBlockMetric:
    def test_blocks_apply_independently(self, rng):
        panel = Grid.index_space([4, 6])
        bm = BlockMetric("h1", panel, n_blocks=3)
        single = MetricOperator(MetricKind.parse("h1"), panel)
        v = rng.standard_normal(3 * panel.size)
        out = bm.apply_L(v)
        parts = np.split(v, 3)
        expected = np.concatenate([single.apply_L(p) for p in parts])
        np.testing.assert_allclose(out, expected, atol=1e-13)

    def test_info_matrix_sums_over_blocks(self, rng):
        panel = Grid.index_space([4, 4])
        data = rng.standard_normal(2 * panel.size)
        bm = BlockMetric("fisher-rao", panel, 2, densities=np.split(data, 2))
        z = rng.standard_normal((2 * panel.size, 3))
        g = bm.info_matrix(z).matrix
        total = np.zeros((3, 3))
        for blk, zblk, dblk in zip(bm._blocks, np.split(z, 2), np.split(data, 2)):
            total += blk.info_matrix(zblk).matrix
        np.testing.assert_allclose(g, total, atol=1e-12)

    def test_refresh_renormalizes(self, rng):
        panel = Grid.index_space([4, 4])
        data = rng.standard_normal(2 * panel.size)
        bm = BlockMetric("w2", panel, 2, densities=np.split(data, 2))
        data2 = rng.standard_normal(2 * panel.size)
        bm2 = bm.refresh(data2)
        for blk, dblk in zip(bm2._blocks, np.split(data2, 2)):
            np.testing.assert_allclose(blk.rho, normalize_to_density(dblk))

    def test_state_free_blocks_share_operator(self):
        panel = Grid.index_space([4, 4])
        bm = BlockMetric("h-1", panel, 3)
        assert bm._blocks[0] is bm._blocks[1] is bm._blocks[2]
        assert bm.refresh(np.ones(3 * panel.size)) is bm


class TestColumnBlocks:
    def test_apply_L_matrix_matches_column_loop(self, rng):
        # One application to a (k, p) block must equal applying L column by
        # column, for every family, per panel, and for the rank-deficient
        # (every count odd) transport backend.
        even = Grid.regular([[0, 1], [0, 1]], [6, 6])
        odd = Grid.regular([[0, 1], [0, 1]], [5, 5])
        panel = Grid.index_space([4, 6])
        odd_panel = Grid.index_space([3, 5])
        rho = rng.uniform(0.5, 2.0, even.size)
        data = rng.standard_normal(2 * panel.size)
        ops = {}
        for name in ALL_METRICS:
            kind = MetricKind.parse(name)
            ops[name] = build_metric(kind, even, rho if kind.state_dependent else None)
            densities = np.split(data, 2) if kind.state_dependent else None
            ops[f"block {name}"] = BlockMetric(kind, panel, 2, densities=densities)
        with pytest.warns(UserWarning):
            ops["w2 odd"] = build_metric("w2", odd, rng.uniform(0.5, 2.0, odd.size))
        with pytest.warns(UserWarning):
            ops["block w2 odd"] = BlockMetric(
                "w2", odd_panel, 2,
                densities=np.split(rng.standard_normal(2 * odd_panel.size), 2),
            )
        for label, op in ops.items():
            k = op.grid.size * getattr(op, "n_blocks", 1)
            z = rng.standard_normal((k, 5))
            block = op.apply_L_matrix(z)
            loop = np.column_stack([op.apply_L(z[:, j]) for j in range(5)])
            assert block.shape == (op.row_dim, 5), label
            err = np.abs(block - loop).max()
            assert err <= 1e-12 * np.abs(loop).max(), f"{label}: {err:.1e}"
            g = op.info_matrix(z).matrix
            np.testing.assert_array_equal(g, g.T)
