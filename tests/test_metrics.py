"""Metric operators: action tables, information-matrix identities, refresh."""

import tracemalloc
import warnings

import numpy as np
import pytest

from assembled_operators import (
    direction_explicit_whole,
    divergence_matrix,
    neumann_gradient,
    stacked_metric_root,
)
from natgrad.grids import _CHUNK, Grid, build_weighted_divergence
from natgrad.linalg import solve_least_squares_min_norm
from natgrad.metrics import MetricKind, MetricOperator
from natgrad.models import GaussianMixtureModel
from natgrad.models.wave import normalize_to_density
from natgrad.solver import direction_explicit

ALL_METRICS = ["l2", "fisher-rao", "h1", "h-1", "hdot1", "hdot-1", "w2"]
# Interior counts for the k-row root checks; "all-odd" and "1d-odd" give the
# transport metric its singular parity block.
ROOT_GRIDS = {
    "even": (6, 6), "all-odd": (7, 9), "non-square": (5, 12),
    "1d-odd": (11,), "1d-even": (10,),
}


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
        op = MetricOperator("l2", grid_2d)
        v = rng.standard_normal(grid_2d.size)
        np.testing.assert_array_equal(op.apply_L_matrix(v), v)

    def test_fisher_rao_elementwise(self):
        grid = Grid.index_space([3, 1])
        op = MetricOperator("fisher-rao", grid, rho=np.array([4.0, 1.0, 0.25]))
        np.testing.assert_allclose(op.apply_L_matrix([2.0, 3.0, 1.0]), [1.0, 3.0, 2.0])
        np.testing.assert_allclose(
            MetricOperator("fisher-rao", Grid.index_space([2, 1]),
                         rho=np.array([4.0, 1.0])).apply_Lt_pinv([1.0, 2.0]),
            [2.0, 2.0],
        )

    def test_state_dependent_requires_density(self, grid_2d):
        with pytest.raises(ValueError):
            MetricOperator("w2", grid_2d)
        with pytest.raises(ValueError):
            MetricOperator("fisher-rao", grid_2d, rho=-np.ones(grid_2d.size))

    @pytest.mark.parametrize("name", ["fisher-rao", "w2"])
    @pytest.mark.parametrize("size", [8, 32])
    def test_density_of_wrong_length_rejected(self, name, size):
        # A 4x4 grid takes 16 density entries, at construction and on refresh.
        grid = Grid.index_space([4, 4])
        with pytest.raises(ValueError, match="density shape"):
            MetricOperator(name, grid, rho=np.ones(size))
        op = MetricOperator(name, grid, rho=np.ones(16))
        with pytest.raises(ValueError, match="density shape"):
            op.refresh(np.ones(size))
        with pytest.raises(ValueError, match="density shape"):
            MetricOperator(name, grid, rho=np.ones((16, 1)))

    @pytest.mark.parametrize("name", ALL_METRICS)
    def test_one_panel_state_length_checked(self, name):
        grid = Grid.index_space([4, 4])
        rho = np.ones(16) if MetricKind.parse(name).state_dependent else None
        op = MetricOperator(name, grid, rho=rho)
        for bad in (np.ones(32), np.ones((8, 2)), np.ones((16, 2, 1))):
            for action in ("apply_L_matrix", "apply_Lt_pinv", "apply_LtL",
                           "project_state_gradient"):
                with pytest.raises(ValueError, match="state shape"):
                    getattr(op, action)(bad)

    def test_refresh_noop_for_state_free(self, grid_2d, rng):
        for name in ("l2", "h1", "h-1", "hdot1", "hdot-1"):
            op = MetricOperator(name, grid_2d)
            assert op.refresh(rng.uniform(1, 2, grid_2d.size)) is op

    def test_refresh_rebuilds_fisher_rao(self, grid_2d, rng):
        rho = rng.uniform(0.5, 2.0, grid_2d.size)
        op = MetricOperator("fisher-rao", grid_2d, rho=rho)
        rho2 = rng.uniform(0.5, 2.0, grid_2d.size)
        op2 = op.refresh(rho2)
        v = rng.standard_normal(grid_2d.size)
        np.testing.assert_allclose(op2.apply_L_matrix(v), v / np.sqrt(rho2))

    def test_refresh_rebuilds_transport_roundtrip(self, grid_2d, rng):
        rho = rng.uniform(0.5, 2.0, grid_2d.size)
        op = MetricOperator("w2", grid_2d, rho=rho)
        rho2 = rng.uniform(0.5, 2.0, grid_2d.size)
        op2 = op.refresh(rho2)
        zeta = rng.standard_normal(grid_2d.size)
        y = op2.apply_L_matrix(zeta)
        b = op2.apply_Lt_pinv(np.eye(grid_2d.size)).T  # B, from its transpose
        assert np.linalg.norm(b @ y - zeta) <= 1e-10 * np.linalg.norm(zeta)

    def test_every_root_has_k_rows(self, grid_2d, rng):
        # Every L and every pinv(L^T) maps k state rows to k rows.
        k = grid_2d.size
        rho = rng.uniform(0.5, 2.0, k)
        z = rng.standard_normal((k, 3))
        for name in ALL_METRICS:
            kind = MetricKind.parse(name)
            op = MetricOperator(kind, grid_2d, rho if kind.state_dependent else None)
            assert op.apply_L_matrix(z).shape == (k, 3), name
            assert op.apply_Lt_pinv(z[:, 0]).shape == (k,), name


class TestActionTables:
    def test_hdot1_kills_constants(self, grid_2d):
        op = MetricOperator("hdot1", grid_2d)
        np.testing.assert_allclose(
            op.apply_L_matrix(np.ones(grid_2d.size)), np.zeros(grid_2d.size), atol=0
        )

    def test_hdot_minus1_kills_constants(self, grid_2d):
        op = MetricOperator("hdot-1", grid_2d)
        np.testing.assert_allclose(
            op.apply_L_matrix(np.ones(grid_2d.size)), np.zeros(grid_2d.size), atol=0
        )

    def test_w2_pinv_roundtrip(self, grid_2d, rng):
        rho = rng.uniform(0.5, 2.0, grid_2d.size)
        op = MetricOperator("w2", grid_2d, rho=rho)
        zeta = rng.standard_normal(grid_2d.size)
        y = op.apply_L_matrix(zeta)
        b = op.apply_Lt_pinv(np.eye(grid_2d.size)).T  # B, from its transpose
        assert np.linalg.norm(b @ y - zeta) <= 1e-10 * np.linalg.norm(zeta)

    @pytest.mark.parametrize("counts", ROOT_GRIDS.values(), ids=ROOT_GRIDS.keys())
    def test_w2_lt_pinv_norm_is_weighted_gradient_norm(self, counts, rng):
        # pinv(L^T) = R (the banded Cholesky factor of B B^T), so
        # ||pinv(L^T) g|| = ||B^T g||; on an all-odd grid only after the
        # grounded node's value is removed from the singular block.
        grid = Grid.regular([[0, 1]] * len(counts), counts)
        g = rng.standard_normal((grid.size, 3)) + 2.0
        for rho in (np.ones(grid.size), rng.uniform(0.5, 2.0, grid.size)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the all-odd rank warning
                op = MetricOperator("w2", grid, rho=rho)
                bt = divergence_matrix(build_weighted_divergence(grid, rho)).T
            for v in (g[:, 0], g):
                got = np.linalg.norm(op.apply_Lt_pinv(v), axis=0)
                want = np.linalg.norm(bt @ v, axis=0)
                np.testing.assert_allclose(got, want, rtol=1e-13)

    def test_adjoint_consistency_full_row_rank(self, grid_2d, rng):
        rho = rng.uniform(0.5, 2.0, grid_2d.size)
        for name in ("l2", "fisher-rao", "h1", "h-1", "w2"):
            kind = MetricKind.parse(name)
            op = MetricOperator(kind, grid_2d, rho if kind.state_dependent else None)
            v = rng.standard_normal(grid_2d.size)
            g = rng.standard_normal(grid_2d.size)
            lhs = op.apply_L_matrix(v) @ op.apply_Lt_pinv(g)
            assert abs(lhs - v @ g) <= 1e-10 * max(abs(v @ g), 1.0)

    def test_adjoint_consistency_homogeneous_projects_mean(self, grid_2d, rng):
        for name in ("hdot1", "hdot-1"):
            op = MetricOperator(name, grid_2d)
            v = rng.standard_normal(grid_2d.size)
            g = rng.standard_normal(grid_2d.size) + 2.0
            lhs = op.apply_L_matrix(v) @ op.apply_Lt_pinv(g)
            rhs = v @ (g - g.mean())
            assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)

    def test_fused_gram_action_matches_two_applies(self, grid_2d, rng):
        rho = rng.uniform(0.5, 2.0, grid_2d.size)
        z = rng.standard_normal((grid_2d.size, 4))
        for name in ALL_METRICS:
            kind = MetricKind.parse(name)
            op = MetricOperator(kind, grid_2d, rho if kind.state_dependent else None)
            y = op.apply_L_matrix(z)
            gram_via_stack = z.T @ np.column_stack(
                [op.apply_LtL(z[:, j]) for j in range(4)]
            )
            np.testing.assert_allclose(y.T @ y, gram_via_stack, atol=1e-11)


class TestInfoMatrix:
    def test_l2_orthonormal_columns(self, rng):
        grid = Grid.index_space([4, 4])
        q, _ = np.linalg.qr(rng.standard_normal((16, 5)))
        g = MetricOperator("l2", grid).info_matrix(q).matrix
        np.testing.assert_allclose(g, np.eye(5), atol=1e-13)

    def test_fisher_rao_weighted_sums(self, rng):
        # Entrywise assembly: G_ij = sum_x z_i z_j / rho on a 5-point grid.
        grid = Grid.index_space([5, 1])
        rho = rng.uniform(0.5, 2.0, 5)
        z = rng.standard_normal((5, 3))
        g = MetricOperator("fisher-rao", grid, rho=rho).info_matrix(z).matrix
        expected = np.einsum("ki,k,kj->ij", z, 1.0 / rho, z)
        np.testing.assert_allclose(g, expected, atol=1e-13)

    def test_h1_expands_to_gram(self, grid_2d, rng):
        z = rng.standard_normal((grid_2d.size, 4))
        grad = neumann_gradient(grid_2d)
        gram = (grad.T @ grad).toarray()
        expected = z.T @ z + z.T @ gram @ z
        g = MetricOperator("h1", grid_2d).info_matrix(z).matrix
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
                    op = MetricOperator(kind, grid, rho)
            else:
                op = MetricOperator(kind, grid, rho if kind.state_dependent else None)
            g = op.info_matrix(z).matrix
            cols = [op.apply_L_matrix(z[:, j]) for j in range(6)]
            entrywise = np.array([[ci @ cj for cj in cols] for ci in cols])
            assert np.abs(g - entrywise).max() <= 1e-12 * max(np.abs(g).max(), 1.0)

    def test_symmetric_psd(self, grid_2d, rng):
        rho = rng.uniform(0.5, 2.0, grid_2d.size)
        z = rng.standard_normal((grid_2d.size, 5))
        for name in ALL_METRICS:
            kind = MetricKind.parse(name)
            op = MetricOperator(kind, grid_2d, rho if kind.state_dependent else None)
            g = op.info_matrix(z).matrix
            assert np.abs(g - g.T).max() <= 1e-12
            eigs = np.linalg.eigvalsh(g)
            assert eigs.min() >= -1e-10 * np.abs(eigs).max()

    def test_fisher_rao_scaling_law(self, grid_2d, rng):
        # G(c * rho) = G(rho) / c.
        rho = rng.uniform(0.5, 2.0, grid_2d.size)
        z = rng.standard_normal((grid_2d.size, 3))
        g1 = MetricOperator("fisher-rao", grid_2d, rho=rho).info_matrix(z).matrix
        g4 = MetricOperator("fisher-rao", grid_2d, rho=4.0 * rho).info_matrix(z).matrix
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
        op_w2 = MetricOperator("w2", grid_2d, rho=ones)
        op_unw = MetricOperator("w2:k=0", grid_2d, rho=ones)
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
        op_c = MetricOperator("w2", grid_2d, rho=np.full(grid_2d.size, c))
        op_unw = MetricOperator("w2:k=0", grid_2d, rho=np.ones(grid_2d.size))
        eta_c = direction_explicit(z, op_c, grad)
        eta_unw = direction_explicit(z, op_unw, grad)
        rel = np.linalg.norm(eta_c - c * eta_unw) / np.linalg.norm(eta_c)
        assert rel <= 1e-8


class TestKRowRoots:
    """Each k-row L gives the direction of the stacked L it replaces: the
    minimum-norm solution sees L only through L^T L and range(L^T)."""

    @pytest.mark.parametrize("damping", [None, "identity", "w2", "h1"])
    @pytest.mark.parametrize("counts", ROOT_GRIDS.values(), ids=ROOT_GRIDS.keys())
    def test_direction_equals_stacked_direction(self, counts, damping, rng):
        grid = Grid.regular([[0, 1]] * len(counts), counts)
        rho = rng.uniform(0.5, 2.0, grid.size)
        z = rng.standard_normal((grid.size, 4))
        grad = rng.standard_normal(grid.size) + 1.0
        lam = 0.0 if damping is None else 0.3
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the all-odd rank warning
            damp_op = (None if damping in (None, "identity")
                       else MetricOperator(damping, grid, rho))
            damp_rows = (np.eye(4) if damp_op is None
                         else stacked_metric_root(damping, grid, rho) @ z)
            for name in ALL_METRICS:
                op = MetricOperator(name, grid, rho if name in ("fisher-rao", "w2") else None)
                eta = direction_explicit(z, op, grad, damping_lambda=lam,
                                         damping_metric=damp_op)
                stacked = stacked_metric_root(name, grid, rho)
                rhs = np.linalg.pinv(stacked.T) @ grad
                y = stacked @ z
                if lam > 0.0:
                    y = np.vstack([y, np.sqrt(lam) * damp_rows])
                    rhs = np.concatenate([rhs, np.zeros(len(damp_rows))])
                want = -solve_least_squares_min_norm(y, rhs)
                rel = np.linalg.norm(eta - want) / np.linalg.norm(want)
                assert rel <= 1e-12, (name, rel)


class TestTangentProjection:
    def test_flags(self, grid_2d):
        rho = np.ones(grid_2d.size)
        for name in ("l2", "fisher-rao", "h1", "h-1", "w2"):
            kind = MetricKind.parse(name)
            op = MetricOperator(kind, grid_2d, rho if kind.state_dependent else None)
            assert not op.needs_tangent_projection
        for name in ("hdot1", "hdot-1"):
            assert MetricOperator(name, grid_2d).needs_tangent_projection

    def test_homogeneous_projection_removes_mean(self, grid_2d, rng):
        op = MetricOperator("hdot1", grid_2d)
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

    def test_documented_shift_and_scale(self):
        # (v - min + 0.1 (max - min)) * n / sum: on [-1, 0, 3] the shift is
        # 1 + 0.4, so the density is [0.4, 1.4, 4.4] * 3 / 6.2.
        dens = normalize_to_density(np.array([-1.0, 0.0, 3.0]))
        np.testing.assert_allclose(dens, np.array([0.4, 1.4, 4.4]) * 3.0 / 6.2, rtol=1e-14)
        assert dens.min() / dens.max() == pytest.approx(0.1 / 1.1, rel=1e-14)


class TestPanels:
    PANEL = Grid.index_space([4, 6])
    ODD_PANEL = Grid.index_space([3, 5])  # the transport metric projects here

    @staticmethod
    def _pair(kind, grid, n, rng):
        """An n-panel operator and the n single-panel operators it stacks."""
        if not kind.state_dependent:
            return MetricOperator(kind, grid, panels=n), [MetricOperator(kind, grid)] * n
        rho = rng.uniform(0.5, 2.0, n * grid.size)
        singles = [MetricOperator(kind, grid, r) for r in np.split(rho, n)]
        return MetricOperator(kind, grid, rho, panels=n), singles

    def test_every_family_equals_stacked_single_panels(self, rng):
        cases = [(name, self.PANEL) for name in ALL_METRICS] + [("w2", self.ODD_PANEL)]
        for name, grid in cases:
            kind = MetricKind.parse(name)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the odd panel's rank warning
                op, singles = self._pair(kind, grid, 3, rng)
            assert op.needs_tangent_projection == singles[0].needs_tangent_projection
            v = rng.standard_normal(3 * grid.size)
            z = rng.standard_normal((3 * grid.size, 4))
            for action, arg in (("apply_L_matrix", v), ("apply_Lt_pinv", v), ("apply_LtL", v),
                                ("project_state_gradient", v), ("apply_L_matrix", z)):
                got = getattr(op, action)(arg)
                want = np.concatenate([
                    getattr(s, action)(part) for s, part in zip(singles, np.split(arg, 3))
                ])
                assert got.shape == want.shape, (name, action)
                err = np.abs(got - want).max()
                assert err <= 1e-13 * max(np.abs(want).max(), 1.0), (name, action, err)

    def test_info_matrix_sums_over_panels(self, rng):
        op, singles = self._pair(MetricKind.parse("fisher-rao"), self.PANEL, 2, rng)
        z = rng.standard_normal((2 * self.PANEL.size, 3))
        total = sum(s.info_matrix(part).matrix for s, part in zip(singles, np.split(z, 2)))
        np.testing.assert_allclose(op.info_matrix(z).matrix, total, atol=1e-12)

    def test_state_free_panels_share_actions(self, rng):
        op = MetricOperator(MetricKind.parse("h-1"), self.PANEL, panels=3)
        assert op._actions[0] is op._actions[1] is op._actions[2]
        assert op.refresh(np.ones(3 * self.PANEL.size)) is op
        weighted, _ = self._pair(MetricKind.parse("w2"), self.PANEL, 3, rng)
        assert len({id(a) for a in weighted._actions}) == 3

    def test_refresh_keeps_panels(self, rng):
        # Every action of a refreshed four-panel operator equals, to the bit,
        # that of an operator built afresh at the new density.
        cases = [("fisher-rao", self.PANEL), ("w2", self.PANEL), ("w2", self.ODD_PANEL)]
        for name, grid in cases:
            kind = MetricKind.parse(name)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the odd panel's rank warning
                op, _ = self._pair(kind, grid, 4, rng)
                rho = rng.uniform(0.5, 2.0, 4 * grid.size)
                fresh = op.refresh(rho)
                built = MetricOperator(kind, grid, rho, panels=4)
            assert fresh.panels == 4
            assert fresh.needs_tangent_projection == built.needs_tangent_projection
            np.testing.assert_array_equal(fresh.rho, rho)
            v = rng.standard_normal(4 * grid.size)
            z = rng.standard_normal((4 * grid.size, 3))
            for action in ("apply_L_matrix", "apply_Lt_pinv", "apply_LtL",
                           "project_state_gradient"):
                for arg in (v, z):
                    np.testing.assert_array_equal(
                        getattr(fresh, action)(arg), getattr(built, action)(arg),
                        err_msg=f"{name} {grid.interior_counts} {action}")
            np.testing.assert_array_equal(fresh.info_matrix(z).matrix,
                                          built.info_matrix(z).matrix)

    @pytest.mark.parametrize("name", ["fisher-rao", "w2"])
    def test_spent_operator_refuses_every_action(self, name, rng):
        op, _ = self._pair(MetricKind.parse(name), self.PANEL, 2, rng)
        rho = rng.uniform(0.5, 2.0, 2 * self.PANEL.size)
        fresh = op.refresh(rho)
        v = rng.standard_normal(2 * self.PANEL.size)
        for action, arg in (("apply_L_matrix", v), ("apply_Lt_pinv", v), ("apply_LtL", v),
                            ("project_state_gradient", v), ("info_matrix", v[:, None]),
                            ("refresh", rho)):
            with pytest.raises(RuntimeError, match="spent by refresh"):
                getattr(op, action)(arg)
        assert op.rho is None
        fresh.apply_L_matrix(v)  # the refreshed operator is the usable one

    def test_rejected_density_leaves_operator_usable(self, rng):
        op, _ = self._pair(MetricKind.parse("w2"), self.PANEL, 2, rng)
        v = rng.standard_normal(2 * self.PANEL.size)
        before = op.apply_L_matrix(v)
        for bad in (np.ones(self.PANEL.size), -np.ones(2 * self.PANEL.size)):
            with pytest.raises(ValueError):
                op.refresh(bad)
        np.testing.assert_array_equal(op.apply_L_matrix(v), before)

    def test_refresh_holds_one_panel_beyond_one_metric(self, rng):
        # The FWI metric: four trace panels of w2. Refreshing it while the
        # caller still holds the old operator frees each old panel once its
        # replacement is built, so the traced growth stays within what one
        # panel's build allocates (its factor and arrays, plus the
        # factorization's transients), not a whole second metric.
        panel = Grid.index_space([12, 160])
        rho = rng.uniform(0.5, 2.0, (2, 4 * panel.size))
        build_weighted_divergence(panel, rho[0, :panel.size])  # warm the layout cache
        tracemalloc.start()
        try:
            build_weighted_divergence(panel, rho[1, :panel.size])
            one_panel = tracemalloc.get_traced_memory()[1]
            op = MetricOperator("w2", panel, rho[0], panels=4)
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fresh = op.refresh(rho[1])
            growth = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # 16 KiB for the operator, its panel list and each panel's actions
        # (about 1 KiB here); a whole second metric would add three panels.
        assert growth <= one_panel + 16384, (growth, one_panel)
        assert fresh.panels == 4 and op.rho is None

    def test_wrong_leading_dimension_raises(self, rng):
        k = self.PANEL.size
        for name in ("h1", "fisher-rao"):
            op, _ = self._pair(MetricKind.parse(name), self.PANEL, 2, rng)
            for bad in (np.ones(k), np.ones((2 * k + 1, 3)), np.ones((2 * k, 3, 1))):
                with pytest.raises(ValueError):
                    op.apply_L_matrix(bad)
        with pytest.raises(ValueError):  # a density that is not two panels long
            MetricOperator(MetricKind.parse("fisher-rao"), self.PANEL, np.ones(2 * k + 1), 2)


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

        def densities(values):
            return np.concatenate([normalize_to_density(d) for d in np.split(values, 2)])

        ops = {}
        for name in ALL_METRICS:
            kind = MetricKind.parse(name)
            ops[name] = MetricOperator(kind, even, rho if kind.state_dependent else None)
            ops[f"block {name}"] = MetricOperator(kind, panel, densities(data), panels=2)
        with pytest.warns(UserWarning):
            ops["w2 odd"] = MetricOperator("w2", odd, rng.uniform(0.5, 2.0, odd.size))
        with pytest.warns(UserWarning):
            ops["block w2 odd"] = MetricOperator(
                MetricKind.parse("w2"), odd_panel,
                densities(rng.standard_normal(2 * odd_panel.size)), panels=2,
            )
        for label, op in ops.items():
            k = op.grid.size * op.panels
            z = rng.standard_normal((k, 5))
            block = op.apply_L_matrix(z)
            loop = np.column_stack([op.apply_L_matrix(z[:, j]) for j in range(5)])
            assert block.shape == (k, 5), label
            err = np.abs(block - loop).max()
            assert err <= 1e-12 * np.abs(loop).max(), f"{label}: {err:.1e}"
            g = op.info_matrix(z).matrix
            np.testing.assert_array_equal(g, g.T)


class TestBlockFilledStack:
    """``direction_explicit`` writes L Z into its one least-squares matrix
    one block of ``_CHUNK`` columns at a time; the direction must equal the
    whole-Z stack's bit for bit."""

    # (panel grid, panels, columns): the wave check's receiver x time panels
    # (9 blocks, the last of 6 columns), and an all-odd domain whose
    # transport metric is rank-deficient (3 blocks, the last of 7).
    DOMAINS = {"wave-panels": ((12, 160), 2, 150), "all-odd": ((9, 7), 3, 39)}

    @staticmethod
    def _operator(name, grid, panels, rho):
        kind = MetricKind.parse(name)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the all-odd transport
            return MetricOperator(kind, grid, rho if kind.state_dependent else None, panels)

    @pytest.mark.parametrize("damping", [None, "identity", "metric"])
    @pytest.mark.parametrize("domain", list(DOMAINS))
    @pytest.mark.parametrize("name", ALL_METRICS)
    def test_blocks_equal_whole_stack_bit_for_bit(self, name, domain, damping, rng):
        counts, panels, p = self.DOMAINS[domain]
        grid = Grid.index_space(list(counts))
        k = grid.size * panels
        assert p > 2 * _CHUNK and p % _CHUNK
        rho = np.concatenate([normalize_to_density(d)
                              for d in np.split(rng.standard_normal(k), panels)])
        metric = self._operator(name, grid, panels, rho)
        # The damping metric is another family's, so two L act on one Z.
        other = ALL_METRICS[(ALL_METRICS.index(name) + 1) % len(ALL_METRICS)]
        damping_metric = self._operator(other, grid, panels, rho) if damping == "metric" else None
        lam = 0.0 if damping is None else 1e-3
        z = rng.standard_normal((k, p))
        grad_rho = rng.standard_normal(k)
        got = direction_explicit(z, metric, grad_rho, damping_lambda=lam,
                                 damping_metric=damping_metric)
        want = direction_explicit_whole(z, metric, grad_rho, damping_lambda=lam,
                                        damping_metric=damping_metric)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("damped", [False, True])
    def test_no_action_sees_more_than_one_block(self, damped, rng, monkeypatch):
        # The whole-Z stack hands apply_L_matrix all 144 columns of the wave
        # check's Jacobian at once, and holds that full-size L Z beside the
        # least-squares matrix.
        widths = []
        apply = MetricOperator.apply_L_matrix

        def spy(self, z):
            widths.append(z.shape[1])
            return apply(self, z)

        monkeypatch.setattr(MetricOperator, "apply_L_matrix", spy)
        grid = Grid.index_space([12, 160])
        z = rng.standard_normal((2 * grid.size, 144))
        rho = np.full(2 * grid.size, 1.0)
        metric = MetricOperator("w2", grid, rho, 2)
        damping_metric = MetricOperator("hdot1", grid, None, 2) if damped else None
        direction_explicit(z, metric, rng.standard_normal(len(z)),
                           damping_lambda=1e-3 if damped else 0.0,
                           damping_metric=damping_metric)
        assert max(widths) == _CHUNK
        assert sum(widths) == z.shape[1] * (2 if damped else 1)


class TestContinuumOracle:
    """A one-Gaussian location family (sigma = 0.5 on [-3, 3]^2, both mean
    coordinates free) against the continuum information matrices, scaled by
    the cell area h^2: w2 gives the identity, since the transport potential
    of a location family is the coordinate itself (W. Li & G. Montufar,
    "Natural gradient via optimal transport", Information Geometry 1, 2018);
    l2 gives 1/(8 pi sigma^4) and Fisher-Rao 1/sigma^2 on the diagonal.
    Unlike the action tests, which compare the code with its own assembled
    matrices, a consistent scale error fails here. The interior grids 47^2
    and 95^2 (h = 1/8 and 1/16) are all-odd, so the transport metric runs on
    its grounded singular block."""

    SIGMA = 0.5

    def _relative_error(self, name, n, value):
        s2 = self.SIGMA**2
        comps = [dict(weight=1.0, mean=(0.0, 0.0), cov=((s2, 0.0), (0.0, s2)))]
        grid = Grid.regular([[-3.0, 3.0], [-3.0, 3.0]], [n, n])
        model = GaussianMixtureModel.from_reference_mixture(
            grid, comps, ["c0.mean.0", "c0.mean.1"], comps
        )
        theta = np.zeros(2)
        metric = MetricOperator(name, grid, model.solve_forward(theta))
        info = metric.info_matrix(model.jacobian(theta)).matrix
        h2 = grid.spacings[0] * grid.spacings[1]
        return np.abs(info * h2 / value - np.eye(2)).max()

    def test_w2_converges_at_fourth_order(self):
        with pytest.warns(UserWarning, match="every interior count is odd"):
            coarse = self._relative_error("w2", 47, 1.0)
        with pytest.warns(UserWarning, match="every interior count is odd"):
            fine = self._relative_error("w2", 95, 1.0)
        # Halving h must cut the error by 2^4 (nominal order 4), with half an
        # order of slack; a scale error in B stays put and fails this. The
        # coarse error must also lie below h^2, what any consistent central
        # difference scheme gives.
        assert np.log2(coarse / fine) >= 3.5
        assert coarse <= 0.125**2

    @pytest.mark.parametrize("name, value", [
        ("l2", 1.0 / (8.0 * np.pi * SIGMA**4)), ("fisher-rao", 1.0 / SIGMA**2),
    ])
    def test_density_metrics_are_exact_up_to_the_tail(self, name, value):
        # The grid sum (the trapezoid rule) of a smooth integrand that decays
        # like the Gaussian is exact up to what lies beyond the box,
        # e^(-(3/sigma)^2 / 2) = 1.5e-8 times a polynomial factor, on both
        # grids.
        for n in (47, 95):
            assert self._relative_error(name, n, value) <= 1e-6

    @pytest.mark.parametrize("name, value", [
        ("hdot1", 1.0 / (4.0 * np.pi * SIGMA**6)),
        ("h1", 1.0 / (8.0 * np.pi * SIGMA**4) + 1.0 / (4.0 * np.pi * SIGMA**6)),
    ])
    def test_sobolev_metrics_converge_at_second_order(self, name, value):
        # hdot1 is the integral of |grad d_i rho|^2 and h1 adds l2's value.
        # Their gradients are central differences, so halving h must cut the
        # error by 2^2 (nominal order 2), with half an order of slack, and the
        # coarse error must lie below h^2.
        coarse = self._relative_error(name, 47, value)
        fine = self._relative_error(name, 95, value)
        assert np.log2(coarse / fine) >= 1.5
        assert coarse <= 0.125**2

    @staticmethod
    def _neumann_box_value(name, h):
        """The continuum h-1 or hdot-1 value, <d_x rho, (I - Delta)^-1 d_x rho>
        or <d_x rho, (-Delta)^-1 d_x rho>, with Neumann Delta on the box
        [-3 + h/2, 3 - h/2]^2, where the cell-centred operator lives: a cosine
        series over that box's eigenfunctions. rho = g(x) g(y) is separable, so
        each coefficient of d_x rho = g'(x) g(y) is a product of two 1D
        integrals, taken by Gauss-Legendre quadrature. The off-diagonal value
        is zero by symmetry and the y entry equals the x entry."""
        s2 = TestContinuumOracle.SIGMA**2
        lo, length = -3.0 + h / 2, 6.0 - h
        nodes, weights = np.polynomial.legendre.leggauss(400)
        x, weights = lo + (nodes + 1.0) * length / 2, weights * length / 2
        g = np.exp(-x**2 / (2.0 * s2)) / np.sqrt(2.0 * np.pi * s2)
        m = np.arange(64)  # the coefficients fall like exp(-(m pi sigma / L)^2 / 2)
        norm = np.where(m == 0, np.sqrt(1.0 / length), np.sqrt(2.0 / length))
        modes = norm[:, None] * np.cos(np.pi * np.outer(m, x - lo) / length)
        dg_coef, g_coef = modes @ (weights * (-x / s2) * g), modes @ (weights * g)
        lam = np.add.outer((np.pi * m / length) ** 2, (np.pi * m / length) ** 2)
        if name == "h-1":
            scale = 1.0 / (1.0 + lam)
        else:  # the constant mode is dropped; d_x rho has no part in it
            scale = 1.0 / np.where(lam == 0.0, np.inf, lam)
        return float(np.sum(np.outer(dg_coef**2, g_coef**2) * scale))

    @pytest.mark.parametrize("name", ["h-1", "hdot-1"])
    def test_dual_sobolev_metrics_converge_at_second_order_on_the_cell_box(self, name):
        # The dual metrics invert the Neumann Laplacian of the cell centres,
        # whose boundary sits half a cell inside the configured domain, so
        # the continuum value is the one on [a + h/2, b - h/2]. Against it
        # the error falls at second order (half an order of slack, as for
        # h1 and hdot1), and the coarse error lies below h^2. Against the
        # fixed box [a, b] hdot-1 converges at only first order.
        errors = [self._relative_error(name, n, self._neumann_box_value(name, 6.0 / (n + 1)))
                  for n in (47, 95)]
        assert np.log2(errors[0] / errors[1]) >= 1.5
        assert errors[0] <= 0.125**2
