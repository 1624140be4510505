"""Direction solvers, line search, descent loop, and randomized helpers."""

import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from natgrad.grids import Grid
from natgrad.metrics import MetricKind, MetricOperator
from natgrad.models import GaussianMixtureModel, LinearToyModel
from natgrad.solver import (
    NgdConfig,
    assemble_jacobian,
    build_metric_for_model,
    direction_explicit,
    direction_implicit,
    gl_action,
    gradient_adjoint,
    hutchinson_jacobian,
    line_search,
    optimize,
    projected_gradient_adjoint,
    sample_sketch,
)

ALL_METRICS = ["l2", "fisher-rao", "h1", "h-1", "hdot1", "hdot-1", "w2"]
APPROXIMATIONS = {
    "plain": {},
    "minibatch": {"minibatch_size": 30},
    "hutchinson": {"hutchinson_m": 400},
}
# Sketching needs the explicit route and a diagonal metric.
ROUTE_METRICS = ["gd", "l2", "fisher-rao", "h1"]
REJECTED_ROUTES = {(m, "implicit", "minibatch") for m in ROUTE_METRICS}
REJECTED_ROUTES.add(("h1", "explicit", "minibatch"))


class TestDirectionExplicit:
    def test_identity_reduces_to_steepest_descent(self):
        eta = direction_explicit(np.eye(2), None, np.array([3.0, -1.0]))
        np.testing.assert_allclose(eta, [-3.0, 1.0], atol=1e-14)

    def test_hand_normal_equations(self):
        z = np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        eta = direction_explicit(z, None, np.array([2.0, 1.0, 5.0]))
        # G = diag(4, 1), rhs = -(4, 1) after the normal equations.
        np.testing.assert_allclose(eta, [-1.0, -1.0], atol=1e-14)

    def test_rank_deficient_min_norm(self):
        z = np.array([[1.0, 1.0], [1.0, 1.0]])
        eta = direction_explicit(z, None, np.array([1.0, 1.0]))
        # SVD-pseudoinverse oracle.
        expected = -np.linalg.pinv(z) @ np.array([1.0, 1.0])
        np.testing.assert_allclose(eta, expected, atol=1e-12)
        np.testing.assert_allclose(eta, [-0.5, -0.5], atol=1e-12)

    def test_damping_limit_recovers_scaled_gradient(self, rng):
        z = rng.standard_normal((30, 6))
        grad_rho = rng.standard_normal(30)
        grad_theta = z.T @ grad_rho
        scale = np.linalg.norm(z.T @ z)
        eta = direction_explicit(z, None, grad_rho, damping_lambda=1e8 * scale)
        cosine = -(eta @ grad_theta) / (
            np.linalg.norm(eta) * np.linalg.norm(grad_theta)
        )
        assert cosine > 1 - 1e-6

    def test_damped_matches_dense_solve(self, rng):
        z = rng.standard_normal((40, 5))
        grad_rho = rng.standard_normal(40)
        lam = 0.37
        eta = direction_explicit(z, None, grad_rho, damping_lambda=lam)
        dense = -np.linalg.solve(z.T @ z + lam * np.eye(5), z.T @ grad_rho)
        np.testing.assert_allclose(eta, dense, atol=1e-10)

    def test_one_full_size_matrix(self, rng):
        # The damped stack [Z; sqrt(lambda) I] of a wave12-sized Jacobian is
        # 4.6 MB. The QR factors it in place, so the solve's peak stays below
        # two such matrices; a copy for the QR alone would make it two.
        z = rng.standard_normal((3840, 144))
        grad_rho = rng.standard_normal(3840)
        stack = (3840 + 144) * 144 * 8
        tracemalloc.start()
        try:
            direction_explicit(z, None, grad_rho, damping_lambda=1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stack <= peak < 2 * stack

    def test_normal_equation_orthogonality_all_metrics(self, rng):
        grid = Grid.regular([[0, 1], [0, 1]], [8, 8])
        rho = rng.uniform(0.5, 2.0, grid.size)
        z = rng.standard_normal((grid.size, 5))
        grad_rho = rng.standard_normal(grid.size)
        for name in ALL_METRICS:
            kind = MetricKind.parse(name)
            metric = MetricOperator(kind, grid, rho if kind.state_dependent else None)
            eta = direction_explicit(z, metric, grad_rho)
            y = metric.apply_L_matrix(z)
            residual = y.T @ (metric.apply_Lt_pinv(grad_rho) + y @ eta)
            assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(grad_rho)


class TestGlAction:
    def test_toy_dense_oracle(self, toy_model, rng):
        model, _ = toy_model
        model.solve_forward(np.full(model.param_dim, 0.7))
        rho = model.solve_forward(np.full(model.param_dim, 0.7))
        metric = build_metric_for_model(model, MetricKind.parse("h1"))
        eta = rng.standard_normal(model.param_dim)
        ltl = np.column_stack(
            [metric.apply_LtL(model.a[:, j]) for j in range(model.param_dim)]
        )
        expected = model.a.T @ ltl @ eta
        np.testing.assert_allclose(gl_action(model, metric, eta), expected, atol=1e-10)

    def test_identity_model_identity_metric(self, rng):
        model = LinearToyModel(np.eye(6), np.zeros(6))
        model.solve_forward(np.ones(6))
        eta = rng.standard_normal(6)
        np.testing.assert_allclose(gl_action(model, None, eta), eta, atol=1e-14)

    def test_symmetry_on_toy(self, toy_model, rng):
        model, _ = toy_model
        rho = model.solve_forward(np.full(model.param_dim, 0.7))
        metric = build_metric_for_model(model, MetricKind.parse("w2"), model.metric_state(rho))
        e1 = rng.standard_normal(model.param_dim)
        e2 = rng.standard_normal(model.param_dim)
        lhs = gl_action(model, metric, e1) @ e2
        rhs = e1 @ gl_action(model, metric, e2)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


class TestDirectionImplicit:
    def test_hand_diagonal_case(self):
        model = LinearToyModel(np.diag([2.0, 1.0]), np.zeros(2))
        model.solve_forward(np.ones(2))
        cfg = NgdConfig(metric="l2", cg_tol=1e-12)
        eta, report = direction_implicit(model, None, np.array([2.0, 1.0]), cfg)
        np.testing.assert_allclose(eta, [-0.5, -1.0], atol=1e-10)
        assert report.converged

    def test_large_damping_tends_to_gradient_descent(self, toy_model):
        model, _ = toy_model
        rho = model.solve_forward(np.full(model.param_dim, 0.7))
        _, grad_rho = model.loss_and_grad_rho(rho)
        grad_theta = model.a.T @ grad_rho
        scale = np.linalg.norm(model.a.T @ model.a)
        cfg = NgdConfig(metric="l2", damping_lambda=1e8 * scale, cg_tol=1e-12)
        eta, _ = direction_implicit(model, None, grad_theta, cfg)
        cosine = -(eta @ grad_theta) / (np.linalg.norm(eta) * np.linalg.norm(grad_theta))
        assert cosine > 1 - 1e-6

    def test_path_equivalence_all_metrics_on_toy(self, toy_model):
        model, _ = toy_model
        theta = np.full(model.param_dim, 0.8)
        rho = model.solve_forward(theta)
        _, grad_rho = model.loss_and_grad_rho(rho)
        z = assemble_jacobian(model, theta)
        for name in ALL_METRICS:
            metric = build_metric_for_model(model, name, model.metric_state(rho))
            eta_explicit = direction_explicit(z, metric, grad_rho)
            rhs = projected_gradient_adjoint(model, metric, grad_rho)
            cfg = NgdConfig(metric=name, cg_tol=1e-13, cg_max_iter=300)
            eta_implicit, _ = direction_implicit(model, metric, rhs, cfg)
            rel = np.linalg.norm(eta_explicit - eta_implicit) / np.linalg.norm(eta_explicit)
            assert rel < 1e-6, f"{name}: {rel:.2e}"

    def test_nonconvergence_reported_not_raised(self, toy_model):
        model, _ = toy_model
        model.solve_forward(np.full(model.param_dim, 0.7))
        cfg = NgdConfig(metric="l2", cg_tol=1e-14, cg_max_iter=1)
        eta, report = direction_implicit(
            model, None, np.ones(model.param_dim), cfg
        )
        assert not report.converged
        assert np.all(np.isfinite(eta))


class TestLineSearch:
    def quadratic(self, theta):
        return 0.5 * float(theta @ theta)

    def test_exact_step_on_quadratic(self):
        cfg = NgdConfig(step0=1.0)
        res = line_search(self.quadratic, np.array([1.0]), np.array([-1.0]), 0.5, cfg)
        assert res.tau == 1.0 and res.n_evals == 1 and not res.stagnated

    def test_ascent_direction_stagnates(self):
        cfg = NgdConfig(step0=1.0)
        res = line_search(self.quadratic, np.array([1.0]), np.array([1.0]), 0.5, cfg)
        assert res.stagnated and res.tau == 0.0
        assert res.n_evals == cfg.ls_max_halvings

    def test_constant_function_stagnates(self):
        cfg = NgdConfig(step0=1.0)
        res = line_search(lambda t: 1.0, np.array([0.0]), np.array([-1.0]), 1.0, cfg)
        assert res.stagnated

    def test_halving_sequence(self):
        # First decrease only at tau = 0.25 for this start.
        cfg = NgdConfig(step0=4.0)
        calls = []

        def f(theta):
            calls.append(theta[0])
            return self.quadratic(theta)

        res = line_search(f, np.array([1.0]), np.array([-1.0]), 0.5, cfg)
        assert res.tau == 1.0  # 4, 2, then 1 hits the minimum
        assert len(calls) == 3


class TestSketch:
    def test_full_size_is_permutation(self, rng):
        idx = sample_sketch(8, 8, rng)
        assert sorted(idx) == list(range(8))

    def test_structure_identity(self, rng):
        idx = sample_sketch(5, 20, rng)
        mat = np.zeros((5, 20))
        mat[np.arange(5), idx] = 1.0
        np.testing.assert_array_equal(mat @ mat.T, np.eye(5))

    def test_reproducible_with_seed(self):
        idx1 = sample_sketch(6, 30, np.random.default_rng(99))
        idx2 = sample_sketch(6, 30, np.random.default_rng(99))
        np.testing.assert_array_equal(idx1, idx2)

    def test_oversized_rejected(self, rng):
        with pytest.raises(ValueError):
            sample_sketch(10, 5, rng)


class TestHutchinson:
    def test_scalar_state_exact(self):
        model = LinearToyModel(np.array([[2.0, 3.0]]), np.zeros(1))
        model.solve_forward(np.ones(2))
        # k = 1: each probe is +-1 and xi xi^T = 1 exactly.
        est = hutchinson_jacobian(model, 3, np.random.default_rng(0))
        np.testing.assert_allclose(est, model.a, atol=1e-14)

    def test_enumeration_recovers_jacobian_exactly(self):
        # Average over all 2^k sign vectors: E[xi xi^T] = I exactly.
        model, _ = LinearToyModel.random_positive(8, 3, seed=1)
        model.solve_forward(np.ones(3))
        k = model.state_dim
        acc = np.zeros((k, 3))
        for signs in itertools.product([-1.0, 1.0], repeat=k):
            xi = np.array(signs)
            acc += np.outer(xi, gradient_adjoint(model, xi))
        acc /= 2.0**k
        assert np.abs(acc - model.a).max() <= 1e-12

    def test_monte_carlo_tolerance(self):
        model, _ = LinearToyModel.random_positive(20, 5, seed=2)
        model.solve_forward(np.ones(5))
        est = hutchinson_jacobian(model, 20000, np.random.default_rng(0))
        rel = np.linalg.norm(est - model.a) / np.linalg.norm(model.a)
        assert rel < 0.1


class TestOptimize:
    def test_identity_model_one_exact_step(self):
        model = LinearToyModel(np.eye(4), np.arange(4.0))
        res = optimize(model, np.zeros(4), NgdConfig(metric="l2", step0=1.0, max_iters=5))
        assert res.records[1].loss <= 1e-24
        assert res.records[1].step == 1.0

    def test_losses_strictly_decreasing_until_stop(self, toy_model):
        model, _ = toy_model
        res = optimize(
            model, np.full(model.param_dim, 0.7),
            NgdConfig(metric="h1", step0=1.0, max_iters=10),
        )
        losses = [r.loss for r in res.records]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_gauss_newton_equivalence_on_mixture(self):
        grid = Grid.regular([[-2.75, 7.25], [-2.75, 7.25]], [24, 24])
        cov = ((0.6, 0.0), (0.0, 0.6))
        reference = [
            dict(weight=0.3, mean=(1.0, 3.0), cov=cov),
            dict(weight=0.7, mean=(3.0, 2.0), cov=cov),
        ]
        components = [
            dict(weight=0.2, mean=(0.0, 0.0), cov=cov),
            dict(weight=0.8, mean=(4.0, 3.0), cov=cov),
        ]
        model = GaussianMixtureModel.from_reference_mixture(
            grid, components, ["c0.mean.0", "c0.mean.1", "c0.weight"], reference
        )
        theta = np.array([5.0, 3.0, 0.25])
        rho = model.density(theta)
        _, grad_rho = model.loss_and_grad_rho(rho)
        z = model.jacobian(theta)
        eta = direction_explicit(z, None, grad_rho)
        # Independent Gauss-Newton step: SVD least squares on the residual.
        gn = -np.linalg.lstsq(z, rho - model.reference, rcond=None)[0]
        assert np.linalg.norm(eta - gn) <= 1e-10 * np.linalg.norm(gn)

    def test_reparameterization_invariance(self, rng):
        z = rng.standard_normal((60, 6))
        grad_rho = rng.standard_normal(60)
        grid = Grid.regular([[0, 1], [0, 1]], [6, 10])
        metric = MetricOperator("h-1", grid)
        m = rng.standard_normal((6, 6)) + 4.0 * np.eye(6)
        eta_orig = direction_explicit(z, metric, grad_rho)
        eta_re = direction_explicit(z @ m, metric, grad_rho)
        rel = np.linalg.norm(z @ eta_orig - z @ (m @ eta_re)) / np.linalg.norm(z @ eta_orig)
        assert rel < 1e-8

    def test_minibatch_runs_and_decreases(self, toy_model):
        model, _ = toy_model
        cfg = NgdConfig(metric="l2", step0=0.5, max_iters=8, minibatch_size=30, seed=3)
        res = optimize(model, np.full(model.param_dim, 0.7), cfg)
        assert res.records[-1].loss < res.records[0].loss

    def test_fisher_rao_minibatch_matches_hand_built_reference(self, toy_model):
        model, _ = toy_model
        theta = np.full(model.param_dim, 0.7)
        cfg = NgdConfig(metric="fisher-rao", step0=1.0, fixed_step=True,
                        max_iters=1, minibatch_size=20, seed=5)
        res = optimize(model, theta, cfg)
        # The loop draws its sketch from this stream.
        idx = sample_sketch(20, model.state_dim, np.random.default_rng([cfg.seed, 101]))
        rho = model.solve_forward(theta)
        _, grad_rho = model.loss_and_grad_rho(rho)
        root = np.sqrt(rho[idx])
        z_s = model.a[idx] / root[:, None]
        expected = -np.linalg.lstsq(z_s, root * grad_rho[idx], rcond=None)[0]
        np.testing.assert_allclose(res.theta - theta, expected, rtol=1e-10, atol=1e-12)

    def test_damping_metric_same_direction_on_both_routes(self, toy_model):
        # The damping regularizer is built once and refreshed with the main
        # metric; both routes must take the same steps with it.
        model, _ = toy_model
        theta0 = np.full(model.param_dim, 0.7)
        for damping in ("h1", "fisher-rao"):
            thetas = {}
            for path in ("explicit", "implicit"):
                cfg = NgdConfig(
                    metric="l2", damping_lambda=0.5, damping_metric=damping,
                    step0=0.5, fixed_step=True, max_iters=3,
                    cg_tol=1e-13, cg_max_iter=300, path=path,
                )
                thetas[path] = optimize(model, theta0, cfg).theta
            diff = thetas["implicit"] - thetas["explicit"]
            rel = np.linalg.norm(diff) / np.linalg.norm(thetas["explicit"] - theta0)
            assert rel < 1e-8, f"{damping}: {rel:.1e}"

    def test_cg_outcome_recorded(self, toy_model):
        model, _ = toy_model
        theta0 = np.full(model.param_dim, 0.7)
        cfg = NgdConfig(metric="l2", step0=0.5, fixed_step=True, max_iters=3,
                        cg_tol=1e-12, cg_max_iter=1, path="implicit")
        res = optimize(model, theta0, cfg)
        assert [(r.cg_iterations, r.cg_converged) for r in res.records[1:]] == [(1, False)] * 3
        assert all(r.cg_model_decrease < 0.0 for r in res.records[1:])
        assert res.cg_unconverged == 3
        # Routes without a CG solve leave the fields unset.
        for route in (dict(path="explicit"), dict(metric="gd", path="implicit")):
            res = optimize(model, theta0, replace(cfg, **route))
            assert {(r.cg_iterations, r.cg_converged) for r in res.records} == {(None, None)}
            assert {r.cg_model_decrease for r in res.records} == {None}
            assert res.cg_unconverged == 0

    @pytest.mark.parametrize(
        "metric,path,approximation",
        itertools.product(ROUTE_METRICS, ["explicit", "implicit"], APPROXIMATIONS),
    )
    def test_route_matrix(self, toy_model, metric, path, approximation):
        model, _ = toy_model
        cfg = NgdConfig(metric=metric, path=path, step0=1.0, max_iters=4, seed=3,
                        cg_tol=1e-10, **APPROXIMATIONS[approximation])
        theta0 = np.full(model.param_dim, 0.7)
        if (metric, path, approximation) in REJECTED_ROUTES:
            with pytest.raises(ValueError):
                optimize(model, theta0, cfg)
            assert model.propagation_counter == 0
            return
        res = optimize(model, theta0, cfg)
        assert len(res.records) > 1 and res.records[-1].loss < res.records[0].loss
        ran_cg = metric != "gd" and path == "implicit" and approximation == "plain"
        for record in res.records[1:]:
            assert (record.cg_iterations is not None) == ran_cg
            assert (record.cg_converged is not None) == ran_cg

    def test_hutchinson_damping_metric_same_steps_on_both_routes(self, toy_model):
        # Both routes feed the same estimate to the same QR solve, damping
        # metric included.
        model, _ = toy_model
        theta0 = np.full(model.param_dim, 0.7)
        thetas = {}
        for path in ("explicit", "implicit"):
            cfg = NgdConfig(
                metric="l2", hutchinson_m=200, damping_lambda=0.5, damping_metric="h1",
                step0=0.5, fixed_step=True, max_iters=3, seed=2, path=path,
            )
            thetas[path] = optimize(model, theta0, cfg).theta
        diff = thetas["implicit"] - thetas["explicit"]
        rel = np.linalg.norm(diff) / np.linalg.norm(thetas["explicit"] - theta0)
        assert rel < 1e-8, f"{rel:.1e}"

    def test_unsupported_models_rejected_before_any_solve(self, toy_model):
        model, _ = toy_model
        theta0 = np.full(model.param_dim, 0.7)
        mixture = GaussianMixtureModel.from_reference_mixture(
            Grid.regular([[0, 1], [0, 1]], [4, 4]),
            [dict(weight=1.0, mean=(0.5, 0.5), cov=((0.1, 0.0), (0.0, 0.1)))],
            ["c0.mean.0"],
            [dict(weight=1.0, mean=(0.4, 0.5), cov=((0.1, 0.0), (0.0, 0.1)))],
        )
        cases = [
            (mixture, np.array([0.5]), dict(path="implicit")),
            (mixture, np.array([0.5]), dict(hutchinson_m=10)),
            (model, theta0, dict(minibatch_size=20, damping_metric="h1")),
            (model, theta0, dict(minibatch_size=model.state_dim + 1)),
        ]
        for m, theta, extra in cases:
            with pytest.raises(ValueError):
                optimize(m, theta, NgdConfig(metric="l2", **extra))
            assert m.propagation_counter == 0, extra

    def test_minibatch_rejects_grid_metrics(self, toy_model):
        model, _ = toy_model
        cfg = NgdConfig(metric="h1", minibatch_size=10)
        with pytest.raises(ValueError):
            optimize(model, np.full(model.param_dim, 0.7), cfg)

    def test_hutchinson_mode_runs(self, toy_model):
        model, _ = toy_model
        cfg = NgdConfig(metric="l2", step0=1.0, max_iters=3, hutchinson_m=500,
                        seed=1, path="implicit")
        res = optimize(model, np.full(model.param_dim, 0.7), cfg)
        assert res.records[-1].loss < res.records[0].loss

    def test_fixed_step_mode(self, toy_model):
        model, _ = toy_model
        cfg = NgdConfig(metric="l2", step0=1.0, fixed_step=True, max_iters=4)
        res = optimize(model, np.full(model.param_dim, 0.7), cfg)
        assert all(r.step == 1.0 for r in res.records[1:])

    def test_every_iteration_run_stops_on_max_iters(self, toy_model):
        model, _ = toy_model
        cfg = NgdConfig(metric="h1", step0=1.0, max_iters=3)
        res = optimize(model, np.full(model.param_dim, 0.7), cfg)
        assert res.status == "max_iters"
        assert [r.iter for r in res.records] == [0, 1, 2, 3]

    def test_spent_budget_stops_on_budget(self, toy_model):
        model, _ = toy_model
        cfg = NgdConfig(metric="h1", step0=1.0, max_iters=10, max_propagations=3)
        res = optimize(model, np.full(model.param_dim, 0.7), cfg)
        assert res.status == "budget"
        # The budget is checked as an iteration begins, so the last record
        # is the first to reach it.
        props = [r.propagations for r in res.records]
        assert props[-1] >= 3 > props[-2]
        assert len(res.records) - 1 < cfg.max_iters

    def test_stagnation_flagged_at_minimum(self):
        # At the exact minimum the direction is zero before any line search.
        model = LinearToyModel(np.eye(3), np.ones(3))
        res = optimize(model, np.ones(3), NgdConfig(metric="l2", step0=1.0, max_iters=5))
        assert res.status == "zero_direction"
        # No post-stagnation record: losses stay strictly decreasing.
        losses = [r.loss for r in res.records]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_stalled_line_search_stops_without_record(self):
        # Every trial overshoots the exact step 1 by at least 2**15.
        model = LinearToyModel(np.eye(3), np.ones(3))
        cfg = NgdConfig(metric="l2", step0=2.0**17, ls_max_halvings=3, max_iters=5)
        res = optimize(model, np.zeros(3), cfg)
        assert res.status == "line_search_stalled"
        assert len(res.records) == 1
        np.testing.assert_array_equal(res.theta, np.zeros(3))

    @pytest.mark.parametrize("metric", ["gd", "l2"])
    def test_zero_direction_stops_without_record(self, metric):
        a = np.random.default_rng(5).uniform(0.1, 1.0, size=(12, 3))
        theta0 = np.array([0.5, 1.0, 1.5])
        model = LinearToyModel(a, a @ theta0)
        cfg = NgdConfig(metric=metric, step0=1.0, fixed_step=True, max_iters=5)
        res = optimize(model, theta0, cfg)
        assert res.status == "zero_direction"
        assert len(res.records) == 1
        np.testing.assert_array_equal(res.theta, theta0)

    def test_fixed_step_leaving_feasible_set_stops_without_record(self):
        # The benchmark's 72x72 mixture from a start point whose h-1 fixed
        # step overflows to theta = (inf, -inf) at iteration 28.
        grid = Grid.regular([[-2.75, 7.25], [-2.75, 7.25]], [72, 72])
        cov = ((0.6, 0.0), (0.0, 0.6))
        model = GaussianMixtureModel.from_reference_mixture(
            grid,
            [dict(weight=0.2, mean=(0.0, 0.0), cov=cov),
             dict(weight=0.8, mean=(4.0, 3.0), cov=cov)],
            ["c0.mean.0", "c0.mean.1"],
            [dict(weight=0.3, mean=(1.0, 3.0), cov=cov),
             dict(weight=0.7, mean=(3.0, 2.0), cov=cov)],
        )
        theta0 = np.array([4.900145266897968, 2.9863634340183696])
        cfg = NgdConfig(metric="h-1", step0=0.2, fixed_step=True, max_iters=60)
        res = optimize(model, theta0, cfg)
        assert res.status == "infeasible_step"
        assert [r.iter for r in res.records] == list(range(28))
        # The infeasible candidate was never solved, so it is not charged.
        assert res.records[-1].propagations == model.propagation_counter == 28
        assert np.all(np.isfinite(res.theta))

    def test_gd_metric_is_plain_gradient(self, toy_model):
        model, _ = toy_model
        theta = np.full(model.param_dim, 0.7)
        rho = model.solve_forward(theta)
        _, grad_rho = model.loss_and_grad_rho(rho)
        cfg = NgdConfig(metric="gd", step0=1e-3, fixed_step=True, max_iters=1)
        res = optimize(model, theta, cfg)
        expected = theta - 1e-3 * (model.a.T @ grad_rho)
        np.testing.assert_allclose(res.theta, expected, atol=1e-12)

    def test_seed_reproducibility(self, toy_model):
        model, _ = toy_model
        cfg = NgdConfig(metric="l2", step0=0.5, max_iters=5, minibatch_size=25, seed=11)
        r1 = optimize(model, np.full(model.param_dim, 0.7), cfg)
        r2 = optimize(model, np.full(model.param_dim, 0.7), cfg)
        np.testing.assert_array_equal(r1.theta, r2.theta)
        assert [rec.loss for rec in r1.records] == [rec.loss for rec in r2.records]


class TestPropagationAccounting:
    def test_wave_gd_costs_forward_plus_adjoint(self):
        from conftest import make_wave_model

        model, _ = make_wave_model(n_sources=2)
        model.propagation_counter = 0
        cfg = NgdConfig(metric="gd", step0=1e-3, fixed_step=True, max_iters=3)
        res = optimize(model, np.full(model.param_dim, 1.1), cfg)
        per_iter = np.diff([r.propagations for r in res.records])
        # One adjoint plus one (accepted-trial) forward per iteration and source.
        np.testing.assert_array_equal(per_iter, [4, 4, 4])

    def test_wave_ngd_adds_two_per_cg_product(self):
        from conftest import make_wave_model

        model, _ = make_wave_model(n_sources=2)
        model.propagation_counter = 0
        cfg = NgdConfig(metric="l2", step0=1e-2, fixed_step=True, max_iters=2,
                        cg_max_iter=3, cg_tol=1e-30)
        res = optimize(model, np.full(model.param_dim, 1.1), cfg)
        per_iter = np.diff([r.propagations for r in res.records])
        # adjoint (2) + 3 CG products x (linearized fwd + adjoint) x 2 sources
        # + accepted trial forward (2) = 16.
        np.testing.assert_array_equal(per_iter, [16, 16])
