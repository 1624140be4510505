"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import itertools
import time

import numpy as np
import pytest

from assembled_operators import divergence_rank
from natgrad.grids import Grid, build_weighted_divergence
from natgrad.linalg import solve_least_squares_min_norm
from natgrad.metrics import MetricKind, MetricOperator
from natgrad.models import GaussianMixtureModel, LinearToyModel, WaveFwiModel, ricker_wavelet
from natgrad.solver import (
    NgdConfig,
    assemble_jacobian,
    build_metric_for_model,
    direction_explicit,
    direction_implicit,
    gl_action,
    gradient_adjoint,
    hutchinson_jacobian,
    optimize,
    projected_gradient_adjoint,
)

ALL_METRICS = ["l2", "fisher-rao", "h1", "h-1", "hdot1", "hdot-1", "w2"]
COV = ((0.6, 0.0), (0.0, 0.6))
REFERENCE_MIX = [
    dict(weight=0.3, mean=(1.0, 3.0), cov=COV),
    dict(weight=0.7, mean=(3.0, 2.0), cov=COV),
]
MODEL_MIX = [
    dict(weight=0.2, mean=(0.0, 0.0), cov=COV),
    dict(weight=0.8, mean=(4.0, 3.0), cov=COV),
]


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {criterion}] {status} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def make_mixture(interior):
    grid = Grid.regular([[-2.75, 7.25], [-2.75, 7.25]], interior)
    return GaussianMixtureModel.from_reference_mixture(
        grid, MODEL_MIX, ["c0.mean.0", "c0.mean.1"], REFERENCE_MIX
    )


def make_wave(nx, nz, n_t, dt=0.4, n_sources=2, peak_freq=0.1):
    wavelet = ricker_wavelet(n_t, dt, peak_freq)
    xs = np.linspace(0, nx - 1, n_sources + 2)[1:-1].round().astype(int)
    model = WaveFwiModel(
        cells=(nx, nz), spacing=(1.0, 1.0), dt=dt,
        sources=[(int(x), 0) for x in xs],
        receivers=[(ix, 0) for ix in range(nx)],
        wavelet=wavelet, sponge_width=10,
    )
    m_true = np.full((nx, nz), 1.0)
    m_true[:, nz // 3 :] = 1.44
    m_true[:, 2 * nz // 3 :] = 0.81
    model.generate_reference(m_true.ravel())
    return model


def fd_gradient(loss_at, theta, indices, h):
    out = {}
    for j in indices:
        e = np.zeros(theta.shape)
        e[j] = h
        out[j] = (loss_at(theta + e) - loss_at(theta - e)) / (2 * h)
    return out


class TestCriterion1GradientOracles:
    def test_gradient_oracles(self):
        t0 = time.time()
        worst = {}

        # Gaussian mixture, 71 x 71 grid, p = 2.
        gm = make_mixture((71, 71))
        theta = np.array([5.0, 3.0])

        def mixture_loss(t):
            return gm.loss_and_grad_rho(gm.solve_forward(t))[0]

        _, grad_rho = gm.loss_and_grad_rho(gm.solve_forward(theta))
        grad = gm.jacobian(theta).T @ grad_rho
        fd = fd_gradient(mixture_loss, theta, [0, 1], 1e-6)
        worst["mixture"] = max(
            abs(fd[j] - grad[j]) / max(abs(fd[j]), 1e-12) for j in fd
        )

        # Linear toy, k = 50, p = 10.
        toy, _ = LinearToyModel.random_positive(50, 10, seed=7)
        theta_t = np.full(10, 0.7)

        def toy_loss(t):
            return toy.loss_and_grad_rho(toy.solve_forward(t))[0]

        rho = toy.solve_forward(theta_t)
        _, grad_rho = toy.loss_and_grad_rho(rho)
        grad_t = gradient_adjoint(toy, grad_rho)
        fd = fd_gradient(toy_loss, theta_t, range(10), 1e-6)
        worst["toy"] = max(abs(fd[j] - grad_t[j]) / max(abs(fd[j]), 1e-12) for j in fd)

        # Wave model, 8 x 8 cells.
        wave = make_wave(8, 8, 120, n_sources=1)
        m0 = np.full(64, 1.1)

        def wave_loss(t):
            return wave.loss_and_grad_rho(wave.solve_forward(t))[0]

        rho = wave.solve_forward(m0)
        _, grad_rho = wave.loss_and_grad_rho(rho)
        grad_w = gradient_adjoint(wave, grad_rho)
        fd = fd_gradient(wave_loss, m0, [0, 13, 37, 63], 1e-6)
        worst["wave"] = max(abs(fd[j] - grad_w[j]) / max(abs(fd[j]), 1e-12) for j in fd)

        elapsed = time.time() - t0
        ok = worst["mixture"] < 1e-5 and worst["toy"] < 1e-5 and worst["wave"] < 1e-4
        report(
            1, ok and elapsed < 60,
            f"FD rel err mixture {worst['mixture']:.1e}, toy {worst['toy']:.1e}, "
            f"wave {worst['wave']:.1e} ({elapsed:.0f}s)",
        )


class TestCriterion2PathEquivalence:
    def test_path_equivalence(self):
        t0 = time.time()
        details = []
        ok = True

        toy, _ = LinearToyModel.random_positive(50, 10, seed=7)
        theta_t, theta_w = np.full(10, 0.8), np.full(144, 1.05)
        rho_t = toy.solve_forward(theta_t)
        _, grad_rho_t = toy.loss_and_grad_rho(rho_t)
        z_t = assemble_jacobian(toy, theta_t)

        wave = make_wave(12, 12, 160, n_sources=2)
        rho_w = wave.solve_forward(theta_w)
        _, grad_rho_w = wave.loss_and_grad_rho(rho_w)
        z_w = assemble_jacobian(wave, theta_w)
        probe = np.full(144, 1.0 / 12.0)

        for name in ALL_METRICS:
            kind = MetricKind.parse(name)

            metric = build_metric_for_model(
                toy, kind, toy.metric_state(rho_t) if kind.state_dependent else None
            )
            eta_e = direction_explicit(z_t, metric, grad_rho_t)
            rhs = projected_gradient_adjoint(toy, metric, grad_rho_t)
            cfg = NgdConfig(metric=name, cg_tol=1e-13, cg_max_iter=300)
            eta_i, _ = direction_implicit(toy, metric, rhs, cfg)
            rel_toy = np.linalg.norm(eta_e - eta_i) / np.linalg.norm(eta_e)

            metric_w = build_metric_for_model(
                wave, kind, wave.metric_state(rho_w) if kind.state_dependent else None
            )
            # Damp both routes identically: the undamped wave information
            # matrix is too ill-conditioned for CG to match QR at 1e-6.
            lam = 1e-4 * float(np.linalg.norm(gl_action(wave, metric_w, probe)))
            eta_we = direction_explicit(z_w, metric_w, grad_rho_w, damping_lambda=lam)
            rhs_w = projected_gradient_adjoint(wave, metric_w, grad_rho_w)
            cfg_w = NgdConfig(metric=name, cg_tol=1e-12, cg_max_iter=1500,
                              damping_lambda=lam)
            eta_wi, _ = direction_implicit(wave, metric_w, rhs_w, cfg_w)
            rel_wave = np.linalg.norm(eta_we - eta_wi) / np.linalg.norm(eta_we)

            details.append(f"{name}: toy {rel_toy:.1e} wave {rel_wave:.1e}")
            ok &= rel_toy < 1e-6 and rel_wave < 1e-6

        elapsed = time.time() - t0
        report(2, ok and elapsed < 300, "; ".join(details) + f" ({elapsed:.0f}s)")


class TestCriterion3MetricIdentities:
    def test_metric_identities(self, rng):
        t0 = time.time()
        # Unit-spacing 9x9 panel (k = 81); the 1e-12 bound is absolute at this
        # scale (matrix entries are O(k)), guarded by max(1, scale) so the
        # check stays meaningful for the larger differential-operator entries.
        grid = Grid.index_space([9, 9])
        rho = rng.uniform(0.5, 2.0, grid.size)
        z = rng.standard_normal((grid.size, 6))
        worst_rel = 0.0
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
            err = float(np.abs(g - entrywise).max())
            worst_rel = max(worst_rel, err / max(np.abs(g).max(), 1.0))
        identity_ok = worst_rel <= 1e-12
        worst = worst_rel

        # Transport/plain-divergence coincidence at constant density.
        grid_e = Grid.regular([[0, 1], [0, 1]], [8, 8])
        z_e = rng.standard_normal((grid_e.size, 5))
        grad = rng.standard_normal(grid_e.size)
        ones = np.ones(grid_e.size)
        eta_w2 = direction_explicit(z_e, MetricOperator("w2", grid_e, ones), grad)
        eta_unw = direction_explicit(z_e, MetricOperator("w2:k=0", grid_e, ones), grad)
        rel = np.linalg.norm(eta_w2 - eta_unw) / np.linalg.norm(eta_unw)

        elapsed = time.time() - t0
        ok = identity_ok and rel <= 1e-8 and elapsed < 60
        report(
            3, ok,
            f"entrywise max abs err {worst:.1e}; transport coincidence rel {rel:.1e} "
            f"({elapsed:.0f}s)",
        )


class TestCriterion4GaussNewton:
    def test_gauss_newton_equivalence(self):
        t0 = time.time()
        gm = make_mixture((48, 48))
        theta = np.array([5.0, 3.0])
        rho = gm.density(theta)
        _, grad_rho = gm.loss_and_grad_rho(rho)
        z = gm.jacobian(theta)
        eta = direction_explicit(z, None, grad_rho)
        # Independent Gauss-Newton: SVD least-squares on the linearized residual.
        gn = -np.linalg.lstsq(z, rho - gm.reference, rcond=None)[0]
        rel = np.linalg.norm(eta - gn) / np.linalg.norm(gn)
        elapsed = time.time() - t0
        report(4, rel <= 1e-10 and elapsed < 60, f"rel err {rel:.1e} ({elapsed:.0f}s)")


class TestCriterion5MixtureReproduction:
    def test_mixture_experiment(self):
        t0 = time.time()
        gm = make_mixture((72, 72))
        theta0 = np.array([5.0, 3.0])

        # Brute-force global minimizer over the domain (independent oracle).
        def loss_at(t):
            return gm.loss_and_grad_rho(gm.density(t))[0]

        xs = np.linspace(-2.75, 7.25, 81)
        best = (np.inf, 0.0, 0.0)
        for a in xs:
            for b in xs:
                f = loss_at(np.array([a, b]))
                if f < best[0]:
                    best = (f, a, b)
        fine_a = np.linspace(best[1] - 0.15, best[1] + 0.15, 13)
        fine_b = np.linspace(best[2] - 0.15, best[2] + 0.15, 13)
        for a in fine_a:
            for b in fine_b:
                f = loss_at(np.array([a, b]))
                if f < best[0]:
                    best = (f, a, b)
        theta_star = np.array([best[1], best[2]])

        settings = [
            ("gd", 0.3), ("l2", 0.04), ("fisher-rao", 0.8),
            ("h1", 0.2), ("h-1", 0.2), ("w2", 3.0),
        ]
        finals = {}
        monotone = {}
        for name, step in settings:
            cfg = NgdConfig(metric=name, step0=step, fixed_step=True,
                            max_iters=60, seed=0)
            res = optimize(gm, theta0, cfg)
            losses = [r.loss for r in res.records]
            monotone[name] = all(b <= a for a, b in zip(losses, losses[1:]))
            finals[name] = (res.final_loss, res.theta)

        w2_loss, w2_theta = finals["w2"]
        others = [n for n, _ in settings if n != "w2"]
        w2_smallest = all(w2_loss < finals[n][0] for n in others)
        w2_near_global = np.linalg.norm(w2_theta - theta_star) <= 0.5
        others_far = all(
            np.linalg.norm(finals[n][1] - theta_star) > 1.0 for n in others
        )
        all_monotone = all(monotone.values())
        elapsed = time.time() - t0
        ok = w2_smallest and w2_near_global and others_far and all_monotone
        # A run that ends off the domain is reported as such, not by its
        # distance: its density lies partly or wholly off the grid, and the
        # h-1 run, which stops on an exactly zero direction far outside,
        # ends where round-off puts it.
        lo, hi = np.array(gm.grid.extents).T
        dists = {
            n: (f"{np.linalg.norm(theta - theta_star):.2f}"
                if np.all((lo <= theta) & (theta <= hi)) else "off-domain")
            for n, (_, theta) in finals.items()
        }
        report(
            5, ok and elapsed < 600,
            f"global min {theta_star.round(2)}; "
            f"monotone {all_monotone}; transport metric smallest {w2_smallest}; "
            f"distances {{{', '.join(f'{n}: {d}' for n, d in dists.items())}}} "
            f"({elapsed:.0f}s)",
        )


class TestCriterion6FwiBudget:
    def test_fwi_equal_budget(self):
        t0 = time.time()
        nx = nz = 30
        n_t, dt = 300, 0.4
        wavelet = ricker_wavelet(n_t, dt, 0.09)
        xs = np.linspace(0, nx - 1, 6)[1:-1].round().astype(int)
        model = WaveFwiModel(
            cells=(nx, nz), spacing=(1.0, 1.0), dt=dt,
            sources=[(int(x), 0) for x in xs],
            receivers=[(ix, 0) for ix in range(nx)],
            wavelet=wavelet, sponge_width=10,
        )
        m_true = np.full((nx, nz), 1.0)
        m_true[:, 10:] = 1.44
        m_true[:, 20:] = 0.81
        model.generate_reference(m_true.ravel())
        m0 = np.full(nx * nz, 1.0)

        budget = 400
        finals = {}
        settings = [
            ("gd", 2.0, {}),
            ("l2", 1.0, dict(damping_lambda=1e-4, cg_tol=1e-3, cg_max_iter=10)),
            ("hdot1", 1.0, dict(damping_lambda=1e-4, cg_tol=1e-3, cg_max_iter=10)),
            ("hdot-1", 4.0, dict(damping_lambda=1e-4, cg_tol=1e-3, cg_max_iter=10)),
            ("w2", 4.0, dict(damping_lambda=1e-4, cg_tol=1e-3, cg_max_iter=10)),
        ]
        for name, step, extra in settings:
            model.propagation_counter = 0
            cfg = NgdConfig(metric=name, step0=step, max_iters=1000,
                            max_propagations=budget, seed=0, **extra)
            res = optimize(model, m0.copy(), cfg)
            finals[name] = res.final_loss

        ngd_beats_gd = all(
            finals[n] <= finals["gd"] for n in ("l2", "hdot1", "hdot-1", "w2")
        )
        elapsed = time.time() - t0
        report(
            6, ngd_beats_gd and elapsed < 900,
            "final misfits " +
            ", ".join(f"{n}: {v:.4f}" for n, v in finals.items()) +
            f" ({elapsed:.0f}s)",
        )


class TestCriterion7FactorizationSuites:
    def test_min_norm_vs_svd_oracle(self, rng):
        t0 = time.time()
        worst = 0.0
        for _ in range(50):
            rows = int(rng.integers(10, 60))
            cols = int(rng.integers(3, 16))
            rank = int(rng.integers(1, cols + 1))
            a = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
            b = rng.standard_normal(rows)
            x = solve_least_squares_min_norm(a, b)
            x_svd = np.linalg.pinv(a) @ b
            worst = max(
                worst,
                np.linalg.norm(x - x_svd) / max(np.linalg.norm(x_svd), 1e-12),
            )
        ok = worst <= 1e-8
        report(
            "7a", ok and time.time() - t0 < 120,
            f"min-norm vs SVD worst rel {worst:.1e}",
        )

    def test_divergence_rank_parity(self, rng):
        # Full rank needs even interior counts (odd interval counts); the
        # largest case here is 8 x 10 = 80 <= 81. Odd interior counts drop the
        # rank by exactly one per axis pair, checked at 9 x 9.
        t0 = time.time()
        ok = True
        for counts in [(2, 2), (4, 4), (6, 6), (8, 8), (8, 10)]:
            grid = Grid.regular([[0, 1], [0, 1]], counts)
            rho = rng.uniform(0.5, 2.0, grid.size)
            wdiv = build_weighted_divergence(grid, rho)
            ok &= divergence_rank(wdiv) == grid.size
        grid9 = Grid.regular([[0, 1], [0, 1]], (9, 9))
        rho9 = rng.uniform(0.5, 2.0, grid9.size)
        with pytest.warns(UserWarning):
            wdiv9 = build_weighted_divergence(grid9, rho9)
        ok &= divergence_rank(wdiv9) == 80
        report(
            "7b", ok and time.time() - t0 < 120,
            "full rank on even interiors up to 80; 9x9 interior rank 80 of 81",
        )

    def test_hutchinson_enumeration(self):
        t0 = time.time()
        worst = 0.0
        for k, p, seed in ((6, 3, 1), (8, 4, 2), (10, 3, 3)):
            model, _ = LinearToyModel.random_positive(k, p, seed=seed)
            model.solve_forward(np.ones(p))
            acc = np.zeros((k, p))
            for signs in itertools.product([-1.0, 1.0], repeat=k):
                xi = np.array(signs)
                acc += np.outer(xi, gradient_adjoint(model, xi))
            acc /= 2.0**k
            worst = max(worst, float(np.abs(acc - model.a).max()))
        ok = worst <= 1e-12
        report("7c", ok and time.time() - t0 < 120, f"enumeration max err {worst:.1e}")


class TestCriterion8InvarianceStructure:
    def test_invariance_and_structure(self, rng):
        t0 = time.time()

        # Reparameterization invariance of the state-space update.
        z = rng.standard_normal((60, 6))
        grad_rho = rng.standard_normal(60)
        grid = Grid.regular([[0, 1], [0, 1]], [6, 10])
        metric = MetricOperator("h1", grid)
        m = rng.standard_normal((6, 6)) + 4.0 * np.eye(6)
        eta = direction_explicit(z, metric, grad_rho)
        eta_re = direction_explicit(z @ m, metric, grad_rho)
        reparam_rel = np.linalg.norm(z @ eta - z @ (m @ eta_re)) / np.linalg.norm(z @ eta)

        # Information-action symmetry on the wave model.
        wave = make_wave(8, 8, 120, n_sources=1)
        wave.solve_forward(np.full(64, 1.1))
        metric_w = build_metric_for_model(wave, MetricKind.parse("h1"))
        e1 = rng.standard_normal(64)
        e2 = rng.standard_normal(64)
        lhs = gl_action(wave, metric_w, e1) @ e2
        rhs = e1 @ gl_action(wave, metric_w, e2)
        sym_rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs))

        # Normal-equation orthogonality at the returned direction, all metrics.
        grid8 = Grid.regular([[0, 1], [0, 1]], [8, 8])
        rho8 = rng.uniform(0.5, 2.0, grid8.size)
        z8 = rng.standard_normal((grid8.size, 5))
        g8 = rng.standard_normal(grid8.size)
        orth_worst = 0.0
        for name in ALL_METRICS:
            kind = MetricKind.parse(name)
            op = MetricOperator(kind, grid8, rho8 if kind.state_dependent else None)
            eta8 = direction_explicit(z8, op, g8)
            y8 = op.apply_L_matrix(z8)
            resi = y8.T @ (op.apply_Lt_pinv(g8) + y8 @ eta8)
            orth_worst = max(orth_worst, np.linalg.norm(resi) / np.linalg.norm(g8))

        # Propagation accounting against the per-iteration cost table.
        model, _ = __import__("conftest").make_wave_model(n_sources=2)
        model.propagation_counter = 0
        res = optimize(
            model, np.full(model.param_dim, 1.1),
            NgdConfig(metric="gd", step0=1e-3, fixed_step=True, max_iters=2),
        )
        gd_per_iter = np.diff([r.propagations for r in res.records])
        model.propagation_counter = 0
        res = optimize(
            model, np.full(model.param_dim, 1.1),
            NgdConfig(metric="l2", step0=1e-2, fixed_step=True, max_iters=2,
                      cg_max_iter=3, cg_tol=1e-30),
        )
        ngd_per_iter = np.diff([r.propagations for r in res.records])
        accounting_ok = (
            list(gd_per_iter) == [4, 4]  # (forward + adjoint) x 2 sources
            and list(ngd_per_iter) == [16, 16]  # + (2 per CG product) x 3 x 2
        )

        elapsed = time.time() - t0
        ok = (
            reparam_rel <= 1e-8
            and sym_rel <= 1e-10
            and orth_worst <= 1e-8
            and accounting_ok
            and elapsed < 120
        )
        report(
            8, ok,
            f"reparam {reparam_rel:.1e}; symmetry {sym_rel:.1e}; "
            f"orthogonality {orth_worst:.1e}; accounting {accounting_ok} "
            f"({elapsed:.0f}s)",
        )
