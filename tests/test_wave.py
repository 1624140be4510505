"""Wave model: exact transposability, gradients, linearity, symmetry."""

import gc
import json
import multiprocessing
import tracemalloc

import numpy as np
import pytest

from natgrad import cli
from natgrad.metrics import MetricKind
from natgrad.models import WaveFwiModel, ricker_wavelet, wave
from natgrad.solver import assemble_jacobian, build_metric_for_model, gl_action, gradient_adjoint

from conftest import make_wave_model


class TestForward:
    def test_zero_wavelet_gives_zero_traces(self):
        model = WaveFwiModel(
            cells=(6, 6), spacing=(1.0, 1.0), n_t=50, dt=0.4,
            sources=[(3, 0)], receivers=[(i, 0) for i in range(6)],
            wavelet=np.zeros(50),
        )
        traces = model.solve_forward(np.ones(36))
        np.testing.assert_array_equal(traces, np.zeros(model.state_dim))

    def test_source_linearity_exact(self):
        n_t, dt = 80, 0.4
        w = ricker_wavelet(n_t, dt, 0.1)
        kw = dict(cells=(6, 6), spacing=(1.0, 1.0), n_t=n_t, dt=dt,
                  sources=[(3, 0)], receivers=[(i, 0) for i in range(6)])
        m = np.ones(36)
        base = WaveFwiModel(wavelet=w, **kw).solve_forward(m)
        doubled = WaveFwiModel(wavelet=2.0 * w, **kw).solve_forward(m)
        np.testing.assert_array_equal(doubled, 2.0 * base)

    def test_mirror_symmetry_of_traces(self):
        # Centered source in a homogeneous medium: receivers mirror-equal.
        n_t, dt = 100, 0.4
        model = WaveFwiModel(
            cells=(9, 8), spacing=(1.0, 1.0), n_t=n_t, dt=dt,
            sources=[(4, 0)], receivers=[(i, 0) for i in range(9)],
            wavelet=ricker_wavelet(n_t, dt, 0.1),
        )
        traces = model.solve_forward(np.ones(72)).reshape(9, n_t)
        np.testing.assert_allclose(traces, traces[::-1, :], atol=1e-10)

    def test_cfl_violation_rejected(self):
        model = WaveFwiModel(
            cells=(6, 6), spacing=(1.0, 1.0), n_t=10, dt=2.0,
            sources=[(3, 0)], receivers=[(0, 0)], wavelet=np.zeros(10),
        )
        with pytest.raises(ValueError, match="CFL"):
            model.solve_forward(np.ones(36))

    def test_nonpositive_medium_rejected(self, wave_model):
        model, _ = wave_model
        bad = np.ones(model.param_dim)
        bad[5] = -1.0
        with pytest.raises(ValueError):
            model.solve_forward(bad)

    def test_forward_cache(self, wave_model):
        model, m_true = wave_model
        m0 = np.full(model.param_dim, 1.1)
        model.solve_forward(m0)
        count = model.propagation_counter
        model.solve_forward(m0)
        assert model.propagation_counter == count


class TestAdjointness:
    def test_dot_product_identity(self, wave_model, rng):
        model, _ = wave_model
        model.solve_forward(np.full(model.param_dim, 1.1))
        probe = rng.standard_normal(model.state_dim)
        lam = model.apply_drho_h_transpose_inverse(probe)
        assert lam.shape == model.field_shape
        fields = rng.standard_normal(lam.shape)
        left = model.apply_drho_h_inverse(fields) @ probe
        right = float(np.vdot(fields, lam))
        assert abs(left - right) <= 1e-10 * max(abs(left), abs(right))

    def test_dtheta_pair_adjoint(self, wave_model, rng):
        model, _ = wave_model
        model.solve_forward(np.full(model.param_dim, 1.1))
        eta = rng.standard_normal(model.param_dim)
        fields = np.asarray(model.apply_dtheta_h(eta))
        assert fields.shape == model.field_shape
        lam = rng.standard_normal(fields.shape)
        left = float(np.vdot(fields, lam))
        right = eta @ model.apply_dtheta_h_transpose(lam)
        assert abs(left - right) <= 1e-12 * max(abs(left), 1.0)

    def test_gl_action_symmetry(self, wave_model, rng):
        model, _ = wave_model
        rho = model.solve_forward(np.full(model.param_dim, 1.1))
        metric = build_metric_for_model(model, MetricKind.parse("h1"))
        eta1 = rng.standard_normal(model.param_dim)
        eta2 = rng.standard_normal(model.param_dim)
        lhs = gl_action(model, metric, eta1) @ eta2
        rhs = eta1 @ gl_action(model, metric, eta2)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


class TestGradient:
    def test_adjoint_gradient_matches_finite_differences(self, wave_model, rng):
        model, _ = wave_model
        m0 = np.full(model.param_dim, 1.1)
        rho = model.solve_forward(m0)
        _, grad_rho = model.loss_and_grad_rho(rho)
        grad = gradient_adjoint(model, grad_rho)
        h = 1e-6
        for j in rng.choice(model.param_dim, size=4, replace=False):
            e = np.zeros(model.param_dim)
            e[j] = h
            f_plus = model.loss_and_grad_rho(model.solve_forward(m0 + e))[0]
            f_minus = model.loss_and_grad_rho(model.solve_forward(m0 - e))[0]
            fd = (f_plus - f_minus) / (2 * h)
            assert abs(fd - grad[j]) / max(abs(fd), 1e-12) < 1e-4

    def test_zero_residual_gives_zero_gradient(self, wave_model):
        model, m_true = wave_model
        rho = model.solve_forward(m_true)
        loss, grad_rho = model.loss_and_grad_rho(rho)
        assert loss <= 1e-20
        grad = gradient_adjoint(model, grad_rho)
        np.testing.assert_allclose(grad, np.zeros_like(grad), atol=1e-12)

    def test_born_matches_trace_finite_differences(self, wave_model):
        model, _ = wave_model
        m0 = np.full(model.param_dim, 1.1)
        model.solve_forward(m0)
        z = assemble_jacobian(model)
        h = 1e-6
        j = model.param_dim // 2
        e = np.zeros(model.param_dim)
        e[j] = h
        fd = (model.solve_forward(m0 + e) - model.solve_forward(m0 - e)) / (2 * h)
        rel = np.linalg.norm(z[:, j] - fd) / np.linalg.norm(fd)
        assert rel < 1e-6


class TestAccounting:
    def test_propagations_per_action(self):
        model, _ = make_wave_model(n_sources=2)
        model.propagation_counter = 0
        m0 = np.full(model.param_dim, 1.1)
        model.solve_forward(m0)
        assert model.propagation_counter == 2  # one per source
        model.apply_drho_h_transpose_inverse(np.zeros(model.state_dim))
        assert model.propagation_counter == 4
        fields = model.apply_dtheta_h(np.ones(model.param_dim))
        model.apply_drho_h_inverse(fields)
        assert model.propagation_counter == 6  # correlation itself is free

    def test_actions_require_cached_forward(self):
        model, _ = make_wave_model()
        with pytest.raises(RuntimeError):
            model.apply_dtheta_h(np.ones(model.param_dim))


def _sources_model(sources, n_t=120, dt=0.4, nx=8, nz=8):
    m_true = np.full((nx, nz), 1.0)
    m_true[:, nz // 2 :] = 1.44
    model = WaveFwiModel(
        cells=(nx, nz), spacing=(1.0, 1.0), n_t=n_t, dt=dt, sources=sources,
        receivers=[(ix, 0) for ix in range(nx)],
        wavelet=ricker_wavelet(n_t, dt, 0.1),
    )
    model.generate_reference(m_true.ravel())
    return model


class TestBatchedSources:
    """All sources march as one batch; each must behave as if alone."""

    SOURCES = [(1, 0), (4, 0), (6, 2)]

    def test_traces_equal_single_source_runs(self):
        m0 = np.full(64, 1.1)
        batched = _sources_model(self.SOURCES).solve_forward(m0)
        singles = [_sources_model([src]).solve_forward(m0) for src in self.SOURCES]
        np.testing.assert_array_equal(batched, np.concatenate(singles))

    def test_gradient_and_gl_action_sum_over_sources(self, rng):
        m0 = np.full(64, 1.1)
        eta = rng.standard_normal(64)

        def grad_and_gl(model):
            _, grad_rho = model.loss_and_grad_rho(model.solve_forward(m0))
            return gradient_adjoint(model, grad_rho), gl_action(model, None, eta)

        grad, gl = grad_and_gl(_sources_model(self.SOURCES))
        parts = [grad_and_gl(_sources_model([src])) for src in self.SOURCES]
        for got, want in ((grad, sum(p[0] for p in parts)), (gl, sum(p[1] for p in parts))):
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_gl_action_working_memory_is_one_stack(self, rng):
        # The one stack is the cached u_tt; gl_action itself allocates none.
        model = _sources_model(self.SOURCES)
        assert model.n_groups == 1  # every stack is in this process
        model.solve_forward(np.full(64, 1.1))
        eta = rng.standard_normal(64)
        batch = 8 * model.n_sources * model.npx * model.npz

        def peak_bytes(action):
            tracemalloc.start()
            try:
                action()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # The Born source is formed per step in the linearized solve and the
        # correlation is accumulated per step in the reverse solve, so both
        # need only per-step buffers.
        born = -model.apply_dtheta_h(eta)
        assert peak_bytes(lambda: model.apply_drho_h_inverse(born)) <= 32 * batch
        assert peak_bytes(lambda: gl_action(model, None, eta)) <= 32 * batch

    def test_one_live_forward_stack(self):
        model = _sources_model(self.SOURCES)
        assert model.n_groups == 1  # every stack is in this process
        batch = 8 * model.n_sources * model.npx * model.npz
        tracemalloc.start()
        try:
            model.solve_forward(np.full(64, 1.1))
            held = tracemalloc.get_traced_memory()[0]  # one cached stack
            tracemalloc.reset_peak()
            model.solve_forward(np.full(64, 1.2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The old stack is dropped before the new march allocates its own.
        assert held > 32 * batch
        assert peak <= held + 32 * batch


def _reference_traces(model, theta):
    """Plain per-source leapfrog: u+ = d (2u - d u- + dt^2/m (lap u + f)),
    zero outside the padded grid, traces of u+ at the receivers."""
    m = np.pad(theta.reshape(model.nx, model.nz), model.pad, mode="edge")
    d, dt2m = model.damp, model.dt**2 / m
    w = model.pad
    panels = []
    for sx, sz in model.sources:
        u_prev, u = np.zeros_like(m), np.zeros_like(m)
        panel = np.empty((model.n_receivers, model.n_t))
        for n in range(model.n_t):
            p = np.pad(u, 1)
            lap = (p[:-2, 1:-1] + p[2:, 1:-1] - 2 * u) / model.dx**2 + (
                p[1:-1, :-2] + p[1:-1, 2:] - 2 * u
            ) / model.dz**2
            f = np.zeros_like(m)
            f[sx + w, sz + w] = model.wavelet[n]
            u_prev, u = u, d * (2 * u - d * u_prev + dt2m * (lap + f))
            for r, (rx, rz) in enumerate(model.receivers):
                panel[r, n] = u[rx + w, rz + w]
        panels.append(panel.ravel())
    return np.concatenate(panels)


def _anisotropic_model(extra_receivers=()):
    """Three sources, dx != dz, receivers on the cells next to the sponge
    (and any extra ones given)."""
    n_t, dt = 150, 0.3
    model = WaveFwiModel(
        cells=(9, 7), spacing=(1.0, 0.8), n_t=n_t, dt=dt,
        sources=[(1, 0), (4, 3), (8, 6)],
        receivers=[(0, 0), (8, 6), (3, 6), (0, 6), (8, 0), (5, 2), *extra_receivers],
        wavelet=ricker_wavelet(n_t, dt, 0.12), sponge_width=3,
    )
    m_true = np.full((9, 7), 1.0)
    m_true[:, 4:] = 1.3
    model.generate_reference(m_true.ravel())
    return model


class TestKernel:
    """The folded, ghost-padded stencil against a plain transcription."""

    def test_traces_match_plain_leapfrog(self, rng):
        model = _anisotropic_model()
        theta = 1.0 + 0.3 * rng.random(model.param_dim)
        got = model.solve_forward(theta)
        want = _reference_traces(model, theta)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_lazy_adjoint_fields_match_materialized(self, rng):
        model = _anisotropic_model()
        model.solve_forward(np.full(model.param_dim, 1.1))
        lam = model.apply_drho_h_transpose_inverse(rng.standard_normal(model.state_dim))
        assert lam.shape == model.field_shape
        count = model.propagation_counter
        fields = np.asarray(lam)
        assert model.propagation_counter == count + model.n_sources
        assert fields.shape == model.field_shape
        lazy = model.apply_dtheta_h_transpose(lam)
        dense = model.apply_dtheta_h_transpose(fields)
        assert np.linalg.norm(lazy - dense) <= 1e-12 * np.linalg.norm(dense)
        # Adjoint fields of a replaced forward solve are refused.
        model.solve_forward(np.full(model.param_dim, 1.2))
        with pytest.raises(RuntimeError):
            model.apply_dtheta_h_transpose(lam)


class TestLayout:
    def test_receiver_major_panels(self, wave_model):
        model, m_true = wave_model
        data = model.solve_forward(m_true)
        panels = data.reshape(model.n_sources, model.n_receivers, model.n_t)
        assert panels.shape == (1, 8, 120)

    def test_metric_state_normalizes_each_source_panel(self, rng):
        model, _ = make_wave_model(n_t=40, n_sources=2)
        grid, panels = model.metric_domain
        assert (grid.interior_counts, panels) == ((model.n_receivers, 40), 2)
        data = rng.standard_normal(model.state_dim)
        data[grid.size:] *= 50.0  # panels on different scales normalize apart
        state = model.metric_state(data)
        for got, panel in zip(np.split(state, 2), np.split(data, 2)):
            np.testing.assert_array_equal(got, wave.normalize_to_density(panel))
            assert got.min() > 0.0 and abs(got.mean() - 1.0) <= 1e-12

    def test_duplicate_receivers_rejected(self):
        with pytest.raises(ValueError):
            WaveFwiModel(
                cells=(6, 6), spacing=(1.0, 1.0), n_t=10, dt=0.4,
                sources=[(3, 0)], receivers=[(0, 0), (0, 0)],
                wavelet=np.zeros(10),
            )


@pytest.fixture
def cpus(monkeypatch):
    """Set the usable CPU count the source-group rule sees."""
    return lambda n: monkeypatch.setattr(wave, "usable_cpus", lambda: n)


def _split_model(n_t=80):
    """Three sources, dx != dz, 5,796 padded cells: two groups on two CPUs."""
    nx, nz = 24, 20
    model = WaveFwiModel(
        cells=(nx, nz), spacing=(1.0, 0.8), n_t=n_t, dt=0.3,
        sources=[(2, 0), (11, 5), (21, 17)],
        receivers=[(ix, 0) for ix in range(nx)] + [(5, nz - 1), (nx - 1, 9)],
        wavelet=ricker_wavelet(n_t, 0.3, 0.12),
    )
    m_true = np.full((nx, nz), 1.0)
    m_true[:, nz // 2:] = 1.3
    model.generate_reference(m_true.ravel())
    return model


class TestSourceGroups:
    """Sources split into groups, group 0 here and the rest in forked workers."""

    def test_group_count_rule(self, cpus, monkeypatch):
        fwi, wave12 = 4 * 52 * 52, 2 * 34 * 34  # padded cells of the benchmark models
        cpus(1)
        assert wave.source_group_count(4, fwi) == 1
        cpus(2)
        assert wave.source_group_count(2, wave12) == 1
        assert wave.source_group_count(4, fwi) == 2
        assert make_wave_model(12, 12, 160, n_sources=2)[0].n_groups == 1
        cpus(64)
        for n_sources in range(1, 6):
            assert wave.source_group_count(n_sources, 10**8) == n_sources
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert wave.source_group_count(4, fwi) == 1

    def test_two_groups_match_one_bit_for_bit(self, cpus, rng):
        cpus(1)
        one = _split_model()
        cpus(2)
        two = _split_model()
        assert (one.n_groups, two.n_groups) == (1, 2)
        assert not two._workers  # set-up forks nothing
        theta = 1.0 + 0.2 * rng.random(one.param_dim)
        eta = rng.standard_normal(one.param_dim)
        fields = rng.standard_normal(one.field_shape)

        def outputs(model):
            rho = model.solve_forward(theta)
            _, grad_rho = model.loss_and_grad_rho(rho)
            metric = build_metric_for_model(model, MetricKind.parse("w2"), model.metric_state(rho))
            lam = model.apply_drho_h_transpose_inverse(grad_rho)
            return {
                "reference": model.reference,
                "traces": rho,
                "gradient": gradient_adjoint(model, grad_rho),
                "gl_action": gl_action(model, metric, eta),
                "gl_action_l2": gl_action(model, None, eta),
                "adjoint_fields": np.asarray(lam),
                "born_source": np.asarray(-model.apply_dtheta_h(eta)),
                "linearized_from_fields": model.apply_drho_h_inverse(fields),
                "propagations": model.propagation_counter,
            }

        want, got = outputs(one), outputs(two)
        assert len(two._workers) == 1
        for key in want:
            assert np.array_equal(got[key], want[key]), key
        # A correlation of plain fields is summed per group, then over groups.
        dense_one = one.apply_dtheta_h_transpose(fields)
        dense_two = two.apply_dtheta_h_transpose(fields)
        assert np.linalg.norm(dense_two - dense_one) <= 1e-13 * np.linalg.norm(dense_one)

    def test_worker_stops_when_model_is_deleted(self, cpus):
        cpus(2)
        model = _split_model(n_t=20)
        model.solve_forward(np.full(model.param_dim, 1.1))
        process = model._workers[0].process
        assert process.is_alive()
        del model
        gc.collect()
        process.join(timeout=10)
        assert not process.is_alive()

    def test_no_worker_outlives_a_cli_run(self, cpus, monkeypatch, tmp_path):
        cpus(2)
        processes = []
        start = wave._Worker.__init__

        def recorded(worker, group):
            start(worker, group)
            processes.append(worker.process)

        monkeypatch.setattr(wave._Worker, "__init__", recorded)
        config = tmp_path / "wave.json"
        config.write_text(json.dumps({
            "model": {
                "kind": "wave-fwi", "cells": [24, 20], "spacing": [1.0, 0.8],
                "nt": 40, "dt": 0.3, "sources": {"count": 3, "row": 0},
                "wavelet": {"peak_freq": 0.12},
                "true_model": {"layered": {"background": 1.0, "layers": [[10, 1.3]]}},
                "initial_model": {"constant": 1.1},
            },
            "solver": {"metric": "l2", "step0": 1.0, "max_iters": 2,
                       "cg_max_iter": 3, "damping_lambda": 1e-4, "seed": 0},
        }))
        assert cli.main(["run", "-c", str(config), "--out", str(tmp_path / "out")]) in (0, 2)
        assert len(processes) == 1
        assert not processes[0].is_alive()

    def test_worker_error_reaches_caller_and_leaves_no_cache(self, cpus, monkeypatch, rng):
        cpus(2)
        poisoned = 1.25
        stencil = wave._SourceGroup._stencil

        def poison(group, theta):
            # Non-finite coefficients for the worker's sources only, at one
            # model; set before the fork, so the worker inherits it.
            s = stencil(group, theta)
            if group.first > 0 and theta[0] == poisoned:
                s = s._replace(cb=np.full_like(s.cb, np.nan))
            return s

        monkeypatch.setattr(wave._SourceGroup, "_stencil", poison)
        model = _split_model(n_t=30)
        good = np.full(model.param_dim, 1.1)
        want = model.solve_forward(good)
        count = model.propagation_counter
        with pytest.raises(RuntimeError, match="non-finite traces"):
            model.solve_forward(np.full(model.param_dim, poisoned))
        assert model.propagation_counter == count + model.n_sources
        assert model._cache_theta is None and model._groups[0].u_tt is None
        with pytest.raises(RuntimeError, match="not cached"):
            model.apply_dtheta_h(np.ones(model.param_dim))
        worker = model._workers[0]
        worker.submit("born_fields", np.ones((model.npx, model.npz)))
        assert isinstance(worker.result(), TypeError)  # the worker kept no stack
        # The pipe is still in step: the next solve marches and agrees.
        assert np.array_equal(model.solve_forward(good), want)


def _column_jacobian(model) -> np.ndarray:
    """One linearized solve per parameter: the Jacobian column by column."""
    columns = []
    for j in range(model.param_dim):
        e = np.zeros(model.param_dim)
        e[j] = 1.0
        columns.append(model.apply_drho_h_inverse(-model.apply_dtheta_h(e)))
    return np.stack(columns, axis=1)


class TestReceiverJacobian:
    """The Jacobian from one reverse march per receiver."""

    @pytest.mark.parametrize("build, n_groups", [
        # The check benchmark's model: 2 sources, 12 receivers.
        (lambda: make_wave_model(12, 12, 160, n_sources=2)[0], 1),
        # dx != dz, receivers off the top row, 7 receivers over 3 source slots.
        (lambda: _anisotropic_model(extra_receivers=[(2, 4)]), 1),
        # Two source groups, 26 receivers over 3 source slots.
        (lambda: _split_model(n_t=40), 2),
    ], ids=["wave12", "anisotropic", "two_groups"])
    def test_matches_column_loop_and_charges_per_receiver(self, build, n_groups, cpus, rng):
        cpus(2)
        model = build()
        assert model.n_groups == n_groups
        model.solve_forward(1.0 + 0.2 * rng.random(model.param_dim))
        count = model.propagation_counter
        z = model.receiver_jacobian()
        marches = -(-model.n_receivers // model.n_sources)
        assert model.propagation_counter == count + marches * model.n_sources
        want = _column_jacobian(model)
        assert z.shape == want.shape == (model.state_dim, model.param_dim)
        assert np.abs(z - want).max() <= 1e-13 * np.abs(want).max()

    def test_assemble_jacobian_uses_it(self):
        model = _anisotropic_model()
        model.solve_forward(np.full(model.param_dim, 1.1))
        count = model.propagation_counter
        assemble_jacobian(model)
        assert model.propagation_counter == count + 2 * model.n_sources

    def test_requires_cached_forward(self):
        model = _anisotropic_model()
        with pytest.raises(RuntimeError, match="not cached"):
            model.receiver_jacobian()

    def test_leaves_cache_intact(self, rng):
        model = _anisotropic_model(extra_receivers=[(2, 4)])
        model.solve_forward(np.full(model.param_dim, 1.1))
        eta = rng.standard_normal(model.param_dim)
        before = gl_action(model, None, eta)
        model.receiver_jacobian()
        assert np.array_equal(gl_action(model, None, eta), before)

    def test_wave_model_stays_matrix_free(self):
        # has_explicit_jacobian looks for ``jacobian``; FWI's path 'auto'
        # must stay on the CG route.
        model, _ = make_wave_model()
        assert not model.has_explicit_jacobian
