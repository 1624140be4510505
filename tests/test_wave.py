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

from assembled_operators import (
    adjoint_stack,
    born_source_stack,
    correlation,
    field_shape,
    linearized_traces,
    receiver_jacobian_all_at_once,
)
from conftest import make_wave_model


class TestForward:
    def test_zero_wavelet_gives_zero_traces(self):
        model = WaveFwiModel(
            cells=(6, 6), spacing=(1.0, 1.0), dt=0.4,
            sources=[(3, 0)], receivers=[(i, 0) for i in range(6)],
            wavelet=np.zeros(50),
        )
        traces = model.solve_forward(np.ones(36))
        np.testing.assert_array_equal(traces, np.zeros(model.state_dim))

    def test_source_linearity_exact(self):
        n_t, dt = 80, 0.4
        w = ricker_wavelet(n_t, dt, 0.1)
        kw = dict(cells=(6, 6), spacing=(1.0, 1.0), dt=dt,
                  sources=[(3, 0)], receivers=[(i, 0) for i in range(6)])
        m = np.ones(36)
        base = WaveFwiModel(wavelet=w, **kw).solve_forward(m)
        doubled = WaveFwiModel(wavelet=2.0 * w, **kw).solve_forward(m)
        np.testing.assert_array_equal(doubled, 2.0 * base)

    def test_mirror_symmetry_of_traces(self):
        # Centered source in a homogeneous medium: receivers mirror-equal.
        n_t, dt = 100, 0.4
        model = WaveFwiModel(
            cells=(9, 8), spacing=(1.0, 1.0), dt=dt,
            sources=[(4, 0)], receivers=[(i, 0) for i in range(9)],
            wavelet=ricker_wavelet(n_t, dt, 0.1),
        )
        traces = model.solve_forward(np.ones(72)).reshape(9, n_t)
        np.testing.assert_allclose(traces, traces[::-1, :], atol=1e-10)

    def test_cfl_violation_rejected(self):
        model = WaveFwiModel(
            cells=(6, 6), spacing=(1.0, 1.0), dt=2.0,
            sources=[(3, 0)], receivers=[(0, 0)], wavelet=np.zeros(10),
        )
        with pytest.raises(ValueError, match="CFL"):
            model.solve_forward(np.ones(36))

    @pytest.mark.parametrize("spacing", [(1.25, 0.8), (0.8, 1.25)])
    def test_cfl_rule_is_half_the_shorter_spacing(self, spacing):
        # dt <= 0.5 min(dx, dz) sqrt(min m): the least squared slowness that
        # keeps dt = 0.3 is (0.3 / 0.4)^2, and one cell below it is enough
        # to reject the medium.
        model = WaveFwiModel(
            cells=(6, 5), spacing=spacing, dt=0.3,
            sources=[(3, 0)], receivers=[(0, 0)], wavelet=np.zeros(10),
        )
        edge = (0.3 / (0.5 * min(spacing))) ** 2
        medium = np.full(model.param_dim, 2.0)
        medium[7] = edge * (1.0 + 1e-9)
        model.check_theta(medium)
        medium[7] = edge * (1.0 - 1e-9)
        with pytest.raises(ValueError, match="CFL"):
            model.check_theta(medium)

    def test_nonpositive_medium_rejected(self, wave_model):
        model, _ = wave_model
        bad = np.ones(model.param_dim)
        bad[5] = -1.0
        with pytest.raises(ValueError):
            model.solve_forward(bad)

    def test_nan_medium_rejected_before_marching(self, wave_model):
        model, _ = wave_model
        bad = np.ones(model.param_dim)
        bad[5] = np.nan
        with pytest.raises(ValueError, match="strictly positive"):
            model.solve_forward(bad)
        assert model.propagation_counter == 0


class TestAdjointness:
    @staticmethod
    def _check_dot_product_identity(model, rng):
        # The stored reverse march against the forward loop on random fields.
        model.solve_forward(np.full(model.param_dim, 1.1))
        probe = rng.standard_normal(model.state_dim)
        lam = adjoint_stack(model, probe)
        assert lam.shape == field_shape(model)
        fields = rng.standard_normal(lam.shape)
        left = linearized_traces(model, fields) @ probe
        right = float(np.vdot(fields, lam))
        assert abs(left - right) <= 1e-10 * max(abs(left), abs(right))

    @staticmethod
    def _check_dtheta_pair_adjoint(model, rng):
        # The model's d_theta h^T of a reverse solve against the dense
        # pairing of the Born source stack with the stored adjoint fields.
        model.solve_forward(np.full(model.param_dim, 1.1))
        eta = rng.standard_normal(model.param_dim)
        fields = born_source_stack(model, eta)
        assert fields.shape == field_shape(model)
        probe = rng.standard_normal(model.state_dim)
        left = float(np.vdot(fields, adjoint_stack(model, probe)))
        right = eta @ model.apply_dtheta_h_transpose(model.apply_drho_h_transpose_inverse(probe))
        assert abs(left - right) <= 1e-12 * max(abs(left), 1.0)

    def test_dot_product_identity(self, wave_model, rng):
        self._check_dot_product_identity(wave_model[0], rng)

    def test_dtheta_pair_adjoint(self, wave_model, rng):
        self._check_dtheta_pair_adjoint(wave_model[0], rng)

    def test_dot_product_identity_with_no_unit_spacing(self, rng):
        # dx = 1 hides a dropped dx^2 in either reverse march and a dropped
        # cx on the residual the reverse marches inject.
        model = _anisotropic_model(spacing=(1.25, 0.8))
        self._check_dot_product_identity(model, rng)
        self._check_dtheta_pair_adjoint(model, rng)

    def test_actions_refuse_plain_arrays(self, wave_model, rng):
        # Fields pass only between the model's own actions, as records.
        model, _ = wave_model
        model.solve_forward(np.full(model.param_dim, 1.1))
        fields = rng.standard_normal(field_shape(model))
        with pytest.raises(TypeError, match="expected BornSource, not ndarray"):
            model.apply_drho_h_inverse(fields)
        with pytest.raises(TypeError, match="expected AdjointFields, not ndarray"):
            model.apply_dtheta_h_transpose(fields)
        born = model.apply_dtheta_h(rng.standard_normal(model.param_dim))
        with pytest.raises(TypeError, match="expected AdjointFields, not BornSource"):
            model.apply_dtheta_h_transpose(born)

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
    @staticmethod
    def _check_adjoint_gradient(model, rng):
        # Both reverse marches: the model's correlation and the stored
        # adjoint fields correlated with u_tt.
        m0 = np.full(model.param_dim, 1.1)
        rho = model.solve_forward(m0)
        _, grad_rho = model.loss_and_grad_rho(rho)
        grad = gradient_adjoint(model, grad_rho)
        stored = -correlation(model, adjoint_stack(model, grad_rho))
        h = 1e-6
        for j in rng.choice(model.param_dim, size=4, replace=False):
            e = np.zeros(model.param_dim)
            e[j] = h
            f_plus = model.loss_and_grad_rho(model.solve_forward(m0 + e))[0]
            f_minus = model.loss_and_grad_rho(model.solve_forward(m0 - e))[0]
            fd = (f_plus - f_minus) / (2 * h)
            assert abs(fd - grad[j]) / max(abs(fd), 1e-12) < 1e-4
            assert abs(fd - stored[j]) / max(abs(fd), 1e-12) < 1e-4

    def test_adjoint_gradient_matches_finite_differences(self, wave_model, rng):
        self._check_adjoint_gradient(wave_model[0], rng)

    def test_adjoint_gradient_matches_finite_differences_with_no_unit_spacing(self, rng):
        # At dx = 1.25 a correlation missing its dx^2 is 1/1.25^2 = 0.64 of
        # the finite-difference gradient.
        self._check_adjoint_gradient(_anisotropic_model(spacing=(1.25, 0.8)), rng)

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
        z = assemble_jacobian(model, m0)
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

    def test_adjoint_fields_start_no_march(self, rng):
        # AdjointFields are a record, not an array-like: no numpy call or
        # iteration on them can start a charged march.
        model, _ = make_wave_model(n_sources=2)
        model.solve_forward(np.full(model.param_dim, 1.1))
        lam = model.apply_drho_h_transpose_inverse(rng.standard_normal(model.state_dim))
        u = rng.standard_normal(field_shape(model))
        count = model.propagation_counter
        for use in (lambda: np.vdot(u, lam), lambda: np.asarray(lam), lambda: list(lam)):
            try:
                use()
            except (TypeError, ValueError):
                pass
            assert model.propagation_counter == count


def _sources_model(sources, n_t=120, dt=0.4, nx=8, nz=8):
    m_true = np.full((nx, nz), 1.0)
    m_true[:, nz // 2 :] = 1.44
    model = WaveFwiModel(
        cells=(nx, nz), spacing=(1.0, 1.0), dt=dt, sources=sources,
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

    def test_gl_action_working_memory_is_one_stack(self, cpus, rng):
        # The one stack is the cached u_tt; gl_action itself allocates none.
        cpus(1)
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
        born = model.apply_dtheta_h(-eta)
        assert peak_bytes(lambda: model.apply_drho_h_inverse(born)) <= 32 * batch
        assert peak_bytes(lambda: gl_action(model, None, eta)) <= 32 * batch

    def test_one_live_forward_stack(self, cpus):
        cpus(1)
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


def _anisotropic_model(extra_receivers=(), spacing=(1.0, 0.8)):
    """Three sources, dx != dz, receivers on the cells next to the sponge
    (and any extra ones given)."""
    n_t, dt = 150, 0.3
    model = WaveFwiModel(
        cells=(9, 7), spacing=spacing, dt=dt,
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

    @staticmethod
    def _check_traces(model, rng):
        theta = 1.0 + 0.3 * rng.random(model.param_dim)
        got = model.solve_forward(theta)
        want = _reference_traces(model, theta)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_traces_match_plain_leapfrog(self, rng):
        self._check_traces(_anisotropic_model(), rng)

    def test_traces_match_plain_leapfrog_with_no_unit_spacing(self, rng):
        # dx = 1 hides a 1/dx in place of 1/dx^2.
        self._check_traces(_anisotropic_model(spacing=(1.25, 0.8)), rng)

    def test_lazy_adjoint_fields_match_materialized(self, rng):
        model = _anisotropic_model()
        model.solve_forward(np.full(model.param_dim, 1.1))
        probe = rng.standard_normal(model.state_dim)
        lam = model.apply_drho_h_transpose_inverse(probe)
        count = model.propagation_counter
        fields = adjoint_stack(model, probe)
        assert model.propagation_counter == count + model.n_sources
        assert fields.shape == field_shape(model)
        lazy = model.apply_dtheta_h_transpose(lam)
        dense = correlation(model, fields)
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
                cells=(6, 6), spacing=(1.0, 1.0), dt=0.4,
                sources=[(3, 0)], receivers=[(0, 0), (0, 0)],
                wavelet=np.zeros(10),
            )

    def test_step_count_is_the_wavelet_length(self):
        kw = dict(cells=(6, 6), spacing=(1.0, 1.0), dt=0.4, sources=[(3, 0)],
                  receivers=[(0, 0)])
        assert WaveFwiModel(wavelet=np.zeros(17), **kw).n_t == 17
        for wavelet in (np.zeros(0), np.zeros((2, 17)), 0.0):
            with pytest.raises(ValueError, match="non-empty 1-D"):
                WaveFwiModel(wavelet=wavelet, **kw)
        with pytest.raises(ValueError, match="n_t >= 1"):
            ricker_wavelet(0, 0.4, 0.1)

    @pytest.mark.parametrize(
        "change",
        [dict(cells=(8.5, 8)), dict(sources=[(3.7, 0)]), dict(receivers=[(2, True)]),
         dict(sponge_width=2.5)],
        ids=["fractional-cells", "fractional-source", "bool-receiver", "fractional-sponge"],
    )
    def test_fractional_counts_and_indices_rejected(self, change):
        # A fraction is an error, never truncated: (8.5, 8) is not an 8 x 8 model.
        kw = dict(cells=(8, 8), spacing=(1.0, 1.0), dt=0.4, sources=[(3, 0)],
                  receivers=[(0, 0)], wavelet=np.zeros(10))
        with pytest.raises(ValueError, match="must be an integer"):
            WaveFwiModel(**{**kw, **change})

    @pytest.mark.parametrize("change", [dict(sources=[(3,)]), dict(receivers=[(0, 0, 1)])],
                             ids=["one-index-source", "three-index-receiver"])
    def test_locations_take_two_indices(self, change):
        # A location is (x, z): one index cannot place it, a third is not read.
        kw = dict(cells=(8, 8), spacing=(1.0, 1.0), dt=0.4, sources=[(3, 0)],
                  receivers=[(0, 0)], wavelet=np.zeros(10))
        with pytest.raises(ValueError, match="needs two indices"):
            WaveFwiModel(**{**kw, **change})


@pytest.fixture
def cpus(monkeypatch):
    """Set the usable CPU count the source-group rule sees."""
    return lambda n: monkeypatch.setattr(wave, "usable_cpus", lambda: n)


def _split_model(n_t=80):
    """Three sources, dx != dz, 5,796 padded cells: two groups on two CPUs."""
    nx, nz = 24, 20
    model = WaveFwiModel(
        cells=(nx, nz), spacing=(1.0, 0.8), dt=0.3,
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
        assert wave.source_group_count(2, wave12) == 2
        assert wave.source_group_count(4, fwi) == 2
        assert wave.source_group_count(2, 2 * 26 * 26) == 1  # two 4x4 sources
        assert make_wave_model(12, 12, 160, n_sources=2)[0].n_groups == 2
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
                "adjoint_fields": adjoint_stack(model, grad_rho),
                "born_source": born_source_stack(model, -eta),
                "receiver_jacobian": model.receiver_jacobian(),
                "propagations": model.propagation_counter,
            }

        want, got = outputs(one), outputs(two)
        assert len(two._workers) == 1
        for key in want:
            assert np.array_equal(got[key], want[key]), key

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
        assert model._cache is None and model._groups[0].u_tt is None
        with pytest.raises(RuntimeError, match="not cached"):
            model.apply_dtheta_h(np.ones(model.param_dim))
        worker = model._workers[0]
        worker.submit("cached_u_tt", None)
        assert isinstance(worker.result(), AttributeError)  # the worker kept no stack
        # The pipe is still in step: the next solve marches and agrees.
        assert np.array_equal(model.solve_forward(good), want)

    def test_failed_reverse_in_a_worker_leaves_no_cache_anywhere(self, cpus, monkeypatch):
        cpus(2)

        def poisoned(group, data):
            # The worker's group only; set before the fork, so it inherits it.
            if group.first > 0:
                raise FloatingPointError("poisoned reverse march")
            return reverse(group, data)

        reverse = wave._SourceGroup.reverse
        monkeypatch.setattr(wave._SourceGroup, "reverse", poisoned)
        model = _split_model(n_t=30)
        theta = np.full(model.param_dim, 1.1)
        want = model.solve_forward(theta)
        count = model.propagation_counter
        with pytest.raises(FloatingPointError, match="poisoned"):
            model.apply_drho_h_transpose_inverse(np.ones(model.state_dim))
        assert model.propagation_counter == count + model.n_sources
        assert model._cache is None and model._groups[0].u_tt is None
        worker = model._workers[0]
        worker.submit("cached_u_tt", None)
        assert isinstance(worker.result(), AttributeError)  # the worker dropped its stack
        # The pipe is still in step: the next solve marches and agrees.
        assert np.array_equal(model.solve_forward(theta), want)

    def test_worker_gone_before_a_call_raises_and_leaves_no_cache(self, cpus):
        cpus(2)
        model = _split_model(n_t=30)
        theta = np.full(model.param_dim, 1.1)
        want = model.solve_forward(theta)
        process = model._workers[0].process
        process.kill()
        process.join()
        with pytest.raises(RuntimeError, match=r"wave worker .* exited \(exit code -9\)"):
            model.apply_drho_h_transpose_inverse(np.ones(model.state_dim))
        assert model._cache is None and model._groups[0].u_tt is None
        # The next charged solve forks a new worker and agrees bit for bit.
        assert np.array_equal(model.solve_forward(theta), want)
        assert model._workers[0].process is not process

    def test_check_output_does_not_depend_on_the_split(self, cpus, monkeypatch, tmp_path, capsys):
        # The wave12-check benchmark's model: two sources of 1,156 padded cells.
        config = tmp_path / "wave12.json"
        config.write_text(json.dumps({
            "model": {
                "kind": "wave-fwi", "cells": [12, 12], "spacing": [1.0, 1.0],
                "nt": 160, "dt": 0.4, "sources": {"count": 2, "row": 0},
                "receivers": "top-row", "wavelet": {"peak_freq": 0.1},
                "sponge": {"width": 10},
                "true_model": {"layered": {"background": 1.0,
                                           "layers": [[4, 1.44], [8, 0.81]]}},
                "initial_model": {"constant": 1.05},
            },
            "solver": {"metric": "w2", "seed": 0},
        }))
        forks = []
        start = wave._Worker.__init__

        def recorded(worker, group):
            start(worker, group)
            forks.append(group)

        monkeypatch.setattr(wave._Worker, "__init__", recorded)
        outputs = []
        for n in (1, 2):
            cpus(n)
            assert cli.main(["check", "-c", str(config)]) == 0
            outputs.append(capsys.readouterr().out)
        assert forks  # two CPUs split the sources
        assert outputs[0] == outputs[1]


class TestRefinement:
    """The leapfrog against the wave equation itself: in a homogeneous unit
    medium the trace a fixed distance from a point source converges at
    second order as the grid is refined."""

    PEAK, DISTANCE, WINDOW, BOX = 0.08, 4.0, 36.0, 42.0

    def _trace(self, h, box=BOX):
        """Seismogram at h, dt = 0.4 h: the source at the box centre, the
        receiver DISTANCE to its right, both on the grid at every h. The
        model injects the wavelet at one cell, so it is scaled by 1/h^2."""
        n, dt = round(box / h) + 1, 0.4 * h
        n_t = round(self.WINDOW / dt)
        centre, receiver = round(box / (2 * h)), round((box / 2 + self.DISTANCE) / h)
        model = WaveFwiModel(
            cells=(n, n), spacing=(h, h), dt=dt, sources=[(centre, centre)],
            receivers=[(receiver, centre)],
            wavelet=ricker_wavelet(n_t, dt, self.PEAK) / h**2, sponge_width=2,
        )
        return model.solve_forward(np.ones(n * n))

    def test_second_order_convergence(self):
        # Traces sample u^{n+1} at t = (n + 1) dt: coarse sample n is sample
        # 2n + 1 at h/2 and 4n + 3 at h/4.
        coarse, mid, fine = self._trace(1.0), self._trace(0.5)[1::2], self._trace(0.25)[3::4]
        # The window ends before the first wave that reaches the box edge
        # returns (at t = BOX - DISTANCE = 38 > 36): a box twice the size
        # gives the same trace, to 1e-12 of its peak (measured).
        far = self._trace(1.0, 2 * self.BOX)
        assert np.abs(far - coarse).max() <= 1e-11 * np.abs(coarse).max()
        order = np.log2(np.linalg.norm(coarse - mid) / np.linalg.norm(mid - fine))
        assert order >= 1.5  # measured 2.11
        # At h = 1 (about 12 cells per wavelength at the peak frequency) the
        # trace is off the h = 1/4 one by 3.3% (measured).
        assert np.linalg.norm(coarse - fine) <= 0.05 * np.linalg.norm(fine)


def _column_jacobian(model) -> np.ndarray:
    """One linearized solve per parameter: the Jacobian column by column."""
    columns = []
    for j in range(model.param_dim):
        e = np.zeros(model.param_dim)
        e[j] = 1.0
        columns.append(model.apply_drho_h_inverse(model.apply_dtheta_h(-e)))
    return np.stack(columns, axis=1)


class TestReceiverJacobian:
    """The Jacobian from one reverse march per receiver."""

    @pytest.mark.parametrize("build, n_groups", [
        # The check benchmark's model: 2 sources, 12 receivers.
        (lambda: make_wave_model(12, 12, 160, n_sources=2)[0], 2),
        # dx != dz, receivers off the top row, 7 receivers over 3 source slots.
        (lambda: _anisotropic_model(extra_receivers=[(2, 4)]), 1),
        # As above with dx = 1.25: dx = 1 hides a dropped dx^2 or cx in the
        # reverse marches.
        (lambda: _anisotropic_model(extra_receivers=[(2, 4)], spacing=(1.25, 0.8)), 1),
        # Two source groups, 26 receivers over 3 source slots.
        (lambda: _split_model(n_t=40), 2),
    ], ids=["wave12", "anisotropic", "no-unit-spacing", "two_groups"])
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
        # Its transpose agrees with the reverse solve's correlation.
        probe = rng.standard_normal(model.state_dim)
        want = gradient_adjoint(model, probe)
        assert np.abs(z.T @ probe - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("block_cells", [None, 1, 10**9],
                             ids=["default-blocks", "one-parameter-blocks", "one-block"])
    @pytest.mark.parametrize("build, n", [
        (lambda: make_wave_model(12, 12, 160, n_sources=2)[0], 1),
        (lambda: make_wave_model(12, 12, 160, n_sources=2)[0], 2),
        (lambda: _split_model(n_t=40), 2),
    ], ids=["wave12-1-group", "wave12-2-groups", "split-dx-ne-dz"])
    def test_blocks_equal_all_at_once_bit_for_bit(self, build, n, block_cells, cpus,
                                                  monkeypatch):
        cpus(n)
        model = build()
        assert model.n_groups == n
        model.solve_forward(1.0 + 0.2 * np.random.default_rng(5).random(model.param_dim))
        if block_cells is not None:
            monkeypatch.setattr(wave, "JACOBIAN_BLOCK_CELLS", block_cells)
        z = model.receiver_jacobian()
        want = receiver_jacobian_all_at_once(model)
        assert np.array_equal(z, want)
        assert np.array_equal(np.signbit(z), np.signbit(want))

    @pytest.mark.parametrize("limit", [1, 11, 121, 256, 10**9])
    def test_parameter_blocks_hold_whole_parameters(self, limit, monkeypatch):
        model = make_wave_model(12, 12, 160, n_sources=2)[0]
        edges = np.searchsorted(np.sort(model._pad_flat), np.arange(model.param_dim + 1))
        cells = np.diff(edges)
        assert cells.max() == (model.pad + 1) ** 2  # a sponge corner
        monkeypatch.setattr(wave, "JACOBIAN_BLOCK_CELLS", limit)
        blocks = wave._parameter_blocks(edges)
        # The blocks cover every parameter in order, one or more each.
        assert [a for a, _ in blocks] == [0] + [b for _, b in blocks[:-1]]
        assert blocks[-1][1] == model.param_dim and all(a < b for a, b in blocks)
        for a, b in blocks:
            assert b == a + 1 or cells[a:b].sum() <= limit
            # Each block is as long as the limit allows.
            assert b == model.param_dim or cells[a:b + 1].sum() > limit

    @pytest.mark.parametrize("n", [1, 2])
    def test_working_memory_is_z_and_three_spectrum_stacks(self, n, cpus):
        # u_tt's spectrum is one (source, cell, freq) complex stack; besides
        # Z and the Green's function march, every other buffer is one
        # receiver's or one parameter block's.
        cpus(n)
        model = make_wave_model(12, 12, 160, n_sources=2)[0]
        assert model.n_groups == n
        model.solve_forward(np.full(model.param_dim, 1.05))
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            z = model.receiver_jacobian()
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        stack = model.n_sources * (model.n_t + 1) * model.npx * model.npz * 16
        assert peak <= z.nbytes + 3 * stack

    @pytest.mark.parametrize("n", [1, 2])
    def test_working_memory_is_z_one_spectrum_one_march_and_blocks(self, n, cpus):
        # Beyond Z and u_tt's spectrum: one march's fields, used where they
        # arrive (never joined), its impulses and one parameter block's
        # buffers. The march's fields are group 0's padded stack, its rows
        # rounded up to whole cache lines, and each worker's reply, which
        # arrives as pickled bytes before it is unpickled. A block holds its
        # (source, cell, freq) product of spectra and one more buffer no
        # larger: the Green's function's spectrum, or the product's sums
        # over each parameter's cells, or their inverse transform. The
        # largest block is a sponge corner, a parameter of more cells than
        # JACOBIAN_BLOCK_CELLS. Joining the march and transforming whole
        # Green's functions peaked at 18.4 and 18.1 MiB; the bound stays
        # within the 15.5 MiB of the 256-cell blocks.
        cpus(n)
        model = make_wave_model(12, 12, 160, n_sources=2)[0]
        assert model.n_groups == n
        model.solve_forward(np.full(model.param_dim, 1.05))
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            z = model.receiver_jacobian()
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        n_s, n_t, cells = model.n_sources, model.n_t, model.npx * model.npz
        spectrum = n_s * (n_t + 1) * cells * 16
        stack = model._groups[0]._stack()
        replies = [(g.stop - g.first) * n_t * cells * 8 for g in model._groups[1:]]
        march = stack.shape[0] * stack.strides[0] + sum(replies) + max(replies, default=0)
        impulses = n_s * model.n_receivers * n_t * 8
        edges = np.searchsorted(np.sort(model._pad_flat), np.arange(model.param_dim + 1))
        largest = max(edges[b] - edges[a] for a, b in wave._parameter_blocks(edges))
        block = n_s * (n_t + 1) * largest * 16
        bound = z.nbytes + spectrum + march + impulses + 2 * block
        assert peak <= bound <= 15.5 * 2**20

    def test_assemble_jacobian_uses_it(self):
        model = _anisotropic_model()
        theta = np.full(model.param_dim, 1.1)
        model.solve_forward(theta)
        count = model.propagation_counter
        assemble_jacobian(model, theta)  # the forward solve is cached: no charge
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


def _fwi_model():
    """The fwi-w2-budget model's layout: four sources on 30x30 cells, sponge 10."""
    return WaveFwiModel(
        cells=(30, 30), spacing=(1.0, 1.0), dt=0.4,
        sources=[(6, 0), (12, 0), (17, 0), (23, 0)],
        receivers=[(ix, 0) for ix in range(30)],
        wavelet=ricker_wavelet(300, 0.4, 0.09),
    )


class TestAlignment:
    """Every range a march writes starts on a 64-byte boundary, and where it
    starts changes no output bit."""

    @pytest.mark.parametrize("size, lead", [
        (1, 0), (7, 3), (8, 7), (100, 9), (5300, 0),
        (2 * 52 * 52, 52), (34 * 34, 34), (2 * 34 * 34, 34),
    ])
    def test_aligned_zeros(self, size, lead):
        buf = wave._aligned_zeros(size, lead)
        assert buf.shape == (size,) and buf.dtype == float and not buf.any()
        assert buf[lead:].ctypes.data % 64 == 0

    @pytest.mark.parametrize("build, n", [
        (_fwi_model, 1), (_fwi_model, 2),
        # wave12: two groups of 1,156 cells, a row length that is no whole line.
        (lambda: make_wave_model(12, 12, 160, n_sources=2)[0], 1),
        (lambda: make_wave_model(12, 12, 160, n_sources=2)[0], 2),
    ], ids=["fwi-1-group", "fwi-2-groups", "wave12-1-group", "wave12-2-groups"])
    def test_every_stack_row_core_is_aligned(self, build, n, cpus):
        cpus(n)
        model = build()
        assert model.n_groups == n
        for group in model._groups:
            stack = group._stack()
            assert stack.shape == (group.n_t, group._size) and not stack.any()
            assert all(row.ctypes.data % 64 == 0 for row in stack[:, group._core])

    @pytest.mark.parametrize("build, n, n_groups", [
        (lambda: make_wave_model(12, 12, 160, n_sources=2)[0], 1, 1),
        (lambda: make_wave_model(12, 12, 160, n_sources=2)[0], 2, 2),
        # dx != dz; group 0 holds two sources, a worker the third.
        (lambda: _split_model(n_t=40), 2, 2),
    ], ids=["wave12-2-source-group", "wave12-2-groups", "split-dx-ne-dz"])
    def test_misaligned_buffers_change_no_bit(self, build, n, n_groups, cpus, monkeypatch):
        cpus(n)
        rng = np.random.default_rng(7)
        shape = build()
        theta = 1.0 + 0.2 * rng.random(shape.param_dim)
        eta = rng.standard_normal(shape.param_dim)
        data = rng.standard_normal(shape.state_dim)
        del shape

        def outputs():
            # A fresh model, so any worker forks with the helper in place now.
            model = build()
            assert model.n_groups == n_groups
            rho = model.solve_forward(theta)
            lam = model.apply_drho_h_transpose_inverse(data)
            return {
                "reference": model.reference,
                "forward": rho,
                "born": model.apply_drho_h_inverse(model.apply_dtheta_h(eta)),
                "reverse": lam.correlation,
                "adjoint_fields": adjoint_stack(model, data),
                "receiver_jacobian": model.receiver_jacobian(),
            }

        want = outputs()
        aligned = wave._aligned_zeros

        def one_float_off(size, lead=0):
            buf = aligned(size + 1, lead)[1:]
            assert buf[lead:].ctypes.data % 64 == 8
            return buf

        monkeypatch.setattr(wave, "_aligned_zeros", one_float_off)
        got = outputs()
        for key in want:
            assert np.array_equal(got[key], want[key]), key
            assert np.array_equal(np.signbit(got[key]), np.signbit(want[key])), key
