"""Gaussian mixture model: density values, analytic Jacobian, objective."""

import numpy as np
import pytest

from natgrad.grids import Grid
from natgrad.models import GaussianMixtureModel
from natgrad.models import gaussian_mixture
from natgrad.models.gaussian_mixture import parse_free_parameter

COV = ((0.6, 0.0), (0.0, 0.6))


def make_model(interior=(24, 24), free=("c0.mean.0", "c0.mean.1")):
    grid = Grid.regular([[-2.75, 7.25], [-2.75, 7.25]], interior)
    reference = [
        dict(weight=0.3, mean=(1.0, 3.0), cov=COV),
        dict(weight=0.7, mean=(3.0, 2.0), cov=COV),
    ]
    components = [
        dict(weight=0.2, mean=(0.0, 0.0), cov=COV),
        dict(weight=0.8, mean=(4.0, 3.0), cov=COV),
    ]
    return GaussianMixtureModel.from_reference_mixture(
        grid, components, list(free), reference
    )


class TestFreeParameterParsing:
    def test_selectors(self):
        assert parse_free_parameter("c0.weight") == (0, "weight", 0)
        assert parse_free_parameter("c1.mean.1") == (1, "mean", 1)

    def test_bad_selectors(self):
        for bad in ("mean.0", "c0.cov.0", "c0.mean.2"):
            with pytest.raises(ValueError):
                parse_free_parameter(bad)


class TestDensity:
    def test_single_component_peak_value(self):
        # Peak of a bivariate normal with covariance 0.6 I is 1 / (2 pi 0.6).
        grid = Grid.regular([[-3.0, 5.0], [-3.0, 5.0]], [31, 31])
        model = GaussianMixtureModel.from_reference_mixture(
            grid,
            [dict(weight=1.0, mean=(1.0, 1.0), cov=COV)],
            ["c0.mean.0", "c0.mean.1"],
            [dict(weight=1.0, mean=(1.0, 1.0), cov=COV)],
        )
        theta = np.array([1.0, 1.0])
        # (1, 1) is a grid point of this lattice.
        pts = grid.points()
        at_peak = np.argmin(np.abs(pts - theta).sum(axis=1))
        rho = model.density(theta)
        assert np.allclose(pts[at_peak], theta)
        np.testing.assert_allclose(rho[at_peak], 1.0 / (2 * np.pi * 0.6), rtol=1e-12)

    def test_component_swap_symmetry(self):
        grid = Grid.regular([[-2.75, 7.25], [-2.75, 7.25]], [20, 20])
        comps = [
            dict(weight=0.4, mean=(1.0, 3.0), cov=COV),
            dict(weight=0.6, mean=(3.0, 2.0), cov=COV),
        ]
        swapped = [comps[1], comps[0]]
        m1 = GaussianMixtureModel.from_reference_mixture(grid, comps, ["c0.weight"], comps)
        m2 = GaussianMixtureModel.from_reference_mixture(grid, swapped, ["c0.weight"], swapped)
        np.testing.assert_allclose(
            m1.density(np.array([0.4])), m2.density(np.array([0.6])), atol=1e-14
        )

    def test_density_positive(self):
        model = make_model()
        assert model.density(np.array([5.0, 3.0])).min() > 0.0

    def test_quadrature_near_one(self):
        # Cell-area-weighted sum of a normalized density over the domain.
        model = make_model(interior=(72, 72))
        rho = model.density(np.array([2.0, 2.0]))
        total = rho.sum() * np.prod(model.grid.spacings)
        assert abs(total - 1.0) < 1e-3


class TestJacobian:
    def test_zero_at_component_mean(self):
        grid = Grid.regular([[-3.0, 5.0], [-3.0, 5.0]], [31, 31])
        model = GaussianMixtureModel.from_reference_mixture(
            grid,
            [dict(weight=1.0, mean=(1.0, 1.0), cov=COV)],
            ["c0.mean.0", "c0.mean.1"],
            [dict(weight=1.0, mean=(1.0, 1.0), cov=COV)],
        )
        theta = np.array([1.0, 1.0])
        pts = grid.points()
        at_peak = np.argmin(np.abs(pts - theta).sum(axis=1))
        z = model.jacobian(theta)
        np.testing.assert_allclose(z[at_peak, :], [0.0, 0.0], atol=1e-14)

    def test_matches_finite_differences(self):
        model = make_model(free=("c0.mean.0", "c0.mean.1", "c0.weight"))
        theta = np.array([4.5, 2.5, 0.25])
        z = model.jacobian(theta)
        h = 1e-5
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd = (model.density(theta + e) - model.density(theta - e)) / (2 * h)
            rel = np.linalg.norm(z[:, j] - fd) / np.linalg.norm(fd)
            assert rel < 1e-6

    def test_weight_column_is_component_density(self):
        grid = Grid.regular([[-2.75, 7.25], [-2.75, 7.25]], [20, 20])
        comps = [
            dict(weight=0.5, mean=(1.0, 3.0), cov=COV),
            dict(weight=0.5, mean=(3.0, 2.0), cov=COV),
        ]
        model = GaussianMixtureModel.from_reference_mixture(grid, comps, ["c0.weight"], comps)
        z = model.jacobian(np.array([0.5]))
        lone = GaussianMixtureModel.from_reference_mixture(
            grid, [dict(weight=1.0, mean=(1.0, 3.0), cov=COV)], ["c0.weight"],
            comps,
        )
        np.testing.assert_allclose(z[:, 0], lone.density(np.array([1.0])), atol=1e-13)


def einsum_density_and_jacobian(model, theta):
    """The density and Jacobian as first written: covariance inverse and
    determinant per evaluation, a three-operand einsum for the quadratic form."""

    def component(points, mean, cov):
        inv = np.linalg.inv(cov)
        det = np.linalg.det(cov)
        diff = points - mean
        quad = np.einsum("ni,ij,nj->n", diff, inv, diff)
        return np.exp(-0.5 * quad) / (2.0 * np.pi * np.sqrt(det))

    weights = [c.weight for c in model.components]
    means = [np.asarray(c.mean, dtype=float).copy() for c in model.components]
    covs = [np.asarray(c.cov, dtype=float) for c in model.components]
    for value, (comp, kind, axis) in zip(theta, model.free):
        if kind == "weight":
            weights[comp] = value
        else:
            means[comp][axis] = value
    points = model.grid.points()
    rho = np.zeros(model.grid.size)
    for w, mu, cov in zip(weights, means, covs):
        rho += w * component(points, mu, cov)
    z = np.empty((model.grid.size, model.param_dim))
    for j, (comp, kind, axis) in enumerate(model.free):
        dens = component(points, means[comp], covs[comp])
        if kind == "weight":
            z[:, j] = dens
        else:
            inv = np.linalg.inv(covs[comp])
            diff = points - means[comp]
            z[:, j] = weights[comp] * dens * (diff @ inv[:, axis])
    return rho, z


def random_mixture(rng, free, n_components=3):
    """Mixture with random non-diagonal SPD covariances on a 72x72 grid."""
    grid = Grid.regular([[-2.75, 7.25], [-2.75, 7.25]], (72, 72))
    comps = []
    for _ in range(n_components):
        a = rng.standard_normal((2, 2))
        cov = a @ a.T + 0.3 * np.eye(2)
        cov = 0.5 * (cov + cov.T)
        comps.append(dict(weight=float(rng.uniform(0.1, 1.0)),
                          mean=tuple(rng.uniform(0.0, 4.0, 2)),
                          cov=tuple(map(tuple, cov))))
    return GaussianMixtureModel.from_reference_mixture(grid, comps, free, comps[::-1])


FREE_ALL_KINDS = ["c0.weight", "c0.mean.0", "c0.mean.1", "c1.mean.1", "c2.weight"]


def free_values(model) -> np.ndarray:
    """The free parameters' values in the model's components."""
    comps = model.components
    return np.array([
        comps[c].weight if kind == "weight" else comps[c].mean[axis] for c, kind, axis in model.free
    ])


class TestSharedDensities:
    def test_bit_identical_to_einsum_transcription(self, rng):
        for _ in range(5):
            model = random_mixture(rng, FREE_ALL_KINDS)
            theta = free_values(model) + 0.3 * rng.standard_normal(model.param_dim)
            rho = model.solve_forward(theta)
            want_rho, want_z = einsum_density_and_jacobian(model, theta)
            assert np.array_equal(rho, want_rho)
            assert np.array_equal(model.density(theta), want_rho)
            assert np.array_equal(model.jacobian(theta), want_z)  # cached theta
            other = theta + 0.1
            want_rho, want_z = einsum_density_and_jacobian(model, other)
            assert np.array_equal(model.jacobian(other), want_z)  # uncached theta
            assert np.array_equal(model.density(other), want_rho)

    def test_reference_bit_identical_to_einsum_transcription(self, rng):
        model = random_mixture(rng, ["c0.weight"])
        ref = GaussianMixtureModel(model.grid, model.components[::-1], ["c0.weight"],
                                   np.zeros(model.grid.size))
        want, _ = einsum_density_and_jacobian(ref, free_values(ref))
        assert np.array_equal(model.reference, want)

    def test_jacobian_reuses_forward_densities(self, rng, monkeypatch):
        model = random_mixture(rng, FREE_ALL_KINDS)
        calls = []
        original = gaussian_mixture._component_density

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(gaussian_mixture, "_component_density", counting)
        theta = free_values(model) + 0.2
        model.solve_forward(theta)
        assert len(calls) == 3  # one per component
        before = model.propagation_counter
        calls.clear()
        model.jacobian(theta)
        assert len(calls) == 0 and model.propagation_counter == before
        # Elsewhere each freed component (c0, c1, c2) is evaluated once.
        model.jacobian(theta + 0.1)
        assert len(calls) == 3 and model.propagation_counter == before

    @pytest.mark.parametrize(
        "free",
        [["c1.mean.1", "c1.weight", "c1.mean.0"],
         ["c0.mean.0", "c2.mean.1", "c0.weight", "c0.mean.1", "c2.weight"]],
        ids=["one-component-all-kinds", "interleaved-components"],
    )
    def test_shared_intermediates_bit_identical(self, rng, free):
        # A component with its weight and both mean coordinates freed shares
        # weight x density and its centred points across its columns.
        model = random_mixture(rng, free)
        assert all(c.cov[0][1] != 0.0 for c in model.components)
        theta = free_values(model) + 0.2 * rng.standard_normal(model.param_dim)
        _, want = einsum_density_and_jacobian(model, theta)
        off_cache = model.jacobian(theta)
        model.solve_forward(theta)
        on_cache = model.jacobian(theta)
        assert np.array_equal(off_cache, want)
        assert np.array_equal(on_cache, off_cache)
        assert on_cache.flags.c_contiguous  # Z^T grad_rho rounds by layout

    def test_centred_points_built_once_per_component(self, rng, monkeypatch):
        model = random_mixture(rng, ["c0.mean.0", "c1.weight", "c0.mean.1", "c2.mean.1"])
        calls = []
        original = gaussian_mixture._centred
        monkeypatch.setattr(gaussian_mixture, "_centred",
                            lambda *a: calls.append(1) or original(*a))
        model.jacobian(free_values(model))
        assert len(calls) == 2  # c0 and c2; a weight column needs none

    def test_fixed_component_evaluated_once(self, rng, monkeypatch):
        # No free parameter references c1, so its density never changes.
        model = random_mixture(rng, ["c0.mean.0", "c2.weight"])
        calls = []
        original = gaussian_mixture._component_density
        monkeypatch.setattr(gaussian_mixture, "_component_density",
                            lambda *a: calls.append(1) or original(*a))
        for step in range(3):
            theta = free_values(model) + 0.1 * step
            want_rho, want_z = einsum_density_and_jacobian(model, theta)
            assert np.array_equal(model.solve_forward(theta), want_rho)
            assert np.array_equal(model.jacobian(theta), want_z)
        assert len(calls) == 1 + 3 * 2  # c1 once; c0 and c2 at every forward solve

    def test_reset_accounting_drops_shared_densities(self, rng, monkeypatch):
        model = random_mixture(rng, ["c1.mean.0"])
        theta = free_values(model)
        model.solve_forward(theta)
        model.reset_accounting()
        calls = []
        original = gaussian_mixture._component_density
        monkeypatch.setattr(gaussian_mixture, "_component_density",
                            lambda *a: calls.append(1) or original(*a))
        model.jacobian(theta)
        assert len(calls) == 1


class TestLossAndGrads:
    def test_zero_at_reference(self):
        grid = Grid.regular([[-2.75, 7.25], [-2.75, 7.25]], [20, 20])
        comps = [
            dict(weight=0.3, mean=(1.0, 3.0), cov=COV),
            dict(weight=0.7, mean=(3.0, 2.0), cov=COV),
        ]
        model = GaussianMixtureModel.from_reference_mixture(
            grid, comps, ["c0.mean.0", "c0.mean.1"], comps
        )
        theta = np.array([1.0, 3.0])
        loss, grad_rho = model.loss_and_grad_rho(model.solve_forward(theta))
        grad_theta = model.jacobian(theta).T @ grad_rho
        assert loss <= 1e-24
        np.testing.assert_allclose(grad_theta, [0.0, 0.0], atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        model = make_model()
        theta = np.array([5.0, 3.0])
        _, grad_rho = model.loss_and_grad_rho(model.solve_forward(theta))
        grad_theta = model.jacobian(theta).T @ grad_rho
        h = 1e-6
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            f_plus = model.loss_and_grad_rho(model.solve_forward(theta + e))[0]
            f_minus = model.loss_and_grad_rho(model.solve_forward(theta - e))[0]
            fd = (f_plus - f_minus) / (2 * h)
            assert abs(fd - grad_theta[j]) / max(abs(fd), 1e-12) < 1e-5

    def test_misfit_symmetric_in_model_and_reference(self):
        model = make_model()
        theta = np.array([5.0, 3.0])
        rho = model.density(theta)
        loss_forward = model.loss_and_grad_rho(rho)[0]
        swapped = 0.5 * float((model.reference - rho) @ (model.reference - rho))
        assert abs(loss_forward - swapped) <= 1e-14 * max(loss_forward, 1.0)


class TestValidation:
    def test_non_spd_covariance_rejected(self):
        grid = Grid.regular([[-1, 1], [-1, 1]], [4, 4])
        with pytest.raises(ValueError):
            GaussianMixtureModel.from_reference_mixture(
                grid,
                [dict(weight=1.0, mean=(0, 0), cov=((1.0, 2.0), (2.0, 1.0)))],
                ["c0.weight"],
                [dict(weight=1.0, mean=(0, 0), cov=COV)],
            )

    def test_negative_weight_rejected(self):
        grid = Grid.regular([[-1, 1], [-1, 1]], [4, 4])
        with pytest.raises(ValueError):
            GaussianMixtureModel.from_reference_mixture(
                grid,
                [dict(weight=-0.5, mean=(0, 0), cov=COV)],
                ["c0.weight"],
                [dict(weight=1.0, mean=(0, 0), cov=COV)],
            )
