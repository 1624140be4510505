"""The model contract shared by every forward model: the forward cache."""

import numpy as np
import pytest

from natgrad.grids import Grid
from natgrad.models import GaussianMixtureModel, LinearToyModel, wave

from conftest import make_wave_model

COV = ((0.6, 0.0), (0.0, 0.6))


def _toy(monkeypatch):
    model, theta = LinearToyModel.random_positive(30, 4, seed=2)
    return model, theta


def _mixture(monkeypatch):
    grid = Grid.regular([[-2.75, 7.25], [-2.75, 7.25]], [24, 24])
    components = [dict(weight=0.3, mean=(1.0, 3.0), cov=COV),
                  dict(weight=0.7, mean=(3.0, 2.0), cov=COV)]
    model = GaussianMixtureModel.from_reference_mixture(
        grid, components, ["c0.mean.0", "c1.weight"], components)
    return model, np.array([1.5, 0.6])


def _wave_two_groups(monkeypatch):
    monkeypatch.setattr(wave, "usable_cpus", lambda: 2)
    model, _ = make_wave_model(24, 20, n_t=40, n_sources=3)
    assert model.n_groups == 2
    return model, np.full(model.param_dim, 1.1)


class TestForwardCache:
    @pytest.mark.parametrize("build", [_toy, _mixture, _wave_two_groups],
                             ids=["toy", "mixture", "wave-two-groups"])
    def test_contract(self, build, monkeypatch):
        model, theta = build(monkeypatch)
        state = model.solve_forward(theta)
        want, charged = state.copy(), model.propagation_counter
        assert charged > 0
        # A repeated solve at an equal theta charges nothing.
        again = model.solve_forward(theta.copy())
        assert np.array_equal(again, want) and model.propagation_counter == charged
        # The states handed out are copies: mutating them leaves the cache intact.
        state += 1.0
        again[:] = 0.0
        assert np.array_equal(model.solve_forward(theta), want)
        assert model.propagation_counter == charged
        # reset_accounting zeroes the counter and drops the cache.
        model.reset_accounting()
        assert model.propagation_counter == 0
        assert np.array_equal(model.solve_forward(theta), want)
        assert model.propagation_counter == charged
        # A wrong-length theta is rejected before anything is charged.
        with pytest.raises(ValueError, match=f"length {model.param_dim}"):
            model.solve_forward(theta[:-1])
        assert model.propagation_counter == charged
        assert np.array_equal(model.solve_forward(theta), want)
        assert model.propagation_counter == charged
