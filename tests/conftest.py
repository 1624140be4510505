"""Shared fixtures: small grids and models reused across test modules."""

import numpy as np
import pytest

from natgrad import Grid, LinearToyModel, WaveFwiModel, ricker_wavelet


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def grid_2d():
    """Small even-interior 2D grid (weighted divergence is full rank)."""
    return Grid.regular([[0.0, 1.0], [0.0, 1.0]], [6, 6])


@pytest.fixture
def toy_model():
    """Random positive linear model: k=50, p=10, strictly positive states."""
    model, theta_true = LinearToyModel.random_positive(50, 10, seed=7)
    return model, theta_true


def make_wave_model(nx=8, nz=8, n_t=120, dt=0.4, n_sources=1, peak_freq=0.1):
    wavelet = ricker_wavelet(n_t, dt, peak_freq)
    xs = np.linspace(0, nx - 1, n_sources + 2)[1:-1].round().astype(int)
    model = WaveFwiModel(
        cells=(nx, nz),
        spacing=(1.0, 1.0),
        dt=dt,
        sources=[(int(x), 0) for x in xs],
        receivers=[(ix, 0) for ix in range(nx)],
        wavelet=wavelet,
        sponge_width=10,
    )
    m_true = np.full((nx, nz), 1.0)
    m_true[:, nz // 2 :] = 1.44
    model.generate_reference(m_true.ravel())
    return model, m_true.ravel()


@pytest.fixture
def wave_model():
    return make_wave_model()
