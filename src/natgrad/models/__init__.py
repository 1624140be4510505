"""Forward models: explicit-Jacobian and constraint-based (adjoint) regimes."""

from .base import ForwardModel
from .gaussian_mixture import GaussianComponent, GaussianMixtureModel
from .linear_toy import LinearToyModel
from .wave import WaveFwiModel, ricker_wavelet

__all__ = [
    "ForwardModel",
    "GaussianComponent",
    "GaussianMixtureModel",
    "LinearToyModel",
    "WaveFwiModel",
    "ricker_wavelet",
]
