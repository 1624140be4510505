"""Natural-gradient descent via least squares, for explicit-Jacobian and
PDE-constrained models, over L2 / Sobolev / Fisher-Rao / transport metrics."""

from .grids import Grid, build_operator_set, build_weighted_divergence
from .linalg import CgReport, cg_solve, solve_least_squares_min_norm
from .metrics import MetricKind, MetricOperator
from .models import (
    GaussianComponent,
    GaussianMixtureModel,
    LinearToyModel,
    WaveFwiModel,
    ricker_wavelet,
)
from .solver import (
    IterationRecord,
    NgdConfig,
    OptimizeResult,
    assemble_jacobian,
    build_metric_for_model,
    direction_explicit,
    direction_implicit,
    gl_action,
    gradient_adjoint,
    hutchinson_jacobian,
    line_search,
    optimize,
    sample_sketch,
)

__all__ = [
    "Grid",
    "build_operator_set",
    "build_weighted_divergence",
    "CgReport",
    "cg_solve",
    "solve_least_squares_min_norm",
    "MetricKind",
    "MetricOperator",
    "GaussianComponent",
    "GaussianMixtureModel",
    "LinearToyModel",
    "WaveFwiModel",
    "ricker_wavelet",
    "IterationRecord",
    "NgdConfig",
    "OptimizeResult",
    "assemble_jacobian",
    "build_metric_for_model",
    "direction_explicit",
    "direction_implicit",
    "gl_action",
    "gradient_adjoint",
    "hutchinson_jacobian",
    "line_search",
    "optimize",
    "sample_sketch",
]

__version__ = "0.1.0"
