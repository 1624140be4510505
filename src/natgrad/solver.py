"""Descent-direction solvers and the optimization loop.

Every direction solves min || pinv(L^T) grad_rho_f + (L Z) eta ||, damped by
sqrt(lambda) rows of a regularizer (the identity or another metric's L).
``direction_rule`` fixes once per run what computes it:

    route     approximation  grad_theta     Z source                solve
    any       metric 'gd'    by route       none                    eta = -grad_theta
    explicit  none           Z^T grad_rho   model.jacobian          QR
    explicit  minibatch      Z^T grad_rho   jacobian, sampled rows  QR on those rows
    explicit  hutchinson     Z^T grad_rho   Hutchinson estimate     QR
    implicit  none           adjoint solve  none                    CG, projected rhs
    implicit  hutchinson     adjoint solve  Hutchinson estimate     QR

QR (``direction_explicit``) falls through to a pivoted minimum-norm solve on
rank-deficient stacks; CG (``direction_implicit``) applies the information
matrix by one linearized and one adjoint solve per product. ``explicit_route``
checks what each row needs from the model and the config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import _CHUNK, Grid, integer
from .linalg import cg_solve, solve_least_squares_min_norm
from .metrics import MetricKind, MetricOperator

GD_LABEL = "gd"


@dataclass
class NgdConfig:
    """Knobs for the descent loop. metric='gd' selects plain gradient descent."""

    metric: str = "l2"
    damping_lambda: float = 0.0
    damping_metric: str | None = None
    cg_tol: float = 1e-8
    cg_max_iter: int | None = None
    rank_tol: float = 1e-10
    step0: float = 1.0
    ls_shrink: float = 0.5
    ls_max_halvings: int = 40
    sufficient_decrease: float = 0.0
    fixed_step: bool = False
    max_iters: int = 50
    max_propagations: int | None = None
    minibatch_size: int | None = None
    hutchinson_m: int | None = None
    seed: int = 0
    path: str = "auto"  # auto | explicit | implicit

    def __post_init__(self):
        # Each range test is written so that NaN fails it.
        if not 0.0 < self.step0 < float("inf"):
            raise ValueError("step0 must be positive and finite")
        if not 0.0 < self.ls_shrink < 1.0:
            raise ValueError("ls_shrink must lie in (0, 1)")
        if not 0.0 <= self.damping_lambda < float("inf"):
            raise ValueError("damping_lambda must be nonnegative and finite")
        if not 0.0 < self.cg_tol < float("inf"):
            raise ValueError("cg_tol must be positive and finite")
        if not 0.0 < self.rank_tol < 1.0:
            raise ValueError("rank_tol must lie in (0, 1)")
        if not 0.0 <= self.sufficient_decrease < 1.0:
            raise ValueError("sufficient_decrease must lie in [0, 1)")
        if self.path not in ("auto", "explicit", "implicit"):
            raise ValueError(f"unknown path {self.path!r}")
        # The least value of each count; None (no cap, no sketch) is allowed
        # where the default is None.
        for name, least in (("max_iters", 0), ("max_propagations", 0), ("cg_max_iter", 1),
                            ("ls_max_halvings", 1), ("minibatch_size", 1),
                            ("hutchinson_m", 1), ("seed", 0)):
            value = getattr(self, name)
            if value is None and getattr(NgdConfig, name) is None:
                continue
            if integer(value, name) < least:
                raise ValueError(f"{name} must be at least {least}, not {value}")

    def metric_kind(self) -> MetricKind | None:
        return None if self.metric == GD_LABEL else MetricKind.parse(self.metric)

    def damping_kind(self) -> MetricKind | None:
        """The damping regularizer's metric; None selects the identity."""
        if self.damping_metric is None:
            return None
        return MetricKind.parse(self.damping_metric)


@dataclass(frozen=True)
class IterationRecord:
    """One accepted iteration of the descent loop."""

    iter: int
    loss: float
    grad_norm: float
    step: float
    propagations: int
    direction_norm: float
    # Outcome of the direction's CG solve; None on the routes without one.
    cg_iterations: int | None = None
    cg_converged: bool | None = None
    # The CG solve's change of the quadratic model, -1/2 b^T eta (not in
    # trace.csv).
    cg_model_decrease: float | None = None


def sample_sketch(k_prime: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Indices of k' distinct state rows, sampled without replacement: the
    row-selection sketch S with S S^T = I exactly."""
    if k_prime > k:
        raise ValueError(f"sketch size {k_prime} exceeds state size {k}")
    return rng.choice(k, size=k_prime, replace=False)


def direction_explicit(
    z,
    metric,
    grad_rho,
    rank_tol: float = 1e-10,
    damping_lambda: float = 0.0,
    damping_metric=None,
) -> np.ndarray:
    """Descent direction from the explicit Jacobian via (pivoted) QR.

    Solves min || pinv(L^T) grad_rho + (L Z) eta ||; with damping the stack is
    augmented by sqrt(lambda) rows of the regularizer (identity by default),
    which reproduces the damped normal equations exactly.

    The stack is one Fortran-ordered matrix, allocated once: L Z (and the
    damping metric's) is written into it one block of ``_CHUNK`` columns at
    a time, the width at which the metric actions' blocked products give
    the bits of a whole-Z product, and the identity's rows are written as
    they are. No full-size L Z exists beside it, and the QR factors the
    stack in place, so it is the route's one full-size least-squares matrix.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 2:
        raise ValueError(f"expected a 2D Jacobian, got shape {z.shape}")
    k, p = z.shape
    rhs = metric.apply_Lt_pinv(grad_rho) if metric is not None else np.asarray(grad_rho, float)
    damped = damping_lambda > 0.0
    extra = (p if damping_metric is None else k) if damped else 0
    y = np.empty((k + extra, p), order="F")
    top, bottom = y[:k], y[k:]
    if metric is None:
        top[...] = z
    if damped:
        root = math.sqrt(damping_lambda)
        rhs = np.concatenate([rhs, np.zeros(extra)])
        if damping_metric is None:
            bottom[...] = 0.0
            np.fill_diagonal(bottom, root)
    for j in range(0, p, _CHUNK):
        block = slice(j, j + _CHUNK)
        if metric is not None:
            top[:, block] = metric.apply_L_matrix(z[:, block])
        if damped and damping_metric is not None:
            np.multiply(damping_metric.apply_L_matrix(z[:, block]), root, out=bottom[:, block])
    return -solve_least_squares_min_norm(y, rhs, tol=rank_tol, _overwrite_a=True)


def gradient_adjoint(model, grad_rho) -> np.ndarray:
    """Parameter gradient via one adjoint solve: -d_theta h^T lam."""
    lam = model.apply_drho_h_transpose_inverse(grad_rho)
    return -model.apply_dtheta_h_transpose(lam)


def projected_gradient_adjoint(model, metric, grad_rho, grad_theta=None) -> np.ndarray:
    """Right-hand side Z^T proj(grad_rho) for the matrix-free normal equations.

    For metrics whose L^T drops directions (the homogeneous Sobolev family,
    or a rank-deficient transport divergence) the least-squares formulation
    only sees the projection of the state gradient onto range(L^T); feeding
    the raw parameter gradient to CG would solve a different system. When no
    projection is needed the precomputed grad_theta is reused.
    """
    if metric is not None and metric.needs_tangent_projection:
        return gradient_adjoint(model, metric.project_state_gradient(grad_rho))
    return gradient_adjoint(model, grad_rho) if grad_theta is None else grad_theta


def gl_action(model, metric, eta) -> np.ndarray:
    """Information-matrix action Z^T L^T L Z eta without forming Z.

    One linearized forward gives gamma = Z eta, the metric weights it, and one
    adjoint solve brings it back to parameter space.
    """
    gamma = model.apply_drho_h_inverse(model.apply_dtheta_h(-eta))
    weighted = metric.apply_LtL(gamma) if metric is not None else gamma
    lam = model.apply_drho_h_transpose_inverse(weighted)
    return -model.apply_dtheta_h_transpose(lam)


def direction_implicit(model, metric, grad_theta, cfg: NgdConfig, damping_metric=None):
    """Descent direction via conjugate gradient on the damped information action.

    Returns (eta, CgReport). Non-convergence is reported, not raised; the best
    iterate is still usable and the caller may damp and retry. The damping
    regularizer is the identity unless a second metric operator is given.
    """
    grad_theta = np.asarray(grad_theta, dtype=float)
    lam = cfg.damping_lambda

    def apply(eta):
        out = gl_action(model, metric, eta)
        if lam > 0.0:
            if damping_metric is None:
                out = out + lam * eta
            else:
                out = out + lam * gl_action(model, damping_metric, eta)
        return out

    report = cg_solve(apply, -grad_theta, tol=cfg.cg_tol, max_iter=cfg.cg_max_iter)
    return report.solution, report


def assemble_jacobian(model, theta) -> np.ndarray:
    """Dense Jacobian at theta, for the check oracles: the model's
    ``jacobian``, or the wave model's ``receiver_jacobian``, after a forward
    solve at theta (free when that solve is cached)."""
    model.solve_forward(theta)
    if model.has_explicit_jacobian:
        return model.jacobian(theta)
    return model.receiver_jacobian()


def hutchinson_jacobian(model, m: int, rng: np.random.Generator) -> np.ndarray:
    """Randomized Jacobian estimate (1/m) sum xi (Z^T xi)^T with Rademacher xi.

    Each probe costs one adjoint solve; the estimate plugs into the explicit
    direction solver as an opt-in approximation.
    """
    k = model.state_dim
    p = model.param_dim
    acc = np.zeros((k, p))
    for _ in range(m):
        xi = rng.integers(0, 2, size=k) * 2.0 - 1.0
        zt_xi = gradient_adjoint(model, xi)
        acc += np.outer(xi, zt_xi)
    return acc / m


@dataclass(frozen=True)
class LineSearchResult:
    tau: float
    n_evals: int
    stagnated: bool


def line_search(
    eval_loss, theta, eta, f0: float, cfg: NgdConfig, g_dot_eta: float = 0.0
) -> LineSearchResult:
    """Backtracking on pure monotone decrease (optional sufficient-decrease term).

    Tries tau = step0 * shrink^n and accepts the first trial that lowers the
    loss; exhausting the halvings returns tau = 0 with the stagnation flag set.
    """
    tau = cfg.step0
    for n in range(cfg.ls_max_halvings):
        f_new = eval_loss(theta + tau * eta)
        if f_new < f0 + cfg.sufficient_decrease * tau * g_dot_eta:
            return LineSearchResult(tau, n + 1, False)
        tau *= cfg.ls_shrink
    return LineSearchResult(0.0, cfg.ls_max_halvings, True)


@dataclass
class OptimizeResult:
    theta: np.ndarray
    records: list[IterationRecord]
    # Why the run stopped: one of the statuses listed under ``optimize``.
    status: str
    # Direction CG solves that stopped unconverged, accepted step or not.
    cg_unconverged: int = 0

    @property
    def final_loss(self) -> float:
        return self.records[-1].loss


def build_metric_for_model(model, kind, rho=None):
    """Metric operator of kind (a MetricKind or a name) on the model's metric
    domain at rho; state-free kinds ignore rho, state-dependent ones need it."""
    grid, panels = model.metric_domain
    return MetricOperator(kind, grid, rho, panels)


def explicit_route(model, cfg: NgdConfig) -> bool:
    """Check cfg against model; True when it takes the explicit route ('auto'
    does when the model has a Jacobian). Raises ValueError for a combination
    the model or an approximation cannot support, before any solve.
    """
    kind, damping = cfg.metric_kind(), cfg.damping_kind()
    auto_explicit = cfg.path == "auto" and model.has_explicit_jacobian
    explicit = cfg.path == "explicit" or auto_explicit
    if explicit and not model.has_explicit_jacobian:
        raise ValueError("explicit path requested but the model has no Jacobian")
    if not model.has_adjoint_actions and (not explicit or cfg.hutchinson_m is not None):
        raise ValueError("the implicit path and hutchinson_m need adjoint actions")
    if cfg.minibatch_size is not None:
        if not 0 < cfg.minibatch_size <= model.state_dim:
            raise ValueError(f"minibatch_size must lie in [1, {model.state_dim}]")
        if not explicit:
            raise ValueError("mini-batch sketching requires the explicit path")
        if kind is not None and kind.family not in ("l2", "fisher-rao"):
            raise ValueError("mini-batch sketching needs l2 or fisher-rao")
        if damping is not None:
            raise ValueError("mini-batch sketching does not support damping_metric")
    return explicit


def parameter_gradient(model, theta, grad_rho, explicit: bool):
    """grad_theta = Z^T grad_rho, with Z itself on the explicit route (else None)."""
    if explicit:
        z = model.jacobian(theta)
        return z.T @ grad_rho, z
    return gradient_adjoint(model, grad_rho), None


def direction_rule(model, cfg: NgdConfig):
    """The run's direction, chosen once from the model and cfg (module table).

    Returns direction(theta, grad_rho, metric, damping_metric) -> (eta,
    grad_theta, CgReport or None); raises as ``explicit_route`` does.
    """
    explicit = explicit_route(model, cfg)
    sketch_rng = np.random.default_rng([cfg.seed, 101])
    hutch_rng = np.random.default_rng([cfg.seed, 202])

    def steepest(theta, grad_rho, metric, damping_metric):
        grad_theta, _ = parameter_gradient(model, theta, grad_rho, explicit)
        return -grad_theta, grad_theta, None

    def least_squares(theta, grad_rho, metric, damping_metric):
        grad_theta, z = parameter_gradient(model, theta, grad_rho, explicit)
        if cfg.hutchinson_m is not None:
            z = hutchinson_jacobian(model, cfg.hutchinson_m, hutch_rng)
        if cfg.minibatch_size is not None:
            idx = sample_sketch(cfg.minibatch_size, model.state_dim, sketch_rng)
            z, grad_rho = z[idx], grad_rho[idx]
            metric = _sketched_metric(metric, idx)
        eta = direction_explicit(
            z, metric, grad_rho, cfg.rank_tol, cfg.damping_lambda, damping_metric
        )
        return eta, grad_theta, None

    def conjugate_gradient(theta, grad_rho, metric, damping_metric):
        grad_theta, _ = parameter_gradient(model, theta, grad_rho, explicit)
        rhs = projected_gradient_adjoint(model, metric, grad_rho, grad_theta)
        eta, report = direction_implicit(model, metric, rhs, cfg, damping_metric)
        return eta, grad_theta, report

    if cfg.metric_kind() is None:
        return steepest
    if explicit or cfg.hutchinson_m is not None:
        return least_squares
    return conjugate_gradient


def optimize(model, theta0, cfg: NgdConfig, callback=None) -> OptimizeResult:
    """Run the descent loop from theta0 under cfg.

    The direction rule is fixed before the first forward solve. The loop
    refreshes state-dependent metrics at every iterate. ``status`` names the
    stop: max_iters, budget (max_propagations spent as an iteration begins),
    or, with no record, line_search_stalled, zero_direction (an exactly zero
    direction) or infeasible_step (a fixed step to a non-finite loss, off the
    feasible set). The trajectory is always returned. ``callback``, if given,
    is invoked as callback(iteration, theta) after each accepted step.
    """
    direction = direction_rule(model, cfg)
    theta = np.asarray(theta0, dtype=float).copy()
    records: list[IterationRecord] = []
    status = "max_iters"
    cg_unconverged = 0

    def eval_loss(candidate):
        # Infeasible candidates (e.g. non-finite entries, nonpositive medium,
        # CFL violation, blowup) count as rejected trials, not hard failures;
        # a non-finite one never reaches the model, so it is not charged.
        if not np.all(np.isfinite(candidate)):
            return math.inf
        try:
            rho_c = model.solve_forward(candidate)
        except (ValueError, RuntimeError):
            return math.inf
        return model.loss_and_grad_rho(rho_c)[0]

    rho = model.solve_forward(theta)
    loss, grad_rho = model.loss_and_grad_rho(rho)
    records.append(
        IterationRecord(0, loss, float("nan"), 0.0, model.propagation_counter, 0.0)
    )
    metric = _metric_at(model, cfg.metric_kind(), rho)
    # Steepest descent ignores damping: build and refresh no regularizer.
    damping_kind = None if metric is None else cfg.damping_kind()
    damping_metric = _metric_at(model, damping_kind, rho)

    for it in range(1, cfg.max_iters + 1):
        if (
            cfg.max_propagations is not None
            and model.propagation_counter >= cfg.max_propagations
        ):
            status = "budget"
            break
        if it > 1:
            metric = _refresh(model, metric, rho)
            damping_metric = _refresh(model, damping_metric, rho)

        eta, grad_theta, cg = direction(theta, grad_rho, metric, damping_metric)
        if cg is not None and not cg.converged:
            cg_unconverged += 1
        grad_norm = float(np.linalg.norm(grad_theta))
        if not eta.any():
            # No step can change theta: stop without a record.
            status = "zero_direction"
            break

        # No accepted step: stop without a record so the trace stays
        # strictly decreasing.
        if cfg.fixed_step:
            tau = cfg.step0
            if not math.isfinite(eval_loss(theta + tau * eta)):
                status = "infeasible_step"
                break
        else:
            result = line_search(
                eval_loss, theta, eta, loss, cfg, g_dot_eta=float(grad_theta @ eta)
            )
            if result.stagnated:
                status = "line_search_stalled"
                break
            tau = result.tau

        theta = theta + tau * eta
        rho = model.solve_forward(theta)
        loss, grad_rho = model.loss_and_grad_rho(rho)
        records.append(
            IterationRecord(
                it, loss, grad_norm, tau,
                model.propagation_counter, float(np.linalg.norm(eta)),
                None if cg is None else cg.iterations,
                None if cg is None else cg.converged,
                None if cg is None else cg.model_decrease,
            )
        )
        if callback is not None:
            callback(it, theta)

    return OptimizeResult(
        theta=theta, records=records, status=status, cg_unconverged=cg_unconverged
    )


def _metric_at(model, kind, rho):
    """The metric of kind on the model's metric domain at rho (None for None)."""
    if kind is None:
        return None
    return build_metric_for_model(model, kind, model.metric_state(rho))


def _refresh(model, metric, rho):
    """Rebuild a state-dependent metric at rho; state-free metrics are kept."""
    if metric is None or not metric.state_dependent:
        return metric
    return metric.refresh(model.metric_state(rho))


def _sketched_metric(metric, idx):
    """Restriction of a diagonal metric to the sketched rows (None for l2)."""
    if metric is None or metric.kind.family == "l2":
        return None
    return MetricOperator(metric.kind, Grid.index_space([idx.size]), metric.rho[idx])
