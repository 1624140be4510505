"""Command-line experiment runner.

    natgrad run     -c config.json [--seed N] [--out DIR]
    natgrad compare -c config.json -m gd,l2,w2 [--seed N] [--out DIR]
    natgrad check   -c config.json [--seed N]

`run` executes one optimization and writes trace.csv, theta snapshots, and the
final parameter field. `compare` repeats the run for several metrics with a
shared model and seed and writes a summary table. `check` runs the model's
verification oracles (finite-difference gradient, adjoint dot product,
explicit/implicit direction agreement, information-matrix identity).

Exit codes: 0 success, 1 config/IO error or a route the model cannot take,
2 stagnation before max_iters (a line search that finds no decrease, or an
exactly zero direction), 3 failed verification check.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ConfigError, Experiment, load_experiment
from .fields import write_field
from .grids import Grid
from .metrics import MetricKind, MetricOperator
from .solver import (
    GD_LABEL,
    NgdConfig,
    OptimizeResult,
    assemble_jacobian,
    build_metric_for_model,
    direction_explicit,
    direction_implicit,
    explicit_route,
    optimize,
    parameter_gradient,
    projected_gradient_adjoint,
)

TRACE_COLUMNS = ("iter", "propagations", "loss", "grad_norm", "step", "direction_norm")


def _write_trace(path: Path, records) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for r in records:
            writer.writerow(
                [r.iter, r.propagations, repr(r.loss), repr(r.grad_norm),
                 repr(r.step), repr(r.direction_norm)]
            )


def _run_single(exp: Experiment, out_dir: Path) -> OptimizeResult:
    out_dir.mkdir(parents=True, exist_ok=True)
    callback = None
    if exp.snapshot_every > 0:
        write_field(out_dir / "theta_iter0000.f64", exp.theta0)

        def callback(it, theta):
            if it % exp.snapshot_every == 0:
                write_field(out_dir / f"theta_iter{it:04d}.f64", theta)

    result = optimize(exp.model, exp.theta0, exp.solver, callback=callback)
    _write_trace(out_dir / "trace.csv", result.records)
    write_field(out_dir / "theta_final.f64", result.theta)
    if result.cg_unconverged:
        print(
            f"warning: {exp.solver.metric}: {result.cg_unconverged} CG direction "
            f"solve(s) stopped before reaching cg_tol {exp.solver.cg_tol:g}",
            file=sys.stderr,
        )
    if result.zero_direction:
        print(
            f"warning: {exp.solver.metric}: the descent direction is exactly zero at "
            f"iteration {len(result.records)}; the run stopped there",
            file=sys.stderr,
        )
    return result


def cmd_run(args) -> int:
    try:
        exp = load_experiment(args.config, args.seed, args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = _run_single(exp, exp.output_dir)
    print(
        f"{exp.solver.metric}: {len(result.records) - 1} iterations, "
        f"final loss {result.final_loss:.6e}, "
        f"{result.records[-1].propagations} propagations"
    )
    return 2 if result.stagnated else 0


def cmd_compare(args) -> int:
    try:
        exp = load_experiment(args.config, args.seed, args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    if not metrics:
        print("error: no metrics given", file=sys.stderr)
        return 1
    # Every metric, step and route is checked before the first run writes anything.
    try:
        solvers = [replace(exp.solver, metric=name) for name in metrics]
        if args.steps:
            steps = [float(s) for s in args.steps.split(",")]
            if len(steps) != len(metrics):
                raise ValueError("--steps must match the metric list")
            solvers = [replace(sv, step0=step) for sv, step in zip(solvers, steps)]
        for solver in solvers:
            explicit_route(exp.model, solver)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    rows = []
    for name, solver in zip(metrics, solvers):
        sub = Experiment(
            model=exp.model, theta0=exp.theta0, solver=solver,
            output_dir=exp.output_dir / name.replace(":", "_"),
            snapshot_every=exp.snapshot_every,
            reference_point=exp.reference_point,
        )
        # Shared model: every run pays for its own first forward solve.
        sub.model.reset_accounting()
        result = _run_single(sub, sub.output_dir)
        row = {
            "metric": name,
            "final_loss": result.final_loss,
            "propagations": result.records[-1].propagations,
        }
        if exp.reference_point is not None:
            row["theta_distance"] = float(
                np.linalg.norm(result.theta - exp.reference_point)
            )
        rows.append(row)

    exp.output_dir.mkdir(parents=True, exist_ok=True)
    fieldnames = list(rows[0].keys())
    with open(exp.output_dir / "summary.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    width = max(len(r["metric"]) for r in rows)
    for r in rows:
        line = f"{r['metric']:<{width}}  loss={r['final_loss']:.6e}  props={r['propagations']}"
        if "theta_distance" in r:
            line += f"  dist={r['theta_distance']:.4f}"
        print(line)
    return 0


def _check_fd_gradient(model, theta0, rng) -> tuple[bool, str]:
    rho = model.solve_forward(theta0)
    _, grad_rho = model.loss_and_grad_rho(rho)
    explicit = model.has_explicit_jacobian
    grad_theta, _ = parameter_gradient(model, theta0, grad_rho, explicit)
    tol = 1e-5 if explicit else 1e-4
    idx = rng.choice(model.param_dim, size=min(5, model.param_dim), replace=False)
    h = 1e-5 * max(1.0, float(np.abs(theta0).max()))
    worst = 0.0
    for j in idx:
        e = np.zeros(model.param_dim)
        e[j] = h
        f_plus = model.loss_and_grad_rho(model.solve_forward(theta0 + e))[0]
        f_minus = model.loss_and_grad_rho(model.solve_forward(theta0 - e))[0]
        fd = (f_plus - f_minus) / (2 * h)
        scale = max(abs(fd), abs(grad_theta[j]), 1e-12)
        worst = max(worst, abs(fd - grad_theta[j]) / scale)
    # Restore the cache at theta0 for downstream checks.
    model.solve_forward(theta0)
    return worst < tol, f"max rel err {worst:.3e} (tol {tol:g})"


def _check_adjoint_dot(model, theta0, rng) -> tuple[bool, str]:
    model.solve_forward(theta0)
    probe = rng.standard_normal(model.state_dim)
    # Lazy adjoint fields re-run their solve on every conversion: convert once.
    lam = np.asarray(model.apply_drho_h_transpose_inverse(probe))
    u = rng.standard_normal(lam.shape)
    left = model.apply_drho_h_inverse(u) @ probe
    right = float(np.vdot(u, lam))
    rel = abs(left - right) / max(abs(left), abs(right), 1e-300)
    return rel < 1e-10, f"rel err {rel:.3e}"


def _check_direction_equivalence(model, theta0, metric_name) -> tuple[bool, str]:
    rho = model.solve_forward(theta0)
    _, grad_rho = model.loss_and_grad_rho(rho)
    metric = build_metric_for_model(model, metric_name, model.metric_state(rho))
    z = assemble_jacobian(model)
    # Damp both routes identically so CG converges on ill-conditioned models;
    # the scale is one information-matrix product Z^T L^T L Z probe, taken
    # from the assembled Z instead of a linearized and an adjoint solve.
    probe = np.full(model.param_dim, 1.0 / np.sqrt(model.param_dim))
    lam = 1e-4 * float(np.linalg.norm(z.T @ metric.apply_LtL(z @ probe)))
    cfg = NgdConfig(metric=metric_name, cg_tol=1e-12,
                    cg_max_iter=10 * model.param_dim, damping_lambda=lam)
    eta_explicit = direction_explicit(z, metric, grad_rho, damping_lambda=lam)
    grad_theta = projected_gradient_adjoint(model, metric, grad_rho)
    eta_implicit, _ = direction_implicit(model, metric, grad_theta, cfg)
    rel = np.linalg.norm(eta_explicit - eta_implicit) / max(
        np.linalg.norm(eta_explicit), 1e-300
    )
    return rel < 1e-6, f"rel err {rel:.3e}"


def _check_info_identity(metric_name, rng) -> tuple[bool, str]:
    grid = Grid.index_space([4, 4])
    rho = rng.uniform(0.5, 2.0, grid.size)
    # State-free metrics ignore the density.
    op = MetricOperator(MetricKind.parse(metric_name), grid, rho)
    z = rng.standard_normal((grid.size, 3))
    g = op.info_matrix(z).matrix
    entrywise = np.empty_like(g)
    cols = [op.apply_L(z[:, j]) for j in range(3)]
    for i in range(3):
        for j in range(3):
            entrywise[i, j] = cols[i] @ cols[j]
    err = np.abs(g - entrywise).max()
    return err < 1e-12, f"max abs err {err:.3e}"


def cmd_check(args) -> int:
    try:
        exp = load_experiment(args.config, args.seed, None)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    model, theta0 = exp.model, exp.theta0
    metric_name = exp.solver.metric if exp.solver.metric != GD_LABEL else "l2"
    rng = np.random.default_rng(exp.solver.seed)
    checks: list[tuple[str, bool, str]] = []

    ok, detail = _check_fd_gradient(model, theta0, rng)
    checks.append(("fd-gradient", ok, detail))

    if model.has_adjoint_actions:
        ok, detail = _check_adjoint_dot(model, theta0, rng)
        checks.append(("adjoint-dot-product", ok, detail))
        if model.param_dim <= 200:
            ok, detail = _check_direction_equivalence(model, theta0, metric_name)
            checks.append(("direction-equivalence", ok, detail))

    ok, detail = _check_info_identity(metric_name, rng)
    checks.append(("info-matrix-identity", ok, detail))

    all_ok = True
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        all_ok &= ok
    return 0 if all_ok else 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="natgrad", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one optimization from a config")
    run_p.add_argument("-c", "--config", required=True)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--out", default=None)
    run_p.set_defaults(func=cmd_run)

    cmp_p = sub.add_parser("compare", help="run several metrics on one model")
    cmp_p.add_argument("-c", "--config", required=True)
    cmp_p.add_argument("-m", "--metrics", required=True,
                       help="comma-separated metric names (gd, l2, fisher-rao, ...)")
    cmp_p.add_argument("--steps", default=None,
                       help="comma-separated step sizes, one per metric")
    cmp_p.add_argument("--seed", type=int, default=None)
    cmp_p.add_argument("--out", default=None)
    cmp_p.set_defaults(func=cmd_compare)

    chk_p = sub.add_parser("check", help="run the model verification oracles")
    chk_p.add_argument("-c", "--config", required=True)
    chk_p.add_argument("--seed", type=int, default=None)
    chk_p.set_defaults(func=cmd_check)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
