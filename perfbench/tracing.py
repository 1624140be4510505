"""Span tracing of natgrad's layers from outside the program.

``Tracer.install()`` replaces each public layer function (or method) listed in
``LAYERS`` with a wrapper that records a span: name, start, end, parent span
and run id. Functions are replaced in every loaded ``natgrad`` module that
holds them by name, so both ``natgrad.linalg.cg_solve`` and the
``natgrad.solver.cg_solve`` it was imported as are traced. Spans stay in
memory; ``summary()`` turns them into per-layer self times, calls and counts.

A layer's self time is its span duration minus the time its child spans
cover. A span directly inside a span of the same name (a ``BlockMetric``
action calling the per-panel ``MetricOperator`` action) is not counted as a
call. Nothing inside ``config.load_experiment`` is traced: set-up is one span.
"""

from __future__ import annotations

import importlib
import sys
import time
import tracemalloc
from collections import defaultdict

# (span name, module, attribute or Class.method)
LAYERS = (
    ("config.load_experiment", "natgrad.config", "load_experiment"),
    ("fields.write_field", "natgrad.fields", "write_field"),
    ("wave.solve_forward", "natgrad.models.wave", "WaveFwiModel.solve_forward"),
    ("wave.apply_drho_h_inverse", "natgrad.models.wave",
     "WaveFwiModel.apply_drho_h_inverse"),
    ("wave.apply_drho_h_transpose_inverse", "natgrad.models.wave",
     "WaveFwiModel.apply_drho_h_transpose_inverse"),
    ("wave.apply_dtheta_h", "natgrad.models.wave", "WaveFwiModel.apply_dtheta_h"),
    ("wave.apply_dtheta_h_transpose", "natgrad.models.wave",
     "WaveFwiModel.apply_dtheta_h_transpose"),
    ("mixture.solve_forward", "natgrad.models.gaussian_mixture",
     "GaussianMixtureModel.solve_forward"),
    ("mixture.jacobian", "natgrad.models.gaussian_mixture",
     "GaussianMixtureModel.jacobian"),
    ("metrics.build", "natgrad.solver", "build_metric_for_model"),
    ("metrics.refresh", "natgrad.metrics", "MetricOperator.refresh"),
    ("metrics.refresh", "natgrad.metrics", "BlockMetric.refresh"),
    ("metrics.apply_LtL", "natgrad.metrics", "MetricOperator.apply_LtL"),
    ("metrics.apply_LtL", "natgrad.metrics", "BlockMetric.apply_LtL"),
    ("metrics.apply_Lt_pinv", "natgrad.metrics", "MetricOperator.apply_Lt_pinv"),
    ("metrics.apply_Lt_pinv", "natgrad.metrics", "BlockMetric.apply_Lt_pinv"),
    ("metrics.apply_L_matrix", "natgrad.metrics", "MetricOperator.apply_L_matrix"),
    ("metrics.apply_L_matrix", "natgrad.metrics", "BlockMetric.apply_L_matrix"),
    ("metrics.project_state_gradient", "natgrad.metrics",
     "MetricOperator.project_state_gradient"),
    ("metrics.project_state_gradient", "natgrad.metrics",
     "BlockMetric.project_state_gradient"),
    ("grids.build_weighted_divergence", "natgrad.grids", "build_weighted_divergence"),
    ("grids.apply_pinv", "natgrad.grids", "WeightedDivergence.apply_pinv"),
    ("grids.apply_gram_pinv", "natgrad.grids", "WeightedDivergence.apply_gram_pinv"),
    ("linalg.cg_solve", "natgrad.linalg", "cg_solve"),
    ("linalg.solve_least_squares_min_norm", "natgrad.linalg",
     "solve_least_squares_min_norm"),
    ("solver.optimize", "natgrad.solver", "optimize"),
    ("solver.direction_explicit", "natgrad.solver", "direction_explicit"),
    ("solver.direction_implicit", "natgrad.solver", "direction_implicit"),
    ("solver.gl_action", "natgrad.solver", "gl_action"),
    ("solver.gradient_adjoint", "natgrad.solver", "gradient_adjoint"),
    ("solver.assemble_jacobian", "natgrad.solver", "assemble_jacobian"),
    ("solver.line_search", "natgrad.solver", "line_search"),
)

# Wave solves whose propagation_counter delta is the propagation count by kind.
PROPAGATION_KIND = {
    "wave.solve_forward": "forward",
    "wave.apply_drho_h_inverse": "linearized",
    "wave.apply_drho_h_transpose_inverse": "adjoint",
}
SETUP = "config.load_experiment"
ROOT = "run"


def _counts(name, result) -> dict:
    """Counts read from the value the wrapped call returned."""
    if name == "linalg.cg_solve":
        return {"iterations": result.iterations, "converged": int(result.converged)}
    if name == "solver.line_search":
        return {"trials": result.n_evals, "accepted": int(not result.stagnated)}
    if name == "grids.build_weighted_divergence":
        return {f"backend.{result.backend}": 1,
                "rank_deficient": int(result.rank_deficient)}
    if name == "solver.optimize":
        return {"iterations": len(result.records) - 1}
    return {}


def _replace(layers, make_wrapper) -> None:
    """Swap each target for make_wrapper(name, original), at every binding."""
    for name, module, attr in layers:
        mod = importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, make_wrapper(name, cls.__dict__[meth]))
            continue
        original = getattr(mod, attr)
        wrapper = make_wrapper(name, original)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").startswith("natgrad"):
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, wrapper)


class Tracer:
    """In-memory span recorder over natgrad's layer functions."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index, counts]
        self._stack = []
        self._in_setup = False

    def install(self) -> None:
        _replace(LAYERS, self._wrap)

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._in_setup:
                return fn(*args, **kwargs)
            pre = args[0].propagation_counter if name in PROPAGATION_KIND else None
            span = tracer.open(name)
            tracer._in_setup = name == SETUP
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._in_setup = False
                tracer.close(span)
                if pre is not None:
                    # Also charged when the solve raises (a rejected trial).
                    span[4] = {"propagations": args[0].propagation_counter - pre}
            if pre is None:
                span[4] = _counts(name, result)
            return result

        return traced

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), None, parent, {}]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def dump_lines(self):
        """One JSON-ready dict per span, in start order."""
        for i, (name, start, end, parent, counts) in enumerate(self.spans):
            yield {"id": i, "run": self.run_id, "name": name, "start": start,
                   "end": end, "parent": parent, **counts}

    def summary(self) -> dict:
        """Per-layer {calls, self_s, counts...}; the root's self time is
        'unattributed' and traced wall time excludes set-up."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers = defaultdict(lambda: defaultdict(int))
        wall = 0.0
        for i, (name, start, end, parent, counts) in enumerate(self.spans):
            own = (end - start) - child_time[i]
            if name == ROOT:
                layers["unattributed"]["self_s"] += own
                wall += end - start
                continue
            if name == SETUP:
                wall -= end - start
            row = layers[name]
            row["self_s"] += own
            if parent < 0 or self.spans[parent][0] != name:
                row["calls"] += 1
            for key, value in counts.items():
                row[key] += value
        return {"wall_s": wall, "layers": {k: dict(v) for k, v in layers.items()}}


class AllocProbe:
    """tracemalloc peak of the first timed call of each probed layer.

    tracemalloc runs only inside the probed call, so the rest of the run is
    untouched; the probe stops the run once every layer has been measured.
    """

    PROBED = (
        ("wave.solve_forward", "natgrad.models.wave", "WaveFwiModel.solve_forward"),
        ("solver.gl_action", "natgrad.solver", "gl_action"),
    )

    class Done(Exception):
        """Raised once every probed layer has a measurement."""

    def __init__(self):
        self.peak_mib = {}
        self._in_setup = False

    def install(self) -> None:
        _replace(self.PROBED + ((SETUP, "natgrad.config", "load_experiment"),),
                 self._wrap)

    def _wrap(self, name, fn):
        probe = self

        def probed(*args, **kwargs):
            if name == SETUP:
                probe._in_setup = True
                try:
                    return fn(*args, **kwargs)
                finally:
                    probe._in_setup = False
            if probe._in_setup or name in probe.peak_mib:
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
                probe.peak_mib[name] = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
            if len(probe.peak_mib) == len(probe.PROBED):
                raise AllocProbe.Done
            return result

        return probed
