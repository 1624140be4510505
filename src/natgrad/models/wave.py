"""Acoustic wave model for full waveform inversion at desk scale.

Physics: m(x) u_tt - lap(u) = s with zero initial data, integrated by a
second-order leapfrog scheme on a padded grid. Absorption uses a sponge: each
step the new field is scaled by a damping profile d <= 1 (d = 1 in the
interior), which keeps every time step an explicit linear map, so the adjoint
solve is the exact transpose of the forward recursion and the dot-product
identity holds to machine precision.

One solved-form step (f is whatever space-time right-hand side drives it):

    u_next = d * (2 u - d * u_prev + (dt^2 / m) * (lap(u) + f))

which corresponds to the constraint, per time level n,

    h^n = (m / dt^2) (u^{n+1}/d - 2 u^n + d u^{n-1}) - lap(u^n) - f^n = 0.

Hence d_m h . eta injects eta * w with w the damped second time derivative of
the forward wavefield, and d_m h^T correlates adjoint fields with w (zero-lag,
summed over sources). Parameters are the interior model cells; the padded
ring replicates edge cells, and its transpose scatter-adds back.

The observed state is the stack of receiver traces over sources, one
(n_receivers x n_time) panel per source, flattened receiver-major. Constraint
fields carry a leading source axis, (n_sources, n_t, npx, npz).

Kernel layout: a group of sources marches as one flat buffer shaped
(n_group_sources, npx + 2, npz + 2), whose one-cell ghost ring is zero, so
the five-point neighbours of a cell are the flat offsets -1, +1 (z) and -W,
+W (x), W = npz + 2. With dt2m = dt^2 / m and r = dx^2 / dz^2, the step
folds into per-cell coefficients built once per model:

    c = cb b + cx (r (b[-1] + b[+1]) + b[-W] + b[+W]) - dd a + cs f,
    cb = d (2 - dt2m (2/dx^2 + 2/dz^2)), cx = cs / dx^2, dd = d^2, cs = d dt2m,

zero on the ghost ring, so the ghosts stay 0 and no neighbour wraps. Each
step is a handful of contiguous whole-batch ufuncs over the "core" range
(every cell but the first and last ghost row of the batch).

Every march runs that one kernel. Off the ghost ring, the step's map from b
to c is A = diag(cs) S with S symmetric: the neighbour sums are, and
cb = cs (2 / dt2m - 2/dx^2 - 2/dz^2) and cx = cs / dx^2 share the factor cs.
So A^T = diag(cs)^-1 A diag(cs), and as dd is diagonal, the reverse solve's
adjoint field carried as nu = cx * lbar (lbar the adjoint of a step's new
field) follows the forward recursion marched backward in time, with the trace
residual injected at the receivers scaled by cx. The adjoint fields that
correlate with u_tt are cs * lbar = dx^2 nu.

Every range a march writes starts on a 64-byte boundary (``_aligned_zeros``):
the core of each field buffer, the scratch and correlation buffers, and each
row of a time-major stack, whose row stride is rounded up to whole cache
lines. A vectorised ufunc whose output is misaligned splits stores across
cache lines; the values are the same either way. The forward cache keeps
only w, time-major in the same layout; the Born source and the adjoint
correlation are formed one step at a time inside the linearized and the
reverse solves, so neither stores more than per-step buffers.

Source groups: sources are independent in every march, so the model splits
them into contiguous groups that march at the same time, group 0 in the
calling process and each other group in a forked worker process that holds
its own u_tt stack and takes commands and arrays over a pipe. Every cell's
arithmetic is the same in any batch, so the results do not depend on the
split: traces are concatenated in source order and per-source correlations
are summed over sources in order.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..grids import Grid, integer
from .base import ForwardModel

# Fewest ghost-padded cells a source group marches: below it a split's fixed
# per-step overhead outweighs the second process (README has the sweep).
MIN_GROUP_CELLS = 1_000

# check_theta's bound: dt <= CFL_FACTOR * min(dx, dz) * sqrt(least squared slowness).
CFL_FACTOR = 0.5

# Most padded cells one block of receiver_jacobian's FFT products spans. A
# block holds whole parameters, so one parameter that replicates more cells
# (a sponge corner owns (sponge width + 1)^2) is a block of its own.
JACOBIAN_BLOCK_CELLS = 64


# Floats per 64-byte cache line: the alignment of every buffer a march writes.
_LINE = 8


def _aligned_zeros(size: int, lead: int = 0) -> np.ndarray:
    """Flat float zeros of the given size whose entry ``lead`` starts on a
    64-byte boundary: a slice of a buffer one cache line longer."""
    raw = np.zeros(size + _LINE)
    shift = (-(raw.ctypes.data + 8 * lead) % (8 * _LINE)) // 8
    return raw[shift:shift + size]


# A process waiting on a pipe polls it for up to this long before it blocks.
# On a virtual machine a CPU left idle goes back to the host, and waking it
# again can take milliseconds: after 20 ms idle, a pipe round trip between
# two processes took 0.4 ms in the median and 6 ms at p90 (2-core VM).
SPIN_S = 0.05


def _wait(conn) -> None:
    """Return once conn has data or is closed, polling for up to SPIN_S first."""
    deadline = time.perf_counter() + SPIN_S
    while time.perf_counter() < deadline:
        if conn.poll():
            return
    conn.poll(None)


def _positive(value, name: str) -> float:
    """value as a float, once it is positive and finite (NaN is neither)."""
    value = float(value)
    if not 0.0 < value < float("inf"):
        raise ValueError(f"{name} must be positive and finite, not {value}")
    return value


def ricker_wavelet(n_t: int, dt: float, peak_freq: float, delay: float | None = None):
    """Ricker wavelet samples; the delay defaults to 1.5 periods."""
    if n_t < 1:
        raise ValueError(f"the wavelet needs n_t >= 1 time steps, not {n_t}")
    peak_freq = _positive(peak_freq, "peak frequency")
    if delay is None:
        delay = 1.5 / peak_freq
    elif not np.isfinite(delay):
        raise ValueError(f"wavelet delay must be finite, not {delay}")
    t = dt * np.arange(n_t) - delay
    arg = (np.pi * peak_freq * t) ** 2
    return (1.0 - 2.0 * arg) * np.exp(-arg)


def usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def normalize_to_density(values) -> np.ndarray:
    """Affine shift-and-scale of arbitrary data onto a strictly positive density.

    Shifts by -min + 0.1 * (max - min), then scales to mean one
    (unit total mass under the unweighted quadrature, where each sample has
    unit cell measure). Mean-one rather than sum-one keeps density-weighted
    operators on the same scale as their unweighted counterparts regardless of
    the panel size. Flat inputs map to the uniform density.
    """
    v = np.asarray(values, dtype=float)
    spread = float(v.max() - v.min())
    if spread <= 1e-300:
        return np.ones(v.shape)
    shifted = v - v.min() + 0.1 * spread
    return shifted * (v.size / shifted.sum())


def source_group_count(n_sources: int, padded_cells: int) -> int:
    """How many source groups march at once: one per usable CPU, at most one
    per source, and each with at least MIN_GROUP_CELLS padded cells. Without
    ``fork`` every source marches in the calling process."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return max(1, min(usable_cpus(), n_sources, padded_cells // MIN_GROUP_CELLS))


class _Stencil(NamedTuple):
    """The model-dependent leapfrog coefficients on the core range."""

    cb: np.ndarray
    cx: np.ndarray
    cs: np.ndarray


def _parameter_blocks(edges) -> list[tuple[int, int]]:
    """(a, b) ranges that cover the parameters in order, parameter j owning
    cells edges[j] up to edges[j + 1]: each spans at most
    JACOBIAN_BLOCK_CELLS cells, or is one parameter that alone spans more."""
    bounds = [0]
    for j in range(1, len(edges) - 1):
        if edges[j + 1] - edges[bounds[-1]] > JACOBIAN_BLOCK_CELLS:
            bounds.append(j)
    bounds.append(len(edges) - 1)
    return list(zip(bounds[:-1], bounds[1:]))


def _interior(stack, batch) -> np.ndarray:
    """View of a time-major (n_t, flat batch) stack as (n_sources, n_t, npx,
    npz) fields: the ghost ring is dropped and the source axis moved first."""
    return stack.reshape(-1, *batch)[:, :, 1:-1, 1:-1].transpose(1, 0, 2, 3)


class _SourceGroup:
    """The leapfrog kernel of sources[first:stop], marched as one flat batch,
    and the batch's forward cache: the stencil and the u_tt stack.

    Every method takes one array (or None) and returns an array (or None),
    so it can run in the calling process or in a worker alike. It charges no
    propagations; the model does, one per source for each method in
    ``MARCHES``. Methods other than ``forward`` and ``reference`` read the
    cached forward solve.
    """

    MARCHES = frozenset({"forward", "born", "reverse", "adjoint_fields"})

    def __init__(self, model: WaveFwiModel, first: int, stop: int):
        self.first, self.stop = first, stop
        self.n_t, self.dt, self.dx, self.dz = model.n_t, model.dt, model.dx, model.dz
        self.wavelet = model.wavelet
        self.grid_shape = (model.npx, model.npz)  # the sponge-padded grid
        self._damp, self._pad_flat = model.damp, model._pad_flat

        w = model.pad
        rec = np.asarray(model.receivers, dtype=int)
        src = np.asarray(model.sources[first:stop], dtype=int)
        # Ghost-padded flat layout; see the module docstring.
        self._batch = (len(src), model.npx + 2, model.npz + 2)
        self._size = int(np.prod(self._batch))
        self._row = model.npz + 2
        self._core = slice(self._row, self._size - self._row)
        # Core-range indices of every (source, receiver) pair, source-major,
        # and of each field's own source.
        field = np.arange(len(src))[:, None]
        self._rec_core = np.ravel_multi_index(
            (field, rec[None, :, 0] + w + 1, rec[None, :, 1] + w + 1), self._batch
        ).ravel() - self._row
        self._src_core = np.ravel_multi_index(
            (field[:, 0], src[:, 0] + w + 1, src[:, 1] + w + 1), self._batch
        ) - self._row
        # Model-independent fields: -d^2, and the weights of c, b and a in
        # u_tt = (c / d - 2 b + d a) / dt^2.
        dt2 = self.dt**2
        self._ratio = self.dx**2 / self.dz**2
        self._neg_dd, self._inv_d_dt2, self._d_dt2 = (
            self._padded(g)[self._core]
            for g in (-(self._damp * self._damp), 1.0 / (self._damp * dt2), self._damp / dt2)
        )
        self.stencil = self.u_tt = None

    def _padded(self, field) -> np.ndarray:
        """An (npx, npz) field in every source's block of a flat batch, with
        a zero ghost ring."""
        out = np.zeros(self._batch)
        out[:, 1:-1, 1:-1] = field
        return out.reshape(-1)

    def _stencil(self, theta) -> _Stencil:
        """The leapfrog coefficients of the module docstring at theta."""
        dt2m = self.dt**2 / theta[self._pad_flat].reshape(self.grid_shape)
        cs = self._damp * dt2m
        kx, kz = 1.0 / self.dx**2, 1.0 / self.dz**2
        cb = self._damp * (2.0 - dt2m * (2.0 * kx + 2.0 * kz))
        return _Stencil(*(self._padded(g)[self._core] for g in (cb, cs * kx, cs)))

    # --- marches ---------------------------------------------------------------
    def _stack(self) -> np.ndarray:
        """(n_t, flat batch) zeros whose every row's core range starts on a
        64-byte boundary: the row stride is rounded up to whole lines."""
        stride = -(-self._size // _LINE) * _LINE
        rows = _aligned_zeros(self.n_t * stride, self._row).reshape(self.n_t, stride)
        return rows[:, :self._size]

    def _views(self, buf) -> tuple[np.ndarray, ...]:
        """Core range of a flat batch buffer, then its z-1, z+1, x-1, x+1
        neighbours: five contiguous views of equal length."""
        n, w = self._size, self._row
        return (buf[w:n - w], buf[w - 1:n - w - 1], buf[w + 1:n - w + 1],
                buf[:n - 2 * w], buf[2 * w:])

    def _forward_loop(self, stencil, inject, u_tt=None) -> None:
        """March the leapfrog for every source of the group at once.

        inject(n, c, t) adds step n's right-hand side to c, the core range
        of the new field, and may read the field there (t is a free
        core-sized buffer). If u_tt is given, the damped second time
        derivative of every step is written to its row n.
        """
        cb, cx, _ = stencil
        a, b, c = (self._views(_aligned_zeros(self._size, self._row)) for _ in range(3))
        t = _aligned_zeros(cb.size)
        if u_tt is not None:
            u_core, two_dt2 = u_tt[:, self._core], 2.0 / self.dt**2
        for n in range(self.n_t):
            b0, bzm, bzp, bxm, bxp = b
            a0, c0 = a[0], c[0]
            # c = cb b + cx (r (z-neighbours) + x-neighbours) - dd a + cs f.
            np.multiply(cb, b0, out=c0)
            np.add(bzm, bzp, out=t)
            if self._ratio != 1.0:
                t *= self._ratio
            t += bxm
            t += bxp
            t *= cx
            c0 += t
            np.multiply(self._neg_dd, a0, out=t)
            c0 += t
            inject(n, c0, t)
            if u_tt is not None:
                w = u_core[n]
                np.multiply(self._inv_d_dt2, c0, out=w)
                np.multiply(b0, two_dt2, out=t)
                w -= t
                np.multiply(self._d_dt2, a0, out=t)
                w += t
            a, b, c = b, c, a

    def _record(self, stencil, u_tt=None) -> np.ndarray:
        """Flattened traces of every source's point-source solve."""
        src, rec = self._src_core, self._rec_core
        terms = np.outer(self.wavelet, stencil.cs[src])  # row n: cs * wavelet[n]
        traces = np.empty((self.n_t, rec.size))

        def inject(n, c, t):
            c[src] += terms[n]
            traces[n] = c[rec]

        self._forward_loop(stencil, inject, u_tt)
        if not np.all(np.isfinite(traces)):
            raise RuntimeError(
                "wave solve blew up (non-finite traces); check the CFL margin"
            )
        return traces.T.ravel()

    def _residual(self, data) -> np.ndarray:
        """The group's traces as the adjoint march injects them: scaled by
        cx at the receivers, and reversed in time, so row n holds every
        trace's step n_t - 1 - n."""
        traces = data.reshape(-1, self.n_t) * self.stencil.cx[self._rec_core, None]
        return np.ascontiguousarray(traces[:, ::-1].T)

    # --- the group's share of each model action ---------------------------------
    def forward(self, theta) -> np.ndarray:
        """Traces at theta; keeps the stencil and u_tt stack as the cache. The
        old stack is dropped first, and a failed march keeps no cache."""
        self.drop(None)
        stencil = self._stencil(theta)
        u_tt = self._stack()
        traces = self._record(stencil, u_tt)
        self.stencil, self.u_tt = stencil, u_tt
        return traces

    def reference(self, theta) -> np.ndarray:
        """Traces at theta, storing no wavefields and leaving the cache alone."""
        return self._record(self._stencil(theta))

    def drop(self, _) -> None:
        self.stencil = self.u_tt = None

    def born(self, eta) -> np.ndarray:
        """Linearized traces for the Born source eta * u_tt, eta an (npx, npz)
        perturbation, formed one time step at a time."""
        ceta = self.stencil.cs * self._padded(eta)[self._core]
        u_core, rec = self.u_tt[:, self._core], self._rec_core
        traces = np.empty((self.n_t, rec.size))

        def inject(n, c, t):
            np.multiply(ceta, u_core[n], out=t)
            c += t
            traces[n] = c[rec]

        self._forward_loop(self.stencil, inject)
        return traces.T.ravel()

    def reverse(self, data) -> np.ndarray:
        """Per-source (n_sources, npx, npz) zero-lag correlation of the
        adjoint fields for the group's traces with u_tt: the adjoint march
        adds nu * u_tt of each step, and the sum is scaled by dx^2."""
        residual, rec = self._residual(data), self._rec_core
        u_back = self.u_tt[::-1, self._core]  # row n: step n_t - 1 - n
        acc = _aligned_zeros(self._size, self._row)
        acc_core = acc[self._core]

        def inject(n, c, t):
            c[rec] += residual[n]
            np.multiply(c, u_back[n], out=t)
            np.add(acc_core, t, out=acc_core)

        self._forward_loop(self.stencil, inject)
        acc *= self.dx**2
        return acc.reshape(self._batch)[:, 1:-1, 1:-1]

    def adjoint_fields(self, data) -> np.ndarray:
        """The (n_sources, n_t, npx, npz) adjoint fields for the group's
        traces: the adjoint march's nu of each step, scaled by dx^2."""
        residual, rec = self._residual(data), self._rec_core
        stack = self._stack()
        rows = stack[::-1, self._core]  # row n: step n_t - 1 - n

        def inject(n, c, t):
            c[rec] += residual[n]
            rows[n] = c

        self._forward_loop(self.stencil, inject)
        stack *= self.dx**2
        return _interior(stack, self._batch)

    def cached_u_tt(self, _) -> np.ndarray:
        """The cached u_tt as an (n_sources, n_t, npx, npz) view."""
        return _interior(self.u_tt, self._batch)


def _attempt(method, arg):
    """method(arg), or the exception it raised."""
    try:
        return method(arg)
    except Exception as exc:
        return exc


def _serve(group, conn, caller_end) -> None:
    """A worker's loop: run each group method the caller names on the array
    sent with it and reply with the result (or the exception raised), until
    the caller sends None or goes away."""
    # The caller's end was inherited across the fork; while it is open here,
    # recv would never see EOF after the caller dies.
    caller_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller handles interrupts
    while True:
        try:
            _wait(conn)
            command = conn.recv()
        except EOFError:
            return
        if command is None:
            return
        name, arg = command
        conn.send(_attempt(getattr(group, name), arg))


class _Worker:
    """A source group marching in a forked daemon process. The pipe carries a
    method name and its array one way, the result or exception the other."""

    def __init__(self, group: _SourceGroup):
        # fork, not spawn: the child inherits the group without pickling, and
        # it runs only numpy ufuncs and indexing, never BLAS, so no lock held
        # by a parent thread is ever needed there.
        context = multiprocessing.get_context("fork")
        self._conn, child_end = context.Pipe()
        self.process = context.Process(
            target=_serve, args=(group, child_end, self._conn),
            name=f"natgrad-wave-sources-{group.first}-{group.stop}", daemon=True,
        )
        self.process.start()
        child_end.close()

    def submit(self, name: str, arg) -> None:
        try:
            self._conn.send((name, arg))
        except OSError:  # the worker is already gone
            raise self._exited() from None

    def result(self):
        """The submitted method's result, or the exception it raised."""
        try:
            _wait(self._conn)
            return self._conn.recv()
        except EOFError:
            raise self._exited() from None

    def _exited(self) -> RuntimeError:
        self.process.join(timeout=1)  # reap it, so the exit code is known
        return RuntimeError(
            f"wave worker {self.process.name} exited "
            f"(exit code {self.process.exitcode})"
        )

    def close(self) -> None:
        try:
            self._conn.send(None)
        except OSError:  # the worker is already gone
            pass
        self._conn.close()
        self.process.join(timeout=10)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()


def _close_workers(workers) -> None:
    for worker in workers:
        worker.close()


class WaveFwiModel(ForwardModel):
    def __init__(
        self,
        cells: tuple[int, int],
        spacing: tuple[float, float],
        dt: float,
        sources,
        receivers,
        wavelet,
        sponge_width: int = 10,
        sponge_strength: float = 0.015,
    ):
        super().__init__()
        self.nx, self.nz = (integer(n, "cells") for n in cells)
        if len(spacing) != 2:
            raise ValueError(f"spacing takes two entries (dx, dz), not {len(spacing)}")
        self.dx, self.dz = (_positive(h, "spacing") for h in spacing)
        self.dt = _positive(dt, "time step")
        self.sources = [tuple(integer(i, "source index") for i in s) for s in sources]
        self.receivers = [tuple(integer(i, "receiver index") for i in r) for r in receivers]
        self.wavelet = np.asarray(wavelet, dtype=float)
        if self.wavelet.ndim != 1 or not self.wavelet.size:
            raise ValueError("the wavelet must be a non-empty 1-D array")
        self.n_t = len(self.wavelet)
        if not self.sources or not self.receivers:
            raise ValueError("the model needs a source and a receiver")

        w = integer(sponge_width, "sponge width")
        if w < 0 or not np.isfinite(sponge_strength):
            raise ValueError("the sponge needs width >= 0 and a finite strength")
        self.pad = w
        self.npx, self.npz = self.nx + 2 * w, self.nz + 2 * w
        ix = np.arange(self.npx)
        iz = np.arange(self.npz)
        # Depth into the sponge along each axis (0 inside the interior block).
        depth_x = np.maximum(np.maximum(w - ix, ix - (w + self.nx - 1)), 0)
        depth_z = np.maximum(np.maximum(w - iz, iz - (w + self.nz - 1)), 0)
        depth = np.maximum(depth_x[:, None], depth_z[None, :]).astype(float)
        self.damp = np.exp(-((sponge_strength * depth) ** 2))
        if not self.damp.min() > 0.0:  # u_tt divides by it
            raise ValueError(f"sponge strength {sponge_strength} damps the outer cells to 0")
        # Edge-replication map from padded cells to interior model cells.
        map_x = np.clip(ix - w, 0, self.nx - 1)[:, None] * self.nz
        map_z = np.clip(iz - w, 0, self.nz - 1)[None, :]
        self._pad_flat = (map_x + map_z).ravel()

        rec = np.asarray(self.receivers, dtype=int)
        src = np.asarray(self.sources, dtype=int)
        for name, arr in (("receiver", rec), ("source", src)):
            if arr.shape[1:] != (2,):
                raise ValueError(f"each {name} needs two indices (x, z)")
            if np.any(arr < 0) or np.any(arr[:, 0] >= self.nx) or np.any(arr[:, 1] >= self.nz):
                raise ValueError(f"{name} index out of the model grid")
        if len(set(self.receivers)) != len(self.receivers):
            # Scatter in the adjoint uses plain fancy indexing.
            raise ValueError("receiver locations must be distinct")

        padded_cells = len(src) * (self.npx + 2) * (self.npz + 2)
        bounds = np.linspace(0, len(src), source_group_count(len(src), padded_cells) + 1)
        bounds = bounds.round().astype(int)
        self._groups = [
            _SourceGroup(self, int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])
        ]
        # Workers for groups 1.. are forked on the first charged solve.
        self._workers = []
        self._close = None
        self.reference = None

    # --- layout -----------------------------------------------------------
    @property
    def n_sources(self) -> int:
        return len(self.sources)

    @property
    def n_receivers(self) -> int:
        return len(self.receivers)

    @property
    def n_groups(self) -> int:
        """Source groups that march at once (see ``source_group_count``)."""
        return len(self._groups)

    @property
    def metric_domain(self) -> tuple[Grid, int]:
        """One receiver x time panel per source."""
        return Grid.index_space([self.n_receivers, self.n_t]), self.n_sources

    def metric_state(self, rho) -> np.ndarray:
        """Each source's trace panel mapped onto a density by
        ``normalize_to_density``."""
        panels = np.split(np.asarray(rho, dtype=float), self.n_sources)
        return np.concatenate([normalize_to_density(p) for p in panels])

    @property
    def state_dim(self) -> int:
        return self.n_sources * self.n_receivers * self.n_t

    @property
    def param_dim(self) -> int:
        return self.nx * self.nz

    # --- parameter handling -------------------------------------------------
    def check_theta(self, theta) -> np.ndarray:
        """theta as a float array, once it has param_dim strictly positive
        entries and its fastest cell (least squared slowness) keeps the time
        step within the CFL bound."""
        theta = super().check_theta(theta)
        if not np.all(theta > 0.0):  # also rejects NaN, which would march
            raise ValueError("squared slowness must be strictly positive")
        limit = CFL_FACTOR * min(self.dx, self.dz) * np.sqrt(theta.min())
        if self.dt > limit:
            raise ValueError(
                f"time step {self.dt} violates the CFL bound {limit:.6g}"
            )
        return theta

    def _pad_transpose(self, field) -> np.ndarray:
        out = np.zeros(self.param_dim)
        np.add.at(out, self._pad_flat, field.ravel())
        return out

    # --- source groups ---------------------------------------------------------
    def _call(self, name: str, arg, split: bool = False):
        """``_each``'s results joined in source order (a single group's as
        it is)."""
        results = self._each(name, arg, split)
        if len(results) == 1 or results[0] is None:
            return results[0]
        return np.concatenate(results)

    def _each(self, name: str, arg, split: bool = False) -> list:
        """Group method ``name`` on every group at once, each given arg or,
        with split, its slice of arg's leading source axis; returns the
        groups' results, in source order.

        Group 0 runs here while the workers run theirs. A method in
        ``_SourceGroup.MARCHES`` is charged one propagation per source, also
        when it raises. A call that fails in any group leaves no forward
        cache in any group: once every reply is read the workers drop their
        stacks, but an interrupt or a lost worker may leave a reply unread,
        so then they stop, and the next charged solve forks new ones.
        """
        groups = self._groups
        args = [arg[g.first:g.stop] for g in groups] if split else [arg] * len(groups)
        if len(groups) > 1 and not self._workers:
            self._workers = [_Worker(g) for g in groups[1:]]
            self._close = weakref.finalize(self, _close_workers, self._workers)
        in_step = False
        try:
            for worker, part in zip(self._workers, args[1:]):
                worker.submit(name, part)
            results = [_attempt(getattr(groups[0], name), args[0])]
            results += [worker.result() for worker in self._workers]
            in_step = True
            for result in results:
                if isinstance(result, Exception):
                    raise result
        except BaseException:
            self._cache = None
            if not in_step and self._workers:
                self._close()
                self._workers = []
            self._drop_stacks()
            raise
        finally:
            if name in _SourceGroup.MARCHES:
                self.propagation_counter += self.n_sources
        return results

    def _drop_stacks(self) -> None:
        if self._workers:
            self._call("drop", None)
        else:
            self._groups[0].drop(None)

    def reset_accounting(self) -> None:
        super().reset_accounting()
        self._drop_stacks()

    # --- forward map -----------------------------------------------------------
    solve_forward = ForwardModel.solve_forward  # in the class body, where tracers patch it

    def _solve(self, theta) -> np.ndarray:
        return self._call("forward", theta)  # one live stack per group

    def generate_reference(self, theta_true) -> np.ndarray:
        """Record observed data from a ground-truth model; not charged as cost.

        Every source marches here as one batch: no worker is started. The
        march stores no wavefields and leaves the forward cache alone.
        """
        batch = _SourceGroup(self, 0, self.n_sources)
        self.reference = batch.reference(self.check_theta(theta_true))
        return self.reference

    # --- constraint actions ------------------------------------------------------
    def _require_cache(self, record=None, kind=None) -> np.ndarray:
        """The cached forward solve's theta; raises unless there is one and
        record, if a kind is given, is a record of that kind made from it."""
        if kind is not None and not isinstance(record, kind):
            raise TypeError(f"expected {kind.__name__}, not {type(record).__name__}")
        if self._cache is None:
            raise RuntimeError("forward wavefields not cached; run solve_forward first")
        theta = self._cache[0]
        if kind is not None and record.theta is not theta:
            raise RuntimeError(
                f"{type(record).__name__} belongs to another forward solve"
            )
        return theta

    def apply_drho_h_inverse(self, born: BornSource) -> np.ndarray:
        """Linearized forward: the traces of a BornSource, whose fields are
        formed one time step at a time."""
        self._require_cache(born, BornSource)
        return self._call("born", born.eta)

    def apply_drho_h_transpose_inverse(self, data_rhs) -> AdjointFields:
        """Reverse-time solve: trace-space input to adjoint fields, shaped
        (n_sources, n_t, npx, npz) and held as their correlation with u_tt."""
        theta = self._require_cache()
        data = np.asarray(data_rhs, dtype=float)
        if data.shape != (self.state_dim,):
            raise ValueError(f"data vector must have length {self.state_dim}")
        correlation = self._call("reverse", data.reshape(self.n_sources, -1), split=True)
        return AdjointFields(theta, correlation)

    def apply_dtheta_h(self, eta) -> BornSource:
        """Model perturbation to the Born source fields eta * u_tt."""
        theta = self._require_cache()
        eta = np.asarray(eta, dtype=float)[self._pad_flat].reshape(self.npx, self.npz)
        return BornSource(theta, eta)

    def apply_dtheta_h_transpose(self, lam: AdjointFields) -> np.ndarray:
        """Zero-lag correlation of adjoint fields with u_tt, summed over
        sources: the one their reverse solve accumulated."""
        self._require_cache(lam, AdjointFields)
        return self._pad_transpose(lam.correlation.sum(axis=0))

    def receiver_jacobian(self) -> np.ndarray:
        """Dense (state_dim, param_dim) Jacobian at the cached forward solve,
        from one reverse march per receiver.

        The leapfrog is linear and time-invariant from a zero state, so the
        adjoint fields of a unit impulse at receiver r and step T - 1 are r's
        Green's function: their step T - 1 - k is the response at r to a unit
        source k steps earlier. Row (s, r, t) of Z is then minus the causal
        convolution of that function with source s's u_tt up to step t,
        summed over each parameter's padded cells. The receivers take the
        source slots of each reverse march in turn, so a march charges
        n_sources propagations as usual; u_tt is read from the cache. The
        convolutions run as FFT products, summed over a parameter's cells
        before the inverse transform, so each (source, receiver) pair needs
        only param_dim inverse transforms.

        Beyond Z and the reverse marches, the working memory is u_tt's
        spectrum and one parameter block's buffers. The groups' fields are
        used as they arrive, never joined into one stack. Each receiver's
        Green's function is transformed one block of parameters at a time
        (``_parameter_blocks``), over that block's cells only, and its
        products with u_tt are formed, summed and transformed back straight
        into Z. Every transform, product and sum is the one of an
        all-at-once version, in the same order, so the blocks change no bit
        of Z.
        """
        self._require_cache()
        n_s, n_r, n_t, p = self.n_sources, self.n_receivers, self.n_t, self.param_dim
        order = np.argsort(self._pad_flat, kind="stable")
        # Parameter j replicates the cells edges[j] up to edges[j + 1] of order.
        edges = np.searchsorted(self._pad_flat[order], np.arange(p + 1))
        rows, cols = np.unravel_index(order, (self.npx, self.npz))
        n_fft = 2 * n_t  # no wrap-around in the first n_t samples

        def spectrum(field, cells=slice(None)) -> np.ndarray:
            """An (n_t, npx, npz) field's (cell, freq) spectrum over the cells
            order[cells], which are ordered by the parameter they replicate."""
            return np.fft.rfft(field[:, rows[cells], cols[cells]].T, n_fft)

        def fields(parts) -> list[np.ndarray]:
            """The groups' (n_t, npx, npz) fields, in source order."""
            return [field for part in parts for field in part]

        def columns(green, cells, offsets) -> np.ndarray:
            """One block's (source, time, parameter) convolutions of u_tt with
            a Green's function. Its buffers die with the caller's statement,
            before the next block allocates its own."""
            # (source, parameter, freq) for the block's parameters, then time.
            y_hat = np.add.reduceat(u_hat[:, cells] * spectrum(green, cells), offsets, axis=1)
            return np.fft.irfft(y_hat, n_fft)[:, :, :n_t].transpose(0, 2, 1)

        u_hat = np.empty((n_s, order.size, n_t + 1), dtype=complex)
        for s, u_tt in enumerate(fields(self._each("cached_u_tt", None))):
            u_hat[s] = spectrum(u_tt)
        del u_tt
        # Each block's parameter range, cell range and reduceat offsets.
        blocks = [(a, b, slice(edges[a], edges[b]), edges[a:b] - edges[a])
                  for a, b in _parameter_blocks(edges)]
        z = np.empty((n_s, n_r, n_t, p))
        for first in range(0, n_r, n_s):
            stop = min(first + n_s, n_r)
            impulses = np.zeros((n_s, n_r, n_t))
            impulses[np.arange(stop - first), np.arange(first, stop), -1] = 1.0
            green = fields(self._each("adjoint_fields", impulses.reshape(n_s, -1), split=True))
            for k in range(stop - first):
                z_r = z[:, first + k]  # (source, time, parameter)
                for a, b, cells, offsets in blocks:
                    np.negative(columns(green[k][::-1], cells, offsets), out=z_r[:, :, a:b])
            del green  # before the next march allocates its own
        return z.reshape(self.state_dim, p)


@dataclass(frozen=True)
class BornSource:
    """The Born source fields eta * u_tt of every source, never stored.

    eta is the (npx, npz) padded model perturbation and theta the model's
    cached parameters at creation; the source is valid while that forward
    solve is cached. The linearized solve forms each time step's slice as it
    marches; no full stack is ever built.
    """

    theta: np.ndarray
    eta: np.ndarray


@dataclass(frozen=True)
class AdjointFields:
    """Adjoint fields of one reverse solve, kept as their per-source zero-lag
    correlation with u_tt, (n_sources, npx, npz), which the solve
    accumulated. ``apply_dtheta_h_transpose`` sums it over sources while the
    forward solve of its creation (parameters ``theta``) is the cached one.
    """

    theta: np.ndarray
    correlation: np.ndarray
