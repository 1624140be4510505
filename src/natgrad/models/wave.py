"""Acoustic wave model for full waveform inversion at desk scale.

Physics: m(x) u_tt - lap(u) = s with zero initial data, integrated by a
second-order leapfrog scheme on a padded grid. Absorption uses a sponge: each
step the new field is scaled by a damping profile d <= 1 (d = 1 in the
interior), which keeps every time step an explicit linear map, so the adjoint
solve is the literal transpose of the forward recursion and the dot-product
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
(every cell but the first and last ghost row of the batch); the reverse step
is their literal transpose. The forward cache keeps only w, time-major in the
same layout; the Born source and the adjoint correlation are formed one step
at a time inside the linearized and the reverse solves, so neither stores
more than per-step buffers.

Source groups: sources are independent in every march, so the model splits
them into contiguous groups that march at the same time, group 0 in the
calling process and each other group in a forked worker process that holds
its own forward cache. Every cell's arithmetic is the same in any batch, so
the results do not depend on the split: traces are concatenated in source
order and per-source correlations are summed over sources in order.
"""

from __future__ import annotations

import math
import mmap
import multiprocessing
import os
import signal
import time
import weakref
from typing import NamedTuple

import numpy as np

from ..grids import Grid
from .base import ForwardModel, least_squares_misfit

# Fewest ghost-padded cells a source group marches. A leapfrog step costs a
# fixed 7-11 us plus 4.7-5.5 ns per cell (three single-process sweeps of one
# linearized plus one reverse march, 576 to 15,376 cells, 2-core VM, BLAS
# threads 1); the two are equal at 1,240-2,270 cells. Below that a group
# mostly pays per-step overhead, so each group gets at least 2,500 cells. Two
# groups against one, same sweep: 1.25-1.52x as fast from 900 to 5,184 cells
# per group, 0.73x at 576; at 1,156 (one 12x12 source each) 1.02-1.32x.
MIN_GROUP_CELLS = 2_500


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


def ricker_wavelet(n_t: int, dt: float, peak_freq: float, delay: float | None = None):
    """Ricker wavelet samples; the delay defaults to 1.5 periods."""
    if delay is None:
        delay = 1.5 / peak_freq
    t = dt * np.arange(n_t) - delay
    arg = (np.pi * peak_freq * t) ** 2
    return (1.0 - 2.0 * arg) * np.exp(-arg)


def usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def normalize_to_density(values, floor_fraction: float = 0.1) -> np.ndarray:
    """Affine shift-and-scale of arbitrary data onto a strictly positive density.

    Shifts by -min + floor_fraction * (max - min), then scales to mean one
    (unit total mass under the unweighted quadrature, where each sample has
    unit cell measure). Mean-one rather than sum-one keeps density-weighted
    operators on the same scale as their unweighted counterparts regardless of
    the panel size. Flat inputs map to the uniform density.
    """
    v = np.asarray(values, dtype=float)
    spread = float(v.max() - v.min())
    if spread <= 1e-300:
        return np.ones(v.shape)
    shifted = v - v.min() + floor_fraction * spread
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


def _interior(stack, batch) -> np.ndarray:
    """View of a time-major (n_t, flat batch) stack as (n_sources, n_t, npx,
    npz) fields: the ghost ring is dropped and the source axis moved first."""
    return stack.reshape(-1, *batch)[:, :, 1:-1, 1:-1].transpose(1, 0, 2, 3)


class _SourceGroup:
    """The leapfrog kernel of sources[first:stop], marched as one flat batch,
    and the batch's forward cache: the stencil and the u_tt stack.

    Every method takes one array (or None) and returns an array (or None),
    so it can run in the calling process or in a worker alike. It charges no
    propagations; the model does. Methods other than ``forward`` and
    ``reference`` read the cached forward solve.
    """

    def __init__(self, model: WaveFwiModel, first: int, stop: int):
        self.first, self.stop = first, stop
        self.n_sources = stop - first
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
    def _views(self, buf) -> tuple[np.ndarray, ...]:
        """Core range of a flat batch buffer, then its z-1, z+1, x-1, x+1
        neighbours: five contiguous views of equal length."""
        n, w = self._size, self._row
        return (buf[w:n - w], buf[w - 1:n - w - 1], buf[w + 1:n - w + 1],
                buf[:n - 2 * w], buf[2 * w:])

    def _forward_loop(self, stencil, inject, u_tt=None) -> np.ndarray:
        """March the leapfrog for every source of the group at once; returns
        the traces as a flat data vector (one receiver-major panel per source).

        inject(n, c, t) adds cs * f^n to c, the core range of the new field
        (t is a free core-sized buffer). If u_tt is given, the damped second
        time derivative of every step is written to its row n.
        """
        cb, cx, _ = stencil
        a, b, c = (self._views(np.zeros(self._size)) for _ in range(3))
        t = np.empty_like(cb)
        traces = np.empty((self.n_t, self._rec_core.size))
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
            traces[n] = c0[self._rec_core]
            if u_tt is not None:
                w = u_core[n]
                np.multiply(self._inv_d_dt2, c0, out=w)
                np.multiply(b0, two_dt2, out=t)
                w -= t
                np.multiply(self._d_dt2, a0, out=t)
                w += t
            a, b, c = b, c, a
        return traces.T.ravel()

    def _reverse_loop(self, data, correlate=False, stack=None):
        """Exact transpose of the trace-recording forward map at the cached
        stencil, marched backward in time for every source of the group.

        The adjoint field of step n is w = cs * cbar = dx^2 * cx * cbar,
        cbar being the adjoint of the step's new field; the loop carries
        w / dx^2. With correlate, returns the zero-lag correlation
        sum_n w^n u_tt^n as a flat batch; with stack given, writes w^n / dx^2
        to the core range of its row n.
        """
        cb, cx, _ = self.stencil
        abar, bbar = np.zeros(cb.size), np.zeros(cb.size)
        w0, wzm, wzp, wxm, wxp = self._views(np.zeros(self._size))
        t = np.empty_like(cb)
        if correlate:
            u_core, acc = self.u_tt[:, self._core], np.zeros(self._size)
            acc_core = acc[self._core]
        steps = data.reshape(-1, self.n_t).T.copy()  # row n: every trace at step n
        for n in range(self.n_t - 1, -1, -1):
            cbar = bbar
            cbar[self._rec_core] += steps[n]
            np.multiply(cx, cbar, out=w0)
            if correlate:
                np.multiply(w0, u_core[n], out=t)
                acc_core += t
            if stack is not None:
                stack[n, self._core] = w0
            # new_b = abar + cb cbar + transposed neighbour sums of w;
            # new_a = -dd cbar.
            np.multiply(cb, cbar, out=t)
            abar += t
            np.add(wzm, wzp, out=t)
            if self._ratio != 1.0:
                t *= self._ratio
            t += wxm
            t += wxp
            abar += t
            np.multiply(self._neg_dd, cbar, out=cbar)
            abar, bbar = cbar, abar
        if stack is not None:
            stack *= self.dx**2
        return acc * self.dx**2 if correlate else None

    def _record(self, stencil, u_tt=None) -> np.ndarray:
        """Flattened traces of every source's point-source solve."""
        src = self._src_core
        terms = np.outer(self.wavelet, stencil.cs[src])  # row n: cs * wavelet[n]

        def inject(n, c, t):
            c[src] += terms[n]

        traces = self._forward_loop(stencil, inject, u_tt)
        if not np.all(np.isfinite(traces)):
            raise RuntimeError(
                "wave solve blew up (non-finite traces); check the CFL margin"
            )
        return traces

    # --- the group's share of each model action ---------------------------------
    def forward(self, theta) -> np.ndarray:
        """Traces at theta; keeps the stencil and u_tt stack as the cache. The
        old stack is dropped first, and a failed march keeps no cache."""
        self.drop(None)
        stencil = self._stencil(theta)
        u_tt = np.zeros((self.n_t, self._size))
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
        u_core = self.u_tt[:, self._core]

        def inject(n, c, t):
            np.multiply(ceta, u_core[n], out=t)
            c += t

        return self._forward_loop(self.stencil, inject)

    def drive(self, rhs) -> np.ndarray:
        """Linearized traces for (n_sources, n_t, npx, npz) source fields."""
        f = np.zeros(self._batch)
        f_in, f_core = f[:, 1:-1, 1:-1], f.reshape(-1)[self._core]
        cs = self.stencil.cs

        def inject(n, c, t):
            f_in[...] = rhs[:, n]
            np.multiply(cs, f_core, out=t)
            c += t

        return self._forward_loop(self.stencil, inject)

    def reverse(self, data) -> np.ndarray:
        """Per-source (n_sources, npx, npz) zero-lag correlation of the
        adjoint fields for the group's traces with u_tt."""
        acc = self._reverse_loop(data, correlate=True)
        return acc.reshape(self._batch)[:, 1:-1, 1:-1]

    def adjoint_fields(self, data) -> np.ndarray:
        """The (n_sources, n_t, npx, npz) adjoint fields for the group's traces."""
        stack = np.zeros((self.n_t, self._size))
        self._reverse_loop(data, stack=stack)
        return _interior(stack, self._batch)

    def born_fields(self, eta) -> np.ndarray:
        """The (n_sources, n_t, npx, npz) Born source fields eta * u_tt."""
        return _interior(self._padded(eta) * self.u_tt, self._batch)

    def correlate(self, lam) -> np.ndarray:
        """Zero-lag correlation of (n_sources, n_t, npx, npz) fields with
        u_tt, summed over the group's sources."""
        return np.einsum("stij,stij->ij", lam, _interior(self.u_tt, self._batch))


def _serve(group, inbuf, outbuf, conn, caller_end) -> None:
    """A worker's loop: run each group method the caller names on the array
    in ``inbuf``, leave the result in ``outbuf`` and reply with its shape
    (or the exception raised), until the caller sends None or goes away."""
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
        name, shape = command
        arg = None if shape is None else inbuf[:math.prod(shape)].reshape(shape)
        try:
            result = getattr(group, name)(arg)
        except Exception as exc:
            conn.send(exc)
            continue
        if result is not None:
            outbuf[:result.size].reshape(result.shape)[...] = result
        conn.send(None if result is None else result.shape)


class _Worker:
    """A source group marching in a forked daemon process.

    Arrays pass both ways through two anonymous shared buffers mapped before
    the fork, each as large as the group's (n_sources, n_t, npx, npz) field
    stack (pages are only backed once written). The pipe carries only a
    method name and an array shape, or the exception the method raised.
    """

    def __init__(self, group: _SourceGroup):
        nbytes = 8 * group.n_sources * group.n_t * math.prod(group.grid_shape)
        self._in, self._out = (
            np.frombuffer(mmap.mmap(-1, nbytes), dtype=float) for _ in range(2)
        )
        # fork, not spawn: the child inherits the group and the buffers
        # without pickling, and it runs only numpy ufuncs and indexing, never
        # BLAS, so no lock held by a parent thread is ever needed there.
        context = multiprocessing.get_context("fork")
        self._conn, child_end = context.Pipe()
        self.process = context.Process(
            target=_serve, args=(group, self._in, self._out, child_end, self._conn),
            name=f"natgrad-wave-sources-{group.first}-{group.stop}", daemon=True,
        )
        self.process.start()
        child_end.close()

    def submit(self, name: str, arg) -> None:
        shape = None
        if arg is not None:
            shape = arg.shape
            self._in[:arg.size].reshape(shape)[...] = arg
        self._conn.send((name, shape))

    def result(self):
        """The submitted method's result, or the exception it raised."""
        try:
            _wait(self._conn)
            reply = self._conn.recv()
        except EOFError:
            raise RuntimeError(
                f"wave worker {self.process.name} exited "
                f"(exit code {self.process.exitcode})"
            ) from None
        if reply is None or isinstance(reply, Exception):
            return reply
        return self._out[:math.prod(reply)].reshape(reply).copy()

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


def _joined(parts: list) -> np.ndarray:
    """Group results joined along the source axis; one group's as it is, so
    a single group copies nothing."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _attempt(method, arg):
    """method(arg), or the exception it raised."""
    try:
        return method(arg)
    except Exception as exc:
        return exc


class WaveFwiModel(ForwardModel):
    def __init__(
        self,
        cells: tuple[int, int],
        spacing: tuple[float, float],
        n_t: int,
        dt: float,
        sources,
        receivers,
        wavelet,
        sponge_width: int = 10,
        sponge_strength: float = 0.015,
        cfl_factor: float = 0.5,
        reference=None,
    ):
        super().__init__()
        self.nx, self.nz = int(cells[0]), int(cells[1])
        self.dx, self.dz = float(spacing[0]), float(spacing[1])
        self.n_t = int(n_t)
        self.dt = float(dt)
        self.sources = [tuple(map(int, s)) for s in sources]
        self.receivers = [tuple(map(int, r)) for r in receivers]
        self.wavelet = np.asarray(wavelet, dtype=float)
        if self.wavelet.shape != (self.n_t,):
            raise ValueError("wavelet must have one sample per time step")
        self.cfl_factor = float(cfl_factor)

        w = int(sponge_width)
        self.pad = w
        self.npx, self.npz = self.nx + 2 * w, self.nz + 2 * w
        ix = np.arange(self.npx)
        iz = np.arange(self.npz)
        # Depth into the sponge along each axis (0 inside the interior block).
        depth_x = np.maximum(np.maximum(w - ix, ix - (w + self.nx - 1)), 0)
        depth_z = np.maximum(np.maximum(w - iz, iz - (w + self.nz - 1)), 0)
        depth = np.maximum(depth_x[:, None], depth_z[None, :]).astype(float)
        self.damp = np.exp(-((sponge_strength * depth) ** 2))
        # Edge-replication map from padded cells to interior model cells.
        self._map_x = np.clip(ix - w, 0, self.nx - 1)[:, None] * self.nz
        self._map_z = np.clip(iz - w, 0, self.nz - 1)[None, :]
        self._pad_flat = (self._map_x + self._map_z).ravel()

        rec = np.asarray(self.receivers, dtype=int)
        src = np.asarray(self.sources, dtype=int)
        for name, arr in (("receiver", rec), ("source", src)):
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

        self.reference = None if reference is None else np.asarray(reference, float)
        self._cache_traces = None

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
    def field_shape(self) -> tuple[int, int, int, int]:
        """Shape of the constraint fields: one space-time stack per source."""
        return (self.n_sources, self.n_t, self.npx, self.npz)

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
    def _check_theta(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.param_dim,):
            raise ValueError(f"theta must have length {self.param_dim}")
        if np.any(theta <= 0.0):
            raise ValueError("squared slowness must be strictly positive")
        limit = self.cfl_factor * min(self.dx, self.dz) * np.sqrt(theta.min())
        if self.dt > limit:
            raise ValueError(
                f"time step {self.dt} violates the CFL bound {limit:.6g}"
            )
        return theta

    def _pad_model(self, theta) -> np.ndarray:
        return theta[self._pad_flat].reshape(self.npx, self.npz)

    def _pad_transpose(self, field) -> np.ndarray:
        out = np.zeros(self.param_dim)
        np.add.at(out, self._pad_flat, field.ravel())
        return out

    # --- source groups ---------------------------------------------------------
    def _by_source(self, array) -> list:
        """The parts of an array with a leading source axis, one per group."""
        return [array[g.first:g.stop] for g in self._groups]

    def _run(self, name: str, args: list) -> list:
        """Call group method ``name`` on every group at once, with args[g]
        for group g; returns their results in source order.

        Group 0 runs here while the workers run theirs. Every reply is read
        before the first group's exception is raised, so the pipes stay in
        step.
        """
        if len(self._groups) > 1 and not self._workers:
            self._workers = [_Worker(g) for g in self._groups[1:]]
            self._close = weakref.finalize(self, _close_workers, self._workers)
        try:
            for worker, arg in zip(self._workers, args[1:]):
                worker.submit(name, arg)
            results = [_attempt(getattr(self._groups[0], name), args[0])]
            results += [worker.result() for worker in self._workers]
        except BaseException:
            # A reply may be left unread (an interrupt) or a worker lost.
            self._stop_workers()
            raise
        for result in results:
            if isinstance(result, Exception):
                raise result
        return results

    def _march(self, name: str, args: list) -> list:
        """``_run`` for a method that marches every source once; charged one
        propagation per source, also when it raises."""
        try:
            return self._run(name, args)
        finally:
            self.propagation_counter += self.n_sources

    def _stop_workers(self) -> None:
        """Stop the workers, with their caches, and forget the cache here; the
        next charged solve forks new ones."""
        if self._workers:
            self._close()
            self._workers = []
        self._cache_theta = self._cache_traces = None
        self._groups[0].drop(None)

    def _drop_stacks(self) -> None:
        if self._workers:
            self._run("drop", [None] * self.n_groups)
        else:
            self._groups[0].drop(None)

    def reset_accounting(self) -> None:
        super().reset_accounting()
        self._cache_traces = None
        self._drop_stacks()

    # --- forward map -----------------------------------------------------------
    def solve_forward(self, theta) -> np.ndarray:
        theta = self._check_theta(theta)
        if self._is_cached(theta):
            return self._cache_traces.copy()
        # Each group drops its old stack before it marches: one live stack
        # per group. A march that fails anywhere leaves no cache anywhere.
        self._cache_theta = self._cache_traces = None
        try:
            traces = _joined(self._march("forward", [theta] * self.n_groups))
        except Exception:
            self._drop_stacks()
            raise
        self._cache_theta, self._cache_traces = theta.copy(), traces
        return traces.copy()

    def generate_reference(self, theta_true) -> np.ndarray:
        """Record observed data from a ground-truth model; not charged as cost.

        Every source marches here as one batch: no worker is started. The
        march stores no wavefields and leaves the forward cache alone.
        """
        batch = _SourceGroup(self, 0, self.n_sources)
        self.reference = batch.reference(self._check_theta(theta_true))
        return self.reference

    def loss_and_grad_rho(self, rho):
        if self.reference is None:
            raise RuntimeError("no observed data set; call generate_reference first")
        return least_squares_misfit(rho, self.reference)

    # --- constraint actions ------------------------------------------------------
    def _require_cache(self, lazy=None) -> None:
        """Raise unless a forward solve is cached and the lazy fields, if
        given, belong to it."""
        if self._cache_theta is None:
            raise RuntimeError("forward wavefields not cached; run solve_forward first")
        if lazy is not None and lazy.theta is not self._cache_theta:
            raise RuntimeError(
                f"{type(lazy).__name__} belongs to another forward solve"
            )

    def apply_drho_h_inverse(self, rhs_fields) -> np.ndarray:
        """Linearized forward: (n_sources, n_t, npx, npz) sources to traces.

        A BornSource is expanded one time step at a time; any other
        array-like of that shape is read as it is.
        """
        if isinstance(rhs_fields, BornSource):
            self._require_cache(rhs_fields)
            name, args = "born", [rhs_fields.eta] * self.n_groups
        else:
            self._require_cache()
            rhs = np.asarray(rhs_fields, dtype=float)
            if rhs.shape != self.field_shape:
                raise ValueError(f"source fields must have shape {self.field_shape}")
            name, args = "drive", self._by_source(rhs)
        return _joined(self._march(name, args))

    def apply_drho_h_transpose_inverse(self, data_rhs) -> AdjointFields:
        """Reverse-time solve: trace-space input to adjoint fields, shaped
        (n_sources, n_t, npx, npz) and held as their correlation with u_tt."""
        self._require_cache()
        data = np.array(data_rhs, dtype=float)
        if data.shape != (self.state_dim,):
            raise ValueError(f"data vector must have length {self.state_dim}")
        panels = self._by_source(data.reshape(self.n_sources, -1))
        correlation = _joined(self._march("reverse", [p.ravel() for p in panels]))
        return AdjointFields(self, self._cache_theta, data, correlation)

    def apply_dtheta_h(self, eta) -> BornSource:
        """Model perturbation to the Born source fields eta * u_tt."""
        self._require_cache()
        return BornSource(self, self._cache_theta, self._pad_model(np.asarray(eta, dtype=float)))

    def apply_dtheta_h_transpose(self, lam_fields) -> np.ndarray:
        """Zero-lag correlation of adjoint fields with u_tt, summed over sources.

        AdjointFields carry it from their reverse solve; any other array-like
        of the field shape is correlated here.
        """
        if isinstance(lam_fields, AdjointFields):
            self._require_cache(lam_fields)
            acc = lam_fields.correlation.sum(axis=0)
        else:
            self._require_cache()
            lam = np.asarray(lam_fields, dtype=float)
            if lam.shape != self.field_shape:
                raise ValueError(f"adjoint fields must have shape {self.field_shape}")
            acc = np.sum(self._run("correlate", self._by_source(lam)), axis=0)
        return self._pad_transpose(acc)

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
        """
        self._require_cache()
        n_s, n_r, n_t, p = self.n_sources, self.n_receivers, self.n_t, self.param_dim
        order = np.argsort(self._pad_flat, kind="stable")
        starts = np.searchsorted(self._pad_flat[order], np.arange(p))
        n_fft = 2 * n_t  # no wrap-around in the first n_t samples

        def spectra(fields) -> np.ndarray:
            """(n, n_t, npx, npz) fields to (n, freq, cell) spectra, the
            cells ordered by the parameter they replicate."""
            series = fields.reshape(len(fields), n_t, -1)[:, :, order]
            return np.fft.rfft(series, n_fft, axis=1)

        ones = np.ones((self.npx, self.npz))  # born_fields(1) is u_tt itself
        u_hat = spectra(_joined(self._run("born_fields", [ones] * self.n_groups)))
        z = np.empty((n_s, n_r, n_t, p))
        for first in range(0, n_r, n_s):
            stop = min(first + n_s, n_r)
            impulses = np.zeros((n_s, n_r, n_t))
            impulses[np.arange(stop - first), np.arange(first, stop), -1] = 1.0
            panels = self._by_source(impulses.reshape(n_s, -1))
            green = _joined(self._march("adjoint_fields", [q.ravel() for q in panels]))
            g_hat = spectra(green[:stop - first, ::-1])
            del green
            for k in range(stop - first):
                # (source, freq, parameter) for receiver first + k, then time.
                y_hat = np.add.reduceat(u_hat * g_hat[k], starts, axis=2)
                z[:, first + k] = -np.fft.irfft(y_hat, n_fft, axis=1)[:, :n_t]
        return z.reshape(self.state_dim, p)

    def _materialize(self, lazy) -> np.ndarray:
        """The (n_sources, n_t, npx, npz) stack of a lazy BornSource or
        AdjointFields; the latter re-marches its reverse solve."""
        self._require_cache(lazy)
        if isinstance(lazy, BornSource):
            return _joined(self._run("born_fields", [lazy.eta] * self.n_groups))
        panels = self._by_source(lazy.data.reshape(self.n_sources, -1))
        return _joined(self._march("adjoint_fields", [p.ravel() for p in panels]))


class BornSource:
    """The Born source fields eta * u_tt of every source, never materialized.

    eta is the (npx, npz) padded model perturbation and theta the model's
    cached parameters at creation; the source is valid while that forward
    solve is cached. The linearized solve forms each time step's slice as it
    marches. Negation flips the stored perturbation, which is exact, and
    ``np.asarray`` builds the full (n_sources, n_t, npx, npz) stack.
    """

    def __init__(self, model, theta, eta):
        self.model = model
        self.theta = theta
        self.eta = eta

    def __neg__(self) -> BornSource:
        return BornSource(self.model, self.theta, -self.eta)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(self.model._materialize(self), dtype=dtype)


class AdjointFields:
    """Adjoint fields of one reverse solve, kept as their per-source zero-lag
    correlation with u_tt, (n_sources, npx, npz), which the solve
    accumulated.

    ``apply_dtheta_h_transpose`` sums the correlation over sources. ``shape``
    is the field shape; ``np.asarray`` (and iteration, over sources)
    re-marches the reverse solve storing every step, charged as one
    propagation per source. Both need the forward solve of their creation
    (parameters ``theta``) to be the cached one.
    """

    def __init__(self, model, theta, data, correlation):
        self.model = model
        self.theta = theta
        self.data = data
        self.correlation = correlation

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.model.field_shape

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(self.model._materialize(self), dtype=dtype)

    def __iter__(self):
        return iter(np.asarray(self))
