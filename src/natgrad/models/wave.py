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

Kernel layout: every solve marches all sources as one flat buffer shaped
(n_sources, npx + 2, npz + 2), whose one-cell ghost ring is zero, so the
five-point neighbours of a cell are the flat offsets -1, +1 (z) and -W, +W
(x), W = npz + 2. With dt2m = dt^2 / m and r = dx^2 / dz^2, the step
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
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..grids import Grid
from .base import ForwardModel, least_squares_misfit


def ricker_wavelet(n_t: int, dt: float, peak_freq: float, delay: float | None = None):
    """Ricker wavelet samples; the delay defaults to 1.5 periods."""
    if delay is None:
        delay = 1.5 / peak_freq
    t = dt * np.arange(n_t) - delay
    arg = (np.pi * peak_freq * t) ** 2
    return (1.0 - 2.0 * arg) * np.exp(-arg)


class _Stencil(NamedTuple):
    """The model-dependent leapfrog coefficients on the core range."""

    cb: np.ndarray
    cx: np.ndarray
    cs: np.ndarray


def _interior(stack, batch) -> np.ndarray:
    """View of a time-major (n_t, flat batch) stack as (n_sources, n_t, npx,
    npz) fields: the ghost ring is dropped and the source axis moved first."""
    return stack.reshape(-1, *batch)[:, :, 1:-1, 1:-1].transpose(1, 0, 2, 3)


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

        # Ghost-padded flat layout; see the module docstring.
        self._batch = (len(src), self.npx + 2, self.npz + 2)
        self._size = int(np.prod(self._batch))
        self._row = self.npz + 2
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
            for g in (-(self.damp * self.damp), 1.0 / (self.damp * dt2), self.damp / dt2)
        )

        self.reference = None if reference is None else np.asarray(reference, float)
        self._cache_stencil = None
        self._cache_u_tt = None
        self._cache_traces = None

    # --- layout -----------------------------------------------------------
    @property
    def n_sources(self) -> int:
        return len(self.sources)

    @property
    def n_receivers(self) -> int:
        return len(self.receivers)

    @property
    def data_layout(self) -> tuple[int, int, int]:
        return (self.n_sources, self.n_receivers, self.n_t)

    @property
    def field_shape(self) -> tuple[int, int, int, int]:
        """Shape of the constraint fields: one space-time stack per source."""
        return (self.n_sources, self.n_t, self.npx, self.npz)

    @property
    def data_grid(self) -> Grid:
        """Receiver x time panel on which data-space metrics act."""
        return Grid.index_space([self.n_receivers, self.n_t])

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

    def _padded(self, field) -> np.ndarray:
        """An (npx, npz) field in every source's block of a flat batch, with
        a zero ghost ring."""
        out = np.zeros(self._batch)
        out[:, 1:-1, 1:-1] = field
        return out.reshape(-1)

    def _stencil(self, theta) -> _Stencil:
        """The leapfrog coefficients of the module docstring at theta."""
        dt2m = self.dt**2 / self._pad_model(theta)
        cs = self.damp * dt2m
        kx, kz = 1.0 / self.dx**2, 1.0 / self.dz**2
        cb = self.damp * (2.0 - dt2m * (2.0 * kx + 2.0 * kz))
        return _Stencil(*(self._padded(g)[self._core] for g in (cb, cs * kx, cs)))

    # --- core linear solves ---------------------------------------------------
    def _views(self, buf) -> tuple[np.ndarray, ...]:
        """Core range of a flat batch buffer, then its z-1, z+1, x-1, x+1
        neighbours: five contiguous views of equal length."""
        n, w = self._size, self._row
        return (buf[w:n - w], buf[w - 1:n - w - 1], buf[w + 1:n - w + 1],
                buf[:n - 2 * w], buf[2 * w:])

    def _forward_loop(self, stencil, inject, u_tt=None) -> np.ndarray:
        """March the leapfrog for every source at once; returns the traces
        as the flat data vector (one receiver-major panel per source).

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
        self.propagation_counter += self.n_sources
        return traces.T.ravel()

    def _reverse_loop(self, stencil, data, u_tt=None, stack=None):
        """Exact transpose of the trace-recording forward map, marched
        backward in time for every source at once.

        The adjoint field of step n is w = cs * cbar = dx^2 * cx * cbar,
        cbar being the adjoint of the step's new field; the loop carries
        w / dx^2. With u_tt given, returns the zero-lag correlation
        sum_n w^n u_tt^n as a flat batch; with stack given, writes w^n / dx^2
        to the core range of its row n.
        """
        cb, cx, _ = stencil
        abar, bbar = np.zeros(cb.size), np.zeros(cb.size)
        w0, wzm, wzp, wxm, wxp = self._views(np.zeros(self._size))
        t = np.empty_like(cb)
        if u_tt is not None:
            u_core, acc = u_tt[:, self._core], np.zeros(self._size)
            acc_core = acc[self._core]
        steps = data.reshape(-1, self.n_t).T.copy()  # row n: every trace at step n
        for n in range(self.n_t - 1, -1, -1):
            cbar = bbar
            cbar[self._rec_core] += steps[n]
            np.multiply(cx, cbar, out=w0)
            if u_tt is not None:
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
        self.propagation_counter += self.n_sources
        if stack is not None:
            stack *= self.dx**2
        return acc * self.dx**2 if u_tt is not None else None

    def _adjoint_fields(self, stencil, data) -> np.ndarray:
        """Re-march a reverse solve, storing its (n_sources, n_t, npx, npz)
        adjoint fields."""
        stack = np.zeros((self.n_t, self._size))
        self._reverse_loop(stencil, data, stack=stack)
        return _interior(stack, self._batch)

    # --- forward map -----------------------------------------------------------
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

    def solve_forward(self, theta) -> np.ndarray:
        theta = self._check_theta(theta)
        if self._is_cached(theta):
            return self._cache_traces.copy()
        # Drop the old cache first: one live stack, and a march that fails
        # leaves no cache behind.
        self._cache_theta = self._cache_stencil = self._cache_u_tt = self._cache_traces = None
        stencil = self._stencil(theta)
        u_tt = np.zeros((self.n_t, self._size))
        traces = self._record(stencil, u_tt)
        self._cache_theta = theta.copy()
        self._cache_stencil, self._cache_u_tt, self._cache_traces = stencil, u_tt, traces
        return traces.copy()

    def generate_reference(self, theta_true) -> np.ndarray:
        """Record observed data from a ground-truth model; not charged as cost.

        The march stores no wavefields and leaves the forward cache alone.
        """
        counter = self.propagation_counter
        self.reference = self._record(self._stencil(self._check_theta(theta_true)))
        self.propagation_counter = counter
        return self.reference

    def loss_and_grad_rho(self, rho):
        if self.reference is None:
            raise RuntimeError("no observed data set; call generate_reference first")
        return least_squares_misfit(rho, self.reference)

    # --- constraint actions ------------------------------------------------------
    def _require_cache(self) -> tuple[_Stencil, np.ndarray]:
        """The cached stencil and u_tt stack; raises if no forward is cached."""
        if self._cache_theta is None:
            raise RuntimeError("forward wavefields not cached; run solve_forward first")
        return self._cache_stencil, self._cache_u_tt

    def apply_drho_h_inverse(self, rhs_fields) -> np.ndarray:
        """Linearized forward: (n_sources, n_t, npx, npz) sources to traces.

        A BornSource is expanded one time step at a time; any other
        array-like of that shape is read as it is.
        """
        stencil, _ = self._require_cache()
        if isinstance(rhs_fields, BornSource):
            ceta = stencil.cs * rhs_fields.eta[self._core]
            u_core = rhs_fields.u_tt[:, self._core]

            def inject(n, c, t):
                np.multiply(ceta, u_core[n], out=t)
                c += t
        else:
            rhs = np.asarray(rhs_fields, dtype=float)
            if rhs.shape != self.field_shape:
                raise ValueError(f"source fields must have shape {self.field_shape}")
            f = np.zeros(self._batch)
            f_in, f_core = f[:, 1:-1, 1:-1], f.reshape(-1)[self._core]

            def inject(n, c, t):
                f_in[...] = rhs[:, n]
                np.multiply(stencil.cs, f_core, out=t)
                c += t

        return self._forward_loop(stencil, inject)

    def apply_drho_h_transpose_inverse(self, data_rhs) -> AdjointFields:
        """Reverse-time solve: trace-space input to adjoint fields, shaped
        (n_sources, n_t, npx, npz) and held as their correlation with u_tt."""
        stencil, u_tt = self._require_cache()
        data = np.array(data_rhs, dtype=float)
        if data.shape != (self.state_dim,):
            raise ValueError(f"data vector must have length {self.state_dim}")
        correlation = self._reverse_loop(stencil, data, u_tt=u_tt)
        return AdjointFields(self, stencil, data, correlation)

    def apply_dtheta_h(self, eta) -> BornSource:
        """Model perturbation to the Born source fields eta * u_tt."""
        _, u_tt = self._require_cache()
        eta_pad = self._pad_model(np.asarray(eta, dtype=float))
        return BornSource(self._padded(eta_pad), u_tt, self._batch)

    def apply_dtheta_h_transpose(self, lam_fields) -> np.ndarray:
        """Zero-lag correlation of adjoint fields with u_tt, summed over sources.

        AdjointFields carry it from their reverse solve; any other array-like
        of the field shape is correlated here.
        """
        stencil, u_tt = self._require_cache()
        if isinstance(lam_fields, AdjointFields):
            if lam_fields.stencil is not stencil:
                raise RuntimeError("adjoint fields belong to another forward solve")
            acc = lam_fields.correlation.reshape(self._batch)[:, 1:-1, 1:-1].sum(axis=0)
        else:
            lam = np.asarray(lam_fields, dtype=float)
            if lam.shape != self.field_shape:
                raise ValueError(f"adjoint fields must have shape {self.field_shape}")
            acc = np.einsum("stij,stij->ij", lam, _interior(u_tt, self._batch))
        return self._pad_transpose(acc)


class BornSource:
    """The Born source fields eta * u_tt of every source, never materialized.

    eta is flat in the kernel layout and u_tt the cached stack. The
    linearized solve forms each time step's slice as it marches. Negation
    flips the stored perturbation, which is exact, and ``np.asarray`` builds
    the full (n_sources, n_t, npx, npz) stack.
    """

    def __init__(self, eta, u_tt, batch):
        self.eta = eta
        self.u_tt = u_tt
        self.batch = batch

    def __neg__(self) -> BornSource:
        return BornSource(-self.eta, self.u_tt, self.batch)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(_interior(self.eta * self.u_tt, self.batch), dtype=dtype)


class AdjointFields:
    """Adjoint fields of one reverse solve, kept as their zero-lag correlation
    with u_tt (every source, flat in the kernel layout), which the solve
    accumulated.

    ``apply_dtheta_h_transpose`` reads the correlation. ``shape`` is the field
    shape; ``np.asarray`` (and iteration, over sources) re-marches the reverse
    solve storing every step, charged as one propagation per source.
    """

    def __init__(self, model, stencil, data, correlation):
        self.model = model
        self.stencil = stencil
        self.data = data
        self.correlation = correlation

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.model.field_shape

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(self.model._adjoint_fields(self.stencil, self.data), dtype=dtype)

    def __iter__(self):
        return iter(np.asarray(self))
