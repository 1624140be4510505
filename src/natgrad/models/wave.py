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
(n_receivers x n_time) panel per source, flattened receiver-major. Every solve
marches all sources together as one (n_sources, npx, npz) array in
preallocated, rotated buffers; constraint fields carry the same leading source
axis, (n_sources, n_t, npx, npz). The forward cache keeps only w (one
space-time stack per source), built step by step while marching, and the
Born source eta * w is formed one time step at a time inside the linearized
solve.
"""

from __future__ import annotations

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
        # Flat indices into a flattened (n_sources, npx, npz) batch: every
        # (source, receiver) pair, source-major, and each field's own source.
        batch = (len(src), self.npx, self.npz)
        field = np.arange(len(src))[:, None]
        self._rec_flat = np.ravel_multi_index(
            (field, rec[None, :, 0] + w, rec[None, :, 1] + w), batch
        ).ravel()
        self._src_flat = np.ravel_multi_index(
            (field[:, 0], src[:, 0] + w, src[:, 1] + w), batch
        )

        self.reference = None if reference is None else np.asarray(reference, float)
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

    # --- core linear solves ---------------------------------------------------
    def _laplacian(self, u, out, scratch) -> np.ndarray:
        """Five-point Laplacian of each (npx, npz) field of u, written to out.

        out and scratch are C-contiguous buffers shaped like u; nothing is
        allocated. The z-neighbours are added along the flattened buffers,
        one element apart, with the scratch column that would wrap into the
        next row zeroed: a strided last-axis add costs about three contiguous
        ones, and adding +0.0 leaves every nonzero value unchanged.
        """
        dx2, dz2 = self.dx**2, self.dz**2
        np.multiply(u, -2.0 / dx2 - 2.0 / dz2, out=out)
        np.divide(u, dx2, out=scratch)
        out[..., 1:, :] += scratch[..., :-1, :]
        out[..., :-1, :] += scratch[..., 1:, :]
        np.divide(u, dz2, out=scratch)
        flat_out, flat_scratch = out.reshape(-1), scratch.reshape(-1)
        scratch[..., -1] = 0.0
        flat_out[1:] += flat_scratch[:-1]
        np.divide(u[..., -1], dz2, out=scratch[..., -1])
        scratch[..., 0] = 0.0
        flat_out[:-1] += flat_scratch[1:]
        return out

    def _fields(self, like=0.0) -> np.ndarray:
        """An (n_sources, npx, npz) buffer, one field per source, filled with
        like (a scalar or one (npx, npz) field). Full-shape coefficients keep
        the batched ufuncs off their slower broadcasting loops."""
        out = np.empty((self.n_sources, self.npx, self.npz))
        out[...] = like
        return out

    def _forward_loop(self, dt2m, inject, u_tt=None) -> np.ndarray:
        """March the leapfrog for every source at once; returns the traces
        as the flat data vector (one receiver-major panel per source).

        inject(n, f) adds the step-n right-hand side to f, which holds
        lap(u^n) for every source. If u_tt is given, the damped second time
        derivative (u^{n+1}/d - 2 u^n + d u^{n-1}) / dt^2 of every step is
        written to u_tt[:, n].
        """
        d, dt2m = self._fields(self.damp), self._fields(dt2m)
        a, b, c, f, two_b, da, tmp = (self._fields() for _ in range(7))
        traces = np.empty((self.n_t, self._rec_flat.size))
        for n in range(self.n_t):
            self._laplacian(b, out=f, scratch=tmp)
            inject(n, f)
            # c = d * (2 b - d a + dt2m f), in that operation order.
            np.multiply(b, 2.0, out=two_b)
            np.multiply(d, a, out=da)
            np.subtract(two_b, da, out=c)
            np.multiply(dt2m, f, out=tmp)
            c += tmp
            c *= d
            traces[n] = c.reshape(-1)[self._rec_flat]
            if u_tt is not None:
                w = u_tt[:, n]
                np.divide(c, d, out=w)
                if n >= 1:
                    w -= two_b
                if n >= 2:
                    w += da
                w /= self.dt**2
            a, b, c = b, c, a
        self.propagation_counter += self.n_sources
        return traces.T.ravel()

    def _reverse_loop(self, dt2m, data) -> np.ndarray:
        """Exact transpose of the trace-recording forward map.

        Maps a flat data vector to the (n_sources, n_t, npx, npz) adjoint
        field stack, running the transposed recursion backward in time for
        every source at once.
        """
        d = self.damp
        d_dt2m, two_d, neg_dd = (self._fields(g) for g in (d * dt2m, 2.0 * d, -(d * d)))
        abar, bbar, lap, tmp = (self._fields() for _ in range(4))
        xi = np.empty(self.field_shape)
        steps = data.reshape(-1, self.n_t).T.copy()  # row n: every trace at step n
        for n in range(self.n_t - 1, -1, -1):
            cbar = bbar
            cbar.reshape(-1)[self._rec_flat] += steps[n]
            w = xi[:, n]
            np.multiply(d_dt2m, cbar, out=w)
            # new_b = abar + 2 d cbar + lap(w); new_a = -(d d) cbar.
            self._laplacian(w, out=lap, scratch=tmp)
            np.multiply(two_d, cbar, out=tmp)
            abar += tmp
            abar += lap
            np.multiply(neg_dd, cbar, out=cbar)
            abar, bbar = cbar, abar
        self.propagation_counter += self.n_sources
        return xi

    # --- forward map -----------------------------------------------------------
    def _dt2m(self, theta) -> np.ndarray:
        return self.dt**2 / self._pad_model(theta)

    def _record(self, theta, u_tt=None) -> np.ndarray:
        """Flattened traces of every source's point-source solve at theta."""
        dt2m = self._dt2m(theta)

        def inject(n, f):
            f.reshape(-1)[self._src_flat] += self.wavelet[n]

        traces = self._forward_loop(dt2m, inject, u_tt)
        if not np.all(np.isfinite(traces)):
            raise RuntimeError(
                "wave solve blew up (non-finite traces); check the CFL margin"
            )
        return traces

    def solve_forward(self, theta) -> np.ndarray:
        theta = self._check_theta(theta)
        if self._cache_theta is not None and np.array_equal(theta, self._cache_theta):
            return self._cache_traces.copy()
        u_tt = np.empty(self.field_shape)
        traces = self._record(theta, u_tt)
        self._cache_theta = theta.copy()
        self._cache_u_tt = u_tt
        self._cache_traces = traces
        return traces.copy()

    def generate_reference(self, theta_true) -> np.ndarray:
        """Record observed data from a ground-truth model; not charged as cost.

        The march stores no wavefields and leaves the forward cache alone.
        """
        counter = self.propagation_counter
        self.reference = self._record(self._check_theta(theta_true))
        self.propagation_counter = counter
        return self.reference

    def loss_and_grad_rho(self, rho):
        if self.reference is None:
            raise RuntimeError("no observed data set; call generate_reference first")
        return least_squares_misfit(rho, self.reference)

    # --- constraint actions ------------------------------------------------------
    def _require_cache(self) -> np.ndarray:
        """The cached u_tt stack; raises if no forward solve is cached."""
        if self._cache_theta is None:
            raise RuntimeError("forward wavefields not cached; run solve_forward first")
        return self._cache_u_tt

    def apply_drho_h_inverse(self, rhs_fields) -> np.ndarray:
        """Linearized forward: (n_sources, n_t, npx, npz) sources to traces.

        A BornSource is expanded one time step at a time; any other
        array-like of that shape is read as it is.
        """
        self._require_cache()
        dt2m = self._dt2m(self._cache_theta)
        if isinstance(rhs_fields, BornSource):
            eta_pad, u_tt = self._fields(rhs_fields.eta_pad), rhs_fields.u_tt
            born = self._fields()

            def inject(n, f):
                np.multiply(eta_pad, u_tt[:, n], out=born)
                f += born
        else:
            rhs = np.asarray(rhs_fields, dtype=float)
            if rhs.shape != self.field_shape:
                raise ValueError(f"source fields must have shape {self.field_shape}")

            def inject(n, f):
                f += rhs[:, n]

        return self._forward_loop(dt2m, inject)

    def apply_drho_h_transpose_inverse(self, data_rhs) -> np.ndarray:
        """Reverse-time solve: trace-space input to adjoint fields, shaped
        (n_sources, n_t, npx, npz)."""
        self._require_cache()
        data = np.asarray(data_rhs, dtype=float)
        if data.shape != (self.state_dim,):
            raise ValueError(f"data vector must have length {self.state_dim}")
        return self._reverse_loop(self._dt2m(self._cache_theta), data)

    def apply_dtheta_h(self, eta) -> BornSource:
        """Model perturbation to the Born source fields eta * u_tt."""
        u_tt = self._require_cache()
        eta_pad = np.asarray(eta, dtype=float)[self._pad_flat].reshape(
            self.npx, self.npz
        )
        return BornSource(eta_pad, u_tt)

    def apply_dtheta_h_transpose(self, lam_fields) -> np.ndarray:
        """Zero-lag correlation of adjoint fields with u_tt, summed over sources."""
        u_tt = self._require_cache()
        acc = np.zeros((self.npx, self.npz))
        for lam, w in zip(lam_fields, u_tt):
            acc += np.einsum("tij,tij->ij", lam, w)
        return self._pad_transpose(acc)


class BornSource:
    """The Born source fields eta * u_tt of every source, never materialized.

    The linearized solve forms each time step's slice as it marches.
    Negation flips the stored perturbation, which is exact, and
    ``np.asarray`` builds the full (n_sources, n_t, npx, npz) stack.
    """

    def __init__(self, eta_pad, u_tt):
        self.eta_pad = eta_pad
        self.u_tt = u_tt

    def __neg__(self) -> BornSource:
        return BornSource(-self.eta_pad, self.u_tt)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(self.eta_pad * self.u_tt, dtype=dtype)
