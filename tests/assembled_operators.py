"""Assembled matrices of the operators natgrad applies by stencil or by a
k-row root: oracles that the matrix-free metric actions are checked against;
the wave model's constraint fields as full (n_sources, n_t, npx, npz)
stacks, with the plain-field linearized solve and correlation that act on
them; and the red-black transport factor, the wave model's receiver Jacobian
and the explicit direction's least-squares stack as first written, which
natgrad's must equal bit for bit."""

import math
import warnings

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from natgrad.grids import build_weighted_divergence
from natgrad.linalg import solve_least_squares_min_norm
from natgrad.models import wave


def neumann_gradient(grid) -> sp.csr_matrix:
    """Staggered gradient (edges x k) with exactly the constants in its kernel:
    per axis, forward differences onto the n-1 interior edges of n centres."""
    counts, ops = grid.interior_counts, []
    for axis, (n, h) in enumerate(zip(counts, grid.spacings)):
        ones = np.ones(n - 1)
        factors = [sp.identity(m, format="csr") for m in counts]
        factors[axis] = (1.0 / h) * sp.diags([-ones, ones], [0, 1], shape=(n - 1, n))
        ops.append(factors[0] if grid.dim == 1 else sp.kron(*factors, format="csr"))
    return sp.vstack(ops, format="csr")


def neumann_laplacian(grid) -> sp.csr_matrix:
    """-G^T G assembled, the matrix the Sobolev stencil must equal bit for bit."""
    g = neumann_gradient(grid)
    return (-(g.T @ g)).tocsr()


def central_difference_matrix(n: int) -> sp.csr_matrix:
    """Central difference matrix with zero-Dirichlet boundary: +1 super, -1 sub."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ones = np.ones(n - 1)
    return sp.diags([ones, -ones], [1, -1], shape=(n, n)).tocsr()


def axis_central_operators(grid) -> tuple[sp.csr_matrix, ...]:
    """Central-difference derivative along each axis, scaled by 1/(2h)."""
    counts, ops = grid.interior_counts, []
    for axis, (n, h) in enumerate(zip(counts, grid.spacings)):
        factors = [sp.identity(m, format="csr") for m in counts]
        factors[axis] = (0.5 / h) * central_difference_matrix(n)
        ops.append(factors[0] if grid.dim == 1 else sp.kron(*factors, format="csr"))
    return tuple(ops)


def divergence_matrix(wdiv) -> sp.csr_matrix:
    """B = -[A_x D, A_y D] of a WeightedDivergence, assembled."""
    d = sp.diags(wdiv.weights)
    return sp.hstack([-(a @ d) for a in axis_central_operators(wdiv.grid)], format="csr")


def divergence_rank(wdiv) -> int:
    """Numerical rank of the assembled divergence: its singular values above
    1e-10 of the largest."""
    s = np.linalg.svd(divergence_matrix(wdiv).toarray(), compute_uv=False)
    return int(np.count_nonzero(s > 1e-10 * s[0]))


def stacked_metric_root(name: str, grid, rho) -> np.ndarray:
    """The stacked L that each k-row metric root is orthogonally equivalent
    to, dense: [I; G] for h1, G for hdot1, their duals for h-1 and hdot-1,
    pinv(B) for w2, and the diagonal L of l2 and fisher-rao."""
    if name == "l2":
        return np.eye(grid.size)
    if name == "fisher-rao":
        return np.diag(1.0 / np.sqrt(rho))
    if name == "w2":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the all-odd rank warning
            wdiv = build_weighted_divergence(grid, rho)
        return np.linalg.pinv(divergence_matrix(wdiv).toarray())
    g = neumann_gradient(grid).toarray()
    stack = np.vstack([np.eye(grid.size), g])
    return {
        "h1": stack,
        "h-1": stack @ np.linalg.inv(stack.T @ stack),
        "hdot1": g,
        "hdot-1": g @ np.linalg.pinv(g.T @ g),
    }[name]


class RedBlackReference:
    """The red-black transport factor and its three actions as first written:
    every stencil array on the padded grid, the Schur band gathered from one
    concatenated values vector, and each action on the whole (k, columns)
    array in its own memory order. natgrad's ``WeightedDivergence`` must
    agree with it bit for bit (``np.array_equal``), on every grid, input
    layout and column count."""

    def __init__(self, grid, rho, mobility_exponent: float = 0.5):
        rho = np.asarray(rho, dtype=float)
        weights = rho**mobility_exponent if mobility_exponent != 0.0 else np.ones_like(rho)
        self.grid = grid
        (self.couplings, self.inv_d, self.sqrt_d, self.inv_sqrt_d, self.black,
         self.factor, self.ground) = self._factor(grid, weights * weights)

    @staticmethod
    def _layout(grid) -> tuple:
        lead = (2 - grid.dim) * (1,)
        counts, spacings = lead + grid.interior_counts, lead + grid.spacings
        flat = np.arange(grid.size).reshape(counts)
        i, j = np.indices(counts)
        red = (i // 2 + j // 2) % 2 == 1
        order = flat.T if counts[0] < counts[1] else flat
        black = []
        for ps, pf in np.ndindex(*(min(2, n) for n in order.shape)):
            idx = order[ps::2, pf::2]
            a, b = np.indices(idx.shape)
            black.append(idx[(a + b) % 2 == 0])
        kd = (order.shape[1] + 1) // 2
        place = np.zeros(grid.size, dtype=np.intp)
        place[np.concatenate(black)] = np.arange(sum(map(len, black)))
        pairs = [(flat, flat), (flat[:-4], flat[4:]), (flat[:, :-4], flat[:, 4:]),
                 (flat[:-2, :-2], flat[2:, 2:]), (flat[:-2, 2:], flat[2:, :-2])]
        src, dst, offset = [], [], 0
        for x, y in pairs:
            x, y = x.ravel(), y.ravel()
            keep = np.flatnonzero(~red.ravel()[x])
            src.append(offset + keep)
            offset += x.size
            px, py = place[x[keep]], place[y[keep]]
            dst.append(np.maximum(px, py) * (kd + 1) + kd - np.abs(py - px))
        scales = tuple(1.0 / (4.0 * h * h) for h in spacings)
        return (counts, scales, red, np.concatenate(black), len(black[0]), kd,
                np.concatenate(src), np.concatenate(dst))

    @classmethod
    def _factor(cls, grid, q) -> tuple:
        counts, (cx, cy), red, black, n_even, kd, src, dst = cls._layout(grid)
        q = q.reshape(counts)
        qp = np.pad(q, 1)
        diag = cx * (qp[:-2, 1:-1] + qp[2:, 1:-1]) + cy * (qp[1:-1, :-2] + qp[1:-1, 2:])
        c0, c1 = cx * q[1:-1, :], cy * q[:, 1:-1]
        inv_d = np.divide(1.0, diag, out=np.zeros(counts), where=red)
        schur = diag.copy()
        s0, s1 = c0 * c0, c1 * c1
        schur[2:] -= s0 * inv_d[:-2]
        schur[:-2] -= s0 * inv_d[2:]
        schur[:, 2:] -= s1 * inv_d[:, :-2]
        schur[:, :-2] -= s1 * inv_d[:, 2:]
        values = np.concatenate([
            schur.ravel(),
            -(c0[:-2] * c0[2:] * inv_d[2:-2]).ravel(),
            -(c1[:, :-2] * c1[:, 2:] * inv_d[:, 2:-2]).ravel(),
            -(c0[:, :-2] * inv_d[2:, :-2] * c1[2:] + c1[:-2] * inv_d[:-2, 2:] * c0[:, 2:]).ravel(),
            -(c0[:, 2:] * inv_d[2:, 2:] * c1[2:] + c1[:-2] * inv_d[:-2, :-2] * c0[:, :-2]).ravel(),
        ])
        band = np.zeros((len(black), kd + 1))
        band.ravel()[dst] = values[src]
        ground = None
        if all(n % 2 for n in counts):
            d0 = diag.ravel()[black[:n_even]]
            at = int(np.argmax(d0))
            band[at, kd] += d0[at] or 1.0
            ground = int(black[at])
        factor, info = scipy.linalg.lapack.dpbtrf(band.T, lower=0, overwrite_ab=1)
        assert info == 0
        wrapped = np.zeros(counts)
        wrapped[:, :-2] = c1
        couplings = (c0.reshape(-1, 1), wrapped.reshape(-1, 1)[:max(grid.size - 2, 0)])
        inv_d = inv_d.reshape(-1, 1)
        return (couplings, inv_d, np.sqrt(diag * red).reshape(-1, 1), np.sqrt(inv_d),
                black, factor, ground)

    def apply_inverse_root(self, zeta) -> np.ndarray:
        u = self._columns(zeta, center=True)
        y = u * self.inv_sqrt_d
        rhs = self._couple(u * self.inv_d)
        rhs += u
        x, info = scipy.linalg.lapack.dtbtrs(self.factor, rhs[self.black], trans="T",
                                             overwrite_b=True)
        assert info == 0
        y[self.black] = x
        return y.reshape(np.shape(zeta))

    def apply_root(self, g) -> np.ndarray:
        u = self._columns(g, center=False)
        eg = self._couple(u)
        eg *= self.inv_sqrt_d
        out = u * self.sqrt_d
        out -= eg
        kd = self.factor.shape[0] - 1
        out[self.black] = np.column_stack(
            [scipy.linalg.blas.dtbmv(kd, self.factor, c) for c in u[self.black].T]
        )
        return out.reshape(np.shape(g))

    def apply_gram_pinv(self, v) -> np.ndarray:
        u = self._columns(v, center=True)
        rhs = self._couple(u * self.inv_d)
        rhs += u
        xb, info = scipy.linalg.lapack.dpbtrs(self.factor, rhs[self.black], lower=False,
                                              overwrite_b=True)
        assert info == 0
        x = np.zeros_like(u)
        x[self.black] = xb
        red = self._couple(x)
        red += u
        red *= self.inv_d
        x += red
        if self.ground is not None:
            self._remove_block_mean(x)
        return x.reshape(np.shape(v))

    def _columns(self, a, center: bool) -> np.ndarray:
        a = np.asarray(a, dtype=float)
        u = a.reshape(len(a), -1)
        if self.ground is not None:
            u = u.copy(order="K") if np.may_share_memory(u, a) else u
            if center:
                self._remove_block_mean(u)
            else:
                self._singular_block(u)[...] -= u[self.ground].copy()
        return u

    def _singular_block(self, u) -> np.ndarray:
        lead = (2 - self.grid.dim) * (1,)
        return u.reshape(lead + self.grid.interior_counts + (-1,))[::2, ::2]

    def _remove_block_mean(self, u) -> None:
        block = self._singular_block(u)
        block -= block.mean(axis=(0, 1))

    def _couple(self, x) -> np.ndarray:
        out, tmp = np.zeros_like(x), np.empty_like(x)
        for c in self.couplings:
            s, t = len(x) - len(c), tmp[:len(c)]
            out[:-s] += np.multiply(c, x[s:], out=t)
            out[s:] += np.multiply(c, x[:-s], out=t)
        return out


def field_shape(model) -> tuple[int, int, int, int]:
    """Shape of the wave model's constraint fields: one space-time stack per
    source."""
    return (model.n_sources, model.n_t, model.npx, model.npz)


def u_tt_stack(model) -> np.ndarray:
    """The cached (n_sources, n_t, npx, npz) damped second time derivative."""
    return model._call("cached_u_tt", None)


def born_source_stack(model, eta) -> np.ndarray:
    """The Born source fields eta * u_tt of a parameter perturbation eta."""
    return eta[model._pad_flat].reshape(model.npx, model.npz) * u_tt_stack(model)


def adjoint_stack(model, data) -> np.ndarray:
    """The adjoint fields of trace-space data, every step stored: one reverse
    march per source, charged as one."""
    return model._call("adjoint_fields", data.reshape(model.n_sources, -1), split=True)


def linearized_traces(model, fields) -> np.ndarray:
    """Traces of the linearized solve driven by plain (n_sources, n_t, npx,
    npz) source fields at the cached forward solve: every source marches in
    this process, on the model's own forward loop, charging nothing."""
    group = wave._SourceGroup(model, 0, model.n_sources)
    stencil = group._stencil(model._require_cache())
    f = np.zeros(group._batch)
    f_in, f_core = f[:, 1:-1, 1:-1], f.reshape(-1)[group._core]
    traces = np.empty((model.n_t, group._rec_core.size))

    def inject(n, c, t):
        f_in[...] = fields[:, n]
        np.multiply(stencil.cs, f_core, out=t)
        c += t
        traces[n] = c[group._rec_core]

    group._forward_loop(stencil, inject)
    return traces.T.ravel()


def correlation(model, fields) -> np.ndarray:
    """d_theta h^T of plain fields: their zero-lag correlation with u_tt,
    summed over sources and scatter-added onto the parameters."""
    return model._pad_transpose(np.einsum("stij,stij->ij", fields, u_tt_stack(model)))


def receiver_jacobian_all_at_once(model) -> np.ndarray:
    """``WaveFwiModel.receiver_jacobian`` as first written: the spectra of
    u_tt and of every Green's function of a reverse march are held at once,
    as (source, freq, cell) stacks, and each receiver's product with u_tt is
    formed, summed per parameter and transformed back whole. The model's
    parameter-block streaming must equal it bit for bit."""
    model._require_cache()
    n_s, n_r, n_t, p = model.n_sources, model.n_receivers, model.n_t, model.param_dim
    order = np.argsort(model._pad_flat, kind="stable")
    starts = np.searchsorted(model._pad_flat[order], np.arange(p))
    n_fft = 2 * n_t

    def spectra(fields):
        series = fields.reshape(len(fields), n_t, -1)[:, :, order]
        return np.fft.rfft(series, n_fft, axis=1)

    u_hat = spectra(u_tt_stack(model))
    z = np.empty((n_s, n_r, n_t, p))
    for first in range(0, n_r, n_s):
        stop = min(first + n_s, n_r)
        impulses = np.zeros((n_s, n_r, n_t))
        impulses[np.arange(stop - first), np.arange(first, stop), -1] = 1.0
        green = adjoint_stack(model, impulses)
        g_hat = spectra(green[:stop - first, ::-1])
        for k in range(stop - first):
            y_hat = np.add.reduceat(u_hat * g_hat[k], starts, axis=2)
            z[:, first + k] = -np.fft.irfft(y_hat, n_fft, axis=1)[:, :n_t]
    return z.reshape(model.state_dim, p)


def direction_explicit_whole(z, metric, grad_rho, rank_tol=1e-10, damping_lambda=0.0,
                             damping_metric=None) -> np.ndarray:
    """``solver.direction_explicit`` as first written: L Z and the damping
    rows formed whole, one ``apply_L_matrix`` call each, then joined by
    ``np.vstack``. The block-filled stack must give its direction bit for
    bit."""
    z = np.asarray(z, dtype=float)
    y = metric.apply_L_matrix(z) if metric is not None else z.copy()
    rhs = metric.apply_Lt_pinv(grad_rho) if metric is not None else np.asarray(grad_rho, float)
    if damping_lambda > 0.0:
        root = math.sqrt(damping_lambda)
        if damping_metric is None:
            extra = root * np.eye(z.shape[1])
        else:
            extra = root * damping_metric.apply_L_matrix(z)
        y = np.vstack([y, extra])
        rhs = np.concatenate([rhs, np.zeros(extra.shape[0])])
    return -solve_least_squares_min_norm(y, rhs, tol=rank_tol)
