"""Differentiable layers: forward passes return (output, cache); backward
passes consume the cache, accumulate parameter gradients in place, and
return the gradient with respect to the layer input.

Conventions fixed here (they are contract, not implementation detail):

* GRU update: h' = (1-z)*h + z*h_tilde with z the update gate.
* ReLU subgradient at 0 is 0; hinge-style choices match.
* Max pooling breaks ties toward the earliest frame.
* Recurrent sweeps start from zero initial state.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class NnetError(ValueError):
    """Shape disagreement or invalid layer configuration."""


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # 0.5 * (1 + tanh(x/2)): stable in both tails, and a few ufunc calls
    # with no masking, which matters inside the recurrent time loops
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def _forward(layers, x, caches: list | None = None):
    """One clip through ``layers`` in order; with ``caches``, appends each
    layer's cache to it, in layer order."""
    for layer in layers:
        x, cache = layer.forward(x)
        if caches is not None:
            caches.append(cache)
    return x


def _backward(layers, caches, dy):
    """The reverse of _forward: one clip's output gradient back through
    ``layers`` and their ``caches``; returns the input gradient."""
    for layer, cache in zip(reversed(layers), reversed(caches)):
        dy = layer.backward(cache, dy)
    return dy


# ---------------------------------------------------------------------------
# dense


class Dense:
    """Affine map y = W x + b; accepts a vector (in,) or frames (T, in)."""

    def __init__(self, w: Tensor, b: Tensor):
        self.w = w
        self.b = b

    def forward(self, x: np.ndarray):
        out_dim, in_dim = self.w.shape
        if x.shape[-1] != in_dim:
            raise NnetError(f"dense: input dim {x.shape[-1]} != {in_dim}")
        y = x @ self.w.data.T + self.b.data
        return y, x

    def backward(self, cache, dy: np.ndarray) -> np.ndarray:
        x = cache
        # a vector's np.outer takes a fifth of the time of a one-row GEMM at H = 300
        self.w.accumulate(np.outer(dy, x) if x.ndim == 1 else dy.T @ x)
        self.b.accumulate(np.atleast_2d(dy).sum(axis=0))
        return dy @ self.w.data


# ---------------------------------------------------------------------------
# activations


class Activation:
    KINDS = ("relu", "tanh", "sigmoid")

    def __init__(self, kind: str):
        if kind not in self.KINDS:
            raise NnetError(f"unknown activation {kind!r}")
        self.kind = kind

    def forward(self, x: np.ndarray):
        """Caches what backward reads: relu the mask x > 0, tanh/sigmoid y."""
        if self.kind == "relu":
            return np.maximum(x, 0.0), x > 0
        y = np.tanh(x) if self.kind == "tanh" else _sigmoid(x)
        return y, y

    def backward(self, cache, dy: np.ndarray) -> np.ndarray:
        if self.kind == "relu":
            return dy * cache
        y = cache
        if self.kind == "tanh":
            return dy * (1.0 - y * y)
        return dy * y * (1.0 - y)


# ---------------------------------------------------------------------------
# 1-D convolution over time


class Conv1d:
    """Same-length conv along time: x (T, C_in) -> y (T, C_out).

    Odd kernel width k, zero padding (k-1)/2 each side. Implemented as
    one product with the transposed im2col matrix, built a contiguous row
    at a time; kernels[o, c, j] multiplies x[t - (k-1)/2 + j, c].
    The cache is x itself, not a copy: x must not be written before the
    backward that reads it.
    """

    def __init__(self, kernels: Tensor, bias: Tensor):
        c_out, c_in, k = kernels.shape
        if k % 2 == 0:
            raise NnetError(f"conv1d kernel width must be odd, got {k}")
        if bias.shape != (c_out,):
            raise NnetError(f"conv1d bias shape {bias.shape} != ({c_out},)")
        self.kernels = kernels
        self.bias = bias

    def forward(self, x: np.ndarray):
        c_out, c_in, k = self.kernels.shape
        t = x.shape[0]
        if x.ndim != 2 or x.shape[1] != c_in:
            raise NnetError(f"conv1d: input shape {x.shape}, expected (T, {c_in})")
        pad = (k - 1) // 2
        xpt = np.zeros((c_in, t + 2 * pad), dtype=x.dtype)
        xpt[:, pad : pad + t] = x.T
        # the im2col matrix transposed, rows in (c, j) order: row (c, j) is
        # xp[j : j + T, c], one contiguous run of the padded channel c
        cols_t = np.lib.stride_tricks.sliding_window_view(xpt, t, axis=1).reshape(c_in * k, t)
        y = cols_t.T @ self.kernels.data.reshape(c_out, c_in * k).T
        y += self.bias.data
        return y, x

    def backward(self, cache, dy: np.ndarray) -> np.ndarray:
        x = cache
        c_out, c_in, k = self.kernels.shape
        t, pad = x.shape[0], (k - 1) // 2
        xp = np.zeros((t + 2 * pad, c_in), dtype=x.dtype)  # x with pad zero frames each side
        xp[pad : pad + t] = x
        # tap j's gradient is dy^T against x shifted by j: k GEMMs over
        # (T, C_in) views instead of one over a rebuilt (T, C_in*k) im2col copy
        dk = np.empty((k, c_out, c_in), dtype=np.result_type(dy, x))
        for j in range(k):
            np.matmul(dy.T, xp[j : j + t], out=dk[j])
        self.kernels.accumulate(dk.transpose(1, 2, 0))
        self.bias.accumulate(dy.sum(axis=0))
        dcols = (dy @ self.kernels.data.reshape(c_out, c_in * k)).reshape(t, c_in, k)
        dxp = np.zeros((t + 2 * pad, c_in), dtype=dy.dtype)
        for j in range(k):
            dxp[j : j + t] += dcols[:, :, j]
        return dxp[pad : pad + t]


# ---------------------------------------------------------------------------
# pooling over time


def _windows(x: np.ndarray, stride: int, fill: float) -> np.ndarray:
    """x (T, H) as (ceil(T/s), s, H) non-overlapping windows, s = min(stride,
    T); a partial last window is padded with ``fill``."""
    t = x.shape[0]
    stride = min(stride, t)  # a window past the clip end holds the same frames
    if t % stride == 0:
        return x.reshape(-1, stride, x.shape[1])  # a view of a C-contiguous x
    padded = np.full((-(-t // stride) * stride, x.shape[1]), fill, dtype=x.dtype)
    padded[:t] = x
    return padded.reshape(-1, stride, x.shape[1])


class MaxPoolTime:
    """Non-overlapping max windows of length `stride`; T' = ceil(T/stride).

    The last window may be partial. Gradient flows to the earliest
    maximal frame in each window. The cache holds each output's offset in
    its window, in the smallest unsigned dtype that holds stride - 1.
    """

    def __init__(self, stride: int):
        if stride < 1:
            raise NnetError(f"max pool stride must be >= 1, got {stride}")
        self.stride = stride

    def forward(self, x: np.ndarray):
        # -inf padding never wins a window: every window holds a real frame
        windows = _windows(x, self.stride, -np.inf)
        y = windows[:, 0].copy()
        offsets = np.zeros(y.shape, dtype=np.min_scalar_type(windows.shape[1] - 1))
        for j in range(1, windows.shape[1]):
            # only a strictly greater frame moves the offset: ties keep the
            # earliest. j is given in the offsets' dtype: no NumPy refuses that cast
            np.copyto(offsets, offsets.dtype.type(j), where=windows[:, j] > y)
            np.maximum(y, windows[:, j], out=y)
        return y, (x.shape, offsets)

    def backward(self, cache, dy: np.ndarray) -> np.ndarray:
        shape, offsets = cache
        stride = min(self.stride, shape[0])
        argmax = offsets + stride * np.arange(offsets.shape[0])[:, None]
        dx = np.zeros(shape, dtype=dy.dtype)
        # windows do not overlap, so each (frame, channel) is hit at most once
        dx[argmax, np.arange(shape[1])] = dy
        return dx


class MeanPoolTime:
    """stride=0: full-sequence mean to a single (H,) vector.
    stride>0: non-overlapping window means, partial last window included.
    """

    def __init__(self, stride: int = 0):
        if stride < 0:
            raise NnetError(f"mean pool stride must be >= 0, got {stride}")
        self.stride = stride

    def forward(self, x: np.ndarray):
        """Caches T for the full mean, else the length of each window."""
        t = x.shape[0]
        if self.stride == 0:
            return x.mean(axis=0), t
        windows = _windows(x, self.stride, 0.0)
        t_out, stride = windows.shape[:2]
        lengths = np.full(t_out, stride)
        lengths[-1] = t - (t_out - 1) * stride
        return windows.sum(axis=1) / lengths[:, None].astype(x.dtype), lengths

    def backward(self, cache, dy: np.ndarray) -> np.ndarray:
        if self.stride == 0:
            return np.broadcast_to(dy / cache, (cache, dy.shape[0]))  # a read-only view
        return np.repeat(dy / cache[:, None].astype(dy.dtype), cache, axis=0)


# ---------------------------------------------------------------------------
# recurrent cells
#
# Both cells run a list of clips at once in the packed layout of PyTorch's
# pack_padded_sequence (Packing), so each step's recurrent products are
# small GEMMs over every running clip. Each cell holds only its gate
# algebra; _Cell owns the time loops. sweep keeps gates and states as the
# cache of sweep_backward, projecting the inputs ahead of the loop
# (Appleyard et al. 2016, arXiv:1604.01946). mean_states, for inference,
# projects _CHUNK_STEPS steps at a time and keeps only the running state and
# a per-clip state sum, so no gate buffer of a whole split is alive; it gives
# each product that would have one row (a step where one clip runs alone, a
# chunk of one row) a zero second row, so that, with OpenBLAS rounding each
# row of a product of two rows or more alike, a clip's result does not
# depend on the clips run with it.
#
# Pre-activations and gates are stored gate-major, (G, rows, H), so each
# gate of each step is one contiguous (n, H) block: at n <= 32 running clips
# a ufunc over a strided (n, H) column of a (rows, G*H) buffer costs 2 to 3
# times as much. Each gate has its own input projection, recurrent, dW and
# dU products, against a contiguous W^T or U^T of its own (at 5 to 10 rows
# one (H, 4H) recurrent product takes up to twice as long as four (H, H)
# ones, at 1 and 32 rows about 10% less). The input
# gradients and the LSTM's dh stay one product over all the gates, put back
# in (rows, G*H) order: per-gate products summed would round differently.
# Each float is thus the sum of the same terms in the same order as with
# row-major buffers (tests/oracles.py keeps those sweeps), and with OpenBLAS
# on x86-64 it keeps its bits; the exception is a lone 1-step clip's input
# projection, a matrix-vector product, which BLAS rounds by operand layout.
# sweep_backward walks the steps back _CHUNK_STEPS at a time; each step
# writes its pre-activation gradients over the gate cache it has consumed
# and dU is summed per chunk, so the backward needs little memory beyond
# the cache. A sweep cache therefore serves one backward; a second one
# raises NnetError.

_CHUNK_STEPS = 32
# Rows per product of the input gradients: blocks of at least half this many
# rows take the BLAS kernel that the whole product takes (a block of a few
# rows may take a small-matrix kernel, which rounds otherwise).
_DX_ROWS = 512


class Packing:
    """Rows of clips of the given lengths, packed without padding: clips
    sorted longest first (stable, so ties keep their order), rows
    step-major. steps[t] = (offs[t], active[t]): step t owns the rows from
    offs[t], one per running clip, row offs[t] + j for the j-th longest.
    rows[i] holds clip i's rows in time order; rank[i] is j for clip i."""

    def __init__(self, lengths):
        order = sorted(range(len(lengths)), key=lambda i: -lengths[i])
        steps = np.arange(max(lengths, default=0))[:, None]
        active = (np.array(lengths)[order] > steps).sum(axis=1)
        self.offs = np.concatenate([[0], np.cumsum(active)])
        self.steps = list(zip(self.offs[:-1].tolist(), active.tolist()))
        self.rank = np.empty(len(lengths), dtype=np.intp)
        self.rank[order] = np.arange(len(lengths))
        self.rows = [self.offs[:t] + j for t, j in zip(lengths, self.rank)]
        # each row's predecessor, the row of the same rank one step earlier;
        # a step-0 row names itself
        step_of_row = np.repeat(np.arange(len(active)), active)
        self._prev = np.arange(self.offs[-1]) - np.append(0, active)[step_of_row]

    def gather(self, seqs, first: int = 0, stop: int | None = None) -> np.ndarray:
        """Packed rows of steps first..stop-1 from per-clip (T_i, ...)
        arrays in input order (any iterable, read once)."""
        stop = len(self.steps) if stop is None else stop
        base, out = self.offs[first], None
        for rows, seq in zip(self.rows, seqs):
            if out is None:
                out = np.empty((self.offs[stop] - base, *seq.shape[1:]), dtype=seq.dtype)
            out[rows[first:stop] - base] = seq[first:stop]
        return out

    def unpack(self, packed: np.ndarray) -> list[np.ndarray]:
        return [packed[rows] for rows in self.rows]

    def previous(self, packed: np.ndarray, first: int, stop: int) -> np.ndarray:
        """Each row's predecessor in its clip for steps first..stop-1; zero
        at step 0, the initial state."""
        out = packed[self._prev[self.offs[first] : self.offs[stop]]]
        if first == 0:
            out[: self.offs[1]] = 0
        return out


def _stack(p: dict[str, Tensor], kind: str, gates) -> np.ndarray:
    return np.concatenate([p[f"{kind}_{gate}"].data for gate in gates])


class _Cell:
    """The time loops around a subclass's gate algebra, on n running clips.

    step(pre, *states, uts) overwrites pre, the (G, n, H) projections
    W x + b, with the gates and updates the (n, H) rows of each of STATES
    (STATES[0] is the output h) in place; uts are the gates' U^T.
    chunk_backward(gates, *states, *prevs) takes a chunk's (G, rows, H)
    gates and its rows of each state and of its predecessor; it returns the
    coefficients that do not depend on the incoming gradient, each indexed by
    row on its second-to-last axis, and per gate the input that dU takes.
    step_backward(d, dh_t, *dstates, coefs, u) overwrites d, a step's gates,
    with the pre-activation gradients and the carried state gradients with
    the previous step's."""

    def __init__(self, p: dict[str, Tensor]):
        self.p = p  # keys: w_<gate>, u_<gate>, b_<gate> for each gate

    def _start(self, batch: int):
        """Per gate a contiguous W^T, b and a contiguous U^T, and a zero
        state for a batch of clips."""
        w_ts, uts = ([np.ascontiguousarray(self.p[f"{kind}_{gate}"].data.T) for gate in self.GATES]
                     for kind in "wu")
        state = [np.zeros((batch, uts[0].shape[0]), dtype=uts[0].dtype) for _ in self.STATES]
        return w_ts, [self.p[f"b_{gate}"].data for gate in self.GATES], uts, state

    @staticmethod
    def _project(xs, w_ts, bs, out) -> np.ndarray:
        """out[k] = xs W_k^T + b_k for each gate k; returns out."""
        for pre, w_t, b in zip(out, w_ts, bs):
            np.matmul(xs, w_t, out=pre)
            pre += b
        return out

    def sweep(self, seqs):
        """Run over a list of (T_i, in) sequences, each from a zero state;
        returns the list of (T_i, H) output states and the cache."""
        pack = Packing([x.shape[0] for x in seqs])
        xs = pack.gather(seqs)
        w_ts, bs, uts, state = self._start(len(seqs))
        # (G, N, H) pre-activations, overwritten step by step with the gates
        gates = self._project(xs, w_ts, bs, np.empty(
            (len(bs), xs.shape[0], bs[0].size), dtype=np.result_type(xs, w_ts[0])))
        kept = [np.empty((xs.shape[0], s.shape[1]), dtype=gates.dtype) for s in state]
        for lo, n in pack.steps:
            rows = [s[:n] for s in state]
            self.step(gates[:, lo : lo + n], *rows, uts)
            for k, r in zip(kept, rows):
                k[lo : lo + n] = r
        return pack.unpack(kept[0]), [pack, xs, *kept, gates]

    def mean_states(self, seqs) -> np.ndarray:
        """(B, H) mean output state of each of B >= 1 (T_i, in) sequences,
        rows in input order; forward only, so it keeps no cache. The state
        sums are float64.

        A one-row product rounds unlike a row of a larger one (BLAS takes a
        matrix-vector kernel), so a sequence's result would depend on the
        sequences run with it. A product that would have one row, in a step
        where one sequence runs alone or a projection chunk of one row, gets
        a zero second row in scratch instead."""
        pack = Packing([x.shape[0] for x in seqs])
        # a second state row even for one sequence; once one sequence runs
        # alone, row 1's clip has ended and its row is free to zero
        w_ts, bs, uts, state = self._start(max(len(seqs), 2))
        total = np.zeros(state[0].shape)
        # one buffer for every chunk's projections (the first chunk has the
        # most rows) and the two-row scratch of a lone step
        buf = np.empty((len(bs), max(pack.offs[min(_CHUNK_STEPS, len(pack.steps))], 2),
                        bs[0].size), bs[0].dtype)
        lone = np.empty_like(buf[:, :2])
        for first in range(0, len(pack.steps), _CHUNK_STEPS):
            stop = min(first + _CHUNK_STEPS, len(pack.steps))
            base = pack.offs[first]
            xs = pack.gather(seqs, first, stop)
            if len(xs) == 1:
                xs = np.concatenate([xs, np.zeros_like(xs)])
            pre = self._project(xs, w_ts, bs, buf[:, : len(xs)])
            for lo, n in pack.steps[first:stop]:
                gates = pre[:, lo - base : lo - base + n]
                if n == 1:
                    lone[:, :1], lone[:, 1] = gates, 0
                    gates = lone
                    for s in state:
                        s[1] = 0
                rows = [s[: gates.shape[1]] for s in state]
                self.step(gates, *rows, uts)
                total[:n] += rows[0][:n]
        lengths = np.array([x.shape[0] for x in seqs])
        return (total[pack.rank] / lengths[:, None]).astype(state[0].dtype)

    def sweep_backward(self, cache, dstates) -> list[np.ndarray]:
        """Takes the list of (T_i, H) output state gradients and returns the
        list of d(xs); accumulates every W, U and b gradient. Spends the
        cache: the pre-activation gradients are written over its gates."""
        pack, xs, *kept, gates = cache
        if gates is None:
            raise NnetError("sweep cache already consumed by a backward pass")
        cache[-1] = None
        u = _stack(self.p, "u", self.GATES)
        dus = np.zeros((len(self.GATES), u.shape[1], u.shape[1]), dtype=u.dtype)
        carried = [np.zeros((len(pack.rows), u.shape[1]), dtype=gates.dtype) for _ in kept]
        for stop in range(len(pack.steps), 0, -_CHUNK_STEPS):
            first = max(stop - _CHUNK_STEPS, 0)
            base, end = pack.offs[first], pack.offs[stop]
            dpre = gates[:, base:end]
            coefs, du_inputs = self.chunk_backward(
                dpre, *[s[base:end] for s in kept], *[pack.previous(s, first, stop) for s in kept])
            dst = pack.gather(dstates, first, stop)
            for t in range(stop - 1, first - 1, -1):
                lo, n = pack.steps[t]
                at = slice(lo - base, lo - base + n)
                rows = [c[:n] for c in carried]
                self.step_backward(dpre[:, at], dst[at] + rows[0], *rows,
                                   [c[..., at, :] for c in coefs], u)
            for du, d, prev in zip(dus, dpre, du_inputs):
                du += d.T @ prev
            del coefs, du_inputs, prev  # freed before the next chunk builds its own
        for k, gate in enumerate(self.GATES):
            self.p[f"w_{gate}"].accumulate(gates[k].T @ xs)
            self.p[f"u_{gate}"].accumulate(dus[k])
            self.p[f"b_{gate}"].accumulate(gates[k].sum(axis=0))
        # d(xs): per block of rows one product over the gates in (rows, G*H) order
        w = _stack(self.p, "w", self.GATES)
        dxs = np.empty((xs.shape[0], w.shape[1]), dtype=np.result_type(gates, w))
        parts = -(-len(dxs) // _DX_ROWS)
        edges = [len(dxs) * i // parts for i in range(parts + 1)]
        for lo, hi in zip(edges[:-1], edges[1:]):
            np.matmul(gates[:, lo:hi].transpose(1, 0, 2).reshape(hi - lo, -1), w, out=dxs[lo:hi])
        return pack.unpack(dxs)


class GRUCell(_Cell):
    """Gated recurrent unit.

    z = sigmoid(Wz x + Uz h + bz)
    r = sigmoid(Wr x + Ur h + br)
    h~ = tanh(Wh x + Uh (r*h) + bh)
    h' = (1-z)*h + z*h~
    """

    GATES = ("z", "r", "h")
    STATES = ("h",)
    sweep = _Cell.sweep  # own attributes: the benchmark's tracer patches them per class
    sweep_backward = _Cell.sweep_backward

    @staticmethod
    def step(pre, h, uts) -> None:
        ut_z, ut_r, ut_h = uts
        z, r, h_tilde = pre
        z += h @ ut_z
        r += h @ ut_r
        _sigmoid(pre[:2], out=pre[:2])
        h_tilde += (r * h) @ ut_h
        np.tanh(h_tilde, out=h_tilde)
        z_h_tilde = z * h_tilde  # h' = (1-z)*h + z*h~, written in place
        h *= 1.0 - z
        h += z_h_tilde

    @staticmethod
    def chunk_backward(gates, h, h_prev):
        z, r, h_tilde = gates
        r = r.copy()  # step_backward writes dr over r
        rh_prev = r * h_prev
        coefs = [(h_tilde - h_prev) * z * (1.0 - z), rh_prev * (1.0 - r),
                 z * (1.0 - h_tilde * h_tilde), 1.0 - z, r]
        return coefs, [h_prev, h_prev, rh_prev]  # h~ against r*h_prev

    @staticmethod
    def step_backward(d, dh_t, dh, coefs, u) -> None:
        hidden = dh.shape[1]
        coef_z, coef_r, coef_h, coef_keep, r = coefs
        dz, dr, dht = d
        np.multiply(dh_t, coef_z, out=dz)
        np.multiply(dh_t, coef_h, out=dht)
        drh = dht @ u[2 * hidden :]
        np.multiply(drh, coef_r, out=dr)
        # summed left to right, as dh_t * coef_keep + drh * r + dz U_z + dr U_r
        np.multiply(dh_t, coef_keep, out=dh)
        dh += drh * r
        dh += dz @ u[:hidden]
        dh += dr @ u[hidden : 2 * hidden]


class LSTMCell(_Cell):
    """Long short-term memory cell.

    i, f, o = sigmoid(W x + U h + b)   (input, forget, output gates)
    g = tanh(Wg x + Ug h + bg)
    c' = f*c + i*g
    h' = o*tanh(c')
    """

    GATES = ("i", "f", "o", "g")
    STATES = ("h", "c")
    sweep = _Cell.sweep  # an own attribute: the benchmark's tracer patches it per class

    @staticmethod
    def step(pre, h, c, uts) -> None:
        for pre_k, ut in zip(pre, uts):
            pre_k += h @ ut
        i, f, o, g = pre
        _sigmoid(pre[:3], out=pre[:3])
        np.tanh(g, out=g)
        c *= f
        c += i * g
        np.tanh(c, out=h)
        h *= o

    @staticmethod
    def chunk_backward(gates, h, c, h_prev, c_prev):
        i, f, o, g = gates
        tanh_c = np.tanh(c)
        # dpre = coef * (dc, dc, dh, dc) gate by gate, dc += dh * coef_c
        coef = np.stack([g * i * (1.0 - i), c_prev * f * (1.0 - f),
                         tanh_c * o * (1.0 - o), i * (1.0 - g * g)])
        # f is copied because step_backward writes df over it
        return [coef, o * (1.0 - tanh_c * tanh_c), f.copy()], [h_prev] * 4

    @staticmethod
    def step_backward(d, dh_t, dh, dc, coefs, u) -> None:
        coef, coef_c, f = coefs
        dc += dh_t * coef_c
        np.multiply(coef, dc, out=d)
        np.multiply(coef[2], dh_t, out=d[2])
        dc *= f
        # one product over the gates in (n, G*H) order, as the input gradient
        dh[:] = d.transpose(1, 0, 2).reshape(len(dh), -1) @ u


# ---------------------------------------------------------------------------
# projection head


class Projection:
    """Dense then, for "relu", Activation("relu") on a single vector, run
    through the layer walk; "identity" is the Dense alone."""

    def __init__(self, w: Tensor, b: Tensor, activation_kind: str = "relu"):
        if activation_kind not in ("relu", "identity"):
            raise NnetError(f"projection activation must be relu or identity, got {activation_kind!r}")
        self.layers = [Dense(w, b), *([Activation("relu")] if activation_kind == "relu" else [])]

    def forward(self, v: np.ndarray):
        caches = []
        return _forward(self.layers, v, caches), caches

    def backward(self, cache, dout: np.ndarray) -> np.ndarray:
        return _backward(self.layers, cache, dout)
