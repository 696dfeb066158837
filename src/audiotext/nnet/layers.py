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
        if x.ndim == 1:
            self.w.accumulate(np.outer(dy, x))
            self.b.accumulate(dy)
        else:
            self.w.accumulate(dy.T @ x)
            self.b.accumulate(dy.sum(axis=0))
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
        if self.kind == "relu":
            y = np.maximum(x, 0.0)
        elif self.kind == "tanh":
            y = np.tanh(x)
        else:
            y = _sigmoid(x)
        return y, (x, y)

    def backward(self, cache, dy: np.ndarray) -> np.ndarray:
        x, y = cache
        if self.kind == "relu":
            return dy * (x > 0)
        if self.kind == "tanh":
            return dy * (1.0 - y * y)
        return dy * y * (1.0 - y)


# ---------------------------------------------------------------------------
# 1-D convolution over time


class Conv1d:
    """Same-length conv along time: x (T, C_in) -> y (T, C_out).

    Odd kernel width k, zero padding (k-1)/2 each side. Implemented as
    im2col + matmul; kernels[o, c, j] multiplies x[t - (k-1)/2 + j, c].
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
        xp = np.zeros((t + 2 * pad, c_in), dtype=x.dtype)
        xp[pad : pad + t] = x
        # windows[t, j, c] = xp[t + j, c]; flatten to (T, C_in*k) in (c, j) order
        windows = np.lib.stride_tricks.sliding_window_view(xp, (k, c_in)).reshape(t, k, c_in)
        cols = windows.transpose(0, 2, 1).reshape(t, c_in * k)
        y = cols @ self.kernels.data.reshape(c_out, c_in * k).T + self.bias.data
        return y, (cols, t, pad)

    def backward(self, cache, dy: np.ndarray) -> np.ndarray:
        cols, t, pad = cache
        c_out, c_in, k = self.kernels.shape
        self.kernels.accumulate((dy.T @ cols).reshape(c_out, c_in, k))
        self.bias.accumulate(dy.sum(axis=0))
        dcols = (dy @ self.kernels.data.reshape(c_out, c_in * k)).reshape(t, c_in, k)
        dxp = np.zeros((t + 2 * pad, c_in), dtype=dy.dtype)
        for j in range(k):
            dxp[j : j + t] += dcols[:, :, j]
        return dxp[pad : pad + t]


# ---------------------------------------------------------------------------
# pooling over time


class MaxPoolTime:
    """Non-overlapping max windows of length `stride`; T' = ceil(T/stride).

    The last window may be partial. Gradient flows to the earliest
    maximal frame in each window.
    """

    def __init__(self, stride: int):
        if stride < 1:
            raise NnetError(f"max pool stride must be >= 1, got {stride}")
        self.stride = stride

    def forward(self, x: np.ndarray):
        t, h = x.shape
        t_out = -(-t // self.stride)
        # -inf padding never wins a window: every window holds a real frame
        padded = np.full((t_out * self.stride, h), -np.inf, dtype=x.dtype)
        padded[:t] = x
        windows = padded.reshape(t_out, self.stride, h)
        idx = windows.argmax(axis=1)  # first maximum: the earliest frame
        y = np.take_along_axis(windows, idx[:, None, :], axis=1)[:, 0, :]
        argmax = idx + self.stride * np.arange(t_out)[:, None]
        return y, (x.shape, argmax)

    def backward(self, cache, dy: np.ndarray) -> np.ndarray:
        shape, argmax = cache
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

    def _window_lengths(self, t: int) -> np.ndarray:
        t_out = -(-t // self.stride)
        lengths = np.full(t_out, self.stride)
        lengths[-1] = t - (t_out - 1) * self.stride
        return lengths

    def forward(self, x: np.ndarray):
        t = x.shape[0]
        if self.stride == 0:
            return x.mean(axis=0), t
        lengths = self._window_lengths(t)
        padded = np.zeros((lengths.size * self.stride, x.shape[1]), dtype=x.dtype)
        padded[:t] = x
        sums = padded.reshape(lengths.size, self.stride, x.shape[1]).sum(axis=1)
        return sums / lengths[:, None].astype(x.dtype), t

    def backward(self, cache, dy: np.ndarray) -> np.ndarray:
        t = cache
        if self.stride == 0:
            return np.tile(dy / t, (t, 1))
        lengths = self._window_lengths(t)
        return np.repeat(dy / lengths[:, None].astype(dy.dtype), self.stride, axis=0)[:t]


# ---------------------------------------------------------------------------
# recurrent cells
#
# Both cells run fused sweeps (Appleyard et al. 2016, arXiv:1604.01946):
# the per-gate weights are stacked in GATES order once per call, the input
# projection of all T steps is one GEMM ahead of the time loop, the loop
# does only the recurrent matvecs and the gate nonlinearities, and the
# weight gradients are one GEMM each after the backward loop. The stacked
# copies are rebuilt in sweep_backward rather than cached: parameters do
# not change between a batch's forward and backward passes, and a training
# batch keeps every clip's cache alive at once.


def _stack(p: dict[str, Tensor], kind: str, gates) -> np.ndarray:
    return np.concatenate([p[f"{kind}_{gate}"].data for gate in gates])


def _accumulate_gates(p: dict[str, Tensor], kind: str, gates, grad: np.ndarray) -> None:
    """Split a stacked (G*H, ...) gradient into its per-gate tensors."""
    for gate, part in zip(gates, np.split(grad, len(gates))):
        p[f"{kind}_{gate}"].accumulate(part)


def _previous(seq: np.ndarray) -> np.ndarray:
    """Row t holds seq[t-1]; row 0 is the zero initial state."""
    prev = np.zeros_like(seq)
    prev[1:] = seq[:-1]
    return prev


class GRUCell:
    """Gated recurrent unit.

    z = sigmoid(Wz x + Uz h + bz)
    r = sigmoid(Wr x + Ur h + br)
    h~ = tanh(Wh x + Uh (r*h) + bh)
    h' = (1-z)*h + z*h~
    """

    GATES = ("z", "r", "h")

    def __init__(self, p: dict[str, Tensor]):
        self.p = p  # keys: w_z,u_z,b_z,w_r,u_r,b_r,w_h,u_h,b_h

    def sweep(self, xs: np.ndarray):
        """Run over a (T, in) sequence from h0 = 0; returns (T, H) states."""
        w, u = _stack(self.p, "w", self.GATES), _stack(self.p, "u", self.GATES)
        hidden = u.shape[1]
        u_zr, u_h = u[: 2 * hidden], u[2 * hidden :]
        # (T, 3H) pre-activations, overwritten step by step with z, r, h~
        gates = xs @ w.T + _stack(self.p, "b", self.GATES)
        states = np.empty((xs.shape[0], hidden), dtype=xs.dtype)
        h = np.zeros(hidden, dtype=gates.dtype)
        for t in range(xs.shape[0]):
            zr = gates[t, : 2 * hidden]
            zr += u_zr @ h
            _sigmoid(zr, out=zr)
            z, r = zr[:hidden], zr[hidden:]
            h_tilde = gates[t, 2 * hidden :]
            h_tilde += u_h @ (r * h)
            np.tanh(h_tilde, out=h_tilde)
            h = (1.0 - z) * h + z * h_tilde
            states[t] = h
        return states, (xs, states, gates)

    def sweep_backward(self, cache, dstates: np.ndarray) -> np.ndarray:
        """Returns d(xs); accumulates all nine parameter gradients."""
        xs, states, gates = cache
        hidden = states.shape[1]
        w, u = _stack(self.p, "w", self.GATES), _stack(self.p, "u", self.GATES)
        u_zr, u_h = u[: 2 * hidden], u[2 * hidden :]
        z, r, h_tilde = np.split(gates, 3, axis=1)
        h_prev = _previous(states)
        # gate-derivative coefficients that do not depend on the incoming gradient
        coef_z = (h_tilde - h_prev) * z * (1.0 - z)
        coef_h = z * (1.0 - h_tilde * h_tilde)
        coef_keep = 1.0 - z
        coef_r = h_prev * r * (1.0 - r)
        # dpre[t] = (dz_pre, dr_pre, dh~_pre) at step t
        dpre = np.empty((states.shape[0], 3 * hidden), dtype=dstates.dtype)
        dh = np.zeros(hidden, dtype=dstates.dtype)
        for t in range(states.shape[0] - 1, -1, -1):
            dh_t = dstates[t] + dh
            dz, dr, dht = dpre[t, :hidden], dpre[t, hidden : 2 * hidden], dpre[t, 2 * hidden :]
            np.multiply(dh_t, coef_z[t], out=dz)
            np.multiply(dh_t, coef_h[t], out=dht)
            drh = dht @ u_h
            np.multiply(drh, coef_r[t], out=dr)
            dh = dh_t * coef_keep[t] + drh * r[t] + dpre[t, : 2 * hidden] @ u_zr
        _accumulate_gates(self.p, "w", self.GATES, dpre.T @ xs)
        du = np.concatenate([dpre[:, : 2 * hidden].T @ h_prev,
                             dpre[:, 2 * hidden :].T @ (r * h_prev)])
        _accumulate_gates(self.p, "u", self.GATES, du)
        _accumulate_gates(self.p, "b", self.GATES, dpre.sum(axis=0))
        return dpre @ w


class LSTMCell:
    """Long short-term memory cell.

    i, f, o = sigmoid(W x + U h + b)   (input, forget, output gates)
    g = tanh(Wg x + Ug h + bg)
    c' = f*c + i*g
    h' = o*tanh(c')
    """

    GATES = ("i", "f", "o", "g")

    def __init__(self, p: dict[str, Tensor]):
        self.p = p  # keys: w_i,u_i,b_i,...,w_g,u_g,b_g

    def sweep(self, xs: np.ndarray):
        """Run over a (T, in) sequence from h0 = c0 = 0; returns (T, H) states."""
        u = _stack(self.p, "u", self.GATES)
        hidden = u.shape[1]
        # (T, 4H) pre-activations, overwritten step by step with i, f, o, g
        gates = xs @ _stack(self.p, "w", self.GATES).T + _stack(self.p, "b", self.GATES)
        states = np.empty((xs.shape[0], hidden), dtype=xs.dtype)
        cells = np.empty((xs.shape[0], hidden), dtype=gates.dtype)
        h = np.zeros(hidden, dtype=gates.dtype)
        c = np.zeros(hidden, dtype=gates.dtype)
        for t in range(xs.shape[0]):
            pre = gates[t]
            pre += u @ h
            ifo, g = pre[: 3 * hidden], pre[3 * hidden :]
            _sigmoid(ifo, out=ifo)
            np.tanh(g, out=g)
            c = ifo[hidden : 2 * hidden] * c + ifo[:hidden] * g
            h = ifo[2 * hidden :] * np.tanh(c)
            cells[t] = c
            states[t] = h
        return states, (xs, states, cells, gates)

    def sweep_backward(self, cache, dstates: np.ndarray) -> np.ndarray:
        """Returns d(xs); accumulates all twelve parameter gradients."""
        xs, states, cells, gates = cache
        steps, hidden = states.shape
        w, u = _stack(self.p, "w", self.GATES), _stack(self.p, "u", self.GATES)
        i, f, o, g = np.split(gates, 4, axis=1)
        tanh_c = np.tanh(cells)
        # gate-derivative coefficients that do not depend on the incoming
        # gradient: dpre = coef * (dc, dc, dh, dc) gate by gate, dc += dh * coef_c
        coef = np.concatenate([g * i * (1.0 - i), _previous(cells) * f * (1.0 - f),
                               tanh_c * o * (1.0 - o), i * (1.0 - g * g)], axis=1)
        coef = coef.reshape(steps, 4, hidden)
        coef_c = o * (1.0 - tanh_c * tanh_c)
        dpre = np.empty((steps, 4, hidden), dtype=dstates.dtype)
        dh = np.zeros(hidden, dtype=dstates.dtype)
        dc = np.zeros(hidden, dtype=dstates.dtype)
        for t in range(steps - 1, -1, -1):
            dh_t = dstates[t] + dh
            dc = dc + dh_t * coef_c[t]
            np.multiply(coef[t], dc, out=dpre[t])
            np.multiply(coef[t, 2], dh_t, out=dpre[t, 2])
            dc = dc * f[t]
            dh = dpre[t].reshape(-1) @ u
        dpre = dpre.reshape(steps, 4 * hidden)
        _accumulate_gates(self.p, "w", self.GATES, dpre.T @ xs)
        _accumulate_gates(self.p, "u", self.GATES, dpre.T @ _previous(states))
        _accumulate_gates(self.p, "b", self.GATES, dpre.sum(axis=0))
        return dpre @ w


# ---------------------------------------------------------------------------
# projection head


class Projection:
    """Affine map then activation ("relu" or "identity") on a single vector."""

    def __init__(self, w: Tensor, b: Tensor, activation_kind: str = "relu"):
        if activation_kind not in ("relu", "identity"):
            raise NnetError(f"projection activation must be relu or identity, got {activation_kind!r}")
        self.dense = Dense(w, b)
        self.activation_kind = activation_kind

    def forward(self, v: np.ndarray):
        pre, dense_cache = self.dense.forward(v)
        if self.activation_kind == "relu":
            out = np.maximum(pre, 0.0)
        else:
            out = pre
        return out, (dense_cache, pre)

    def backward(self, cache, dout: np.ndarray) -> np.ndarray:
        dense_cache, pre = cache
        if self.activation_kind == "relu":
            dout = dout * (pre > 0)
        return self.dense.backward(dense_cache, dout)
