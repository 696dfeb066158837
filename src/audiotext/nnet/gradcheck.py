"""Central finite-difference certification of analytic gradients.

Checks must run on float64 parameters: at float32, the difference
quotient's rounding error is of the same order as the quantity being
measured and the check is meaningless.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from .tensor import Params


def finite_difference_check(
    loss_fn: Callable[[], float],
    grad_fn: Callable[[], Mapping[str, np.ndarray]],
    params: Params,
    eps: float = 1e-5,
) -> float:
    """Max relative error between analytic and numerical gradients.

    loss_fn evaluates the scalar objective at the current parameters;
    grad_fn runs forward+backward and returns {name: gradient}. Each
    coordinate is perturbed by +/-eps for a central difference
    (f(t+eps) - f(t-eps)) / (2 eps); the relative error denominator is
    max(1e-8, |analytic| + |numeric|).
    """
    for name, t in params.items():
        if t.data.dtype != np.float64:
            raise ValueError(f"finite_difference_check requires float64 params; {name!r} is {t.data.dtype}")

    analytic = {name: np.array(g, dtype=np.float64, copy=True) for name, g in grad_fn().items()}
    worst = 0.0
    for name, t in params.items():
        grad_a = analytic[name]
        flat = t.data.reshape(-1)
        grad_flat = grad_a.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = loss_fn()
            flat[i] = orig - eps
            f_minus = loss_fn()
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise FloatingPointError(f"non-finite loss while perturbing {name}[{i}]")
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = grad_flat[i]
            err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            if err > worst:
                worst = err
    return worst


def collect_grads(params: Params) -> dict[str, np.ndarray]:
    """Snapshot current .grad buffers (zeros where a grad was never set)."""
    out = {}
    for name, t in params.items():
        out[name] = np.zeros_like(t.data) if t.grad is None else t.grad.copy()
    return out
