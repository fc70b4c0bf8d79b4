"""Adam with bias correction over a net's flat parameter vector.

The gradient is one float64 vector laid out like `net.flat` (see `net.py`).
The moments are float64 vectors of the same length, so a step is a handful of
vector operations; every entry is updated exactly as a per-array loop would.
"""

from __future__ import annotations

import numpy as np


class NonFiniteGradientError(RuntimeError):
    """Raised when a backward pass produces NaN or infinite gradients."""


class AdamState:
    """First/second moment accumulators (float64) plus the shared step count."""

    def __init__(self, lr=3e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step_count = 0
        self.m = None
        self.v = None


def adam_step(net, grad, state: AdamState):
    """Apply one Adam update to net.flat in place.

    Validates the whole gradient before touching any state, so a non-finite
    gradient leaves parameters, moments, and the step count unchanged.
    """
    if grad.shape != net.flat.shape:
        raise ValueError(f"gradient of shape {grad.shape} for a net with "
                         f"{net.flat.size} parameters")
    finite = np.isfinite(grad)
    if not finite.all():
        name = net.name_at(int(np.argmin(finite)))
        raise NonFiniteGradientError(f"non-finite gradient for parameter {name!r}")

    state.step_count += 1
    t = state.step_count
    if state.m is None:
        state.m = np.zeros(grad.shape)
        state.v = np.zeros(grad.shape)
    m, v = state.m, state.v
    # fold the bias corrections into scalars so the work is four in-place
    # vector ops plus one temporary chain
    step_scale = state.lr / (1.0 - state.beta1 ** t)
    inv_bc2 = 1.0 / (1.0 - state.beta2 ** t)
    m *= state.beta1
    m += (1.0 - state.beta1) * grad
    v *= state.beta2
    v += (1.0 - state.beta2) * (grad * grad)
    denom = v * inv_bc2
    np.sqrt(denom, out=denom)
    denom += state.eps
    np.divide(m, denom, out=denom)
    denom *= step_scale
    p64 = net.flat.astype(np.float64)
    p64 -= denom
    net.flat[...] = p64
    net.invalidate_cache()
