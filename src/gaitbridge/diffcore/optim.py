"""Adam with bias correction over a net's flat parameter vector.

The gradient is one float64 vector laid out like `net.flat` (see `net.py`).
The moments are float64 vectors of the same length, so a step is a handful of
vector operations; every entry is updated exactly as a per-array loop would.
The update is computed in float64 and rounded to float32 as it is written, so
`net.flat` keeps holding float32 values, as checkpoints store them. The
learning rate is the one setting; the betas and epsilon are the constants
below.
"""

from __future__ import annotations

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class NonFiniteGradientError(RuntimeError):
    """Raised when a backward pass produces NaN or infinite gradients."""


class AdamState:
    """First/second moment accumulators (float64) plus the shared step count."""

    def __init__(self, lr=3e-4):
        self.lr = float(lr)
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
    step_scale = state.lr / (1.0 - BETA1 ** t)
    inv_bc2 = 1.0 / (1.0 - BETA2 ** t)
    m *= BETA1
    m += (1.0 - BETA1) * grad
    v *= BETA2
    v += (1.0 - BETA2) * (grad * grad)
    denom = v * inv_bc2
    np.sqrt(denom, out=denom)
    denom += EPS
    np.divide(m, denom, out=denom)
    denom *= step_scale
    net.flat[...] = (net.flat - denom).astype(np.float32)
