from gaitbridge.diffcore.net import (
    ParameterizedNet,
    gaussian_logprob,
    numeric_gradient,
    sigmoid,
    switch_bce_grad,
)
from gaitbridge.diffcore.optim import AdamState, NonFiniteGradientError, adam_step

__all__ = [
    "NonFiniteGradientError",
    "ParameterizedNet",
    "gaussian_logprob",
    "numeric_gradient",
    "sigmoid",
    "switch_bce_grad",
    "AdamState",
    "adam_step",
]
