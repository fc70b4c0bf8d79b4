from gaitbridge.diffcore.net import (
    ParameterizedNet,
    sigmoid,
    switch_bce_grad,
)
from gaitbridge.diffcore.optim import AdamState, NonFiniteGradientError, adam_step

__all__ = [
    "NonFiniteGradientError",
    "ParameterizedNet",
    "sigmoid",
    "switch_bce_grad",
    "AdamState",
    "adam_step",
]
