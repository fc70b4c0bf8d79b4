"""Shared test fixtures: tiny environments, scripted policies and training
shortcuts."""

import numpy as np

from gaitbridge.composer import BehaviorModule
from gaitbridge.diffcore import AdamState, ParameterizedNet
from gaitbridge.policyopt import (
    PPOConfig,
    RolloutBuffer,
    RunningNormalizer,
    policy_act,
    ppo_update,
)
from gaitbridge.terrainsim import HURDLE, OBS_DIM


def identity_norm(dim=OBS_DIM):
    """Normalizer frozen at mean 0 / std 1: normalize() is the identity map."""
    state = {
        "count": np.ones(dim),
        "sum_hi": np.zeros(dim),
        "sum_lo": np.zeros(dim),
        "wmean": np.zeros(dim),
        "m2": np.ones(dim),
    }
    return RunningNormalizer.from_state_arrays(state)


def scripted_net(a1, a2, crouch_gate=False):
    """Constant-action net: zeroed weights, action biases set directly.

    With `crouch_gate`, the switch head fires once the crouch observation
    passes ~0.6 (logit 10*tanh(2c) - 8.3365), everything else untouched.
    """
    net = ParameterizedNet(OBS_DIM, 2, (4,), np.random.default_rng(0))
    for arr in net.params.values():
        arr[...] = 0.0
    net.params["mu.b"][...] = np.array([a1, a2], dtype=np.float32)
    if crouch_gate:
        net.params["fc0.w"][3, 0] = 2.0
        net.params["switch.w"][0, 0] = 10.0
        net.params["switch.b"][0] = -8.3365
    net.invalidate_cache()
    return net


def hurdle_module(target_net=None, setup_net=None):
    """Hurdle module: a jumping target and a crouch-then-handoff setup."""
    return BehaviorModule(
        kind=HURDLE,
        target_net=target_net or scripted_net(0.0, -1.0),
        target_norm=identity_norm(),
        setup_net=setup_net or scripted_net(0.25, 1.0, crouch_gate=True),
        setup_norm=identity_norm(),
    )


def flat_value_module(v):
    """Hurdle module whose target value head reports the constant v."""
    target = scripted_net(0.0, -1.0)
    target.params["value.b"][0] = v
    target.invalidate_cache()
    return hurdle_module(target_net=target)


def train_bandit(updates=50, horizon=128, seed=0):
    """PPO on the 1-D bandit (single state, reward -a^2). Returns the net.

    Each pull is its own terminal transition, so the value head just tracks
    the expected reward and advantages are r - V.
    """
    rng = np.random.default_rng(seed)
    net = ParameterizedNet(1, 1, (64, 64), rng)
    config = PPOConfig(horizon=horizon, minibatch=64)
    adam = AdamState(lr=config.lr)
    obs = np.zeros(1)
    for _ in range(updates):
        buffer = RolloutBuffer(horizon)
        for _ in range(horizon):
            action, _, logp, value = policy_act(net, obs, rng)
            reward = -float(action[0]) ** 2
            buffer.append(obs.copy(), action, None, logp, reward, value, True)
        ppo_update(net, buffer, config, adam, rng)
    return net


def bandit_mean_action(net):
    mu, _, _, _ = net.forward(np.zeros(1))
    return abs(float(mu[0]))
