"""Shared test fixtures: tiny environments, scripted policies, training
shortcuts, plain references that tests check the program against, and the
name of the BLAS kernel that seeded pins depend on."""

import ctypes
from pathlib import Path

import numpy as np
import pytest

from gaitbridge.composer import (
    BehaviorModule,
    episode_drivers,
    run_lanes,
    td_error,
)
from gaitbridge.diffcore import AdamState, ParameterizedNet
from gaitbridge.diffcore.net import LOG_2PI
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
        net.params["switch.b"][0] = np.float32(-8.3365)
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


def exact_hurdle_module(target_net=None):
    """`hurdle_module` whose sampled setup phase is the scripted one.

    The setup net's switch head is scaled by 2**24, a power of two, so its
    logit keeps its sign bit for bit, and at every crouch a scripted episode
    visits the handoff probability is exactly 0.0 or 1.0. log_std = -100
    makes mu + std * noise round to mu. The setup phase then takes the
    crouch-then-handoff path whatever the generator draws.
    """
    setup = scripted_net(0.25, 1.0, crouch_gate=True)
    setup.params["switch.w"] *= 2.0 ** 24
    setup.params["switch.b"] *= 2.0 ** 24
    setup.params["log_std"][...] = -100.0
    return hurdle_module(target_net=target_net, setup_net=setup)


def flat_value_module(v):
    """Hurdle module whose target value head reports the constant v."""
    target = scripted_net(0.0, -1.0)
    target.params["value.b"][0] = np.float32(v)
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
        buffer = RolloutBuffer(horizon, 1, 1, False)
        for _ in range(horizon):
            action, _, mean, logit, h = policy_act(net, obs, rng)
            reward = -float(action[0]) ** 2
            buffer.append(obs.copy(), action, None, mean, logit, reward,
                          net.scalar_head("value", h), True, obs)
        ppo_update(net, [buffer], [0.0], config, adam, rng)
    return net


def trainer_buffer(trainer):
    """An empty buffer for the rows `trainer`'s net stores, as `_train` makes
    one."""
    net = trainer.net
    return RolloutBuffer(trainer.config.horizon, net.obs_dim, net.action_dim,
                         trainer.module is not None)


def evaluate_bridged(env, default_net, default_norm, modules, episodes, rng,
                     init_fn=None):
    """Seeded bridged episodes as `_train` evaluates them: `episode_drivers`
    run through `run_lanes`; returns (success rate, finished drivers)."""
    drivers = run_lanes(episode_drivers(env, default_net, default_norm,
                                        modules, episodes, rng,
                                        init_fn=init_fn))
    rate = sum(1.0 for d in drivers if d.state.success) / max(len(drivers), 1)
    return rate, drivers


def bandit_mean_action(net):
    return abs(float(forward(net, np.zeros(1))[0][0]))


# ---- references ---------------------------------------------------------------


def forward(net, obs):
    """The policy's mean action, value and switch logit: `trunk`, then every
    head, as the program reads each one.

    obs (obs_dim,) -> (mu (A,), value float, switch_logit float)
    obs (B, obs_dim) -> (mu (B, A), value (B,), switch_logit (B,))
    """
    h = net.trunk(obs)
    return (net.head("mu", h), net.scalar_head("value", h),
            net.scalar_head("switch", h))


class UncachedTarget:
    """A module's frozen target as reward functions read it, evaluated afresh
    on every call, a (k, OBS_DIM) input row by row through the one-row
    `forward`: the reference that a trainer's `RowTarget` must match, at one
    observation on `tick()` and over rows in a tail's fold and in the fill.
    `calls` counts its reads and `rows` the rows they evaluated."""

    def __init__(self, module):
        self.module = module
        self.params = module.params
        self.calls = self.rows = 0

    def _forward(self, obs_raw):
        self.calls += 1
        net, norm = self.module.target_net, self.module.target_norm
        # a terrain-blind target reads the body prefix only
        rows = [forward(net, norm.normalize(row[:net.obs_dim]))
                for row in np.atleast_2d(obs_raw)]
        self.rows += len(rows)
        if obs_raw.ndim == 1:
            return rows[0]
        mu, value, _ = zip(*rows)
        return np.array(mu), np.array(value)

    def target_value(self, obs_raw):
        return self._forward(obs_raw)[1]

    def target_action(self, obs_raw):
        return self._forward(obs_raw)[0]


def td_advantage(value_fn, s_t, s_next, r_t, gamma, terminal=False):
    """One-step TD advantage r + gamma*V(s') - V(s) under a frozen value fn.

    `terminal` zeroes the bootstrap for transitions that end the episode.
    """
    v_s = float(value_fn(s_t))
    v_next = 0.0 if terminal else float(value_fn(s_next))
    return td_error(v_s, v_next, r_t, gamma)


def act_logprob(net, action, mu, z, bit):
    """Joint log-probability of one sampled act under `net`, the per-act
    scalar formula: the reference `ppo_update`'s vectorised behaviour
    log-probabilities must match bit for bit. `bit` None adds no handoff term.
    """
    std = net.std
    # scalar-math logprob: dimensionality is tiny, numpy dispatch dominates
    quad = 0.0
    for a, m, s in zip(action.tolist(), mu.tolist(), std.tolist()):
        t = (a - m) / s
        quad += t * t
    logp = -0.5 * (quad + LOG_2PI * action.shape[0]) - net.log_std_sum
    if bit is not None:
        # log Bernoulli(bit | sigmoid(z)) in a softplus form, stable for any z
        logp += float(-np.logaddexp(0.0, -z if bit else z))
    return logp


def gaussian_logprob(mean, log_std, action):
    """Joint log-density of a diagonal Gaussian at `action` (float64 scalar)."""
    mean = np.asarray(mean, dtype=np.float64)
    log_std = np.asarray(log_std, dtype=np.float64)
    action = np.asarray(action, dtype=np.float64)
    z = (action - mean) * np.exp(-log_std)
    return float(-0.5 * np.sum(z * z) - np.sum(log_std)
                 - 0.5 * mean.shape[-1] * LOG_2PI)


def numeric_gradient(loss_fn, params, h=1e-5):
    """Central finite differences of loss_fn over every entry of every array.

    loss_fn takes the named-array dict and returns a python float. The dict is
    perturbed in place and restored, so loss_fn must read it fresh on each call.
    """
    grads = {}
    for name, arr in params.items():
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gf = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_fn(params)
            flat[i] = orig - h
            lm = loss_fn(params)
            flat[i] = orig
            gf[i] = (lp - lm) / (2.0 * h)
        grads[name] = g
    return grads


def gae_reference(rewards, values, dones, gamma, lam, tail_bootstrap=0.0):
    """GAE as a loop over numpy scalars: the reference `gae_advantages`
    must match bit for bit."""
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    dones = np.asarray(dones, dtype=bool)
    T = rewards.shape[0]
    adv = np.zeros(T)
    last_gae = 0.0
    for t in range(T - 1, -1, -1):
        if dones[t]:
            next_value = 0.0
            last_gae = 0.0
        else:
            next_value = values[t + 1] if t + 1 < T else tail_bootstrap
        delta = rewards[t] + gamma * next_value - values[t]
        last_gae = delta + gamma * lam * last_gae
        adv[t] = last_gae
    return adv


# ---- the BLAS kernel ----------------------------------------------------------

# the OpenBLAS kernels under which the seeded pins were recorded
PINNED_KERNELS = ("SkylakeX", "Haswell")
# kernels whose products round as a recorded one's: OPENBLAS_CORETYPE=Zen
# gave every pin its Haswell value
ROUNDS_AS = {"Zen": "Haswell"}


def blas_kernel():
    """The core name of numpy's bundled OpenBLAS, the kernel it chose for
    this CPU when it loaded (such as "SkylakeX" or "Haswell"), read through
    ctypes; None where numpy bundles no OpenBLAS."""
    here = Path(np.__file__).resolve().parent
    # wheels keep it in numpy.libs beside the package, or numpy/.dylibs
    for path in sorted([*here.parent.glob("numpy.libs/libscipy_openblas*"),
                        *here.glob(".dylibs/libscipy_openblas*")]):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


def kernel_note():
    """What a seeded pin's failure says about the BLAS: each kernel rounds
    its own products, so a pin holds under the kernels it was recorded on."""
    return (f"pinned under OpenBLAS's {' and '.join(PINNED_KERNELS)} "
            f"kernels; this run's is "
            f"{blas_kernel() or 'not a bundled OpenBLAS'}")


def pinned(values):
    """A seeded pin's value under this run's BLAS kernel: `values` holds one
    per kernel of PINNED_KERNELS. Under any other kernel the test fails with
    `kernel_note()`, as no value was recorded for it."""
    kernel = blas_kernel()
    kernel = ROUNDS_AS.get(kernel, kernel)
    if kernel not in values:
        pytest.fail(kernel_note())
    return values[kernel]
