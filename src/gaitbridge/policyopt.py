"""PPO machinery: rollout buffer, running normalizer, GAE, clipped updates.

Everything here is deterministic given the generators passed in. Worker
parallelism is realized as multiple independent buffers collected round-robin
by the caller; ppo_update averages per-worker gradients in worker index order
with one shared minibatch permutation, so W identical buffers reproduce the
single-worker update bit-for-bit when W is a power of two (IEEE division by
2^k is exact).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gaitbridge.diffcore import AdamState, adam_step, sigmoid
from gaitbridge.diffcore.net import LOG_2PI


@dataclass
class PPOConfig:
    gamma: float = 0.99
    lam: float = 0.95
    clip: float = 0.2
    epochs: int = 4
    minibatch: int = 64
    lr: float = 3e-4
    value_coef: float = 0.5
    entropy_coef: float = 0.0
    horizon: int = 2048

    def __post_init__(self):
        if not 0 < self.lr < np.inf:
            raise ValueError("lr must be finite and positive")
        if self.epochs < 1 or self.minibatch < 1:
            raise ValueError("epochs and minibatch must be >= 1")
        # setup training keeps one transition across each update, so a
        # one-slot buffer would stay full forever
        if self.horizon < 2:
            raise ValueError("horizon must be >= 2")
        if not self.clip > 0:
            raise ValueError("clip must be positive")
        if not (0 < self.gamma <= 1 and 0 <= self.lam <= 1):
            raise ValueError("gamma must lie in (0, 1] and lam in [0, 1]")
        if not (0 <= self.value_coef < np.inf
                and 0 <= self.entropy_coef < np.inf):
            raise ValueError("value_coef and entropy_coef must be finite >= 0")


class BufferError(RuntimeError):
    pass


class RolloutBuffer:
    """Fixed-capacity transition store with clear-except-last semantics.

    Columns instead of row objects: the hot loop appends tens of thousands of
    times per update and the trainer mutates the last reward in place when
    extended rewards fold in.
    """

    def __init__(self, capacity):
        if capacity < 1:
            raise BufferError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.obs = []
        self.actions = []
        self.switch_bits = []
        self.logprobs = []
        self.rewards = []
        self.values = []
        self.dones = []
        # value bootstrap for a horizon cut mid-phase; set by the trainer
        self.tail_bootstrap = 0.0

    def __len__(self):
        return len(self.rewards)

    @property
    def full(self):
        return len(self.rewards) >= self.capacity

    def append(self, obs, action, switch_bit, logprob, reward, value, done):
        if self.full:
            raise BufferError("append to a full buffer; run an update first")
        self.obs.append(obs)
        self.actions.append(action)
        self.switch_bits.append(switch_bit)
        self.logprobs.append(logprob)
        self.rewards.append(reward)
        self.values.append(value)
        self.dones.append(done)

    def extend_last_reward(self, delta):
        if not self.rewards:
            raise BufferError("extend_last_reward on an empty buffer")
        self.rewards[-1] += delta

    def clear(self):
        for col in (self.obs, self.actions, self.switch_bits, self.logprobs,
                    self.rewards, self.values, self.dones):
            col.clear()
        self.tail_bootstrap = 0.0

    def clear_except_last(self):
        """Drop everything but the final transition (the survivor keeps
        receiving extended reward for steps after the update)."""
        if not self.rewards:
            raise BufferError("clear_except_last on an empty buffer")
        for col in (self.obs, self.actions, self.switch_bits, self.logprobs,
                    self.rewards, self.values, self.dones):
            del col[:-1]
        self.tail_bootstrap = 0.0


class RunningNormalizer:
    """Per-dimension streaming mean/variance for observation whitening.

    The mean uses a compensated (TwoSum) running sum so it is exactly
    permutation-invariant for bounded streams; M2 is plain float64 Welford.
    Normalizing before any update returns zeros.
    """

    EPS = 1e-6

    def __init__(self, dim):
        self.dim = int(dim)
        self.count = 0
        self._sum_hi = np.zeros(self.dim)
        self._sum_lo = np.zeros(self.dim)
        self._wmean = np.zeros(self.dim)
        self.m2 = np.zeros(self.dim)
        self._cached = None  # (mean, 1/max(std, EPS)) for the current count

    def update(self, x):
        x = np.asarray(x, dtype=np.float64)
        hi = self._sum_hi
        # branch-free TwoSum (Knuth): s + err == hi + x exactly
        s = hi + x
        xv = s - hi
        err = (hi - (s - xv)) + (x - xv)
        self._sum_lo += err
        self._sum_hi = s
        self.count += 1
        delta = x - self._wmean
        self._wmean += delta / self.count
        self.m2 += delta * (x - self._wmean)
        self._cached = None

    @property
    def mean(self):
        if self.count == 0:
            return np.zeros(self.dim)
        return (self._sum_hi + self._sum_lo) / self.count

    @property
    def var(self):
        if self.count == 0:
            return np.zeros(self.dim)
        return np.maximum(self.m2, 0.0) / self.count

    @property
    def std(self):
        return np.sqrt(self.var)

    def normalize(self, x):
        """Whitened x, one row or a (B, dim) batch."""
        if self.count == 0:
            return np.zeros(np.shape(x))
        if self._cached is None:
            self._cached = (self.mean, 1.0 / np.maximum(self.std, self.EPS))
        mean, inv_std = self._cached
        out = np.asarray(x, dtype=np.float64) - mean
        out *= inv_std
        return out

    def update_then_normalize(self, x):
        self.update(x)
        return self.normalize(x)

    def copy(self):
        dup = RunningNormalizer(self.dim)
        dup.count = self.count
        dup._sum_hi = self._sum_hi.copy()
        dup._sum_lo = self._sum_lo.copy()
        dup._wmean = self._wmean.copy()
        dup.m2 = self.m2.copy()
        return dup

    def state_arrays(self):
        """Float64 state for checkpointing (per-dimension count included)."""
        return {
            "count": np.full(self.dim, float(self.count)),
            "sum_hi": self._sum_hi.copy(),
            "sum_lo": self._sum_lo.copy(),
            "wmean": self._wmean.copy(),
            "m2": self.m2.copy(),
        }

    @classmethod
    def from_state_arrays(cls, state):
        dim = state["sum_hi"].shape[0]
        norm = cls(dim)
        norm.count = int(state["count"][0])
        norm._sum_hi = state["sum_hi"].copy()
        norm._sum_lo = state["sum_lo"].copy()
        norm._wmean = state["wmean"].copy()
        norm.m2 = state["m2"].copy()
        return norm


def gae_advantages(rewards, values, dones, gamma, lam, tail_bootstrap=0.0):
    """Generalized advantage estimates over one rollout.

    dones mark transitions whose successor state is terminal for the acting
    policy; their bootstrap is 0. The final transition, if not done, bootstraps
    with tail_bootstrap.
    """
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


def policy_act(net, obs_norm, rng, deterministic=False, with_switch=False):
    """Draw (action, switch_bit, joint_logprob, value) from a policy net.

    Deterministic mode returns the Gaussian mean, for a policy that does not
    hand off; bit and logprob are None there (nothing is sampled).
    """
    mu, log_std, value, z = net.forward(obs_norm)
    if deterministic:
        return mu.copy(), None, None, value
    d = net.derived64()
    std = d["std"]
    action = mu + std * rng.standard_normal(mu.shape[0])
    # scalar-math logprob: dimensionality is tiny, numpy dispatch dominates
    quad = 0.0
    for i in range(action.shape[0]):
        t = (action[i] - mu[i]) / std[i]
        quad += t * t
    logp = -0.5 * (quad + LOG_2PI * action.shape[0]) - d["log_std_sum"]
    bit = None
    if with_switch:
        p = sigmoid(z)
        bit = int(rng.random() < p)
        # log Bernoulli(bit | sigmoid(z)) in a softplus form, stable for any z
        logp += float(-np.logaddexp(0.0, -z if bit else z))
    return action, bit, logp, value


def _stack_worker(buffer, config):
    obs = np.asarray(buffer.obs, dtype=np.float64)
    actions = np.asarray(buffer.actions, dtype=np.float64)
    logp_old = np.asarray(buffer.logprobs, dtype=np.float64).reshape(-1, 1)
    values = np.asarray(buffer.values, dtype=np.float64)
    adv = gae_advantages(buffer.rewards, values, buffer.dones,
                         config.gamma, config.lam, buffer.tail_bootstrap)
    returns = (adv + values).reshape(-1, 1)
    bits = None
    if buffer.switch_bits and buffer.switch_bits[0] is not None:
        bits = np.asarray(buffer.switch_bits, dtype=np.float64).reshape(-1, 1)
    return obs, actions, bits, logp_old, adv, returns


def ppo_loss_grad(net, obs, actions, bits, logp_old, adv, returns, config, grad):
    """PPO loss of one minibatch and its gradient, written into flat `grad`.

    loss = -mean(min(r*A, clip(r)*A)) + value_coef * mean((V - R)^2)
           - entropy_coef * entropy, with r the ratio of the joint action (and
    switch-bit) probability to the behaviour policy's. Returns
    (pg_loss, v_loss, r). The backward sums repeated uses in a fixed order
    (see diffcore.net): log_std takes the entropy term, then the -sum(log_std)
    term, then the exp(-2 log_std) term.
    """
    hs = net.activations(obs)
    h = hs[-1]
    n = len(obs)
    log_std = net.params64()["log_std"]
    lo, hi = 1.0 - config.clip, 1.0 + config.clip

    diff = actions - net.head("mu", h)
    inv_var = np.exp(log_std * -2.0)
    sq_diff = diff * diff
    ls_sum = np.sum(log_std)
    logp = (np.sum(sq_diff * inv_var, axis=1, keepdims=True) * -0.5 - ls_sum) \
        + -0.5 * actions.shape[1] * LOG_2PI
    if bits is not None:
        sign = 1.0 - 2.0 * bits
        z = net.head("switch", h) * sign
        logp = logp + -np.logaddexp(0.0, z)
    ratio = np.exp(logp - logp_old)
    surr1 = ratio * adv
    surr2 = np.clip(ratio, lo, hi) * adv
    take1 = surr1 <= surr2
    pg = -(np.sum(np.where(take1, surr1, surr2)) * (1.0 / n))
    verr = net.head("value", h) - returns
    v_loss = np.sum(verr * verr) * (1.0 / n)

    # d(pg)/d(min) is -1/n; the clipped branch passes gradient only inside the band
    d_min = -(1.0 / n)
    d_ratio = ((d_min * ~take1) * adv) * ((ratio > lo) & (ratio < hi)) \
        + (d_min * take1) * adv
    d_logp = d_ratio * ratio
    head_grads = []
    if bits is not None:
        head_grads.append(("switch", (-d_logp * sigmoid(z)) * sign))
    d_verr = config.value_coef * (1.0 / n)
    head_grads.append(("value", d_verr * verr + d_verr * verr))
    d_sq = d_logp * -0.5
    d_diff = d_sq * inv_var
    d_diff = d_diff * diff + d_diff * diff
    head_grads.append(("mu", -d_diff))
    d_ls_sum = (-d_logp).sum(axis=0).sum(axis=0)
    if config.entropy_coef != 0.0:
        # diagonal Gaussian entropy is sum(log_std) + const; the switch head adds none
        d_log_std = np.full(net.action_dim, -config.entropy_coef) + d_ls_sum
    else:
        d_log_std = np.full(net.action_dim, d_ls_sum)
    d_log_std = d_log_std + ((d_sq * sq_diff).sum(axis=0) * inv_var) * -2.0
    net.backward(hs, head_grads, d_log_std, grad)
    return float(pg), float(v_loss), ratio


def ppo_update(net, buffers, config: PPOConfig, adam: AdamState, rng):
    """One PPO update from one or more worker buffers (gradients averaged).

    Buffers must have equal lengths and agree on whether transitions carry a
    switch bit. Returns aggregate loss statistics.
    """
    if isinstance(buffers, RolloutBuffer):
        buffers = [buffers]
    if not buffers or len(buffers[0]) == 0:
        raise BufferError("ppo_update needs at least one non-empty buffer")
    T = len(buffers[0])
    if any(len(b) != T for b in buffers):
        raise BufferError("worker buffers must have equal lengths")

    stacked = [_stack_worker(b, config) for b in buffers]
    with_bits = stacked[0][2] is not None
    if any((s[2] is not None) != with_bits for s in stacked):
        raise BufferError("worker buffers disagree on switch bits")

    all_adv = np.concatenate([s[4] for s in stacked])
    adv_mean = float(all_adv.mean())
    adv_std = float(all_adv.std())
    norm_advs = [((s[4] - adv_mean) / (adv_std + 1e-8)).reshape(-1, 1) for s in stacked]

    n_workers = len(buffers)
    w_scale = 1.0 / n_workers
    grads = [np.empty(net.flat.size) for _ in stacked]
    pg_losses, v_losses, clip_fracs = [], [], []

    for _ in range(config.epochs):
        perm = rng.permutation(T)
        for start in range(0, T, config.minibatch):
            idx = perm[start:start + config.minibatch]
            if idx.size == 0:
                continue
            for w, (obs, actions, bits, logp_old, _, returns) in enumerate(stacked):
                pg, v_loss, ratio = ppo_loss_grad(
                    net, obs[idx], actions[idx], None if bits is None else bits[idx],
                    logp_old[idx], norm_advs[w][idx], returns[idx], config, grads[w])
                if w:
                    grads[0] += grads[w]
                pg_losses.append(pg)
                v_losses.append(v_loss)
                clip_fracs.append(float(np.mean(np.abs(ratio - 1.0) > config.clip)))
            if n_workers > 1:
                grads[0] *= w_scale
            adam_step(net, grads[0], adam)
            net.clamp_log_std()

    return {
        "pg_loss": float(np.mean(pg_losses)),
        "v_loss": float(np.mean(v_losses)),
        "clip_frac": float(np.mean(clip_fracs)),
        "minibatches": len(pg_losses) // max(n_workers, 1),
    }
