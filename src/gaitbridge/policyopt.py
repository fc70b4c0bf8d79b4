"""PPO machinery: rollout buffer, running normalizer, GAE, clipped updates.

Everything here is deterministic given the generators passed in. Worker
parallelism is realized as multiple independent buffers collected round-robin
by the caller; ppo_update averages per-worker gradients in worker index order
with one shared minibatch permutation, so W identical buffers reproduce the
single-worker update bit-for-bit when W is a power of two (IEEE division by
2^k is exact).

Acting samples and stores; it computes no log-probability. `policy_act`
returns the action with its mean and switch logit, the buffer keeps those,
and `ppo_update` computes every new row's behaviour log-probability in one
vectorised pass before its first Adam step, bit for bit the per-act scalar
formula. The net cannot change between two updates, so the net handed to
`ppo_update` must be the one that filled its buffers.

A `RolloutBuffer` holds rows only: one array per column, allocated at
construction to the widths it is given, and a row count; `append` copies a
transition into the next row. `ppo_update` reads each buffer's obs,
actions, switch bits and log-probabilities as views of its filled rows, and
its rewards, values and dones through GAE, with the bootstrap value its
caller passes for that buffer's last row; each epoch gathers every column
once in its permutation, and a minibatch is a contiguous slice of that
gather.

A `RunningNormalizer` moves only at `merge`, which folds in a block of raw
rows. Acting normalizes with statistics frozen since the last update, and
the trainer merges the raw rows each buffer keeps beside its normalized ones
after the update, worker by worker: between updates nothing depends on the
order in which rows arrive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gaitbridge.diffcore import adam_step, sigmoid
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


def _filled(column, count="_n"):
    """A read-only property: the filled rows of array attribute `column`, a
    view, or None where the buffer has no such column."""
    def read(self):
        array = getattr(self, column)
        return None if array is None else array[:getattr(self, count)]
    return property(read)


class RolloutBuffer:
    """Fixed-capacity transition store with clear-except-last semantics.

    One float64 array per column, allocated at construction, and a row
    count: obs and raw_obs are (capacity, obs_width), actions and means
    (capacity, action_width); rewards, values, dones (bool) and logprobs are
    (capacity,). `obs` holds the normalized row the policy acted on,
    `raw_obs` the observation it was normalized from. A buffer `with_bits`
    adds (capacity,) switch_bits (0.0 or 1.0) and switch_logits columns; a
    buffer without has neither, and reads them as None. A row that
    disagrees with the buffer on carrying a bit raises BufferError. `append`
    copies each value into row `len(self)`, so a stored row holds no object
    of its own. Each column attribute reads as a view of the filled rows (an
    empty buffer reads as empty columns): `ppo_update` reads them in place.
    `append` returns the row's number, which `add_reward` takes, one or an
    array of them: the rows dropped by `clear` and `clear_except_last` are
    counted, so the survivor of `clear_except_last` keeps its number as its
    index moves from n - 1 to 0, and a dropped row's number is refused.

    A row stores the action's mean, and the switch logit when it carries a
    bit, in place of its behaviour log-probability. `ppo_update` computes
    the log-probabilities of the rows that lack one before its first step,
    so it must see the net that acted; they fill `logprobs` from the front.
    The survivor of `clear_except_last` keeps the log-probability filled at
    its own update. `take_raw` hands out each raw row once: the survivor,
    taken before its update's clear, is not handed out again.

    A reward may be pending: `defer_reward` marks the row `append` writes
    next in a (capacity,) bool column, and the row stores the reward it is
    given until `fill_rewards` writes its own. A clear must find none
    pending.
    """

    obs = _filled("_obs")
    raw_obs = _filled("_raw")
    actions = _filled("_actions")
    means = _filled("_means")
    switch_bits = _filled("_bits")
    switch_logits = _filled("_logits")
    rewards = _filled("_rewards")
    values = _filled("_values")
    dones = _filled("_dones")
    logprobs = _filled("_logprobs", "_n_logp")

    def __init__(self, capacity, obs_width, action_width, with_bits):
        if capacity < 1:
            raise BufferError("capacity must be >= 1")
        self.capacity = rows = int(capacity)
        self.with_bits = with_bits
        self._n = 0
        self._n_logp = 0  # leading rows whose log-probability is filled
        self._n_taken = 0  # leading rows whose raw row `take_raw` handed out
        self._dropped = 0  # rows ever dropped: row number - _dropped = index
        self._obs, self._raw = np.empty((2, rows, obs_width))
        self._actions, self._means = np.empty((2, rows, action_width))
        self._rewards, self._values, self._logprobs = np.empty((3, rows))
        self._dones = np.empty(rows, dtype=bool)
        self._pending = np.zeros(rows, dtype=bool)  # rewards to fill
        self._columns = [self._obs, self._raw, self._actions, self._means,
                         self._rewards, self._values, self._logprobs,
                         self._dones]
        self._bits = self._logits = None
        if self.with_bits:
            self._bits, self._logits = np.empty((2, rows))
            self._columns += [self._bits, self._logits]

    def __len__(self):
        return self._n

    @property
    def full(self):
        return self._n >= self.capacity

    def append(self, obs, action, switch_bit, mean, switch_logit, reward,
               value, done, raw_obs):
        """Copy a transition into the next row; returns the row's number."""
        n = self._n
        if n >= self.capacity:
            raise BufferError("append to a full buffer; run an update first")
        if (switch_bit is not None) != self.with_bits:
            raise BufferError("a row disagrees with the buffer on carrying a "
                              "handoff bit")
        if self.with_bits:
            self._bits[n] = switch_bit
            self._logits[n] = switch_logit
        self._obs[n] = obs
        self._raw[n] = raw_obs
        self._actions[n] = action
        self._means[n] = mean
        self._rewards[n] = reward
        self._values[n] = value
        self._dones[n] = done
        self._n = n + 1
        return self._dropped + n

    def add_reward(self, rows, delta):
        """Add `delta` to the reward of row number `rows`, as `append`
        returned it, or each of (k,) `delta` to its row of (k,) `rows`, in
        one `np.add.at`, which adds a repeated row in order: the k folds of
        a tail's run sum as its ticks would add them. BufferError, and no
        reward changed, if any of the rows has been dropped."""
        rows = np.atleast_1d(rows)
        i = rows - self._dropped
        gone = (i < 0) | (i >= self._n)
        if gone.any():
            raise BufferError(f"row {rows[gone][0]} is no longer in the buffer")
        np.add.at(self._rewards, i, delta)

    def defer_reward(self):
        """Mark the reward of the row `append` writes next as pending."""
        self._pending[self._n] = True

    def fill_rewards(self, rewards_of, chunk):
        """Write the reward of each pending row, `chunk` rows at a time:
        `rewards_of(index)` gives the rewards of a (k,) array of row
        indices, (k,) or one for all. Returns the rows filled; none is
        pending after."""
        pending = self._pending[:self._n].nonzero()[0]
        self._pending[pending] = False
        for start in range(0, pending.size, chunk):
            index = pending[start:start + chunk]
            self._rewards[index] = rewards_of(index)
        return pending.size

    def take_raw(self):
        """The raw rows not yet taken, a view; they count as taken now."""
        start, self._n_taken = self._n_taken, self._n
        return self._raw[start:self._n]

    def _check_filled(self):
        if self._pending[:self._n].any():
            raise BufferError("a clear with rewards pending")

    def clear(self):
        self._check_filled()
        self._dropped += self._n
        self._n = self._n_logp = self._n_taken = 0

    def clear_except_last(self):
        """Drop everything but the final transition (the survivor keeps
        receiving extended reward for steps after the update)."""
        n = self._n
        if not n:
            raise BufferError("clear_except_last on an empty buffer")
        self._check_filled()
        for column in self._columns:
            column[0] = column[n - 1]
        self._dropped += n - 1
        self._n_logp = int(self._n_logp == n)
        self._n_taken = int(self._n_taken == n)
        self._n = 1


class RunningNormalizer:
    """Per-dimension mean/variance for observation whitening, frozen between
    merges.

    The statistics move only at `merge`, which folds a (k, dim) block of raw
    rows in. The sum is compensated: `sum_hi + sum_lo` gains each block's
    correctly rounded column sums by TwoSum (Knuth). The mean `wmean` and
    the sum of squared deviations `m2` combine with the block's own mean
    and M2 (two passes over it) by the pairwise formula of Chan, Golub and
    LeVeque (1979). Normalizing uses the compensated mean, (sum_hi +
    sum_lo) / count, and std = sqrt(max(m2, 0) / count), floored at EPS;
    before any merge it returns zeros. `normalize` serves one row or a
    (B, dim) batch, each row the same floats either way.
    """

    EPS = 1e-6

    def __init__(self, dim):
        self.dim = int(dim)
        self.count = 0
        self._sum_hi, self._sum_lo, self._wmean, self._m2 = (
            np.zeros(self.dim) for _ in range(4))
        self._cached = None  # (mean, 1/max(std, EPS)) for the current count

    def merge(self, rows):
        """Fold a (k, dim) block of raw rows into the statistics."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.dim:
            raise ValueError(f"rows of shape {rows.shape} for a "
                             f"{self.dim}-wide normalizer")
        k = rows.shape[0]
        if not k:
            return
        columns = np.ascontiguousarray(rows.T)
        # one column of Python floats at a time: a whole block as floats
        # would add its 32 bytes a value to the peak
        block_sum = np.array([math.fsum(column.tolist())
                              for column in columns])
        block_mean = block_sum / k
        centred = columns - block_mean[:, None]
        block_m2 = (centred * centred).sum(axis=1)

        hi = self._sum_hi
        s = hi + block_sum
        v = s - hi
        self._sum_lo = self._sum_lo + ((hi - (s - v)) + (block_sum - v))
        self._sum_hi = s
        n_a, n = self.count, self.count + k
        delta = block_mean - self._wmean
        self._wmean = self._wmean + delta * (k / n)
        self._m2 = self._m2 + block_m2 + delta * delta * (n_a * k / n)
        self.count = n
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
        return np.maximum(self._m2, 0.0) / self.count

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

    def copy(self):
        return RunningNormalizer.from_state_arrays(self.state_arrays())

    def widened(self, dim):
        """A `dim`-wide copy: its first `self.dim` dimensions keep these
        statistics, and the rest start at an identity (mean 0, variance 1)
        over the same count."""
        norm, k = RunningNormalizer(dim), self.dim
        norm.count = self.count
        norm._m2[k:] = self.count
        for name in ("_sum_hi", "_sum_lo", "_wmean", "_m2"):
            getattr(norm, name)[:k] = getattr(self, name)
        return norm

    def state_arrays(self):
        """Float64 state for checkpointing (per-dimension count included)."""
        return {
            "count": np.full(self.dim, float(self.count)),
            "sum_hi": self._sum_hi.copy(),
            "sum_lo": self._sum_lo.copy(),
            "wmean": self._wmean.copy(),
            "m2": self._m2.copy(),
        }

    @classmethod
    def from_state_arrays(cls, state):
        dim = state["sum_hi"].shape[0]
        norm = cls(dim)
        norm.count = int(state["count"][0])
        norm._sum_hi, norm._sum_lo, norm._wmean, norm._m2 = (
            np.array(state[key], dtype=np.float64)
            for key in ("sum_hi", "sum_lo", "wmean", "m2"))
        return norm


def gae_advantages(rewards, values, dones, gamma, lam, tail_bootstrap=0.0):
    """Generalized advantage estimates over one rollout.

    dones mark transitions whose successor state is terminal for the acting
    policy; their bootstrap is 0. The final transition, if not done, bootstraps
    with tail_bootstrap.
    """
    # the loop runs on Python floats: numpy scalars cost a dispatch per operation
    rewards = np.asarray(rewards, dtype=np.float64).tolist()
    values = np.asarray(values, dtype=np.float64).tolist()
    dones = np.asarray(dones, dtype=bool).tolist()
    T = len(rewards)
    adv = [0.0] * T
    next_value = float(tail_bootstrap)
    last_gae = 0.0
    for t in range(T - 1, -1, -1):
        if dones[t]:
            next_value = 0.0
            last_gae = 0.0
        delta = rewards[t] + gamma * next_value - values[t]
        last_gae = delta + gamma * lam * last_gae
        adv[t] = last_gae
        next_value = values[t]
    return np.array(adv)


def policy_act(net, obs_norm, rng, with_switch=False):
    """Draw (action, switch_bit, mean, switch_logit, h) from a policy net.

    `draw_act` draws the action, then with `with_switch` the handoff bit;
    without it the bit and the switch logit are None, and the switch head is
    not computed. `h` is the trunk output: a learner reads its value off it
    with `net.scalar_head("value", h)`, and an acting-only caller computes no
    value head. The behaviour log-probability is not computed here:
    `ppo_update` computes it from the stored mean and logit. A policy acting
    on its mean reads the trunk and the mean head instead.
    """
    h = net.trunk(obs_norm)
    mu = net.head("mu", h)
    z = net.scalar_head("switch", h) if with_switch else None
    action, bit = draw_act(mu, net.std, rng,
                           None if z is None else switch_probability(z))
    return action, bit, mu, z, h


def switch_probability(z):
    """`sigmoid(z)` of one float z, as a float: the same operations on a
    Python float, where the 0-d array `sigmoid` builds costs four times as
    much. numpy's tanh stays; `math.tanh` rounds differently."""
    return 0.5 * (1.0 + float(np.tanh(0.5 * z)))


def draw_act(mu, std, rng, p_switch=None):
    """(action, bit) sampled around the mean row mu: the action noise, then
    the handoff bit at probability `p_switch` (None without one)."""
    action = mu + std * rng.standard_normal(mu.shape[0])
    return action, None if p_switch is None else int(rng.random() < p_switch)


def _fill_logprobs(net, buffer):
    """Write into `buffer`'s logprobs column the joint log-probability of
    every row that lacks one, under `net`, which must be the net that acted.

    Each row's floats are those of the per-act scalar formula: the squares
    of t = (a - mu) / std sum column by column in a float64 vector (a
    row-wise `sum` rounds differently once the action is 8 or more wide),
    and the Bernoulli term of the bit is log(sigmoid(+-z)) in a softplus
    form, stable for any z.
    """
    start, end = buffer._n_logp, len(buffer)
    t = (buffer.actions[start:] - buffer.means[start:]) / net.std
    quad = t[:, 0] * t[:, 0]
    for j in range(1, t.shape[1]):
        quad += t[:, j] * t[:, j]
    logp = -0.5 * (quad + LOG_2PI * t.shape[1]) - net.log_std_sum
    if buffer.with_bits:
        z = buffer.switch_logits[start:]
        logp += -np.logaddexp(0.0, np.where(buffer.switch_bits[start:] != 0.0,
                                            -z, z))
    buffer._logprobs[start:end] = logp
    buffer._n_logp = end


def _stack_worker(net, buffer, bootstrap, config):
    """(obs, actions, bits, logp_old, adv, returns) of one worker buffer
    whose last row, if not done, bootstraps from `bootstrap`; obs, actions,
    bits and logp_old are views of its columns."""
    _fill_logprobs(net, buffer)
    values = buffer.values
    adv = gae_advantages(buffer.rewards, values, buffer.dones,
                         config.gamma, config.lam, bootstrap)
    returns = (adv + values).reshape(-1, 1)
    bits = buffer.switch_bits
    if bits is not None:
        bits = bits.reshape(-1, 1)
    return (buffer.obs, buffer.actions, bits, buffer.logprobs.reshape(-1, 1),
            adv, returns)


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
    log_std = net.params["log_std"]
    lo, hi = 1.0 - config.clip, 1.0 + config.clip

    diff = actions - net.head("mu", h)
    inv_var = np.exp(log_std * -2.0)
    sq_diff = diff * diff
    ls_sum = log_std.sum()
    logp = ((sq_diff * inv_var).sum(axis=1, keepdims=True) * -0.5 - ls_sum) \
        + -0.5 * actions.shape[1] * LOG_2PI
    if bits is not None:
        sign = 1.0 - 2.0 * bits
        z = net.head("switch", h) * sign
        logp = logp + -np.logaddexp(0.0, z)
    ratio = np.exp(logp - logp_old)
    surr1 = ratio * adv
    surr2 = np.minimum(np.maximum(ratio, lo), hi) * adv
    take1 = surr1 <= surr2
    pg = -(np.where(take1, surr1, surr2).sum() * (1.0 / n))
    verr = net.head("value", h) - returns
    v_loss = (verr * verr).sum() * (1.0 / n)

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
    # diagonal Gaussian entropy is sum(log_std) + const; the switch head adds
    # none. A zero coefficient adds -0.0, which leaves every float as it is.
    d_log_std = np.full(net.action_dim, -config.entropy_coef) + d_ls_sum
    d_log_std = d_log_std + ((d_sq * sq_diff).sum(axis=0) * inv_var) * -2.0
    net.backward(hs, head_grads, d_log_std, grad)
    return float(pg), float(v_loss), ratio


def ppo_update(net, buffers, bootstraps, config, adam, rng):
    """One PPO update from one or more worker buffers (gradients averaged).

    Buffers must have equal lengths and agree on whether transitions carry a
    switch bit. `bootstraps` holds one value per buffer, the bootstrap of its
    last row if that row is not done (see `gae_advantages`). `net` must be
    the net that filled them: the behaviour log-probabilities of their new
    rows are computed from it before the first step and written into each
    buffer's `logprobs` column. The steps follow the `PPOConfig` `config`
    and move the `AdamState` `adam`. Returns aggregate loss statistics; the
    clip fraction is the mean over worker minibatches of the share of
    ratios outside the clip band.
    """
    if not buffers or len(buffers[0]) == 0:
        raise BufferError("ppo_update needs at least one non-empty buffer")
    T = len(buffers[0])
    if any(len(b) != T for b in buffers):
        raise BufferError("worker buffers must have equal lengths")
    if any(b.with_bits != buffers[0].with_bits for b in buffers):
        raise BufferError("worker buffers disagree on switch bits")
    if len(bootstraps) != len(buffers):
        raise BufferError("ppo_update needs one bootstrap per buffer")

    stacked = [_stack_worker(net, b, boot, config)
               for b, boot in zip(buffers, bootstraps)]
    all_adv = np.concatenate([s[4] for s in stacked])
    adv_mean = float(all_adv.mean())
    adv_std = float(all_adv.std())
    # (obs, actions, bits, logp_old, normalized adv, returns) of each worker
    columns = [s[:4] + (((s[4] - adv_mean) / (adv_std + 1e-8)).reshape(-1, 1),
                        s[5]) for s in stacked]

    n_workers = len(buffers)
    w_scale = 1.0 / n_workers
    grads = [np.empty(net.flat.size) for _ in stacked]
    pg_losses, v_losses, ratios = [], [], []

    for _ in range(config.epochs):
        # each column gathered once in the epoch's order; a minibatch is a
        # contiguous slice of it
        perm = rng.permutation(T)
        shuffled = [[None if c is None else c[perm] for c in worker]
                    for worker in columns]
        for start in range(0, T, config.minibatch):
            stop = start + config.minibatch
            for w, worker in enumerate(shuffled):
                pg, v_loss, ratio = ppo_loss_grad(
                    net, *(None if c is None else c[start:stop] for c in worker),
                    config, grads[w])
                if w:
                    grads[0] += grads[w]
                pg_losses.append(pg)
                v_losses.append(v_loss)
                ratios.append(ratio)
            if n_workers > 1:
                grads[0] *= w_scale
            adam_step(net, grads[0], adam)
            net.clamp_log_std()

    # per worker minibatch, the count outside the band over its size: the
    # float np.mean of its 0/1 mask gives
    sizes = np.array([len(r) for r in ratios])
    outside = np.abs(np.concatenate(ratios)[:, 0] - 1.0) > config.clip
    clip_fracs = np.add.reduceat(outside, np.cumsum(sizes) - sizes,
                                 dtype=np.float64) / sizes
    return {
        "pg_loss": float(np.mean(pg_losses)),
        "v_loss": float(np.mean(v_losses)),
        "clip_frac": float(clip_fracs.mean()),
        "minibatches": len(pg_losses) // n_workers,
    }
