import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitbridge.diffcore import AdamState, ParameterizedNet
from gaitbridge.policyopt import (
    BufferError,
    PPOConfig,
    RolloutBuffer,
    RunningNormalizer,
    gae_advantages,
    policy_act,
    ppo_update,
)
from helpers import bandit_mean_action, train_bandit


# ---- GAE oracles ----------------------------------------------------------

def _discounted_returns_oracle(rewards, dones, gamma, bootstrap):
    """O(T^2) direct summation, cut at episode boundaries."""
    T = len(rewards)
    out = np.zeros(T)
    for t in range(T):
        acc, disc = 0.0, 1.0
        terminated = False
        for k in range(t, T):
            acc += disc * rewards[k]
            if dones[k]:
                terminated = True
                break
            disc *= gamma
        if not terminated:
            acc += disc * bootstrap
        out[t] = acc
    return out


def _gae_double_sum_oracle(rewards, values, dones, gamma, lam, bootstrap):
    T = len(rewards)
    deltas = np.zeros(T)
    for t in range(T):
        if dones[t]:
            nv = 0.0
        elif t + 1 < T:
            nv = values[t + 1]
        else:
            nv = bootstrap
        deltas[t] = rewards[t] + gamma * nv - values[t]
    adv = np.zeros(T)
    for t in range(T):
        acc = 0.0
        w = 1.0
        for k in range(t, T):
            acc += w * deltas[k]
            if dones[k]:
                break
            w *= gamma * lam
        adv[t] = acc
    return adv


def _random_rollout(rng, T=40, with_dones=True):
    rewards = rng.normal(size=T)
    values = rng.normal(size=T)
    dones = np.zeros(T, dtype=bool)
    if with_dones:
        dones[rng.choice(T, size=3, replace=False)] = True
        dones[-1] = False
    bootstrap = float(rng.normal())
    return rewards, values, dones, bootstrap


def test_gae_lambda_one_equals_returns_minus_values():
    rng = np.random.default_rng(0)
    for _ in range(5):
        rewards, values, dones, boot = _random_rollout(rng)
        adv = gae_advantages(rewards, values, dones, 0.97, 1.0, boot)
        returns = _discounted_returns_oracle(rewards, dones, 0.97, boot)
        assert np.max(np.abs(adv - (returns - values))) < 1e-12


def test_gae_lambda_zero_is_one_step_td():
    rng = np.random.default_rng(1)
    rewards, values, dones, boot = _random_rollout(rng)
    adv = gae_advantages(rewards, values, dones, 0.99, 0.0, boot)
    for t in range(len(rewards)):
        if dones[t]:
            nv = 0.0
        elif t + 1 < len(rewards):
            nv = values[t + 1]
        else:
            nv = boot
        assert adv[t] == pytest.approx(rewards[t] + 0.99 * nv - values[t], abs=1e-12)


def test_gae_matches_double_sum_oracle():
    rng = np.random.default_rng(2)
    for _ in range(5):
        rewards, values, dones, boot = _random_rollout(rng)
        adv = gae_advantages(rewards, values, dones, 0.99, 0.95, boot)
        oracle = _gae_double_sum_oracle(rewards, values, dones, 0.99, 0.95, boot)
        assert np.max(np.abs(adv - oracle)) < 1e-12


# ---- normalizer -----------------------------------------------------------

def test_normalizer_matches_two_pass():
    rng = np.random.default_rng(3)
    stream = rng.normal(loc=2.0, scale=3.0, size=(1000, 4))
    norm = RunningNormalizer(4)
    for row in stream:
        norm.update(row)
    assert np.allclose(norm.mean, stream.mean(axis=0), atol=1e-9)
    assert np.allclose(norm.var, stream.var(axis=0), rtol=1e-9, atol=1e-12)


def test_normalizer_permutation_invariance():
    rng = np.random.default_rng(4)
    stream = rng.uniform(-5.0, 5.0, size=(500, 3))
    a = RunningNormalizer(3)
    b = RunningNormalizer(3)
    for row in stream:
        a.update(row)
    for row in stream[rng.permutation(500)]:
        b.update(row)
    # mean is exactly permutation-invariant (compensated summation)
    assert np.array_equal(a.mean, b.mean)
    rel = np.abs(a.var - b.var) / np.maximum(np.abs(a.var), 1e-12)
    assert np.max(rel) < 1e-9


def test_normalizer_first_observation_normalizes_to_zero():
    norm = RunningNormalizer(3)
    out = norm.update_then_normalize(np.array([4.0, -2.0, 0.5]))
    assert np.array_equal(out, np.zeros(3))


def test_normalizer_self_stream_is_whitened():
    rng = np.random.default_rng(5)
    stream = rng.normal(loc=-1.0, scale=0.5, size=(2000, 2))
    norm = RunningNormalizer(2)
    for row in stream:
        norm.update(row)
    z = np.array([norm.normalize(row) for row in stream])
    assert np.allclose(z.mean(axis=0), 0.0, atol=1e-6)
    assert np.allclose(z.std(axis=0), 1.0, atol=1e-6)


def test_normalizer_normalizes_a_batch_row_by_row():
    rng = np.random.default_rng(7)
    batch = rng.normal(size=(5, 3))
    fresh = RunningNormalizer(3)
    assert np.array_equal(fresh.normalize(batch), np.zeros((5, 3)))
    norm = RunningNormalizer(3)
    for row in rng.normal(loc=1.0, scale=2.0, size=(20, 3)):
        norm.update(row)
    out = norm.normalize(batch)
    for row, whole in zip(batch, out):
        assert np.array_equal(norm.normalize(row), whole)


def test_normalizer_zero_variance_floor():
    norm = RunningNormalizer(1)
    for _ in range(10):
        norm.update(np.array([7.0]))
    assert norm.normalize(np.array([7.0]))[0] == 0.0
    # floored std keeps the output finite rather than dividing by zero
    assert np.isfinite(norm.normalize(np.array([7.1]))[0])


def test_normalizer_state_roundtrip():
    rng = np.random.default_rng(6)
    norm = RunningNormalizer(4)
    for row in rng.normal(size=(50, 4)):
        norm.update(row)
    dup = RunningNormalizer.from_state_arrays(norm.state_arrays())
    probe = rng.normal(size=4)
    assert np.array_equal(norm.normalize(probe), dup.normalize(probe))


# ---- buffer ----------------------------------------------------------------

def _filled_buffer(n, capacity=8, bit=None):
    buf = RolloutBuffer(capacity)
    for i in range(n):
        buf.append(np.array([float(i)]), np.array([0.1 * i]), bit, -1.0 - i, float(i), 0.5 * i, False)
    return buf


# ---- PPO settings ----------------------------------------------------------

@pytest.mark.parametrize("field, value", [
    ("lr", 0.0), ("lr", -1e-3), ("lr", float("inf")), ("lr", float("nan")),
    ("epochs", 0), ("minibatch", 0), ("horizon", 1), ("horizon", 0),
    ("clip", 0.0), ("clip", -1.0), ("gamma", 0.0), ("gamma", 1.5),
    ("lam", -0.1), ("lam", 1.1), ("value_coef", -1.0),
    ("value_coef", float("nan")), ("entropy_coef", float("inf")),
    ("entropy_coef", -0.01),
])
def test_ppo_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ValueError):
        PPOConfig(**{field: value})


def test_ppo_config_accepts_the_edges_of_each_range():
    PPOConfig(lr=1e-12, epochs=1, minibatch=1, horizon=2, clip=1e-6,
              gamma=1.0, lam=0.0, value_coef=0.0, entropy_coef=0.0)
    PPOConfig(lam=1.0)


def test_buffer_capacity_guard():
    buf = _filled_buffer(8)
    with pytest.raises(BufferError):
        buf.append(np.zeros(1), np.zeros(1), None, 0.0, 0.0, 0.0, False)


def test_buffer_clear_except_last_keeps_survivor():
    buf = _filled_buffer(8)
    survivor_obs = buf.obs[-1]
    survivor_reward = buf.rewards[-1]
    buf.clear_except_last()
    assert len(buf) == 1
    assert buf.obs[0] is survivor_obs
    assert buf.rewards[0] == survivor_reward
    buf.append(np.zeros(1), np.zeros(1), None, 0.0, 0.0, 0.0, False)
    assert len(buf) == 2


def test_buffer_extend_last_reward():
    buf = _filled_buffer(3)
    base = buf.rewards[-1]
    buf.extend_last_reward(0.2)
    buf.extend_last_reward(0.3)
    assert buf.rewards[-1] == pytest.approx(base + 0.5, abs=1e-12)
    empty = RolloutBuffer(4)
    with pytest.raises(BufferError):
        empty.extend_last_reward(1.0)


# ---- clipped objective property --------------------------------------------

@settings(deadline=None, max_examples=200)
@given(
    ratio=st.floats(1e-3, 1e3),
    adv=st.floats(-100.0, 100.0),
    clip=st.floats(0.05, 0.5),
)
def test_clipped_surrogate_never_exceeds_unclipped(ratio, adv, clip):
    clipped = min(ratio * adv, float(np.clip(ratio, 1 - clip, 1 + clip)) * adv)
    assert clipped <= ratio * adv + 1e-12


# ---- ppo_update ------------------------------------------------------------

def _synthetic_buffer(rng, net, T=32, with_bits=False):
    buf = RolloutBuffer(T)
    for _ in range(T):
        obs = rng.normal(size=net.obs_dim)
        action, bit, logp, value = policy_act(net, obs, rng, with_switch=with_bits)
        reward = float(rng.normal())
        buf.append(obs, action, bit, logp, reward, value, bool(rng.random() < 0.1))
    return buf


def _deep_copy_buffer(buf):
    dup = RolloutBuffer(buf.capacity)
    dup.obs = [o.copy() for o in buf.obs]
    dup.actions = [a.copy() for a in buf.actions]
    dup.switch_bits = list(buf.switch_bits)
    dup.logprobs = list(buf.logprobs)
    dup.rewards = list(buf.rewards)
    dup.values = list(buf.values)
    dup.dones = list(buf.dones)
    dup.tail_bootstrap = buf.tail_bootstrap
    return dup


@pytest.mark.parametrize("with_bits", [False, True])
def test_averaged_worker_gradients_match_single_worker(with_bits):
    rng = np.random.default_rng(8)
    net_a = ParameterizedNet(4, 2, (8, 8), np.random.default_rng(9))
    net_b = net_a.copy()
    buf = _synthetic_buffer(rng, net_a, T=32, with_bits=with_bits)
    config = PPOConfig(horizon=32, minibatch=8, epochs=2)

    ppo_update(net_a, buf, config, AdamState(lr=config.lr), np.random.default_rng(10))
    workers = [_deep_copy_buffer(buf), _deep_copy_buffer(buf)]
    ppo_update(net_b, workers, config, AdamState(lr=config.lr), np.random.default_rng(10))

    for name in net_a.params:
        assert np.array_equal(net_a.params[name], net_b.params[name]), name


def test_ppo_update_rejects_mismatched_buffers():
    rng = np.random.default_rng(11)
    net = ParameterizedNet(3, 1, (4,), rng)
    b1 = _synthetic_buffer(rng, net, T=8)
    b2 = _synthetic_buffer(rng, net, T=6)
    with pytest.raises(BufferError):
        ppo_update(net, [b1, b2], PPOConfig(minibatch=4), AdamState(), rng)


def test_ppo_update_is_deterministic_given_seed():
    def run():
        rng = np.random.default_rng(12)
        net = ParameterizedNet(4, 2, (8, 8), np.random.default_rng(13))
        buf = _synthetic_buffer(rng, net, T=16)
        ppo_update(net, buf, PPOConfig(minibatch=8, epochs=2), AdamState(), np.random.default_rng(14))
        return {k: v.copy() for k, v in net.params.items()}

    first, second = run(), run()
    for name in first:
        assert np.array_equal(first[name], second[name])


def test_log_std_stays_clamped_through_updates():
    rng = np.random.default_rng(15)
    net = ParameterizedNet(2, 1, (4,), rng)
    net.params["log_std"][...] = -4.9
    net.invalidate_cache()
    buf = _synthetic_buffer(rng, net, T=16)
    ppo_update(net, buf, PPOConfig(minibatch=8, lr=0.5), AdamState(lr=0.5), rng)
    assert np.all(net.params["log_std"] >= -5.0)
    assert np.all(net.params["log_std"] <= 2.0)


# ---- acting ----------------------------------------------------------------

def test_policy_act_deterministic_returns_mean():
    net = ParameterizedNet(2, 2, (4,), np.random.default_rng(16))
    obs = np.array([0.3, -0.7])
    mu, _, _, _ = net.forward(obs)
    action, bit, logp, _ = policy_act(net, obs, np.random.default_rng(0), deterministic=True)
    assert np.array_equal(action, mu)
    assert bit is None
    assert logp is None


def test_bandit_improves_quickly():
    net = train_bandit(updates=25, seed=3)
    assert bandit_mean_action(net) < 0.3
