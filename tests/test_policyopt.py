import copy
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitbridge.diffcore import AdamState, ParameterizedNet, sigmoid
from gaitbridge.policyopt import (
    BufferError,
    PPOConfig,
    RolloutBuffer,
    RunningNormalizer,
    _stack_worker,
    gae_advantages,
    policy_act,
    ppo_update,
    switch_probability,
)
from helpers import (
    act_logprob,
    bandit_mean_action,
    forward,
    gae_reference,
    gaussian_logprob,
    kernel_note,
    pinned,
    train_bandit,
)


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



@pytest.mark.parametrize("lam", [0.0, 0.95, 1.0])
def test_gae_equals_the_numpy_scalar_loop_bit_for_bit(lam):
    rng = np.random.default_rng(8)
    for trial in range(20):
        T = int(rng.integers(1, 60))
        rewards = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=T)
        values = rng.normal(size=T)
        dones = rng.random(T) < rng.choice([0.0, 0.1, 0.5, 1.0])
        bootstrap = float(rng.normal()) if trial % 3 else 0.0
        # buffers hold rewards and dones as Python lists
        args = (rewards.tolist(), values, dones.tolist(), 0.99, lam, bootstrap)
        assert gae_advantages(*args).tobytes() == gae_reference(*args).tobytes()


# ---- normalizer -----------------------------------------------------------

def test_normalizer_matches_two_pass():
    rng = np.random.default_rng(3)
    stream = rng.normal(loc=2.0, scale=3.0, size=(1000, 4))
    norm = RunningNormalizer(4)
    for block in np.split(stream, [1, 7, 300, 301, 999]):
        norm.merge(block)
    assert norm.count == 1000
    assert np.allclose(norm.mean, stream.mean(axis=0), atol=1e-9)
    assert np.allclose(norm.var, stream.var(axis=0), rtol=1e-9, atol=1e-12)


def test_normalizer_permutation_invariance():
    rng = np.random.default_rng(4)
    stream = rng.uniform(-5.0, 5.0, size=(500, 3))
    a = RunningNormalizer(3)
    b = RunningNormalizer(3)
    a.merge(stream)
    # the permuted stream arrives over several merges, so the statistics
    # must also combine across blocks
    for block in np.split(stream[rng.permutation(500)], [1, 64, 65, 250]):
        b.merge(block)
    assert b.count == a.count == 500
    assert np.allclose(a.mean, b.mean, rtol=0.0, atol=1e-15)
    rel = np.abs(a.var - b.var) / np.maximum(np.abs(a.var), 1e-12)
    assert np.max(rel) < 1e-12


def test_normalizer_first_observation_normalizes_to_zero():
    norm = RunningNormalizer(3)
    row = np.array([4.0, -2.0, 0.5])
    assert np.array_equal(norm.normalize(row), np.zeros(3))
    norm.merge(row[None])
    assert np.array_equal(norm.normalize(row), np.zeros(3))


def test_normalizer_self_stream_is_whitened():
    rng = np.random.default_rng(5)
    stream = rng.normal(loc=-1.0, scale=0.5, size=(2000, 2))
    norm = RunningNormalizer(2)
    norm.merge(stream[:64])
    norm.merge(stream[64:])
    z = np.array([norm.normalize(row) for row in stream])
    assert np.allclose(z.mean(axis=0), 0.0, atol=1e-6)
    assert np.allclose(z.std(axis=0), 1.0, atol=1e-6)


def test_normalizer_normalizes_a_batch_row_by_row():
    rng = np.random.default_rng(7)
    batch = rng.normal(size=(5, 3))
    fresh = RunningNormalizer(3)
    assert np.array_equal(fresh.normalize(batch), np.zeros((5, 3)))
    norm = RunningNormalizer(3)
    norm.merge(rng.normal(loc=1.0, scale=2.0, size=(20, 3)))
    out = norm.normalize(batch)
    for row, whole in zip(batch, out):
        assert np.array_equal(norm.normalize(row), whole)


def test_normalizer_zero_variance_floor():
    norm = RunningNormalizer(1)
    for _ in range(10):
        norm.merge(np.array([[7.0]]))
    assert norm.normalize(np.array([7.0]))[0] == 0.0
    # floored std keeps the output finite rather than dividing by zero
    assert np.isfinite(norm.normalize(np.array([7.1]))[0])


def test_normalizer_rejects_a_row_of_another_width():
    norm = RunningNormalizer(3)
    for rows in (np.zeros((1, 2)), np.zeros((2, 4)), np.zeros(3)):
        with pytest.raises(ValueError, match="3-wide"):
            norm.merge(rows)
    norm.merge(np.zeros((0, 3)))
    assert norm.count == 0
    assert np.array_equal(norm.normalize(np.ones(3)), np.zeros(3))


def test_normalizer_state_roundtrip():
    rng = np.random.default_rng(6)
    norm = RunningNormalizer(4)
    norm.merge(rng.normal(size=(50, 4)))
    dup = RunningNormalizer.from_state_arrays(norm.state_arrays())
    probe = rng.normal(size=4)
    assert np.array_equal(norm.normalize(probe), dup.normalize(probe))
    # the copy's statistics are its own
    dup.merge(rng.normal(size=(3, 4)))
    assert norm.count == 50 and dup.count == 53


def test_a_widened_normalizer_keeps_its_statistics_and_adds_identities():
    rng = np.random.default_rng(8)
    norm = RunningNormalizer(3)
    norm.merge(rng.normal(2.0, 3.0, size=(40, 3)))
    wide = norm.widened(5)
    state, old = wide.state_arrays(), norm.state_arrays()
    assert wide.dim == 5 and wide.count == norm.count == 40
    for key, arr in state.items():
        assert np.array_equal(arr[:3], old[key]), key
    assert np.array_equal(wide.mean[3:], [0.0, 0.0])
    assert np.array_equal(wide.var[3:], [1.0, 1.0])
    row = rng.normal(size=5)
    assert np.array_equal(wide.normalize(row)[:3], norm.normalize(row[:3]))
    assert np.array_equal(wide.normalize(row)[3:], row[3:])
    # the widened statistics are its own
    wide.merge(rng.normal(size=(2, 5)))
    after = norm.state_arrays()
    assert all(np.array_equal(after[key], arr) for key, arr in old.items())


def _split_streams():
    """(rows, cuts): a (n, dim) stream of values from 1e-3 to 1e3 in
    magnitude, around an offset, some columns constant, and the sorted
    points at which to cut it into blocks (empty blocks included)."""
    @st.composite
    def streams(draw):
        dim = draw(st.integers(1, 4))
        n = draw(st.integers(1, 60))
        offset = draw(st.floats(-1e3, 1e3))
        value = st.floats(-1e3, 1e3, allow_subnormal=False)
        columns = []
        for _ in range(dim):
            if draw(st.booleans()):
                columns.append([offset + draw(value)] * n)
            else:
                columns.append([offset + v for v in draw(
                    st.lists(value, min_size=n, max_size=n))])
        cuts = sorted(draw(st.lists(st.integers(0, n), max_size=6)))
        return np.array(columns).T, cuts

    return streams()


@settings(deadline=None, max_examples=100)
@given(_split_streams())
def test_merging_blocks_in_any_split_matches_one_pass(stream):
    rows, cuts = stream
    norm = RunningNormalizer(rows.shape[1])
    for block in np.split(rows, cuts):
        norm.merge(block)
    assert norm.count == len(rows)
    # relative 1e-12, with the data's own scale as the floor: a mean near
    # zero has no relative precision in either computation
    scale = np.abs(rows).max(axis=0)
    assert np.allclose(norm.mean, np.mean(rows, axis=0), rtol=1e-12,
                       atol=1e-12 * scale.max())
    assert np.allclose(norm.var, np.var(rows, axis=0), rtol=1e-12,
                       atol=1e-12 * (scale * scale).max())


FIXTURES = Path(__file__).resolve().parent.parent / "bench" / "fixtures"


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.npz")))
def test_a_fixture_normalizer_normalizes_by_the_frozen_formula(fixture):
    with np.load(FIXTURES / fixture, allow_pickle=False) as data:
        state = {key[len("norm."):]: data[key] for key in data.files
                 if key.startswith("norm.")}
    norm = RunningNormalizer.from_state_arrays(state)
    x = np.random.default_rng(12).normal(0.5, 2.0, size=(9, norm.dim))
    count = state["count"][0]
    std = np.sqrt(np.maximum(state["m2"], 0.0) / count)
    expected = (x - (state["sum_hi"] + state["sum_lo"]) / count) \
        * (1.0 / np.maximum(std, RunningNormalizer.EPS))
    assert norm.normalize(x).tobytes() == expected.tobytes()
    for row, want in zip(x, expected):
        assert norm.normalize(row).tobytes() == want.tobytes()


# ---- buffer ----------------------------------------------------------------

def _filled_buffer(n, capacity=8, bit=None):
    buf = RolloutBuffer(capacity, 1, 1, bit is not None)
    for i in range(n):
        buf.append(np.array([float(i)]), np.array([0.1 * i]), bit, np.array([0.2 * i]),
                   -1.0 - i, float(i), 0.5 * i, False, np.array([-1.0 * i]))
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
        buf.append(np.zeros(1), np.zeros(1), None, np.zeros(1), 0.0, 0.0, 0.0, False,
                   np.zeros(1))


def test_buffer_clear_except_last_keeps_survivor():
    for bit in (None, 1):
        buf = _filled_buffer(8, bit=bit)
        columns = ["obs", "raw_obs", "actions", "means", "rewards", "values",
                   "dones"]
        if bit is not None:
            columns += ["switch_bits", "switch_logits"]
        survivor = {name: getattr(buf, name)[-1].copy() for name in columns}
        buf.clear_except_last()
        assert len(buf) == 1
        for name in columns:
            assert getattr(buf, name)[0].tobytes() == survivor[name].tobytes(), name
        buf.append(np.zeros(1), np.zeros(1), bit, np.zeros(1), 0.0, 0.0, 0.0, False,
                   np.zeros(1))
        assert len(buf) == 2


def test_buffer_add_reward_into_a_numbered_row():
    # a row keeps the number `append` gave it across clear_except_last,
    # whose survivor moves from index n - 1 to 0; a dropped row is refused
    buf = RolloutBuffer(4, 1, 1, False)
    rows = [buf.append(np.zeros(1), np.zeros(1), None, np.zeros(1), 0.0,
                       float(i), 0.0, False, np.zeros(1)) for i in range(4)]
    assert rows == [0, 1, 2, 3]
    base = buf.rewards.copy()
    buf.add_reward(rows[1], 0.2)
    buf.add_reward(rows[1], 0.3)
    assert buf.rewards[1] == base[1] + 0.2 + 0.3
    assert np.delete(buf.rewards, 1).tobytes() == np.delete(base, 1).tobytes()
    buf.clear_except_last()
    buf.add_reward(rows[3], 0.5)
    assert buf.rewards.tolist() == [3.5]
    for dropped in rows[:3] + [4]:
        with pytest.raises(BufferError):
            buf.add_reward(dropped, 1.0)
    assert buf.append(np.zeros(1), np.zeros(1), None, np.zeros(1), 0.0, 0.0,
                      0.0, False, np.zeros(1)) == 4
    buf.clear()
    with pytest.raises(BufferError):
        buf.add_reward(4, 1.0)
    assert buf.append(np.zeros(1), np.zeros(1), None, np.zeros(1), 0.0, 0.0,
                      0.0, False, np.zeros(1)) == 5
    with pytest.raises(BufferError):
        RolloutBuffer(4, 1, 1, False).add_reward(0, 1.0)


def test_buffer_add_reward_over_an_array_of_rows():
    # each delta goes to its row, a repeated row's in order; one dropped row
    # refuses the whole call
    buf = RolloutBuffer(4, 1, 1, False)
    rows = [buf.append(np.zeros(1), np.zeros(1), None, np.zeros(1), 0.0,
                       0.1 * i, 0.0, False, np.zeros(1)) for i in range(4)]
    base = buf.rewards.copy()
    buf.add_reward(np.array([3, 1, 3]), np.array([0.7, 0.2, 0.3]))
    want = base.copy()
    want[1] += 0.2
    want[3] += 0.7
    want[3] += 0.3
    assert buf.rewards.tobytes() == want.tobytes()
    buf.add_reward(np.array([], dtype=int), np.array([]))
    assert buf.rewards.tobytes() == want.tobytes()
    buf.clear_except_last()
    assert buf.rewards.tolist() == [want[3]]
    for dropped in ([3, 0], [2], [3, 4]):
        with pytest.raises(BufferError, match=f"row {dropped[-1]} "):
            buf.add_reward(np.array(dropped), np.ones(len(dropped)))
        assert buf.rewards.tolist() == [want[3]]
    buf.add_reward(np.array([rows[3]]), np.array([1.0]))
    assert buf.rewards.tolist() == [want[3] + 1.0]


def test_buffer_fills_its_pending_rewards_in_chunks():
    # a pending row keeps the reward it was given until `fill_rewards`
    # writes its own, `chunk` indices at a time; an update's clear refuses
    # a buffer with rewards pending
    buf, calls = RolloutBuffer(8, 1, 1, False), []
    for i in range(6):
        if i % 3:
            buf.defer_reward()
        buf.append(np.zeros(1), np.zeros(1), None, np.zeros(1), 0.0, float(i),
                   0.0, False, np.zeros(1))
    with pytest.raises(BufferError, match="pending"):
        buf.clear_except_last()

    def rewards_of(index):
        calls.append(index.tolist())
        return 10.0 * buf.rewards[index]

    assert buf.fill_rewards(rewards_of, 3) == 4
    assert calls == [[1, 2, 4], [5]]
    assert buf.rewards.tolist() == [0.0, 10.0, 20.0, 3.0, 40.0, 50.0]
    assert buf.fill_rewards(rewards_of, 3) == 0 and len(calls) == 2
    buf.clear_except_last()
    assert buf.rewards.tolist() == [50.0]


def _row(bit, width=3):
    return (np.zeros(width), np.zeros(1), bit, np.zeros(1),
            None if bit is None else 0.5, 0.0, 0.0, False, np.zeros(width))


@pytest.mark.parametrize("first, later", [(None, 1), (0, None)])
def test_rows_that_disagree_on_the_handoff_bit_raise_at_append(first, later):
    """A buffer is built with or without a handoff bit per row; a row that
    disagrees would drop its bit from the loss, or read as NaN in it."""
    buf = RolloutBuffer(4, 3, 1, first is not None)
    buf.append(*_row(first))
    with pytest.raises(BufferError, match="handoff bit"):
        buf.append(*_row(later))
    assert len(buf) == 1
    buf.clear()
    with pytest.raises(BufferError, match="handoff bit"):
        buf.append(*_row(later))


def test_appends_allocate_little_beyond_the_preallocated_columns():
    """Each append copies its values into the columns, so 2,048 rows hold
    about the bytes of the columns, not an array or a float per value."""
    T, width, action_width = 2048, 10, 2
    rng = np.random.default_rng(50)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        buf = RolloutBuffer(T, width, action_width, False)
        for _ in range(T):
            buf.append(rng.normal(size=width), rng.normal(size=action_width),
                       None, rng.normal(size=action_width), None,
                       float(rng.normal()), float(rng.normal()), False,
                       rng.normal(size=width))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # obs, raw_obs, actions and means, then rewards, values, dones and
    # logprobs, at 8 bytes a value
    columns = T * 8 * (2 * width + 2 * action_width + 4)
    assert len(buf) == T
    assert held < 1.25 * columns


@pytest.mark.parametrize("with_bits", [False, True])
def test_ppo_update_reads_the_buffer_columns_in_place(with_bits):
    rng = np.random.default_rng(51)
    net = ParameterizedNet(4, 2, (8,), np.random.default_rng(52))
    buf = _synthetic_buffer(rng, net, T=16, with_bits=with_bits)
    obs, actions, bits, logp_old, _, _ = _stack_worker(net, buf, 0.0, PPOConfig())
    assert np.shares_memory(obs, buf.obs)
    assert np.shares_memory(actions, buf.actions)
    assert np.shares_memory(logp_old, buf.logprobs)
    assert (bits is None) != with_bits
    if with_bits:
        assert np.shares_memory(bits, buf.switch_bits)


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
    buf = RolloutBuffer(T, net.obs_dim, net.action_dim, with_bits)
    for _ in range(T):
        obs = rng.normal(size=net.obs_dim)
        action, bit, mean, logit, h = policy_act(net, obs, rng, with_switch=with_bits)
        reward = float(rng.normal())
        buf.append(obs, action, bit, mean, logit, reward,
                   net.scalar_head("value", h), bool(rng.random() < 0.1), obs)
    return buf


def _deep_copy_buffer(buf):
    dup = copy.deepcopy(buf)
    assert not np.shares_memory(dup.obs, buf.obs)
    return dup


@pytest.mark.parametrize("with_bits", [False, True])
def test_averaged_worker_gradients_match_single_worker(with_bits):
    rng = np.random.default_rng(8)
    net_a = ParameterizedNet(4, 2, (8, 8), np.random.default_rng(9))
    net_b = net_a.copy()
    buf = _synthetic_buffer(rng, net_a, T=32, with_bits=with_bits)
    config = PPOConfig(horizon=32, minibatch=8, epochs=2)

    ppo_update(net_a, [buf], [0.0], config, AdamState(lr=config.lr), np.random.default_rng(10))
    workers = [_deep_copy_buffer(buf), _deep_copy_buffer(buf)]
    ppo_update(net_b, workers, [0.0] * len(workers), config, AdamState(lr=config.lr), np.random.default_rng(10))

    for name in net_a.params:
        assert np.array_equal(net_a.params[name], net_b.params[name]), name


def test_ppo_update_rejects_mismatched_buffers():
    rng = np.random.default_rng(11)
    net = ParameterizedNet(3, 1, (4,), rng)
    b1 = _synthetic_buffer(rng, net, T=8)
    b2 = _synthetic_buffer(rng, net, T=6)
    with pytest.raises(BufferError):
        ppo_update(net, [b1, b2], [0.0, 0.0], PPOConfig(minibatch=4), AdamState(), rng)


def test_ppo_update_needs_one_bootstrap_per_buffer():
    rng = np.random.default_rng(11)
    net = ParameterizedNet(3, 1, (4,), rng)
    buffers = [_synthetic_buffer(rng, net, T=8) for _ in range(2)]
    for bootstraps in ([], [0.0], [0.0, 0.0, 0.0]):
        with pytest.raises(BufferError, match="one bootstrap per buffer"):
            ppo_update(net, buffers, bootstraps, PPOConfig(minibatch=4),
                       AdamState(), rng)


def test_ppo_update_is_deterministic_given_seed():
    def run():
        rng = np.random.default_rng(12)
        net = ParameterizedNet(4, 2, (8, 8), np.random.default_rng(13))
        buf = _synthetic_buffer(rng, net, T=16)
        ppo_update(net, [buf], [0.0], PPOConfig(minibatch=8, epochs=2), AdamState(), np.random.default_rng(14))
        return {k: v.copy() for k, v in net.params.items()}

    first, second = run(), run()
    for name in first:
        assert np.array_equal(first[name], second[name])


@pytest.mark.parametrize("with_bits", [False, True])
def test_ppo_update_statistics_are_pinned(with_bits):
    """One seeded two-worker update with minibatches of 8, 8, 8 and 6 rows
    returns the statistics it returned when each act computed its own
    log-probability and each minibatch its own clip fraction."""
    rng = np.random.default_rng(31)
    net = ParameterizedNet(4, 2, (8, 8), np.random.default_rng(32))
    buffers = [_synthetic_buffer(rng, net, T=30, with_bits=with_bits) for _ in range(2)]
    config = PPOConfig(horizon=30, minibatch=8, epochs=3, lr=0.05, clip=0.1)
    stats = ppo_update(net, buffers, [0.0, 0.0], config, AdamState(lr=config.lr),
                       np.random.default_rng(33))
    if with_bits:
        expected = {"pg_loss": 0.11442117629045201, "clip_frac": 0.810763888888889,
                    "minibatches": 12, "v_loss": pinned(
                        {"SkylakeX": 3.5433450510491524,
                         "Haswell": 3.5433450510491533})}
    else:
        expected = {"pg_loss": pinned({"SkylakeX": 0.07733958160691176,
                                       "Haswell": 0.0773395816069118}),
                    "v_loss": 2.1314665488360354, "clip_frac": 0.78125,
                    "minibatches": 12}
    assert stats == expected, kernel_note()


@pytest.mark.parametrize("with_bits", [False, True])
@pytest.mark.parametrize("width", [1, 2, 3, 9])
def test_filled_logprobs_equal_the_per_act_formula_bit_for_bit(width, with_bits):
    rng = np.random.default_rng(40 + width)
    net = ParameterizedNet(5, width, (8,), np.random.default_rng(41))
    net.params["log_std"][...] = rng.uniform(-2.0, 1.0, size=width).astype(np.float32)
    net.params["switch.w"][...] = rng.normal(size=(8, 1)).astype(np.float32)
    buf = _synthetic_buffer(rng, net, T=64, with_bits=with_bits)
    bits, logits = buf.switch_bits, buf.switch_logits
    if not with_bits:
        assert bits is None and logits is None
        bits = logits = [None] * len(buf)
    expected = [act_logprob(net, a, m, z, b)
                for a, m, z, b in zip(buf.actions, buf.means, logits, bits)]
    if with_bits:
        assert 0 < sum(buf.switch_bits) < len(buf)
    assert len(buf.logprobs) == 0
    ppo_update(net, [buf], [0.0], PPOConfig(horizon=64, minibatch=16, epochs=1),
               AdamState(), np.random.default_rng(42))
    assert [float.hex(x) for x in buf.logprobs] == [float.hex(x) for x in expected]


def test_log_std_stays_clamped_through_updates():
    rng = np.random.default_rng(15)
    net = ParameterizedNet(2, 1, (4,), rng)
    net.params["log_std"][...] = np.float32(-4.9)
    buf = _synthetic_buffer(rng, net, T=16)
    ppo_update(net, [buf], [0.0], PPOConfig(minibatch=8, lr=0.5), AdamState(lr=0.5), rng)
    assert np.all(net.params["log_std"] >= -5.0)
    assert np.all(net.params["log_std"] <= 2.0)


# ---- acting ----------------------------------------------------------------

def test_policy_act_samples_around_the_forward_mean():
    net = ParameterizedNet(2, 2, (4,), np.random.default_rng(16))
    obs = np.array([0.3, -0.7])
    mu, value, z = forward(net, obs)
    action, bit, mean, logit, h = policy_act(net, obs, np.random.default_rng(0))
    noise = np.random.default_rng(0).standard_normal(2)
    assert np.array_equal(action, mu + net.std * noise)
    assert np.array_equal(mean, mu)
    # without a handoff bit the switch head is not read; the value is read
    # off the returned trunk output
    assert np.array_equal(h, net.trunk(obs))
    assert bit is None and logit is None
    assert net.scalar_head("value", h).hex() == value.hex()
    assert act_logprob(net, action, mean, logit, bit) == pytest.approx(
        gaussian_logprob(mu, net.params["log_std"], action), abs=1e-12)


def test_policy_act_with_switch_draws_the_bit_after_the_action():
    net = ParameterizedNet(2, 2, (4,), np.random.default_rng(16))
    net.params["switch.b"][...] = np.float32(0.3)
    obs = np.array([0.3, -0.7])
    mu, value, z = forward(net, obs)
    for seed in range(8):
        action, bit, mean, logit, h = policy_act(
            net, obs, np.random.default_rng(seed), with_switch=True)
        ref = np.random.default_rng(seed)
        assert np.array_equal(action, mu + net.std * ref.standard_normal(2))
        assert bit == int(ref.random() < sigmoid(z))
        assert np.array_equal(mean, mu)
        assert logit.hex() == z.hex()
        assert net.scalar_head("value", h).hex() == value.hex()


def test_switch_probability_is_sigmoid_bit_for_bit():
    # policy_act draws the handoff bit against this float form of sigmoid
    rng = np.random.default_rng(23)
    zs = np.concatenate([rng.normal(0.0, scale, 25_000)
                         for scale in (0.01, 1.0, 10.0, 100.0, 1000.0)]
                        + [rng.uniform(-745.0, 745.0, 25_000)])
    special = [0.0, -0.0, np.inf, -np.inf, 700.0, -700.0, np.nan,
               5e-324, -5e-324, 1e-300, 36.0, -36.0, 19.0, -19.0]
    zs = zs.tolist() + special
    got = np.array([switch_probability(z) for z in zs])
    want = np.array([sigmoid(z) for z in zs])
    assert got.tobytes() == want.tobytes()
    assert all(type(switch_probability(z)) is float for z in special)


def test_bandit_improves_quickly():
    net = train_bandit(updates=25, seed=3)
    assert bandit_mean_action(net) < 0.3
