import math
import re
from pathlib import Path

import numpy as np
import pytest

from gaitbridge.diffcore import (
    AdamState,
    NonFiniteGradientError,
    ParameterizedNet,
    adam_step,
    switch_bce_grad,
)
from gaitbridge.diffcore.net import LOG_STD_MAX, LOG_STD_MIN
from gaitbridge.composer import lift_to_terrain_obs, prime_switch_head
from gaitbridge.harness.checkpoint import Checkpoint, checkpoint_bytes, parse_checkpoint
from gaitbridge.policyopt import PPOConfig, policy_act, ppo_loss_grad
from gaitbridge.terrainsim import OBS_DIM, OBS_PROPRIO

from helpers import (
    blas_kernel,
    forward,
    gaussian_logprob,
    identity_norm,
    kernel_note,
    numeric_gradient,
)


def _zeroed_net(obs_dim=4, action_dim=2, hidden=(3, 3)):
    net = ParameterizedNet(obs_dim, action_dim, hidden, np.random.default_rng(0))
    for name, arr in net.params.items():
        arr[...] = 0.0
    return net


def test_zero_weight_net_mean_is_bias():
    net = _zeroed_net()
    net.params["mu.b"][...] = np.array([0.25, -1.5], dtype=np.float32)
    mu, value, switch = forward(net, np.array([3.0, -2.0, 0.5, 9.0]))
    assert np.allclose(mu, [0.25, -1.5], atol=0)
    assert value == 0.0
    assert switch == 0.0


def test_single_unit_net_composes_tanh():
    net = ParameterizedNet(1, 1, (1,), np.random.default_rng(1))
    for name, arr in net.params.items():
        arr[...] = 0.0
    net.params["fc0.w"][...] = 1.0
    net.params["mu.w"][...] = 1.0
    mu = forward(net, np.array([0.5]))[0]
    assert mu[0] == pytest.approx(math.tanh(0.5), abs=1e-7)


def test_gaussian_logprob_matches_independent_formula():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a_dim = rng.integers(1, 5)
        mean = rng.normal(size=a_dim)
        log_std = rng.uniform(-2.0, 1.0, size=a_dim)
        action = rng.normal(size=a_dim)
        # independent per-dimension normal density, summed in log space
        expected = 0.0
        for j in range(a_dim):
            s = math.exp(log_std[j])
            expected += -0.5 * ((action[j] - mean[j]) / s) ** 2 - math.log(s) - 0.5 * math.log(2 * math.pi)
        assert gaussian_logprob(mean, log_std, action) == pytest.approx(expected, abs=1e-9)


def test_gaussian_logprob_integrates_to_one():
    # quadrature oracle: density mass over a wide grid must be ~1 per dimension
    mean = np.array([0.3])
    log_std = np.array([-0.2])
    sigma = math.exp(log_std[0])
    xs = np.linspace(mean[0] - 10 * sigma, mean[0] + 10 * sigma, 20001)
    dens = np.array([math.exp(gaussian_logprob(mean, log_std, np.array([x]))) for x in xs])
    mass = np.trapezoid(dens, xs)
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_adam_single_step_hand_value():
    net = _zeroed_net(obs_dim=1, action_dim=1, hidden=(1,))
    grad = np.zeros(net.flat.size)
    net.views(grad)["mu.b"][...] = 1.0
    state = AdamState(lr=0.1)
    adam_step(net, grad, state)
    # bias-corrected first step moves by exactly lr (up to eps)
    assert net.params["mu.b"][0] == pytest.approx(-0.1, abs=1e-6)
    assert state.step_count == 1


def test_adam_rejects_non_finite_gradients_without_mutation():
    net = _zeroed_net()
    before = {k: v.copy() for k, v in net.params.items()}
    grad = np.zeros(net.flat.size)
    net.views(grad)["fc0.w"][0, 0] = np.nan
    state = AdamState()
    with pytest.raises(NonFiniteGradientError):
        adam_step(net, grad, state)
    assert state.step_count == 0
    for name in before:
        assert np.array_equal(net.params[name], before[name])


@pytest.mark.parametrize("name", ["fc1.b", "log_std", "value.w", "switch.b"])
def test_adam_error_names_the_first_non_finite_parameter(name):
    net = _zeroed_net()
    grad = np.zeros(net.flat.size)
    net.views(grad)[name][...] = np.inf
    net.views(grad)["switch.b"][...] = np.nan
    state = AdamState()
    adam_step(net, np.zeros(net.flat.size), state)
    m_before = state.m.copy()
    with pytest.raises(NonFiniteGradientError, match=repr(name)):
        adam_step(net, grad, state)
    assert state.step_count == 1
    assert np.array_equal(state.m, m_before)


def test_log_std_clamp():
    net = _zeroed_net()
    net.params["log_std"][...] = np.array([-40.0, 40.0], dtype=np.float32)
    net.clamp_log_std()
    assert net.params["log_std"][0] == LOG_STD_MIN
    assert net.params["log_std"][1] == LOG_STD_MAX


def test_copy_is_bit_equal_and_independent():
    net = ParameterizedNet(5, 2, (8, 8), np.random.default_rng(3))
    dup = net.copy()
    for name in net.params:
        assert np.array_equal(net.params[name], dup.params[name])
    dup.params["fc0.w"][0, 0] += 1.0
    assert net.params["fc0.w"][0, 0] != dup.params["fc0.w"][0, 0]


def test_params_are_views_into_flat_vector():
    net = ParameterizedNet(3, 2, (4,), np.random.default_rng(4))
    assert sum(v.size for v in net.params.values()) == net.flat.size
    net.params["mu.b"][1] = 7.5
    start = next(s for name, s, _ in net.layout if name == "mu.b")
    assert net.flat[start + 1] == 7.5
    dup = net.copy()
    dup.flat[:] = 0.0
    assert net.params["mu.b"][1] == 7.5
    views = dict(net.params)
    grad = np.ones(net.flat.size)
    adam_step(net, grad, AdamState(lr=0.1))
    net.params["log_std"][...] = 40.0
    net.clamp_log_std()
    for name, view in net.params.items():
        assert view is views[name]
        assert np.shares_memory(view, net.flat)
    assert np.all(net.params["log_std"] == LOG_STD_MAX)
    assert net.params["mu.b"][1] == pytest.approx(7.4, abs=1e-6)


def _valid_params():
    return dict(ParameterizedNet(3, 2, (4, 5), np.random.default_rng(6)).params)


@pytest.mark.parametrize("edit, message", [
    (lambda p: p.pop("mu.w"), "mu.w"),
    (lambda p: p.pop("value.b"), "value.b"),
    (lambda p: p.update({"fc1.w": np.zeros((3, 5))}), "fc1.w"),
    (lambda p: p.update({"log_std": np.zeros(3)}), "log_std"),
    (lambda p: p.update({"mu.b": np.zeros(1)}), "mu.b"),
    (lambda p: p.update({"value.w": np.zeros((5, 2))}), "value.w"),
    (lambda p: p.update({"switch.b": np.zeros(())}), "switch.b"),
    (lambda p: p.update({"fc2.b": np.zeros(5)}), "fc2.b"),
    (lambda p: p.pop("fc0.w"), "fc0.w"),
])
def test_from_params_rejects_layouts_it_does_not_produce(edit, message):
    params = _valid_params()
    edit(params)
    with pytest.raises(ValueError, match=re.escape(message)):
        ParameterizedNet.from_params(params)


def test_from_params_rebuilds_the_same_net():
    params = _valid_params()
    net = ParameterizedNet.from_params(params)
    assert net.hidden == (4, 5) and net.obs_dim == 3 and net.action_dim == 2
    assert list(net.params) == list(params)
    for name in params:
        assert np.array_equal(net.params[name], params[name])


# ---- closed-form losses against central differences ---------------------------

PPO_COEFS = {"clip": 0.2, "value_coef": 0.5}


def _trunk(p, obs):
    h = obs
    i = 0
    while f"fc{i}.w" in p:
        h = np.tanh(h @ p[f"fc{i}.w"] + p[f"fc{i}.b"])
        i += 1
    return h


def _reference_ppo_loss(p, batch, entropy_coef):
    """PPO loss written out independently of the closed-form backward."""
    h = _trunk(p, batch["obs"])
    mu = h @ p["mu.w"] + p["mu.b"]
    logp = np.array([[gaussian_logprob(m, p["log_std"], a)]
                     for m, a in zip(mu, batch["actions"])])
    if batch["bits"] is not None:
        z = h @ p["switch.w"] + p["switch.b"]
        logp += np.where(batch["bits"] == 1.0, -np.logaddexp(0.0, -z), -np.logaddexp(0.0, z))
    ratio = np.exp(logp - batch["logp_old"])
    clip = PPO_COEFS["clip"]
    pg = -np.mean(np.minimum(ratio * batch["adv"],
                             np.clip(ratio, 1.0 - clip, 1.0 + clip) * batch["adv"]))
    value = h @ p["value.w"] + p["value.b"]
    v_loss = np.mean((value - batch["returns"]) ** 2)
    entropy = np.sum(p["log_std"]) + 0.5 * mu.shape[1] * (1.0 + math.log(2.0 * math.pi))
    return float(pg + PPO_COEFS["value_coef"] * v_loss - entropy_coef * entropy)


def _random_batch(rng, obs_dim, action_dim, batch=6, with_bits=True):
    return {
        "obs": rng.normal(size=(batch, obs_dim)),
        "actions": rng.normal(size=(batch, action_dim)),
        "bits": rng.integers(0, 2, size=(batch, 1)).astype(np.float64) if with_bits else None,
        "logp_old": rng.normal(scale=0.3, size=(batch, 1)) - 1.5,
        "adv": rng.normal(size=(batch, 1)),
        "returns": rng.normal(size=(batch, 1)),
    }


def _ppo_grad(net, batch, entropy_coef=0.0, **coefs):
    config = PPOConfig(entropy_coef=entropy_coef, **{**PPO_COEFS, **coefs})
    grad = np.full(net.flat.size, np.nan)
    pg, v_loss, ratio = ppo_loss_grad(net, batch["obs"], batch["actions"], batch["bits"],
                                      batch["logp_old"], batch["adv"], batch["returns"],
                                      config, grad)
    return net.views(grad), pg, v_loss, ratio


def _assert_close(analytic, numeric, where):
    for name in numeric:
        a, n = analytic[name], numeric[name]
        denom = max(np.max(np.abs(a)), np.max(np.abs(n)), 1e-8)
        rel = np.max(np.abs(a - n)) / denom
        assert rel < 1e-4, f"{where}, param {name}: rel err {rel:.3e}"


def test_backward_matches_central_differences_many_nets():
    # trials cycle through switch bits on/off and entropy on/off
    rng = np.random.default_rng(42)
    for trial in range(20):
        with_bits = trial % 2 == 0
        entropy_coef = 0.05 if trial % 4 >= 2 else 0.0
        obs_dim = int(rng.integers(2, 6))
        action_dim = int(rng.integers(1, 4))
        hidden = tuple(int(h) for h in rng.integers(2, 6, size=2))
        net = ParameterizedNet(obs_dim, action_dim, hidden, rng)
        batch = _random_batch(rng, obs_dim, action_dim, with_bits=with_bits)

        analytic, pg, v_loss, _ = _ppo_grad(net, batch, entropy_coef)
        p = net.params
        assert pg + 0.5 * v_loss == pytest.approx(_reference_ppo_loss(p, batch, 0.0), abs=1e-12)
        numeric = numeric_gradient(lambda q: _reference_ppo_loss(q, batch, entropy_coef), p)
        _assert_close(analytic, numeric, f"trial {trial}")
        if not with_bits:
            assert np.all(analytic["switch.w"] == 0.0) and np.all(analytic["switch.b"] == 0.0)


def _reference_bce(p, obs, labels):
    z = _trunk(p, obs) @ p["switch.w"] + p["switch.b"]
    prob = 1.0 / (1.0 + np.exp(-z))
    return float(-np.mean(labels * np.log(prob) + (1.0 - labels) * np.log(1.0 - prob)))


def test_switch_bce_matches_central_differences():
    rng = np.random.default_rng(43)
    for trial in range(10):
        obs_dim = int(rng.integers(2, 6))
        net = ParameterizedNet(obs_dim, 2, tuple(int(h) for h in rng.integers(2, 6, size=2)), rng)
        obs = rng.normal(size=(7, obs_dim))
        labels = rng.integers(0, 2, size=(7, 1)).astype(np.float64)
        grad = np.full(net.flat.size, np.nan)
        loss = switch_bce_grad(net, obs, labels, grad)
        p = net.params
        assert loss == pytest.approx(_reference_bce(p, obs, labels), abs=1e-12)
        numeric = numeric_gradient(lambda q: _reference_bce(q, obs, labels), p)
        _assert_close(net.views(grad), numeric, f"trial {trial}")


def test_untouched_parameters_get_exact_zero_gradients():
    rng = np.random.default_rng(5)
    net = ParameterizedNet(4, 2, (3, 3), rng)
    # without switch bits the PPO loss never reads the switch head
    grads, _, _, _ = _ppo_grad(net, _random_batch(rng, 4, 2, with_bits=False))
    assert np.all(grads["switch.w"] == 0.0)
    assert np.all(grads["switch.b"] == 0.0)
    assert np.any(grads["mu.w"] != 0.0)
    # the switch cross-entropy reads only the switch head
    grad = np.full(net.flat.size, np.nan)
    switch_bce_grad(net, rng.normal(size=(6, 4)), np.ones((6, 1)), grad)
    grads = net.views(grad)
    for name in ("mu.w", "mu.b", "log_std", "value.w", "value.b"):
        assert np.all(grads[name] == 0.0), name
    assert np.any(grads["switch.w"] != 0.0)


def _batch_at_ratio(net, rng, ratio, adv_sign):
    """A no-bits batch whose probability ratio is `ratio` for every row."""
    batch = _random_batch(rng, net.obs_dim, net.action_dim, with_bits=False)
    batch["logp_old"] = np.zeros((6, 1))
    _, _, _, r = _ppo_grad(net, batch)
    batch["logp_old"] = np.log(r) - math.log(ratio)
    batch["adv"] = adv_sign * (np.abs(batch["adv"]) + 0.1)
    return batch


@pytest.mark.parametrize("ratio, adv_sign", [(1.5, 1.0), (0.5, -1.0)])
def test_ratio_clipped_on_pessimistic_side_gets_zero_policy_gradient(ratio, adv_sign):
    # min() picks the clipped surrogate, which is flat in the ratio
    rng = np.random.default_rng(21)
    net = ParameterizedNet(4, 2, (5, 5), rng)
    batch = _batch_at_ratio(net, rng, ratio, adv_sign)
    grads, pg, _, r = _ppo_grad(net, batch, value_coef=0.0)
    assert np.all(np.abs(r - 1.0) > 0.2)
    assert pg != 0.0
    for name, g in grads.items():
        assert np.all(g == 0.0), name


@pytest.mark.parametrize("ratio, adv_sign", [(1.5, -1.0), (0.5, 1.0)])
def test_minimum_takes_unclipped_branch_outside_band_on_optimistic_side(ratio, adv_sign):
    # min() picks r*A here, so the gradient is the unclipped surrogate's
    rng = np.random.default_rng(22)
    net = ParameterizedNet(4, 2, (5, 5), rng)
    batch = _batch_at_ratio(net, rng, ratio, adv_sign)
    clipped, _, _, _ = _ppo_grad(net, batch, value_coef=0.0)
    unclipped, _, _, _ = _ppo_grad(net, batch, value_coef=0.0, clip=10.0)
    assert np.any(clipped["mu.w"] != 0.0)
    for name in clipped:
        assert np.array_equal(clipped[name], unclipped[name]), name


def test_batched_forward_matches_single():
    rng = np.random.default_rng(11)
    net = ParameterizedNet(6, 2, (8, 8), rng)
    obs = rng.normal(size=(4, 6))
    mu_b, val_b, sw_b = forward(net, obs)
    for i in range(4):
        mu_i, val_i, sw_i = forward(net, obs[i])
        assert np.allclose(mu_b[i], mu_i, atol=1e-12)
        assert val_b[i] == pytest.approx(val_i, abs=1e-12)
        assert sw_b[i] == pytest.approx(sw_i, abs=1e-12)


def reference_forward(net, obs):
    """(mu, value, switch) written out from the named parameters: one row
    takes 1-D products with the value and switch weight columns and gives
    floats, a batch takes (B, h) x (h, 1) products and gives (B,) arrays."""
    p = net.params
    h = obs
    for i in range(len(net.hidden)):
        h = np.tanh(h.dot(p[f"fc{i}.w"]) + p[f"fc{i}.b"])
    mu = h.dot(p["mu.w"]) + p["mu.b"]
    if obs.ndim == 1:
        return (mu, float(h.dot(p["value.w"][:, 0]) + p["value.b"][0]),
                float(h.dot(p["switch.w"][:, 0]) + p["switch.b"][0]))
    return (mu, (h.dot(p["value.w"]) + p["value.b"])[:, 0],
            (h.dot(p["switch.w"]) + p["switch.b"])[:, 0])


def assert_same_bits(got, want):
    if isinstance(want, float):
        assert isinstance(got, float) and got.hex() == want.hex()
    else:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


# a terrain-blind walker and a full-width policy, as the composer builds them
@pytest.mark.parametrize("obs_dim, hidden", [(OBS_PROPRIO, (8,)),
                                             (OBS_DIM, (64, 64))])
@pytest.mark.parametrize("rows", [None, 1, 2, 64])
def test_per_head_reads_equal_the_forward_bit_for_bit(obs_dim, hidden, rows):
    rng = np.random.default_rng(obs_dim + len(hidden))
    net = ParameterizedNet(obs_dim, 2, hidden, rng)
    for name, arr in net.params.items():
        if name.endswith(".b"):
            arr[...] = rng.normal(size=arr.shape).astype(np.float32)
    obs = rng.normal(size=obs_dim if rows is None else (rows, obs_dim))
    want = reference_forward(net, obs)
    h = net.trunk(obs)
    assert np.array_equal(h, net.activations(obs)[-1])
    heads = (net.head("mu", h), net.scalar_head("value", h),
             net.scalar_head("switch", h))
    for reads in (heads, forward(net, obs)):
        for got, ref in zip(reads, want):
            assert_same_bits(got, ref)


def test_inference_cache_follows_every_parameter_write():
    """After each in-place write to a net's parameters, its std and log-std
    sum, its one-row and batched forward and its sampled action equal those
    of a freshly built copy: no read keeps a value from before the write."""
    rng = np.random.default_rng(12)
    net = ParameterizedNet(6, 2, (8, 8), rng)
    obs = rng.normal(size=6)
    batch = rng.normal(size=(5, 6))

    def assert_fresh():
        fresh = ParameterizedNet.from_params(net.params)
        log_std = net.params["log_std"]
        assert np.array_equal(net.std, np.exp(log_std))
        assert net.log_std_sum == float(log_std.sum())
        assert np.array_equal(net.flat, fresh.flat)
        assert np.array_equal(net.std, fresh.std)
        assert net.log_std_sum == fresh.log_std_sum
        for got, want in zip(forward(net, batch), forward(fresh, batch)):
            assert np.array_equal(got, want)
        mu, value, switch = forward(net, obs)
        mu_f, value_f, switch_f = forward(fresh, obs)
        assert np.array_equal(mu, mu_f)
        assert (value, switch) == (value_f, switch_f)
        acts = [policy_act(n, obs, np.random.default_rng(0), with_switch=True)
                for n in (net, fresh)]
        (action, bit, mean, logit, h), act_f = acts
        assert np.array_equal(action, act_f[0])
        assert np.array_equal(mean, act_f[2])
        assert np.array_equal(h, act_f[4])
        assert (bit, logit) == (act_f[1], act_f[3])
        assert net.scalar_head("value", h) == fresh.scalar_head("value", act_f[4])

    assert_fresh()
    adam_step(net, rng.normal(size=net.flat.shape), AdamState(lr=0.1))
    assert_fresh()
    net.params["log_std"][...] = LOG_STD_MAX + 1.0
    assert_fresh()
    net.clamp_log_std()
    assert_fresh()
    prime_switch_head(net)
    assert_fresh()
    net.params["value.b"][...] = 4.0
    net.params["switch.w"][...] = 0.5
    assert_fresh()


def test_copy_never_shares_the_float64_mirror():
    """A copy's float64 parameter vector and its views share no memory with
    the source's, so a write to the source leaves the copy as it was."""
    rng = np.random.default_rng(13)
    net = ParameterizedNet(6, 2, (8, 8), rng)
    dup = net.copy()
    before = {k: v.copy() for k, v in dup.params.items()}
    assert not np.shares_memory(net.flat, dup.flat)
    for name, arr in net.params.items():
        assert not np.shares_memory(arr, dup.params[name]), name
    adam_step(net, rng.normal(size=net.flat.shape), AdamState(lr=0.1))
    assert not all(np.array_equal(net.params[k], before[k]) for k in before)
    assert all(np.array_equal(dup.params[k], before[k]) for k in before)


def test_every_parameter_writer_keeps_float32_values_and_fresh_reads():
    """After each writer of a net's parameters, `flat` holds float32 numbers,
    a checkpoint round trip rebuilds it exactly, and its forwards, std,
    log-std sum and sampled action equal those of a net built from its
    params."""
    rng = np.random.default_rng(12)

    def assert_float32_and_fresh(net):
        assert np.array_equal(net.flat, net.flat.astype(np.float32))
        ckpt = Checkpoint.of(net, identity_norm(net.obs_dim))
        rebuilt, _ = parse_checkpoint(checkpoint_bytes(ckpt)).build()
        assert np.array_equal(rebuilt.flat, net.flat)
        fresh = ParameterizedNet.from_params(net.params)
        log_std = net.params["log_std"]
        assert np.array_equal(net.std, np.exp(log_std))
        assert np.array_equal(net.std, fresh.std)
        assert net.log_std_sum == float(log_std.sum()) == fresh.log_std_sum
        obs = rng.normal(size=net.obs_dim)
        batch = rng.normal(size=(5, net.obs_dim))
        for got, want in zip(forward(net, batch), forward(fresh, batch)):
            assert np.array_equal(got, want)
        mu, value, switch = forward(net, obs)
        mu_f, value_f, switch_f = forward(fresh, obs)
        assert np.array_equal(mu, mu_f)
        assert (value, switch) == (value_f, switch_f)
        assert type(value) is float and type(switch) is float
        acts = [policy_act(n, obs, np.random.default_rng(0), with_switch=True)
                for n in (net, fresh)]
        (action, bit, mean, logit, h), act_f = acts
        assert np.array_equal(action, act_f[0])
        assert np.array_equal(mean, act_f[2])
        assert np.array_equal(h, act_f[4])
        assert (bit, logit) == (act_f[1], act_f[3])
        assert net.scalar_head("value", h) == fresh.scalar_head("value", act_f[4])

    net = ParameterizedNet(OBS_PROPRIO, 2, (8, 8), rng)
    assert_float32_and_fresh(net)
    net = ParameterizedNet.from_params(
        {name: rng.normal(size=arr.shape) for name, arr in net.params.items()})
    assert_float32_and_fresh(net)
    adam_step(net, rng.normal(size=net.flat.shape), AdamState(lr=0.1))
    assert_float32_and_fresh(net)
    net.params["log_std"][...] = [LOG_STD_MIN - 1.0, LOG_STD_MAX + 1.0]
    net.clamp_log_std()
    assert_float32_and_fresh(net)
    prime_switch_head(net)
    assert_float32_and_fresh(net)
    lifted, _ = lift_to_terrain_obs(net, identity_norm(OBS_PROPRIO))
    assert lifted.obs_dim == OBS_DIM
    assert_float32_and_fresh(lifted)
    dup = lifted.copy()
    assert not np.shares_memory(dup.flat, lifted.flat)
    assert_float32_and_fresh(dup)


def test_backward_writes_whichever_gradient_vector_it_is_given():
    rng = np.random.default_rng(15)
    net = ParameterizedNet(4, 2, (5, 5), rng)
    batches = [(rng.normal(size=(6, 4)), rng.integers(0, 2, size=(6, 1)).astype(float))
               for _ in range(2)]

    def reference(i):
        # a copy has its own caches, so this grad never meets net's
        grad = np.full(net.flat.size, np.nan)
        switch_bce_grad(net.copy(), *batches[i], grad)
        return grad

    want = [reference(0), reference(1)]
    assert not np.array_equal(want[0], want[1])
    a, b = np.full(net.flat.size, np.nan), np.full(net.flat.size, np.nan)
    switch_bce_grad(net, *batches[0], a)
    assert np.array_equal(a, want[0])
    switch_bce_grad(net, *batches[1], b)
    assert np.array_equal(b, want[1]) and np.array_equal(a, want[0])
    switch_bce_grad(net, *batches[1], a)
    assert np.array_equal(a, want[1]) and np.array_equal(b, want[1])


FIXTURES = Path(__file__).resolve().parent.parent / "bench" / "fixtures"


@pytest.mark.parametrize("rows", [1, 2, 7, 64, 500])
@pytest.mark.parametrize("fixture",
                         sorted(p.stem for p in FIXTURES.glob("*.npz")))
def test_per_row_passes_equal_one_row_passes(fixture, rows):
    # trunk_rows, and np.vecdot / np.vecmat heads on its rows, give each row
    # the floats of its one-row trunk, scalar_head and head; numpy promises
    # no such equality, and a batched product breaks it
    with np.load(FIXTURES / f"{fixture}.npz", allow_pickle=False) as data:
        net = ParameterizedNet.from_params({
            key[len("param."):]: data[key] for key in data.files
            if key.startswith("param.")})
    obs = np.random.default_rng(rows).normal(0.0, 1.5,
                                             size=(rows, net.obs_dim))
    h, p = net.trunk_rows(obs), net.params
    values = np.vecdot(h, p["value.w"][:, 0]) + p["value.b"][0]
    means = np.vecmat(h, p["mu.w"]) + p["mu.b"]
    assert h.shape == (rows, net.hidden[-1])
    for row, h_row, value, mean in zip(obs, h, values, means):
        one = net.trunk(row)
        assert one.tobytes() == h_row.tobytes()
        assert net.scalar_head("value", one).hex() == float(value).hex()
        assert net.head("mu", one).tobytes() == mean.tobytes()


def test_the_blas_kernel_is_named():
    # a seeded pin that fails says which OpenBLAS kernel rounded the run
    kernel = blas_kernel()
    if kernel is None:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        pytest.skip(f"numpy bundles no OpenBLAS: its BLAS is "
                    f"{blas.get('name')} {blas.get('version')}")
    assert re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", kernel)
    assert kernel_note().endswith(f"this run's is {kernel}")
