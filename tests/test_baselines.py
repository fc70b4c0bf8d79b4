"""Tests for the comparison arms: reward variants, proximity predictor,
without-setup control, and single end-to-end policy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

from gaitbridge.baselines import (
    CONSTANT_REWARD,
    SETUP_REWARDS,
    VARIANT_TAGS,
    ProximityPredictor,
    proximity_reward,
    train_proximity_arm,
    train_single_policy,
)
from gaitbridge.composer import (
    AWTVParams,
    BehaviorModule,
    CarriedTarget,
    awtv_reward,
    awtv_step_reward,
    evaluate_bridged,
    td_advantage,
)
from gaitbridge.harness.cli import build_parser
from gaitbridge.policyopt import PPOConfig
from gaitbridge.terrainsim import (
    HURDLE,
    OBS_DIM,
    TerrainEnv,
    distance_fraction,
    flat_course,
    single_artifact_course,
)

from helpers import (
    exact_hurdle_module,
    flat_value_module,
    hurdle_module,
    identity_norm,
    scripted_net,
)

OBS = np.zeros(OBS_DIM)


def setup_reward(tag, target, action=(0.0, -1.0), r_env=0.05, terminal=False):
    """One step of a variant's reward from the all-zero observation."""
    return SETUP_REWARDS[tag](target, OBS, OBS, r_env, terminal,
                              np.asarray(action))


# ---- setup-reward variants -------------------------------------------------------


class TestVariantReward:
    """The value of each variant, called with a BehaviorModule."""

    def test_constant_ignores_context(self):
        for r_env, terminal in ((-4.0, False), (0.3, True)):
            got = setup_reward("constant", flat_value_module(2.0),
                               action=(1.0, 1.0), r_env=r_env,
                               terminal=terminal)
            assert got == CONSTANT_REWARD == 1.5

    def test_torque_equal_actions_is_one(self):
        module = hurdle_module(target_net=scripted_net(0.3, -0.2))
        action = module.target_action(OBS)
        assert setup_reward("target-torque", module, action) == 1.0

    def test_torque_unit_distance(self):
        module = hurdle_module(target_net=scripted_net(1.0, 0.0))
        got = setup_reward("target-torque", module, action=(0.0, 0.0))
        assert got == pytest.approx(math.exp(-2.0), rel=1e-9)
        assert got == pytest.approx(0.13534, abs=5e-6)

    @given(
        a=st.lists(st.floats(-1, 1, allow_nan=False), min_size=2, max_size=2),
        b=st.lists(st.floats(-1, 1, allow_nan=False), min_size=2, max_size=2),
    )
    @settings(max_examples=50, deadline=None)
    def test_torque_bounded_and_tight_only_at_equality(self, a, b):
        module = hurdle_module(target_net=scripted_net(*b))
        target_action = module.target_action(OBS)
        got = setup_reward("target-torque", module, a)
        assert 0.0 < got <= 1.0
        if max(abs(x - y) for x, y in zip(a, target_action)) >= 1e-3:
            assert got < 1.0
        assert setup_reward("target-torque", module, target_action) == 1.0

    def test_original_passes_env_reward(self):
        assert setup_reward("original", flat_value_module(3.0),
                            r_env=0.07) == 0.07

    def test_target_value_scales_by_beta(self):
        module = flat_value_module(3.0)
        assert setup_reward("target-value", module) \
            == pytest.approx(0.03, abs=1e-15)
        module.params = AWTVParams(beta=0.5)
        assert setup_reward("target-value", module) \
            == pytest.approx(1.5, abs=1e-15)

    def test_awtv_matches_shared_formula(self):
        # V == 7 everywhere and r_env chosen for a TD advantage of 0.4
        module = flat_value_module(7.0)
        module.params = AWTVParams(alpha=0.3, beta=0.02, gamma=0.9)
        got = setup_reward("awtv", module, r_env=0.4 + 7.0 - 0.9 * 7.0)
        assert got == pytest.approx((1.0 - 0.3 * 0.4 ** 2) * 0.02 * 7.0,
                                    abs=1e-12)

    def test_unknown_tag_raises(self):
        # the table is the only map from a tag to a reward, and the CLI
        # accepts exactly its tags
        assert VARIANT_TAGS == tuple(SETUP_REWARDS)
        flags = ["train-setup", "--kind", HURDLE, "--default", "d.ckpt",
                 "--target", "t.ckpt", "--budget", "1", "--out", "s.ckpt"]
        for tag in VARIANT_TAGS:
            assert build_parser().parse_args(flags + ["--reward", tag]).reward \
                == tag
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(flags + ["--reward", "bogus"])
        assert exc.value.code == 2


class TestVariantRewardFn:
    """The variants as train_setup calls them: with the driver's
    CarriedTarget view of a live module."""

    def setup_method(self):
        self.module = flat_value_module(3.0)

    def _call(self, tag, action=(0.0, -1.0), r_env=0.05, terminal=False):
        return setup_reward(tag, CarriedTarget(self.module), action, r_env,
                            terminal)

    def test_original_fn(self):
        assert self._call("original") == 0.05

    def test_constant_fn(self):
        assert self._call("constant") == 1.5

    def test_torque_fn_equal_action_is_one(self):
        # the scripted target's deterministic action is its mu bias (0, -1)
        assert self._call("target-torque", action=(0.0, -1.0)) == 1.0
        assert self._call("target-torque", action=(1.0, -1.0)) \
            == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_target_value_fn(self):
        assert self._call("target-value") == pytest.approx(0.03, abs=1e-10)

    def test_awtv_fn_matches_direct_composition(self):
        # flat value 3.0 everywhere: adv = r + gamma*3 - 3; r_hat saturates to
        # (1 - min(alpha*adv^2, 1)) * beta * 3
        params = self.module.params
        adv = td_advantage(self.module.target_value, OBS, OBS,
                           0.05, params.gamma)
        want = awtv_reward(adv, self.module.target_value(OBS), params)
        assert self._call("awtv") == pytest.approx(want, abs=1e-12)

    def test_awtv_fn_is_the_main_method_reward(self):
        assert SETUP_REWARDS["awtv"] is awtv_step_reward

    def test_awtv_fn_terminal_zeroes_bootstrap(self):
        params = self.module.params
        adv = td_advantage(self.module.target_value, OBS, OBS,
                           0.05, params.gamma, terminal=True)
        want = awtv_reward(adv, self.module.target_value(OBS), params)
        assert self._call("awtv", terminal=True) \
            == pytest.approx(want, abs=1e-12)


# ---- proximity predictor ----------------------------------------------------------


class TestProximityPredictor:
    def test_outputs_live_in_unit_interval(self):
        rng = default_rng(0)
        P = ProximityPredictor(rng)
        for _ in range(20):
            p = P.predict(rng.uniform(-3, 3, size=OBS_DIM))
            assert 0.0 <= p <= 1.0

    def test_identical_states_give_zero_reward(self):
        P = ProximityPredictor(default_rng(1))
        s = np.linspace(-1, 1, OBS_DIM)
        assert proximity_reward(P, s, s) == 0.0

    def test_reward_telescopes_over_trajectory(self):
        rng = default_rng(2)
        P = ProximityPredictor(rng)
        states = [rng.uniform(-1, 1, size=OBS_DIM) for _ in range(40)]
        total = math.fsum(proximity_reward(P, states[i], states[i + 1])
                          for i in range(len(states) - 1))
        assert total == pytest.approx(
            P.predict(states[-1]) - P.predict(states[0]), abs=1e-9)

    def test_synthetic_separation(self):
        # success states carry feature f=1, failures f=0
        rng = default_rng(3)
        P = ProximityPredictor(rng)
        pos = [np.r_[1.0, rng.uniform(-0.1, 0.1, OBS_DIM - 1)]
               for _ in range(300)]
        neg = [np.r_[0.0, rng.uniform(-0.1, 0.1, OBS_DIM - 1)]
               for _ in range(300)]
        P.add_episode(pos, True)
        P.add_episode(neg, False)
        P.fit(rng, minibatches=80)
        p_pos = float(np.mean([P.predict(s) for s in pos]))
        p_neg = float(np.mean([P.predict(s) for s in neg]))
        assert p_pos > p_neg

    def test_buffers_are_fifo_capped(self):
        rng = default_rng(4)
        P = ProximityPredictor(rng, buffer_cap=10)
        states = [np.full(OBS_DIM, float(i)) for i in range(25)]
        P.add_episode(states, True)
        assert len(P.success) == 10
        # FIFO: the earliest states fell out, the newest remain
        kept = sorted(s[0] for s in P.success)
        assert kept == [float(i) for i in range(15, 25)]

    def test_add_episode_partitions_states(self):
        P = ProximityPredictor(default_rng(5))
        ep1 = [np.full(OBS_DIM, 1.0), np.full(OBS_DIM, 2.0)]
        ep2 = [np.full(OBS_DIM, 3.0)]
        ep3 = [np.full(OBS_DIM, 4.0), np.full(OBS_DIM, 5.0)]
        P.add_episode(ep1, True)
        P.add_episode(ep2, False)
        P.add_episode(ep3, True)
        succ = sorted(s[0] for s in P.success)
        fail = sorted(s[0] for s in P.failure)
        assert succ == [1.0, 2.0, 4.0, 5.0]
        assert fail == [3.0]
        assert not set(succ) & set(fail)
        assert len(succ) + len(fail) == 5

    def test_fit_waits_for_both_classes(self):
        rng = default_rng(6)
        P = ProximityPredictor(rng)
        before = {k: v.copy() for k, v in P.net.params.items()}
        assert P.fit(rng) is None
        P.add_episode([np.zeros(OBS_DIM)], True)
        assert P.fit(rng) is None
        for k, v in P.net.params.items():
            assert np.array_equal(v, before[k])
        P.add_episode([np.ones(OBS_DIM)], False)
        assert P.fit(rng, minibatches=1) is not None


class TestTrainProximityArm:
    def _world(self):
        course = single_artifact_course(HURDLE)
        env = TerrainEnv(course)
        default_net = scripted_net(0.5, 0.0)
        d_norm = identity_norm()
        target = scripted_net(0.0, -1.0)
        module = BehaviorModule.from_default(HURDLE, target, identity_norm(),
                                             default_net, d_norm)
        return env, default_net, d_norm, module

    def test_budget_zero_leaves_setup_equal_to_walk_policy(self):
        env, default_net, d_norm, module = self._world()
        config = PPOConfig(horizon=2048)
        predictor, curve = train_proximity_arm(
            module, default_net, d_norm, env, config, 0, default_rng(0),
            eval_every=0)
        # the transition policy itself is an untouched copy of the walker;
        # only the handoff head carries the standard fresh-module prior
        for name in default_net.params:
            if name.startswith("switch."):
                continue
            assert np.array_equal(module.setup_net.params[name],
                                  default_net.params[name]), name
        assert np.all(module.setup_net.params["switch.w"] == 0.0)
        assert len(predictor.success) == 0 and len(predictor.failure) == 0

    def test_short_run_fills_buffers_with_setup_phase_states(self):
        env, default_net, d_norm, module = self._world()
        config = PPOConfig(horizon=100_000)  # oversized: no updates
        predictor, _ = train_proximity_arm(
            module, default_net, d_norm, env, config, 4000, default_rng(7),
            eval_every=0, fit_every=3, fit_minibatches=5)
        stored = list(predictor.success) + list(predictor.failure)
        assert stored, "finished episodes must land states in a buffer"
        # the proximity arm stores raw setup-phase observations: the runner
        # is already within detection range, so distance reads at most 1.0
        for s in stored:
            assert s.shape == (OBS_DIM,)
            assert s[5] <= 1.0 + 1e-9


# ---- without-setup control ----------------------------------------------------------


class TestRunWithoutSetup:
    def test_flat_course_walks_to_goal_without_any_switch(self):
        env = TerrainEnv(flat_course())
        rate, outcomes = evaluate_bridged(
            env, scripted_net(0.5, 0.0), identity_norm(), {}, 10,
            default_rng(0), without_setup=True)
        assert rate == 1.0
        distance = np.mean([distance_fraction(env.course, o.state)
                            for o in outcomes])
        assert distance == pytest.approx(1.0)
        assert all(not o.events for o in outcomes)

    def test_jump_course_skipping_setup_loses_to_bridged(self):
        course = single_artifact_course(HURDLE)
        env = TerrainEnv(course)
        default_net = scripted_net(0.5, 0.0)
        d_norm = identity_norm()
        modules = {HURDLE: exact_hurdle_module()}

        rate, outcomes = evaluate_bridged(env, default_net, d_norm, modules,
                                          16, default_rng(3),
                                          without_setup=True)
        bridged_rate, _ = evaluate_bridged(env, default_net, d_norm, modules,
                                           16, default_rng(3))
        assert rate < bridged_rate
        # the jump specialist takes over with no crouch built: it never
        # launches, so every episode fails
        assert rate == 0.0
        for o in outcomes:
            assert all(e.dst != "setup" for e in o.events)
            assert o.events and o.events[0].src == "default" \
                and o.events[0].dst == "target"


# ---- single end-to-end policy ---------------------------------------------------------


class TestTrainSinglePolicy:
    def test_flat_course_trains_to_near_perfect(self):
        net, norm, curve = train_single_policy(
            flat_course(), 61_440, default_rng(0),
            eval_every=10, eval_episodes=40)
        assert curve[-1][2] >= 0.95

    def test_fixed_seed_reproducibility(self):
        runs = []
        for _ in range(2):
            net, norm, curve = train_single_policy(
                flat_course(), 8_192, default_rng(11),
                eval_every=2, eval_episodes=10)
            runs.append((tuple(curve),
                         {k: v.copy() for k, v in net.params.items()}))
        assert runs[0][0] == runs[1][0]
        for k in runs[0][1]:
            assert np.array_equal(runs[0][1][k], runs[1][1][k]), k

    def test_jump_course_failure_is_a_result_not_an_error(self):
        course = single_artifact_course(HURDLE)
        net, norm, curve = train_single_policy(
            course, 4_096, default_rng(0),
            config=PPOConfig(horizon=2048), eval_every=2, eval_episodes=10)
        assert curve[-1][2] < 0.5  # recorded, not raised
