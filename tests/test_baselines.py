"""Tests for the comparison arms: reward variants, proximity predictor,
without-setup control, and single end-to-end policy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

import gaitbridge.baselines as bl
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
    RowTarget,
    TailStep,
    TailTarget,
    awtv_reward,
    awtv_step_reward,
    episode_drivers,
    policy_trunk,
    run_lanes,
)
from gaitbridge.diffcore import ParameterizedNet
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
    evaluate_bridged,
    exact_hurdle_module,
    flat_value_module,
    hurdle_module,
    identity_norm,
    scripted_net,
    td_advantage,
    UncachedTarget,
)

OBS = np.zeros(OBS_DIM)


def setup_reward(tag, target, action=(0.0, -1.0), r_env=0.05, terminal=False):
    """One step of a variant's reward from the all-zero observation; a
    BehaviorModule is read through the uncached reference view."""
    if isinstance(target, BehaviorModule):
        target = UncachedTarget(target)
    return SETUP_REWARDS[tag](target, OBS, OBS, r_env, terminal,
                              np.asarray(action))


# ---- setup-reward variants -------------------------------------------------------


class TestVariantReward:
    """The value of each variant, called with a module's uncached view."""

    def test_constant_ignores_context(self):
        for r_env, terminal in ((-4.0, False), (0.3, True)):
            got = setup_reward("constant", flat_value_module(2.0),
                               action=(1.0, 1.0), r_env=r_env,
                               terminal=terminal)
            assert got == CONSTANT_REWARD == 1.5

    def test_torque_equal_actions_is_one(self):
        module = hurdle_module(target_net=scripted_net(0.3, -0.2))
        action = UncachedTarget(module).target_action(OBS)
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
        target_action = UncachedTarget(module).target_action(OBS)
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
    """The variants as train_setup calls them: with the trainer's RowTarget
    view of a live module."""

    def setup_method(self):
        self.module = flat_value_module(3.0)

    def _call(self, tag, action=(0.0, -1.0), r_env=0.05, terminal=False):
        return setup_reward(tag, RowTarget(self.module), action, r_env,
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
        target = UncachedTarget(self.module)
        adv = td_advantage(target.target_value, OBS, OBS,
                           0.05, params.gamma)
        want = awtv_reward(adv, target.target_value(OBS), params)
        assert self._call("awtv") == pytest.approx(want, abs=1e-12)

    def test_awtv_fn_is_the_main_method_reward(self):
        assert SETUP_REWARDS["awtv"] is awtv_step_reward

    def test_awtv_fn_terminal_zeroes_bootstrap(self):
        params = self.module.params
        target = UncachedTarget(self.module)
        adv = td_advantage(target.target_value, OBS, OBS,
                           0.05, params.gamma, terminal=True)
        want = awtv_reward(adv, target.target_value(OBS), params)
        assert self._call("awtv", terminal=True) \
            == pytest.approx(want, abs=1e-12)


class TestVariantRewardOverTails:
    """Each variant over k tails, as a call of tails reads them through a
    `TailTarget`, equals its k one-transition calls through the trainer's
    `RowTarget`, bit for bit."""

    K = 9

    @staticmethod
    def transitions(k, seed):
        """A module whose specialist's value and mean read the observation,
        and k transitions from it: the `TailStep` a call of tails keeps,
        V(s') at `obs_next`, and `obs_next`. Every third lane is one the
        target drives, so it acted on the target's mean; the other lanes
        carry the target's trunk output at their observation."""
        rng = default_rng(seed)
        module = hurdle_module(target_net=ParameterizedNet(
            OBS_DIM, 2, (8, 8), rng))
        obs, obs_next = rng.normal(size=(2, k, OBS_DIM))
        others = np.arange(k) % 3 != 0
        actions = rng.uniform(-1.0, 1.0, size=(k, 2))
        trunks, values, v_next = np.zeros((k, 8)), np.empty(k), np.empty(k)
        for i, (s, s_next) in enumerate(zip(obs, obs_next)):
            target = RowTarget(module)
            values[i] = target.target_value(s)
            v_next[i] = target.target_value(s_next)
            if others[i]:
                trunks[i] = policy_trunk(module.target_net,
                                         module.target_norm, s)
            else:
                actions[i] = target.target_action(s)
        step = TailStep(obs, values, trunks, others, actions,
                        rng.normal(scale=0.1, size=k))
        return module, step, v_next, obs_next

    @pytest.mark.parametrize("terminal", [False, True])
    @pytest.mark.parametrize("tag", VARIANT_TAGS)
    def test_a_batch_equals_its_one_transition_calls(self, tag, terminal):
        reward_fn = SETUP_REWARDS[tag]
        module, step, v_next, obs_next = self.transitions(self.K, 3)
        want = [reward_fn(RowTarget(module), s, s_next, r, terminal, a)
                for s, s_next, r, a in zip(step.obs, obs_next,
                                           step.rewards.tolist(),
                                           step.actions)]
        got = reward_fn(TailTarget(module, step, None if terminal else v_next),
                        step.obs, obs_next, step.rewards, terminal,
                        step.actions)
        assert all(isinstance(r, float) for r in want)
        assert np.broadcast_to(got, self.K).tobytes() \
            == np.array(want).tobytes()
        if tag == "target-torque":
            # each row squares its distance as `np.dot` does, and the lanes
            # the target drives imitate it exactly
            means = [RowTarget(module).target_action(s) for s in step.obs]
            assert want == [np.exp(-bl.TORQUE_SCALE * np.dot(a - m, a - m))
                            for a, m in zip(step.actions, means)]
            assert set(np.asarray(got)[~step.others]) == {1.0}
            assert (np.asarray(got)[step.others] < 1.0).all()


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

    def test_synthetic_separation(self, monkeypatch):
        # success states carry feature f=1, failures f=0
        monkeypatch.setattr(ProximityPredictor, "MINIBATCHES", 80)
        rng = default_rng(3)
        P = ProximityPredictor(rng)
        pos = [np.r_[1.0, rng.uniform(-0.1, 0.1, OBS_DIM - 1)]
               for _ in range(300)]
        neg = [np.r_[0.0, rng.uniform(-0.1, 0.1, OBS_DIM - 1)]
               for _ in range(300)]
        P.add_episode(pos, True)
        P.add_episode(neg, False)
        P.fit(rng)
        p_pos = float(np.mean([P.predict(s) for s in pos]))
        p_neg = float(np.mean([P.predict(s) for s in neg]))
        assert p_pos > p_neg

    def test_buffers_are_fifo_capped(self, monkeypatch):
        monkeypatch.setattr(ProximityPredictor, "BUFFER_CAP", 10)
        rng = default_rng(4)
        P = ProximityPredictor(rng)
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

    def test_fit_waits_for_both_classes(self, monkeypatch):
        monkeypatch.setattr(ProximityPredictor, "MINIBATCHES", 1)
        rng = default_rng(6)
        P = ProximityPredictor(rng)
        before = {k: v.copy() for k, v in P.net.params.items()}
        assert P.fit(rng) is None
        P.add_episode([np.zeros(OBS_DIM)], True)
        assert P.fit(rng) is None
        for k, v in P.net.params.items():
            assert np.array_equal(v, before[k])
        P.add_episode([np.ones(OBS_DIM)], False)
        assert P.fit(rng) is not None


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

    def test_short_run_fills_buffers_with_setup_phase_states(self,
                                                             monkeypatch):
        monkeypatch.setattr(bl, "FIT_EVERY", 3)
        monkeypatch.setattr(ProximityPredictor, "MINIBATCHES", 5)
        env, default_net, d_norm, module = self._world()
        config = PPOConfig(horizon=100_000)  # oversized: no updates
        predictor, _ = train_proximity_arm(
            module, default_net, d_norm, env, config, 4000, default_rng(7),
            eval_every=0)
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
        outcomes = run_lanes(episode_drivers(
            env, scripted_net(0.5, 0.0), identity_norm(), {}, 10,
            default_rng(0), without_setup=True))
        assert all(o.state.success for o in outcomes)
        distance = np.mean([distance_fraction(env.course, o.state)
                            for o in outcomes])
        assert distance == pytest.approx(1.0)
        assert all(not o.switch.events for o in outcomes)

    def test_jump_course_skipping_setup_loses_to_bridged(self):
        course = single_artifact_course(HURDLE)
        env = TerrainEnv(course)
        default_net = scripted_net(0.5, 0.0)
        d_norm = identity_norm()
        modules = {HURDLE: exact_hurdle_module()}

        outcomes = run_lanes(episode_drivers(env, default_net, d_norm,
                                             modules, 16, default_rng(3),
                                             without_setup=True))
        rate = np.mean([o.state.success for o in outcomes])
        bridged_rate, _ = evaluate_bridged(env, default_net, d_norm, modules,
                                           16, default_rng(3))
        assert rate < bridged_rate
        # the jump specialist takes over with no crouch built: it never
        # launches, so every episode fails
        assert rate == 0.0
        for o in outcomes:
            assert all(e.dst != "setup" for e in o.switch.events)
            assert o.switch.events and o.switch.events[0].src == "default" \
                and o.switch.events[0].dst == "target"


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
