"""Tests for the policy-switching layer: shaped rewards, the switch state
machine, bridged episodes, and setup-policy training mechanics.

The scripted-bridge tests steer hand-crafted constant-action networks through
a hurdle course and check the resulting switch-event trace against a small
independent reimplementation of the runner dynamics kept inside this file.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitbridge import composer as cp
from gaitbridge.composer import (
    AWTVParams,
    FLAT,
    BehaviorModule,
    EpisodeDriver,
    SwitchError,
    SwitchState,
    Trainer,
    TrainingFailure,
    awtv_reward,
    awtv_step_reward,
    evaluate_bridged,
    td_advantage,
    train_setup,
    train_target,
    tau_theta_reached,
    POLICY_DEFAULT,
    POLICY_SETUP,
    POLICY_TARGET,
)
from gaitbridge.diffcore.net import ParameterizedNet
from gaitbridge.policyopt import (
    PPOConfig,
    RolloutBuffer,
    RunningNormalizer,
)
from gaitbridge.terrainsim import (
    BLOCK,
    GAP,
    HURDLE,
    KINDS,
    OBS_DIM,
    RunnerState,
    TerrainEnv,
    make_artifact,
    make_course,
    multi_terrain_course,
    observe,
    single_artifact_course,
)

from helpers import (
    exact_hurdle_module,
    flat_value_module,
    hurdle_module,
    identity_norm,
    scripted_net,
)


def saturated_identity_norm(dim=OBS_DIM):
    """Identity normalizer so heavy that further updates barely move it."""
    count = 1e12
    state = {
        "count": np.full(dim, count),
        "sum_hi": np.zeros(dim),
        "sum_lo": np.zeros(dim),
        "wmean": np.zeros(dim),
        "m2": np.full(dim, count),
    }
    return RunningNormalizer.from_state_arrays(state)


def setup_trainer(module, config, seed=0):
    """A trainer of the module's setup policy on the AWTV reward."""
    return Trainer(module.setup_net, module.setup_norm, config,
                   np.random.default_rng(seed), module=module)


# ---- shaped-reward arithmetic -------------------------------------------------


class TestTdAdvantage:
    def test_hand_value(self):
        values = {"s": 2.5, "s2": 2.0}
        adv = td_advantage(values.__getitem__, "s", "s2", 1.0, 0.99)
        assert adv == pytest.approx(1.0 + 0.99 * 2.0 - 2.5, abs=1e-15)

    def test_terminal_zeroes_bootstrap(self):
        values = {"s": 2.5, "s2": 2.0}
        adv = td_advantage(values.__getitem__, "s", "s2", 1.0, 0.99,
                           terminal=True)
        assert adv == pytest.approx(1.0 - 2.5, abs=1e-15)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            td_advantage(lambda s: float("inf"), 0, 1, 0.0, 0.99)
        with pytest.raises(ValueError):
            td_advantage(lambda s: 1.0, 0, 1, float("nan"), 0.99)

    def test_vanishes_on_policy_along_exact_value_chain(self):
        # Deterministic 4-transition chain; V computed by backward induction,
        # so every on-policy one-step advantage must cancel to zero.
        rewards = [2.0, -1.0, 0.5, 3.0]
        gamma = 0.97
        v = [0.0] * 5
        for i in range(3, -1, -1):
            v[i] = rewards[i] + gamma * v[i + 1]
        for i in range(4):
            adv = td_advantage(lambda s: v[s], i, i + 1, rewards[i], gamma,
                               terminal=(i == 3))
            assert abs(adv) < 1e-12

    def test_off_policy_jump_matches_discounted_return_gap(self):
        # A "skip" action 0 -> 2 with its own reward: the TD advantage must
        # equal the full discounted return along the remaining chain minus
        # V(0), computed here as an explicit discounted sum.
        rewards = [2.0, -1.0, 0.5, 3.0]
        gamma = 0.97
        v = [0.0] * 5
        for i in range(3, -1, -1):
            v[i] = rewards[i] + gamma * v[i + 1]
        r_skip = 0.25
        adv = td_advantage(lambda s: v[s], 0, 2, r_skip, gamma)
        ret = math.fsum(
            [r_skip, gamma * rewards[2], gamma * gamma * rewards[3]])
        assert adv == pytest.approx(ret - v[0], abs=1e-12)


class TestAwtvReward:
    def test_zero_surprise_pays_full_value_fraction(self):
        assert awtv_reward(0.0, 10.0, AWTVParams()) == pytest.approx(
            0.1, abs=1e-15)

    def test_saturated_surprise_pays_nothing(self):
        # alpha * 3^2 = 1.35 clips to 1, so the weight vanishes exactly.
        assert awtv_reward(3.0, 10.0, AWTVParams()) == 0.0

    def test_intermediate_surprise(self):
        # weight 1 - 0.15 = 0.85, times beta*V = 0.1.
        assert awtv_reward(1.0, 10.0, AWTVParams()) == pytest.approx(
            0.085, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        adv=st.floats(-50.0, 50.0, allow_nan=False),
        v=st.floats(0.0, 100.0, allow_nan=False),
    )
    def test_bounded_by_value_fraction(self, adv, v):
        params = AWTVParams()
        r = awtv_reward(adv, v, params)
        assert 0.0 <= r <= params.beta * v + 1e-15
        if abs(adv) >= math.sqrt(1.0 / params.alpha):
            assert r == 0.0
        if abs(adv) >= 1e-3 and v >= 1e-6:
            assert r < params.beta * v

    def test_params_validate(self):
        with pytest.raises(ValueError):
            AWTVParams(alpha=0.0)
        with pytest.raises(ValueError):
            AWTVParams(beta=-0.01)
        for bad in ({"alpha": math.inf}, {"beta": math.nan},
                    {"gamma": 0.0}, {"gamma": 2.0}):
            with pytest.raises(ValueError):
                AWTVParams(**bad)
        AWTVParams(gamma=1.0)


class TestAwtvStepReward:
    def test_matched_reward_recovers_full_fraction(self):
        # V == 3 everywhere, so r_env = (1-gamma)*V leaves a ~zero advantage
        # and the shaped reward sits at beta*V.
        module = flat_value_module(3.0)
        obs = np.zeros(OBS_DIM)
        r = awtv_step_reward(module, obs, obs, 0.03, False, None)
        assert r == pytest.approx(0.03, abs=1e-10)

    def test_terminal_transition_saturates(self):
        # Ending the episode forfeits the bootstrap: advantage -2.97, the
        # squared-surprise clip saturates, and the shaped reward hits zero.
        module = flat_value_module(3.0)
        obs = np.zeros(OBS_DIM)
        assert awtv_step_reward(module, obs, obs, 0.03, True, None) == 0.0


class TestExtendReward:
    def test_folds_into_final_entry_only(self):
        # every tick after the trained setup policy's handoff leaves the
        # stored entries alone except the last, which gains that tick's
        # shaped reward
        env, default_net, d_norm, module = fast_training_world()
        trainer = setup_trainer(module, PPOConfig(horizon=100_000))
        shaped = []

        def reward_fn(*args):
            shaped.append(awtv_step_reward(*args))
            return shaped[-1]

        trainer.reward_fn = reward_fn
        buf = RolloutBuffer(trainer.config.horizon)
        rng = np.random.default_rng(40)
        folds = 0
        for _ in range(5):
            drv = EpisodeDriver(env, default_net, d_norm, {HURDLE: module},
                                rng, trainer=trainer, buffer=buf)
            while not drv.done:
                folding = drv.handed_off
                before = list(buf.rewards)
                drv.tick()
                if folding:
                    folds += 1
                    assert buf.rewards[:-1] == before[:-1]
                    assert buf.rewards[-1] == before[-1] + shaped[-1]
        assert folds > 0


# ---- switch state machine -------------------------------------------------------


def _artifact():
    return single_artifact_course(HURDLE).artifacts[0]


def _runner(x=0.0, c=0.0, v=0.0, contact=True, steps=0):
    return RunnerState(x=x, c=c, v=v, contact=contact, steps=steps)


def _scripted_drivers(walker=None, module=None, seed=5):
    """Scripted hurdle episode; yields its driver after each tick."""
    course = single_artifact_course(HURDLE)
    drv = EpisodeDriver(TerrainEnv(course), walker or scripted_net(0.5, 0.0),
                        identity_norm(),
                        {HURDLE: module or exact_hurdle_module()},
                        np.random.default_rng(seed))
    while not drv.done:
        drv.tick()
        yield drv


def _expected_events(seed=5):
    x0 = float(np.random.default_rng(seed).uniform(0.0, 2.2))
    return [(src, dst, step) for src, dst, step, _, _, _
            in _expected_trace(x0)[0]]


def _events(drv):
    return [(e.src, e.dst, e.step) for e in drv.switch.events]


class TestSwitchMachine:
    def test_detection_latches_and_activates_setup(self):
        # the driver sets the artifact at detection, keeps it through the
        # setup and target phases, and clears it on the release
        phases = []
        for drv in _scripted_drivers():
            switch = drv.switch
            acting_on = (None if switch.active == POLICY_DEFAULT
                         else drv.env.course.artifacts[0])
            assert switch.artifact is acting_on
            if not phases or phases[-1] != switch.active:
                phases.append(switch.active)
        assert phases == [POLICY_DEFAULT, POLICY_SETUP, POLICY_TARGET,
                          POLICY_DEFAULT]

    def test_full_cycle_produces_three_events(self):
        sw = SwitchState()
        cycle = ((POLICY_SETUP, _runner(x=2.3, steps=3)),
                 (POLICY_TARGET, _runner(x=2.5, c=0.6, steps=9)),
                 (POLICY_DEFAULT, _runner(x=3.9, v=1.2, steps=60)))
        for dst, runner in cycle:
            sw.transition(dst, runner)
            assert sw.active == dst
        assert [(e.src, e.dst, e.step, e.x, e.c, e.v) for e in sw.events] == [
            ("default", "setup", 3, 2.3, 0.0, 0.0),
            ("setup", "target", 9, 2.5, 0.6, 0.0),
            ("target", "default", 60, 3.9, 0.0, 1.2)]

    def test_without_setup_goes_straight_to_target(self):
        sw = SwitchState()
        sw.transition(POLICY_TARGET, _runner(x=2.3, steps=5))
        assert sw.active == POLICY_TARGET
        assert [(e.src, e.dst, e.step) for e in sw.events] == [
            ("default", "target", 5)]

    def test_termination_flags_ignored_while_default(self):
        # the walker's handoff head is never read: one saturated to fire
        # leaves the walker in charge until detection
        walker = scripted_net(0.5, 0.0)
        walker.params["switch.b"][0] = 50.0
        walker.invalidate_cache()
        *_, drv = _scripted_drivers(walker=walker)
        assert _events(drv) == _expected_events()

    def test_setup_flag_ignored_while_target(self):
        # the target acts on its mean: a handoff head saturated to fire
        # changes nothing once it has taken over
        target = scripted_net(0.0, -1.0)
        target.params["switch.b"][0] = 50.0
        target.invalidate_cache()
        *_, drv = _scripted_drivers(
            module=exact_hurdle_module(target_net=target))
        assert _events(drv) == _expected_events()

    def test_illegal_transitions_raise(self):
        sw = SwitchState()
        for active, dst in ((POLICY_DEFAULT, POLICY_DEFAULT),
                            (POLICY_SETUP, POLICY_DEFAULT),
                            (POLICY_SETUP, POLICY_SETUP),
                            (POLICY_TARGET, POLICY_SETUP),
                            (POLICY_TARGET, POLICY_TARGET)):
            sw.active = active
            with pytest.raises(SwitchError):
                sw.transition(dst, _runner())
            assert sw.active == active and not sw.events

    def test_tau_theta_needs_contact_past_the_end(self):
        art = _artifact()
        past = art.end + 1e-6
        assert tau_theta_reached(_runner(x=past, contact=True), art)
        assert not tau_theta_reached(_runner(x=past, contact=False), art)
        assert not tau_theta_reached(_runner(x=art.end, contact=True), art)
        assert not tau_theta_reached(_runner(x=art.start, contact=True), art)


# ---- scripted bridged episode vs independent dynamics ---------------------------


_DT = 1.0 / 60.0
_G = 9.81


def _expected_trace(x0):
    """Independent replay of the scripted episode: detection at 1.0 m range,
    crouch gate at ~0.6, repeated hops until contact lands past the hurdle,
    then walking to the goal. Mirrors the runner's update arithmetic exactly,
    including the side-collision branch (a hop that meets the hurdle's column
    while its sole is still below the top fails the episode).

    Returns (events, steps, failure) with failure None on a completed run.
    """
    lo = 3.2
    hi = 3.2 + 0.1
    goal = hi + 3.0
    gate_bias = float(np.float32(-8.3365))
    events = []
    x, v, c, w = x0, 0.0, 0.0, 0.0
    steps = 0

    # default approach: drive 0.5, no crouch
    while not (lo - x <= 1.0):
        v = min(max(v + (4.0 * 0.5 - 1.5 * v) * _DT, 0.0), 2.0)
        x += v * _DT
        steps += 1
    events.append(("default", "setup", steps, x, c, v))

    # setup: drive 0.25, crouch hard, handoff once the gate logit is positive
    while True:
        fire = 10.0 * np.tanh(2.0 * c) + gate_bias > 0.0
        v = min(max(v + (4.0 * 0.25 - 1.5 * v) * _DT, 0.0), 2.0)
        c = min(max(c + 4.0 * 1.0 * _DT, 0.0), 1.0)
        x += v * _DT
        steps += 1
        if fire:
            events.append(("setup", "target", steps, x, c, v))
            break

    # target: full crouch release every contact tick -> hop until past the end
    leg = 1.0 - 0.4 * c
    h = leg
    contact = True
    while True:
        if contact and x > hi:
            events.append(("target", "default", steps, x, c, v))
            break
        if contact:
            w = 6.0 * c * 1.0
            contact = False
        prev_sole = h - leg
        x += v * _DT
        h += w * _DT - 0.5 * _G * _DT * _DT
        w -= _G * _DT
        steps += 1
        sole = h - leg
        support = 0.2 if lo <= x < hi else 0.0
        if sole <= support:
            if prev_sole >= support:
                h = support + leg
                w = 0.0
                contact = True
            else:
                return events, steps, "collision"

    # default again: walk out to the goal
    while x < goal:
        v = min(max(v + (4.0 * 0.5 - 1.5 * v) * _DT, 0.0), 2.0)
        x += v * _DT
        steps += 1
    return events, steps, None


class TestScriptedBridge:
    # seed 5 completes the course; seed 23's second hop takes off too close
    # to the hurdle and clips its side, exercising the failure branch.
    @pytest.mark.parametrize("seed", [5, 23])
    def test_event_trace_matches_independent_replay(self, seed):
        course = single_artifact_course(HURDLE)
        env = TerrainEnv(course)
        default_net = scripted_net(0.5, 0.0)
        module = exact_hurdle_module()
        rng = np.random.default_rng(seed)
        out = EpisodeDriver(env, default_net, identity_norm(),
                            {HURDLE: module}, rng).run()

        x0 = float(np.random.default_rng(seed).uniform(0.0, 2.2))
        expected_events, expected_steps, expected_failure = _expected_trace(x0)

        assert out.state.failure == expected_failure
        assert out.state.success == (expected_failure is None)
        assert out.state.steps == expected_steps
        got = [(e.src, e.dst, e.step) for e in out.events]
        assert got == [(s, d, n) for s, d, n, _, _, _ in expected_events]
        for e, (_, _, _, x, c, v) in zip(out.events, expected_events):
            assert e.x == pytest.approx(x, abs=1e-9)
            assert e.c == pytest.approx(c, abs=1e-9)
            assert e.v == pytest.approx(v, abs=1e-9)

    def test_deterministic_replay_is_bit_stable(self):
        course = single_artifact_course(HURDLE)
        default_net = scripted_net(0.5, 0.0)
        runs = []
        for _ in range(2):
            out = EpisodeDriver(TerrainEnv(course), default_net,
                                identity_norm(),
                                {HURDLE: exact_hurdle_module()},
                                np.random.default_rng(5)).run()
            runs.append((out.state.steps, out.state.x, out.env_reward,
                         [(e.src, e.dst, e.step, e.x) for e in out.events]))
        assert runs[0] == runs[1]


# ---- reward bookkeeping in training episodes ------------------------------------


class TestTrainingEpisodeBookkeeping:
    def _training_setup(self, horizon=100_000):
        course = single_artifact_course(HURDLE)
        env = TerrainEnv(course)
        default_net = scripted_net(0.5, 0.0)
        d_norm = identity_norm()
        target_net = ParameterizedNet(OBS_DIM, 2, (8, 8),
                                      np.random.default_rng(31))
        module = BehaviorModule.from_default(HURDLE, target_net,
                                             identity_norm(), default_net,
                                             d_norm)
        config = PPOConfig(horizon=horizon, minibatch=64, epochs=1)
        return env, default_net, d_norm, module, setup_trainer(module, config)

    def test_buffer_rewards_equal_sum_of_stored_and_folded_shaping(self):
        # With an oversized buffer (no mid-episode updates) the sum of buffer
        # rewards gained per episode must equal the sum of every shaped-reward
        # evaluation made during it: stored setup steps plus post-handoff
        # extensions folded into the final entry.
        env, default_net, d_norm, module, trainer = self._training_setup()
        calls = []
        inner = trainer.reward_fn

        def logging_fn(module, obs, obs_next, r_env, terminal, action):
            r = inner(module, obs, obs_next, r_env, terminal, action)
            calls.append(r)
            return r

        trainer.reward_fn = logging_fn
        buf = RolloutBuffer(trainer.config.horizon)
        rng = np.random.default_rng(40)
        total_extends = 0
        for _ in range(10):
            len_before = len(buf)
            sum_before = math.fsum(buf.rewards)
            calls.clear()
            EpisodeDriver(env, default_net, d_norm, {HURDLE: module}, rng,
                          trainer=trainer, buffer=buf).run()
            stored = len(buf) - len_before
            extends = len(calls) - stored
            assert extends >= 0
            total_extends += extends
            gained = math.fsum(buf.rewards) - sum_before
            assert gained == pytest.approx(math.fsum(calls), abs=1e-9)
        assert trainer.updates == 0
        assert total_extends > 0

    def test_handoff_steps_are_marked_phase_terminal(self):
        env, default_net, d_norm, module, trainer = self._training_setup()
        buf = RolloutBuffer(trainer.config.horizon)
        rng = np.random.default_rng(40)
        for _ in range(10):
            EpisodeDriver(env, default_net, d_norm, {HURDLE: module}, rng,
                          trainer=trainer, buffer=buf).run()
        bits = np.array([b if b is not None else 0 for b in buf.switch_bits])
        assert bits.sum() > 0
        for bit, done in zip(buf.switch_bits, buf.dones):
            if bit == 1:
                assert done

    def test_setup_stores_exactly_its_own_ticks(self):
        # The tick that flips default -> setup is acted by (and stored for)
        # the setup policy, so a fresh buffer holds exactly handoff_step -
        # detection_step entries and its first observation is taken at the
        # detection point itself.
        env, default_net, d_norm, module, trainer = self._training_setup()
        # pin the setup statistics so stored observations stay ~raw even
        # though the trainer path updates the normalizer every setup tick
        module.setup_norm = trainer.norm = saturated_identity_norm()
        rng = np.random.default_rng(40)
        out = buf = None
        for _ in range(5):
            buf = RolloutBuffer(trainer.config.horizon)
            out = EpisodeDriver(env, default_net, d_norm, {HURDLE: module},
                                rng, trainer=trainer, buffer=buf).run()
            if out.switch_count >= 2:
                break
        assert out.switch_count >= 2
        detect, handoff = out.events[0], out.events[1]
        assert (detect.src, detect.dst) == ("default", "setup")
        assert (handoff.src, handoff.dst) == ("setup", "target")
        assert len(buf) == handoff.step - detect.step
        # observation component 5 is the clamped distance to the artifact
        art = single_artifact_course(HURDLE).artifacts[0]
        assert buf.obs[0][5] == pytest.approx(art.start - detect.x, abs=1e-8)


def fast_training_world():
    course = single_artifact_course(HURDLE)
    env = TerrainEnv(course)
    default_net = scripted_net(0.5, 0.0)
    d_norm = identity_norm()
    # a random target keeps the shaped reward signal nonzero (its value
    # head is not identically zero); the quiet switch head makes setup
    # phases long, so buffers fill and updates come quickly.
    target_net = ParameterizedNet(OBS_DIM, 2, (8, 8),
                                  np.random.default_rng(31))
    module = BehaviorModule.from_default(HURDLE, target_net,
                                         identity_norm(), default_net,
                                         d_norm)
    module.setup_net.params["switch.b"][0] = -4.0
    module.setup_net.invalidate_cache()
    return env, default_net, d_norm, module


class TestUpdateMechanics:
    def test_update_keeps_exactly_the_final_transition(self, monkeypatch):
        env, default_net, d_norm, module = fast_training_world()
        config = PPOConfig(horizon=16, minibatch=16, epochs=2)
        records = []
        original = Trainer.update

        def spy(self, drivers):
            buf = drivers[0].buffer
            pre = (len(buf), buf.rewards[-1], np.copy(buf.obs[-1]),
                   buf.dones[-1])
            original(self, drivers)
            records.append((pre, len(buf), buf.rewards[-1],
                            np.copy(buf.obs[-1]), buf.dones[-1]))

        monkeypatch.setattr(cp.Trainer, "update", spy)
        train_setup(module, default_net, d_norm, env, config, 3000,
                    np.random.default_rng(2), eval_every=0, eval_episodes=1)
        assert len(records) >= 2
        for pre, post_len, post_r, post_obs, post_done in records:
            pre_len, pre_r, pre_obs, pre_done = pre
            assert pre_len == 16
            assert post_len == 1
            assert post_r == pre_r
            assert np.array_equal(post_obs, pre_obs)
            assert post_done == pre_done

    def test_training_changes_setup_but_never_target(self):
        env, default_net, d_norm, module = fast_training_world()
        config = PPOConfig(horizon=16, minibatch=16, epochs=2)
        target_snapshot = {k: v.copy()
                           for k, v in module.target_net.params.items()}
        setup_snapshot = {k: v.copy()
                          for k, v in module.setup_net.params.items()}
        curve = train_setup(module, default_net, d_norm, env, config, 3000,
                            np.random.default_rng(2), eval_every=0,
                            eval_episodes=1)
        assert curve and curve[-1][1] >= 2  # several updates happened
        assert all(np.array_equal(module.target_net.params[k],
                                  target_snapshot[k])
                   for k in target_snapshot)
        assert any(not np.array_equal(module.setup_net.params[k],
                                      setup_snapshot[k])
                   for k in setup_snapshot)

    def test_budget_zero_leaves_setup_bit_identical(self):
        env, default_net, d_norm, _ = fast_training_world()
        module = BehaviorModule.from_default(
            HURDLE, ParameterizedNet(OBS_DIM, 2, (8, 8),
                                     np.random.default_rng(31)),
            identity_norm(), default_net, d_norm)
        config = PPOConfig(horizon=16, minibatch=16, epochs=2)
        params_before = {k: v.copy()
                         for k, v in module.setup_net.params.items()}
        norm_before = {k: v.copy()
                       for k, v in module.setup_norm.state_arrays().items()}
        curve = train_setup(module, default_net, d_norm, env, config, 0,
                            np.random.default_rng(2), eval_every=0,
                            eval_episodes=2)
        assert len(curve) == 1
        assert curve[0][0] == 0 and curve[0][1] == 0
        assert all(np.array_equal(module.setup_net.params[k],
                                  params_before[k])
                   for k in params_before)
        # everything except the re-primed handoff head still equals the walker
        assert all(np.array_equal(module.setup_net.params[k],
                                  default_net.params[k])
                   for k in default_net.params if not k.startswith("switch."))
        after = module.setup_norm.state_arrays()
        assert all(np.array_equal(after[k], norm_before[k])
                   for k in norm_before)

    def test_two_workers_fill_and_update_in_lockstep(self):
        env, default_net, d_norm, module = fast_training_world()
        config = PPOConfig(horizon=16, minibatch=16, epochs=2)
        curve = train_setup(module, default_net, d_norm, env, config, 4000,
                            np.random.default_rng(3), eval_every=0,
                            eval_episodes=1, n_workers=2)
        assert curve[-1][1] >= 1

    def test_validation_errors(self):
        env, default_net, d_norm, module = fast_training_world()
        config = PPOConfig(horizon=16)
        with pytest.raises(ValueError):
            train_setup(module, default_net, d_norm, env, config, -1,
                        np.random.default_rng(0))
        with pytest.raises(ValueError):
            train_setup(module, default_net, d_norm, env, config, 0,
                        np.random.default_rng(0), n_workers=0)
        with pytest.raises(ValueError, match="eval_episodes"):
            train_setup(module, default_net, d_norm, env, config, 0,
                        np.random.default_rng(0), eval_episodes=-1)
        with pytest.raises(ValueError, match="eval_every"):
            train_setup(module, default_net, d_norm, env, config, 0,
                        np.random.default_rng(0), eval_every=-1)

    def test_smallest_horizon_still_ticks(self):
        # one transition survives each update, so a two-slot buffer takes
        # one new tick per update
        env, default_net, d_norm, module = fast_training_world()
        curve = train_setup(module, default_net, d_norm, env,
                            PPOConfig(horizon=2, minibatch=1, epochs=1), 300,
                            np.random.default_rng(2), eval_every=0,
                            eval_episodes=0)
        steps, updates, rate = curve[-1]
        assert steps == 300 and updates >= 2 and rate is None


# ---- the driver's one-tick carry ---------------------------------------------------


class UncachedTarget:
    """Reference view: asks the module afresh on every call."""

    def __init__(self, module):
        self.module = module
        self.params = module.params

    def target_value(self, obs):
        return self.module.target_value(obs)

    def target_action(self, obs):
        return self.module.target_action(obs)


def uncached(monkeypatch):
    """Make drivers observe afresh and evaluate the target on every call."""
    monkeypatch.setattr(cp, "CarriedTarget", UncachedTarget)
    monkeypatch.setattr(cp.EpisodeDriver, "observation",
                        lambda self: observe(self.env.course, self.state))


def valued(net, seed):
    """Give a scripted net an observation-dependent value head; its action
    (mu.w is zero) stays the constant mu bias."""
    rng = np.random.default_rng(seed)
    for name in ("fc0.w", "fc0.b", "value.w", "value.b"):
        net.params[name][...] = rng.normal(size=net.params[name].shape)
    net.invalidate_cache()
    return net


def two_kind_world():
    """Hurdle then gap: both modules act in most episodes."""
    hurdle = make_artifact(HURDLE, 3.2)
    course = make_course([hurdle, make_artifact(GAP, hurdle.end + 2.0)])
    # saturated setup statistics keep training episodes on the scripted path
    modules = {
        kind: BehaviorModule(kind, valued(scripted_net(*action), seed),
                             identity_norm(),
                             scripted_net(0.25, 1.0, crouch_gate=True),
                             saturated_identity_norm())
        for kind, action, seed in ((HURDLE, (0.0, -1.0), 1),
                                   (GAP, (1.0, 1.0), 2))}
    return TerrainEnv(course), scripted_net(0.5, 0.0), modules


def outcome_record(out):
    s = out.state
    return (s.x, s.v, s.c, s.steps, s.success, s.failure, out.env_reward,
            [(e.step, e.src, e.dst, e.x, e.c, e.v) for e in out.events])


class TestTargetCarry:
    def test_two_worker_training_matches_uncached_reference(self,
                                                            monkeypatch):
        def run():
            env, default_net, d_norm, module = fast_training_world()
            rewards = []
            original = Trainer.update

            def spy(trainer, drivers):
                rewards.append([list(d.buffer.rewards) for d in drivers])
                original(trainer, drivers)

            with monkeypatch.context() as m:
                m.setattr(cp.Trainer, "update", spy)
                train_setup(module, default_net, d_norm, env,
                            PPOConfig(horizon=16, minibatch=16, epochs=2),
                            3000, np.random.default_rng(3), eval_every=0,
                            eval_episodes=1, n_workers=2)
            return (rewards, module.setup_net.flat.copy(),
                    module.setup_norm.state_arrays())

        carried = run()
        uncached(monkeypatch)
        reference = run()
        assert len(carried[0]) >= 2
        assert carried[0] == reference[0]
        assert np.array_equal(carried[1], reference[1])
        for key, arr in reference[2].items():
            assert np.array_equal(carried[2][key], arr)

    def test_two_kind_course_matches_uncached_reference(self, monkeypatch):
        def run():
            env, walker, modules = two_kind_world()
            _, evaluated = evaluate_bridged(env, walker, identity_norm(),
                                            modules, 8,
                                            np.random.default_rng(7))
            trainer = setup_trainer(modules[HURDLE],
                                    PPOConfig(horizon=100_000))
            buf = RolloutBuffer(trainer.config.horizon)
            rng = np.random.default_rng(7)
            trained = [EpisodeDriver(env, walker, identity_norm(), modules,
                                     rng, trainer=trainer, buffer=buf).run()
                       for _ in range(8)]
            return ([outcome_record(o) for o in evaluated + trained],
                    list(buf.rewards))

        carried = run()
        target_handoffs = [sum(e[2] == POLICY_TARGET for e in rec[-1])
                           for rec in carried[0]]
        assert max(target_handoffs) == 2  # both specialists took over
        uncached(monkeypatch)
        assert carried == run()

    def test_target_runs_at_most_once_per_reward_plus_one(self):
        env, default_net, d_norm, module = fast_training_world()
        net = module.target_net
        forwards = [0]

        def counting(fn):
            def wrapped(obs):
                forwards[0] += 1
                return fn(obs)
            return wrapped

        net.forward = counting(net.forward)
        net.value_of = counting(net.value_of)
        rewards = [0]

        def reward_fn(*args):
            rewards[0] += 1
            return awtv_step_reward(*args)

        episodes = []

        def on_episode_end(driver):
            episodes.append((forwards[0], rewards[0]))
            forwards[0] = rewards[0] = 0

        train_setup(module, default_net, d_norm, env,
                    PPOConfig(horizon=16, minibatch=16, epochs=1), 2000,
                    np.random.default_rng(2), reward_fn=reward_fn,
                    eval_every=0, eval_episodes=0,
                    on_episode_end=on_episode_end)
        assert sum(r for _, r in episodes) > 100
        for n_forward, n_reward in episodes:
            assert n_forward <= n_reward + 1


class TestOnlyTheTrainedPolicyLearns:
    def test_another_modules_setup_ticks_are_neither_stored_nor_learned(
            self, monkeypatch):
        env, walker, modules = two_kind_world()
        hurdle, gap = modules[HURDLE], modules[GAP]
        gap_norm = gap.setup_norm.state_arrays()
        acted = []
        real = cp.policy_act

        def spy(net, *args, **kwargs):
            acted.append(net)
            return real(net, *args, **kwargs)

        monkeypatch.setattr(cp, "policy_act", spy)
        trainer = setup_trainer(hurdle, PPOConfig(horizon=100_000))
        buf = RolloutBuffer(trainer.config.horizon)
        rng = np.random.default_rng(7)
        for _ in range(8):
            EpisodeDriver(env, walker, identity_norm(), modules, rng,
                          trainer=trainer, buffer=buf).run()
        assert any(net is gap.setup_net for net in acted)
        assert len(buf) == sum(net is hurdle.setup_net for net in acted)
        for key, arr in gap.setup_norm.state_arrays().items():
            assert np.array_equal(arr, gap_norm[key])


# ---- episode driver validation ---------------------------------------------------


class TestTerrainBlindWalker:
    def test_proprioceptive_walker_ignores_upcoming_artifacts(self):
        """A body-only walker takes bit-identical steps on flat and block
        ground right up to the moment the bridged machine takes it off duty."""
        from gaitbridge.policyopt import policy_act
        from gaitbridge.terrainsim import OBS_PROPRIO, flat_course, observe

        net = ParameterizedNet(OBS_PROPRIO, 2, (8,), np.random.default_rng(3))
        norm = identity_norm(OBS_PROPRIO)
        flat_env = TerrainEnv(flat_course(10.0))
        block_env = TerrainEnv(single_artifact_course(BLOCK))
        s_flat = flat_env.reset_from(0.4)
        s_block = block_env.reset_from(0.4)
        rng = np.random.default_rng(0)
        for _ in range(100):
            obs_f = cp.policy_obs(net, observe(flat_env.course, s_flat))
            obs_b = cp.policy_obs(net, observe(block_env.course, s_block))
            assert np.array_equal(obs_f, obs_b)
            action, _, _, _ = policy_act(net, norm.normalize(obs_f), rng,
                                         deterministic=True)
            flat_env.step(s_flat, action)
            block_env.step(s_block, action)
            assert s_flat.x == s_block.x and s_flat.v == s_block.v
            if s_block.x >= 2.2:  # detection range of the block
                break

    def test_full_width_policy_observation_passes_through(self):
        net = scripted_net(0.5, 0.0)
        obs = np.arange(OBS_DIM, dtype=float)
        assert cp.policy_obs(net, obs) is obs
        batch = np.arange(3 * OBS_DIM, dtype=float).reshape(3, OBS_DIM)
        assert cp.policy_obs(net, batch) is batch

    def test_batch_is_trimmed_row_by_row(self):
        from gaitbridge.terrainsim import OBS_PROPRIO

        net = ParameterizedNet(OBS_PROPRIO, 2, (8,), np.random.default_rng(3))
        batch = np.arange(4 * OBS_DIM, dtype=float).reshape(4, OBS_DIM)
        trimmed = cp.policy_obs(net, batch)
        assert trimmed.shape == (4, OBS_PROPRIO)
        for row, full in zip(trimmed, batch):
            assert np.array_equal(row, cp.policy_obs(net, full))


class TestDriverValidation:
    def test_no_setup_arm_rejects_trainer(self):
        env = TerrainEnv(single_artifact_course(HURDLE))
        module = hurdle_module()
        trainer = setup_trainer(module, PPOConfig(horizon=16))
        with pytest.raises(ValueError):
            EpisodeDriver(env, scripted_net(0.5, 0.0), identity_norm(),
                          {HURDLE: module}, np.random.default_rng(0),
                          trainer=trainer, buffer=RolloutBuffer(16),
                          without_setup=True)

    def test_trainer_and_buffer_come_together(self):
        env = TerrainEnv(single_artifact_course(HURDLE))
        module = hurdle_module()
        trainer = setup_trainer(module, PPOConfig(horizon=16))
        with pytest.raises(ValueError):
            EpisodeDriver(env, scripted_net(0.5, 0.0), identity_norm(),
                          {HURDLE: module}, np.random.default_rng(0),
                          trainer=trainer)
        with pytest.raises(ValueError):
            EpisodeDriver(env, scripted_net(0.5, 0.0), identity_norm(),
                          {HURDLE: module}, np.random.default_rng(0),
                          buffer=RolloutBuffer(16))

    def test_trainer_module_must_be_a_driver_module(self):
        env = TerrainEnv(single_artifact_course(HURDLE))
        config = PPOConfig(horizon=16)
        walker, walker_norm = scripted_net(0.5, 0.0), identity_norm()
        trainers = (setup_trainer(hurdle_module(), config),
                    Trainer(walker, walker_norm, config,
                            np.random.default_rng(0)))
        for trainer in trainers:
            with pytest.raises(ValueError, match="trainer's net"):
                EpisodeDriver(env, scripted_net(0.5, 0.0), walker_norm,
                              {HURDLE: hurdle_module()},
                              np.random.default_rng(0), trainer=trainer,
                              buffer=RolloutBuffer(16))


class TestEvaluateBridged:
    def test_without_setup_never_activates_setup(self):
        env = TerrainEnv(single_artifact_course(HURDLE))
        module = hurdle_module()
        _, outcomes = evaluate_bridged(env, scripted_net(0.5, 0.0),
                                       identity_norm(), {HURDLE: module}, 5,
                                       np.random.default_rng(4),
                                       without_setup=True)
        assert len(outcomes) == 5
        for out in outcomes:
            assert all(e.dst != POLICY_SETUP for e in out.events)
            assert out.events and out.events[0].dst == POLICY_TARGET

    def test_same_seed_gives_identical_outcomes(self):
        env = TerrainEnv(single_artifact_course(HURDLE))
        module = exact_hurdle_module()
        runs = []
        for _ in range(2):
            rate, outcomes = evaluate_bridged(env, scripted_net(0.5, 0.0),
                                              identity_norm(),
                                              {HURDLE: module}, 8,
                                              np.random.default_rng(9))
            runs.append((rate, [(o.state.steps, o.state.success,
                                 o.switch_count) for o in outcomes]))
        assert runs[0] == runs[1]
        # episode i runs on the i-th spawned generator, whose first draw is
        # the spawn position; the exact setup net makes every later draw
        # irrelevant, so the independent replay predicts every outcome
        expected = [_expected_trace(float(child.uniform(0.0, 2.2)))
                    for child in np.random.default_rng(9).spawn(8)]
        assert [s for s, _, _ in runs[0][1]] == [n for _, n, _ in expected]
        assert [ok for _, ok, _ in runs[0][1]] == [
            f is None for _, _, f in expected]
        assert runs[0][0] == sum(
            1.0 for _, _, f in expected if f is None) / 8.0

    def test_standard_protocol_samples_setup_but_reproduces_by_seed(self):
        # the evaluation default keeps the setup phase stochastic (its handoff
        # head encodes a per-step switching rate); outcomes must still be a
        # pure function of the generator seed
        env = TerrainEnv(single_artifact_course(HURDLE))
        module = hurdle_module()
        runs = []
        for _ in range(2):
            rate, outcomes = evaluate_bridged(env, scripted_net(0.5, 0.0),
                                              identity_norm(),
                                              {HURDLE: module}, 6,
                                              np.random.default_rng(11))
            runs.append((rate, [(o.state.steps, o.state.success,
                                 o.switch_count) for o in outcomes]))
        assert runs[0] == runs[1]


# ---- evaluation lanes against the one-episode reference --------------------------


def lane_world(first=HURDLE):
    """`first`, then the other of hurdle and gap, with two_kind_world's
    policies. A small dense perturbation makes a batched forward round
    unlike a one-row forward, and the setup policies sample their actions
    and handoffs."""
    art = make_artifact(first, 3.2)
    course = make_course([art, make_artifact(GAP if first == HURDLE
                                             else HURDLE, art.end + 2.0)])
    _, walker, modules = two_kind_world()
    rng = np.random.default_rng(21)
    for net in [walker] + [m.setup_net for m in modules.values()]:
        for name in ("fc0.b", "mu.w"):
            arr = net.params[name]
            arr[...] += 0.05 * rng.standard_normal(arr.shape)
        net.invalidate_cache()
    for module in modules.values():
        module.setup_norm = identity_norm()
    return TerrainEnv(course), walker, modules


def assert_same_outcome(got, want):
    """Discrete results exactly, positions to batched-matmul rounding."""
    assert (got.state.success, got.state.failure, got.state.steps) == \
        (want.state.success, want.state.failure, want.state.steps)
    assert [(e.step, e.src, e.dst) for e in got.events] == \
        [(e.step, e.src, e.dst) for e in want.events]
    for e, f in zip(got.events, want.events):
        assert e.x == pytest.approx(f.x, abs=1e-9)
        assert e.c == pytest.approx(f.c, abs=1e-9)
        assert e.v == pytest.approx(f.v, abs=1e-9)


class TestLanes:
    # the no-setup arm stalls in front of the hurdle, so it starts at the gap
    @pytest.mark.parametrize("without_setup, first",
                             [(False, HURDLE), (True, GAP)])
    def test_each_episode_equals_its_sequential_run(self, without_setup,
                                                    first):
        env, walker, modules = lane_world(first)
        _, outcomes = evaluate_bridged(env, walker, identity_norm(), modules,
                                       24, np.random.default_rng(5),
                                       without_setup=without_setup)
        children = np.random.default_rng(5).spawn(24)
        for out, child in zip(outcomes, children):
            ref = EpisodeDriver(env, walker, identity_norm(), modules, child,
                                without_setup=without_setup).run()
            assert_same_outcome(out, ref)
        handoffs = {e.dst for out in outcomes for e in out.events}
        assert (POLICY_SETUP in handoffs) != without_setup
        assert POLICY_TARGET in handoffs
        # lanes finish at different ticks
        assert len({out.state.steps for out in outcomes}) > 1

    def test_a_lone_lane_reproduces_run_bit_for_bit(self):
        env, walker, modules = lane_world()
        for seed in range(4):
            _, (out,) = evaluate_bridged(env, walker, identity_norm(),
                                         modules, 1,
                                         np.random.default_rng(seed))
            (child,) = np.random.default_rng(seed).spawn(1)
            ref = EpisodeDriver(env, walker, identity_norm(), modules,
                                child).run()
            assert outcome_record(out) == outcome_record(ref)

    def test_first_episodes_do_not_depend_on_the_episode_count(self):
        env, walker, modules = lane_world()
        _, many = evaluate_bridged(env, walker, identity_norm(), modules, 16,
                                   np.random.default_rng(8))
        _, few = evaluate_bridged(env, walker, identity_norm(), modules, 5,
                                  np.random.default_rng(8))
        for got, want in zip(many, few):
            assert_same_outcome(got, want)

    @pytest.mark.parametrize("without_setup", [False, True])
    def test_lanes_on_their_own_courses_equal_their_sequential_runs(
            self, without_setup):
        # one shuffled course per episode, as run_multi_terrain builds them
        _, walker, modules = lane_world()
        modules[BLOCK] = BehaviorModule(
            BLOCK, valued(scripted_net(1.0, 1.0), 3), identity_norm(),
            modules[GAP].setup_net.copy(), identity_norm())
        walker_norm = identity_norm()
        drivers, refs = [], []
        for episode in range(16):
            order = tuple(KINDS[i] for i in np.random.default_rng(
                (4, episode)).permutation(len(KINDS)))
            course = multi_terrain_course(order)
            for into in (drivers, refs):
                into.append(EpisodeDriver(
                    TerrainEnv(course), walker, walker_norm, modules,
                    np.random.default_rng((4, episode)),
                    without_setup=without_setup))
        outcomes = cp.run_lanes(drivers)
        for got, ref in zip(outcomes, refs):
            assert_same_outcome(got, ref.run())
        assert len({drv.env.course.artifacts[0].kind for drv in drivers}) > 1
        assert len({out.state.steps for out in outcomes}) > 1
        # with setup, some lanes clear their first artifact and switch again
        assert max(out.switch_count
                   for out in outcomes) >= (1 if without_setup else 4)

    def test_no_lanes_give_no_outcomes(self):
        assert cp.run_lanes([]) == []

    @pytest.mark.parametrize("differ", ["default", "modules", "without_setup"])
    def test_rejects_lanes_that_disagree_on_the_policies(self, differ):
        env, walker, modules = lane_world()
        same = dict(default_net=walker, default_norm=identity_norm(),
                    modules=modules)
        other = {"default": dict(default_norm=identity_norm()),
                 "modules": dict(modules={HURDLE: modules[HURDLE]}),
                 "without_setup": dict(without_setup=True)}[differ]
        drivers = [EpisodeDriver(env, rng=np.random.default_rng(0),
                                 **{**same, **kwargs})
                   for kwargs in ({}, other)]
        with pytest.raises(ValueError, match="lanes must share"):
            cp.run_lanes(drivers)

    def test_rejects_a_training_driver(self):
        env = TerrainEnv(single_artifact_course(HURDLE))
        module = hurdle_module()
        trainer = setup_trainer(module, PPOConfig(horizon=16))
        drivers = [EpisodeDriver(env, scripted_net(0.5, 0.0), identity_norm(),
                                 {HURDLE: module}, np.random.default_rng(0),
                                 trainer=trainer, buffer=RolloutBuffer(16))]
        with pytest.raises(ValueError, match="evaluation"):
            cp.run_lanes(drivers)


# ---- spawn distributions ----------------------------------------------------------


class TestSpawnDistributions:
    def test_approach_spawn_ranges(self):
        course = single_artifact_course(BLOCK)
        art = course.artifacts[0]
        env = TerrainEnv(course)
        init = cp.artifact_approach_init(art)
        rng = np.random.default_rng(12)
        for _ in range(300):
            state = init(env, rng)
            assert art.start - 1.0 <= state.x <= art.start - 0.3
            assert 0.4 <= state.c <= 1.0
            assert 0.0 <= state.v <= 1.0
            assert state.contact and not state.done

    def test_approach_spawn_draw_order_is_pinned(self):
        course = single_artifact_course(BLOCK)
        art = course.artifacts[0]
        env = TerrainEnv(course)
        state = cp.artifact_approach_init(art)(env, np.random.default_rng(7))
        probe = np.random.default_rng(7)
        offset = probe.uniform(0.3, 1.0)
        c = probe.uniform(0.4, 1.0)
        v = probe.uniform(0.0, 1.0)
        assert state.x == art.start - offset
        assert state.c == c and state.v == v


# ---- target-policy training paths --------------------------------------------------


class TestTrainTargetPaths:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            train_target("stairs", 100, np.random.default_rng(0))

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            train_target(BLOCK, -1, np.random.default_rng(0))

    def test_no_evaluation_gives_unmeasured_rows(self, monkeypatch):
        def no_episodes(*args, **kwargs):
            raise AssertionError("evaluated with eval_episodes=0")

        monkeypatch.setattr(cp, "evaluate_bridged", no_episodes)
        # stop_at=0 would stop at any measured rate
        _, _, curve = train_target(FLAT, 128, np.random.default_rng(0),
                                   config=PPOConfig(horizon=32, epochs=1),
                                   eval_every=2, eval_episodes=0, stop_at=0.0,
                                   min_final=None)
        assert curve == [(64, 2, None), (128, 4, None)]

    def test_negative_eval_every_rejected(self):
        # n % -1 == 0 would otherwise evaluate after every update
        with pytest.raises(ValueError, match="eval_every"):
            train_target(FLAT, 128, np.random.default_rng(0),
                         config=PPOConfig(horizon=32, epochs=1),
                         eval_every=-1, eval_episodes=1, stop_at=2.0,
                         min_final=None)

    def test_min_final_needs_an_evaluation(self):
        with pytest.raises(ValueError, match="eval_episodes"):
            train_target(FLAT, 128, np.random.default_rng(0),
                         eval_episodes=0)
        with pytest.raises(ValueError, match="eval_episodes"):
            train_target(FLAT, 128, np.random.default_rng(0),
                         eval_episodes=-1, min_final=None)

    def test_failure_raises_with_curve_attached(self):
        config = PPOConfig(horizon=512)
        with pytest.raises(TrainingFailure) as exc:
            train_target(BLOCK, 1024, np.random.default_rng(0), config=config,
                         eval_episodes=4, stop_at=2.0)
        assert exc.value.curve
        steps_used, updates, rate = exc.value.curve[-1]
        assert steps_used == 1024 and updates == 2 and rate < 0.5


# ---- seeded training results --------------------------------------------------------


def training_digest(net, norm, curve):
    """sha256 of final parameters, normalizer state and training curve."""
    h = hashlib.sha256(net.flat.tobytes())
    for key, arr in sorted(norm.state_arrays().items()):
        h.update(key.encode())
        h.update(arr.tobytes())
    h.update(repr(curve).encode())
    return h.hexdigest()


class TestSeededTrainingDigests:
    """Toy training runs whose results are pinned bit for bit: any change to
    the rollout, update or evaluation order, or to the curve rows, shows."""

    @pytest.mark.parametrize("kind, expected", [
        (FLAT, "2617caeff6e77bf47b4d7fa8b696d37a"
               "808998d767c847a309dcd2a1a4fcdd6a"),
        (HURDLE, "3052164c2c173fa0570b9c58b8fd037d"
                 "41ccb682e2a350abdd5a67f1841cb0cb"),
    ])
    def test_train_target(self, kind, expected):
        net, norm, curve = train_target(
            kind, 1024, np.random.default_rng(5),
            config=PPOConfig(horizon=256, epochs=1), eval_every=2,
            eval_episodes=3, stop_at=2.0, min_final=None)
        assert [row[:2] for row in curve] == [(512, 2), (1024, 4)]
        assert training_digest(net, norm, curve) == expected

    def test_two_worker_train_setup_evaluating_every_update(self):
        module = hurdle_module()
        module.setup_norm = saturated_identity_norm()
        curve = train_setup(module, scripted_net(0.5, 0.0), identity_norm(),
                            TerrainEnv(single_artifact_course(HURDLE)),
                            PPOConfig(horizon=8, minibatch=8, epochs=1), 3000,
                            np.random.default_rng(3), eval_every=1,
                            eval_episodes=4, n_workers=2)
        assert [updates for _, updates, _ in curve] == [1, 2, 3, 4, 5, 6]
        assert training_digest(module.setup_net, module.setup_norm, curve) \
            == ("c6de33b66be5254ccf0d14c44108e9d9"
                "f2617a28af2a65b369178186513a8228")
