"""Tests for the policy-switching layer: shaped rewards, the switch state
machine, bridged episodes, and setup-policy training mechanics.

The scripted-bridge tests steer hand-crafted constant-action networks through
a hurdle course and check the resulting switch-event trace against a small
independent reimplementation of the runner dynamics kept inside this file.
"""

import collections
import copy
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitbridge import composer as cp
from gaitbridge import terrainsim as ts
from gaitbridge.baselines import SETUP_REWARDS, train_proximity_arm
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
    train_setup,
    train_target,
    tau_theta_reached,
    POLICY_DEFAULT,
    POLICY_SETUP,
    POLICY_TARGET,
)
from gaitbridge.diffcore.net import ParameterizedNet, sigmoid
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
    MAX_STEPS,
    OBS_DIM,
    OBS_PROPRIO,
    RunnerState,
    TerrainEnv,
    flat_course,
    make_artifact,
    make_course,
    multi_terrain_course,
    observe,
    single_artifact_course,
)

from helpers import (
    act_logprob,
    evaluate_bridged,
    exact_hurdle_module,
    flat_value_module,
    forward,
    hurdle_module,
    identity_norm,
    kernel_note,
    scripted_net,
    td_advantage,
    trainer_buffer,
    UncachedTarget,
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
        r = awtv_step_reward(cp.CarriedTarget(module), obs, obs, 0.03, False,
                             None)
        assert r == pytest.approx(0.03, abs=1e-10)

    def test_terminal_transition_saturates(self):
        # Ending the episode forfeits the bootstrap: advantage -2.97, the
        # squared-surprise clip saturates, and the shaped reward hits zero.
        module = flat_value_module(3.0)
        obs = np.zeros(OBS_DIM)
        assert awtv_step_reward(cp.CarriedTarget(module), obs, obs, 0.03,
                                True, None) == 0.0


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
        buf = trainer_buffer(trainer)
        rng = np.random.default_rng(40)
        folds = 0
        for _ in range(5):
            drv = EpisodeDriver(env, default_net, d_norm, {HURDLE: module},
                                rng, trainer=trainer, buffer=buf)
            while not drv.done:
                folding = drv.folding
                before = buf.rewards.copy()
                drv.tick()
                if folding:
                    folds += 1
                    assert buf.rewards[:-1].tobytes() == before[:-1].tobytes()
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
        # the driver's switch latches the artifact at detection, keeps it
        # through the setup and target phases, and clears it on the release
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

    def test_transitions_latch_keep_and_clear_the_artifact(self):
        art, other = _artifact(), make_artifact(GAP, 6.0)
        for first in (POLICY_SETUP, POLICY_TARGET):
            sw = SwitchState()
            sw.transition(first, _runner(x=2.3, steps=3), art)
            assert sw.artifact is art
            if first == POLICY_SETUP:
                # setup -> target keeps the latched artifact
                sw.transition(POLICY_TARGET, _runner(x=2.5, steps=9), other)
                assert sw.artifact is art
            sw.transition(POLICY_DEFAULT, _runner(x=3.9, steps=60), other)
            assert sw.artifact is None

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
        *_, drv = _scripted_drivers(walker=walker)
        assert _events(drv) == _expected_events()

    def test_setup_flag_ignored_while_target(self):
        # the target acts on its mean: a handoff head saturated to fire
        # changes nothing once it has taken over
        target = scripted_net(0.0, -1.0)
        target.params["switch.b"][0] = 50.0
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
        assert tau_theta_reached(_runner(x=past, contact=True), art.end)
        assert not tau_theta_reached(_runner(x=past, contact=False), art.end)
        assert not tau_theta_reached(_runner(x=art.end, contact=True), art.end)
        assert not tau_theta_reached(_runner(x=art.start, contact=True),
                                     art.end)
        # a batch gives the same answers as a lane mask
        runners = [_runner(x=x, contact=contact) for x, contact in
                   ((past, True), (past, False), (art.end, True),
                    (art.start, True))]
        batch = ts.RunnerBatch([single_artifact_course(HURDLE)] * 4, runners)
        assert tau_theta_reached(batch, np.full(4, art.end)).tolist() == [
            True, False, False, False]


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
        got = [(e.src, e.dst, e.step) for e in out.switch.events]
        assert got == [(s, d, n) for s, d, n, _, _, _ in expected_events]
        for e, (_, _, _, x, c, v) in zip(out.switch.events, expected_events):
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
            runs.append((out.state.steps, out.state.x,
                         [(e.src, e.dst, e.step, e.x) for e in out.switch.events]))
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
        buf = trainer_buffer(trainer)
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
        buf = trainer_buffer(trainer)
        rng = np.random.default_rng(40)
        for _ in range(10):
            EpisodeDriver(env, default_net, d_norm, {HURDLE: module}, rng,
                          trainer=trainer, buffer=buf).run()
        assert buf.switch_bits.sum() > 0
        assert buf.dones[buf.switch_bits == 1].all()

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
            buf = trainer_buffer(trainer)
            out = EpisodeDriver(env, default_net, d_norm, {HURDLE: module},
                                rng, trainer=trainer, buffer=buf).run()
            if len(out.switch.events) >= 2:
                break
        assert len(out.switch.events) >= 2
        detect, handoff = out.switch.events[0], out.switch.events[1]
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

    def test_the_kept_transition_keeps_its_pre_update_logprob(self, monkeypatch):
        """Each update fills its rows' log-probabilities under the net that
        acted; the kept transition carries its own into the next update,
        while log_std moves at every update."""
        env, default_net, d_norm, module = fast_training_world()
        config = PPOConfig(horizon=16, minibatch=16, epochs=2)
        records = []
        original = Trainer.update

        def spy(self, drivers):
            buf = drivers[0].buffer
            acted = self.net.copy()
            carried = buf.logprobs.tolist()
            original(self, drivers)
            row = (buf.actions[0], buf.means[0], buf.switch_logits[0],
                   buf.switch_bits[0])
            records.append((carried, buf.logprobs.tolist(),
                            act_logprob(acted, *row), act_logprob(self.net, *row)))

        monkeypatch.setattr(cp.Trainer, "update", spy)
        train_setup(module, default_net, d_norm, env, config, 3000,
                    np.random.default_rng(2), eval_every=0, eval_episodes=1)
        assert len(records) >= 2
        assert records[0][0] == []
        for (_, kept, before, after), (carried, _, _, _) in zip(records, records[1:]):
            assert kept == [before] != [after]
            assert carried == kept

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

    @pytest.mark.parametrize("drift", ["weight", "statistics"])
    def test_a_walker_changed_during_training_raises(self, drift):
        # the trainer's opening reuses the walker's actions, so training
        # rests on a walker that stays as it was
        env, default_net, d_norm, module = fast_training_world()
        ended = []

        def on_episode_end(driver):
            ended.append(driver)
            if drift == "weight":
                mu_b = default_net.params["mu.b"]
                mu_b[0] = np.float32(mu_b[0]) + np.float32(0.01)
            else:
                d_norm.merge(driver.observation()[None])

        with pytest.raises(RuntimeError, match="walker policy drifted"):
            train_setup(module, default_net, d_norm, env,
                        PPOConfig(horizon=16, minibatch=16, epochs=1), 2000,
                        np.random.default_rng(2), eval_every=0,
                        eval_episodes=0, on_episode_end=on_episode_end)
        assert ended

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


def uncached(monkeypatch):
    """Make drivers observe afresh, and make every view of the target that
    reads it from now on, a driver's carry and the fill's rows, an
    `UncachedTarget`; returns those views."""
    def observation(self):
        self._ahead = ts.next_artifact(self.env.course, self.state.x)
        return observe(self.env.course, self.state, self._ahead)

    views = []

    def view(module):
        views.append(UncachedTarget(module))
        return views[-1]

    monkeypatch.setattr(cp, "CarriedTarget", view)
    monkeypatch.setattr(cp, "RowTarget", view)
    monkeypatch.setattr(cp.EpisodeDriver, "observation", observation)
    return views


def head_spy(net):
    """Record each trunk output `net` computes and each head read off one,
    as (name, trunk output). The outputs are kept, so their ids stay
    distinct."""
    trunks, reads = [], []
    trunk, head, scalar_head = net.trunk, net.head, net.scalar_head

    def spy_trunk(obs):
        trunks.append(trunk(obs))
        return trunks[-1]

    def spy_head(name, h):
        reads.append((name, h))
        return head(name, h)

    def spy_scalar_head(name, h):
        reads.append((name, h))
        return scalar_head(name, h)

    net.trunk, net.head, net.scalar_head = spy_trunk, spy_head, spy_scalar_head
    return trunks, reads


def read_ids(reads):
    return [(name, id(h)) for name, h in reads]


def valued(net, seed):
    """Give a scripted net an observation-dependent value head; its action
    (mu.w is zero) stays the constant mu bias."""
    rng = np.random.default_rng(seed)
    for name in ("fc0.w", "fc0.b", "value.w", "value.b"):
        net.params[name][...] = rng.normal(size=net.params[name].shape
                                           ).astype(np.float32)
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
    return (s.x, s.v, s.c, s.steps, s.success, s.failure,
            [(e.step, e.src, e.dst, e.x, e.c, e.v) for e in out.switch.events])


class TestTargetCarry:
    def test_two_worker_training_matches_uncached_reference(self,
                                                            monkeypatch):
        def run():
            env, default_net, d_norm, module = fast_training_world()
            rewards = []
            original = Trainer.update

            def spy(trainer, drivers):
                rewards.append([d.buffer.rewards.tolist() for d in drivers])
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
        views = uncached(monkeypatch)
        reference = run()
        # the reference read single observations on tick() and rows in the
        # fill
        calls = sum(view.calls for view in views)
        assert 0 < calls < sum(view.rows for view in views)
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
            buf = trainer_buffer(trainer)
            rng = np.random.default_rng(7)
            trained = [EpisodeDriver(env, walker, identity_norm(), modules,
                                     rng, trainer=trainer, buffer=buf).run()
                       for _ in range(8)]
            return ([outcome_record(o) for o in evaluated + trained],
                    buf.rewards.tolist())

        carried = run()
        target_handoffs = [sum(e[2] == POLICY_TARGET for e in rec[-1])
                           for rec in carried[0]]
        assert max(target_handoffs) == 2  # both specialists took over
        views = uncached(monkeypatch)
        assert carried == run()
        assert sum(view.calls for view in views) > 0

    @pytest.mark.parametrize("tag", list(SETUP_REWARDS))
    def test_one_observation_slot_serves_every_reward(self, monkeypatch, tag):
        # a tick reads the target at s before s', and its s is the last
        # tick's s', so the carry's one slot runs one trunk pass per
        # observation it is asked about, whichever reward reads it. The
        # carries and arrays asked about are kept, so their ids stay
        # distinct.
        env, default_net, d_norm, module = fast_training_world()
        slot, trunk = cp.CarriedTarget._slot, cp.policy_trunk
        asked, passes, in_slot = [], [0], [False]

        def spy_slot(carry, obs_raw):
            asked.append((carry, obs_raw))
            in_slot[0] = True
            try:
                return slot(carry, obs_raw)
            finally:
                in_slot[0] = False

        def spy_trunk(*args):
            passes[0] += in_slot[0]
            return trunk(*args)

        monkeypatch.setattr(cp.CarriedTarget, "_slot", spy_slot)
        monkeypatch.setattr(cp, "policy_trunk", spy_trunk)
        # with an on_episode_end every tail stays on tick()
        train_setup(module, default_net, d_norm, env,
                    PPOConfig(horizon=16, minibatch=16, epochs=1), 3000,
                    np.random.default_rng(5), reward_fn=SETUP_REWARDS[tag],
                    eval_every=0, eval_episodes=0, n_workers=2,
                    on_episode_end=lambda driver: None)
        distinct = {(id(carry), id(obs)) for carry, obs in asked}
        assert passes[0] == len(distinct) > 100

    def test_target_runs_at_most_once_per_reward_plus_one(self):
        env, default_net, d_norm, module = fast_training_world()
        net = module.target_net
        trunks, reads = head_spy(net)
        forwards = [0]

        def counting(fn):
            def wrapped(obs):
                forwards[0] += 1
                return fn(obs)
            return wrapped

        # a target evaluation is one trunk pass
        net.trunk = counting(net.trunk)
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
        # each head is computed at most once on each trunk output
        ids = read_ids(reads)
        assert {name for name, _ in ids} == {"mu", "value"}
        assert len(set(ids)) == len(ids)

    def test_one_trunk_per_observation_and_each_head_at_most_once(self):
        _, _, _, module = fast_training_world()
        rng = np.random.default_rng(4)
        observations = [rng.normal(size=OBS_DIM) for _ in range(3)]
        reference = UncachedTarget(module)
        want = [(reference.target_value(o), reference.target_action(o))
                for o in observations]
        trunks, reads = head_spy(module.target_net)
        carry = cp.CarriedTarget(module)
        # the first read of each kind computes its head, later ones reuse it
        got = []
        for obs, order in zip(observations, ("vva", "aav", "v")):
            for kind in order:
                if kind == "v":
                    got.append(carry.target_value(obs).hex())
                else:
                    got.append(carry.target_action(obs).tolist())
        (v0, a0), (v1, a1), (v2, _) = want
        assert got == [v0.hex(), v0.hex(), a0.tolist(), a1.tolist(),
                       a1.tolist(), v1.hex(), v2.hex()]
        assert len(trunks) == 3
        assert read_ids(reads) == [
            ("value", id(trunks[0])), ("mu", id(trunks[0])),
            ("mu", id(trunks[1])), ("value", id(trunks[1])),
            ("value", id(trunks[2]))]


# ---- the frozen walker's opening in setup training -------------------------------


class CountingOpening(list):
    """A trainer's opening record that counts its appends and refuses to
    have an entry overwritten."""

    def __init__(self):
        super().__init__()
        self.writes = 0

    def append(self, entry):
        self.writes += 1
        super().append(entry)

    def __setitem__(self, i, entry):
        raise AssertionError("an opening entry was overwritten")


def install_opening(monkeypatch, make):
    """Give every new trainer `make()` as its opening (None: no replay);
    returns the list of trainers made."""
    init = Trainer.__init__
    trainers = []

    def patched(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.opening = make()
        trainers.append(self)

    monkeypatch.setattr(cp.Trainer, "__init__", patched)
    return trainers


def bench_policy(name):
    """(net, normalizer) of the bench fixture `name`."""
    path = Path(__file__).resolve().parent.parent / "bench" / "fixtures"
    with np.load(path / f"{name}.npz", allow_pickle=False) as data:
        params, state = ({key[len(prefix):]: data[key] for key in data.files
                          if key.startswith(prefix)}
                         for prefix in ("param.", "norm."))
    return (ParameterizedNet.from_params(params),
            RunningNormalizer.from_state_arrays(state))


def lifted_walker_world():
    """An observation-dependent terrain-blind walker and a hurdle module
    whose setup policy is the walker, lifted."""
    walker = ParameterizedNet(OBS_PROPRIO, 2, (8,), np.random.default_rng(13))
    walker.params["mu.w"][...] = (walker.params["mu.w"].astype(np.float32)
                                  * np.float32(0.1))
    walker.params["mu.b"][...] = (0.5, 0.0)
    walker_norm = identity_norm(OBS_PROPRIO)
    module = BehaviorModule.from_default(HURDLE, scripted_net(0.0, -1.0),
                                         identity_norm(), walker, walker_norm)
    return (TerrainEnv(single_artifact_course(HURDLE)), walker, walker_norm,
            module)


def gap_then_hurdle_world():
    """`fast_training_world` on a course whose first artifact is a narrow gap
    that no module handles: the full-width walker walks over it, or falls
    in, and sees the distance to it once it is within 2.0 m."""
    _, walker, walker_norm, module = fast_training_world()
    gap = make_artifact(GAP, 3.2, length=0.005)
    course = make_course([gap, make_artifact(HURDLE, gap.end + 2.0)])
    return TerrainEnv(course), walker, walker_norm, module


def standing_world():
    """A full-width walker that never moves: every episode times out."""
    walker, walker_norm = scripted_net(0.0, 0.0), identity_norm()
    module = BehaviorModule.from_default(HURDLE, scripted_net(0.0, -1.0),
                                         identity_norm(), walker, walker_norm)
    return (TerrainEnv(single_artifact_course(HURDLE)), walker, walker_norm,
            module)


def runner_bytes(state):
    """A runner's fields, the floats as their bytes."""
    return (*(np.float64(getattr(state, name)).tobytes()
              for name in ("x", "v", "w", "h", "c")),
            state.contact, state.steps, state.done, state.success,
            state.failure)


def counted_steps(env):
    """Count `env.step` calls in the returned one-item list."""
    calls, step = [0], env.step

    def counted(state, action):
        calls[0] += 1
        return step(state, action)

    env.step = counted
    return calls


def lockstep(world, spawns):
    """One training episode per spawn x on two copies of `world`, one whose
    trainer replays the walker's opening, one tick per `replay_opening`
    call, and one ticking every step live. Asserts before every tick that
    both observe the same, after it that both runners are equal as bytes,
    and at the end that the switches and the buffers are. Returns the
    record, the episodes' final states and, per tick, (distance from the
    runner to the first artifact before the tick, whether the tick
    replayed)."""
    copies = [world(), world()]
    trainers = [setup_trainer(module, PPOConfig(horizon=100_000))
                for *_, module in copies]
    trainers[0].opening = record = CountingOpening()
    trainers[1].opening = None
    buffers = [trainer_buffer(trainer) for trainer in trainers]
    env = copies[0][0]
    steps = counted_steps(env)
    start = env.course.artifacts[0].start
    ticks, ends = [], []
    for i, x0 in enumerate(spawns):
        replay, live = drivers = [
            EpisodeDriver(env_, walker, norm, {HURDLE: module},
                          np.random.default_rng(i), trainer=trainer,
                          buffer=buf)
            for (env_, walker, norm, module), trainer, buf
            in zip(copies, trainers, buffers)]
        for drv in drivers:
            drv.state.x = float(x0)
        while not live.done:
            # a PPO update observes every worker's state, mid-opening too
            assert replay.observation().tobytes() == (
                live.observation().tobytes())
            distance, before = start - replay.state.x, steps[0]
            if not replay.replay_opening(1):
                replay.tick()
            live.tick()
            ticks.append((distance, steps[0] == before))
            assert runner_bytes(replay.state) == runner_bytes(live.state)
        assert replay.switch.events == live.switch.events
        ends.append(live.state)
    got, want = buffers
    assert len(got) == len(want)
    assert got.rewards.tobytes() == want.rewards.tobytes()
    assert got.actions.tobytes() == want.actions.tobytes()
    assert record.writes == len(record) <= MAX_STEPS
    return record, ends, ticks


def opening_run(drv):
    """Run a training driver to its end as `_train` runs a lone worker, each
    live tick after a replay of what it can of the opening; returns the
    ticks replayed."""
    replayed = 0
    while not drv.done:
        replayed += drv.replay_opening(math.inf)
        drv.tick()
    return replayed


def training_record(monkeypatch, world, budget, seed, n_workers=2,
                    **kwargs):
    """Train `world`'s setup policy; returns the buffer rewards at each
    update, the setup parameters, the setup normalizer state, the curve and
    whether the budget ended inside a replay of a worker's opening."""
    env, walker, walker_norm, module = world()
    rewards, last = [], [(0, 1)]  # of the last replay: (replayed, room)
    update, replay = Trainer.update, EpisodeDriver.replay_opening

    def spy(trainer, drivers):
        rewards.append([d.buffer.rewards.tolist() for d in drivers])
        update(trainer, drivers)

    def spy_replay(driver, room, *openings):
        replayed = replay(driver, room, *openings)
        if driver.trainer is not None:  # a worker's, not an evaluation's
            last[0] = replayed, room
        return replayed

    with monkeypatch.context() as m:
        m.setattr(cp.Trainer, "update", spy)
        m.setattr(cp.EpisodeDriver, "replay_opening", spy_replay)
        curve = train_setup(module, walker, walker_norm, env,
                            PPOConfig(horizon=16, minibatch=8, epochs=2),
                            budget, np.random.default_rng(seed),
                            n_workers=n_workers, **kwargs)
    replayed, room = last[0]
    cut = replayed == room
    return (rewards, module.setup_net.flat.copy(),
            module.setup_norm.state_arrays(), curve, cut)


def assert_same_training(got, want):
    assert len(got[0]) >= 2  # at least two updates
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1])
    assert got[2].keys() == want[2].keys()
    for key, arr in want[2].items():
        assert np.array_equal(got[2][key], arr)
    assert got[3] == want[3]


class TestWalkerOpening:
    """Setup training replays the frozen walker's opening from the
    trainer's record instead of stepping the runner."""

    @pytest.mark.parametrize("world, reach", [(lifted_walker_world, 1.0),
                                              (gap_then_hurdle_world, 2.0)])
    def test_replayed_states_equal_live_ticking(self, world, reach):
        # spawns across the whole spawn region, in an order that makes the
        # record grow over several episodes
        spawns = np.random.default_rng(4).permutation(
            np.linspace(0.0, ts.SPAWN_MAX_X, 12))
        record, _, ticks = lockstep(world, spawns)
        opening = [replay for distance, replay in ticks if distance > reach]
        assert not any(replay for distance, replay in ticks
                       if distance <= reach)
        # every opening tick replays, but those that stepped further than
        # any episode before: each of those records its step
        assert 0 < len(record) == opening.count(False) < opening.count(True)

    def test_a_full_width_walker_replays_only_beyond_the_clip(self):
        # it reads the distance to the first artifact, which `observe` clips
        # at 2.0 m; a terrain-blind walker replays up to the detection range
        spawns = np.linspace(0.0, 1.0, 6)
        _, _, full = lockstep(gap_then_hurdle_world, spawns)
        _, _, blind = lockstep(lifted_walker_world, spawns)
        assert not any(replay for distance, replay in full if distance <= 2.0)
        assert any(not replay for distance, replay in full
                   if 1.0 < distance <= 2.0)
        assert any(replay for distance, replay in blind
                   if 1.0 < distance <= 2.0)

    def test_a_walker_that_stands_still_times_out_at_the_same_step(self):
        record, ends, ticks = lockstep(standing_world, [0.5, 1.0, 0.0])
        assert [(s.failure, s.steps) for s in ends] == (
            [(ts.FAIL_TIMEOUT, MAX_STEPS + 1)] * 3)
        # the step that timed out is never recorded: the later episodes
        # replay every step but that one
        assert len(record) == MAX_STEPS
        assert sum(replay for _, replay in ticks) == 2 * MAX_STEPS

    @pytest.mark.parametrize("init_fn", [
        lambda env, rng: env.reset(rng),  # the standard spawn, given
        cp.artifact_approach_init(single_artifact_course(HURDLE).artifacts[0]),
    ])
    def test_an_init_fn_spawn_never_replays(self, init_fn):
        env, walker, walker_norm, module = lifted_walker_world()
        trainer = setup_trainer(module, PPOConfig(horizon=100_000))
        buf = trainer_buffer(trainer)
        rng = np.random.default_rng(6)
        replayed = [opening_run(EpisodeDriver(
            env, walker, walker_norm, {HURDLE: module}, rng, trainer=trainer,
            buffer=buf)) for _ in range(3)]
        assert len(trainer.opening) > 0 and sum(replayed) > 0
        steps = counted_steps(env)
        for _ in range(3):
            drv = EpisodeDriver(env, walker, walker_norm, {HURDLE: module},
                                rng, trainer=trainer, buffer=buf,
                                init_fn=init_fn)
            assert opening_run(drv) == 0
            assert steps[0] == drv.state.steps
            steps[0] = 0

    @pytest.mark.parametrize("n_workers, budget, cut", [
        (1, 3037, False), (2, 2940, False), (1, 2002, True), (2, 2700, True)])
    def test_training_equals_training_without_the_replay(
            self, monkeypatch, n_workers, budget, cut):
        with monkeypatch.context() as m:
            trainers = install_opening(m, CountingOpening)
            got = training_record(monkeypatch, lifted_walker_world, budget, 8,
                                  n_workers, eval_every=2, eval_episodes=3)
        # a budget that ends while an episode replays its opening stops
        # it as it would stop a live one
        assert got[4] == cut
        assert trainers[0].opening.writes == len(trainers[0].opening) > 0
        install_opening(monkeypatch, lambda: None)
        assert_same_training(got, training_record(
            monkeypatch, lifted_walker_world, budget, 8, n_workers,
            eval_every=2, eval_episodes=3))

    def test_batched_tails_fold_as_without_the_replay(self, monkeypatch):
        # the bench's walker and hurdle specialist: their batched passes
        # round a lane's last bits by its place in the batch. A worker that
        # replays its opening in one call parks its tails ahead of the
        # other's, so a flush runs them in the order of the workers ticking
        # in turn.
        def train(opening):
            walker, walker_norm = bench_policy("flat")
            module = BehaviorModule.from_default(
                HURDLE, *bench_policy("hurdle_target"), walker, walker_norm)
            sizes, run_batch = [], cp._run_batch

            def spy_run_batch(lanes, *limit):
                sizes.append(len(lanes))
                return run_batch(lanes, *limit)

            with monkeypatch.context() as m:
                install_opening(m, opening)
                rewards = hashed_rewards(m)
                m.setattr(cp, "_run_batch", spy_run_batch)
                curve = train_setup(
                    module, walker, walker_norm,
                    TerrainEnv(single_artifact_course(HURDLE)),
                    PPOConfig(horizon=1024), 60_000, np.random.default_rng(1),
                    eval_every=0, eval_episodes=0, n_workers=2)
            assert max(sizes) >= 2 * cp.LANE_CROSSOVER
            return curve, rewards.hexdigest(), training_digest(
                module.setup_net, module.setup_norm, curve)

        got = train(CountingOpening)
        assert got[0] == [(60_000, 1, None)]
        assert got == train(lambda: None)

    def test_a_full_width_walker_trains_as_without_the_replay(
            self, monkeypatch):
        got = training_record(monkeypatch, gap_then_hurdle_world, 6000, 3,
                              eval_every=0, eval_episodes=0)
        install_opening(monkeypatch, lambda: None)
        assert_same_training(got, training_record(
            monkeypatch, gap_then_hurdle_world, 6000, 3, eval_every=0,
            eval_episodes=0))

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_an_opening_replays_in_one_call_and_never_through_tick(
            self, monkeypatch, n_workers):
        # a lone worker's episodes after the first replay their whole opening
        # in one call; two workers may extend the record for each other, so
        # a second call may copy what the other worker recorded since
        env, walker, walker_norm, module = lifted_walker_world()
        copies, ticks, replayed = {}, [0], [0]
        replay, tick = EpisodeDriver.replay_opening, EpisodeDriver.tick

        def spy_replay(drv, room):
            n = replay(drv, room)
            copies[drv] = copies.get(drv, 0) + (n > 0)
            replayed[0] += n
            return n

        def spy_tick(drv):
            if drv.trainer is not None:
                ticks[0] += 1
                # nothing left to replay: a twin's replay copies no entry
                twin = copy.copy(drv)
                twin.state = copy.copy(drv.state)
                assert replay(twin, 1) == 0
            return tick(drv)

        monkeypatch.setattr(EpisodeDriver, "replay_opening", spy_replay)
        monkeypatch.setattr(EpisodeDriver, "tick", spy_tick)
        train_setup(module, walker, walker_norm, env,
                    PPOConfig(horizon=16, minibatch=8, epochs=2), 3000,
                    np.random.default_rng(8), n_workers=n_workers,
                    eval_every=0, eval_episodes=0, on_episode_end=lambda d: 0)
        # every training tick is a live tick or a replayed one
        assert ticks[0] + replayed[0] == 3000 and replayed[0] > 0
        # each worker's first episode records the opening live
        counts = list(copies.values())
        assert len(counts) > 5 and counts.count(0) <= n_workers
        assert max(counts) == 1 if n_workers == 1 else max(counts) <= 2


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
        buf = trainer_buffer(trainer)
        rng = np.random.default_rng(7)
        for _ in range(8):
            EpisodeDriver(env, walker, identity_norm(), modules, rng,
                          trainer=trainer, buffer=buf).run()
        assert any(net is gap.setup_net for net in acted)
        assert len(buf) == sum(net is hurdle.setup_net for net in acted)
        for key, arr in gap.setup_norm.state_arrays().items():
            assert np.array_equal(arr, gap_norm[key])

    def test_an_evaluation_setup_tick_reads_only_its_mean_and_switch(self):
        module = hurdle_module()
        trunks, reads = head_spy(module.setup_net)
        EpisodeDriver(TerrainEnv(single_artifact_course(HURDLE)),
                      scripted_net(0.5, 0.0), identity_norm(),
                      {HURDLE: module}, np.random.default_rng(5)).run()
        assert trunks
        assert read_ids(reads) == [(name, id(h)) for h in trunks
                                   for name in ("mu", "switch")]


class TestCourseScan:
    @pytest.mark.parametrize("training", [False, True])
    def test_each_state_scans_the_course_once(self, monkeypatch, training):
        """A walking tick's detection and observation share one
        `next_artifact` scan, and no state is scanned twice."""
        scanned = []  # the step of the state each scan looked at
        scan = ts.next_artifact
        drv = None

        def spy(course, x):
            scanned.append(drv.state.steps)
            return scan(course, x)

        monkeypatch.setattr(ts, "next_artifact", spy)
        monkeypatch.setattr(cp, "next_artifact", spy, raising=False)
        env, walker, modules = two_kind_world()
        trainer = buf = None
        if training:
            trainer = setup_trainer(modules[HURDLE], PPOConfig(horizon=100_000))
            buf = trainer_buffer(trainer)
        rng = np.random.default_rng(7)
        walking = detections = folds = 0
        for _ in range(6):
            drv = EpisodeDriver(env, walker, identity_norm(), modules, rng,
                                trainer=trainer, buffer=buf)
            scanned.clear()
            while not drv.done:
                step, active = drv.state.steps, drv.switch.active
                drv.tick()
                if active == POLICY_DEFAULT:
                    walking += 1
                    folds += drv.folding
                    assert scanned.count(step) == 1
            assert len(scanned) == len(set(scanned))
            detections += sum(e.src == POLICY_DEFAULT for e in drv.switch.events)
        assert detections >= 6 and walking > 100
        # in training, walking ticks after a handoff fold rewards, which
        # observe the next state within the tick
        assert (folds > 0) == training


# ---- episode driver validation ---------------------------------------------------


class TestTerrainBlindWalker:
    def test_lift_keeps_the_walker_statistics_and_passes_terrain_through(self):
        rng = np.random.default_rng(17)
        walker = ParameterizedNet(OBS_PROPRIO, 2, (8,), rng)
        norm = RunningNormalizer(OBS_PROPRIO)
        norm.merge(rng.normal(0.5, 2.0, size=(4096, OBS_PROPRIO)))
        _, lifted = cp.lift_to_terrain_obs(walker, norm)
        assert lifted.count == norm.count == 4096
        # a hurdle 0.8 ahead and 0.2 high, then random rows
        rows = np.concatenate([
            rng.normal(size=(7, OBS_PROPRIO)),
            np.vstack([[0.8, 0.2, 0.0, 0.0, 1.0],
                       rng.uniform(0.0, 1.0, size=(6, OBS_DIM - OBS_PROPRIO))])],
            axis=1)
        for got in (lifted.normalize(rows),
                    np.array([lifted.normalize(row) for row in rows])):
            assert np.array_equal(got[:, :OBS_PROPRIO],
                                  norm.normalize(rows[:, :OBS_PROPRIO]))
            assert np.array_equal(got[:, OBS_PROPRIO:], rows[:, OBS_PROPRIO:])

    def test_proprioceptive_walker_ignores_upcoming_artifacts(self):
        """A body-only walker takes bit-identical steps on flat and block
        ground right up to the moment the bridged machine takes it off duty."""
        net = ParameterizedNet(OBS_PROPRIO, 2, (8,), np.random.default_rng(3))
        norm = identity_norm(OBS_PROPRIO)
        flat_env = TerrainEnv(flat_course(10.0))
        block_env = TerrainEnv(single_artifact_course(BLOCK))
        s_flat = flat_env.reset_from(0.4)
        s_block = block_env.reset_from(0.4)
        rng = np.random.default_rng(0)
        for _ in range(100):
            obs_f = cp.policy_obs(net, observe(
                flat_env.course, s_flat,
                ts.next_artifact(flat_env.course, s_flat.x)))
            obs_b = cp.policy_obs(net, observe(
                block_env.course, s_block,
                ts.next_artifact(block_env.course, s_block.x)))
            assert np.array_equal(obs_f, obs_b)
            action = forward(net, norm.normalize(obs_f))[0]
            flat_env.step(s_flat, action)
            block_env.step(s_block, action)
            assert s_flat.x == s_block.x and s_flat.v == s_block.v
            if s_block.x >= 2.2:  # detection range of the block
                break

    def test_a_frozen_walker_acts_on_its_mean_and_draws_nothing(self):
        net = ParameterizedNet(OBS_PROPRIO, 2, (8,), np.random.default_rng(3))
        net.params["mu.b"][0] = np.float32(net.params["mu.b"][0]) + np.float32(0.5)
        norm = identity_norm(OBS_PROPRIO)
        env = TerrainEnv(flat_course(10.0))
        rng = np.random.default_rng(0)
        drv = EpisodeDriver(env, net, norm, {}, rng,
                            init_fn=lambda env, rng: env.reset_from(0.4))
        ref = env.reset_from(0.4)
        before = rng.bit_generator.state
        for _ in range(50):
            mean = forward(net, norm.normalize(
                cp.policy_obs(net, observe(
                    env.course, ref, ts.next_artifact(env.course, ref.x)))))[0]
            env.step(ref, mean)
            drv.tick()
            assert (drv.state.x, drv.state.v, drv.state.c) == (ref.x, ref.v, ref.c)
        assert ref.x > 0.5
        assert rng.bit_generator.state == before

    def test_a_mean_acting_walker_reads_only_its_mean_head(self):
        net = ParameterizedNet(OBS_PROPRIO, 2, (8,), np.random.default_rng(3))
        trunks, reads = head_spy(net)
        drv = EpisodeDriver(TerrainEnv(flat_course(10.0)), net,
                            identity_norm(OBS_PROPRIO), {},
                            np.random.default_rng(0),
                            init_fn=lambda env, rng: env.reset_from(0.4))
        for _ in range(20):
            drv.tick()
        assert len(trunks) == 20
        assert read_ids(reads) == [("mu", id(h)) for h in trunks]

    def test_full_width_policy_observation_passes_through(self):
        net = scripted_net(0.5, 0.0)
        obs = np.arange(OBS_DIM, dtype=float)
        assert cp.policy_obs(net, obs) is obs
        batch = np.arange(3 * OBS_DIM, dtype=float).reshape(3, OBS_DIM)
        assert cp.policy_obs(net, batch) is batch

    def test_batch_is_trimmed_row_by_row(self):
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
                          trainer=trainer, buffer=trainer_buffer(trainer),
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
                          buffer=trainer_buffer(trainer))

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
                              buffer=trainer_buffer(trainer))


class TestEvaluateBridged:
    def test_without_setup_never_activates_setup(self):
        env = TerrainEnv(single_artifact_course(HURDLE))
        module = hurdle_module()
        outcomes = cp.run_lanes(cp.episode_drivers(
            env, scripted_net(0.5, 0.0), identity_norm(), {HURDLE: module}, 5,
            np.random.default_rng(4), without_setup=True))
        assert len(outcomes) == 5
        for out in outcomes:
            assert all(e.dst != POLICY_SETUP for e in out.switch.events)
            assert out.switch.events and out.switch.events[0].dst == POLICY_TARGET

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
                                 len(o.switch.events)) for o in outcomes]))
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
                                 len(o.switch.events)) for o in outcomes]))
        assert runs[0] == runs[1]


# ---- evaluation lanes against the one-episode reference --------------------------


def lane_course(first=HURDLE):
    """`first`, then the other of hurdle and gap."""
    art = make_artifact(first, 3.2)
    return make_course([art, make_artifact(GAP if first == HURDLE else HURDLE,
                                           art.end + 2.0)])


def lane_world(first=HURDLE):
    """`lane_course(first)` with two_kind_world's policies. A small dense
    perturbation makes a batched forward round unlike a one-row forward, and
    the setup policies sample their actions and handoffs."""
    _, walker, modules = two_kind_world()
    rng = np.random.default_rng(21)
    for net in [walker] + [m.setup_net for m in modules.values()]:
        for name in ("fc0.b", "mu.w"):
            arr = net.params[name]
            arr[...] = (arr + 0.05 * rng.standard_normal(arr.shape)
                        ).astype(np.float32)
    for module in modules.values():
        module.setup_norm = identity_norm()
    return TerrainEnv(lane_course(first)), walker, modules


def fixture_lane_world(first=HURDLE):
    """`lane_course(first)` with the bench's frozen walker and gap and hurdle
    modules. The walker reads its observation, so a batched forward of its
    opening rounds unlike its one-row forward."""
    walker, walker_norm = bench_policy("flat")
    modules = {kind: BehaviorModule(kind, *bench_policy(f"{kind}_target"),
                                    *bench_policy(f"{kind}_setup"))
               for kind in (GAP, HURDLE)}
    return TerrainEnv(lane_course(first)), walker, walker_norm, modules


def mixed_arm_lanes(n):
    """n lanes of lane_world's policies, (driver, reference) pairs with equal
    generators: even lanes run the setup arm from the hurdle, odd lanes the
    no-setup arm from the gap (it stalls in front of the hurdle)."""
    env, walker, modules = lane_world()
    gap_first = TerrainEnv(lane_course(GAP))
    walker_norm = identity_norm()
    return [tuple(EpisodeDriver(gap_first if i % 2 else env, walker,
                                walker_norm, modules,
                                np.random.default_rng((6, i)),
                                without_setup=bool(i % 2))
                  for _ in range(2))
            for i in range(n)]


def assert_same_outcome(got, want):
    """Discrete results exactly, positions to batched-matmul rounding."""
    assert (got.state.success, got.state.failure, got.state.steps) == \
        (want.state.success, want.state.failure, want.state.steps)
    assert [(e.step, e.src, e.dst) for e in got.switch.events] == \
        [(e.step, e.src, e.dst) for e in want.switch.events]
    for e, f in zip(got.switch.events, want.switch.events):
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
        outcomes = cp.run_lanes(cp.episode_drivers(
            env, walker, identity_norm(), modules, 24,
            np.random.default_rng(5), without_setup=without_setup))
        children = np.random.default_rng(5).spawn(24)
        for out, child in zip(outcomes, children):
            ref = EpisodeDriver(env, walker, identity_norm(), modules, child,
                                without_setup=without_setup).run()
            assert_same_outcome(out, ref)
        handoffs = {e.dst for out in outcomes for e in out.switch.events}
        assert (POLICY_SETUP in handoffs) != without_setup
        assert POLICY_TARGET in handoffs
        # lanes finish at different ticks
        assert len({out.state.steps for out in outcomes}) > 1

    @pytest.mark.parametrize("fixtures", [False, True])
    @pytest.mark.parametrize("without_setup, first",
                             [(False, HURDLE), (True, GAP)])
    def test_a_lane_opens_as_its_run_bit_for_bit(self, fixtures,
                                                 without_setup, first):
        # the walker's opening replays one-row ticks, so each lane switches
        # first where its run() does, float for float
        if fixtures:
            env, walker, walker_norm, modules = fixture_lane_world(first)
        else:
            (env, walker, modules), walker_norm = lane_world(first), (
                identity_norm())
        outcomes = cp.run_lanes(cp.episode_drivers(
            env, walker, walker_norm, modules, 24, np.random.default_rng(5),
            without_setup=without_setup))
        children = np.random.default_rng(5).spawn(24)
        for out, child in zip(outcomes, children):
            ref = EpisodeDriver(env, walker, walker_norm, modules, child,
                                without_setup=without_setup).run()
            got, want = out.switch.events[0], ref.switch.events[0]
            assert (got.step, got.x, got.c, got.v) == (
                want.step, want.x, want.c, want.v)
        assert len({out.switch.events[0].step for out in outcomes}) > 1

    def test_a_full_width_walker_keeps_a_record_per_first_artifact(self):
        # it reads the first artifact's kind and height from any distance,
        # so its opening before a hurdle is not the one before a gap
        walker = ParameterizedNet(OBS_DIM, 2, (8,), np.random.default_rng(13))
        walker.params["mu.w"][...] = (walker.params["mu.w"].astype(np.float32)
                                      * np.float32(0.1))
        walker.params["mu.b"][...] = (0.5, 0.0)
        walker_norm, (_, _, modules) = identity_norm(), lane_world()
        envs = [TerrainEnv(lane_course(first)) for first in (HURDLE, GAP)]
        lanes = [tuple(EpisodeDriver(envs[i % 2], walker, walker_norm,
                                     modules, np.random.default_rng((7, i)))
                       for _ in range(2))
                 for i in range(24)]
        outcomes = cp.run_lanes([drv for drv, _ in lanes])
        for out, (_, ref) in zip(outcomes, lanes):
            assert_same_outcome(out, ref.run())
        assert {out.switch.events[0].dst for out in outcomes} == {
            POLICY_SETUP}

    def test_a_walker_that_stands_still_replays_no_timeout(
            self, monkeypatch):
        # spawned beyond its reach, 2.0 m, its opening lasts the whole
        # episode: the first lane records it live, but for the step that
        # times out, and every other lane copies the record, then times out
        # on a live tick of its own
        env, walker, walker_norm, module = standing_world()
        n = cp.LANE_CROSSOVER + 2
        drivers, refs = (cp.episode_drivers(
            env, walker, walker_norm, {HURDLE: module}, n,
            np.random.default_rng(2)) for _ in range(2))
        for drv, ref, x0 in zip(drivers, refs, np.linspace(0.0, 1.0, n)):
            drv.state.x = ref.state.x = float(x0)
        copied, replay = [], EpisodeDriver.replay_opening

        def spy_replay(drv, *args):
            copied.append((replay(drv, *args), drv.done))
            return copied[-1][0]

        monkeypatch.setattr(EpisodeDriver, "replay_opening", spy_replay)
        steps = counted_steps(env)
        cp.run_lanes(drivers)
        assert copied == [(0, True)] + [(MAX_STEPS, True)] * (n - 1)
        assert steps[0] == MAX_STEPS + n
        for got, ref in zip(drivers, refs):
            assert got.state.failure == ts.FAIL_TIMEOUT
            assert outcome_record(got) == outcome_record(ref.run())

    def test_approach_spawns_and_training_tails_replay_nothing(
            self, monkeypatch):
        calls, replay = [], EpisodeDriver.replay_opening

        def spy_replay(drv, *args):
            calls.append((drv.trainer, replay(drv, *args), drv.state.steps))
            return calls[-1][1]

        monkeypatch.setattr(EpisodeDriver, "replay_opening", spy_replay)
        env, walker, modules = lane_world()
        near = cp.artifact_approach_init(env.course.artifacts[0])
        cp.run_lanes(cp.episode_drivers(env, walker, identity_norm(), modules,
                                        cp.LANE_CROSSOVER + 2,
                                        np.random.default_rng(3),
                                        init_fn=near))
        assert calls == [(None, 0, 0)] * (cp.LANE_CROSSOVER + 2)
        calls.clear()
        tails, _ = parked_tails(cp.LANE_CROSSOVER + 2)
        cp.run_lanes(tails)
        assert calls == [] and all(tail.done for tail in tails)

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
        assert max(len(out.switch.events)
                   for out in outcomes) >= (1 if without_setup else 4)

    def test_both_arms_run_in_one_call(self, monkeypatch):
        batch_sizes = []
        step = cp.RunnerBatch.step

        def counted_step(batch, actions):
            batch_sizes.append(len(batch))
            return step(batch, actions)

        monkeypatch.setattr(cp.RunnerBatch, "step", counted_step)
        lanes = mixed_arm_lanes(24)
        outcomes = cp.run_lanes([drv for drv, _ in lanes])
        # the arms share one batch, which hands its tail to run()
        assert max(batch_sizes) == 24
        assert min(batch_sizes) >= cp.LANE_CROSSOVER
        for out, (drv, ref) in zip(outcomes, lanes):
            assert_same_outcome(out, ref.run())
            roles = {e.dst for e in out.switch.events}
            assert (POLICY_SETUP in roles) != drv.without_setup
            assert POLICY_TARGET in roles
        assert len({out.state.steps for out in outcomes}) > 1

    def test_fewer_lanes_than_the_crossover_run_on_run(self, monkeypatch):
        def no_batch(*args):
            raise AssertionError("a batch below the crossover")

        monkeypatch.setattr(cp, "RunnerBatch", no_batch)
        lanes = mixed_arm_lanes(cp.LANE_CROSSOVER - 1)
        outcomes = cp.run_lanes([drv for drv, _ in lanes])
        for out, (_, ref) in zip(outcomes, lanes):
            assert outcome_record(out) == outcome_record(ref.run())

    def test_no_lanes_give_no_outcomes(self):
        assert cp.run_lanes([]) == []

    def test_lanes_with_their_own_walkers_and_modules_equal_their_runs(
            self, monkeypatch):
        batch_sizes = []
        step = cp.RunnerBatch.step

        def counted_step(batch, actions):
            batch_sizes.append(len(batch))
            return step(batch, actions)

        monkeypatch.setattr(cp.RunnerBatch, "step", counted_step)
        env, walker, modules = lane_world()
        _, fast_walker, other_modules = lane_world()
        fast_walker.params["mu.b"][0] = np.float32(0.7)
        # both module sets, the hurdle module alone, and none at all
        policies = [(walker, identity_norm(), modules),
                    (fast_walker, identity_norm(),
                     {HURDLE: other_modules[HURDLE]}),
                    (walker, identity_norm(), {})]
        lanes = [tuple(EpisodeDriver(env, net, norm, mods,
                                     np.random.default_rng((9, i)),
                                     without_setup=i % 2 == 1)
                       for _ in range(2))
                 for i, (net, norm, mods) in enumerate(policies * 8)]
        outcomes = cp.run_lanes([drv for drv, _ in lanes])
        assert max(batch_sizes) == len(lanes)
        switches = {0: set(), 1: set(), 2: set()}  # by module count
        for out, (drv, ref) in zip(outcomes, lanes):
            assert_same_outcome(out, ref.run())
            switches[len(drv.modules)].add(len(out.switch.events))
        # no module, no switch; the hurdle module alone switches at most
        # three times; with both, lanes also switch at the gap
        assert switches[0] == {0}
        assert 0 not in switches[1] and max(switches[1]) <= 3
        assert max(switches[2]) > 3

    def test_each_group_reads_only_the_heads_it_acts_on(self):
        lanes = [drv for drv, _ in mixed_arm_lanes(24)]
        walker = lanes[0].default_net
        modules = lanes[0].modules
        spies = {net: head_spy(net) for net in
                 [walker] + [getattr(m, role) for m in modules.values()
                             for role in ("setup_net", "target_net")]}
        left = cp._run_batch(lanes)
        assert len(left) < cp.LANE_CROSSOVER
        # walker and target groups act on their means; a setup group also
        # draws its handoff bits
        for net, (trunks, reads) in spies.items():
            if any(net is m.setup_net for m in modules.values()):
                names = ("mu", "switch")
            else:
                names = ("mu",)
            assert read_ids(reads) == [(name, id(h)) for h in trunks
                                       for name in names]
        hurdle = modules[HURDLE]
        assert spies[hurdle.setup_net][0] and spies[hurdle.target_net][0]

    def test_groups_and_lone_rows_act_as_the_forward_bit_for_bit(
            self, monkeypatch):
        env, walker, modules = lane_world()
        # equal policies in other objects: each acts as a group of one
        _, lone_walker, lone_modules = lane_world()
        walker_norm = identity_norm()
        near = cp.artifact_approach_init(env.course.artifacts[0])
        drivers = [EpisodeDriver(env, net, walker_norm, mods,
                                 np.random.default_rng((11, i)), init_fn=init)
                   for i, (net, mods, init) in enumerate(
                       [(walker, modules, near)] * 10
                       + [(walker, lone_modules, near)]
                       + [(walker, {}, None)] * 10 + [(lone_walker, {}, None)])]
        rngs = [copy.deepcopy(drv.rng) for drv in drivers]
        seen, zs = {}, []
        observe = cp.RunnerBatch.observe

        class FirstTick(Exception):
            pass

        def spy_observe(batch):
            seen["obs"] = observe(batch)
            return seen["obs"]

        def spy_step(batch, actions):
            seen["actions"] = actions.copy()
            raise FirstTick

        def spy_sigmoid(z):
            zs.append(z)
            return sigmoid(z)

        monkeypatch.setattr(cp.RunnerBatch, "observe", spy_observe)
        monkeypatch.setattr(cp.RunnerBatch, "step", spy_step)
        monkeypatch.setattr(cp, "sigmoid", spy_sigmoid)
        with pytest.raises(FirstTick):
            cp._run_batch(drivers)
        assert [drv.switch.active for drv in drivers] == \
            [POLICY_SETUP] * 11 + [POLICY_DEFAULT] * 11
        obs, actions = seen["obs"], seen["actions"]
        # groups act in the order of their first lanes
        groups = [(slice(0, 10), modules[HURDLE]),
                  (10, lone_modules[HURDLE]),
                  (slice(11, 21), walker), (21, lone_walker)]
        for rows, policy in groups:
            setup = isinstance(policy, BehaviorModule)
            net, norm = ((policy.setup_net, policy.setup_norm) if setup
                         else (policy, walker_norm))
            mu, _, z = forward(net, norm.normalize(cp.policy_obs(net, obs[rows])))
            if not setup:
                assert np.array_equal(actions[rows], mu)
                continue
            if isinstance(rows, int):
                rows, mu, z = slice(rows, rows + 1), mu[None], np.array([z])
            assert np.array_equal(zs.pop(0), z)
            for i, mean in zip(range(rows.start, rows.stop), mu):
                noise = rngs[i].standard_normal(2)
                assert np.array_equal(actions[i], mean + net.std * noise)
        assert not zs

    def test_rejects_a_training_driver(self):
        env = TerrainEnv(single_artifact_course(HURDLE))
        module = hurdle_module()
        trainer = setup_trainer(module, PPOConfig(horizon=16))
        drivers = [EpisodeDriver(env, scripted_net(0.5, 0.0), identity_norm(),
                                 {HURDLE: module}, np.random.default_rng(0),
                                 trainer=trainer,
                                 buffer=trainer_buffer(trainer))]
        with pytest.raises(ValueError, match="evaluation"):
            cp.run_lanes(drivers)

    def test_evaluation_builds_no_carried_target(self, monkeypatch):
        # a target acts on its mean as any frozen policy does; only a
        # training driver carries its trained module's target
        built = []
        init = cp.CarriedTarget.__init__

        def spy_init(carry, module):
            built.append(module)
            init(carry, module)

        monkeypatch.setattr(cp.CarriedTarget, "__init__", spy_init)
        lanes = mixed_arm_lanes(2 * cp.LANE_CROSSOVER + 6)
        outcomes = cp.run_lanes([drv for drv, _ in lanes])
        assert POLICY_TARGET in {e.dst for out in outcomes
                                 for e in out.switch.events}
        assert built == []
        module = hurdle_module()
        trainer = setup_trainer(module, PPOConfig(horizon=16))
        EpisodeDriver(TerrainEnv(single_artifact_course(HURDLE)),
                      scripted_net(0.5, 0.0), identity_norm(),
                      {HURDLE: module}, np.random.default_rng(0),
                      trainer=trainer, buffer=trainer_buffer(trainer))
        assert built == [module]


# ---- training tails as lanes -------------------------------------------------------


def tail_world():
    """A hurdle course whose setup policy crouches, then hands off, as
    `hurdle_module`'s does, but sampled, and whose specialist's value head
    reads the observation. The specialist drives and releases the crouch:
    it clears the hurdle, and the walker walks on to the goal, or it hits
    the hurdle, which ends the episode."""
    module = BehaviorModule(HURDLE, valued(scripted_net(1.0, -1.0), 5),
                            identity_norm(),
                            scripted_net(0.25, 1.0, crouch_gate=True),
                            saturated_identity_norm())
    return (TerrainEnv(single_artifact_course(HURDLE)), scripted_net(0.5, 0.0),
            identity_norm(), module)


def parked_tails(n, world=tail_world, n_buffers=1):
    """n training drivers of `world`, sharing a trainer, each ticked until
    the rest of its episode only folds; they take turns at `n_buffers`
    buffers, as workers do. Returns the tails and their buffer, or the list
    of buffers."""
    env, walker, walker_norm, module = world()
    trainer = setup_trainer(module, PPOConfig(horizon=100_000))
    bufs = [trainer_buffer(trainer) for _ in range(n_buffers)]
    rng = np.random.default_rng(12)
    tails = []
    while len(tails) < n:
        drv = EpisodeDriver(env, walker, walker_norm, {HURDLE: module}, rng,
                            trainer=trainer, buffer=bufs[len(tails) % n_buffers])
        while not (drv.done or drv.folds_only()):
            drv.tick()
        if not drv.done:
            tails.append(drv)
    return tails, bufs[0] if n_buffers == 1 else bufs


def batch_sizes(monkeypatch):
    """The lane count of every RunnerBatch step from now on."""
    sizes = []
    step = cp.RunnerBatch.step

    def counted_step(batch, actions):
        sizes.append(len(batch))
        return step(batch, actions)

    monkeypatch.setattr(cp.RunnerBatch, "step", counted_step)
    return sizes


def assert_close_rewards(got, want):
    """Folded rewards to batched-matmul rounding: 1e-9 relative."""
    assert len(got) == len(want)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


def tails_run(budget, tick_path, *, world=tail_world, horizon=150,
              tick_log=None):
    """One-worker setup training of `world`; `tick_path` ticks every tail
    (an `on_episode_end` keeps each driver on tick()). Returns what the two
    paths must share, and the sizes of the lane batches built."""
    env, walker, walker_norm, module = world()
    drivers, updates, batches, settled = [], [], [], []
    init, update, run_batch, tick, replay = (
        EpisodeDriver.__init__, Trainer.update, cp._run_batch,
        EpisodeDriver.tick, EpisodeDriver.replay_opening)

    def spy_init(drv, *args, **kwargs):
        init(drv, *args, **kwargs)
        if drv.trainer is not None:
            drivers.append(drv)

    def spy_update(trainer, workers):
        buf = workers[0].buffer
        updates.append((buf.rewards.tolist(), buf.switch_bits[-1] == 1.0))
        settled[:] = [i for i, drv in enumerate(drivers) if drv.done]
        update(trainer, workers)

    def spy_run_batch(lanes, *limit):
        batches.append(len(lanes))
        return run_batch(lanes, *limit)

    def spy_tick(drv):
        folding = drv.folding
        done = tick(drv)
        if drv.trainer is not None:
            tick_log.append((folding, done))
        return done

    def spy_replay(drv, room):
        # a replayed tick is a walker's: it neither folds nor ends
        replayed = replay(drv, room)
        tick_log.extend([(False, False)] * replayed)
        return replayed

    rng = np.random.default_rng(25)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(EpisodeDriver, "__init__", spy_init)
        m.setattr(Trainer, "update", spy_update)
        m.setattr(cp, "_run_batch", spy_run_batch)
        if tick_log is not None:
            m.setattr(EpisodeDriver, "tick", spy_tick)
            m.setattr(EpisodeDriver, "replay_opening", spy_replay)
        curve = train_setup(module, walker, walker_norm, env,
                            PPOConfig(horizon=horizon, minibatch=64, epochs=1),
                            budget, rng, eval_every=0, eval_episodes=0,
                            on_episode_end=(lambda drv: None) if tick_path
                            else None)
    discrete = [(d.state.steps, d.state.done, d.state.success,
                 d.state.failure, [(e.step, e.src, e.dst)
                                   for e in d.switch.events])
                for d in drivers]
    return {"curve": curve, "count": module.setup_norm.count,
            # the one worker's stream: the same draws, in the same order
            "rng": drivers[-1].rng.bit_generator.state,
            "discrete": discrete,
            # the outcomes of the episodes ended by the last update
            "settled": {i: discrete[i] for i in settled},
            "updates": updates, "rewards": drivers[-1].buffer.rewards.tolist(),
            "setup": module.setup_net.flat.copy(),
            "norm": module.setup_norm.state_arrays()}, batches


def assert_same_schedule(got, want, budget):
    """The same training up to the last update, and the same outcome of
    every episode ended by then. After it the paths part by design: parked
    tails never run, and live ticks run instead, so the stream, the later
    drivers' outcomes and the last buffer differ."""
    assert got["curve"][-1][0] == want["curve"][-1][0] == budget
    assert want["settled"]
    for key in ("curve", "count", "settled"):
        assert got[key] == want[key], key
    assert len(got["updates"]) == len(want["updates"])
    for (got_rows, got_end), (want_rows, want_end) in zip(got["updates"],
                                                          want["updates"]):
        assert got_end == want_end
        assert_close_rewards(got_rows, want_rows)
    np.testing.assert_allclose(got["setup"], want["setup"], rtol=0,
                               atol=1e-6)


class FlushSpy:
    """Watches one-worker setup training: the training drivers of each
    `run_lanes` call, with the updates made before it, the tick limit it
    got, the training ticks made before it on tick() or replayed, and the
    lane-ticks it ran; each parked tail, with the updates made before it was parked; and
    each tick on tick() of a driver whose episode only folds, made outside
    `run()`."""

    def __init__(self, m):
        self.updates = self.ticked = 0
        self.calls, self.parked, self.stray = [], [], []
        self.running = False
        latest = {}  # buffer id -> the newest driver filling it
        init, run, tick, replay, update, run_lanes = (
            EpisodeDriver.__init__, EpisodeDriver.run, EpisodeDriver.tick,
            EpisodeDriver.replay_opening, Trainer.update, cp.run_lanes)

        def spy_init(drv, *args, **kwargs):
            init(drv, *args, **kwargs)
            if drv.trainer is not None:
                before = latest.get(id(drv.buffer))
                if before is not None and not before.done:
                    self.parked.append((self.updates, before))
                latest[id(drv.buffer)] = drv

        def spy_run(drv, *limit):
            self.running = True
            run(drv, *limit)
            self.running = False
            return drv

        def spy_tick(drv):
            if drv.trainer is not None and not self.running:
                self.ticked += 1
                if drv.folds_only():
                    self.stray.append(drv)
            return tick(drv)

        def spy_replay(drv, room):
            replayed = replay(drv, room)
            self.ticked += replayed
            return replayed

        def spy_update(trainer, workers):
            self.updates += 1
            update(trainer, workers)

        def spy_run_lanes(drivers, *limit):
            tails = [drv for drv in drivers if drv.trainer is not None]
            steps = sum(drv.state.steps for drv in tails)
            run_lanes(drivers, *limit)
            self.calls.append((self.updates, tails, limit, self.ticked,
                               sum(drv.state.steps for drv in tails) - steps))
            return drivers

        m.setattr(EpisodeDriver, "__init__", spy_init)
        m.setattr(EpisodeDriver, "run", spy_run)
        m.setattr(EpisodeDriver, "tick", spy_tick)
        m.setattr(EpisodeDriver, "replay_opening", spy_replay)
        m.setattr(Trainer, "update", spy_update)
        m.setattr(cp, "run_lanes", spy_run_lanes)

    def assert_one_flush_per_update(self, overrun, budget):
        """One call before each update, plus one for an update the budget
        cannot pay for; each holds the tails parked since the last call,
        and gets the budget's room as its limit. A call within its room
        runs its tails to their ends; the overrun call stops within one
        lockstep step past its room."""
        assert [u for u, *_ in self.calls] == list(range(len(self.calls)))
        assert len(self.calls) == self.updates + overrun
        ran_before = 0
        for k, (_, tails, limit, ticked, ran) in enumerate(self.calls):
            assert tails == [drv for u, drv in self.parked if u == k]
            room = budget - ticked - ran_before
            assert limit == (room,)
            if overrun and k == len(self.calls) - 1:
                assert room < ran <= room + len(tails)
            else:
                assert ran <= room and all(drv.done for drv in tails)
            ran_before += ran
        assert self.parked and not self.stray


class TestTrainingTails:
    def test_tails_fold_as_ticking_them(self, monkeypatch):
        tails, buf = parked_tails(2 * cp.LANE_CROSSOVER + 4)
        twins, twin_buf = copy.deepcopy((tails, buf))
        before = buf.rewards.copy()
        sizes = batch_sizes(monkeypatch)
        assert cp.run_lanes(tails) is tails
        assert max(sizes) == len(tails)
        for got, twin in zip(tails, twins):
            assert_same_outcome(got, twin.run())
        # both phases of a tail fold on the lane path: the target's and the
        # walker's after the release
        assert {e.dst for t in tails for e in t.switch.events} == {
            POLICY_SETUP, POLICY_TARGET, POLICY_DEFAULT}
        assert (buf.rewards != before).sum() == len(tails)
        assert_close_rewards(buf.rewards.tolist(), twin_buf.rewards.tolist())

    def test_a_call_adds_once_per_buffer_and_step_as_lanes_add(
            self, monkeypatch):
        # tails of two buffers: each lockstep step adds its rewards with one
        # call per buffer, and a step that ends tails with one more per
        # buffer; the rows get what adding lane by lane gives, bit for bit
        tails, bufs = parked_tails(2 * cp.LANE_CROSSOVER + 4, n_buffers=2)
        twins, twin_bufs = copy.deepcopy((tails, bufs))
        # per step, whether it ended tails; per batch add, the steps before
        ends, adds = [], []
        step, add, run = (cp.RunnerBatch.step, RolloutBuffer.add_reward,
                          EpisodeDriver.run)

        def spy_step(batch, actions):
            done = step(batch, actions)
            ends.append(bool(done.any()))
            return done

        def spy_add(buf, rows, delta):
            adds.append((len(ends), bufs.index(buf)))
            assert np.shape(rows) == np.shape(delta)
            add(buf, rows, delta)

        def spy_run(drv, *limit):
            # a tail left for run() adds on tick(), one row at a time
            m.setattr(RolloutBuffer, "add_reward", add)
            return run(drv, *limit)

        with monkeypatch.context() as m:
            m.setattr(cp.RunnerBatch, "step", spy_step)
            m.setattr(RolloutBuffer, "add_reward", spy_add)
            m.setattr(EpisodeDriver, "run", spy_run)
            cp.run_lanes(tails)
        assert len(ends) > 10 and any(ends)
        # the rewards of step k are added after it, or before step k + 1
        calls = collections.Counter(adds)
        assert {b for _, b in calls} == {0, 1}
        assert all(count <= 1 + ends[k - 1] for (k, _), count in calls.items())
        assert len(adds) <= 2 * (len(ends) + sum(ends))

        def add_by_lane(buf, rows, delta):
            for row, r in zip(np.atleast_1d(rows).tolist(),
                              np.atleast_1d(delta).tolist()):
                add(buf, row, r)

        with monkeypatch.context() as m:
            m.setattr(RolloutBuffer, "add_reward", add_by_lane)
            cp.run_lanes(twins)
        for got, twin in zip(tails, twins):
            assert runner_bytes(got.state) == runner_bytes(twin.state)
        for got, want in zip(bufs, twin_bufs):
            assert got.rewards.tobytes() == want.rewards.tobytes()

    def test_a_nonfinite_target_value_raises_as_on_tick(self, monkeypatch):
        tails, buf = parked_tails(2 * cp.LANE_CROSSOVER)
        twins, _ = copy.deepcopy((tails, buf))
        for drv in (tails[0], twins[0]):
            drv.trainer.module.target_net.params["value.b"][...] = np.nan
        with pytest.raises(ValueError, match="finite") as on_tick:
            twins[0].run()
        # a limit of three lockstep steps keeps every tail off run(); the
        # first step's rewards, read at the second, raise before it steps
        sizes = batch_sizes(monkeypatch)
        with pytest.raises(ValueError, match="finite") as batched:
            cp.run_lanes(tails, 2 * len(tails))
        assert sizes == [len(tails)]
        assert str(batched.value) == str(on_tick.value)

    def test_tails_warn_no_more_than_floats(self):
        # a value head far past float32 range: alpha * A^2 overflows, which
        # floats do silently, and so must the batch (a RuntimeWarning is an
        # error here); the saturated surprise makes every fold add 0.0
        tails, buf = parked_tails(2 * cp.LANE_CROSSOVER)
        twins, twin_buf = copy.deepcopy((tails, buf))
        for drv in (tails[0], twins[0]):
            drv.trainer.module.target_net.params["value.b"][...] = 1e300
        before = buf.rewards.copy()
        cp.run_lanes(tails)
        for twin in twins:
            twin.run()
        assert all(drv.done for drv in tails)
        assert (buf.rewards == before).all()
        assert buf.rewards.tobytes() == twin_buf.rewards.tobytes()

    @pytest.mark.parametrize("n", [2 * cp.LANE_CROSSOVER, cp.LANE_CROSSOVER,
                                   cp.LANE_CROSSOVER - 1])
    def test_tails_stop_once_their_ticks_pass_the_limit(self, monkeypatch,
                                                        n):
        # 2 * LANE_CROSSOVER tails step as a batch, fewer go on run()
        tails, buf = parked_tails(n)
        (full, full_buf), (refs, ref_buf) = (copy.deepcopy((tails, buf))
                                             for _ in range(2))

        # with no limit every tail ends, as its own run()
        cp.run_lanes(full)
        for got, ref in zip(full, refs):
            assert got.done
            assert_same_outcome(got, ref.run())
        assert_close_rewards(full_buf.rewards.tolist(),
                             ref_buf.rewards.tolist())
        # half the ticks made while every lane is live
        limit = n * min(got.state.steps - drv.state.steps
                        for got, drv in zip(full, tails)) // 2
        start = sum(drv.state.steps for drv in tails)
        sizes = batch_sizes(monkeypatch)
        cp.run_lanes(tails, limit)
        ran = sum(drv.state.steps for drv in tails) - start
        assert not all(drv.done for drv in tails)
        if n >= cp.LANE_CROSSOVER:
            # it stops inside the batch, within one lockstep step
            assert limit < ran == sum(sizes) <= limit + sizes[-1]
        else:
            assert not sizes and limit < ran <= limit + 1

    def test_a_tail_folds_its_own_target_while_another_acts(self,
                                                             monkeypatch):
        # the hurdle setup policy trains on a course whose gap has a module
        # too: its tails fold the hurdle target's values while the gap
        # target acts
        env, walker, modules = two_kind_world()
        trainer = setup_trainer(modules[HURDLE], PPOConfig(horizon=100_000))
        buf = trainer_buffer(trainer)
        rng = np.random.default_rng(7)
        tails = []
        while len(tails) < cp.LANE_CROSSOVER + 2:
            drv = EpisodeDriver(env, walker, identity_norm(), modules, rng,
                                trainer=trainer, buffer=buf)
            while not (drv.done or drv.folds_only()):
                drv.tick()
            if not drv.done:
                assert drv.switch.artifact.kind == GAP
                tails.append(drv)
        twins, twin_buf = copy.deepcopy((tails, buf))
        sizes = batch_sizes(monkeypatch)
        cp.run_lanes(tails)
        assert max(sizes) == len(tails)
        for got, twin in zip(tails, twins):
            assert_same_outcome(got, twin.run())
        assert_close_rewards(buf.rewards.tolist(), twin_buf.rewards.tolist())

    def test_run_lanes_rejects_a_driver_that_can_still_learn(self):
        env, walker, walker_norm, module = tail_world()
        trainer = setup_trainer(module, PPOConfig(horizon=100_000))
        rng = np.random.default_rng(2)

        def driver(course_env=env, trainer=trainer, modules=None):
            return EpisodeDriver(course_env, walker, walker_norm,
                                 {HURDLE: module} if modules is None
                                 else modules, rng, trainer=trainer,
                                 buffer=trainer_buffer(trainer))

        def handed_off(drv):
            while not (drv.done or drv.switch.active == POLICY_TARGET):
                drv.tick()
            return drv

        # a tail before another hurdle, a tail that does not fold, one still
        # walking to its setup phase, and a target-training driver
        two = TerrainEnv(make_course([make_artifact(HURDLE, 3.2),
                                      make_artifact(HURDLE, 5.0)]))
        no_fold = Trainer(module.setup_net, module.setup_norm,
                          PPOConfig(horizon=100_000), rng, module=module,
                          extend=False)
        target = Trainer(walker, walker_norm, PPOConfig(horizon=16), rng)
        learners = [handed_off(driver(two)),
                    handed_off(driver(trainer=no_fold)), driver(),
                    driver(trainer=target, modules={})]
        assert all(drv.switch.active == POLICY_TARGET and not drv.done
                   for drv in learners[:2])
        tail = handed_off(driver())
        assert tail.folds_only() and cp.run_lanes([tail]) == [tail]
        for drv in learners:
            assert not drv.folds_only()
            with pytest.raises(ValueError, match="evaluation"):
                cp.run_lanes([handed_off(driver())] + [drv])

    def test_run_lanes_rejects_an_evaluation_driver_among_tails(self):
        tails, _ = parked_tails(cp.LANE_CROSSOVER)
        drv = tails[0]
        evaluation = EpisodeDriver(drv.env, drv.default_net, drv.default_norm,
                                   drv.modules, np.random.default_rng(3))
        steps = [d.state.steps for d in tails]
        with pytest.raises(ValueError, match="evaluation"):
            cp.run_lanes(tails + [evaluation])
        assert [d.state.steps for d in tails] == steps
        assert evaluation.state.steps == 0

    def test_run_lanes_rejects_the_tails_of_two_trainers(self):
        # two trainers of one module: their tails carry the same target
        env, walker, walker_norm, module = tail_world()
        rng = np.random.default_rng(5)
        tails = []
        for seed in (0, 1):
            trainer = setup_trainer(module, PPOConfig(horizon=100_000), seed)
            buf = trainer_buffer(trainer)
            while len(tails) < (seed + 1) * cp.LANE_CROSSOVER:
                drv = EpisodeDriver(env, walker, walker_norm, {HURDLE: module},
                                    rng, trainer=trainer, buffer=buf)
                while not (drv.done or drv.folds_only()):
                    drv.tick()
                if not drv.done:
                    tails.append(drv)
        steps = [drv.state.steps for drv in tails]
        with pytest.raises(ValueError, match="evaluation"):
            cp.run_lanes(tails)
        assert [drv.state.steps for drv in tails] == steps
        for half in (tails[:cp.LANE_CROSSOVER], tails[cp.LANE_CROSSOVER:]):
            cp.run_lanes(half)
        assert all(drv.done for drv in tails)

    def test_a_call_of_tails_looks_for_no_artifact(self, monkeypatch):
        # `folds_only` holds no artifact ahead that a tail has a module for
        tails, _ = parked_tails(cp.LANE_CROSSOVER + 2)
        evaluation = [drv for drv, _ in mixed_arm_lanes(2 * cp.LANE_CROSSOVER)]
        looks = []
        detect = cp.RunnerBatch.detect

        def spy_detect(batch):
            looks.append(len(batch))
            return detect(batch)

        monkeypatch.setattr(cp.RunnerBatch, "detect", spy_detect)
        sizes = batch_sizes(monkeypatch)
        cp.run_lanes(tails)
        assert sizes and not looks
        assert all(drv.done for drv in tails)
        cp.run_lanes(evaluation)
        assert looks

    def test_one_worker_training_equals_ticking_every_tail(self):
        want, ticked = tails_run(12_000, True)
        with pytest.MonkeyPatch.context() as m:
            spy = FlushSpy(m)
            got, batches = tails_run(12_000, False)
        # the budget runs out inside the fifth segment: its tails run until
        # they pass the budget
        spy.assert_one_flush_per_update(overrun=True, budget=12_000)
        assert not ticked and max(batches) >= cp.LANE_CROSSOVER
        # one update's buffer is filled by a handoff, whose tail folds into
        # the row kept across it
        assert len(want["updates"]) >= 3
        assert any(end for _, end in want["updates"])
        assert_same_schedule(got, want, 12_000)

    @pytest.fixture(scope="class")
    def tick_reference(self):
        """Of ticking every tail for 12,000 ticks: the log of (tail tick,
        episode ended), and the ticks spent at each update, N_k, which
        update k needs on either path."""
        log, ticks = [], []
        update = Trainer.update

        def spy(trainer, workers):
            ticks.append(len(log))
            update(trainer, workers)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(Trainer, "update", spy)
            tails_run(12_000, True, tick_log=log)
        assert len(ticks) >= 3
        return log, ticks

    @pytest.mark.parametrize("short, overrun", [(1, True), (0, False)])
    def test_an_update_happens_when_the_budget_pays_for_it(
            self, tick_reference, short, overrun):
        # one tick short of N_k every buffer fills, but the segment's tails
        # pass the budget: no update k, and the last row at the budget
        _, update_ticks = tick_reference
        budget = update_ticks[-1] - short
        want, _ = tails_run(budget, True)
        with pytest.MonkeyPatch.context() as m:
            spy = FlushSpy(m)
            got, _ = tails_run(budget, False)
        spy.assert_one_flush_per_update(overrun, budget)
        assert got["curve"] == [(budget, len(update_ticks) - short, None)]
        assert_same_schedule(got, want, budget)

    def test_tails_parked_after_the_last_update_never_run(self,
                                                          tick_reference):
        # the budget runs out on live ticks, short of filling the buffer
        budget = tick_reference[1][-1] + 400
        want, _ = tails_run(budget, True)
        with pytest.MonkeyPatch.context() as m:
            spy = FlushSpy(m)
            got, _ = tails_run(budget, False)
        spy.assert_one_flush_per_update(overrun=False, budget=budget)
        late = [drv for u, drv in spy.parked if u == spy.updates]
        assert late and not any(drv.done for drv in late)
        assert_same_schedule(got, want, budget)

    @pytest.fixture(scope="class")
    def budget_ends(self, tick_reference):
        """The last budget below 12,000 ticks that ends in each place, from
        the log of (tail tick, episode ended) of ticking every tail."""
        log, _ = tick_reference
        kinds = {"head": lambda folding, done: not folding,
                 "inside a tail": lambda folding, done: folding and not done,
                 "a tail's last tick": lambda folding, done: folding and done}
        return {end: max(t for t, tick in enumerate(log[:-1], 1)
                         if kind(*tick))
                for end, kind in kinds.items()}

    @pytest.mark.parametrize("end", ["head", "inside a tail",
                                     "a tail's last tick"])
    def test_the_budget_ends_as_on_tick(self, budget_ends, end):
        budget = budget_ends[end]
        assert budget > 11_000
        want, _ = tails_run(budget, True)
        got, batches = tails_run(budget, False)
        assert max(batches) >= cp.LANE_CROSSOVER
        assert_same_schedule(got, want, budget)

    def test_a_rerun_is_byte_identical(self):
        first, batches = tails_run(12_000, False)
        again, _ = tails_run(12_000, False)
        assert max(batches) >= cp.LANE_CROSSOVER
        assert first.keys() == again.keys()
        for key, value in first.items():
            if key == "norm":
                assert all(value[k].tobytes() == again[key][k].tobytes()
                           for k in value)
            elif key == "setup":
                assert value.tobytes() == again[key].tobytes()
            else:
                assert value == again[key], key


# ---- a terrain-blind target --------------------------------------------------------


def terrain_blind(net):
    """`net` cut to the body prefix: a specialist that reads no terrain."""
    return ParameterizedNet.from_params(
        {**net.params, "fc0.w": net.params["fc0.w"][:OBS_PROPRIO]})


def blind_targets(modules):
    """Make each module's target terrain-blind, with identity statistics."""
    for module in modules.values():
        module.target_net = terrain_blind(module.target_net)
        module.target_norm = identity_norm(OBS_PROPRIO)
    return modules


def blind_tail_world():
    """`tail_world` whose specialist reads the body prefix only."""
    env, walker, walker_norm, module = tail_world()
    blind_targets({HURDLE: module})
    return env, walker, walker_norm, module


class TestTerrainBlindTarget:
    # a frozen target may read the body prefix only, as the walker does;
    # every read of it trims the observation to its own width

    @pytest.mark.parametrize("without_setup", [False, True])
    def test_run_hands_control_to_it_and_finishes(self, without_setup):
        # the scripted target's weights are zero, so cut to the body prefix
        # it acts as the full-width one, bit for bit
        env = TerrainEnv(single_artifact_course(HURDLE))
        blind = blind_targets({HURDLE: exact_hurdle_module()})
        full = {HURDLE: exact_hurdle_module()}
        for seed in range(3):
            got, ref = (EpisodeDriver(env, scripted_net(0.5, 0.0),
                                      identity_norm(), modules,
                                      np.random.default_rng(seed),
                                      without_setup=without_setup).run()
                        for modules in (blind, full))
            assert got.done and POLICY_TARGET in [e.dst for e in
                                                  got.switch.events]
            assert outcome_record(got) == outcome_record(ref)

    @pytest.mark.parametrize("without_setup, first",
                             [(False, HURDLE), (True, GAP)])
    def test_its_lanes_end_as_their_runs(self, monkeypatch, without_setup,
                                         first):
        env, walker, modules = lane_world(first)
        blind_targets(modules)
        n = cp.LANE_CROSSOVER + 4
        sizes = batch_sizes(monkeypatch)
        outcomes = cp.run_lanes(cp.episode_drivers(
            env, walker, identity_norm(), modules, n,
            np.random.default_rng(5), without_setup=without_setup))
        assert sizes[0] == n
        for out, child in zip(outcomes, np.random.default_rng(5).spawn(n)):
            ref = EpisodeDriver(env, walker, identity_norm(), modules, child,
                                without_setup=without_setup).run()
            assert_same_outcome(out, ref)
        assert POLICY_TARGET in {e.dst for out in outcomes
                                 for e in out.switch.events}

    def test_its_training_tails_fold_as_ticking_them(self, monkeypatch):
        tails, buf = parked_tails(cp.LANE_CROSSOVER + 4, blind_tail_world)
        twins, twin_buf = copy.deepcopy((tails, buf))
        before = buf.rewards.copy()
        sizes = batch_sizes(monkeypatch)
        cp.run_lanes(tails)
        assert max(sizes) == len(tails)
        for got, twin in zip(tails, twins):
            assert_same_outcome(got, twin.run())
        assert (buf.rewards != before).sum() == len(tails)
        assert_close_rewards(buf.rewards.tolist(), twin_buf.rewards.tolist())


class TestPathsLeftOnTick:
    """Training that parks no tail, or parks only tails too few for a lane
    batch, keeps the results of ticking every driver bit for bit."""

    @staticmethod
    def tails_parked(monkeypatch):
        """The training drivers each `run_lanes` call receives."""
        parked = []
        run_lanes = cp.run_lanes

        def spy(drivers, *limit):
            parked.extend(drv for drv in drivers if drv.trainer is not None)
            return run_lanes(drivers, *limit)

        monkeypatch.setattr(cp, "run_lanes", spy)
        return parked

    def test_a_reward_without_folds(self, monkeypatch):
        parked = self.tails_parked(monkeypatch)
        env, walker, walker_norm, module = fast_training_world()
        _, curve = train_proximity_arm(
            module, walker, walker_norm, env,
            PPOConfig(horizon=16, minibatch=8, epochs=2), 3000,
            np.random.default_rng(5), eval_every=2, eval_episodes=2)
        assert not parked
        assert [row[:2] for row in curve] == [(142, 2), (1013, 4), (2772, 6)]
        assert training_digest(module.setup_net, module.setup_norm, curve) \
            == ("8963fa836f472a6ac7c3940152cc8691"
                "93f44d5aedb830fa5c6f872b9e647c5c")

    def test_an_episode_end_callback(self, monkeypatch):
        parked = self.tails_parked(monkeypatch)
        env, walker, walker_norm, module = fast_training_world()
        ends = []
        curve = train_setup(module, walker, walker_norm, env,
                            PPOConfig(horizon=16, minibatch=8, epochs=2), 4000,
                            np.random.default_rng(6), eval_every=2,
                            eval_episodes=2, n_workers=2,
                            on_episode_end=lambda drv: ends.append(drv))
        assert not parked and len(ends) == 5
        assert [row[:2] for row in curve] == [(1091, 2), (2928, 4), (3259, 6),
                                              (3372, 8)]
        assert training_digest(module.setup_net, module.setup_norm, curve) \
            == ("c365d157e0f34acf04e75cea42848ae9"
                "54af50eefcbd890b511ddf3ae8b33b6b")

    def test_a_two_hurdle_course(self, monkeypatch):
        parked = self.tails_parked(monkeypatch)
        _, walker, walker_norm, module = fast_training_world()
        env = TerrainEnv(make_course([make_artifact(HURDLE, 3.2),
                                      make_artifact(HURDLE, 5.0)]))
        curve = train_setup(module, walker, walker_norm, env,
                            PPOConfig(horizon=16, minibatch=8, epochs=2), 4000,
                            np.random.default_rng(8), eval_every=2,
                            eval_episodes=2)
        # a tail is parked only once no hurdle is left ahead of it
        assert parked and all(
            drv.switch.events[-1].x > env.course.artifacts[1].start - 1.0
            for drv in parked)
        assert [row[1] for row in curve] == list(range(2, 31, 2)) + [31]
        assert training_digest(module.setup_net, module.setup_norm, curve) \
            == ("30bb548f073060c15e1bfa69b1df6095"
                "25d3a319c8aae258013bdefd32dd9902")


class TestScheduleIndependence:
    """Each worker draws from its own stream and acts under statistics that
    only an update moves, so the order in which workers tick moves no
    result."""

    def test_two_workers_train_alike_whether_tails_park_or_tick(self):
        def train(on_episode_end):
            env, walker, walker_norm, module = tail_world()
            parked = []
            run_lanes = cp.run_lanes

            def spy(drivers, *limit):
                parked.append(sum(d.trainer is not None for d in drivers))
                return run_lanes(drivers, *limit)

            with pytest.MonkeyPatch.context() as m:
                m.setattr(cp, "run_lanes", spy)
                curve = train_setup(
                    module, walker, walker_norm, env,
                    PPOConfig(horizon=16, minibatch=8, epochs=2), 4000,
                    np.random.default_rng(1), eval_every=2, eval_episodes=2,
                    n_workers=2, on_episode_end=on_episode_end)
            return (training_digest(module.setup_net, module.setup_norm,
                                    curve), curve, parked)

        lanes, curve, parked = train(None)
        ticked, _, none_parked = train(lambda drv: None)
        # tails parked, each run too few for a batch, so they fold on
        # run() as on tick(); the budget crosses several updates
        assert sum(parked) > 0 and max(parked) < cp.LANE_CROSSOVER
        assert not any(none_parked) and curve[-1][1] >= 6
        assert lanes == ticked

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_each_learning_row_is_merged_once(self, n_workers):
        """The normalizer's count grows by the rows merged, and the rows
        merged are each worker's learning ticks up to the last update, in
        order, the row kept across an update merged once."""
        env, walker, walker_norm, module = fast_training_world()
        start = module.setup_norm.count
        appended, merged, due = {}, [], []
        append, update, merge = (RolloutBuffer.append, Trainer.update,
                                 RunningNormalizer.merge)

        def spy_append(buf, *row):
            appended.setdefault(id(buf), []).append(np.array(row[-1]))
            return append(buf, *row)

        def spy_update(trainer, drivers):
            due.append([(id(d.buffer), len(appended[id(d.buffer)]))
                        for d in drivers])
            update(trainer, drivers)

        def spy_merge(norm, rows):
            if norm is module.setup_norm:
                merged.extend(np.array(rows))
            merge(norm, rows)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(RolloutBuffer, "append", spy_append)
            m.setattr(Trainer, "update", spy_update)
            m.setattr(RunningNormalizer, "merge", spy_merge)
            train_setup(module, walker, walker_norm, env,
                        PPOConfig(horizon=16, minibatch=8, epochs=1), 3000,
                        np.random.default_rng(9), eval_every=0,
                        eval_episodes=0, n_workers=n_workers)
        assert len(due) >= 2
        taken = dict.fromkeys(appended, 0)
        want = []
        for workers in due:
            for buf, end in workers:
                want += appended[buf][taken[buf]:end]
                taken[buf] = end
        assert len(merged) == len(want) == sum(taken.values())
        assert all(a.tobytes() == b.tobytes() for a, b in zip(merged, want))
        assert module.setup_norm.count == start + len(want)


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

    def test_a_specialist_spawns_before_the_first_artifact_of_its_kind(self):
        course = ts.make_course((ts.make_artifact(GAP, 3.2),
                                 ts.make_artifact(HURDLE, 6.0),
                                 ts.make_artifact(HURDLE, 9.0)))
        env = TerrainEnv(course)
        for kind, art in ((GAP, course.artifacts[0]),
                          (HURDLE, course.artifacts[1])):
            state = cp.init_for_kind(kind, course)(env, np.random.default_rng(7))
            want = cp.artifact_approach_init(art)(env, np.random.default_rng(7))
            assert (state.x, state.c, state.v) == (want.x, want.c, want.v)
            assert art.start - 1.0 <= state.x <= art.start - 0.3
        assert cp.init_for_kind(FLAT, course) is None
        with pytest.raises(ts.CourseError, match="no block"):
            cp.init_for_kind(BLOCK, course)


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

        monkeypatch.setattr(cp, "episode_drivers", no_episodes)
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
    """sha256 of final parameters (as the float32 numbers they are),
    normalizer state and training curve."""
    assert np.array_equal(net.flat, net.flat.astype(np.float32))
    h = hashlib.sha256(net.flat.astype(np.float32).tobytes())
    for key, arr in sorted(norm.state_arrays().items()):
        h.update(key.encode())
        h.update(arr.tobytes())
    h.update(repr(curve).encode())
    return h.hexdigest()


def hashed_rewards(monkeypatch):
    """A sha256 that takes every buffer's rewards before each update."""
    rewards, update = hashlib.sha256(), Trainer.update

    def spy_update(trainer, workers):
        for drv in workers:
            rewards.update(drv.buffer.rewards.tobytes())
        update(trainer, workers)

    monkeypatch.setattr(Trainer, "update", spy_update)
    return rewards


class TestSeededTrainingDigests:
    """Toy training runs whose results are pinned bit for bit: any change to
    the rollout, update or evaluation order, or to the curve rows, shows."""

    @pytest.mark.parametrize("kind, expected", [
        (FLAT, "18f6b610287fa2c77c3b7e7baa56cbcf"
               "b3a6090c80b15b5d3a615e0869cc98be"),
        (HURDLE, "8d37a554423d88b88636cb01add03bd7"
                 "5f2e2f5fd8a9d63c797a7546e9347e74"),
    ])
    def test_train_target(self, kind, expected):
        net, norm, curve = train_target(
            kind, 1024, np.random.default_rng(5),
            config=PPOConfig(horizon=256, epochs=1), eval_every=2,
            eval_episodes=3, stop_at=2.0, min_final=None)
        assert [row[:2] for row in curve] == [(512, 2), (1024, 4)]
        assert training_digest(net, norm, curve) == expected, kernel_note()

    def test_train_target_at_four_epochs(self):
        # several minibatches and epochs per update, so the update reads
        # weights written by its own earlier Adam steps
        net, norm, curve = train_target(
            HURDLE, 1024, np.random.default_rng(7),
            config=PPOConfig(horizon=512, epochs=4, minibatch=64),
            eval_every=2, eval_episodes=0, stop_at=2.0, min_final=None)
        assert curve == [(1024, 2, None)]
        assert training_digest(net, norm, curve) \
            == ("72fd062a7f8c1f9d6a9502ecb77ec2c6"
                "b91c156d110c96df2baa12cdf2db01bb"), kernel_note()

    def test_two_worker_train_setup_with_learning_statistics(self,
                                                              monkeypatch):
        # a random setup policy whose normalizer learns from every setup
        # tick, merged at each update: 2 x 16 rows, then 2 x 15 new rows
        # beside each buffer's survivor at each of the three updates after.
        # Each setup pin also hashes the buffers' rewards at each update: a
        # reward's last bits rarely move a float32 weight.
        rewards = hashed_rewards(monkeypatch)
        module = BehaviorModule.fresh(HURDLE, scripted_net(0.0, -1.0),
                                      identity_norm(), np.random.default_rng(11))
        curve = train_setup(module, scripted_net(0.5, 0.0), identity_norm(),
                            TerrainEnv(single_artifact_course(HURDLE)),
                            PPOConfig(horizon=16, minibatch=8, epochs=2), 6000,
                            np.random.default_rng(4), eval_every=2,
                            eval_episodes=2, n_workers=2)
        assert [updates for _, updates, _ in curve] == [2, 4]
        assert module.setup_norm.count == 2 * 16 + 3 * 2 * 15
        assert (training_digest(module.setup_net, module.setup_norm, curve),
                rewards.hexdigest()) == ("9d495b75076b63819214542d2fca289d"
                                         "fbfcfd985cf34ab8ebfeb1b525714398",
                                         "5f70bf18a086007016e948b04aed3b82"
                                         "103a36bea41755b6cddfaf10ace3c6ef"), \
            kernel_note()

    def test_two_worker_train_setup_evaluating_every_update(self,
                                                             monkeypatch):
        rewards = hashed_rewards(monkeypatch)
        module = hurdle_module()
        module.setup_norm = saturated_identity_norm()
        curve = train_setup(module, scripted_net(0.5, 0.0), identity_norm(),
                            TerrainEnv(single_artifact_course(HURDLE)),
                            PPOConfig(horizon=8, minibatch=8, epochs=1), 3000,
                            np.random.default_rng(3), eval_every=1,
                            eval_episodes=4, n_workers=2)
        assert [updates for _, updates, _ in curve] == [1, 2, 3, 4]
        assert (training_digest(module.setup_net, module.setup_norm, curve),
                rewards.hexdigest()) == ("5437cafb21609d94132a318f37d74e0a"
                                         "57f38f7d3cad9bccae166cc60e97680f",
                                         "076a27c79e5ace2a3d47f9dd2e83e4ff"
                                         "6ea8872b3c2218f66c92b89b55f36560"), \
            kernel_note()

    def test_two_worker_train_setup_from_a_lifted_walker(self, monkeypatch):
        # a terrain-blind walker lifted to the full observation; its count-1
        # normalizer gives every lifted dimension std 1, whichever count the
        # lift fills the terrain dimensions with
        rewards = hashed_rewards(monkeypatch)
        walker = ParameterizedNet(OBS_PROPRIO, 2, (8,), np.random.default_rng(13))
        walker.params["mu.w"][...] = (walker.params["mu.w"].astype(np.float32)
                                      * np.float32(0.1))
        walker.params["mu.b"][...] = (0.5, 0.0)
        walker_norm = identity_norm(OBS_PROPRIO)
        module = BehaviorModule.from_default(HURDLE, scripted_net(0.0, -1.0),
                                             identity_norm(), walker,
                                             walker_norm)
        curve = train_setup(module, walker, walker_norm,
                            TerrainEnv(single_artifact_course(HURDLE)),
                            PPOConfig(horizon=16, minibatch=8, epochs=2), 3000,
                            np.random.default_rng(8), eval_every=2,
                            eval_episodes=3, n_workers=2)
        assert [updates for _, updates, _ in curve][:2] == [2, 4]
        assert (training_digest(module.setup_net, module.setup_norm, curve),
                rewards.hexdigest()) == ("699ab2e04cec9f3268a9ae58b4a71e39"
                                         "7b92478d618021690de4b7adfe37e06d",
                                         "bfe492baf731a0dbf6e1e050f5bc3fe8"
                                         "c1b049383194dcdf82f023bfa409f462"), \
            kernel_note()

    def test_two_worker_train_setup_with_batched_tails(self, monkeypatch):
        # enough tails park before each update that they fold through
        # `_run_batch`, at least twice the crossover at once
        env, walker, walker_norm, module = tail_world()
        sizes, rewards = [], hashed_rewards(monkeypatch)
        run_batch = cp._run_batch

        def spy_run_batch(lanes, *limit):
            sizes.append(len(lanes))
            return run_batch(lanes, *limit)

        monkeypatch.setattr(cp, "_run_batch", spy_run_batch)
        curve = train_setup(module, walker, walker_norm, env,
                            PPOConfig(horizon=256, minibatch=32, epochs=1),
                            40_000, np.random.default_rng(6), eval_every=0,
                            eval_episodes=0, n_workers=2)
        assert max(sizes) >= 2 * cp.LANE_CROSSOVER
        assert curve == [(40_000, 4, None)]
        assert (training_digest(module.setup_net, module.setup_norm, curve),
                rewards.hexdigest()) == ("4771d77d067f86d159719e7921d2bfac"
                                         "7125ceef5a201e88e4ed92b1398e3fa6",
                                         "609bb74f1c7796b3ac369fb613529e13"
                                         "e787882d76c44853b9b75ef12b1e1e2c"), \
            kernel_note()

    @pytest.mark.parametrize("tag, expected", [
        ("original", ("6209b0dd5e823007b3c452a7e2347e1f"
                      "f3ccf08494c55c5f7eadbf3cfde49763",
                      "e7de06f038f60290fa037965aac7ad2f"
                      "fcc6b55c791c9451d481b5a39e6b086c")),
        ("constant", ("0e7ab24db9518cc50cc3890b37595a1f"
                      "88c7cbe27d3ac39310e3a7838b896b8f",
                      "a256c113dcd5f803994bf6bb0eed8f9c"
                      "f4cca921b8ba0c666e11c6ab5a0f649a")),
        ("target-torque", ("7960a61a9af5e5dec0b2128405130b0b"
                           "3a3e0c534686cd0c869a6613de67ee0a",
                           "07cb91df93c60e753203fa688135719e"
                           "4583d851447fcf594e9e86f19d05e018")),
        ("target-value", ("4bfb00deca4353e5a454d0fa8601e890"
                          "1885d450006e04179e400b7710f53c0d",
                          "22430a2189ad23d95092a627795cd446"
                          "231566d73e45088c582ae97a503bd533")),
        ("awtv", ("1026ac86b4d5e5829029da476871488f"
                  "c504a4410b0be383feb533e4359381fa",
                  "22d8c800aba456938ce01297e467724e"
                  "06c94f463f48a48e1abb1152588deeff")),
    ])
    def test_each_setup_reward_with_batched_tails(self, monkeypatch, tag,
                                                  expected):
        # every flush folds at least twice the crossover's tails through
        # `_run_batch`; the specialist's mean reads the observation, so the
        # torque variant's means at the tails' states round as their rows
        # do. The buffers' rewards at each update are hashed too: a reward's
        # last bits rarely move a float32 weight.
        env, walker, walker_norm, module = tail_world()
        mu_w = module.target_net.params["mu.w"]
        mu_w[...] = (np.random.default_rng(9).normal(size=mu_w.shape)
                     * 0.05).astype(np.float32)
        sizes, rewards = [], hashed_rewards(monkeypatch)
        run_batch = cp._run_batch

        def spy_run_batch(lanes, *limit):
            sizes.append(len(lanes))
            return run_batch(lanes, *limit)

        monkeypatch.setattr(cp, "_run_batch", spy_run_batch)
        curve = train_setup(module, walker, walker_norm, env,
                            PPOConfig(horizon=256, minibatch=32, epochs=1),
                            40_000, np.random.default_rng(6), eval_every=0,
                            eval_episodes=0, n_workers=2,
                            reward_fn=SETUP_REWARDS[tag])
        assert min(sizes) >= 2 * cp.LANE_CROSSOVER
        assert curve == [(40_000, 4, None)]
        assert (training_digest(module.setup_net, module.setup_norm, curve),
                rewards.hexdigest()) == expected, kernel_note()


def lanes_digest(outcomes):
    """sha256 of each lane's final state and its switch events, positions as
    float64 bytes."""
    h = hashlib.sha256()
    for out in outcomes:
        s = out.state
        h.update(repr((s.steps, s.success, s.failure)).encode())
        h.update(np.array([s.x, s.v, s.c]).tobytes())
        for e in out.switch.events:
            h.update(repr((e.step, e.src, e.dst)).encode())
            h.update(np.array([e.x, e.c, e.v]).tobytes())
    return h.hexdigest()


def test_seeded_lanes_digest():
    # both arms, past twice the crossover, with sampled handoffs: pins the
    # batch ticks and the tail that finishes on run()
    lanes = mixed_arm_lanes(2 * cp.LANE_CROSSOVER + 6)
    outcomes = cp.run_lanes([drv for drv, _ in lanes])
    assert {len(out.switch.events) > 0 for out in outcomes} == {True}
    assert lanes_digest(outcomes) == ("b9f1546c8f076a07bd120bd73a168661"
                                      "ccefff43d7385a96e0639c46a9dd3340"), \
        kernel_note()


def reward_log(monkeypatch):
    """A list that gets, at each update, the bytes of every buffer's
    rewards."""
    log, update = [], Trainer.update

    def spy_update(trainer, workers):
        log.append([drv.buffer.rewards.tobytes() for drv in workers])
        update(trainer, workers)

    monkeypatch.setattr(Trainer, "update", spy_update)
    return log


def deferral_off(monkeypatch):
    """Train with every setup reward computed at its tick."""
    monkeypatch.setattr(Trainer, "defers", property(
        lambda trainer: False, lambda trainer, value: None), raising=False)


def filled_rows(monkeypatch):
    """A list that gets the rows each `fill_rewards` call fills."""
    filled, fill = [], RolloutBuffer.fill_rewards

    def spy_fill(buf, rewards_of, chunk):
        filled.append(fill(buf, rewards_of, chunk))
        return filled[-1]

    monkeypatch.setattr(RolloutBuffer, "fill_rewards", spy_fill)
    return filled


class TestDeferredRewards:
    """A learning tick that stays in its setup phase stores r_env and leaves
    its reward to `_fill_rewards`, just before the update that reads it."""

    def test_the_row_target_reads_each_row_as_the_carried_target(self):
        net, norm = bench_policy("hurdle_target")
        module = BehaviorModule(HURDLE, net, norm, net.copy(), norm.copy())
        obs = np.random.default_rng(3).normal(0.5, 2.0, size=(200, OBS_DIM))
        rows = cp.RowTarget(module)
        values, means = rows.target_value(obs), rows.target_action(obs)
        for row, value, mean in zip(obs, values, means):
            carry = cp.CarriedTarget(module)
            assert carry.target_value(row).hex() == float(value).hex()
            assert carry.target_action(row).tobytes() == mean.tobytes()

    @pytest.mark.parametrize("tag", list(SETUP_REWARDS))
    def test_each_update_reads_the_rewards_of_ticking(self, monkeypatch, tag):
        # two workers, several chunks a buffer; the eager run computes every
        # reward at its tick
        log, filled = reward_log(monkeypatch), filled_rows(monkeypatch)

        def run():
            env, default_net, d_norm, module = fast_training_world()
            curve = train_setup(module, default_net, d_norm, env,
                                PPOConfig(horizon=48, minibatch=8, epochs=1),
                                4000, np.random.default_rng(8),
                                reward_fn=SETUP_REWARDS[tag], eval_every=0,
                                eval_episodes=0, n_workers=2)
            return training_digest(module.setup_net, module.setup_norm, curve)

        deferred = run(), log[:]
        assert len(log) >= 3 and sum(filled) > 3 * 2 * 8
        log.clear(), filled.clear()
        deferral_off(monkeypatch)
        assert (run(), log) == deferred
        assert sum(filled) == 0

    def test_a_setup_phase_that_ends_its_episode_stays_eager(
            self, monkeypatch):
        # with no handoff a setup phase ends its episode, and a done row's
        # s' is in no row of its buffer. The AWTV reward of a failure is
        # squashed to 0 whatever V(s') is, so this reward reads V(s') alone.
        def next_value(target, obs, obs_next, r_env, terminal, action):
            return 0.0 if terminal else target.target_value(obs_next)

        log, update, dones = reward_log(monkeypatch), Trainer.update, []

        def spy_update(trainer, workers):
            dones.extend(drv.buffer.dones.sum() for drv in workers)
            update(trainer, workers)

        monkeypatch.setattr(Trainer, "update", spy_update)

        def run():
            env, default_net, d_norm, module = fast_training_world()
            module.setup_net.params["switch.b"][0] = -30.0
            curve = train_setup(module, default_net, d_norm, env,
                                PPOConfig(horizon=48, minibatch=8, epochs=1),
                                4000, np.random.default_rng(8),
                                reward_fn=next_value, eval_every=0,
                                eval_episodes=0, n_workers=2)
            return training_digest(module.setup_net, module.setup_norm, curve)

        deferred = run(), log[:]
        assert sum(dones) > 0
        log.clear()
        deferral_off(monkeypatch)
        assert (run(), log) == deferred

    def test_rows_deferred_where_the_budget_ends_are_never_filled(
            self, monkeypatch):
        env, default_net, d_norm, module = fast_training_world()
        buffers, fill = [], cp._fill_rewards
        log, filled = reward_log(monkeypatch), filled_rows(monkeypatch)

        def spy_fill(trainer, drivers):
            buffers[:] = [drv.buffer for drv in drivers]
            fill(trainer, drivers)

        monkeypatch.setattr(cp, "_fill_rewards", spy_fill)
        curve = train_setup(module, default_net, d_norm, env,
                            PPOConfig(horizon=48, minibatch=8, epochs=1),
                            2500, np.random.default_rng(8), eval_every=0,
                            eval_episodes=0, n_workers=2)
        assert curve[-1][0] == 2500 and len(filled) == 2 * len(log) > 0
        # the last segment deferred rows, and no update read or filled them
        assert all(buf._pending[:len(buf)].any() for buf in buffers)

    def test_the_proximity_arm_defers_nothing(self, monkeypatch):
        # its reward keeps each observation it is asked about, in order
        defers, filled = [], filled_rows(monkeypatch)
        monkeypatch.setattr(RolloutBuffer, "defer_reward",
                            lambda buf: defers.append(buf))
        env, walker, walker_norm, module = fast_training_world()
        _, curve = train_proximity_arm(
            module, walker, walker_norm, env,
            PPOConfig(horizon=16, minibatch=8, epochs=2), 3000,
            np.random.default_rng(5), eval_every=0, eval_episodes=0)
        assert curve[-1][1] > 0 and len(filled) > 0
        assert defers == [] and sum(filled) == 0

    def test_a_deferred_last_row_reads_its_driver_and_survives_filled(
            self, monkeypatch):
        # a buffer's last row takes s' from its paused driver, which acts
        # from there after the update; the row survives clear_except_last
        # with its filled reward
        env, default_net, d_norm, module = fast_training_world()
        fill, survivors = cp._fill_rewards, []

        def spy_fill(trainer, drivers):
            lasts = [(drv.buffer, len(drv.buffer) - 1, drv.observation(),
                      float(drv.buffer.rewards[-1])) for drv in drivers
                     if drv.buffer._pending[len(drv.buffer) - 1]]
            fill(trainer, drivers)
            for buf, last, obs_next, r_env in lasts:
                want = awtv_step_reward(
                    cp.CarriedTarget(module), buf.raw_obs[last].copy(),
                    obs_next, r_env, False, buf.actions[last].copy())
                assert buf.rewards[last].hex() == want.hex()
                survivors.append((buf, want))

        update = Trainer.update

        def spy_update(trainer, workers):
            update(trainer, workers)
            while survivors:
                buf, want = survivors.pop()
                assert len(buf) == 1 and buf.rewards[0] == want
                checked.append(want)

        checked = []
        monkeypatch.setattr(cp, "_fill_rewards", spy_fill)
        monkeypatch.setattr(Trainer, "update", spy_update)
        train_setup(module, default_net, d_norm, env,
                    PPOConfig(horizon=48, minibatch=8, epochs=1), 4000,
                    np.random.default_rng(8), eval_every=0, eval_episodes=0,
                    n_workers=2)
        assert len(checked) >= 2
