"""Comparison arms for the bridged-locomotion experiments.

Every arm shares the bridged state machine, environment, and evaluation
protocol from `composer`; each differs from the main method in exactly one
treatment:

- reward variants: the setup policy trains on a different per-step reward,
  one of the functions in `SETUP_REWARDS` (the table maps each variant tag to
  its `reward_fn(target, obs, obs_next, r_env, terminal, action)`). Each
  takes floats for one transition on `tick()`, or (k,) arrays over the live
  tails of a lane batch, with one definition of its arithmetic for both
  (see the `composer` module docstring);
- proximity arm: the setup reward is the gain in a learned success-proximity
  predictor, with no post-handoff reward extension;
- without-setup arm: control jumps straight from the default walker to the
  terrain specialist at detection (evaluation only:
  `run_lanes(episode_drivers(..., without_setup=True))`);
- single-policy arm: one network trained end-to-end over the whole course.
"""

from collections import deque

import numpy as np

from gaitbridge.composer import (
    BehaviorModule,
    awtv_step_reward,
    train_setup,
    train_target,
    ACTION_DIM,
    FLAT,
)
from gaitbridge.diffcore import (
    AdamState,
    ParameterizedNet,
    adam_step,
    sigmoid,
    switch_bce_grad,
)
from gaitbridge.terrainsim import OBS_DIM

CONSTANT_REWARD = 1.5
TORQUE_SCALE = 2.0
FIT_EVERY = 10  # finished episodes between proximity-predictor refits


# ---- setup-reward variants -----------------------------------------------------


def original_reward(target, obs, obs_next, r_env, terminal, action):
    """The environment's own reward."""
    return r_env


def constant_reward(target, obs, obs_next, r_env, terminal, action):
    """A fixed reward for every setup tick."""
    return CONSTANT_REWARD


def target_torque_reward(target, obs, obs_next, r_env, terminal, action):
    """exp(-k |a - a_target|^2): how closely the setup action imitates the
    target policy's mean action in the same state. `np.vecdot` squares each
    row of a batch as `np.dot` squares one row; `(d * d).sum()` does not."""
    diff = action - target.target_action(obs)
    return np.exp(-TORQUE_SCALE * np.vecdot(diff, diff))


def target_value_reward(target, obs, obs_next, r_env, terminal, action):
    """beta * V(s): the target's value with no surprise discount."""
    return target.params.beta * target.target_value(obs)


# tag -> per-step setup reward; "awtv" is the main method's reward
SETUP_REWARDS = {
    "original": original_reward,
    "constant": constant_reward,
    "target-torque": target_torque_reward,
    "target-value": target_value_reward,
    "awtv": awtv_step_reward,
}
VARIANT_TAGS = tuple(SETUP_REWARDS)


# ---- proximity-predictor arm ------------------------------------------------------


class ProximityPredictor:
    """Success-proximity regressor P: observation -> [0, 1].

    A small tanh net whose logistic head is fit by cross-entropy on states
    from successful (label 1) and failed (label 0) bridge attempts, each kept
    in a FIFO buffer of `BUFFER_CAP` states. Raw observations go in
    unnormalized; the observation space is already bounded.
    """

    BUFFER_CAP = 50_000
    HIDDEN = (32, 32)
    LR = 1e-3
    MINIBATCHES = 40  # per fit
    BATCH_SIZE = 64

    def __init__(self, rng):
        self.net = ParameterizedNet(OBS_DIM, ACTION_DIM, self.HIDDEN, rng)
        self.adam = AdamState(lr=self.LR)
        self.success = deque(maxlen=self.BUFFER_CAP)
        self.failure = deque(maxlen=self.BUFFER_CAP)

    def predict(self, obs):
        net = self.net
        logit = net.scalar_head("switch", net.trunk(np.asarray(obs, dtype=np.float64)))
        return float(sigmoid(logit))

    def add_episode(self, states, succeeded):
        bucket = self.success if succeeded else self.failure
        for s in states:
            bucket.append(np.asarray(s, dtype=np.float64))

    def fit(self, rng):
        """`MINIBATCHES` balanced cross-entropy steps of `BATCH_SIZE` rows;
        silently waits for both classes."""
        if not self.success or not self.failure:
            return None
        pos = np.asarray(self.success)
        neg = np.asarray(self.failure)
        half = self.BATCH_SIZE // 2
        losses = []
        for _ in range(self.MINIBATCHES):
            pi = rng.integers(0, len(pos), size=half)
            ni = rng.integers(0, len(neg), size=half)
            obs = np.concatenate([pos[pi], neg[ni]])
            labels = np.concatenate([np.ones(half), np.zeros(half)])
            loss = self._bce_step(obs, labels.reshape(-1, 1))
            losses.append(loss)
        return float(np.mean(losses))

    def _bce_step(self, obs, labels):
        grad = np.empty(self.net.flat.size)
        loss = switch_bce_grad(self.net, obs, labels, grad)
        adam_step(self.net, grad, self.adam)
        return loss


def proximity_reward(predictor, s_t, s_next):
    """Dense shaping from predicted success proximity: P(s') - P(s)."""
    return predictor.predict(s_next) - predictor.predict(s_t)


def train_proximity_arm(module: BehaviorModule, default_net, default_norm,
                        env, config, budget, rng, *, eval_every=50,
                        eval_episodes=100, seed_tag=0):
    """Transition-policy arm: same state machine, proximity-gain reward.

    The setup policy (initialized from the walker by the caller, via
    BehaviorModule.from_default) trains on P(s') - P(s) with no post-handoff
    extension, while P itself refits every `FIT_EVERY` finished episodes on
    the accumulated success/failure states. Returns (predictor, curve).
    """
    predictor = ProximityPredictor(rng)
    episode_states = []
    episodes_done = 0

    def reward_fn(mod, obs, obs_next, r_env, terminal, action):
        episode_states.append(np.array(obs, copy=True))
        return proximity_reward(predictor, obs, obs_next)

    def on_episode_end(driver):
        nonlocal episodes_done
        if episode_states:
            predictor.add_episode(episode_states, driver.state.success)
            episode_states.clear()
        episodes_done += 1
        if episodes_done % FIT_EVERY == 0:
            predictor.fit(rng)

    curve = train_setup(module, default_net, default_norm, env, config,
                        budget, rng, reward_fn=reward_fn, extend=False,
                        eval_every=eval_every, eval_episodes=eval_episodes,
                        n_workers=1, seed_tag=seed_tag,
                        on_episode_end=on_episode_end)
    return predictor, curve


# ---- single end-to-end policy -------------------------------------------------------


def train_single_policy(course, budget, rng, *, config=None, eval_every=50,
                        eval_episodes=100, seed_tag=0):
    """One PPO policy over the full course from standard spawns.

    Uses the flat-walker training recipe (plain resets, 95% early stop) on
    the given course, but with the full terrain-aware observation; a final
    success rate below 50% is reported in the curve rather than raised,
    since this arm is expected to fail on artifact courses.
    """
    return train_target(FLAT, budget, rng, config=config, course=course,
                        eval_every=eval_every, eval_episodes=eval_episodes,
                        seed_tag=seed_tag, min_final=None, obs_dim=OBS_DIM)
