"""Policy bridging: default -> setup -> target -> default switching.

A bridged episode walks with the default policy, hands control to a
per-terrain setup policy when the oracle reports an artifact ahead, lets the
setup policy's learned switch bit decide when the frozen terrain specialist
takes over, and reverts to the default policy once the artifact is behind the
runner and contact is re-established.

Setup policies train against a shaped reward: the target policy's value at the
current state, scaled down by how badly the one-step TD advantage (computed
with the target's own value function) deviates from zero. Value estimates are
only trusted where the target policy has been; a large advantage magnitude
flags an out-of-distribution state and squashes the reward. After the handoff,
each subsequent shaped reward of the episode is folded into the setup buffer's
entry of the handoff, so the setup policy is credited for what the specialist
achieves from the states it prepared.

Drivers. `EpisodeDriver` is the only code that steps the runner: evaluation,
setup training and target training all run drivers. It hands control over
through `SwitchState.transition` at the oracle's detection (to setup, or
straight to target in the no-setup arm), at the setup policy's handoff bit,
and at the target's release once `tau_theta_reached`. On each tick one
policy acts, under normalizer statistics that stay frozen while it acts.
Only the trainer's own net learns: it samples its action and stores the
transition with its raw observation row, which `Trainer.update` merges into
the statistics after the update that learns from it. Every other policy
acts on its mean, but a setup policy keeps sampling: its handoff is a
learned per-tick probability. A policy runs its trunk and then only the
heads read (see `diffcore.net`). Target training is a driver with no
modules whose default policy learns on the environment reward; setup
training trains one module's setup policy on a shaped reward. `_train` runs
both round-robin, one live `tick()` per worker's turn, each worker into its
own buffer. A worker draws from a stream of its own and acts under
statistics that only an update moves, so the order in which workers tick
moves no result.

Opening replay. The frozen walker's opening, its ticks on the flat ground
short of the first artifact, is the same in every episode, training or
evaluation. With no `init_fn` the walker spawns standing short of the
artifact (a valid course starts it at or past `SPAWN_MAX_X`) and acts on its
mean; while the artifact starts more than the walker's reach ahead
(DETECT_RANGE, or for a walker that reads the terrain OBS_RANGE, where
`observe` clips the distance), nothing is detected or switched and
`TerrainEnv.step` finds flat ground and no goal, so each step is the same
function of (v, w, h, c, contact, steps). A record holds it, taken from
live ticks: entry t holds the runner's (v, w, h, c, contact) after its step
from t to t + 1, and dx = v * DT, what that step added to x.
`replay_opening` copies the state of each tick it can replay in one call:
nothing observes, acts or steps. A tick that runs live at the record's end
is recorded at the next pass, unless it ended its episode, so a replay never
ends one, and no entry is overwritten. In setup training the record is
`Trainer.opening`, for one walker on one course for one `train_setup` call,
which checks that the walker stayed frozen: at a worker's turn `_train`
first replays what it can, up to the budget's room, then ticks it live. In
evaluation `run_lanes` gives its lanes one record per walker (net, norm),
and per first artifact for a walker that reads its kind and height, before
it picks the batch or `run()`: a lane copies the record, and where it needs
more, ticks live itself and records those ticks, so each entry runs once.

Tails. Once the trained setup policy has handed off and no artifact is left
for a setup policy, a training episode only folds rewards (`folds_only`):
frozen policies act on their means and nothing draws. At its worker's turn
`_train` parks such a tail and starts the worker's next episode. Once every
buffer is full, the tails parked since the last update run in one
`run_lanes` call, just before the update that reads their folds, in the
order of workers ticking in turn, one tick each: a batch's lane order moves
the last bits of its folds. Their ticks count then, as many as on `tick()`.
Once they pass the budget, which on `tick()` runs out inside this segment,
they stop, and training ends at the budget with no update. A handoff that
fills its buffer is parked after the update and folds into the survivor of
`clear_except_last`, as on `tick()`; tails parked after the last update
never run. As a tail draws nothing, each worker's draws keep their order,
and while fewer than `LANE_CROSSOVER` tails run together (on `run()`) every
update equals that of ticking them, bit for bit: a tail on `run()` logs its
transitions and folds them at the run's end, one reward call over the
arrays and one add. Without `extend`, or with an `on_episode_end`, every
tail stays on `tick()`.

Lanes. `run_lanes` advances drivers together, one per lane: evaluation
episodes of any arm and any experiment cell, or one trainer's tails. While
at least `LANE_CROSSOVER` lanes are live, their runners step as one
`RunnerBatch` (`_run_batch`), and each acting policy, shared by whichever
lanes act with it, gets one normalize and one trunk pass per tick over its
lanes, then its mean head and, for a setup policy, its switch head; the
lanes left go on `run()`, cheaper there. Both paths take the switching
decisions from the driver: `policy()` maps the phase to (role, net, norm),
`on_detection` starts a bridge, `SwitchState.transition` latches and clears
the artifact, and `tau_theta_reached` releases a target, a bool for one
runner and a mask over a batch. An evaluation lane's opening replays, so up
to its end, for a terrain-blind walker the first detection, the lane equals
its `run()` exactly, floats included. After it a lane matches its driver's
`run()` in its discrete results (success, failure, steps, switches), and in
its positions and folds within 1e-9, not bit for bit: a batched forward
rounds unlike the one-row forward, and unlike one over other rows, so a
call's other lanes and the tick a lane leaves the batch may move its last
bits. Tails fold over arrays: each lockstep step makes one reward call for
all of them and one `add_reward` per buffer.

Setup rewards. A setup reward `reward_fn(target, obs, obs_next, r_env,
terminal, action)` takes floats for one transition, or (k,) arrays over k,
and returns a float or a (k,) array (a float stands for all k). Its
`target` gives the frozen specialist's `target_value` at `obs` or
`obs_next`, a float or (k,), its mean `target_action` at `obs`, (2,) or
(k, 2), and the AWTV `params`; `obs` and `obs_next` are one observation or
(k, OBS_DIM), `r_env` a float or (k,), `action` (2,) or (k, 2), and
`terminal` one bool. The target is the trainer's `target`, a `RowTarget`
that keeps nothing, so workers never write to their shared module: its
per-row passes give each row the floats of its one-row pass, so a reward
is the same float on `tick()` and in a row of an array call. A call of
tails passes a `TailTarget` over the batched passes. Only GAE reads a
reward, so a learning tick whose episode stays in its setup phase (no
handoff bit, not done, not folding) stores r_env and defers its reward:
just before an update `_fill_rewards` computes the buffers' deferred
rewards, a minibatch of rows per call. A row's s' is the next row's raw
observation, or its driver's for the last row. Rows deferred where the
budget ends are never read, nor filled. A handoff row stays eager, as
folds add onto it in order, and so do a done row, a fold (a tail on
`run()` computes its folds at the run's end), and every tick of a run with
an `on_episode_end`, whose reward may keep state. Array calls run under
`np.errstate` that lets arrays overflow silently, as floats do, and each
array operation a reward uses must round each row as its float operation
does (`+ - * /`, `np.minimum`, `np.exp`, `np.vecdot` do).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from gaitbridge.diffcore import AdamState, ParameterizedNet, sigmoid
from gaitbridge.policyopt import (
    PPOConfig,
    RolloutBuffer,
    RunningNormalizer,
    draw_act,
    policy_act,
    ppo_update,
)
from gaitbridge.terrainsim import (
    BLOCK,
    DETECT_RANGE,
    DT,
    CourseError,
    GAP,
    HURDLE,
    OBS_DIM,
    OBS_PROPRIO,
    OBS_RANGE,
    RunnerBatch,
    TerrainEnv,
    detects,
    flat_course,
    next_artifact,
    observe,
    single_artifact_course,
)

POLICY_DEFAULT = "default"
POLICY_SETUP = "setup"
POLICY_TARGET = "target"

FLAT = "flat"  # pseudo-kind for the default walking policy

ACTION_DIM = 2
DEFAULT_HIDDEN = (64, 64)

# per-tick handoff probability a new setup policy starts from
SETUP_SWITCH_PRIOR = 0.05

# live lanes below which `run_lanes` runs them on `run()`: a batch tick has
# a fixed cost of about ten scalar lane-ticks (gap+hurdle fixtures)
LANE_CROSSOVER = 10

# legal policy hand-offs; default->target exists only for the no-setup arm
_LEGAL_TRANSITIONS = {
    (POLICY_DEFAULT, POLICY_SETUP),
    (POLICY_SETUP, POLICY_TARGET),
    (POLICY_TARGET, POLICY_DEFAULT),
    (POLICY_DEFAULT, POLICY_TARGET),
}


class SwitchError(RuntimeError):
    """Raised on an illegal policy transition (a harness bug, not bad data)."""


class TrainingFailure(RuntimeError):
    """Training budget exhausted below the minimum success bar."""

    def __init__(self, message, curve):
        super().__init__(message)
        self.curve = curve


@dataclass(frozen=True)
class AWTVParams:
    """Scaling constants of the advantage-weighted target-value reward."""

    alpha: float = 0.15
    beta: float = 0.01
    gamma: float = 0.99

    def __post_init__(self):
        if not (0 < self.alpha < np.inf and 0 < self.beta < np.inf):
            raise ValueError("alpha and beta must be finite and positive")
        if not 0 < self.gamma <= 1:
            raise ValueError("gamma must lie in (0, 1]")


def td_error(v_s, v_next, r_t, gamma):
    """r + gamma*V(s') - V(s) from values already evaluated: floats for one
    transition, or (k,) arrays, where v_next may be one float."""
    isfinite = (math.isfinite if isinstance(v_s, float)
                else lambda x: np.isfinite(x).all())
    if not (isfinite(v_s) and isfinite(v_next) and isfinite(r_t)):
        raise ValueError("the TD advantage needs finite reward and values")
    return r_t + gamma * v_next - v_s


def awtv_reward(advantage, v_s, params: AWTVParams):
    """(1 - min(alpha*A^2, 1)) * beta * V(s): value, discounted by surprise;
    floats for one transition, or (k,) arrays."""
    surprise = params.alpha * advantage * advantage
    # np.minimum gives min's bits, at several times its cost on a float
    clip = min if isinstance(surprise, float) else np.minimum
    return (1.0 - clip(surprise, 1.0)) * params.beta * v_s


@dataclass
class SwitchEvent:
    step: int
    src: str
    dst: str
    x: float
    c: float
    v: float


class SwitchState:
    """Which policy acts, the artifact it acts on, and the transition log."""

    def __init__(self):
        self.active = POLICY_DEFAULT
        self.artifact = None
        self.events = []

    def transition(self, dst, runner, artifact=None):
        """Hand control to `dst`, logged at the runner's step and state.
        Leaving the walker latches `artifact`; returning to it clears it."""
        if (self.active, dst) not in _LEGAL_TRANSITIONS:
            raise SwitchError(f"illegal transition {self.active} -> {dst}")
        self.events.append(SwitchEvent(runner.steps, self.active, dst,
                                       runner.x, runner.c, runner.v))
        if dst == POLICY_DEFAULT:
            self.artifact = None
        elif self.active == POLICY_DEFAULT:
            self.artifact = artifact
        self.active = dst


def tau_theta_reached(runner, end):
    """Target-phase termination: the artifact's `end` behind the runner, and
    contact restored; a RunnerState gives a bool, a RunnerBatch a lane mask."""
    return (runner.x > end) & runner.contact


def policy_obs(net, obs_raw):
    """Trim a raw observation to the policy's own input width.

    Terrain-blind policies (the default walker) read only the proprioceptive
    prefix, which makes their behavior identical on every course; full-width
    policies receive the observation unchanged. A (B, OBS_DIM) batch is
    trimmed row by row.
    """
    if obs_raw.shape[-1] == net.obs_dim:
        return obs_raw
    return obs_raw[..., :net.obs_dim]


def policy_trunk(net, norm, obs_raw):
    """Trunk output of a policy that does not learn from this read: a raw
    observation or batch, trimmed to the policy's input width, normalized."""
    return net.trunk(norm.normalize(policy_obs(net, obs_raw)))


def prime_switch_head(net):
    """Reset a policy's handoff head to a state-independent low prior.

    Zeroed weights with a logit(SETUP_SWITCH_PRIOR) bias make the initial
    handoff a geometric draw (~1/prior setup ticks on average), long enough
    to gather setup experience; training then reshapes both weights and bias.
    """
    prior = SETUP_SWITCH_PRIOR
    net.params["switch.w"][...] = 0.0
    net.params["switch.b"][...] = np.float32(np.log(prior / (1.0 - prior)))
    return net


def lift_to_terrain_obs(net, norm):
    """Widen a terrain-blind policy to the full observation vector.

    The walker's weights land in the proprioceptive input rows and the new
    terrain rows start at zero, so the lifted policy behaves exactly like
    the walker until training puts weight on what it now can see. The
    normalizer keeps the walker's statistics for the shared dimensions and
    starts the terrain dimensions at an identity (mean 0, variance 1) over
    the walker's count, which is the one count the normalizer keeps.
    """
    if net.obs_dim == OBS_DIM:
        return net.copy(), norm.copy()
    fc0 = np.zeros((OBS_DIM, net.hidden[0]), dtype=np.float32)
    fc0[:net.obs_dim] = net.params["fc0.w"]
    lifted = ParameterizedNet.from_params({**net.params, "fc0.w": fc0})
    return lifted, norm.widened(OBS_DIM)


@dataclass
class BehaviorModule:
    """Frozen terrain specialist plus its trainable setup companion."""

    kind: str
    target_net: ParameterizedNet
    target_norm: RunningNormalizer
    setup_net: ParameterizedNet
    setup_norm: RunningNormalizer
    params: AWTVParams = field(default_factory=AWTVParams)

    @classmethod
    def from_default(cls, kind, target_net, target_norm, default_net,
                     default_norm, params=None):
        """Setup policy starts as a behavioral copy of the default walker.

        A terrain-blind walker is widened to the full observation first
        (initially ignoring the new inputs), and the handoff head is
        re-primed: the walker never trained it, so a copied head would
        commit to some arbitrary saturated handoff rate.
        """
        setup_net, setup_norm = lift_to_terrain_obs(default_net, default_norm)
        prime_switch_head(setup_net)
        return cls(kind, target_net, target_norm,
                   setup_net, setup_norm, params or AWTVParams())

    @classmethod
    def fresh(cls, kind, target_net, target_norm, rng, params=None):
        """Ablation arm: randomly initialized setup policy and statistics.

        The handoff head still gets the shared prior so this arm differs
        from the walker-initialized one only in its action/value weights.
        """
        net = ParameterizedNet(OBS_DIM, ACTION_DIM, DEFAULT_HIDDEN, rng)
        prime_switch_head(net)
        return cls(kind, target_net, target_norm, net,
                   RunningNormalizer(OBS_DIM), params or AWTVParams())


# one lockstep step of a call of tails: the (k, OBS_DIM) observations, the
# target's values there, its trunk outputs at the lanes it does not
# drive (`others`, a mask; zero rows elsewhere), and the actions and env
# rewards of the step
TailStep = namedtuple("TailStep", "obs values trunks others actions rewards")


class TailTarget(namedtuple("TailTarget", "module step v_next")):
    """The trained module's target as a setup reward reads it over the k
    tails of one `TailStep`: V(s) and the mean action at `step.obs`, and
    V(s') at any other observation, `v_next`.

    The values are the batched passes'. The means are computed when read: a
    lane the target drives acted on its mean, so its mean is its action;
    another lane's is a per-row product of its trunk output (`np.vecmat`),
    as `RowTarget` reads a row.
    """

    params = property(lambda self: self.module.params)

    def target_value(self, obs_raw):
        return self.step.values if obs_raw is self.step.obs else self.v_next

    def target_action(self, obs_raw):
        step, params = self.step, self.module.target_net.params
        return np.where(step.others[:, None], np.vecmat(
            step.trunks, params["mu.w"]) + params["mu.b"], step.actions)


class RowTarget(namedtuple("RowTarget", "module")):
    """A module's frozen target as a setup reward reads it, at one
    observation or over (k, OBS_DIM) rows, each row through a pass of its
    own (`trunk_rows`, `np.vecdot`, `np.vecmat`), so each row gets the
    floats of its one-row pass. It keeps nothing between reads: a trainer's
    one view serves every worker. One observation's value is a float, which
    overflows silently as a reward's float operations do; an np.float64
    would warn."""

    params = property(lambda self: self.module.params)

    def _rows(self, obs_raw):
        net, norm = self.module.target_net, self.module.target_norm
        h = net.trunk_rows(norm.normalize(policy_obs(net, obs_raw)))
        return h, net.params

    def target_value(self, obs_raw):
        h, p = self._rows(obs_raw)
        value = np.vecdot(h, p["value.w"][:, 0]) + p["value.b"][0]
        return value if value.ndim else float(value)

    def target_action(self, obs_raw):
        h, p = self._rows(obs_raw)
        return np.vecmat(h, p["mu.w"]) + p["mu.b"]


def awtv_step_reward(target, obs, obs_next, r_env, terminal, action):
    """Per-step setup reward from the frozen target value function, for one
    transition or over k tails (see the module docstring).

    `target` is a RowTarget or a TailTarget; V(s) is read once.
    """
    v_s = target.target_value(obs)
    v_next = 0.0 if terminal else target.target_value(obs_next)
    adv = td_error(v_s, v_next, r_env, target.params.gamma)
    return awtv_reward(adv, v_s, target.params)


class Trainer:
    """The policy being trained and its PPO state, shared by every worker.

    With a `module` it trains that module's setup policy on `reward_fn`,
    folds post-handoff rewards into the handoff's row when `extend` is set,
    keeps each buffer's last transition across an update, and keeps
    `opening`, the record of the walker's opening (see the module
    docstring), and `target`, the `RowTarget` every reward of its drivers
    reads. Without one it trains the drivers' default policy on the
    environment reward and empties the buffers. The PPO shuffle draws from
    `shuffle`, the first stream spawned from `rng`; `_train` spawns the
    workers' streams after it.
    """

    def __init__(self, net, norm, config, rng, *, module=None,
                 reward_fn=awtv_step_reward, extend=True):
        self.net = net
        self.norm = norm
        self.config = config
        self.adam = AdamState(lr=config.lr)
        self.rng = rng
        self.shuffle = rng.spawn(1)[0]
        self.module = module
        self.reward_fn = reward_fn
        self.extend = extend
        self.updates = 0
        self.opening = None if module is None else []
        self.target = None if module is None else RowTarget(module)
        self.defers = False  # set by _train: setup rewards may wait

    def update(self, drivers):
        """One PPO update from every driver's full buffer under the statistics
        that acted, then the merge of their new raw rows into the statistics,
        in driver order: each learning tick's row is merged once, the
        survivor of `clear_except_last` at the update that first learned
        from it."""
        buffers = [drv.buffer for drv in drivers]
        # a horizon cut mid-phase bootstraps from the state acted on next
        bootstraps = [0.0 if drv.buffer.dones[-1] else self.net.scalar_head(
            "value", policy_trunk(self.net, self.norm, drv.observation()))
            for drv in drivers]
        ppo_update(self.net, buffers, bootstraps, self.config, self.adam,
                   self.shuffle)
        for buf in buffers:
            self.norm.merge(buf.take_raw())
            if self.module is None:
                buf.clear()
            else:
                buf.clear_except_last()
        self.updates += 1


class EpisodeDriver:
    """Advances one bridged episode one environment tick at a time.

    A learning policy appends to `buffer`; any other acts as a frozen
    policy. `init_fn(env, rng)` replaces the standard spawn. `folding` is
    set to the trainer's `extend` at the trained setup policy's handoff,
    whose row is `fold_row`. A tail on `run()` logs its transitions in
    `_folds` and folds them when the run ends.
    """

    def __init__(self, env, default_net, default_norm, modules, rng, *,
                 trainer: Trainer = None, buffer: RolloutBuffer = None,
                 without_setup=False, init_fn=None):
        if without_setup and trainer is not None:
            raise ValueError("the no-setup arm is evaluation-only")
        if (trainer is None) != (buffer is None):
            raise ValueError("trainer and buffer come together")
        if trainer is not None and (
                trainer.net is not default_net if trainer.module is None
                else modules.get(trainer.module.kind) is not trainer.module):
            raise ValueError("the trainer's net must be a driver policy")
        self.env = env
        self.default_net = default_net
        self.default_norm = default_norm
        self.modules = modules
        self.rng = rng
        self.trainer = trainer
        self.buffer = buffer
        self.without_setup = without_setup
        self.state = init_fn(env, rng) if init_fn else env.reset(rng)
        self.switch = SwitchState()
        self.folding = False
        self.fold_row = None  # number of the last row it stored
        self._obs = None  # observation of self.state, once taken
        self._ahead = None  # its next artifact, found with it
        self._folds = None  # (obs, obs', r_env, action) of a tail on run()
        # (record, first artifact's start, walker's reach) while the
        # walker's opening may replay; with no init_fn the runner spawns
        # standing on the flat ground short of the first artifact. An
        # evaluation driver's record is None until its first replay.
        self._opening = None
        first = env.course.artifacts[:1]
        record = None if trainer is None else trainer.opening
        if ((trainer is None or record is not None) and init_fn is None
                and first):
            reach = (DETECT_RANGE if default_net.obs_dim <= OBS_PROPRIO
                     else max(DETECT_RANGE, OBS_RANGE))
            self._opening = record, first[0].start, reach

    @property
    def done(self):
        return self.state.done

    def observation(self):
        """Observation of the current state, taken once between steps; the
        course scan behind it leaves the next artifact in `_ahead`."""
        if self._obs is None:
            self._ahead = next_artifact(self.env.course, self.state.x)
            self._obs = observe(self.env.course, self.state, self._ahead)
        return self._obs

    def policy(self):
        """(role, net, norm) of the policy acting in the current phase."""
        role = self.switch.active
        if role == POLICY_DEFAULT:
            return role, self.default_net, self.default_norm
        module = self.modules[self.switch.artifact.kind]
        if role == POLICY_SETUP:
            return role, module.setup_net, module.setup_norm
        return role, module.target_net, module.target_norm

    def on_detection(self, art, runner):
        """The walker detected `art`, which the driver has a module for: hand
        control to its setup policy, or to its target in the no-setup arm."""
        self.switch.transition(POLICY_TARGET if self.without_setup
                               else POLICY_SETUP, runner, art)

    def replay_opening(self, room, openings=None):
        """Copy at most `room` of the walker's ticks from its opening record,
        tick t from entry t, once the last tick, if it ran live at the
        record's end and did not end the episode, is recorded; returns the
        ticks copied, none once the opening is over. An evaluation driver
        takes its walker's record from `openings`, those of one `run_lanes`
        call, and at the record's end ticks live itself until its opening
        is over or its episode ends; `_train` ticks a worker. The handle is
        dropped once the artifact is within reach: while it is set, the last
        pass left x more than the reach short of the artifact, and one live
        tick moves far less, so a recorded step never reaches the
        artifact."""
        if self._opening is None:
            return 0
        record, start, reach = self._opening
        if record is None:
            # a full-width walker reads the first artifact's kind and height
            net = self.default_net
            sight = (None if net.obs_dim <= OBS_PROPRIO
                     else self.env.course.artifacts[0])
            record = openings.setdefault((net, self.default_norm, sight), [])
            self._opening = record, start, reach
        state, replayed = self.state, 0
        while True:
            t, x = state.steps, state.x
            if t == len(record) + 1 and not state.done:
                record.append((state.v, state.w, state.h, state.c,
                               state.contact, state.v * DT))
            end = min(len(record), t + room)
            while t < end and start - x > reach:
                x += record[t][5]
                t += 1
            if not start - x > reach:
                self._opening = None
            if t > state.steps:
                replayed += t - state.steps
                state.v, state.w, state.h, state.c, state.contact, _ = (
                    record[t - 1])
                state.x, state.steps = x, t
                self._obs = None
            if (self._opening is None or self.trainer is not None
                    or state.done):
                return replayed
            self.tick()  # the next pass records it

    def tick(self):
        """One environment step. Returns True when the episode finished."""
        trainer, state, switch = self.trainer, self.state, self.switch
        if (switch.active == POLICY_TARGET
                and tau_theta_reached(state, switch.artifact.end)):
            switch.transition(POLICY_DEFAULT, state)
        if switch.active == POLICY_DEFAULT and self.modules:
            self.observation()  # one course scan serves both
            art = self._ahead
            if detects(art, state) and art.kind in self.modules:
                self.on_detection(art, state)
        acting, net, norm = policy = self.policy()
        obs = self.observation()

        bit = None
        learning = trainer is not None and net is trainer.net
        if learning or acting == POLICY_SETUP:
            # a learning tick keeps its raw row for the trainer's merge
            x = policy_obs(net, obs)
            obs_n = norm.normalize(x)
            action, bit, mean, logit, h = policy_act(
                net, obs_n, self.rng, with_switch=acting == POLICY_SETUP)
        else:
            action = net.head("mu", policy_trunk(net, norm, obs))

        r_env, done = self.env.step(state, action)
        self._obs = None
        if bit == 1 and not done:
            # a handoff bit of 1 passes control from setup to target
            switch.transition(POLICY_TARGET, state)

        if self._folds is not None:
            self._folds.append((obs, self.observation(), r_env, action))
            return done
        r_step = r_env  # what a learning tick stores, or a folding one adds
        if self.folding or (learning and acting == POLICY_SETUP):
            if trainer.defers and not (self.folding or done or bit):
                self.buffer.defer_reward()  # the setup phase goes on
            else:
                r_step = trainer.reward_fn(trainer.target, obs,
                                           self.observation(), r_env, done,
                                           action)
        if learning:
            self.fold_row = self.buffer.append(
                obs_n, action, bit, mean, logit, r_step,
                net.scalar_head("value", h), done or bit == 1, x)
            if bit == 1:
                self.folding = trainer.extend
        elif self.folding:
            # into the handoff's row, whichever policy is acting by now
            self.buffer.add_reward(self.fold_row, r_step)
        return done

    def folds_only(self):
        """Whether the rest of this training episode only folds rewards: it
        is `folding`, no setup policy acts, and no artifact the driver has a
        module for is ahead, but the one a target acts on."""
        if not self.folding or self.switch.active == POLICY_SETUP:
            return False
        latched, x = self.switch.artifact, self.state.x
        return not any(art.kind in self.modules and art.end >= x
                       and art is not latched
                       for art in self.env.course.artifacts)

    def run(self, limit=math.inf):
        """Tick until the episode ends or its ticks pass `limit`; returns
        the driver. A tail (`folds_only`) logs each tick's transition and
        folds the log at the end: one reward call over its arrays, then one
        `add_reward` into the handoff's row, which adds in tick order. Only
        the last transition can end the episode; that one's reward is the
        one-row call's, as on `tick()`."""
        self._folds = [] if self.folds_only() else None
        while not self.done and limit >= 0:
            self.tick()
            limit -= 1
        log, self._folds = self._folds, None
        if log:
            trainer = self.trainer
            obs, obs_next, r_env, actions = map(np.array, zip(*log))
            r_hat = np.empty(len(log))
            with np.errstate(over="ignore", invalid="ignore"):
                r_hat[:] = trainer.reward_fn(trainer.target, obs, obs_next,
                                             r_env, False, actions)
            if self.done:
                obs, obs_next, r_env, action = log[-1]
                r_hat[-1] = trainer.reward_fn(trainer.target, obs, obs_next,
                                              r_env, True, action)
            self.buffer.add_reward(np.full(len(log), self.fold_row), r_hat)
        return self


def run_lanes(drivers, limit=math.inf):
    """Run evaluation drivers, or the tails of one trainer (`folds_only`),
    together until they end or their ticks pass `limit`; returns the
    drivers. Any other call is rejected. Each lane brings its own policies,
    arm and modules. An evaluation lane first replays its walker's opening,
    whose ticks `limit` does not count (see the module docstring).
    """
    if len({drv.trainer for drv in drivers}) > 1 or any(
            drv.trainer is not None and not drv.folds_only()
            for drv in drivers):
        raise ValueError("run_lanes runs evaluation drivers or the training "
                         "tails of one trainer")
    openings = {}  # by walker, the opening record its lanes share
    for drv in drivers:
        if drv.trainer is None:
            drv.replay_opening(math.inf, openings)
    steps = sum(drv.state.steps for drv in drivers)
    live = [drv for drv in drivers if not drv.done]
    if len(live) >= LANE_CROSSOVER:
        live = _run_batch(live, limit)
    limit += steps - sum(drv.state.steps for drv in drivers)
    for drv in live:
        steps = drv.state.steps
        limit -= drv.run(limit).state.steps - steps
    return drivers


def _run_batch(lanes, limit=math.inf):
    """Tick the live lanes of one `run_lanes` call as one RunnerBatch until
    fewer than LANE_CROSSOVER are left or their ticks pass `limit`; writes
    each lane back into its driver and returns those left.

    A lane's acting policy is a code into a table of its driver's
    `policy()` triples, matched by identity, so lanes that act with the same
    net and normalizer share a code, whichever arm or cell they run. Tails
    look for no artifact: `folds_only` holds none ahead. A setup lane
    samples from its driver's generator through `draw_act`, as `policy_act`
    does. Tails share their trained module's target: each step keeps its
    `TailStep`, whose rewards fold once the next step gives V(s'); a tail
    that ends folds with its last step, and the tails written back alive
    take V(s') from one call of the trainer's `target` over their
    observations. Each tail's buffer, as a code, and its handoff's row are
    kept in arrays compacted with the lanes.
    """
    trainer = lanes[0].trainer  # None in an evaluation
    # the (role, net, norm) of the tails' target as it acts
    specialist = trainer and (POLICY_TARGET, trainer.module.target_net,
                              trainer.module.target_norm)
    looks = trainer is None and any(drv.modules for drv in lanes)
    # (role, net, norm) -> code, in the order added; nets and norms hash by
    # identity
    code_of = {}

    def phase(drv):
        """(policy code, release x) of a lane: the end of the artifact a
        target acts on, past which it hands back; +inf otherwise."""
        policy = drv.policy()
        return code_of.setdefault(policy, len(code_of)), (
            drv.switch.artifact.end if policy[0] == POLICY_TARGET else np.inf)

    code, release_x = (np.array(column) for column in
                       zip(*(phase(drv) for drv in lanes)))
    batch = RunnerBatch([drv.env.course for drv in lanes],
                        [drv.state for drv in lanes])
    obs = batch.observe()
    last = None  # in a call of tails, the last step, whose rewards await V(s')
    if trainer:
        # each tail's buffer, a code into `buffers`, and its handoff's row
        buffers = list(dict.fromkeys(drv.buffer for drv in lanes))
        buf_code = np.array([buffers.index(drv.buffer) for drv in lanes])
        fold_rows = np.array([drv.fold_row for drv in lanes])

    def switch_lane(i, dst):
        lanes[i].switch.transition(dst, batch.state(i))
        code[i], release_x[i] = phase(lanes[i])

    def write_back(rows):
        for i in rows:
            lanes[i].state, lanes[i]._obs = batch.state(i), None

    def fold(step, obs_next, v_next, terminal, codes, rows):
        """Add each tail's shaped reward for its transition from `step` into
        its handoff's row, `rows`, of its buffer, `codes`: one add per
        buffer."""
        target = TailTarget(trainer.module, step, v_next)
        with np.errstate(over="ignore", invalid="ignore"):
            r_hat = np.broadcast_to(trainer.reward_fn(
                target, step.obs, obs_next, step.rewards, terminal,
                step.actions), rows.shape)
        for b, buf in enumerate(buffers):
            mine = codes == b
            if mine.any():
                buf.add_reward(rows[mine], r_hat[mine])

    while len(lanes) >= LANE_CROSSOVER and limit >= 0:
        limit -= len(lanes)
        for i in tau_theta_reached(batch, release_x).nonzero()[0]:
            switch_lane(i, POLICY_DEFAULT)
        if looks:
            hit, index = batch.detect()
            walks = np.array([role == POLICY_DEFAULT for role, *_ in code_of])
            for i in (hit & walks[code]).nonzero()[0]:
                drv = lanes[i]
                art = drv.env.course.artifacts[index[i]]
                if art.kind in drv.modules:
                    drv.on_detection(art, batch.state(i))
                    code[i], release_x[i] = phase(drv)

        policies = list(code_of)
        actions = np.empty((len(lanes), ACTION_DIM))
        values = np.empty(len(lanes))  # the target's, of tails
        handoffs = []
        lane_codes = code.tolist()
        # one group per acting policy, in the order of its first lane
        for p in sorted(set(lane_codes), key=lane_codes.index):
            rows = (code == p).nonzero()[0]
            role, net, norm = policies[p]
            # a lone row keeps the cheaper one-row pass of tick()
            x = obs[rows] if rows.size > 1 else obs[rows[0]]
            h = policy_trunk(net, norm, x)
            mu = net.head("mu", h)
            if role != POLICY_SETUP:
                actions[rows] = mu
                if policies[p] == specialist:
                    values[rows] = net.scalar_head("value", h)
                continue
            z = net.scalar_head("switch", h)
            if x.ndim == 1:
                mu, z = mu[None], np.array([z])
            std = net.std
            for i, mean, p_switch in zip(rows.tolist(), mu, sigmoid(z)):
                actions[i], bit = draw_act(mean, std, lanes[i].rng, p_switch)
                if bit:
                    handoffs.append(i)
        if trainer:
            # one pass of the target over the tails it does not drive
            _, net, norm = specialist
            others = code != code_of.get(specialist, -1)
            trunks = np.zeros((len(lanes), net.hidden[-1]))
            if others.any():
                trunks[others] = h = policy_trunk(net, norm, obs[others])
                values[others] = net.scalar_head("value", h)
            if last is not None:
                fold(last, obs, values, False, buf_code, fold_rows)

        done = batch.step(actions)
        for i in handoffs:
            if not done[i]:
                switch_lane(i, POLICY_TARGET)
        if trainer:
            last = TailStep(obs, values, trunks, others, actions,
                            batch.rewards())
        obs = batch.observe()
        if done.any():
            ended, keep = done.nonzero()[0], ~done
            if trainer:
                fold(TailStep._make(a[done] for a in last), obs[done], None,
                     True, buf_code[done], fold_rows[done])
                last = TailStep._make(a[keep] for a in last)
                buf_code, fold_rows = buf_code[keep], fold_rows[keep]
            write_back(ended)
            lanes = [drv for drv, kept in zip(lanes, keep) if kept]
            code, release_x, obs = code[keep], release_x[keep], obs[keep]
            batch.compact(keep)
    write_back(range(len(lanes)))
    if last is not None and lanes:
        # V(s') of the tails left, per row
        fold(last, obs, trainer.target.target_value(obs), False, buf_code,
             fold_rows)
    return lanes


def episode_drivers(env, default_net, default_norm, modules, episodes, rng,
                    without_setup=False, init_fn=None):
    """One evaluation driver per episode: episode i on the i-th generator of
    `rng.spawn(episodes)`."""
    return [EpisodeDriver(env, default_net, default_norm, modules, child,
                          without_setup=without_setup, init_fn=init_fn)
            for child in rng.spawn(episodes)]


# ---- initial-state distributions ---------------------------------------------


def artifact_approach_init(artifact):
    """Shaped spawn just short of the artifact: mid-approach, part-crouched."""
    def init(env, rng):
        offset = rng.uniform(0.3, 1.0)
        c = rng.uniform(0.4, 1.0)
        v = rng.uniform(0.0, 1.0)
        return env.reset_from(artifact.start - offset, v=v, c=c)
    return init


# ---- training ----------------------------------------------------------------


def _train(trainer, env, default_net, default_norm, modules, budget, *,
           eval_every, eval_episodes, seed_tag, eval_tag, init_fn=None,
           n_workers=1, stop_at=None, on_episode_end=None):
    """Round-robin PPO over `n_workers` drivers; returns (curve,
    steps_used, stopped).

    Each worker ticks into its own buffer on its own stream, spawned from
    the trainer's `rng`; a worker whose buffer is full pauses until every
    buffer is full, which triggers one joint update. Buffers and streams
    persist across episodes. Every `eval_every` updates (never when 0) and
    once at the end, unless the last row holds the last update,
    `eval_episodes` evaluation episodes on their own generator add a
    (steps_used, updates, success_rate) row to the curve; the rate is None
    with no episodes. A periodic rate at or above `stop_at` ends training
    (`stopped`). The module docstring describes the opening replay and the
    parked tails.
    """
    if eval_episodes < 0 or eval_every < 0:
        raise ValueError("eval_every and eval_episodes must be >= 0")
    curve = []

    def run_eval(steps_used):
        rate = None
        if eval_episodes:
            eval_rng = np.random.default_rng(
                (seed_tag, trainer.updates, eval_tag))
            lanes = run_lanes(episode_drivers(
                env, default_net, default_norm, modules, eval_episodes,
                eval_rng, init_fn=init_fn))
            rate = sum(1.0 for d in lanes if d.state.success) / eval_episodes
        curve.append((steps_used, trainer.updates, rate))
        return rate

    streams = trainer.rng.spawn(n_workers)

    def new_driver(worker, buffer):
        return EpisodeDriver(env, default_net, default_norm, modules,
                             streams[worker], trainer=trainer, buffer=buffer,
                             init_fn=init_fn)

    drivers = [new_driver(w, RolloutBuffer(
        trainer.config.horizon, trainer.net.obs_dim, trainer.net.action_dim,
        trainer.module is not None)) for w in range(n_workers)]
    parks = on_episode_end is None  # else each episode ends on tick()
    # a reward with an on_episode_end may keep state: it runs at each tick
    trainer.defers = parks and trainer.net.obs_dim == OBS_DIM
    # each training tail parked since the last update, as (its worker's
    # ticks before it, its worker, the tail), and each worker's ticks
    tails, ticked = [], [0] * n_workers
    filled = 0  # buffers filled since the last update
    steps_used = 0
    while steps_used < budget:
        for idx, drv in enumerate(drivers):
            if drv.buffer.full:
                continue  # paused until the joint update
            if parks and drv.folding and drv.folds_only():
                tails.append((ticked[idx], idx, drv))
                drv = drivers[idx] = new_driver(idx, drv.buffer)
            replayed = drv.replay_opening(budget - steps_used)
            steps_used += replayed
            if steps_used >= budget:
                break
            drv.tick()
            steps_used += 1
            ticked[idx] += replayed + 1
            filled += drv.buffer.full
            if drv.done:
                if on_episode_end is not None:
                    on_episode_end(drv)
                drivers[idx] = new_driver(idx, drv.buffer)
            if steps_used >= budget:
                break
        if filled == n_workers:
            # in the order of workers ticking in turn, one tick each
            tails = [tail for *_, tail in sorted(tails, key=lambda t: t[:2])]
            parked = sum(tail.state.steps for tail in tails)
            run_lanes(tails, budget - steps_used)
            steps_used += sum(tail.state.steps for tail in tails) - parked
            tails, ticked, filled = [], [0] * n_workers, 0
            if steps_used > budget:
                # on tick() the budget runs out inside this segment
                steps_used = budget
                break
            _fill_rewards(trainer, drivers)
            trainer.update(drivers)
            if eval_every and trainer.updates % eval_every == 0:
                rate = run_eval(steps_used)
                if rate is not None and stop_at is not None and rate >= stop_at:
                    return curve, steps_used, True

    if not curve or curve[-1][1] != trainer.updates:
        run_eval(steps_used)
    return curve, steps_used, False


def _fill_rewards(trainer, drivers):
    """Fill each buffer's deferred setup rewards (see the module
    docstring)."""
    for drv in drivers:
        buf = drv.buffer
        raw, last = buf.raw_obs, len(buf) - 1

        def rewards_of(index):
            obs_next = raw[np.minimum(index + 1, last)]
            obs_next[index == last] = drv.observation()
            with np.errstate(over="ignore", invalid="ignore"):
                return trainer.reward_fn(trainer.target, raw[index], obs_next,
                                         buf.rewards[index], False,
                                         buf.actions[index])

        buf.fill_rewards(rewards_of, trainer.config.minibatch)


def course_for_kind(kind):
    if kind == FLAT:
        return flat_course(6.0)
    return single_artifact_course(kind)


def first_of_kind(kind, course):
    """The course's first artifact of `kind`; CourseError if it has none."""
    for art in course.artifacts:
        if art.kind == kind:
            return art
    raise CourseError(f"the course holds no {kind} to train on")


def init_for_kind(kind, course):
    """The spawn of `kind`'s training: the standard one for the flat walker,
    else just short of the course's first artifact of that kind."""
    if kind == FLAT:
        return None
    return artifact_approach_init(first_of_kind(kind, course))


def target_stop_at(kind, stop_at=None):
    """The success rate that ends `train_target` early: `stop_at` if given,
    else 0.95 for the flat walker and 0.8 for a terrain specialist."""
    if stop_at is not None:
        return stop_at
    return 0.95 if kind == FLAT else 0.8


def train_target(kind, budget, rng, *, config=None, course=None,
                 eval_every=50, eval_episodes=100, stop_at=None, seed_tag=0,
                 min_final=0.5, obs_dim=None):
    """PPO-train a terrain specialist; returns (net, norm, curve).

    Training runs drivers with no modules: the specialist is their default
    policy, learning on the environment reward. The curve holds
    (steps_used, updates, success_rate) rows sampled every `eval_every`
    updates (none when it is 0) plus a final entry. Raises TrainingFailure
    (curve attached) if the budget runs out below `min_final` success; pass
    min_final=None for arms whose failure to learn is itself the result, and
    for runs with eval_episodes=0, which measure no success rate. A terrain
    specialist's course must hold its kind (CourseError).
    """
    if kind not in (FLAT, BLOCK, GAP, HURDLE):
        raise ValueError(f"unknown terrain kind {kind!r}")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if min_final is not None and eval_episodes == 0:
        raise ValueError("min_final needs eval_episodes > 0")
    config = config or PPOConfig()
    course = course or course_for_kind(kind)
    init_fn = init_for_kind(kind, course)
    if obs_dim is None:
        # the plain walker is terrain-blind; specialists see the full vector
        obs_dim = OBS_PROPRIO if kind == FLAT else OBS_DIM
    net = ParameterizedNet(obs_dim, ACTION_DIM, DEFAULT_HIDDEN, rng)
    norm = RunningNormalizer(obs_dim)
    curve, steps_used, stopped = _train(
        Trainer(net, norm, config, rng), TerrainEnv(course), net, norm, {},
        budget, eval_every=eval_every, eval_episodes=eval_episodes,
        seed_tag=seed_tag, eval_tag=0xE7A1, init_fn=init_fn,
        stop_at=target_stop_at(kind, stop_at))
    final = curve[-1][2]
    if not stopped and min_final is not None and final < min_final:
        raise TrainingFailure(
            f"{kind} specialist stalled at {final:.0%} success "
            f"after {steps_used} steps", curve)
    return net, norm, curve


# ---- setup-policy training -----------------------------------------------------


def train_setup(module: BehaviorModule, default_net, default_norm, env, config,
                budget, rng, *, reward_fn=awtv_step_reward, extend=True,
                eval_every=50, eval_episodes=100, n_workers=1, seed_tag=0,
                on_episode_end=None):
    """Train the module's setup policy in place; returns the training curve.

    The budget counts every environment tick of every training episode, the
    walker's replayed opening and the tails included; evaluation episodes
    are free. `reward_fn` keeps the setup-reward contract of the module
    docstring. `on_episode_end(driver)` fires after each finished training
    episode, before the runner restarts. The course must hold the module's
    kind (CourseError), and the target and the walker must stay frozen
    (RuntimeError).
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    first_of_kind(module.kind, env.course)
    frozen = module.target_net.flat.copy()
    walker, walker_stats = default_net.flat.copy(), default_norm.state_arrays()
    trainer = Trainer(module.setup_net, module.setup_norm, config, rng,
                      module=module, reward_fn=reward_fn, extend=extend)
    curve, _, _ = _train(
        trainer, env, default_net, default_norm, {module.kind: module},
        budget, eval_every=eval_every, eval_episodes=eval_episodes,
        seed_tag=seed_tag, eval_tag=0x5E70, n_workers=n_workers,
        on_episode_end=on_episode_end)
    if not np.array_equal(module.target_net.flat, frozen):
        raise RuntimeError("target policy drifted during setup training")
    # the trainer's opening replayed the walker as it was
    stats = default_norm.state_arrays()
    if not (np.array_equal(default_net.flat, walker) and all(
            np.array_equal(stats[key], arr) for key, arr in walker_stats.items())):
        raise RuntimeError("walker policy drifted during setup training")
    return curve
