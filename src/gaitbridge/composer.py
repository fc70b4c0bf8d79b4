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
final entry, so the setup policy is credited for what the specialist achieves
from the states it prepared.

`EpisodeDriver` is the only code that steps the runner: evaluation, setup
training and target training all run drivers. It hands control over by
calling `SwitchState.transition` at three points: the oracle's detection
(to setup, or straight to target in the no-setup arm), the setup policy's
handoff bit, and the target's release once `tau_theta_reached`. On each
tick one policy acts, and it learns only when it is the trainer's own net: it
then updates its normalizer, samples its action and stores the transition.
Every other policy normalizes only and acts on its mean, except that a setup
policy keeps sampling: its handoff is a learned per-tick probability. Target
training is a driver with no modules, whose default policy is the one being
trained on the environment reward; setup training trains one module's setup
policy on a shaped reward. One round-robin loop (`_train`) collects both into
per-worker buffers, one `tick()` at a time.

Evaluation runs its episodes as lanes (`run_lanes`): one driver per episode,
each with its own generator, advanced together. The lanes' runners step as
one `RunnerBatch`, each lane's acting policy is a small integer code, and
the switching rules are masks over the batch; each acting policy (the
walker, a setup policy, a target) gets one normalize and one batched forward
per tick. Switches still go through each driver's `SwitchState`, and
finished lanes are written back into their drivers. Lanes never train.

A setup reward function has the signature
`reward_fn(target, obs, obs_next, r_env, terminal, action)`. A driver passes
it its own `CarriedTarget` of the acting module, a view of the frozen
specialist that evaluates it at most once per observation: the observation
taken after a tick's step becomes the next tick's observation, so V(s') of one
tick is V(s) of the next. A `BehaviorModule` offers the same `target_value`,
`target_action` and `params`, so reward functions also take one directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from gaitbridge.diffcore import AdamState, ParameterizedNet, sigmoid
from gaitbridge.policyopt import (
    PPOConfig,
    RolloutBuffer,
    RunningNormalizer,
    policy_act,
    ppo_update,
)
from gaitbridge.terrainsim import (
    BLOCK,
    GAP,
    HURDLE,
    KIND_ONE_HOT,
    OBS_DIM,
    OBS_PROPRIO,
    RunnerBatch,
    TerrainEnv,
    flat_course,
    observe,
    oracle_detect,
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


def td_advantage(value_fn, s_t, s_next, r_t, gamma, terminal=False):
    """One-step TD advantage r + gamma*V(s') - V(s) under a frozen value fn.

    `terminal` zeroes the bootstrap for transitions that end the episode.
    """
    v_s = float(value_fn(s_t))
    v_next = 0.0 if terminal else float(value_fn(s_next))
    return td_error(v_s, v_next, r_t, gamma)


def td_error(v_s, v_next, r_t, gamma):
    """r + gamma*V(s') - V(s) from values already evaluated."""
    r_t = float(r_t)
    if not (np.isfinite(v_s) and np.isfinite(v_next) and np.isfinite(r_t)):
        raise ValueError("the TD advantage needs finite reward and values")
    return r_t + gamma * v_next - v_s


def awtv_reward(advantage, v_s, params: AWTVParams):
    """(1 - min(alpha*A^2, 1)) * beta * V(s): value, discounted by surprise."""
    weight = 1.0 - min(params.alpha * advantage * advantage, 1.0)
    return weight * params.beta * v_s


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

    def transition(self, dst, runner):
        """Hand control to `dst`, logged at the runner's step and state."""
        if (self.active, dst) not in _LEGAL_TRANSITIONS:
            raise SwitchError(f"illegal transition {self.active} -> {dst}")
        self.events.append(SwitchEvent(runner.steps, self.active, dst,
                                       runner.x, runner.c, runner.v))
        self.active = dst


def tau_theta_reached(state, artifact):
    """Target-phase termination: artifact behind the runner, contact restored."""
    return state.x > artifact.end and state.contact


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


def prime_switch_head(net, prior=SETUP_SWITCH_PRIOR):
    """Reset a policy's handoff head to a state-independent low prior.

    Zeroed weights with a logit(prior) bias make the initial handoff a
    geometric draw (~1/prior setup ticks on average), long enough to gather
    setup experience; training then reshapes both weights and bias.
    """
    net.params["switch.w"][...] = 0.0
    net.params["switch.b"][...] = float(np.log(prior / (1.0 - prior)))
    net.invalidate_cache()
    return net


def lift_to_terrain_obs(net, norm):
    """Widen a terrain-blind policy to the full observation vector.

    The walker's weights land in the proprioceptive input rows and the new
    terrain rows start at zero, so the lifted policy behaves exactly like
    the walker until training puts weight on what it now can see. The
    normalizer keeps the walker's statistics for the shared dimensions and
    starts the terrain dimensions at an adaptive identity.
    """
    if net.obs_dim == OBS_DIM:
        return net.copy(), norm.copy()
    fc0 = np.zeros((OBS_DIM, net.hidden[0]), dtype=np.float32)
    fc0[:net.obs_dim] = net.params["fc0.w"]
    lifted = ParameterizedNet.from_params({**net.params, "fc0.w": fc0})

    old = norm.state_arrays()
    state = {}
    for key, fill in (("count", 1.0), ("sum_hi", 0.0), ("sum_lo", 0.0),
                      ("wmean", 0.0), ("m2", 1.0)):
        arr = np.full(OBS_DIM, fill)
        arr[:net.obs_dim] = old[key]
        state[key] = arr
    return lifted, RunningNormalizer.from_state_arrays(state)


@dataclass
class BehaviorModule:
    """Frozen terrain specialist plus its trainable setup companion."""

    kind: str
    target_net: ParameterizedNet
    target_norm: RunningNormalizer
    setup_net: ParameterizedNet
    setup_norm: RunningNormalizer
    params: AWTVParams = field(default_factory=AWTVParams)

    def target_value(self, obs_raw):
        return self.target_net.value_of(self.target_norm.normalize(obs_raw))

    def target_action(self, obs_raw):
        mu, _, _, _ = self.target_net.forward(self.target_norm.normalize(obs_raw))
        return mu

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


class CarriedTarget:
    """One driver's view of a module's frozen target, one forward per obs.

    Keeps the target's (mu, V) at the last observation it was asked about,
    matched by the identity of the observation array. The view holds that
    array, so its id cannot be reused by another observation. The target's
    net and normalizer must stay frozen while the view lives (one episode).
    """

    def __init__(self, module: BehaviorModule):
        self.module = module
        self.params = module.params
        self._obs = None

    def _evaluate(self, obs_raw):
        if obs_raw is not self._obs:
            module = self.module
            self._mu, _, self._value, _ = module.target_net.forward(
                module.target_norm.normalize(obs_raw))
            self._obs = obs_raw

    def target_value(self, obs_raw):
        self._evaluate(obs_raw)
        return self._value

    def target_action(self, obs_raw):
        self._evaluate(obs_raw)
        return self._mu


def awtv_step_reward(target, obs, obs_next, r_env, terminal, action):
    """Per-step setup reward from the frozen target value function.

    `target` is a CarriedTarget or a BehaviorModule; V(s) is read once.
    """
    v_s = target.target_value(obs)
    v_next = 0.0 if terminal else target.target_value(obs_next)
    adv = td_error(v_s, v_next, r_env, target.params.gamma)
    return awtv_reward(adv, v_s, target.params)


class Trainer:
    """The policy being trained and its PPO state, shared by every worker.

    With a `module` it trains that module's setup policy on `reward_fn`,
    folds post-handoff rewards when `extend` is set, and keeps each buffer's
    last transition across an update. Without one it trains the drivers'
    default policy on the environment reward and empties the buffers.
    """

    def __init__(self, net, norm, config, rng, *, module=None,
                 reward_fn=awtv_step_reward, extend=True):
        self.net = net
        self.norm = norm
        self.config = config
        self.adam = AdamState(lr=config.lr)
        self.rng = rng
        self.module = module
        self.reward_fn = reward_fn
        self.extend = extend
        self.updates = 0

    def update(self, drivers):
        """One PPO update from every driver's full buffer."""
        for drv in drivers:
            buf = drv.buffer
            # a horizon cut mid-phase bootstraps from the state acted on next
            buf.tail_bootstrap = 0.0 if buf.dones[-1] else self.net.value_of(
                self.norm.normalize(policy_obs(self.net, drv.observation())))
        buffers = [drv.buffer for drv in drivers]
        ppo_update(self.net, buffers, self.config, self.adam, self.rng)
        for buf in buffers:
            if self.module is None:
                buf.clear()
            else:
                buf.clear_except_last()
        self.updates += 1


@dataclass
class EpisodeOutcome:
    state: object
    events: list
    env_reward: float

    @property
    def switch_count(self):
        return len(self.events)


class EpisodeDriver:
    """Advances one bridged episode one environment tick at a time.

    A learning policy (see the module docstring) appends to `buffer`.
    `init_fn(env, rng)` replaces the standard spawn.
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
        self.env_reward = 0.0
        self.handed_off = False  # the trained setup policy handed off
        self._obs = None  # observation of self.state, once taken
        self.targets = {kind: CarriedTarget(m) for kind, m in modules.items()}

    @property
    def done(self):
        return self.state.done

    def observation(self):
        """Observation of the current state, taken once between steps."""
        if self._obs is None:
            self._obs = observe(self.env.course, self.state)
        return self._obs

    def tick(self):
        """One environment step. Returns True when the episode finished."""
        trainer, state, switch = self.trainer, self.state, self.switch
        if (switch.active == POLICY_TARGET
                and tau_theta_reached(state, switch.artifact)):
            switch.transition(POLICY_DEFAULT, state)
            switch.artifact = None
        if switch.active == POLICY_DEFAULT and self.modules:
            hit, art = oracle_detect(self.env.course, state)
            if hit and art.kind in self.modules:
                switch.artifact = art
                switch.transition(POLICY_TARGET if self.without_setup
                                  else POLICY_SETUP, state)
        acting = switch.active
        obs = self.observation()

        bit = None
        learning = False
        if acting == POLICY_TARGET:
            action = self.targets[switch.artifact.kind].target_action(obs)
        else:
            if acting == POLICY_DEFAULT:
                net, norm = self.default_net, self.default_norm
            else:
                module = self.modules[switch.artifact.kind]
                net, norm = module.setup_net, module.setup_norm
            learning = trainer is not None and net is trainer.net
            x = policy_obs(net, obs)
            if learning:
                obs_n = norm.update_then_normalize(x)
            else:
                obs_n = norm.normalize(x)
            action, bit, logp, value = policy_act(
                net, obs_n, self.rng,
                deterministic=not learning and acting == POLICY_DEFAULT,
                with_switch=acting == POLICY_SETUP)

        r_env, done = self.env.step(state, action)
        self._obs = None
        self.env_reward += r_env
        if bit == 1 and not done:
            # a handoff bit of 1 passes control from setup to target
            switch.transition(POLICY_TARGET, state)

        if learning:
            if acting == POLICY_SETUP:
                r_step = trainer.reward_fn(
                    self.targets[switch.artifact.kind], obs,
                    self.observation(), r_env, done, action)
            else:
                r_step = r_env
            self.buffer.append(obs_n, action, bit, logp, r_step, value,
                               done or bit == 1)
            if bit == 1:
                self.handed_off = True
        elif self.handed_off and trainer.extend:
            # every shaped reward from handoff to episode end folds into the
            # last stored entry, whichever policy is acting by now
            r_hat = trainer.reward_fn(
                self.targets[trainer.module.kind], obs,
                self.observation(), r_env, done, action)
            self.buffer.extend_last_reward(float(r_hat))
        return done

    def outcome(self):
        return EpisodeOutcome(self.state, self.switch.events, self.env_reward)

    def run(self):
        """Tick to the end of the episode; returns its outcome."""
        while not self.done:
            self.tick()
        return self.outcome()


def run_lanes(drivers):
    """Run evaluation drivers to the end together; returns their outcomes.

    The drivers must share the default policy, the modules and
    `without_setup`. While more than one lane is live, the lanes step as one
    `RunnerBatch` (see `_run_batch`); the last live lane, or a lone driver,
    finishes on `run()`, which a batch of one would reproduce bit for bit at
    many times the cost. A lane's outcome depends only on its own driver. A
    batched forward rounds differently from the one-row forward that `run()`
    takes, so states agree with `run()` to ~1e-12, not bit for bit.
    Training drivers are rejected: they stay on `tick()`.
    """
    if any(drv.trainer is not None for drv in drivers):
        raise ValueError("run_lanes runs evaluation drivers only")
    first = drivers[0] if drivers else None
    for drv in drivers:
        if (drv.default_net is not first.default_net
                or drv.default_norm is not first.default_norm
                or drv.without_setup != first.without_setup
                or drv.modules.keys() != first.modules.keys()
                or any(drv.modules[kind] is not module
                       for kind, module in first.modules.items())):
            raise ValueError("lanes must share the default policy, the "
                             "modules and without_setup")
    live = [drv for drv in drivers if not drv.done]
    if len(live) > 1:
        live = _run_batch(live)
    for drv in live:
        drv.run()
    return [drv.outcome() for drv in drivers]


def _run_batch(lanes):
    """Tick live lanes as one RunnerBatch until at most one is left.

    Each lane's acting policy is a code into a table of (role, net, norm):
    lanes whose drivers would act with the same policy share a code. A tick
    releases target lanes past their artifact, hands walking lanes that
    detect a module's artifact to its setup policy (its target in the
    no-setup arm), then gives each acting policy one normalize and one
    forward over its lanes' observations, in the order of each policy's
    first lane, with a one-row forward for a lone row. Walker and target
    lanes act on their means. A setup lane samples from its driver's
    generator in `policy_act`'s draw order (action noise, then the handoff
    bit). After the step, the handoff bits pass control to the targets.
    Every switch goes through the driver's `SwitchState`.
    Finished lanes are written back into their drivers and dropped; the
    lanes left (none or one) are written back and returned.
    """
    first = lanes[0]
    policies = [(POLICY_DEFAULT, first.default_net, first.default_norm)]
    code_of = {}  # (role, kind) -> index into policies
    detectable = np.zeros(len(KIND_ONE_HOT) + 1, dtype=bool)  # [-1]: none
    for kind, module in first.modules.items():
        for policy in ((POLICY_SETUP, module.setup_net, module.setup_norm),
                       (POLICY_TARGET, module.target_net, module.target_norm)):
            # lanes acting with the same net and normalizer share a forward
            if policy not in policies:
                policies.append(policy)
            code_of[policy[0], kind] = policies.index(policy)
        detectable[KIND_ONE_HOT[kind]] = True
    role_on_detect = POLICY_TARGET if first.without_setup else POLICY_SETUP

    def phase(switch):
        """(policy code, release x) of a lane: the end of the artifact a
        target acts on, past which it hands back; +inf otherwise."""
        if switch.active == POLICY_DEFAULT:
            return 0, np.inf
        return (code_of[switch.active, switch.artifact.kind],
                switch.artifact.end if switch.active == POLICY_TARGET
                else np.inf)

    code, release_x = (np.array(column) for column in
                       zip(*(phase(drv.switch) for drv in lanes)))
    env_reward = np.array([drv.env_reward for drv in lanes])
    batch = RunnerBatch([drv.env.course for drv in lanes],
                        [drv.state for drv in lanes])

    def switch_lane(i, dst, artifact):
        switch = lanes[i].switch
        switch.transition(dst, batch.state(i))
        switch.artifact = artifact
        code[i], release_x[i] = phase(switch)

    def write_back(i):
        drv = lanes[i]
        drv.state = batch.state(i)
        drv.env_reward = float(env_reward[i])
        drv._obs = None

    while len(lanes) > 1:
        for i in ((batch.x > release_x) & batch.contact).nonzero()[0]:
            switch_lane(i, POLICY_DEFAULT, None)
        if first.modules:
            hit, index = batch.detect()
            spotted = hit & (code == 0) & detectable[batch.next_kind]
            for i in spotted.nonzero()[0]:
                switch_lane(i, role_on_detect,
                            lanes[i].env.course.artifacts[index[i]])

        obs = batch.observe()
        actions = np.empty((len(lanes), ACTION_DIM))
        handoffs = []
        lane_codes = code.tolist()
        # one group per acting policy, in the order of its first lane
        for p in sorted(set(lane_codes), key=lane_codes.index):
            rows = (code == p).nonzero()[0]
            role, net, norm = policies[p]
            # a lone row keeps the cheaper one-row forward of tick()
            x = obs[rows] if rows.size > 1 else obs[rows[0]]
            mu, _, _, z = net.forward(norm.normalize(policy_obs(net, x)))
            if role != POLICY_SETUP:
                actions[rows] = mu
                continue
            if x.ndim == 1:
                mu, z = mu[None], np.array([z])
            std = net.derived64()["std"]
            for i, action, p_switch in zip(rows.tolist(), mu, sigmoid(z)):
                rng = lanes[i].rng
                actions[i] = action + std * rng.standard_normal(ACTION_DIM)
                if rng.random() < p_switch:
                    handoffs.append(i)

        reward, done = batch.step(actions)
        env_reward += reward
        for i in handoffs:
            if not done[i]:
                switch_lane(i, POLICY_TARGET, lanes[i].switch.artifact)
        if done.any():
            for i in done.nonzero()[0]:
                write_back(i)
            keep = ~done
            lanes = [drv for drv, kept in zip(lanes, keep) if kept]
            code, release_x, env_reward = (
                code[keep], release_x[keep], env_reward[keep])
            batch.compact(keep)
    for i in range(len(lanes)):
        write_back(i)
    return lanes


def evaluate_bridged(env, default_net, default_norm, modules, episodes, rng,
                     without_setup=False, init_fn=None):
    """Seeded bridged rollouts; returns (success rate, outcomes).

    The frozen default and target policies act on their action means while
    the setup policy keeps acting stochastically: its handoff head is trained
    as a per-step switching rate, so the handoff distribution — not a
    thresholded point estimate — is the behavior being measured. With no
    modules this evaluates the default policy alone, spawned by `init_fn` if
    given.

    Episode i runs on the i-th generator of `rng.spawn(episodes)`, so its
    outcome is that of `EpisodeDriver(..., rng=child).run()`, whatever the
    episode count. All episodes run together through `run_lanes`: one
    batched runner step and one batched forward per acting policy per tick.
    """
    drivers = [EpisodeDriver(env, default_net, default_norm, modules, child,
                             without_setup=without_setup, init_fn=init_fn)
               for child in rng.spawn(episodes)]
    outcomes = run_lanes(drivers)
    rate = sum(1.0 for o in outcomes if o.state.success) / max(len(outcomes), 1)
    return rate, outcomes


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
    """Round-robin PPO; returns (curve, steps_used, stopped).

    `n_workers` drivers take turns ticking, each into its own buffer; a
    worker whose buffer is full pauses until every buffer is full, which
    triggers one joint update. Buffers persist across episodes; only the
    runner restarts. Every `eval_every` updates (never when 0) and once at
    the end, `eval_episodes` bridged episodes drawn from their own
    generator add a (steps_used, updates, success_rate) row to the curve;
    with eval_episodes=0 the row's rate is None. A periodic rate at or above
    `stop_at` ends training at once (`stopped`).
    """
    if eval_episodes < 0 or eval_every < 0:
        raise ValueError("eval_every and eval_episodes must be >= 0")
    curve = []

    def run_eval(steps_used):
        rate = None
        if eval_episodes:
            eval_rng = np.random.default_rng(
                (seed_tag, trainer.updates, eval_tag))
            rate, _ = evaluate_bridged(env, default_net, default_norm,
                                       modules, eval_episodes, eval_rng,
                                       init_fn=init_fn)
        curve.append((steps_used, trainer.updates, rate))
        return rate

    def new_driver(buffer):
        return EpisodeDriver(env, default_net, default_norm, modules,
                             trainer.rng, trainer=trainer, buffer=buffer,
                             init_fn=init_fn)

    drivers = [new_driver(RolloutBuffer(trainer.config.horizon))
               for _ in range(n_workers)]
    steps_used = 0
    last_eval_at = None
    while steps_used < budget:
        for idx, drv in enumerate(drivers):
            if drv.buffer.full:
                continue  # paused until the joint update
            drv.tick()
            steps_used += 1
            if drv.done:
                if on_episode_end is not None:
                    on_episode_end(drv)
                drivers[idx] = new_driver(drv.buffer)
            if steps_used >= budget:
                break
        if all(d.buffer.full for d in drivers):
            trainer.update(drivers)
            if eval_every and trainer.updates % eval_every == 0:
                last_eval_at = trainer.updates
                rate = run_eval(steps_used)
                if rate is not None and stop_at is not None and rate >= stop_at:
                    return curve, steps_used, True

    if last_eval_at != trainer.updates:
        run_eval(steps_used)
    return curve, steps_used, False


def course_for_kind(kind):
    if kind == FLAT:
        return flat_course(6.0)
    return single_artifact_course(kind)


def init_for_kind(kind, course):
    if kind == FLAT:
        return None
    return artifact_approach_init(course.artifacts[0])


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
    for runs with eval_episodes=0, which measure no success rate.
    """
    if kind not in (FLAT, BLOCK, GAP, HURDLE):
        raise ValueError(f"unknown terrain kind {kind!r}")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if min_final is not None and eval_episodes == 0:
        raise ValueError("min_final needs eval_episodes > 0")
    config = config or PPOConfig()
    course = course or course_for_kind(kind)
    if stop_at is None:
        stop_at = 0.95 if kind == FLAT else 0.8
    if obs_dim is None:
        # the plain walker is terrain-blind; specialists see the full vector
        obs_dim = OBS_PROPRIO if kind == FLAT else OBS_DIM
    net = ParameterizedNet(obs_dim, ACTION_DIM, DEFAULT_HIDDEN, rng)
    norm = RunningNormalizer(obs_dim)
    curve, steps_used, stopped = _train(
        Trainer(net, norm, config, rng), TerrainEnv(course), net, norm, {},
        budget, eval_every=eval_every, eval_episodes=eval_episodes,
        seed_tag=seed_tag, eval_tag=0xE7A1,
        init_fn=init_for_kind(kind, course), stop_at=stop_at)
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

    Episodes run the full bridged state machine; only ticks where the setup
    policy acts append to its buffer, each buffer-full moment triggers a PPO
    update followed by clear-except-last, and every post-handoff shaped reward
    of an episode folds into the buffer's final entry. The budget counts every
    environment tick of every training episode (walking and target phases
    included); evaluation episodes are free. `on_episode_end(driver)` fires
    after each finished training episode, before the runner restarts.

    `reward_fn(target, obs, obs_next, r_env, terminal, action)` receives the
    driver's CarriedTarget of the acting module, not the module itself: it
    offers `target_value`, `target_action` and `params`, and evaluates the
    frozen target once per observation. Each worker's driver keeps its own
    carry, so the workers' shared module is never written to.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    frozen = module.target_net.flat.copy()
    trainer = Trainer(module.setup_net, module.setup_norm, config, rng,
                      module=module, reward_fn=reward_fn, extend=extend)
    curve, _, _ = _train(
        trainer, env, default_net, default_norm, {module.kind: module},
        budget, eval_every=eval_every, eval_episodes=eval_episodes,
        seed_tag=seed_tag, eval_tag=0x5E70, n_workers=n_workers,
        on_episode_end=on_episode_end)
    if not np.array_equal(module.target_net.flat, frozen):
        raise RuntimeError("target policy drifted during setup training")
    return curve
