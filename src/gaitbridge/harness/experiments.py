"""Experiment orchestration: arms, metrics files, event logs, reports.

Every experiment is a pure function of its configuration: seeds derive all
generators, loops run in a fixed order, and a single-threaded rerun writes
byte-identical CSV, JSONL, and report files. Each output file carries the
canonical hash of the producing configuration on its first line (CSV) or in
its body (reports, checkpoints), so results from different settings can
never be compared silently.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..baselines import (
    SETUP_REWARDS,
    VARIANT_TAGS,
    train_proximity_arm,
    train_single_policy,
)
from ..composer import (
    BehaviorModule,
    EpisodeDriver,
    evaluate_bridged,
    run_lanes,
    train_setup,
)
from ..terrainsim import (
    KINDS,
    TerrainEnv,
    distance_fraction,
    load_course,
    multi_terrain_course,
    single_artifact_course,
)
from .checkpoint import (
    Checkpoint,
    atomic_output,
    load_policy,
    save_checkpoint,
)
from .config import ConfigError, config_hash

# Stream tags keep every random purpose on its own generator: training,
# fresh-parameter init, evaluation, per-episode course order, and the
# episodes themselves never share draws.
RNG_TRAIN = 0xA121
RNG_INIT = 0x171C
RNG_EVAL = 0xE7A7
RNG_ORDER = 0x03DE
RNG_EPISODE = 0x00EB

ABLATION_ARMS = ("full", "no-init", "no-extended")
BASELINE_ARMS = ("setup", "proximity", "without-setup", "single-policy")
REWARD_ARMS_DEFAULT = ("awtv", "target-value")
MULTI_TERRAIN_ARMS = ("with-setup", "without-setup")
EVALUATION_ARMS = ("with-setup", "without-setup")

CSV_HEADER = "seed,method,course,success,distance_fraction,steps,switch_count"
FLAT_BUCKET = "flat"  # failure attribution past the last artifact


class MetricsError(ValueError):
    """A metrics row or file violates the published schema."""


@dataclass(frozen=True)
class MetricsRow:
    seed: int
    method: str
    course: str
    success: bool
    distance_fraction: float
    steps: int
    switch_count: int

    def validate(self):
        if not 0.0 <= self.distance_fraction <= 1.0:
            raise MetricsError(
                f"distance fraction {self.distance_fraction} outside [0, 1]")
        if self.steps < 0 or self.switch_count < 0:
            raise MetricsError("steps and switch count must be >= 0")
        for label in (self.method, self.course):
            if any(ch in label for ch in ",\n\r"):
                raise MetricsError(f"label {label!r} cannot hold , or newline")
        return self


def format_metrics_row(row: MetricsRow) -> str:
    return (f"{row.seed},{row.method},{row.course},{int(row.success)},"
            f"{row.distance_fraction:.6f},{row.steps},{row.switch_count}")


def write_metrics_csv(path, rows, cfg_hash):
    with atomic_output(path) as fh:
        fh.write(f"# config_hash={cfg_hash}\n{CSV_HEADER}\n")
        fh.writelines(format_metrics_row(row.validate()) + "\n"
                      for row in rows)
    return path


def read_metrics_csv(path):
    """Returns (config hash, rows); validates the schema line by line."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# config_hash="):
        raise MetricsError(f"{path} is missing the config-hash comment line")
    cfg_hash = lines[0].split("=", 1)[1]
    if lines[1] != CSV_HEADER:
        raise MetricsError(f"{path} header {lines[1]!r} != {CSV_HEADER!r}")
    rows = []
    for lineno, line in enumerate(lines[2:], start=3):
        parts = line.split(",")
        if len(parts) != 7:
            raise MetricsError(f"{path}:{lineno}: expected 7 fields")
        try:
            row = MetricsRow(int(parts[0]), parts[1], parts[2],
                             bool(int(parts[3])), float(parts[4]),
                             int(parts[5]), int(parts[6]))
        except ValueError as exc:
            raise MetricsError(f"{path}:{lineno}: {exc}") from None
        rows.append(row.validate())
    return cfg_hash, rows


def write_events_jsonl(path, labeled_outcomes):
    """One line per switch event, labeled with its seed and episode index."""
    with atomic_output(path) as fh:
        fh.writelines(
            json.dumps({"seed": seed, "episode": episode, "step": event.step,
                        "from": event.src, "to": event.dst, "x": event.x,
                        "c": event.c, "v": event.v}, sort_keys=True) + "\n"
            for seed, episode, outcome in labeled_outcomes
            for event in outcome.events)
    return path


def write_report(output_dir, report):
    path = Path(output_dir) / "report.json"
    with atomic_output(path) as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def summarize_metrics(paths):
    """Cross-file summary; flags comparisons that mix config hashes."""
    hashes = []
    arms = {}
    for path in paths:
        cfg_hash, rows = read_metrics_csv(path)
        hashes.append(cfg_hash)
        for row in rows:
            bucket = arms.setdefault(row.method, {"episodes": 0, "successes": 0,
                                                  "distance_sum": 0.0})
            bucket["episodes"] += 1
            bucket["successes"] += int(row.success)
            bucket["distance_sum"] += row.distance_fraction
    summary = {
        "config_hashes": sorted(set(hashes)),
        "mixed_config_hashes": len(set(hashes)) > 1,
        "arms": {
            method: {
                "episodes": b["episodes"],
                "success": b["successes"] / b["episodes"],
                "distance": b["distance_sum"] / b["episodes"],
            } for method, b in sorted(arms.items())
        },
    }
    return summary


# ---- shared plumbing ---------------------------------------------------------


def _required_checkpoint(config, what, *keys):
    path = config.checkpoint_path(*keys)
    if path is None:
        raise ConfigError(
            f"{what} needs checkpoints.{'.'.join(keys)} in the config")
    return path


def _load_default(config, what):
    return load_policy(_required_checkpoint(config, what, "default"))


def _load_module(config, kind, what, default_net, default_norm):
    """Build a behavior module from configured checkpoints.

    The target checkpoint is mandatory. A missing setup checkpoint falls
    back to the walker-initialized setup policy (exactly the untrained
    starting point), which is what the no-setup arm and fresh evaluations
    want.
    """
    target_net, target_norm = load_policy(
        _required_checkpoint(config, what, kind, "target"))
    setup_path = config.checkpoint_path(kind, "setup")
    params = config.awtv_params()
    if setup_path is not None:
        setup_net, setup_norm = load_policy(setup_path)
        return BehaviorModule(kind, target_net, target_norm, setup_net,
                              setup_norm, params)
    return BehaviorModule.from_default(kind, target_net, target_norm,
                                       default_net, default_norm, params)


def setup_module(kind, target_net, target_norm, default_net, default_norm,
                 params, seed, *, fresh=False):
    """A setup policy's starting point: the walker's copy, or with `fresh` a
    random init drawn from the seed's init stream."""
    if fresh:
        return BehaviorModule.fresh(kind, target_net, target_norm,
                                    np.random.default_rng((seed, RNG_INIT)),
                                    params=params)
    return BehaviorModule.from_default(kind, target_net, target_norm,
                                       default_net, default_norm,
                                       params=params)


def experiment_course(config):
    """(course, course id) the experiment runs on."""
    if config.course:
        course = load_course(config.course)
        return course, Path(config.course).stem
    return single_artifact_course(config.kind), config.kind


def _chosen_arms(config, allowed, what, standard=None):
    arms = config.arms or standard or allowed
    for arm in arms:
        if arm not in allowed:
            raise ConfigError(f"{what} has no arm {arm!r} "
                              f"(choose from {', '.join(allowed)})")
    if len(set(arms)) != len(arms):
        raise ConfigError(f"{what} arms repeat: {', '.join(arms)}")
    return tuple(arms)


def _arm_summary(rows, seeds):
    episodes = {seed: [r for r in rows if r.seed == seed] for seed in seeds}
    per_seed = {
        str(seed): sum(int(r.success) for r in seed_rows) / len(seed_rows)
        for seed, seed_rows in episodes.items()
    }
    return {
        "success": sum(int(r.success) for r in rows) / len(rows),
        "distance": sum(r.distance_fraction for r in rows) / len(rows),
        "per_seed": per_seed,
    }


def _ranking(arm_summaries, order):
    return sorted(order, key=lambda arm: (-arm_summaries[arm]["success"],
                                          order.index(arm)))


def _run_grid(config, experiment, course_id, arms, episodes, extra=None):
    """Run every arm x seed cell, then write metrics, events and the report.

    `episodes(arm, seed)` yields one (course, course id, outcome) per
    evaluation episode of that cell; cells run arm-major in seed order.
    `extra` entries join the report after every cell has run.
    """
    cfg_hash = config_hash(config)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summaries = {}
    for arm in arms:
        rows, labeled = [], []
        for seed in config.seeds:
            for i, (course, cid, out) in enumerate(episodes(arm, seed)):
                rows.append(MetricsRow(
                    seed, arm, cid, bool(out.state.success),
                    distance_fraction(course, out.state), out.state.steps,
                    out.switch_count))
                labeled.append((seed, i, out))
        write_metrics_csv(out_dir / f"metrics_{arm}.csv", rows, cfg_hash)
        write_events_jsonl(out_dir / f"events_{arm}.jsonl", labeled)
        summaries[arm] = _arm_summary(rows, config.seeds)
    report = {
        "experiment": experiment,
        "config_hash": cfg_hash,
        "course": course_id,
        "episodes_per_seed": config.episodes,
        "seeds": list(config.seeds),
        "arms": summaries,
        "ranking": _ranking(summaries, list(arms)),
        "mixed_config_hashes": False,
        **(extra or {}),
    }
    write_report(out_dir, report)
    return report


def _save_arm_checkpoint(config, name, net, norm):
    save_checkpoint(Path(config.output_dir) / f"{name}.ckpt",
                    Checkpoint.of(net, norm, config_hash(config)))


class _SetupExperiment:
    """Course, walker and frozen target of an experiment that trains one
    setup policy per (arm, seed) cell."""

    def __init__(self, config, what):
        self.config = config
        self.course, self.course_id = experiment_course(config)
        self.default_net, self.default_norm = _load_default(config, what)
        self.target_net, self.target_norm = load_policy(
            _required_checkpoint(config, what, config.kind, "target"))

    def module(self, seed, fresh=False):
        return setup_module(self.config.kind, self.target_net,
                            self.target_norm, self.default_net,
                            self.default_norm, self.config.awtv_params(),
                            seed, fresh=fresh)

    def evaluate(self, seed, module, **kwargs):
        """The cell's evaluation episodes of `module` on the course."""
        _, outs = evaluate_bridged(
            TerrainEnv(self.course), self.default_net, self.default_norm,
            {module.kind: module}, self.config.episodes,
            np.random.default_rng((seed, RNG_EVAL)), **kwargs)
        return [(self.course, self.course_id, out) for out in outs]

    def cell(self, arm, seed, trainer=train_setup, fresh=False,
             **trainer_kwargs):
        """Build, train, evaluate and checkpoint one setup policy."""
        module = self.module(seed, fresh)
        trainer(module, self.default_net, self.default_norm,
                TerrainEnv(self.course), self.config.ppo_config(),
                self.config.budgets["setup"],
                np.random.default_rng((seed, RNG_TRAIN)), eval_every=0,
                eval_episodes=0, seed_tag=seed, **trainer_kwargs)
        episodes = self.evaluate(seed, module)
        _save_arm_checkpoint(self.config, f"setup_{arm}_seed{seed}",
                             module.setup_net, module.setup_norm)
        return episodes


# ---- experiments -------------------------------------------------------------


def run_evaluation(config):
    """Evaluate already-trained policies on a course; no training at all."""
    course, course_id = experiment_course(config)
    default_net, default_norm = _load_default(config, "evaluation")
    kinds_present = sorted({a.kind for a in course.artifacts})
    modules = {
        kind: _load_module(config, kind, "evaluation", default_net,
                           default_norm)
        for kind in kinds_present if config.checkpoint_path(kind) is not None
    }
    arms = _chosen_arms(config, EVALUATION_ARMS, "evaluation")

    def episodes(arm, seed):
        _, outs = evaluate_bridged(TerrainEnv(course), default_net,
                                   default_norm, modules, config.episodes,
                                   np.random.default_rng((seed, RNG_EVAL)),
                                   without_setup=arm == "without-setup")
        return [(course, course_id, out) for out in outs]

    return _run_grid(config, "evaluation", course_id, arms, episodes)


def run_ablation(config):
    """Train the full, no-init, and no-extended setup arms; rank them."""
    setup = _SetupExperiment(config, "ablation")
    arms = _chosen_arms(config, ABLATION_ARMS, "ablation")
    return _run_grid(
        config, "ablation", setup.course_id, arms,
        lambda arm, seed: setup.cell(arm, seed, fresh=arm == "no-init",
                                     extend=arm != "no-extended"))


def run_reward_comparison(config):
    """Train one setup arm per shaped-reward variant at equal budget."""
    setup = _SetupExperiment(config, "reward comparison")
    arms = _chosen_arms(config, VARIANT_TAGS, "reward comparison",
                        REWARD_ARMS_DEFAULT)
    return _run_grid(
        config, "reward-comparison", setup.course_id, arms,
        lambda arm, seed: setup.cell(arm, seed,
                                     reward_fn=SETUP_REWARDS[arm]))


def run_baseline_comparison(config):
    """Setup policy against the no-setup, proximity, and single-policy arms.

    Companion to the ablation (`gaitbridge baseline-compare`): same
    protocol, but the comparison set spans methods rather than feature
    removals.
    """
    setup = _SetupExperiment(config, "baseline comparison")
    arms = _chosen_arms(config, BASELINE_ARMS, "baseline comparison")
    course, course_id = setup.course, setup.course_id

    def episodes(arm, seed):
        if arm == "setup":
            return setup.cell(arm, seed)
        if arm == "proximity":
            return setup.cell(arm, seed, trainer=train_proximity_arm)
        if arm == "without-setup":
            return setup.evaluate(seed, setup.module(seed),
                                  without_setup=True)
        net, norm, _ = train_single_policy(
            course, config.budgets["setup"],
            np.random.default_rng((seed, RNG_TRAIN)),
            config=config.ppo_config(), eval_every=0, eval_episodes=0,
            seed_tag=seed)
        _, outs = evaluate_bridged(TerrainEnv(course), net, norm, {},
                                   config.episodes,
                                   np.random.default_rng((seed, RNG_EVAL)))
        _save_arm_checkpoint(config, f"single_policy_seed{seed}", net, norm)
        return [(course, course_id, out) for out in outs]

    return _run_grid(config, "baseline-comparison", course_id, arms,
                     episodes)


def failure_terrain(course, state):
    """Terrain kind an unsuccessful episode is attributed to.

    The episode failed somewhere between artifacts it had cleared and the
    goal; charge the first artifact not yet fully behind the runner, or the
    flat bucket when everything was cleared and the runner still ran out of
    time. Successful episodes attribute to nothing.
    """
    if state.success:
        return None
    for artifact in course.artifacts:
        if state.x < artifact.end:
            return artifact.kind
    return FLAT_BUCKET


def run_multi_terrain(config):
    """Shuffled all-kind sequences, with and without the setup phase.

    Each (seed, episode) draws its own course order and episode generator
    and the policies are frozen, so the episodes of different arms are
    independent of the order they run in. A cell's episodes run together as
    lanes, one course and env per lane.
    """
    for kind in KINDS:
        for role in ("target", "setup"):
            _required_checkpoint(config, "multi-terrain", kind, role)
    default_net, default_norm = _load_default(config, "multi-terrain")
    modules = {kind: _load_module(config, kind, "multi-terrain", default_net,
                                  default_norm)
               for kind in KINDS}
    arms = _chosen_arms(config, MULTI_TERRAIN_ARMS, "multi-terrain")
    failures = {arm: dict.fromkeys(KINDS + (FLAT_BUCKET,), 0) for arm in arms}

    def episodes(arm, seed):
        drivers = []
        for episode in range(config.episodes):
            order_rng = np.random.default_rng((seed, episode, RNG_ORDER))
            order = tuple(KINDS[i]
                          for i in order_rng.permutation(len(KINDS)))
            drivers.append(EpisodeDriver(
                TerrainEnv(multi_terrain_course(order)), default_net,
                default_norm, modules,
                np.random.default_rng((seed, episode, RNG_EPISODE)),
                without_setup=arm == "without-setup"))
        for drv, out in zip(drivers, run_lanes(drivers)):
            course = drv.env.course
            failed_at = failure_terrain(course, out.state)
            if failed_at is not None:
                failures[arm][failed_at] += 1
            yield course, "-".join(a.kind for a in course.artifacts), out

    return _run_grid(config, "multi-terrain", "shuffled-all-kinds", arms,
                     episodes, extra={"failure_counts": failures})
