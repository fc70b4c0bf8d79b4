"""Experiment orchestration: arms, metrics files, event logs, reports.

Every experiment runs through one flow (`_run_grid`): it builds the
evaluation drivers of each (arm, seed) cell, training the cell's policies
first where it trains, and runs every cell's episodes, each lane with its
own policies, as lanes of one `run_lanes` call. It is a pure function of its
configuration: seeds derive all generators, loops run in a fixed order, and
a single-threaded rerun writes byte-identical CSV, JSONL, and report files.
Each output file carries the canonical hash of the producing configuration
on its first line (CSV) or in its body (reports, checkpoints), so results
from different settings can never be compared silently.
"""

import json
import math
from dataclasses import dataclass, replace
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
    episode_drivers,
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
from .config import LABEL_BREAKS, ConfigError, config_hash

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
            if any(ch in label for ch in LABEL_BREAKS):
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
        if parts[3] not in ("0", "1"):
            raise MetricsError(
                f"{path}:{lineno}: success {parts[3]!r} is not 0 or 1")
        try:
            row = MetricsRow(int(parts[0]), parts[1], parts[2],
                             parts[3] == "1", float(parts[4]),
                             int(parts[5]), int(parts[6]))
        except ValueError as exc:
            raise MetricsError(f"{path}:{lineno}: {exc}") from None
        rows.append(row.validate())
    return cfg_hash, rows


def write_events_jsonl(path, labeled_events):
    """One line per switch event of each (seed, episode index, events)."""
    with atomic_output(path) as fh:
        fh.writelines(
            json.dumps({"seed": seed, "episode": episode, "step": event.step,
                        "from": event.src, "to": event.dst, "x": event.x,
                        "c": event.c, "v": event.v}, sort_keys=True) + "\n"
            for seed, episode, events in labeled_events
            for event in events)
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


def _load_checkpoints(config, what, kinds, roles=("target",), optional=()):
    """Load the walker, and per kind of `kinds` the policies at each role of
    `roles` and at each of `optional` that the config names.

    Every required key is checked before any file is read. Returns the
    walker's (net, norm), the policies by (kind, role), and the config cut
    down to the checkpoints loaded. The run hashes that config, so a file it
    never reads leaves its hash alone.
    """
    for keys in [("default",)] + [(kind, role) for kind in kinds
                                  for role in roles]:
        if config.checkpoint_path(*keys) is None:
            raise ConfigError(
                f"{what} needs checkpoints.{'.'.join(keys)} in the config")
    checkpoints = {"default": config.checkpoints["default"]}
    walker = load_policy(checkpoints["default"])
    policies = {}
    for kind in kinds:
        for role in (*roles, *optional):
            path = config.checkpoint_path(kind, role)
            if path is not None:
                policies[kind, role] = load_policy(path)
                checkpoints.setdefault(kind, {})[role] = path
    return walker, policies, replace(config, checkpoints=checkpoints)


def _module(config, kind, walker, policies):
    """The `kind` behavior module of loaded policies. Without a setup
    checkpoint its setup policy is the walker-initialized one (exactly the
    untrained starting point)."""
    target = policies[kind, "target"]
    if (kind, "setup") in policies:
        return BehaviorModule(kind, *target, *policies[kind, "setup"],
                              config.awtv)
    return BehaviorModule.from_default(kind, *target, *walker, config.awtv)


def _eval_drivers(config, course, seed, walker, modules, without_setup=False):
    """A cell's evaluation drivers: `config.episodes` episodes on `course`
    from the seed's evaluation stream, `walker` the walking (net, norm)."""
    return episode_drivers(TerrainEnv(course), *walker, modules,
                           config.episodes,
                           np.random.default_rng((seed, RNG_EVAL)),
                           without_setup=without_setup)


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


# the two-sided 95% quantile of the standard normal
WILSON_Z = 1.959963984540054


def wilson_interval(successes, n):
    """(low, high) 95% Wilson score interval of `successes` in `n` trials."""
    p = successes / n
    z2n = WILSON_Z * WILSON_Z / n
    centre = (p + z2n / 2.0) / (1.0 + z2n)
    half = (WILSON_Z / (1.0 + z2n)
            * math.sqrt(p * (1.0 - p) / n + z2n / (4.0 * n)))
    return max(0.0, centre - half), min(1.0, centre + half)


def _arm_summary(rows, seeds):
    episodes = {seed: [r for r in rows if r.seed == seed] for seed in seeds}
    per_seed = {
        str(seed): sum(int(r.success) for r in seed_rows) / len(seed_rows)
        for seed, seed_rows in episodes.items()
    }
    successes = sum(int(r.success) for r in rows)
    return {
        "success": successes / len(rows),
        # over episodes, as if independent
        "success_ci95": list(wilson_interval(successes, len(rows))),
        "distance": sum(r.distance_fraction for r in rows) / len(rows),
        "per_seed": per_seed,
    }


def _ranking(arm_summaries, order):
    return sorted(order, key=lambda arm: (-arm_summaries[arm]["success"],
                                          order.index(arm)))


def _run_grid(config, experiment, course_id, arms, cells, extra=None,
              label=None):
    """Run every arm x seed cell, then write metrics, events and the report.

    `cells(arm, seed)` gives the drivers of a cell's evaluation episodes,
    training its policies first where the experiment trains; it is called
    arm-major in seed order, the order of the rows and events written. Then
    all cells' drivers run as lanes of one `run_lanes` call, so nothing is
    written if a cell raises. `label(course)` names a row's course (default
    `course_id`); `extra(ran)` turns each cell's finished drivers, keyed
    (arm, seed), into entries that join the report. `config` is the one
    `_load_checkpoints` returned, so the hash covers what the run loaded.
    """
    cfg_hash = config_hash(config)
    out_dir = Path(config.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use output directory {out_dir}: "
                          f"{exc}") from None
    ran = {(arm, seed): list(cells(arm, seed))
           for arm in arms for seed in config.seeds}
    run_lanes([drv for cell in ran.values() for drv in cell])
    summaries = {}
    for arm in arms:
        rows, labeled = [], []
        for seed in config.seeds:
            for i, drv in enumerate(ran[arm, seed]):
                course, state = drv.env.course, drv.state
                rows.append(MetricsRow(
                    seed, arm, label(course) if label else course_id,
                    bool(state.success), distance_fraction(course, state),
                    state.steps, len(drv.switch.events)))
                labeled.append((seed, i, drv.switch.events))
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
        **(extra(ran) if extra else {}),
    }
    write_report(out_dir, report)
    return report


def _save_arm_checkpoint(config, name, net, norm):
    save_checkpoint(Path(config.output_dir) / f"{name}.ckpt",
                    Checkpoint.of(net, norm, config_hash(config)))


class _SetupExperiment:
    """Course, walker and frozen target of an experiment that trains one
    setup policy per (arm, seed) cell; `config` keeps the checkpoints it
    loaded."""

    def __init__(self, config, what):
        self.course, self.course_id = experiment_course(config)
        self.walker, policies, self.config = _load_checkpoints(
            config, what, (config.kind,))
        self.target = policies[config.kind, "target"]

    def module(self, seed, fresh=False):
        return setup_module(self.config.kind, *self.target, *self.walker,
                            self.config.awtv, seed, fresh=fresh)

    def cell(self, arm, seed, trainer=train_setup, fresh=False,
             **trainer_kwargs):
        """Build, train and checkpoint one setup policy; returns the cell's
        evaluation drivers."""
        module = self.module(seed, fresh)
        trainer(module, *self.walker, TerrainEnv(self.course), self.config.ppo,
                self.config.budgets["setup"],
                np.random.default_rng((seed, RNG_TRAIN)), eval_every=0,
                eval_episodes=0, seed_tag=seed, **trainer_kwargs)
        _save_arm_checkpoint(self.config, f"setup_{arm}_seed{seed}",
                             module.setup_net, module.setup_norm)
        return _eval_drivers(self.config, self.course, seed, self.walker,
                             {module.kind: module})


# ---- experiments -------------------------------------------------------------


def run_evaluation(config):
    """Evaluate already-trained policies on a course; no training at all.
    The setup checkpoints are loaded, and hashed, only for a with-setup arm."""
    course, course_id = experiment_course(config)
    kinds = [kind for kind in sorted({a.kind for a in course.artifacts})
             if config.checkpoint_path(kind) is not None]
    arms = _chosen_arms(config, EVALUATION_ARMS, "evaluation")
    walker, policies, config = _load_checkpoints(
        config, "evaluation", kinds,
        optional=("setup",) if "with-setup" in arms else ())
    modules = {kind: _module(config, kind, walker, policies) for kind in kinds}
    return _run_grid(config, "evaluation", course_id, arms,
                     lambda arm, seed: _eval_drivers(
                         config, course, seed, walker, modules,
                         without_setup=arm == "without-setup"))


def run_ablation(config):
    """Train the full, no-init, and no-extended setup arms; rank them."""
    setup = _SetupExperiment(config, "ablation")
    arms = _chosen_arms(config, ABLATION_ARMS, "ablation")
    return _run_grid(
        setup.config, "ablation", setup.course_id, arms,
        lambda arm, seed: setup.cell(arm, seed, fresh=arm == "no-init",
                                     extend=arm != "no-extended"))


def run_reward_comparison(config):
    """Train one setup arm per shaped-reward variant at equal budget."""
    setup = _SetupExperiment(config, "reward comparison")
    arms = _chosen_arms(config, VARIANT_TAGS, "reward comparison",
                        REWARD_ARMS_DEFAULT)
    return _run_grid(
        setup.config, "reward-comparison", setup.course_id, arms,
        lambda arm, seed: setup.cell(arm, seed,
                                     reward_fn=SETUP_REWARDS[arm]))


def run_baseline_comparison(config):
    """Setup policy against the no-setup, proximity, and single-policy arms.

    Companion to the ablation (`gaitbridge baseline-compare`): same
    protocol, but the comparison set spans methods rather than feature
    removals.
    """
    setup = _SetupExperiment(config, "baseline comparison")
    config = setup.config
    arms = _chosen_arms(config, BASELINE_ARMS, "baseline comparison")

    def cells(arm, seed):
        if arm == "setup":
            return setup.cell(arm, seed)
        if arm == "proximity":
            return setup.cell(arm, seed, trainer=train_proximity_arm)
        if arm == "without-setup":
            return _eval_drivers(config, setup.course, seed, setup.walker,
                                 {config.kind: setup.module(seed)},
                                 without_setup=True)
        net, norm, _ = train_single_policy(
            setup.course, config.budgets["setup"],
            np.random.default_rng((seed, RNG_TRAIN)),
            config=config.ppo, eval_every=0, eval_episodes=0,
            seed_tag=seed)
        _save_arm_checkpoint(config, f"single_policy_seed{seed}", net, norm)
        return _eval_drivers(config, setup.course, seed, (net, norm), {})

    return _run_grid(config, "baseline-comparison", setup.course_id, arms,
                     cells)


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

    Each (seed, episode) draws its own course order and episode generator,
    and the policies are frozen. Every cell's episodes run together as lanes
    of one `run_lanes` call, one course and env per lane, so an episode's
    discrete results do not depend on the other cells (see the `composer`
    module docstring).
    """
    walker, policies, config = _load_checkpoints(
        config, "multi-terrain", KINDS, ("target", "setup"))
    modules = {kind: _module(config, kind, walker, policies) for kind in KINDS}
    arms = _chosen_arms(config, MULTI_TERRAIN_ARMS, "multi-terrain")

    def drivers(arm, seed):
        for episode in range(config.episodes):
            order_rng = np.random.default_rng((seed, episode, RNG_ORDER))
            order = tuple(KINDS[i]
                          for i in order_rng.permutation(len(KINDS)))
            yield EpisodeDriver(
                TerrainEnv(multi_terrain_course(order)), *walker, modules,
                np.random.default_rng((seed, episode, RNG_EPISODE)),
                without_setup=arm == "without-setup")

    def failure_counts(ran):
        failures = {arm: dict.fromkeys(KINDS + (FLAT_BUCKET,), 0)
                    for arm in arms}
        for (arm, _), lanes in ran.items():
            for drv in lanes:
                failed_at = failure_terrain(drv.env.course, drv.state)
                if failed_at is not None:
                    failures[arm][failed_at] += 1
        return {"failure_counts": failures}

    return _run_grid(config, "multi-terrain", "shuffled-all-kinds", arms,
                     drivers, extra=failure_counts,
                     label=lambda course: "-".join(a.kind
                                                   for a in course.artifacts))
