"""Command-line front end.

Subcommands: train-target, train-setup, evaluate, and one per experiment
kind that a JSON config file drives (EXPERIMENT_COMMANDS): ablate,
reward-compare, baseline-compare, multi-terrain. Exit codes (EXIT_CODES,
also printed by --help): 0 success; 2 bad flags, configuration or course
file, or a file the configuration references cannot be read; 3 training
failed, because the final success rate fell below the bar or an update
produced a non-finite gradient; 4 a checkpoint file could not be read as a
policy checkpoint.
"""

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from ..baselines import SETUP_REWARDS, VARIANT_TAGS
from ..composer import (
    FLAT,
    TrainingFailure,
    course_for_kind,
    target_stop_at,
    train_setup,
    train_target,
)
from ..diffcore import NonFiniteGradientError
from ..policyopt import PPOConfig
from ..terrainsim import KINDS, CourseError, TerrainEnv, load_course
from .checkpoint import (
    Checkpoint,
    CheckpointFormatError,
    load_policy,
    save_checkpoint,
)
from .config import (
    AWTVParams,
    ConfigError,
    config_from_dict,
    file_digest,
    load_config,
    parse_params,
    settings_hash,
)
from .experiments import (
    run_ablation,
    run_baseline_comparison,
    run_evaluation,
    run_multi_terrain,
    run_reward_comparison,
    setup_module,
)

EXIT_CODES = """exit codes:
  0  success
  2  bad flags, configuration or course file, or a file the
     configuration references cannot be read
  3  training failed: the final success rate fell below the bar, or an
     update produced a non-finite gradient
  4  a checkpoint file could not be read as a policy checkpoint"""

# subcommand -> (experiment kind its config must declare, runner)
EXPERIMENT_COMMANDS = {
    "ablate": ("ablation", run_ablation),
    "reward-compare": ("reward-comparison", run_reward_comparison),
    "baseline-compare": ("baseline-comparison", run_baseline_comparison),
    "multi-terrain": ("multi-terrain", run_multi_terrain),
}


def _overrides(pairs, what):
    """{key: number} of --ppo/--awtv KEY=VALUE pairs; `parse_params` checks
    the keys and the types."""
    out = {}
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        if not sep:
            raise ConfigError(f"{what} override {pair!r} is not key=value")
        try:
            out[key] = int(value)
        except ValueError:
            try:
                out[key] = float(value)
            except ValueError:
                raise ConfigError(f"{what} override {key}={value!r} is not "
                                  "a number") from None
    return out


def _print_report(report):
    print(f"experiment: {report['experiment']}  course: {report['course']}")
    print(f"config hash: {report['config_hash']}")
    for arm in report["ranking"]:
        summary = report["arms"][arm]
        print(f"  {arm}: success {summary['success']:.3f}  "
              f"distance {summary['distance']:.3f}")


# ---- training subcommands ------------------------------------------------------


def _check_training_flags(args):
    """Reject flags that would fail only after training, or never act;
    returns the run's PPO settings."""
    for flag in ("budget", "eval_every", "seed"):
        if getattr(args, flag) < 0:
            raise ConfigError(f"--{flag.replace('_', '-')} must be >= 0")
    if not Path(args.out).parent.is_dir():
        raise ConfigError(f"--out directory {Path(args.out).parent} does not "
                          "exist")
    if Path(args.out).is_dir():
        raise ConfigError(f"--out {args.out} is a directory, not a file path")
    return parse_params(PPOConfig, _overrides(args.ppo, "ppo"), "ppo")


def _train_and_save(args, config, settings, train, what, measure):
    """Run `train()` for its (net, norm, curve), save the policy stamped
    with the hash of the settings both training commands share plus
    `settings`, and print the summary: `what` was trained, its final
    `measure`. The files are hashed before training, as the run read them."""
    run_settings = {
        "command": args.command, "kind": args.kind, "budget": args.budget,
        "seed": args.seed, "ppo": dataclasses.asdict(config),
        "course": (file_digest(args.course, "course file") if args.course
                   else ""),
        **settings,
    }
    net, norm, curve = train()
    save_checkpoint(args.out, Checkpoint.of(net, norm,
                                            settings_hash(run_settings)))
    steps, updates, rate = curve[-1]
    result = "not evaluated" if rate is None else f"{measure} {rate:.3f}"
    print(f"trained {args.kind} {what}: {result} after {steps} steps "
          f"({updates} updates)")
    print(f"checkpoint: {args.out}")
    return 0


def _cmd_train_target(args):
    config = _check_training_flags(args)
    # NaN never compares true: the run would never stop early or fail
    if math.isnan(args.stop_at or 0.0) or math.isnan(args.min_final or 0.0):
        raise ConfigError("--stop-at and --min-final must not be nan")
    if args.eval_episodes < 1:  # the final success rate is always checked
        raise ConfigError("train-target needs --eval-episodes >= 1")
    course = load_course(args.course) if args.course else None
    stop_at = target_stop_at(args.kind, args.stop_at)
    kwargs = {}
    if args.min_final is not None:
        kwargs["min_final"] = args.min_final
    # --min-final only decides pass or fail; it never touches the weights
    return _train_and_save(
        args, config, {"stop_at": stop_at, "eval_every": args.eval_every,
                       "eval_episodes": args.eval_episodes},
        lambda: train_target(
            args.kind, args.budget, np.random.default_rng(args.seed),
            config=config, course=course, eval_every=args.eval_every,
            eval_episodes=args.eval_episodes, stop_at=stop_at,
            seed_tag=args.seed, **kwargs),
        "policy", "success")


def _cmd_train_setup(args):
    config = _check_training_flags(args)
    params = parse_params(AWTVParams, _overrides(args.awtv, "awtv"), "awtv")
    if args.eval_episodes < 0:
        raise ConfigError("--eval-episodes must be >= 0")
    course = (load_course(args.course) if args.course
              else course_for_kind(args.kind))
    default_net, default_norm = load_policy(args.default)
    target_net, target_norm = load_policy(args.target)
    module = setup_module(args.kind, target_net, target_norm, default_net,
                          default_norm, params, args.seed,
                          fresh=args.fresh_init)

    def train():
        curve = train_setup(
            module, default_net, default_norm, TerrainEnv(course),
            config, args.budget, np.random.default_rng(args.seed),
            reward_fn=SETUP_REWARDS[args.reward],
            extend=not args.no_extend, eval_every=args.eval_every,
            eval_episodes=args.eval_episodes, seed_tag=args.seed)
        return module.setup_net, module.setup_norm, curve

    return _train_and_save(
        args, config, {
            "default": file_digest(args.default, "default checkpoint"),
            "target": file_digest(args.target, "target checkpoint"),
            "reward": args.reward, "extend": not args.no_extend,
            "fresh_init": args.fresh_init,
            "awtv": dataclasses.asdict(params),
        }, train, "setup policy", "bridged success")


# ---- evaluation and experiment subcommands ----------------------------------------


def _cmd_evaluate(args):
    if not args.course and not args.kind:
        raise ConfigError("evaluate needs --kind or --course")
    checkpoints = {"default": args.default}
    for spec in args.module or ():
        kind, sep, paths = spec.partition("=")
        setup_path, sep2, target_path = paths.partition(":")
        if not sep or not sep2 or kind not in KINDS:
            raise ConfigError(
                f"--module {spec!r} is not KIND=SETUP_CKPT:TARGET_CKPT "
                f"with KIND one of {', '.join(KINDS)}")
        if kind in checkpoints:
            raise ConfigError(f"--module gives {kind} more than once")
        checkpoints[kind] = {"setup": setup_path, "target": target_path}
    raw = {
        "experiment": "evaluation",
        "seeds": [args.seed],
        "episodes": args.episodes,
        "arms": ["without-setup"] if args.without_setup else ["with-setup"],
        "output_dir": args.out,
        "checkpoints": checkpoints,
    }
    if args.course:
        raw["course"] = args.course
    if args.kind:
        raw["kind"] = args.kind
    config = config_from_dict(raw, check_paths=False)
    report = run_evaluation(config)
    _print_report(report)
    return 0


def _experiment_config(args, expected_kind):
    config = load_config(args.config)
    if config.experiment != expected_kind:
        raise ConfigError(
            f"config {args.config} declares experiment "
            f"{config.experiment!r}; this subcommand runs "
            f"{expected_kind!r}")
    replacements = {}
    if args.episodes is not None:
        if args.episodes < 1:
            raise ConfigError("--episodes must be positive")
        replacements["episodes"] = args.episodes
    if args.seeds is not None:
        if args.seeds < 1:
            raise ConfigError("--seeds must be positive")
        replacements["seeds"] = tuple(range(1, args.seeds + 1))
    if args.output_dir is not None:
        replacements["output_dir"] = args.output_dir
    if replacements:
        config = dataclasses.replace(config, **replacements)
    return config


def _cmd_experiment(args):
    kind, runner = EXPERIMENT_COMMANDS[args.command]
    report = runner(_experiment_config(args, kind))
    _print_report(report)
    for arm, counts in sorted(report.get("failure_counts", {}).items()):
        shown = ", ".join(f"{terrain}={n}"
                          for terrain, n in sorted(counts.items()))
        print(f"  failures[{arm}]: {shown}")
    return 0


# ---- parser ---------------------------------------------------------------------


def _add_training_flags(sub):
    sub.add_argument("--budget", type=int, required=True,
                     help="environment-step training budget")
    sub.add_argument("--seed", type=int, default=1)
    sub.add_argument("--out", required=True, help="checkpoint output path")
    sub.add_argument("--course", default=None,
                     help="course file (defaults to the kind's course)")
    sub.add_argument("--eval-every", type=int, default=25,
                     help="updates between curve evaluations (0: final only)")
    sub.add_argument("--eval-episodes", type=int, default=100)
    sub.add_argument("--ppo", action="append", metavar="KEY=VALUE",
                     help="override a PPO parameter (repeatable)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gaitbridge",
        description="Train, bridge, and benchmark terrain policies on the "
                    "deterministic 2-D runner.",
        epilog=EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)

    train_target_cmd = commands.add_parser(
        "train-target", help="train a per-terrain policy (or the flat walker)")
    train_target_cmd.add_argument("--kind", required=True,
                                  choices=(FLAT,) + KINDS)
    _add_training_flags(train_target_cmd)
    train_target_cmd.add_argument("--stop-at", type=float, default=None,
                                  help="stop early at this success rate "
                                       "(default 0.95 flat, 0.8 otherwise)")
    train_target_cmd.add_argument("--min-final", type=float, default=None,
                                  help="fail the run below this final success "
                                       "rate (library default 0.5; 0 keeps "
                                       "any result)")
    train_target_cmd.set_defaults(func=_cmd_train_target)

    train_setup_cmd = commands.add_parser(
        "train-setup", help="train a setup policy against a frozen target")
    train_setup_cmd.add_argument("--kind", required=True, choices=KINDS)
    train_setup_cmd.add_argument("--default", required=True,
                                 help="default-policy checkpoint")
    train_setup_cmd.add_argument("--target", required=True,
                                 help="target-policy checkpoint")
    _add_training_flags(train_setup_cmd)
    train_setup_cmd.add_argument("--reward", default="awtv",
                                 choices=VARIANT_TAGS,
                                 help="shaped-reward variant")
    train_setup_cmd.add_argument("--no-extend", action="store_true",
                                 help="do not fold post-handoff rewards")
    train_setup_cmd.add_argument("--fresh-init", action="store_true",
                                 help="random init instead of the default "
                                      "policy's weights")
    train_setup_cmd.add_argument("--awtv", action="append",
                                 metavar="KEY=VALUE",
                                 help="override a shaped-reward parameter")
    train_setup_cmd.set_defaults(func=_cmd_train_setup, eval_every=0,
                                 eval_episodes=50)

    evaluate_cmd = commands.add_parser(
        "evaluate", help="run bridged evaluation episodes from checkpoints")
    evaluate_cmd.add_argument("--default", required=True,
                              help="default-policy checkpoint")
    evaluate_cmd.add_argument("--module", action="append",
                              metavar="KIND=SETUP_CKPT:TARGET_CKPT",
                              help="behavior module checkpoints (repeatable)")
    evaluate_cmd.add_argument("--kind", choices=KINDS, default=None,
                              help="single-artifact course to evaluate on")
    evaluate_cmd.add_argument("--course", default=None,
                              help="course file to evaluate on")
    evaluate_cmd.add_argument("--episodes", type=int, default=200)
    evaluate_cmd.add_argument("--seed", type=int, default=1)
    evaluate_cmd.add_argument("--out", required=True,
                              help="output directory for metrics and logs")
    evaluate_cmd.add_argument("--without-setup", action="store_true",
                              help="hand straight to the target policy")
    evaluate_cmd.set_defaults(func=_cmd_evaluate)

    for name, (kind, _) in EXPERIMENT_COMMANDS.items():
        sub = commands.add_parser(
            name, help=f"run the {kind} experiment from a config file")
        sub.add_argument("--config", required=True,
                         help=f"JSON config with experiment={kind!r}")
        sub.add_argument("--episodes", type=int, default=None,
                         help="override evaluation episodes per seed")
        sub.add_argument("--seeds", type=int, default=None,
                         help="override: use seeds 1..N")
        sub.add_argument("--output-dir", default=None)
        sub.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CourseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TrainingFailure, NonFiniteGradientError) as exc:
        print(f"training failed: {exc}", file=sys.stderr)
        return 3
    except CheckpointFormatError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
