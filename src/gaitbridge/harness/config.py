"""Experiment configuration: strict JSON loading and canonical hashing.

A config file is a single JSON object. Unknown and repeated keys anywhere
in it are rejected rather than ignored — a typo must fail loudly, not
silently run the default. Every path the config references must exist at
load time. Relative paths are resolved against the config file's own
directory.

The canonical hash fingerprints the fully-resolved settings (defaults
included), so two runs compare as "same experiment" exactly when every
knob matches. Referenced checkpoint and course files enter it by the
sha256 of their bytes, not by their paths, and the output directory does
not enter it at all. The hash is embedded in every artifact the harness
writes.
"""

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from ..composer import AWTVParams
from ..policyopt import PPOConfig
from ..terrainsim import KINDS

EXPERIMENT_KINDS = ("evaluation", "ablation", "reward-comparison",
                    "baseline-comparison", "multi-terrain")
BUDGET_KEYS = ("default", "target", "setup")

DEFAULT_BUDGETS = {"default": 120_000, "target": 8_000_000,
                   "setup": 2_000_000}


class ConfigError(ValueError):
    """The configuration is malformed, inconsistent, or references
    something that does not exist."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seeds: tuple = (1, 2, 3)
    episodes: int = 200
    kind: str = "hurdle"          # artifact kind for single-artifact runs
    course: str = ""              # optional course-file path (overrides kind)
    arms: tuple = ()              # empty: the experiment's standard arms
    output_dir: str = "out"
    checkpoints: dict = field(default_factory=dict)
    budgets: dict = field(default_factory=lambda: dict(DEFAULT_BUDGETS))
    awtv: dict = field(default_factory=dict)
    ppo: dict = field(default_factory=dict)

    def resolved(self) -> dict:
        """Plain-dict view with every default materialized, the PPO and
        AWTV settings included."""
        return {**dataclasses.asdict(self),
                "ppo": dataclasses.asdict(self.ppo_config()),
                "awtv": dataclasses.asdict(self.awtv_params())}

    def ppo_config(self) -> PPOConfig:
        return build_params(PPOConfig, self.ppo, "ppo")

    def awtv_params(self) -> AWTVParams:
        return build_params(AWTVParams, self.awtv, "awtv")

    def checkpoint_path(self, *keys):
        """Path stored under checkpoints[k0][k1]..., or None if absent."""
        node = self.checkpoints
        for key in keys:
            if not isinstance(node, dict) or key not in node:
                return None
            node = node[key]
        return node


_FIELD_NAMES = tuple(f.name for f in dataclasses.fields(ExperimentConfig))
PPO_KEYS = tuple(f.name for f in dataclasses.fields(PPOConfig))
PPO_INT_KEYS = ("epochs", "minibatch", "horizon")
AWTV_KEYS = tuple(f.name for f in dataclasses.fields(AWTVParams))
_MODULE_CKPT_KEYS = ("target", "setup")


def build_params(cls, overrides, what):
    """`cls(**overrides)`; a value its range check rejects is a ConfigError."""
    try:
        return cls(**overrides)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what} parameter: {exc}") from None


def _reject_unknown(mapping, allowed, where):
    for key in mapping:
        if key not in allowed:
            raise ConfigError(
                f"unknown {where} key {key!r} (allowed: "
                f"{', '.join(sorted(allowed))})")


def _require_type(value, types, what):
    if not isinstance(value, types) or isinstance(value, bool):
        raise ConfigError(f"{what} must be of type "
                          f"{'/'.join(t.__name__ for t in types)}, "
                          f"got {value!r}")
    return value


def _require_float(value, what):
    try:
        return float(_require_type(value, (int, float), what))
    except OverflowError:
        raise ConfigError(f"{what} {value} is out of range") from None


def _resolve_path(base_dir, value, what, check):
    path = Path(value)
    if not path.is_absolute() and base_dir is not None:
        path = Path(base_dir) / path
    if check and not path.exists():
        raise ConfigError(f"{what} {str(path)!r} does not exist")
    return str(path)


def _validate_checkpoints(raw, base_dir, check_paths):
    _require_type(raw, (dict,), "checkpoints")
    _reject_unknown(raw, ("default",) + tuple(KINDS), "checkpoints")
    out = {}
    for key, value in raw.items():
        if key == "default":
            out[key] = _resolve_path(base_dir, _require_type(
                value, (str,), "checkpoints.default"),
                "checkpoint checkpoints.default", check_paths)
            continue
        _require_type(value, (dict,), f"checkpoints.{key}")
        _reject_unknown(value, _MODULE_CKPT_KEYS, f"checkpoints.{key}")
        out[key] = {
            role: _resolve_path(base_dir, _require_type(
                path, (str,), f"checkpoints.{key}.{role}"),
                f"checkpoint checkpoints.{key}.{role}", check_paths)
            for role, path in value.items()
        }
    return out


def config_from_dict(raw, base_dir=None, check_paths=True) -> ExperimentConfig:
    _require_type(raw, (dict,), "config")
    _reject_unknown(raw, _FIELD_NAMES, "config")
    if "experiment" not in raw:
        raise ConfigError("config needs an 'experiment' kind "
                          f"(one of {', '.join(EXPERIMENT_KINDS)})")
    experiment = raw["experiment"]
    if experiment not in EXPERIMENT_KINDS:
        raise ConfigError(f"unknown experiment kind {experiment!r} "
                          f"(one of {', '.join(EXPERIMENT_KINDS)})")

    values = {"experiment": experiment}

    if "seeds" in raw:
        seeds = _require_type(raw["seeds"], (list,), "seeds")
        if not seeds:
            raise ConfigError("seeds must be a non-empty list of integers")
        values["seeds"] = tuple(_require_type(s, (int,), "each seed")
                                for s in seeds)
        if min(seeds) < 0 or len(set(seeds)) < len(seeds):
            raise ConfigError(f"seeds must be distinct and >= 0, got {seeds}")
    if "episodes" in raw:
        episodes = _require_type(raw["episodes"], (int,), "episodes")
        if episodes < 1:
            raise ConfigError("episodes must be positive")
        values["episodes"] = episodes
    if "kind" in raw:
        kind = _require_type(raw["kind"], (str,), "kind")
        if kind not in KINDS:
            raise ConfigError(f"unknown artifact kind {kind!r} "
                              f"(one of {', '.join(KINDS)})")
        values["kind"] = kind
    if raw.get("course"):
        values["course"] = _resolve_path(
            base_dir, _require_type(raw["course"], (str,), "course"),
            "course file", check_paths)
    if "arms" in raw:
        arms = _require_type(raw["arms"], (list,), "arms")
        values["arms"] = tuple(_require_type(a, (str,), "each arm")
                               for a in arms)
    if "output_dir" in raw:
        out = _require_type(raw["output_dir"], (str,), "output_dir")
        path = Path(out)
        if not path.is_absolute() and base_dir is not None:
            path = Path(base_dir) / path
        values["output_dir"] = str(path)
    if "checkpoints" in raw:
        values["checkpoints"] = _validate_checkpoints(raw["checkpoints"],
                                                      base_dir, check_paths)
    if "budgets" in raw:
        budgets = _require_type(raw["budgets"], (dict,), "budgets")
        _reject_unknown(budgets, BUDGET_KEYS, "budgets")
        merged = dict(DEFAULT_BUDGETS)
        for key, value in budgets.items():
            value = _require_type(value, (int,), f"budgets.{key}")
            if value < 0:
                raise ConfigError(f"budgets.{key} must be >= 0")
            merged[key] = value
        values["budgets"] = merged
    if "awtv" in raw:
        awtv = _require_type(raw["awtv"], (dict,), "awtv")
        _reject_unknown(awtv, AWTV_KEYS, "awtv")
        values["awtv"] = {k: _require_float(v, f"awtv.{k}")
                          for k, v in awtv.items()}
    if "ppo" in raw:
        ppo = _require_type(raw["ppo"], (dict,), "ppo")
        _reject_unknown(ppo, PPO_KEYS, "ppo")
        checked = {}
        for key, value in ppo.items():
            if key in PPO_INT_KEYS:
                checked[key] = _require_type(value, (int,), f"ppo.{key}")
            else:
                checked[key] = _require_float(value, f"ppo.{key}")
        values["ppo"] = checked

    config = ExperimentConfig(**values)
    config.ppo_config()
    config.awtv_params()
    return config


def _unique_keys(pairs):
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"duplicate config key {key!r}")
        out[key] = value
    return out


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    return config_from_dict(raw, base_dir=Path(path).parent)


def canonical_json(payload) -> str:
    """Deterministic JSON: sorted keys, no whitespace, tuples as lists."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def settings_hash(payload) -> str:
    """sha256 over the canonical JSON of any settings mapping."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def file_digest(path, what):
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None


def config_hash(config: ExperimentConfig) -> str:
    """Hash of what the experiment computes: its settings and the contents
    of the files it reads. Raises ConfigError if one cannot be read."""
    settings = config.resolved()
    del settings["output_dir"]
    settings["checkpoints"] = {
        key: (file_digest(value, f"checkpoint checkpoints.{key}")
              if isinstance(value, str) else
              {role: file_digest(path, f"checkpoint checkpoints.{key}.{role}")
               for role, path in value.items()})
        for key, value in config.checkpoints.items()
    }
    if config.course:
        settings["course"] = file_digest(config.course, "course file")
    return settings_hash(settings)
