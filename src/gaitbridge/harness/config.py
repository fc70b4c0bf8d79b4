"""Experiment configuration: strict JSON loading and canonical hashing.

A config file is a single JSON object. Unknown and repeated keys anywhere
in it are rejected rather than ignored — a typo must fail loudly, not
silently run the default — and so are keys its experiment kind never reads
(`_UNREAD_KEYS`). Every path the config references must exist at
load time. Relative paths are resolved against the config file's own
directory.

The canonical hash fingerprints the fully-resolved settings (defaults
included), so two runs compare as "same experiment" exactly when every
knob matches. Referenced checkpoint and course files enter it by the
sha256 of their bytes, not by their paths, and the output directory does
not enter it at all. A run's hash covers the checkpoints the run loads and
no others: an experiment hashes its config cut down to the checkpoint
entries it loaded, so a file the config names but the run never reads
leaves the hash alone. The hash is embedded in every artifact the harness
writes.

`parse_params` is the one parser of PPO and AWTV settings, for the
config's `ppo`/`awtv` sections and the CLI's --ppo/--awtv pairs alike.
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
BUDGET_KEYS = ("setup",)

DEFAULT_BUDGETS = {"setup": 2_000_000}

# keys an experiment kind never reads: a hash that moved with them would
# tell apart runs that compute the same thing
_UNREAD_KEYS = {"evaluation": ("ppo", "awtv", "budgets"),
                "multi-terrain": ("ppo", "awtv", "budgets", "course", "kind")}


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
    awtv: AWTVParams = field(default_factory=AWTVParams)
    ppo: PPOConfig = field(default_factory=PPOConfig)

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
AWTV_KEYS = tuple(f.name for f in dataclasses.fields(AWTVParams))
_MODULE_CKPT_KEYS = ("target", "setup")


def build_params(cls, overrides, what):
    """`cls(**overrides)`; a value its range check rejects is a ConfigError."""
    try:
        return cls(**overrides)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what} parameter: {exc}") from None


def parse_params(cls, raw, what):
    """`cls` (PPOConfig or AWTVParams) from a mapping of its field names to
    numbers. A field whose default is an int takes only an int, any other
    an int or a float; an unknown key, a value of another type or one that
    `cls` rejects is a ConfigError."""
    _require_type(raw, (dict,), what)
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    _reject_unknown(raw, defaults, what)
    return build_params(cls, {
        key: (_require_type(value, (int,), f"{what}.{key}")
              if type(defaults[key]) is int
              else _require_float(value, f"{what}.{key}"))
        for key, value in raw.items()}, what)


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

    def path_at(value, where):
        return _resolve_path(base_dir, _require_type(value, (str,), where),
                             f"checkpoint {where}", check_paths)

    out = {}
    for key, value in raw.items():
        if key == "default":
            out[key] = path_at(value, "checkpoints.default")
            continue
        _require_type(value, (dict,), f"checkpoints.{key}")
        _reject_unknown(value, _MODULE_CKPT_KEYS, f"checkpoints.{key}")
        out[key] = {role: path_at(path, f"checkpoints.{key}.{role}")
                    for role, path in value.items()}
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

    for key in _UNREAD_KEYS.get(experiment, ()):
        if key in raw:
            raise ConfigError(f"{experiment} does not read {key!r}; "
                              "leave it out of the config")
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
        values["output_dir"] = _resolve_path(
            base_dir, _require_type(raw["output_dir"], (str,), "output_dir"),
            "output_dir", False)
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
    for section, cls in (("awtv", AWTVParams), ("ppo", PPOConfig)):
        if section in raw:
            values[section] = parse_params(cls, raw[section], section)

    return ExperimentConfig(**values)


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
    of the files it names (the experiments pass a config cut down to the
    checkpoints they load). Raises ConfigError if one cannot be read."""
    settings = dataclasses.asdict(config)
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
        # an evaluation runs the course's own kinds; the setup experiments
        # still read `kind` for their target and setup module
        if config.experiment == "evaluation":
            del settings["kind"]
    return settings_hash(settings)
