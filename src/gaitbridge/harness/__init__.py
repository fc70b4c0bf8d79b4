"""Experiment harness: configuration, checkpoints, orchestration, CLI."""

from .checkpoint import (
    Checkpoint,
    CheckpointFormatError,
    load_checkpoint,
    load_policy,
    save_checkpoint,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    config_hash,
    load_config,
    settings_hash,
)
from .experiments import (
    MetricsError,
    MetricsRow,
    failure_terrain,
    read_metrics_csv,
    run_ablation,
    run_baseline_comparison,
    run_evaluation,
    run_multi_terrain,
    run_reward_comparison,
    summarize_metrics,
    write_events_jsonl,
    write_metrics_csv,
)

__all__ = [
    "Checkpoint",
    "CheckpointFormatError",
    "ConfigError",
    "ExperimentConfig",
    "MetricsError",
    "MetricsRow",
    "config_from_dict",
    "config_hash",
    "failure_terrain",
    "load_checkpoint",
    "load_config",
    "load_policy",
    "read_metrics_csv",
    "run_ablation",
    "run_baseline_comparison",
    "run_evaluation",
    "run_multi_terrain",
    "run_reward_comparison",
    "save_checkpoint",
    "settings_hash",
    "summarize_metrics",
    "write_events_jsonl",
    "write_metrics_csv",
]
