import dataclasses
import json
import math
import shutil

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaitbridge import composer
from gaitbridge.composer import (
    FLAT,
    LANE_CROSSOVER,
    AWTVParams,
    SwitchEvent,
    train_target,
)
from gaitbridge.diffcore import ParameterizedNet
from gaitbridge.harness import checkpoint, experiments
from gaitbridge.harness.checkpoint import (
    Checkpoint,
    CheckpointFormatError,
    load_policy,
    save_checkpoint,
)
from gaitbridge.harness.cli import EXPERIMENT_COMMANDS, _overrides, main
from gaitbridge.harness.config import (
    EXPERIMENT_KINDS,
    ConfigError,
    config_from_dict,
    config_hash,
    load_config,
    parse_params,
)
from gaitbridge.harness.experiments import (
    MetricsError,
    MetricsRow,
    read_metrics_csv,
    summarize_metrics,
    write_events_jsonl,
    wilson_interval,
    write_metrics_csv,
    write_report,
)
from gaitbridge.policyopt import PPOConfig, RunningNormalizer
from gaitbridge.terrainsim import KINDS, OBS_DIM, OBS_PROPRIO

PPO_KEYS = tuple(f.name for f in dataclasses.fields(PPOConfig))
AWTV_KEYS = tuple(f.name for f in dataclasses.fields(AWTVParams))


def _policy(obs_dim=OBS_DIM, seed=0):
    net = ParameterizedNet(obs_dim, 2, (8,), np.random.default_rng(seed))
    norm = RunningNormalizer(obs_dim)
    norm.merge(np.linspace(-1.0, 1.0, obs_dim)[None])
    return net, norm


def _damped_policy(obs_dim, seed, action):
    """A random policy pulled toward a fixed action: the walker walks up to
    the artifact and hands off within a few hundred ticks."""
    net, norm = _policy(obs_dim, seed)
    net.flat[...] = net.flat.astype(np.float32) * np.float32(0.2)
    net.params["mu.b"][...] = action
    return net, norm


def _evaluate(tmp_path, default_path, capsys):
    good = tmp_path / "good.ckpt"
    save_checkpoint(good, Checkpoint.of(*_policy()))
    code = main(["evaluate", "--default", str(default_path), "--kind", "hurdle",
                 "--module", f"hurdle={good}:{good}", "--episodes", "1",
                 "--out", str(tmp_path / "out")])
    return code, capsys.readouterr().err


def test_checkpoint_missing_mu_weight_is_a_format_error(tmp_path, capsys):
    ckpt = Checkpoint.of(*_policy())
    del ckpt.params["mu.w"]
    path = save_checkpoint(tmp_path / "no_mu.ckpt", ckpt)
    with pytest.raises(CheckpointFormatError, match="mu.w"):
        load_policy(path)
    code, err = _evaluate(tmp_path, path, capsys)
    assert code == 4
    assert err.startswith("checkpoint error:") and "Traceback" not in err


def test_checkpoint_normalizer_width_must_match_network(tmp_path, capsys):
    net, _ = _policy()
    _, narrow_norm = _policy(OBS_DIM - 1)
    path = save_checkpoint(tmp_path / "narrow.ckpt", Checkpoint.of(net, narrow_norm))
    with pytest.raises(CheckpointFormatError, match="input width"):
        load_policy(path)
    code, err = _evaluate(tmp_path, path, capsys)
    assert code == 4
    assert err.startswith("checkpoint error:") and "Traceback" not in err


@pytest.mark.parametrize("obs_dim, action_dim", [(OBS_DIM, 3), (7, 2), (12, 2)])
def test_checkpoint_the_runner_cannot_act_on_exits_4(tmp_path, capsys, obs_dim,
                                                     action_dim):
    # a layout the net accepts, but not one the runner's observation and
    # action vectors fit
    net = ParameterizedNet(obs_dim, action_dim, (8,), np.random.default_rng(0))
    path = save_checkpoint(tmp_path / "odd.ckpt",
                           Checkpoint.of(net, RunningNormalizer(obs_dim)))
    with pytest.raises(CheckpointFormatError,
                       match=f"{obs_dim}-input, {action_dim}-action"):
        load_policy(path)
    code, err = _evaluate(tmp_path, path, capsys)
    assert code == 4
    assert err.startswith("checkpoint error:") and "Traceback" not in err


@pytest.mark.parametrize("array, index, value, fragment", [
    ("count", ..., 2.5, "whole count"),
    ("count", 3, 2.0, "whole count"),
    ("m2", 1, np.nan, "m2 is not finite"),
    ("mu.b", 0, np.nan, "parameter mu.b holds nan"),
])
def test_malformed_checkpoint_state_exits_4_without_traceback(
        tmp_path, capsys, array, index, value, fragment):
    ckpt = Checkpoint.of(*_policy())
    (ckpt.params if array in ckpt.params else ckpt.norm_state)[array][index] = value
    with pytest.raises(CheckpointFormatError, match=fragment):
        ckpt.build()
    path = save_checkpoint(tmp_path / "malformed.ckpt", ckpt)
    code, err = _evaluate(tmp_path, path, capsys)
    assert code == 4
    assert err.startswith("checkpoint error:") and "Traceback" not in err


def test_checkpoint_round_trip_is_byte_stable(tmp_path):
    net, norm = _policy()
    first = save_checkpoint(tmp_path / "a.ckpt", Checkpoint.of(net, norm, "h"))
    loaded_net, loaded_norm = load_policy(first)
    assert np.array_equal(loaded_net.flat, net.flat)
    second = save_checkpoint(tmp_path / "b.ckpt", Checkpoint.of(loaded_net, loaded_norm, "h"))
    assert first.read_bytes() == second.read_bytes()


_RAW_CHECKPOINT = checkpoint.checkpoint_bytes(Checkpoint.of(*_policy(), "h"))


def _flip(byte, bit):
    raw = bytearray(_RAW_CHECKPOINT)
    raw[byte] ^= 1 << bit
    return bytes(raw)


@pytest.mark.parametrize("byte, bit", [(14, 7), (673, 6), (673, 7)])
def test_flipped_checkpoint_exits_4_without_traceback(tmp_path, capsys, byte,
                                                      bit):
    # a non-UTF-8 array name; an infinite, a negative normalizer count
    path = tmp_path / "flipped.ckpt"
    path.write_bytes(_flip(byte, bit))
    code, err = _evaluate(tmp_path, path, capsys)
    assert code == 4
    assert err.startswith("checkpoint error:") and "Traceback" not in err


# Flips that reach each failure of the parsing libraries themselves: an
# array rank above numpy's cap, a non-UTF-8 name, a shape too big to index,
# a zero-size reshape, an infinite normalizer count, a non-ASCII config hash.
@example(_flip(8, 1))
@example(_flip(14, 7))
@example(_flip(19, 4))
@example(_flip(401, 3))
@example(_flip(673, 6))
@example(_flip(1115, 7))
@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.builds(lambda n: _RAW_CHECKPOINT[:n],
              st.integers(0, len(_RAW_CHECKPOINT) - 1)),
    st.builds(_flip, st.integers(0, len(_RAW_CHECKPOINT) - 1),
              st.integers(0, 7))))
def test_corrupt_checkpoint_loads_or_raises_a_format_error(raw):
    """Payload flips go undetected; every other corruption is named."""
    try:
        checkpoint.parse_checkpoint(raw).build()
    except CheckpointFormatError:
        pass


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_non_finite_gradient_exits_3_without_traceback(tmp_path, capsys):
    # a finite value coefficient so large that the first gradient overflows
    code = main(["train-target", "--kind", "flat", "--budget", "64", "--seed", "1",
                 "--ppo", "horizon=32", "--ppo", "value_coef=1e308",
                 "--out", str(tmp_path / "walker.ckpt")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("training failed: non-finite gradient")
    assert "Traceback" not in err
    assert not (tmp_path / "walker.ckpt").exists()


def test_train_target_eval_every_zero_evaluates_only_at_the_end():
    _, _, curve = train_target(FLAT, 128, np.random.default_rng(0),
                               config=PPOConfig(horizon=32, epochs=1),
                               eval_every=0, eval_episodes=1, min_final=None)
    assert len(curve) == 1
    steps, updates, _ = curve[0]
    assert (steps, updates) == (128, 4)


def test_train_target_final_eval_on_an_eval_boundary_is_not_repeated():
    _, _, curve = train_target(FLAT, 128, np.random.default_rng(0),
                               config=PPOConfig(horizon=32, epochs=1),
                               eval_every=2, eval_episodes=1, stop_at=2.0,
                               min_final=None)
    assert [(steps, updates) for steps, updates, _ in curve] == [(64, 2), (128, 4)]


def test_cli_train_target_eval_every_zero_exits_0(tmp_path, capsys):
    out = tmp_path / "walker.ckpt"
    code = main(["train-target", "--kind", "flat", "--budget", "64", "--seed", "1",
                 "--ppo", "horizon=32", "--eval-every", "0", "--eval-episodes", "1",
                 "--min-final", "0", "--out", str(out)])
    assert code == 0
    assert "after 64 steps (2 updates)" in capsys.readouterr().out
    load_policy(out)


_BAD_TRAINING_FLAGS = [
    ("train-target", ["--ppo", "lr=inf"]),
    ("train-target", ["--ppo", "minibatch=0"]),
    ("train-target", ["--eval-episodes", "0"]),
    ("train-target", ["--eval-episodes", "-1"]),
    ("train-setup", ["--ppo", "horizon=1"]),
    ("train-setup", ["--ppo", "clip=-1"]),
    ("train-setup", ["--awtv", "gamma=2"]),
    ("train-setup", ["--eval-episodes", "-1"]),
    ("train-target", ["--budget", "-5"]),
    ("train-setup", ["--budget", "-5"]),
    ("train-target", ["--eval-every", "-1"]),
    ("train-setup", ["--eval-every", "-1"]),
    ("train-target", ["--seed", "-1"]),
    ("train-setup", ["--seed", "-1"]),
    # NaN never compares true, so it would never stop or fail a run
    ("train-target", ["--stop-at", "nan"]),
    ("train-target", ["--min-final", "nan"]),
    # the checkpoint would fail to write only after training
    ("train-target", ["--out", "no-such-dir/policy.ckpt"]),
    ("train-setup", ["--out", "no-such-dir/policy.ckpt"]),
    ("train-target", ["--out", "."]),
    ("train-setup", ["--out", "."]),
    # a malformed override: no `=`, an unknown key, not a number, or a
    # fraction for an integer setting
    ("train-target", ["--ppo", "lr"]),
    ("train-target", ["--ppo", "nope=1"]),
    ("train-target", ["--ppo", "lr=abc"]),
    ("train-target", ["--ppo", "epochs=4.5"]),
    ("train-setup", ["--ppo", "epochs=4.5"]),
    ("train-setup", ["--awtv", "alpha=x"]),
    ("train-setup", ["--awtv", "nope=1"]),
    # a repeated key: which value would the run take?
    ("train-target", ["--ppo", "horizon=32", "--ppo", "horizon=64"]),
    ("train-setup", ["--ppo", "lr=0.1", "--ppo", "lr=0.1"]),
    ("train-setup", ["--awtv", "alpha=0.1", "--awtv", "alpha=0.2"]),
]


@pytest.mark.parametrize("command, flags", _BAD_TRAINING_FLAGS)
def test_out_of_range_training_flags_exit_2_without_traceback(
        tmp_path, capsys, command, flags):
    # the flags are checked before any checkpoint is read
    policies = {"train-target": ["--kind", "flat"],
                "train-setup": ["--kind", "hurdle", "--default", "no.ckpt",
                                "--target", "no.ckpt"]}
    out = tmp_path / "policy.ckpt"
    code = main([command, *policies[command], "--budget", "64",
                 "--out", str(out), *flags])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


def test_settings_overrides_parse_like_the_config_sections():
    # the CLI only reads numbers; the one parser types them as it types a
    # config's section, so a settings hash sees the same values
    pairs = ["lr=1", "epochs=3", "horizon=+64", "clip=2e-1"]
    parsed = parse_params(PPOConfig, _overrides(pairs, "ppo"), "ppo")
    assert parsed == config_from_dict({"experiment": "ablation", "ppo": {
        "lr": 1.0, "epochs": 3, "horizon": 64, "clip": 0.2}}).ppo
    assert type(parsed.lr) is float and type(parsed.epochs) is int
    with pytest.raises(ConfigError, match="ppo.horizon must be of type int"):
        parse_params(PPOConfig, _overrides(["horizon=1e3"], "ppo"), "ppo")


def test_a_repeated_module_kind_exits_2(tmp_path, capsys, checkpoints):
    hurdle = checkpoints["hurdle"]
    gap = checkpoints["gap"]
    code = main(["evaluate", "--default", checkpoints["default"],
                 "--kind", "hurdle",
                 "--module", f"hurdle={hurdle['setup']}:{hurdle['target']}",
                 "--module", f"hurdle={gap['setup']}:{gap['target']}",
                 "--episodes", "1", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "hurdle" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags", [["--episodes", "0"], ["--seeds", "0"]])
def test_experiment_count_overrides_below_one_exit_2(tmp_path, capsys,
                                                     checkpoints, flags):
    config = _write_config(tmp_path, checkpoints, "ablation")
    assert main(["ablate", "--config", str(config), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "a").exists()


def _no_training(monkeypatch):
    def train(*args, **kwargs):
        raise AssertionError("trained")

    monkeypatch.setattr(composer, "_train", train)


@pytest.mark.parametrize("command, text", [("train-target", "goal 6\n"),
                                           ("train-target", "gap 3.2\n"),
                                           ("train-setup", "hurdle 3.2\n")])
def test_a_course_without_the_trained_kind_exits_2_before_training(
        tmp_path, capsys, monkeypatch, checkpoints, command, text):
    _no_training(monkeypatch)
    course = tmp_path / "other.course"
    course.write_text(text)
    policies = {"train-target": ["--kind", "hurdle"],
                "train-setup": ["--kind", "gap",
                                "--default", checkpoints["default"],
                                "--target", checkpoints["gap"]["target"]]}
    out = tmp_path / "policy.ckpt"
    code = main([command, *policies[command], "--budget", "64",
                 "--course", str(course), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: the course holds no")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "ablate"])
def test_a_file_at_the_output_directory_exits_2_before_training(
        tmp_path, capsys, monkeypatch, checkpoints, command):
    _no_training(monkeypatch)
    a_file = tmp_path / "file"
    a_file.write_text("kept")
    hurdle = checkpoints["hurdle"]
    if command == "evaluate":
        argv = ["evaluate", "--default", checkpoints["default"],
                "--kind", "hurdle", "--module",
                f"hurdle={hurdle['setup']}:{hurdle['target']}",
                "--episodes", "1", "--out", str(a_file)]
    else:
        argv = ["ablate", "--config", str(_write_config(
            tmp_path, checkpoints, "ablation", output_dir=str(a_file)))]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot use output directory")
    assert "Traceback" not in err
    assert a_file.read_text() == "kept"


def test_cli_train_setup_without_evaluation_says_so(tmp_path, capsys,
                                                    checkpoints):
    out = tmp_path / "setup.ckpt"
    code = main(["train-setup", "--kind", "hurdle",
                 "--default", checkpoints["default"],
                 "--target", checkpoints["hurdle"]["target"],
                 "--budget", "64", "--ppo", "horizon=16",
                 "--eval-episodes", "0", "--out", str(out)])
    assert code == 0
    assert "setup policy: not evaluated after 64 steps" in \
        capsys.readouterr().out
    load_policy(out)


def test_cli_training_hash_follows_what_the_run_reads(tmp_path, checkpoints):
    """A checkpoint's settings hash changes with the bytes of every file the
    run reads and with every flag that can change its weights, and an
    explicit default hashes like an omitted one."""
    course = tmp_path / "one.course"
    course.write_text("hurdle 3.2\n")
    copies = {name: shutil.copyfile(path, tmp_path / f"{name}.ckpt")
              for name, path in (("default", checkpoints["default"]),
                                 ("target", checkpoints["hurdle"]["target"]))}

    def setup_hash(*flags, default=checkpoints["default"],
                   target=checkpoints["hurdle"]["target"]):
        out = tmp_path / "setup.ckpt"
        assert main(["train-setup", "--kind", "hurdle", "--default", default,
                     "--target", target, "--budget", "16", "--ppo",
                     "horizon=16", "--eval-episodes", "0", "--out", str(out),
                     *flags]) == 0
        return checkpoint.load_checkpoint(out).config_hash

    first = setup_hash("--course", str(course))
    assert setup_hash("--course", str(course), "--ppo", "lr=3e-4", "--awtv",
                      "alpha=0.15") == first
    assert setup_hash("--course", str(course), default=str(copies["default"]),
                      target=str(copies["target"])) == first
    assert setup_hash("--course", str(course),
                      target=checkpoints["gap"]["target"]) != first
    save_checkpoint(copies["default"], Checkpoint.of(*_policy(OBS_PROPRIO)))
    assert setup_hash("--course", str(course),
                      default=str(copies["default"])) != first
    course.write_text("hurdle 3.4\n")
    assert setup_hash("--course", str(course)) != first

    def target_hash(*flags):
        out = tmp_path / "target.ckpt"
        assert main(["train-target", "--kind", "flat", "--budget", "32",
                     "--ppo", "horizon=32", "--eval-episodes", "1",
                     "--min-final", "0", "--out", str(out), *flags]) == 0
        return checkpoint.load_checkpoint(out).config_hash

    first = target_hash()
    assert target_hash("--ppo", "epochs=4") == first
    assert target_hash("--stop-at", "0.95") == first
    assert target_hash("--stop-at", "0.9") != first
    assert target_hash("--eval-every", "1") != first
    assert target_hash("--eval-episodes", "2") != first
    # a run that stops at its first evaluation passes any --min-final
    stopped = target_hash("--stop-at", "0", "--eval-every", "1")
    assert target_hash("--stop-at", "0", "--eval-every", "1",
                       "--min-final", "0.1") == stopped


def _fails_on_second_call(real):
    """A serializer that works once, then raises: the write fails midway."""
    calls = []

    def serializer(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise OSError("disk full")
        return real(*args, **kwargs)
    return serializer


def _encodes_a_prefix_then_fails(self, obj, _one_shot=False):
    yield '{"arms": '
    raise OSError("disk full")


_ROW = MetricsRow(1, "setup", "hurdle", True, 1.0, 90, 2)
_EVENTS = [SwitchEvent(3, "default", "setup", 1.0, 0.0, 0.5)]

# each harness writer: how to call it, its output file, and the serializer
# that a failing write breaks
_WRITERS = {
    "checkpoint": (lambda d: save_checkpoint(d / "w.ckpt", Checkpoint.of(*_policy())),
                   "w.ckpt", checkpoint, "_write_record"),
    "metrics": (lambda d: write_metrics_csv(d / "m.csv", [_ROW, _ROW], "h"),
                "m.csv", experiments, "format_metrics_row"),
    "events": (lambda d: write_events_jsonl(d / "e.jsonl", [(1, 0, _EVENTS)] * 2),
               "e.jsonl", experiments.json, "dumps"),
    "report": (lambda d: write_report(d, {"arms": {}, "seeds": [1]}),
               "report.json", experiments.json.JSONEncoder, "iterencode"),
}


@pytest.mark.parametrize("name", sorted(_WRITERS))
def test_failed_write_keeps_previous_file_and_leaves_no_temporary(
        tmp_path, monkeypatch, name):
    write, filename, owner, attr = _WRITERS[name]
    write(tmp_path)
    before = (tmp_path / filename).read_bytes()
    broken = (_encodes_a_prefix_then_fails if attr == "iterencode"
              else _fails_on_second_call(getattr(owner, attr)))
    monkeypatch.setattr(owner, attr, broken)
    with pytest.raises(OSError, match="disk full"):
        write(tmp_path)
    assert (tmp_path / filename).read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [filename]


@pytest.mark.parametrize("success", ["2", "-3", "true", ""])
def test_metrics_success_other_than_0_or_1_is_a_metrics_error(tmp_path,
                                                              success):
    path = write_metrics_csv(tmp_path / "m.csv", [_ROW], "h")
    _, (row,) = read_metrics_csv(path)
    assert row == _ROW
    line = path.read_text(encoding="utf-8").splitlines()[2].split(",")
    line[3] = success
    path.write_text(f"# config_hash=h\n{experiments.CSV_HEADER}\n"
                    f"{','.join(line)}\n", encoding="utf-8")
    with pytest.raises(MetricsError, match=f"success {success!r} is not 0"):
        read_metrics_csv(path)


# ---- success intervals ------------------------------------------------------


@pytest.mark.parametrize("n", [1, 20, 300])
def test_wilson_interval_matches_its_closed_forms(n):
    z2 = experiments.WILSON_Z ** 2
    assert wilson_interval(0, n) == pytest.approx((0.0, z2 / (n + z2)),
                                                  abs=1e-15)
    assert wilson_interval(n, n) == pytest.approx((n / (n + z2), 1.0),
                                                  abs=1e-15)
    # k of n: (2k + z^2 -+ z sqrt(z^2 + 4k(n - k)/n)) / (2(n + z^2))
    k = n // 3
    root = experiments.WILSON_Z * math.sqrt(z2 + 4.0 * k * (n - k) / n)
    assert wilson_interval(k, n) == pytest.approx(
        ((2 * k + z2 - root) / (2 * (n + z2)),
         (2 * k + z2 + root) / (2 * (n + z2))), rel=1e-12)
    # the textbook interval of 7 successes in 20
    low, high = wilson_interval(7, 20)
    assert round(low, 4) == 0.1812 and round(high, 4) == 0.5671


# ---- config hash ------------------------------------------------------------


def test_config_hash_ignores_output_dir_and_follows_file_contents(tmp_path):
    ckpt = save_checkpoint(tmp_path / "walker.ckpt", Checkpoint.of(*_policy()))
    course = tmp_path / "one.course"
    course.write_text("hurdle 3.2\n")

    def hash_of(**overrides):
        raw = {"experiment": "evaluation", "course": str(course),
               "checkpoints": {"default": str(ckpt)}, **overrides}
        return config_hash(config_from_dict(raw))

    first = hash_of()
    assert hash_of(output_dir=str(tmp_path / "elsewhere")) == first
    assert hash_of(episodes=3) != first
    # the same bytes under another path hash alike
    ckpt_copy = shutil.copyfile(ckpt, tmp_path / "copy.ckpt")
    course_copy = shutil.copyfile(course, tmp_path / "copy.course")
    assert hash_of(checkpoints={"default": str(ckpt_copy)}) == first
    assert hash_of(course=str(course_copy)) == first
    # other bytes under the same path do not
    save_checkpoint(ckpt, Checkpoint.of(*_policy(seed=1)))
    second = hash_of()
    assert second != first
    course.write_text("hurdle 3.4\n")
    assert hash_of() != second


@pytest.mark.parametrize("raw, digest", [
    ({"experiment": "reward-comparison"},
     "7a815adf2b203e369ea93226327f08afb5c9298993d4f4da4d18475dfb55659b"),
    ({"experiment": "ablation", "seeds": [1, 2], "kind": "gap",
      "ppo": {"horizon": 256, "lr": 0.001}, "awtv": {"alpha": 0.3},
      "budgets": {"setup": 1000}},
     "b630a1f586ca677c0eda7d165d757372aa61f74e775ed77419ea595f1d88875f"),
])
def test_config_hash_is_pinned(raw, digest):
    # a change to how the config is held must not move the hash of a run
    assert config_hash(config_from_dict(raw)) == digest


@pytest.mark.parametrize("section, default, other", [
    ("ppo", {"lr": 3e-4, "horizon": 2048}, {"lr": 1e-3}),
    ("awtv", {"alpha": 0.15, "gamma": 0.99}, {"alpha": 0.2}),
])
def test_config_hash_resolves_ppo_and_awtv_defaults(section, default, other):
    def hash_of(values):
        return config_hash(config_from_dict(
            {"experiment": "ablation", section: values}, check_paths=False))

    assert hash_of(default) == hash_of({})
    assert hash_of(other) != hash_of({})


def test_evaluation_on_a_course_hashes_alike_for_every_kind(
        tmp_path, capsys, checkpoints):
    # the evaluation runs the course's own kinds and never reads --kind
    course = tmp_path / "one.course"
    course.write_text("hurdle 3.2\n")
    hurdle = checkpoints["hurdle"]

    def evaluate_hash(kind):
        out = tmp_path / kind
        code = main(["evaluate", "--default", checkpoints["default"],
                     "--course", str(course), "--kind", kind, "--module",
                     f"hurdle={hurdle['setup']}:{hurdle['target']}",
                     "--episodes", "1", "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        return read_metrics_csv(out / "metrics_with-setup.csv")[0]

    assert evaluate_hash("gap") == evaluate_hash("hurdle")

    def ablation_hash(kind):
        # a setup experiment trains and evaluates the `kind` module
        return config_hash(config_from_dict(
            {"experiment": "ablation", "course": str(course), "kind": kind}))

    assert ablation_hash("gap") != ablation_hash("hurdle")


@pytest.mark.parametrize("text", ["hurdle 1e309\n", "hurdle 3.2 height=nan\n",
                                  "goal inf\n"])
def test_non_finite_course_exits_2_without_traceback(tmp_path, capsys, text):
    good = save_checkpoint(tmp_path / "good.ckpt", Checkpoint.of(*_policy()))
    course = tmp_path / "bad.course"
    course.write_text(text)
    code = main(["evaluate", "--default", str(good), "--course", str(course),
                 "--module", f"hurdle={good}:{good}", "--episodes", "1",
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "not finite" in err
    assert "Traceback" not in err


def test_artifact_height_out_of_range_exits_2_without_traceback(tmp_path, capsys):
    good = save_checkpoint(tmp_path / "good.ckpt", Checkpoint.of(*_policy()))
    course = tmp_path / "pit.course"
    course.write_text("block 3.2 height=-0.5\n")
    code = main(["evaluate", "--default", str(good), "--course", str(course),
                 "--module", f"block={good}:{good}", "--episodes", "1",
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "block height -0.5 is outside" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_unreadable_referenced_file_is_a_config_error(tmp_path, capsys):
    good = save_checkpoint(tmp_path / "good.ckpt", Checkpoint.of(*_policy()))
    missing = tmp_path / "missing.ckpt"
    config = config_from_dict(
        {"experiment": "evaluation",
         "checkpoints": {"default": str(good),
                         "block": {"target": str(missing)}}},
        check_paths=False)
    with pytest.raises(ConfigError, match="missing.ckpt"):
        config_hash(config)

    # a run hashes only the checkpoints it loads: the block module is not on
    # the hurdle course, so the evaluation never reads its files
    def evaluate_hash(*modules):
        out = tmp_path / f"out{len(modules)}"
        code = main(["evaluate", "--default", str(good), "--kind", "hurdle",
                     "--module", f"hurdle={good}:{good}", *modules,
                     "--episodes", "1", "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        return read_metrics_csv(out / "metrics_with-setup.csv")[0]

    assert evaluate_hash("--module", f"block={missing}:{missing}") == \
        evaluate_hash()


def test_checkpoints_a_run_does_not_load_leave_its_hash_alone(
        tmp_path, checkpoints):
    names = {name: shutil.copyfile(path, tmp_path / f"{name}.ckpt")
             for name, path in (("default", checkpoints["default"]),
                                ("target", checkpoints["hurdle"]["target"]),
                                ("setup", checkpoints["hurdle"]["setup"]),
                                ("block", checkpoints["block"]["target"]))}
    hurdle = {"target": str(names["target"]), "setup": str(names["setup"])}

    def hashes():
        evaluate = tmp_path / "evaluate"
        assert main(["evaluate", "--default", str(names["default"]),
                     "--kind", "hurdle", "--module",
                     f"hurdle={checkpoints['hurdle']['setup']}:"
                     f"{names['target']}",
                     "--module", f"block={names['block']}:{names['block']}",
                     "--episodes", "1", "--out", str(evaluate)]) == 0
        config = _write_config(
            tmp_path, {"default": str(names["default"]), "hurdle": hurdle},
            "ablation", arms=["full"], episodes=1,
            budgets={"setup": 64}, ppo={"horizon": 32, "epochs": 1})
        assert main(["ablate", "--config", str(config)]) == 0
        ablation = json.loads((tmp_path / "a" / "report.json").read_text())
        stamped = checkpoint.load_checkpoint(
            tmp_path / "a" / "setup_full_seed1.ckpt").config_hash
        assert stamped == ablation["config_hash"]
        return (read_metrics_csv(evaluate / "metrics_with-setup.csv")[0],
                ablation["config_hash"])

    first = hashes()
    # neither file is loaded: the block module is off the hurdle course, and
    # the ablation trains a setup policy that starts from the walker
    other = Checkpoint.of(*_policy(seed=5))
    save_checkpoint(names["block"], other)
    save_checkpoint(names["setup"], other)
    assert hashes() == first
    # a file both runs load still moves both hashes
    save_checkpoint(names["target"], other)
    second = hashes()
    assert second[0] != first[0] and second[1] != first[1]


def test_a_without_setup_evaluation_leaves_the_setup_file_unhashed(
        tmp_path, checkpoints):
    # the no-setup arm never acts with a setup policy, so it neither loads
    # nor hashes one
    setup = shutil.copyfile(checkpoints["hurdle"]["setup"],
                            tmp_path / "setup.ckpt")

    def evaluate(*flags):
        out = tmp_path / f"evaluate{len(list(tmp_path.iterdir()))}"
        assert main(["evaluate", "--default", str(checkpoints["default"]),
                     "--kind", "hurdle", "--module",
                     f"hurdle={setup}:{checkpoints['hurdle']['target']}",
                     "--episodes", "2", "--out", str(out), *flags]) == 0
        arm = "without-setup" if flags else "with-setup"
        return read_metrics_csv(out / f"metrics_{arm}.csv")

    first = evaluate("--without-setup")
    with_setup = evaluate()
    save_checkpoint(setup, Checkpoint.of(*_policy(seed=5)))
    assert evaluate("--without-setup") == first
    # the with-setup arm loads it, so its hash moves
    assert evaluate()[0] != with_setup[0]


@pytest.mark.parametrize("experiment, key, value", [
    ("evaluation", "ppo", {"lr": 1e-3}),
    ("evaluation", "awtv", {"alpha": 0.2}),
    ("evaluation", "budgets", {"setup": 10}),
    ("multi-terrain", "ppo", {}),
    ("multi-terrain", "awtv", {}),
    ("multi-terrain", "budgets", {}),
    ("multi-terrain", "course", "one.course"),
    ("multi-terrain", "kind", "gap"),
])
def test_evaluation_configs_reject_keys_they_never_read(experiment, key,
                                                        value):
    # the hash of a run would otherwise move with a setting it never reads
    with pytest.raises(ConfigError, match=f"{experiment} does not read"):
        config_from_dict({"experiment": experiment, key: value},
                         check_paths=False)


@pytest.mark.parametrize("budget", ["default", "target"])
def test_budgets_no_experiment_reads_are_unknown_keys(budget):
    with pytest.raises(ConfigError, match="unknown budgets key"):
        config_from_dict({"experiment": "ablation", "budgets": {budget: 1}})


# ---- config strictness -------------------------------------------------------


_ANY_VALUE = st.one_of(st.none(), st.booleans(), st.integers(),
                       st.floats(), st.text(max_size=3),
                       st.lists(st.integers(-2, 3), max_size=3))


@example({"awtv": {"alpha": 10**400}})
@example({"ppo": {"lr": -10**400}})
@settings(max_examples=300, deadline=None)
@given(st.fixed_dictionaries({}, optional={
    "ppo": st.dictionaries(st.sampled_from(PPO_KEYS), _ANY_VALUE),
    "awtv": st.dictionaries(st.sampled_from(AWTV_KEYS), _ANY_VALUE),
    "seeds": st.one_of(_ANY_VALUE, st.lists(st.integers(-2, 4), max_size=4)),
    "episodes": _ANY_VALUE,
}))
def test_config_loads_or_raises_a_config_error(raw):
    try:
        config = config_from_dict({"experiment": "ablation", **raw})
    except ConfigError:
        return
    assert isinstance(config.ppo, PPOConfig)
    assert isinstance(config.awtv, AWTVParams)
    assert min(config.seeds) >= 0
    assert len(set(config.seeds)) == len(config.seeds)
    assert config.episodes >= 1


_BAD_CONFIGS = {
    "lr": '"ppo": {"lr": Infinity}',
    "horizon": '"ppo": {"horizon": 0}',
    "minibatch": '"ppo": {"minibatch": 0}',
    "clip": '"ppo": {"clip": -1}',
    "gamma": '"awtv": {"gamma": 2}',
    "negative-seed": '"seeds": [-1]',
    "repeated-seed": '"seeds": [1, 1]',
    "repeated-key": '"episodes": 2, "episodes": 3',
}


@pytest.mark.parametrize("name", sorted(_BAD_CONFIGS))
def test_bad_config_value_exits_2_without_traceback(tmp_path, capsys, name):
    path = tmp_path / "config.json"
    path.write_text('{"experiment": "ablation", %s}' % _BAD_CONFIGS[name],
                    encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)
    assert main(["ablate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("course", ["0", "false", "[]", "{}", "null"])
def test_a_course_that_is_not_a_string_exits_2(tmp_path, capsys, course):
    path = tmp_path / "config.json"
    path.write_text('{"experiment": "ablation", "course": %s}' % course,
                    encoding="utf-8")
    with pytest.raises(ConfigError, match="course must be of type str"):
        load_config(path)
    assert main(["ablate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    # the empty string still means "no course"
    assert config_from_dict({"experiment": "ablation",
                             "course": ""}).course == ""


@pytest.mark.parametrize("stem", ["a,b", "a\nb", "a\rb"])
def test_a_course_name_that_cannot_label_a_row_exits_2_before_running(
        tmp_path, capsys, monkeypatch, checkpoints, stem):
    # the course file's stem labels every metrics row
    course = tmp_path / f"{stem}.course"
    course.write_text("hurdle 3.2\n")
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"experiment": "evaluation",
                                "course": str(course)}), encoding="utf-8")
    with pytest.raises(ConfigError, match="cannot label"):
        load_config(path)
    drivers = []
    monkeypatch.setattr(composer.EpisodeDriver, "__init__",
                        lambda drv, *args, **kwargs: drivers.append(drv))
    out = tmp_path / "out"
    assert main(["evaluate", "--default", checkpoints["default"], "--course",
                 str(course), "--episodes", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not drivers and not out.exists()


# ---- every experiment kind through the grid ---------------------------------


_RUNNERS = {
    "evaluation": experiments.run_evaluation,
    "ablation": experiments.run_ablation,
    "reward-comparison": experiments.run_reward_comparison,
    "baseline-comparison": experiments.run_baseline_comparison,
    "multi-terrain": experiments.run_multi_terrain,
}
_STANDARD_ARMS = {
    "evaluation": experiments.EVALUATION_ARMS,
    "ablation": experiments.ABLATION_ARMS,
    "reward-comparison": experiments.REWARD_ARMS_DEFAULT,
    "baseline-comparison": experiments.BASELINE_ARMS,
    "multi-terrain": experiments.MULTI_TERRAIN_ARMS,
}
_SUBCOMMAND = {kind: name for name, (kind, _) in EXPERIMENT_COMMANDS.items()}


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    """Walker, then per kind a jumping target and a crouching setup policy."""
    root = tmp_path_factory.mktemp("checkpoints")
    walker = _damped_policy(OBS_PROPRIO, 1, (0.5, 0.0))
    paths = {"default": str(save_checkpoint(root / "walker.ckpt",
                                            Checkpoint.of(*walker)))}
    for i, kind in enumerate(KINDS):
        paths[kind] = {}
        for j, (role, action) in enumerate((("target", (0.0, -1.0)),
                                            ("setup", (0.25, 1.0)))):
            policy = _damped_policy(OBS_DIM, 10 + 2 * i + j, action)
            paths[kind][role] = str(save_checkpoint(
                root / f"{kind}_{role}.ckpt", Checkpoint.of(*policy)))
    return paths


def test_a_terrain_blind_target_runs_from_the_cli(tmp_path, capsys,
                                                  checkpoints):
    # the walker reads the body prefix only; as a module's target it is a
    # specialist that reads no terrain
    walker = checkpoints["default"]
    out = tmp_path / "out"
    assert main(["evaluate", "--default", walker,
                 "--module", f"hurdle={walker}:{walker}", "--kind", "hurdle",
                 "--episodes", "3", "--without-setup",
                 "--out", str(out)]) == 0
    assert sorted(path.name for path in out.iterdir()) == [
        "events_without-setup.jsonl", "metrics_without-setup.csv",
        "report.json"]
    assert '"to": "target"' in (out / "events_without-setup.jsonl").read_text()
    setup = tmp_path / "setup.ckpt"
    assert main(["train-setup", "--kind", "hurdle", "--default", walker,
                 "--target", walker, "--budget", "600", "--ppo", "horizon=64",
                 "--eval-episodes", "2", "--out", str(setup)]) == 0
    load_policy(setup)
    assert "Traceback" not in capsys.readouterr().err


def _write_config(tmp_path, checkpoints, kind, **overrides):
    raw = {"experiment": kind, "seeds": [1], "episodes": 2,
           "checkpoints": checkpoints, "output_dir": str(tmp_path / "a")}
    if kind not in ("evaluation", "multi-terrain"):  # these never train
        raw.update(budgets={"setup": 200}, ppo={"horizon": 64, "epochs": 1})
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def _outputs(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_experiment_writes_consistent_outputs_and_reruns_byte_identically(
        tmp_path, capsys, checkpoints, kind):
    config = load_config(_write_config(tmp_path, checkpoints, kind))
    report = _RUNNERS[kind](config)
    first, second = tmp_path / "a", tmp_path / "b"
    arms = _STANDARD_ARMS[kind]
    assert tuple(report["arms"]) == arms
    written = {name for name in _outputs(first) if not name.endswith(".ckpt")}
    assert written == {"report.json"} | {
        f"{stem}_{arm}.{ext}" for arm in arms
        for stem, ext in (("metrics", "csv"), ("events", "jsonl"))}
    for arm in arms:
        _, rows = read_metrics_csv(first / f"metrics_{arm}.csv")
        assert len(rows) == len(config.seeds) * config.episodes
        assert report["arms"][arm]["success"] == \
            sum(row.success for row in rows) / len(rows)
        assert report["arms"][arm]["success_ci95"] == list(wilson_interval(
            sum(row.success for row in rows), len(rows)))
    # the walker reaches the artifact, so the logs hold switch events
    assert any((first / f"events_{arm}.jsonl").stat().st_size for arm in arms)

    if kind == "evaluation":
        _RUNNERS[kind](dataclasses.replace(config, output_dir=str(second)))
        hurdle = checkpoints["hurdle"]
        code = main(["evaluate", "--default", checkpoints["default"],
                     "--kind", "hurdle", "--module",
                     f"hurdle={hurdle['setup']}:{hurdle['target']}",
                     "--episodes", "1", "--out", str(tmp_path / "c")])
    else:
        code = main([_SUBCOMMAND[kind], "--config",
                     str(tmp_path / "config.json"), "--output-dir",
                     str(second)])
    assert code == 0, capsys.readouterr().err
    assert _outputs(second) == _outputs(first)
    summary = summarize_metrics([first / f"metrics_{arms[0]}.csv",
                                 second / f"metrics_{arms[0]}.csv"])
    assert summary["mixed_config_hashes"] is False


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_every_experiment_runs_every_cell_in_one_lane_call(
        tmp_path, monkeypatch, checkpoints, kind):
    calls = []
    run_lanes = experiments.run_lanes

    def spy(drivers):
        calls.append(len(drivers))
        return run_lanes(drivers)

    monkeypatch.setattr(experiments, "run_lanes", spy)
    config = load_config(_write_config(tmp_path, checkpoints, kind,
                                       seeds=[1, 2], episodes=3))
    _RUNNERS[kind](config)
    assert calls == [len(_STANDARD_ARMS[kind]) * 2 * 3]


def test_a_cell_whose_training_raises_leaves_no_metrics(
        tmp_path, monkeypatch, checkpoints):
    trained = []
    train = composer._train

    def fail_second_cell(*args, **kwargs):
        if trained:
            raise RuntimeError("training broke")
        trained.append(True)
        return train(*args, **kwargs)

    monkeypatch.setattr(composer, "_train", fail_second_cell)
    config = load_config(_write_config(tmp_path, checkpoints, "ablation"))
    with pytest.raises(RuntimeError, match="training broke"):
        experiments.run_ablation(config)
    # the first cell's checkpoint is written, no metrics, events or report
    assert sorted(p.name for p in (tmp_path / "a").iterdir()) == \
        ["setup_full_seed1.ckpt"]


def test_one_arm_evaluation_writes_that_arm_of_the_two_arm_run(
        tmp_path, checkpoints):
    # enough lanes that the one-arm run steps a batch of its own
    seeds, episodes = [1, 2], 6
    assert len(seeds) * episodes >= LANE_CROSSOVER
    rows = {}
    for arms in (["with-setup"], ["with-setup", "without-setup"]):
        out = tmp_path / str(len(arms))
        experiments.run_evaluation(load_config(_write_config(
            tmp_path, checkpoints, "evaluation", seeds=seeds,
            episodes=episodes, arms=arms, output_dir=str(out))))
        lines = (out / "metrics_with-setup.csv").read_text(
            encoding="utf-8").splitlines()
        assert lines[0].startswith("# config_hash=")
        rows[len(arms)] = lines[1:]
    assert len(rows[1]) == 1 + len(seeds) * episodes
    assert rows[1] == rows[2]


def test_an_empty_arm_list_is_a_config_error(tmp_path, capsys, checkpoints):
    # an empty list used to run the experiment's standard arms
    with pytest.raises(ConfigError, match="at least one arm"):
        config_from_dict({"experiment": "evaluation", "arms": []})
    path = _write_config(tmp_path, checkpoints, "ablation", arms=[])
    with pytest.raises(ConfigError, match="at least one arm"):
        load_config(path)
    assert main(["ablate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "a").exists()


@pytest.mark.parametrize("subcommand", sorted(EXPERIMENT_COMMANDS))
def test_experiment_subcommand_rejects_another_kind_and_an_unknown_arm(
        tmp_path, capsys, checkpoints, subcommand):
    kind, _ = EXPERIMENT_COMMANDS[subcommand]
    other = next(k for k in EXPERIMENT_KINDS if k != kind)
    for overrides in ({"experiment": other}, {"arms": ["no-such-arm"]}):
        path = _write_config(tmp_path, checkpoints, kind, **overrides)
        assert main([subcommand, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "a").exists()
