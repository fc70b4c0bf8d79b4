import numpy as np
import pytest

from gaitbridge.composer import FLAT, EpisodeOutcome, SwitchEvent, train_target
from gaitbridge.diffcore import ParameterizedNet
from gaitbridge.harness import checkpoint, experiments
from gaitbridge.harness.checkpoint import (
    Checkpoint,
    CheckpointFormatError,
    load_policy,
    save_checkpoint,
)
from gaitbridge.harness.cli import main
from gaitbridge.harness.experiments import (
    MetricsRow,
    write_events_jsonl,
    write_metrics_csv,
    write_report,
)
from gaitbridge.policyopt import PPOConfig, RunningNormalizer
from gaitbridge.terrainsim import OBS_DIM


def _policy(obs_dim=OBS_DIM):
    net = ParameterizedNet(obs_dim, 2, (8,), np.random.default_rng(0))
    norm = RunningNormalizer(obs_dim)
    norm.update(np.linspace(-1.0, 1.0, obs_dim))
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


def test_checkpoint_round_trip_is_byte_stable(tmp_path):
    net, norm = _policy()
    first = save_checkpoint(tmp_path / "a.ckpt", Checkpoint.of(net, norm, "h"))
    loaded_net, loaded_norm = load_policy(first)
    assert np.array_equal(loaded_net.flat, net.flat)
    second = save_checkpoint(tmp_path / "b.ckpt", Checkpoint.of(loaded_net, loaded_norm, "h"))
    assert first.read_bytes() == second.read_bytes()


def test_non_finite_gradient_exits_3_without_traceback(tmp_path, capsys):
    code = main(["train-target", "--kind", "flat", "--budget", "64", "--seed", "1",
                 "--ppo", "horizon=32", "--ppo", "value_coef=nan",
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


def test_cli_train_target_eval_every_zero_exits_0(tmp_path, capsys):
    out = tmp_path / "walker.ckpt"
    code = main(["train-target", "--kind", "flat", "--budget", "64", "--seed", "1",
                 "--ppo", "horizon=32", "--eval-every", "0", "--eval-episodes", "1",
                 "--min-final", "0", "--out", str(out)])
    assert code == 0
    assert "after 64 steps (2 updates)" in capsys.readouterr().out
    load_policy(out)


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
_OUTCOME = EpisodeOutcome(None, [SwitchEvent(3, "default", "setup", 1.0, 0.0, 0.5)], 0.0)

# each harness writer: how to call it, its output file, and the serializer
# that a failing write breaks
_WRITERS = {
    "checkpoint": (lambda d: save_checkpoint(d / "w.ckpt", Checkpoint.of(*_policy())),
                   "w.ckpt", checkpoint, "_write_record"),
    "metrics": (lambda d: write_metrics_csv(d / "m.csv", [_ROW, _ROW], "h"),
                "m.csv", experiments, "format_metrics_row"),
    "events": (lambda d: write_events_jsonl(d / "e.jsonl", [(1, 0, _OUTCOME)] * 2),
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
