import numpy as np
import pytest

from gaitbridge.diffcore import ParameterizedNet
from gaitbridge.harness.checkpoint import (
    Checkpoint,
    CheckpointFormatError,
    load_policy,
    save_checkpoint,
)
from gaitbridge.harness.cli import main
from gaitbridge.policyopt import RunningNormalizer
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
