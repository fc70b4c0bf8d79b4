"""Tests for the scripts under `tools/`: the code-line counter, the
conversion of benchmark fixtures into checkpoints, the workloads, summary
and JSON file of paired benchmark runs, and the call counts of one
benchmark instance."""

import hashlib
import importlib.util
import json
import types
from pathlib import Path

import numpy as np
import pytest

from gaitbridge.harness.checkpoint import load_policy

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SNIPPET = '''"""A module docstring
over two lines."""

# a comment line
import os  # a comment after code


class Thing:
    """A class docstring."""

    def size(self, x):
        """A function docstring
        over two lines."""

        text = """a string, not a docstring,
        over two lines"""
        return (len(text)
                + x)
'''


def test_code_lines_count_neither_docstrings_comments_nor_blanks(tmp_path,
                                                                 capsys):
    code_lines = load_tool("code_lines")
    # import, class, def, the string's two lines and the return's two
    assert code_lines.code_lines(SNIPPET) == 7
    assert code_lines.code_lines("") == 0
    package = tmp_path / "package"
    package.mkdir()
    (package / "a.py").write_text(SNIPPET)
    (package / "b.py").write_text("x = 1\n\n\ny = 2\n")
    assert code_lines.main([str(package)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["7", str(package / "a.py")], ["2", str(package / "b.py")],
                    ["9", "total"]]


def test_every_bench_fixture_converts_to_a_checkpoint_that_loads(tmp_path):
    fixtures = sorted((ROOT / "bench" / "fixtures").glob("*.npz"))
    assert len(fixtures) == 5
    digests = [hashlib.sha256(path.read_bytes()).hexdigest()
               for path in fixtures]
    tool = load_tool("fixture_to_checkpoint")
    assert tool.main([*(path.stem for path in fixtures),
                      "--out", str(tmp_path)]) == 0
    for fixture in fixtures:
        net, norm = load_policy(tmp_path / f"{fixture.stem}.ckpt")
        with np.load(fixture, allow_pickle=False) as data:
            params, stats = ({key[len(prefix):]: data[key]
                              for key in data.files if key.startswith(prefix)}
                             for prefix in ("param.", "norm."))
        state = norm.state_arrays()
        assert net.params.keys() == params.keys()
        assert state.keys() == stats.keys()
        for got, want in [(net.params, params), (state, stats)]:
            for name, array in want.items():
                assert np.array_equal(got[name], array), (fixture, name)
    # the fixtures are only read
    assert digests == [hashlib.sha256(path.read_bytes()).hexdigest()
                       for path in fixtures]


def bench_result(ticks, rss, correct=True, failed=0):
    return {"correct": correct, "attempted": 3, "failed": failed,
            "metrics": {"ticks_per_s": {"unit": "1/s", "value": ticks},
                        "peak_rss_mb": {"unit": "MB", "value": rss}}}


def test_bench_pairs_summarize_medians_spreads_and_wins():
    tool = load_tool("bench_pairs")
    metrics = [{"name": "ticks_per_s", "better": "higher"},
               {"name": "peak_rss_mb", "better": "lower"}]
    pairs = {"w": [(11, bench_result(100e3, 40), bench_result(110e3, 41)),
                   (12, bench_result(120e3, 40), bench_result(115e3, 42)),
                   (13, bench_result(140e3, 40), bench_result(150e3, 39)),
                   (14, bench_result(160, 40), None),
                   (15, bench_result(1, 1, correct=False),
                    bench_result(1, 1, failed=2))]}
    lines = tool.summarize(pairs, metrics)
    # seeds 14 and 15 hold a bad run: listed, and left out of the table
    assert lines[2:] == [
        "| w | ticks_per_s | 120000 (110000–130000) | 115000 (112500–132500) "
        "| -4.2% | 16.7% | 2/3 |",
        "| w | peak_rss_mb | 40 (40–40) | 41 (40–41.5) | +2.5% | 0.0% "
        "| 1/3 |",
        "bad run: w seed 14 change: no result",
        "bad run: w seed 15 parent: correct False, failed 0",
        "bad run: w seed 15 change: correct True, failed 2"]
    assert tool.seed_range("11-20") == list(range(11, 21))
    assert tool.seed_range("7") == [7]


def test_bench_pairs_report_the_seeds_whose_fingerprints_differ(monkeypatch,
                                                                capsys):
    tool = load_tool("bench_pairs")
    argvs = []

    def canned_run(argv, cwd, **kwargs):
        # seed 12's change moves the digest; seed 13's prints none
        argvs.append(argv)
        seed = argv[argv.index("--seed") + 1]
        digest = "b" * 64 if (cwd, seed) == ("new", "12") else "a" * 64
        lines = [f'record {{"seed": {seed}}}',
                 f"fingerprint w seed={seed} sha256={digest}",
                 json.dumps(bench_result(100e3, 40))]
        if (cwd, seed) == ("new", "13"):
            del lines[1]
        return types.SimpleNamespace(stdout="\n".join(lines) + "\n")

    monkeypatch.setattr(tool.subprocess, "run", canned_run)
    pairs = tool.run_pairs("old", "new", ["w"], [11, 12, 13], 30)
    assert len(argvs) == 6
    assert [(seed, parent["fingerprint"], change["fingerprint"])
            for seed, parent, change in pairs["w"]] == [
        (11, "a" * 64, "a" * 64), (12, "a" * 64, "b" * 64),
        (13, "a" * 64, None)]
    lines = tool.summarize(pairs, [{"name": "ticks_per_s",
                                    "better": "higher"}])
    assert lines[3:] == [
        f"fingerprint differs: w seed 12: parent {'a' * 64}, change {'b' * 64}",
        f"fingerprint differs: w seed 13: parent {'a' * 64}, change None"]


@pytest.mark.parametrize("argv, want", [
    ([], ["target-train", "setup-train", "bridged-eval"]),
    # a subset keeps BENCHMARK.json's order
    (["--workloads", "bridged-eval,setup-train"],
     ["setup-train", "bridged-eval"]),
    (["--workloads", "setup-train"], ["setup-train"])])
def test_bench_pairs_runs_the_workloads_named(monkeypatch, capsys, argv,
                                              want):
    tool = load_tool("bench_pairs")
    runs = []

    def fake_run_pairs(parent, change, workloads, seeds, seconds):
        runs.append((parent, change, workloads, seeds))
        return {}

    monkeypatch.setattr(tool, "run_pairs", fake_run_pairs)
    assert tool.main(["old", "new", "--seeds", "11-12"] + argv) == 0
    assert runs == [("old", "new", want, [11, 12])]


def test_bench_pairs_rejects_an_unknown_workload(monkeypatch, capsys):
    tool = load_tool("bench_pairs")
    monkeypatch.setattr(tool, "run_pairs",
                        lambda *args: pytest.fail("a run started"))
    with pytest.raises(SystemExit) as exit_info:
        tool.main(["old", "new", "--workloads", "setup-train,no-such"])
    assert exit_info.value.code == 2
    assert "unknown workloads: no-such" in capsys.readouterr().err


def test_bench_pairs_write_the_comparison_as_json(monkeypatch, capsys,
                                                  tmp_path):
    tool = load_tool("bench_pairs")
    digest = {"parent": "a" * 64, "change": "b" * 64}

    def canned_pairs(parent, change, workloads, seeds, seconds):
        def result(seed, side, ticks):
            out = dict(bench_result(ticks, 40), fingerprint=digest[side]
                       if seed == 12 else "c" * 64)
            out["metrics"]["setup_s"] = {"unit": "s", "value": 0.05}
            return out
        return {workloads[0]: [(seed, result(seed, "parent", 100e3),
                                result(seed, "change", 100e3 + seed * 1e3))
                               for seed in seeds]}

    monkeypatch.setattr(tool, "run_pairs", canned_pairs)
    path = tmp_path / "BENCH.json"
    assert tool.main(["old", "new", "--seeds", "11-13", "--workloads",
                      "setup-train", "--json", str(path)]) == 0
    printed = capsys.readouterr().out.splitlines()
    got = json.loads(path.read_text(encoding="utf-8"))
    assert got["seeds"] == [11, 12, 13] and got["run_seconds"] == 30
    assert got["workloads"] == ["setup-train"]
    ticks, setup, rss = got["rows"]
    assert ticks == {"workload": "setup-train", "metric": "ticks_per_s",
                     "parent": {"median": 100e3, "q1": 100e3, "q3": 100e3},
                     "change": {"median": 112e3, "q1": 111.5e3,
                                "q3": 112.5e3},
                     "change_of_median": 112e3 / 100e3 - 1,
                     "parent_spread": 0.0, "won": 3, "pairs": 3}
    assert [(row["metric"], row["won"], row["change_of_median"])
            for row in (setup, rss)] == [("setup_s", 0, 0.0),
                                         ("peak_rss_mb", 0, 0.0)]
    assert got["bad"] == []
    assert got["differ"] == [
        f"setup-train seed 12: parent {'a' * 64}, change {'b' * 64}"]
    # the file holds the table printed
    assert printed[2].startswith("| setup-train | ticks_per_s | 100000 ")
    assert printed[-1] == f"fingerprint differs: {got['differ'][0]}"


def test_spy_counts_of_a_toy_instance(monkeypatch):
    tool = load_tool("spy_counts")
    # target training: two updates of 64 live ticks each, nothing else
    got = tool.spy_counts("target-train", 1, updates=2, horizon=64)
    assert list(got) == list(tool.ORDER)
    assert got == {**dict.fromkeys(tool.ORDER, 0), "EpisodeDriver.tick": 128,
                   "EpisodeDriver.replay_opening": 128, "Trainer.update": 2}
    assert got["deferred rewards filled"] == 0
    # setup training: the walker's openings replay in one call each, and
    # the tails fold in lane batches, one add per buffer and lockstep step
    got = tool.spy_counts("setup-train", 1, budget=20_000, horizon=256)
    assert got["Trainer.update"] >= 1 and got["RunnerBatch.step"] > 0
    assert 0 < got["replays"] < got["EpisodeDriver.replay_opening"]
    assert got["replayed ticks"] > got["EpisodeDriver.tick"]
    assert 0 < got["reward_fn"] < got["lane-ticks"] / 2
    assert 0 < got["RolloutBuffer.add_reward"] < got["lane-ticks"] / 4
    # the target's rows read for setup rewards; target training reads none
    assert got["target row passes"] > 0
    # setup rows left to the update fill there; target training defers none
    assert got["deferred rewards filled"] > 0
    # bridged evaluation: the harness's lanes copy the walker's opening,
    # then step in lane batches; the rest of their ticks run on tick()
    got = tool.spy_counts("bridged-eval", 1, seeds_per_instance=1,
                          episodes=12)
    assert got["replayed ticks"] == got["evaluation replayed ticks"] > 0
    assert got["evaluation batched lane-ticks"] > 0
    assert got["evaluation ticks"] == (got["evaluation replayed ticks"]
                                       + got["evaluation batched lane-ticks"]
                                       + got["EpisodeDriver.tick"])
    assert got["lane-ticks"] == got["Trainer.update"] == 0
    # a method the package does not define reads None
    monkeypatch.delattr(tool.policyopt.RolloutBuffer, "add_reward")
    monkeypatch.delattr(tool.composer.RowTarget, "_rows")
    got = tool.spy_counts("target-train", 1, updates=1, horizon=64)
    assert got["RolloutBuffer.add_reward"] is None
    assert got["target row passes"] is None
    assert got["Trainer.update"] == 1


def test_spy_counts_print_one_line_a_count(monkeypatch, capsys):
    tool = load_tool("spy_counts")
    runs = []

    def canned(workload, seed):
        runs.append((workload, seed))
        return {"EpisodeDriver.tick": 3, "replays": None}

    monkeypatch.setattr(tool, "spy_counts", canned)
    assert tool.main(["setup-train", "--seed", "4"]) == 0
    assert runs == [("setup-train", 4)]
    assert capsys.readouterr().out == ("EpisodeDriver.tick 3\n"
                                       "replays absent\n")
