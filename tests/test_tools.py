"""Tests for the scripts under `tools/`: the code-line counter and the
conversion of benchmark fixtures into checkpoints."""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np

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
