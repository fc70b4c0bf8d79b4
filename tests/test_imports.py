"""Static checks over the source tree.

Every name a module in src/ or tests/ imports is used in that module
(package `__init__.py` files are exempt: their imports are re-exports), the
modules on the per-tick path multiply matrices with `ndarray.dot`, the
acting and training code reads only the network heads it uses, only
`SwitchState` writes a switch's artifact, only `EpisodeDriver.tick` writes a
trainer's walker opening, one function adds a folded reward into a buffer
row, one function in config.py builds the PPO and AWTV settings, every
public function and class in src/ is read
by name somewhere else in src/ or bench/, and every function the benchmark
traces for its per-layer metrics still exists, unless it is listed below with
the reason it is gone.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# `.dot` skips the matmul gufunc dispatch, which costs about as much again as
# the BLAS call on a one-row layer; the seeded digests guard its last bits
PER_TICK_MODULES = ("src/gaitbridge/diffcore/net.py",
                    "src/gaitbridge/policyopt.py", "src/gaitbridge/composer.py")


def unused_imports(source):
    """(line, name) of each imported name that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_detector_flags_only_unread_names():
    source = ("import math\nimport os.path\nfrom a import b as c, d\n"
              "from __future__ import annotations\nos.path.join(d)\n")
    assert unused_imports(source) == [(1, "math"), (3, "c")]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for top in ("src", "tests")
             for path in sorted((ROOT / top).rglob("*.py"))
             if path.name != "__init__.py"
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert not found, "unused imports:\n" + "\n".join(found)


def matmul_lines(source):
    """Lines of each `@` / `@=` matrix product (decorators are not products)."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, (ast.BinOp, ast.AugAssign))
                   and isinstance(node.op, ast.MatMult)})


def test_matmul_detector_skips_decorators():
    source = "@dataclass\nclass A:\n    pass\nc = a @ b\nc @= a\nd = a.dot(b)\n"
    assert matmul_lines(source) == [4, 5]


def test_per_tick_modules_use_dot_not_matmul():
    found = [f"{name}:{line}" for name in PER_TICK_MODULES
             for line in matmul_lines((ROOT / name).read_text(encoding="utf-8"))]
    assert not found, "use ndarray.dot for these products:\n" + "\n".join(found)


# a `forward` (the tests' reference in helpers.py) computes every head; these
# modules read each head they use off `trunk`, so a head nobody reads is
# never computed
HEAD_READING_MODULES = ("src/gaitbridge/policyopt.py",
                        "src/gaitbridge/composer.py")


def forward_reads(source):
    """Lines that read a `.forward` attribute, called or not."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute)
                   and node.attr == "forward"})


def test_forward_read_detector_skips_other_names():
    source = ("mu = net.forward(x)[0]\nforward(x)\nf = net.forward\n"
              "net.forwarded(x)\ndef forward(self):\n    pass\n")
    assert forward_reads(source) == [1, 3]


def test_acting_code_reads_heads_not_forward():
    found = [f"{name}:{line}" for name in HEAD_READING_MODULES
             for line in forward_reads((ROOT / name).read_text(encoding="utf-8"))]
    assert not found, "read trunk and the heads you use:\n" + "\n".join(found)


def artifact_writes(source):
    """Lines that write an `.artifact` attribute outside class SwitchState."""
    def walk(node):
        if isinstance(node, ast.ClassDef) and node.name == "SwitchState":
            return
        if (isinstance(node, ast.Attribute) and node.attr == "artifact"
                and not isinstance(node.ctx, ast.Load)):
            yield node.lineno
        for child in ast.iter_child_nodes(node):
            yield from walk(child)
    return sorted(walk(ast.parse(source)))


def test_artifact_write_detector_spares_switch_state():
    source = ("class SwitchState:\n    def f(self):\n        self.artifact = 1\n"
              "s.artifact = 2\na, s.artifact = 3, 4\nx = s.artifact\n"
              "s.artifact.end = 5\ndel s.artifact\n")
    assert artifact_writes(source) == [4, 5, 8]


def test_only_switch_state_latches_the_artifact():
    # the latch and the clear live in SwitchState.transition, for both the
    # scalar and the lane path
    found = [f"{path.relative_to(ROOT)}:{line}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for line in artifact_writes(path.read_text(encoding="utf-8"))]
    assert not found, "write the artifact in SwitchState:\n" + "\n".join(found)


LIST_MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear",
                 "sort", "reverse"}


def opening_writes(source):
    """Lines that write an `.opening` attribute outside EpisodeDriver.tick:
    bind or delete it (only Trainer.__init__ may bind it), store into or
    delete from it, or call a list mutator on it."""
    def is_opening(node):
        return isinstance(node, ast.Attribute) and node.attr == "opening"

    def walk(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + (node.name,)
            if scope[-2:] == ("EpisodeDriver", "tick"):
                return
        if is_opening(node):
            if (not isinstance(node.ctx, ast.Load)
                    and scope[-2:] != ("Trainer", "__init__")):
                yield node.lineno
        elif isinstance(node, ast.Subscript):
            if is_opening(node.value) and not isinstance(node.ctx, ast.Load):
                yield node.lineno
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in LIST_MUTATORS and is_opening(node.func.value):
                yield node.lineno
        for child in ast.iter_child_nodes(node):
            yield from walk(child, scope)
    return sorted(set(walk(ast.parse(source), ())))


def test_opening_write_detector_spares_tick_and_the_binding():
    source = ("class Trainer:\n    def __init__(self):\n"
              "        self.opening = []\n    def reset(self):\n"
              "        self.opening = []\nclass EpisodeDriver:\n"
              "    def tick(self):\n        t.opening.append(1)\n"
              "        t.opening[0] = 2\nt.opening.append(3)\n"
              "t.opening[0] = 4\ndel t.opening[0]\nt.opening += [5]\n"
              "x = t.opening[0]\nn = len(t.opening)\nt.opening.index(x)\n")
    assert opening_writes(source) == [5, 10, 11, 12, 13]


def test_only_the_episode_tick_writes_the_opening():
    # a stored walker action is reused only under the byte-equality test in
    # EpisodeDriver.tick, which also writes every entry
    found = [f"{path.relative_to(ROOT)}:{line}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for line in opening_writes(path.read_text(encoding="utf-8"))]
    assert not found, "write the opening in EpisodeDriver.tick:\n" + "\n".join(found)


def call_scopes(source, attr):
    """The (class and function names) scope of each call of a `.attr`, or of
    a bare `attr`."""
    def walk(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call) and attr in (
                getattr(node.func, "attr", None),
                getattr(node.func, "id", None)):
            yield scope
        for child in ast.iter_child_nodes(node):
            yield from walk(child, scope)
    return sorted(walk(ast.parse(source), ()))


def test_call_scope_detector_names_the_enclosing_definitions():
    source = ("class D:\n    def fold(self):\n        self.b.add(1)\n"
              "def run():\n    def back():\n        d.fold()\n"
              "    d.fold()\n    d.fold\nd.fold()\n")
    assert call_scopes(source, "add") == [("D", "fold")]
    assert call_scopes(source, "fold") == [(), ("run",), ("run", "back")]


def test_the_fold_is_written_once():
    # one function adds a folded reward into a buffer row, and both paths
    # that tick a training tail, tick() and the lane batch, call it
    sources = [path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src").rglob("*.py"))]
    adds = [scope for source in sources
            for scope in call_scopes(source, "add_reward")]
    assert adds == [("EpisodeDriver", "fold")]
    folds = {scope for source in sources
             for scope in call_scopes(source, "fold")}
    lanes = {scope for scope in folds if scope[0] == "_run_batch"}
    assert lanes and folds - lanes == {("EpisodeDriver", "tick")}


def test_call_scope_detector_counts_bare_calls():
    source = ("from m import parse\ndef read():\n    parse(1)\n"
              "    m.parse(2)\n    parse\n")
    assert call_scopes(source, "parse") == [("read",), ("read",)]


def test_one_settings_parser_builds_the_params():
    # PPO and AWTV settings, from a config section or a CLI override, go
    # through config.parse_params: a command that built its own would check
    # keys and types a second way
    found = [(str(path.relative_to(ROOT)), scope)
             for top in ("src", "bench")
             for path in sorted((ROOT / top).rglob("*.py"))
             for scope in call_scopes(path.read_text(encoding="utf-8"),
                                      "build_params")]
    assert found == [("src/gaitbridge/harness/config.py", ("parse_params",))]


def public_definitions(source):
    """(line, name) of each public module-level function and class, and of
    each public method of a module-level class."""
    tree = ast.parse(source)
    defs = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            defs += [(item.lineno, item.name) for item in node.body
                     if isinstance(item, ast.FunctionDef)]
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs.append((node.lineno, node.name))
    return sorted((line, name) for line, name in defs
                  if not name.startswith("_"))


def names_read(source):
    """Every name a `Name`, an `Attribute` or a `from ... import` reads."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_definition_and_read_detectors():
    source = ("import a\nfrom b import used_import\nclass Kept:\n"
              "    def method(self):\n        pass\n"
              "    def __len__(self):\n        return 0\n"
              "    def _private(self):\n        pass\n"
              "def unread():\n    def nested():\n        pass\n"
              "def _helper():\n    return a.attr(Kept)\n")
    assert public_definitions(source) == [(3, "Kept"), (4, "method"),
                                          (10, "unread")]
    assert names_read(source) == {"used_import", "a", "attr", "Kept"}


def test_every_public_definition_in_src_is_read_elsewhere():
    # a definition only the tests read is a test helper: it belongs in
    # tests/helpers.py, not in the program
    sources = {path: path.read_text(encoding="utf-8")
               for top in ("src", "bench")
               for path in sorted((ROOT / top).rglob("*.py"))}
    read = set().union(*map(names_read, sources.values()))
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path, source in sources.items()
             if path.is_relative_to(ROOT / "src")
             for line, name in public_definitions(source) if name not in read]
    assert not found, "definitions nothing else reads:\n" + "\n".join(found)


# trace targets of bench/measure.py that name no function, and why; each
# one's calls read 0 in the per-layer metrics
ABSENT_TRACE_TARGETS = {
    "gaitbridge.diffcore.tape:GradientTape.backward":
        "the tape gave way to the closed-form ParameterizedNet.backward",
    "gaitbridge.diffcore.net:ParameterizedNet.forward":
        "no program path computed every head since acting code reads trunk "
        "and each head it uses; the all-heads forward is the tests' reference "
        "in helpers.py, and diffcore.forward reads 0 until it traces trunk",
    "gaitbridge.diffcore.net:ParameterizedNet.value_of":
        "a value is read as scalar_head(\"value\", trunk(obs)); no span "
        "counts it until diffcore.forward traces ParameterizedNet.trunk",
    "gaitbridge.composer:BehaviorModule.target_value":
        "drivers read the target through CarriedTarget, which runs trunk once "
        "per observation and each head on demand; the uncached reference is "
        "the tests' UncachedTarget",
}


def trace_targets():
    """The "module:Qualified.name" string of each Target(...) in measure.py."""
    tree = ast.parse((ROOT / "bench" / "measure.py").read_text(encoding="utf-8"))
    return [node.args[1].value for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "Target"]


def resolves(where):
    module_name, _, qualname = where.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return False
    for part in qualname.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_trace_targets_exist_or_are_listed_absent():
    assert resolves("gaitbridge.composer:EpisodeDriver.tick")
    assert not resolves("gaitbridge.composer:EpisodeDriver.gone")
    targets = trace_targets()
    assert len(targets) > 10
    unresolved = sorted({where for where in targets if not resolves(where)})
    unlisted = [where for where in unresolved if where not in ABSENT_TRACE_TARGETS]
    assert not unlisted, "trace targets that name no function:\n" + "\n".join(unlisted)
