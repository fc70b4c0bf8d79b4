"""Static checks over the source tree.

Every name a module in src/ or tests/ imports is used in that module
(package `__init__.py` files are exempt: their imports are re-exports), the
modules on the per-tick path multiply matrices with `ndarray.dot`, the
acting and training code reads only the network heads it uses, only
`SwitchState` writes a switch's artifact, only
`EpisodeDriver.replay_opening` writes a record of the walker's opening and,
outside the physics, a runner's fields, only `RolloutBuffer.add_reward`
adds a folded reward into a buffer row, one function
reads a frozen policy through its normalizer and trunk and one reads it
row by row, one function in
config.py builds the PPO and AWTV settings, every public function and
class in src/ is read by name somewhere else in src/ or bench/ (a package
`__init__.py`'s re-export is no read; the exceptions are listed), every
method and property of a class in src/ is read by name outside its own
definition, in src/, bench/ or tools/ (the exceptions are listed), and every
function the benchmark traces for its per-layer metrics still exists,
unless it is listed below with the reason it is gone.
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


# where a handle on the walker's opening record may be bound and read; the
# record's one writer, EpisodeDriver.replay_opening, may do anything with
# them, and is the only code that reads the driver's handle
OPENING_HANDLES = {
    ("opening", "bind"): ("Trainer", "__init__"),
    ("opening", "read"): ("EpisodeDriver", "__init__"),
    ("_opening", "bind"): ("EpisodeDriver", "__init__"),
}
OPENING_WRITER = ("EpisodeDriver", "replay_opening")


def opening_writes(source):
    """Lines that touch a handle on the opening record (an `.opening` or
    `._opening` attribute) outside the record's writer: binding or reading
    it anywhere but where OPENING_HANDLES allows, or storing into it or
    calling a list mutator on it anywhere."""
    def walk(node, scope, parent):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + (node.name,)
            if scope[-2:] == OPENING_WRITER:
                return
        if isinstance(node, ast.Attribute) and node.attr in ("opening",
                                                            "_opening"):
            use = "read" if isinstance(node.ctx, ast.Load) else "bind"
            mutated = (isinstance(parent, ast.Subscript)
                       and not isinstance(parent.ctx, ast.Load)) or (
                isinstance(parent, ast.Attribute)
                and parent.attr in LIST_MUTATORS)
            if mutated or scope[-2:] != OPENING_HANDLES.get((node.attr, use)):
                yield node.lineno
        for child in ast.iter_child_nodes(node):
            yield from walk(child, scope, node)
    return sorted(set(walk(ast.parse(source), (), None)))


def test_opening_write_detector_spares_the_replay_and_the_binding():
    source = ("class Trainer:\n    def __init__(self):\n"
              "        self.opening = []\n    def reset(self):\n"
              "        self.opening = []\nclass EpisodeDriver:\n"
              "    def replay_opening(self, room):\n"
              "        self._opening[0].append(1)\n"
              "        self._opening = None\n"
              "    def __init__(self, t):\n        self._opening = t.opening\n"
              "        t.opening.append(2)\n        self._opening[0] = 3\n"
              "    def tick(self):\n        return self._opening is None\n"
              "x = t.opening[0]\nt.opening[0] = 4\ndel t.opening[0]\n"
              "t.opening += [5]\nd._opening = None\nn = len(d._opening)\n")
    assert opening_writes(source) == [5, 12, 13, 15, 16, 17, 18, 19, 20, 21]


def test_only_the_opening_replay_writes_the_opening():
    # EpisodeDriver.replay_opening replays entries only under its conditions,
    # writes every entry and alone asks whether a driver holds the record;
    # the trainer binds its record, and a driver takes it at its start (an
    # evaluation driver takes its walker's at its first replay)
    found = [f"{path.relative_to(ROOT)}:{line}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for line in opening_writes(path.read_text(encoding="utf-8"))]
    assert not found, ("write the opening in EpisodeDriver.replay_opening:\n"
                       + "\n".join(found))


# a runner's physics fields: those `TerrainEnv.step` advances
RUNNER_FIELDS = ("x", "v", "w", "h", "c", "contact", "steps")


def runner_field_writes(source):
    """(scope, line) of each store into an attribute named as a runner's
    physics field."""
    def walk(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + (node.name,)
        if (isinstance(node, ast.Attribute) and node.attr in RUNNER_FIELDS
                and not isinstance(node.ctx, ast.Load)):
            yield scope, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from walk(child, scope)
    return sorted(walk(ast.parse(source), ()))


def test_runner_field_write_detector():
    source = ("class D:\n    def f(self, s):\n        s.x, s.c = 1, 2\n"
              "        s.x += 1\n        s.y = 3\n        y = s.x\n"
              "def g(s):\n    del s.steps\n")
    assert runner_field_writes(source) == [
        (("D", "f"), 3), (("D", "f"), 3), (("D", "f"), 4), (("g",), 8)]


def test_outside_the_physics_only_the_replay_writes_a_runner():
    # the physics advances a runner; the walker's replay copies the state a
    # step left, and nothing else may move one. Modules that do not import
    # the physics hold no runner (diffcore's Adam state has a `v`).
    scopes = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        if path.name != "terrainsim.py" and "terrainsim import" in source:
            scopes.update(scope for scope, _ in runner_field_writes(source))
    assert scopes == {OPENING_WRITER}


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


def attribute_scopes(source, attr):
    """The scope of each use of a `.attr` attribute."""
    def walk(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Attribute) and node.attr == attr:
            yield scope
        for child in ast.iter_child_nodes(node):
            yield from walk(child, scope)
    return sorted(walk(ast.parse(source), ()))


def test_attribute_scope_detector():
    source = ("class B:\n    def f(self):\n        self._r[0] += 1\n"
              "        g(self._r)\nx = b._r\nb.r = 2\n")
    assert attribute_scopes(source, "_r") == [(), ("B", "f"), ("B", "f")]


def test_the_fold_is_written_once():
    # one function adds a folded reward into a buffer row, over one row or
    # an array of them, and both paths that tick a training tail call it:
    # tick() for one tick, the lane batch once per buffer and step. Beside
    # it only the buffer's allocation, `append` and the writer of deferred
    # rewards touch the rewards column.
    sources = [path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src").rglob("*.py"))]
    adds = [scope for source in sources
            for scope in call_scopes(source, "add_reward")]
    assert adds == [("EpisodeDriver", "tick"), ("_run_batch", "fold")]
    column = {scope for source in sources
              for scope in attribute_scopes(source, "_rewards")}
    assert column == {("RolloutBuffer", name)
                      for name in ("__init__", "append", "add_reward",
                                   "fill_rewards")}


def frozen_read_scopes(source):
    """The scope of each `trunk(...)` or `trunk_rows(...)` call whose
    argument is a `normalize(...)` call: a hand-written read of a policy."""
    def named(node, name):
        return isinstance(node, ast.Call) and name in (
            getattr(node.func, "attr", None), getattr(node.func, "id", None))

    def walk(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + (node.name,)
        if (named(node, "trunk") or named(node, "trunk_rows")) and any(
                named(arg, "normalize") for arg in node.args):
            yield scope
        for child in ast.iter_child_nodes(node):
            yield from walk(child, scope)
    return sorted(walk(ast.parse(source), ()))


def test_frozen_read_detector():
    source = ("def f(n, m, x):\n    n.trunk(m.normalize(x))\n"
              "    n.trunk(x)\n    trunk(normalize(x))\n"
              "class A:\n    def g(self):\n        h = n.trunk(m.update(x))\n"
              "    def r(self):\n"
              "        n.trunk_rows(m.normalize(policy_obs(n, x)))\n")
    assert frozen_read_scopes(source) == [("A", "r"), ("f",), ("f",)]


def test_a_frozen_policy_is_read_in_one_place():
    # every read of a frozen policy, on either runner path, trims the
    # observation to the policy's width through policy_trunk, and the one
    # per-row read, of deferred rewards' rows, through RowTarget._rows; a
    # read written out by hand could skip the trim
    found = [(str(path.relative_to(ROOT)), scope)
             for path in sorted((ROOT / "src").rglob("*.py"))
             for scope in frozen_read_scopes(path.read_text(encoding="utf-8"))]
    assert found == [("src/gaitbridge/composer.py", ("RowTarget", "_rows")),
                     ("src/gaitbridge/composer.py", ("policy_trunk",))]


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


# public definitions in src/ that only the tests read, and why each stays
TEST_ONLY_DEFINITIONS = {
    "summarize_metrics": "the library half of `gaitbridge summarize` "
                         "(ROADMAP item 4), the command that will read it",
}


def test_every_public_definition_in_src_is_read_elsewhere():
    # a definition only the tests read is a test helper: it belongs in
    # tests/helpers.py, not in the program. A package `__init__.py` only
    # re-exports, so its imports read nothing.
    sources = {path: path.read_text(encoding="utf-8")
               for top in ("src", "bench")
               for path in sorted((ROOT / top).rglob("*.py"))}
    read = set().union(*(names_read(source) for path, source in sources.items()
                         if path.name != "__init__.py"))
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path, source in sources.items()
             if path.is_relative_to(ROOT / "src")
             for line, name in public_definitions(source)
             if name not in read and name not in TEST_ONLY_DEFINITIONS]
    assert not found, "definitions nothing else reads:\n" + "\n".join(found)
    stale = read & set(TEST_ONLY_DEFINITIONS)
    assert not stale, f"read in src/ or bench/ now: {sorted(stale)}"


def class_members(source):
    """(class, name, first line, last line) of each method and property of
    each class: a function defined in its body, or a name it binds to a
    `property(...)` call. Dunder methods are the language's to call."""
    members = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                names = [item.name]
            elif (isinstance(item, ast.Assign)
                  and isinstance(item.value, ast.Call)
                  and getattr(item.value.func, "id", None) == "property"):
                names = [target.id for target in item.targets
                         if isinstance(target, ast.Name)]
            else:
                continue
            members += [(node.name, name, item.lineno, item.end_lineno)
                        for name in names
                        if not (name.startswith("__") and name.endswith("__"))]
    return members


def unread_members(sources, owners):
    """"path:line: Class.name" of each member of a class in a source under
    one of `owners` that no source reads by name (a loaded `Name` or
    `Attribute`) outside the member's own lines."""
    reads = {}
    for path, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, (ast.Name, ast.Attribute))
                    and isinstance(node.ctx, ast.Load)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                reads.setdefault(name, []).append((path, node.lineno))
    return [f"{path}:{first}: {cls}.{name}"
            for path, source in sources.items()
            if any(path.startswith(owner) for owner in owners)
            for cls, name, first, last in class_members(source)
            if all(where == path and first <= line <= last
                   for where, line in reads.get(name, ()))]


def test_member_detectors():
    sources = {
        "src/a.py": ("class A:\n    def used(self):\n        return 1\n"
                     "    def self_only(self):\n"
                     "        return self.self_only()\n"
                     "    def _private(self):\n        pass\n"
                     "    def __len__(self):\n        return 0\n"
                     "    size = property(lambda self: 2)\n"
                     "    def stored(self):\n        pass\n"
                     "def f(a):\n    a.stored = 3\n"
                     "    return a.used() + A.size\n"),
        "tools/b.py": "def g(a):\n    return a._private()\n",
    }
    assert class_members(sources["src/a.py"]) == [
        ("A", "used", 2, 3), ("A", "self_only", 4, 5), ("A", "_private", 6, 7),
        ("A", "size", 10, 10), ("A", "stored", 11, 12)]
    assert unread_members(sources, ("src/",)) == [
        "src/a.py:4: A.self_only", "src/a.py:11: A.stored"]
    assert unread_members(sources, ("tools/",)) == []


# methods and properties of src/ classes that only the tests read, as
# "Class.name", and why each stays
TEST_ONLY_MEMBERS = {}


def test_every_method_and_property_in_src_is_read_elsewhere():
    # a member that nothing in the program reads outside its own body is
    # dead code, or a test helper that belongs in tests/helpers.py
    sources = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
               for top in ("src", "bench", "tools")
               for path in sorted((ROOT / top).rglob("*.py"))}
    unread = unread_members(sources, ("src/",))
    found = [where for where in unread
             if where.rpartition(" ")[2] not in TEST_ONLY_MEMBERS]
    assert not found, "members nothing else reads:\n" + "\n".join(found)
    stale = set(TEST_ONLY_MEMBERS) - {where.rpartition(" ")[2]
                                      for where in unread}
    assert not stale, f"read in src/, bench/ or tools/ now: {sorted(stale)}"


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
    "gaitbridge.policyopt:RunningNormalizer.update":
        "the per-row update gave way to RunningNormalizer.merge, which folds "
        "each worker's raw rows in at the trainer's update; normalize is the "
        "only per-tick normalizer call, and the span still counts it",
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
