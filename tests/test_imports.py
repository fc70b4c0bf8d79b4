"""Static checks over the source tree.

Every name a module in src/ or tests/ imports is used in that module
(package `__init__.py` files are exempt: their imports are re-exports), and
the modules on the per-tick path multiply matrices with `ndarray.dot`.
"""

import ast
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
