"""Every name a module in src/ or tests/ imports is used in that module.

Package `__init__.py` files are exempt: their imports are re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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
