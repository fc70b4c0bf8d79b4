"""Count the code lines of Python sources: the measure of ROADMAP's design
aim.

    python3 tools/code_lines.py [PATH ...]

A line counts when it holds a token other than a comment, a newline, an
indent or a dedent, and lies outside every module, class and function
docstring. So blank lines, comment lines and docstrings count for nothing,
and a statement over three lines counts three. Each PATH is a file or a
directory searched for `*.py`; the default is `src`. Prints one line per
file, then the total.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in Python `source`."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skip)


def python_files(paths):
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories (default: src)")
    args = parser.parse_args(argv)
    total = 0
    for path in python_files(args.paths):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
