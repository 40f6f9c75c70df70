#!/usr/bin/env python3
"""Count the code, docstring, comment and blank lines of Python files.

Each line is counted once. A line inside a module, class or function
docstring (found with ``ast``) is a docstring line, blank or not; of the
other lines, an empty one is blank, one whose first character other than
whitespace is ``#`` is a comment, and the rest are code. Prints one line
per file, then the totals over every file.

Usage: python3 scripts/loc.py PATH...   (a file, or a directory searched for *.py)
"""

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that the docstrings in ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> dict[str, int]:
    """The four line counts of one Python file."""
    text = path.read_text("utf-8")
    docs = docstring_lines(ast.parse(text, str(path)))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        kind = ("docstring" if number in docs else "blank" if not stripped
                else "comment" if stripped.startswith("#") else "code")
        counts[kind] += 1
    return counts


def _row(counts: dict[str, int], label: str) -> str:
    code, doc, comment, blank = (counts[kind] for kind in KINDS)
    return f"{code:>6} {doc:>6} {comment:>7} {blank:>6} {sum(counts.values()):>6}  {label}"


def main(argv: list[str]) -> int:
    if not argv or any(arg.startswith("-") for arg in argv):
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    files = [f for arg in map(Path, argv)
             for f in (sorted(arg.rglob("*.py")) if arg.is_dir() else [arg])]
    totals = dict.fromkeys(KINDS, 0)
    print(f"{'code':>6} {'doc':>6} {'comment':>7} {'blank':>6} {'total':>6}  file")
    for path in files:
        counts = count(path)
        for kind in KINDS:
            totals[kind] += counts[kind]
        print(_row(counts, str(path)))
    print(_row(totals, "total"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
