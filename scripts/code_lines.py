"""Count the code lines of each module under a tree's `src` directory.

    python scripts/code_lines.py [TREE]
    python scripts/code_lines.py BASE HEAD

With one tree (by default the checkout this script sits in) it prints each
module's code lines and the total; with two it prints both counts and the
change for each module present in either, then the totals.

A code line is a line holding a token other than a comment, a newline or
indentation, outside docstrings. A docstring is a string constant that is
the first statement of a module, class or function. A statement that spans
several lines counts each line it touches; a string that is not a
docstring counts each of its lines.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skip)


def count_tree(tree: Path) -> dict[str, int]:
    """Module path (relative to tree/src) -> code lines, sorted by path."""
    src = tree / "src"
    if not src.is_dir():
        raise SystemExit(f"no src directory under {tree}")
    return {path.relative_to(src).as_posix(): code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(src.rglob("*.py"))}


def main(argv: list[str]) -> int:
    if len(argv) > 2:
        print("usage: code_lines.py [TREE] | code_lines.py BASE HEAD", file=sys.stderr)
        return 2
    trees = [Path(a) for a in argv] or [ROOT]
    counts = [count_tree(tree) for tree in trees]
    if len(counts) == 1:
        for name, lines in counts[0].items():
            print(f"{lines:6d}  {name}")
        print(f"{sum(counts[0].values()):6d}  total")
        return 0
    base, head = counts
    print(f"{'base':>6}  {'head':>6}  {'change':>6}  module")
    for name in sorted(base.keys() | head.keys()):
        b, h = base.get(name, 0), head.get(name, 0)
        print(f"{b:6d}  {h:6d}  {h - b:+6d}  {name}")
    b, h = sum(base.values()), sum(head.values())
    print(f"{b:6d}  {h:6d}  {h - b:+6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
