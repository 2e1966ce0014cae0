"""The code-line count: which lines of a module it counts, and its two modes."""

import ast
import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# A synthetic module and its code lines (CODE): its docstrings, blank lines
# and comment lines are not code; a statement counts each line it spans.
MODULE = '''"""A module docstring
over two lines."""

# a comment line
import math  # code


def f(x):
    """A one-line function docstring."""
    y = (x +  # code, and so is the next line
         1)
    "a string statement that is not first"  # code
    return y  # code


class C:
    """A class docstring,

    with a blank line in it."""

    def g(self):
        # the first statement below is a string, so a docstring
        """Doc."""
        return math.pi  # code
    # a string over three lines that is not a docstring: three code lines
    s = """one
two
three"""
'''

CODE = [5, 8, 10, 11, 12, 13, 16, 21, 24, 26, 27, 28]


def test_a_synthetic_module():
    assert code_lines.code_lines(MODULE) == len(CODE)


def test_the_docstrings_of_a_synthetic_module():
    assert sorted(code_lines.docstring_lines(ast.parse(MODULE))) == [1, 2, 9, 17, 18, 19, 23]


def test_an_empty_module_has_none():
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n') == 0


def _tree(root: Path, modules: dict) -> Path:
    for name, text in modules.items():
        path = root / "src" / "pkg" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def test_one_tree_prints_each_module_and_the_total(tmp_path, capsys):
    tree = _tree(tmp_path, {"a.py": MODULE, "b.py": "x = 1\n"})
    assert code_lines.main([str(tree)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{len(CODE):6d}  pkg/a.py", f"{1:6d}  pkg/b.py", f"{len(CODE) + 1:6d}  total"]


def test_a_pair_prints_both_counts_and_the_change(tmp_path, capsys):
    base = _tree(tmp_path / "base", {"a.py": MODULE, "gone.py": "x = 1\ny = 2\n"})
    head = _tree(tmp_path / "head", {"a.py": "x = 1\n", "new.py": "z = 3\n"})
    assert code_lines.main([str(base), str(head)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == [
        f"{len(CODE):6d}  {1:6d}  {1 - len(CODE):+6d}  pkg/a.py",
        f"{2:6d}  {0:6d}  {-2:+6d}  pkg/gone.py",
        f"{0:6d}  {1:6d}  {1:+6d}  pkg/new.py",
        f"{len(CODE) + 2:6d}  {2:6d}  {-len(CODE):+6d}  total"]
