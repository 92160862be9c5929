"""The counting rule of ``tools/code_lines.py``, which the ROADMAP's code-line figures use."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

import os  # a comment after code counts as code


# a comment line
def f(a, b):
    """A function docstring."""
    return os.path.join(
        a,
        b,
    )


class C:
    """A class docstring."""

    text = """a string that is
    no docstring"""
'''


def test_counts_code_lines_only():
    # counted: the import, def, the four lines of the split call, class and the
    # two lines of the assigned string; not: docstrings, comments, blank lines
    assert code_lines.code_lines(SOURCE) == 9


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "one.py").write_text("x = 1\n\n# two\n")
    (tmp_path / "two.py").write_text('"""Doc."""\ny = (\n    2\n)\n')
    code_lines.main([str(tmp_path / "one.py"), str(tmp_path / "two.py")])
    assert capsys.readouterr().out == "     3  two\n     1  one\n     4  total\n"
