"""Count the code lines of the ``ctrlperm`` sources, per module and in total.

A code line is a physical line that holds part of a token other than a
comment, a docstring or layout (indents, dedents and line ends); a token
split over lines counts on every line it spans.  Blank lines, comment lines
and docstrings therefore count nothing, and a call split over three lines
counts three.  A docstring is the string-literal statement that opens a
module, class or function body.

Run from the repository root::

    python tools/code_lines.py            # src/ctrlperm/*.py
    python tools/code_lines.py FILE...    # the given files
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree):
    """The line numbers every docstring of ``tree`` spans."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in the Python text ``source``."""
    skipped = _docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skipped)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    root = Path(__file__).resolve().parent.parent
    paths = [Path(p) for p in argv] or sorted((root / "src" / "ctrlperm").glob("*.py"))
    counts = {path: code_lines(path.read_text(encoding="utf-8")) for path in paths}
    for path, count in sorted(counts.items(), key=lambda item: (-item[1], item[0].stem)):
        print(f"{count:6d}  {path.stem}")
    print(f"{sum(counts.values()):6d}  total")


if __name__ == "__main__":
    main()
