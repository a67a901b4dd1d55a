"""Line counts of the package source: total lines and code lines, per file and
summed over the files counted, whose number the last line gives.

    python tests/src_lines.py [FILE ...]

counts `src/hamens/*.py` when no file is named.  The total is what `wc -l`
prints.  A code line holds a token other than a comment, a newline or an
indent (`tokenize`) and is not part of a docstring, the string literal that
opens a module, class or function body; a string token counts on every line
it spans.
"""

from __future__ import annotations

import ast
import glob
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: tokens that make no line a code line
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(source: bytes) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None  # an empty module has no body
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: str) -> tuple[int, int]:
    """(total lines, code lines) of one Python file."""
    with open(path, "rb") as handle:
        source = handle.read()
    code = {line for token in tokenize.tokenize(io.BytesIO(source).readline)
            if token.type not in _LAYOUT for line in range(token.start[0], token.end[0] + 1)}
    return source.count(b"\n"), len(code - _docstring_lines(source))


def main(argv=None) -> int:
    paths = (sys.argv[1:] if argv is None else argv) or sorted(
        glob.glob(os.path.join(ROOT, "src", "hamens", "*.py")))
    totals = [0, 0]
    for path in paths:
        total, code = count(path)
        totals[0] += total
        totals[1] += code
        print(f"{os.path.basename(path)}: {total} lines, {code} code lines")
    print(f"all: {len(paths)} files, {totals[0]} lines, {totals[1]} code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
