"""The line counts of `src_lines.py` on a small hand-made module."""

from src_lines import count, main

SAMPLE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment keeps the line

# a comment line


class Box:
    """Class docstring."""

    size = 2


def area(box):
    """Function docstring,

    on three lines."""
    text = """a string that is not a docstring
    spans two lines"""
    return box.size ** 2, text
'''


def test_counts_exclude_blanks_comments_and_docstrings(tmp_path, capsys):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    # code: import, class, size, def, both lines of text, return
    assert count(str(path)) == (21, 7)
    assert main([str(path)]) == 0
    assert capsys.readouterr().out == ("sample.py: 21 lines, 7 code lines\n"
                                       "all: 21 lines, 7 code lines\n")
