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
                                       "all: 1 files, 21 lines, 7 code lines\n")


def test_the_sum_names_the_number_of_files(tmp_path, capsys):
    paths = []
    for name in ("a.py", "b.py"):
        paths.append(str(tmp_path / name))
        (tmp_path / name).write_text(SAMPLE)
    (tmp_path / "c.py").write_text("")
    paths.append(str(tmp_path / "c.py"))
    assert main(paths) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "all: 3 files, 42 lines, 14 code lines"
