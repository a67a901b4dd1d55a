"""The comparison of `parent_diff.py` on two small hand-made output trees."""

import json
import os
import subprocess

import numpy as np

import parent_diff
from parent_diff import compare


def write_tree(root, runs):
    """runs: {key: (exit code, {file name: text})}, laid out as the golden runs write them."""
    index = {}
    for i, (key, (code, files)) in enumerate(runs.items()):
        run_dir = root / f"run{i}"
        run_dir.mkdir(parents=True)
        for name, text in files.items():
            (run_dir / name).write_text(text)
        index[key] = {"exit": code, "dir": f"run{i}"}
    (root / "runs.json").write_text(json.dumps(index))
    return str(root)


def test_compare_reports_an_ulp_a_missing_file_and_an_exit_code(tmp_path):
    cell = 0.1234567890123456
    bumped = float(np.nextafter(cell, 1.0))
    table = "t,r\n0,1\n{},0.5\n2,0.25\n"
    same = {"out.csv": "check,metric\nmc,1.5\n"}
    old = write_tree(tmp_path / "old", {
        "simulate a": (0, {"out.csv": table.format(repr(cell)), "extra.csv": "x\n1\n"}),
        "validate b": (0, same),
        "rates c": (0, same)})
    new = write_tree(tmp_path / "new", {
        "simulate a": (0, {"out.csv": table.format(repr(bumped))}),
        "validate b": (1, same),
        "rates c": (0, same)})
    lines = compare(old, new)
    assert lines == [
        "simulate a: extra.csv written only by old",
        "simulate a: out.csv: 1 of 4 rows differ, largest relative cell difference "
        f"{(bumped - cell) / bumped:.3g}, largest absolute {bumped - cell:.3g}",
        f"  row 2: {cell!r},0.5 -> {bumped!r},0.5",
        "validate b: exit 0 -> 1",
    ]
    assert compare(old, old) == []


def test_compare_takes_each_largest_difference_over_all_cells(tmp_path):
    # a near-zero cell can move by 1.5 relative and 5e-14 absolute while a
    # large cell moves by 1e-3 absolute; both maxima are printed
    old = write_tree(tmp_path / "old", {"rates a": (0, {"out.csv": "t,g\n0,2e-14\n1,1000.0\n"})})
    new = write_tree(tmp_path / "new", {"rates a": (0, {"out.csv": "t,g\n0,-3e-14\n1,1000.001\n"})})
    lines = compare(old, new)
    assert lines[0] == ("rates a: out.csv: 2 of 3 rows differ, largest relative cell difference "
                        f"1.67, largest absolute {1000.001 - 1000.0:.3g}")
    # a cell that is a number on one side only counts as an infinite difference
    new = write_tree(tmp_path / "nan", {"rates a": (0, {"out.csv": "t,g\n0,nan\n1,1000.0\n"})})
    assert compare(old, new)[0].endswith("largest relative cell difference inf, largest absolute inf")


def test_main_reads_the_revision_from_git_archive(monkeypatch, capsys):
    # both sides stubbed: main extracts HEAD, and .git gains no worktree
    def worktrees():
        return subprocess.run(["git", "-C", parent_diff.ROOT, "worktree", "list", "--porcelain"],
                              capture_output=True, text=True, check=True).stdout

    extracted = []

    def stub_side(tree, out_dir):
        extracted.append(os.path.isfile(os.path.join(tree, "src", "hamens", "__init__.py")))
        os.makedirs(out_dir)
        with open(os.path.join(out_dir, "runs.json"), "w") as handle:
            json.dump({}, handle)

    before = worktrees()
    monkeypatch.setattr(parent_diff, "_run_side", stub_side)
    assert parent_diff.main(["HEAD"]) == 0
    assert extracted == [True, True]
    assert worktrees() == before
    assert capsys.readouterr().out.splitlines()[-1] == "no output differs"
