"""Diff every golden CLI output of this tree against a git revision, cell by cell.

    python tests/parent_diff.py REV

runs the golden runs (`record_golden._runs`) twice, each side in its own
process with its own `src` on PYTHONPATH: once on this working tree, and once
on REV, extracted from `git archive REV` into a temporary directory that is
removed on exit, so the repository's `.git` is only read.  Both sides read the same inputs, this
tree's configs and `bench/tabgen.py` tables, so a difference comes from the
code.  For every file that differs it prints the largest relative and the
largest absolute cell difference, how many rows moved and the first of them;
it also prints every changed exit code.  It prints "no output differs" and exits 0 when every
output matches, and exits 1 otherwise.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile

TESTS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TESTS)
#: the moved rows printed per file
SHOWN_ROWS = 3

# runs in one side's process: every golden run into out_dir/run<i>, and an
# index of {key: {"exit": code, "dir": "run<i>"}} in out_dir/runs.json
_SIDE = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
from record_golden import run_all
out_dir = sys.argv[2]
runs = run_all(out_dir)
index = {key: {"exit": run["exit"], "dir": f"run{i}"} for i, (key, run) in enumerate(runs.items())}
with open(os.path.join(out_dir, "runs.json"), "w") as handle:
    json.dump(index, handle)
"""


def _difference(a: str, b: str) -> tuple[float, float]:
    """Relative and absolute difference of two CSV cells: 0 if equal, inf if
    either is not a number or only one is finite."""
    if a == b:
        return 0.0, 0.0
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return math.inf, math.inf
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0, 0.0
    diff = abs(x - y)
    if not math.isfinite(diff):
        return math.inf, math.inf
    return diff / max(abs(x), abs(y)), diff


def _rows(path: str):
    """The lines of a file, or None if there is no such file."""
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return handle.read().splitlines()


def compare(old_tree: str, new_tree: str) -> list[str]:
    """Report lines for every run whose exit code or output files differ
    between two trees that hold runs.json and one directory per run."""
    sides = []
    for tree in (old_tree, new_tree):
        with open(os.path.join(tree, "runs.json")) as handle:
            sides.append(json.load(handle))
    old, new = sides
    lines = []
    for key in sorted(old.keys() | new.keys()):
        if key not in old or key not in new:
            lines.append(f"{key}: run only in {'new' if key in new else 'old'}")
            continue
        if old[key]["exit"] != new[key]["exit"]:
            lines.append(f"{key}: exit {old[key]['exit']} -> {new[key]['exit']}")
        dirs = [os.path.join(old_tree, old[key]["dir"]), os.path.join(new_tree, new[key]["dir"])]
        for name in sorted(set(os.listdir(dirs[0])) | set(os.listdir(dirs[1]))):
            texts = [_rows(os.path.join(directory, name)) for directory in dirs]
            if texts[0] is None or texts[1] is None:
                lines.append(f"{key}: {name} written only by {'new' if texts[0] is None else 'old'}")
                continue
            moved = [(row, a, b) for row, (a, b) in enumerate(itertools.zip_longest(*texts))
                     if a != b]
            if not moved:
                continue
            cells = [_difference(x, y) for _, a, b in moved
                     for x, y in itertools.zip_longest((a or "").split(","), (b or "").split(","))]
            relative, absolute = (max(column) for column in zip(*cells))
            lines.append(f"{key}: {name}: {len(moved)} of {max(map(len, texts))} rows differ, "
                         f"largest relative cell difference {relative:.3g}, "
                         f"largest absolute {absolute:.3g}")
            lines += [f"  row {row}: {a} -> {b}" for row, a, b in moved[:SHOWN_ROWS]]
    return lines


def _run_side(tree: str, out_dir: str) -> None:
    os.makedirs(out_dir)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run([sys.executable, "-c", _SIDE, TESTS, out_dir], cwd=out_dir, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"the golden runs failed on {tree}:\n{proc.stderr}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the git revision to compare this working tree with")
    rev = parser.parse_args(argv).rev
    with tempfile.TemporaryDirectory(prefix="parent-diff-") as scratch:
        rev_tree = os.path.join(scratch, "rev")
        archive = subprocess.run(["git", "-C", ROOT, "archive", rev], capture_output=True)
        if archive.returncode != 0:
            print(f"cannot archive {rev}: {archive.stderr.decode().strip()}",
                  file=sys.stderr)
            return 2
        with tarfile.open(fileobj=io.BytesIO(archive.stdout), mode="r|") as tar:
            tar.extractall(rev_tree, filter="data")
        _run_side(rev_tree, os.path.join(scratch, "old"))
        _run_side(ROOT, os.path.join(scratch, "new"))
        lines = compare(os.path.join(scratch, "old"), os.path.join(scratch, "new"))
        with open(os.path.join(scratch, "new", "runs.json")) as handle:
            runs = len(json.load(handle))
    print(f"{runs} golden runs of this tree against {rev}")
    print("\n".join(lines) if lines else "no output differs")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
