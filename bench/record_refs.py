"""Record the reference outputs the benchmark compares against.

Run from the repository root, on the commit whose outputs are the reference:

    python3 bench/record_refs.py

It runs every `figures` operation and the `tabulated` operations of every
input variant once, refuses to record an output that fails its other checks
(exit status, traceback, tabulated oracle), and writes bench/ref/*.npz.
"""

import os
import shutil
import sys

import check
import run
import tabgen


def record(runner, ops, path):
    store = {}
    for op in ops:
        result = runner.run_op(op)
        if result.problems:
            sys.exit(f"{op.name}: not recorded: {'; '.join(result.problems)}")
        out_dir = os.path.join(runner.work, "op")
        for name in sorted(os.listdir(out_dir)):
            if name.endswith(".csv"):
                store[f"{op.name}|{name}"] = check.Table.read(os.path.join(out_dir, name))
        print(f"recorded {op.name}", flush=True)
    check.save_tables(path, store)


def main():
    shutil.rmtree(run.WORK, ignore_errors=True)
    os.makedirs(run.WORK)
    os.makedirs(run.REFS, exist_ok=True)
    runner = run.Runner(run.WORK)
    try:
        ops, _ = run.figures_ops(0, None)
        record(runner, ops, os.path.join(run.REFS, "figures.npz"))
        for variant in range(tabgen.VARIANTS):
            ops, _ = run.tabulated_ops(variant, None)
            record(runner, ops, os.path.join(run.REFS, f"tabulated_v{variant}.npz"))
    finally:
        runner.close()


if __name__ == "__main__":
    main()
