"""Golden outputs: the exit code and sha256 of every file a fixed set of CLI runs writes.

The runs are `moments`, `simulate` and `rates` on every `configs/*.cfg`,
`scan` on the fig7 configs (with their per-value files), `validate` on
`validate_default.cfg` at seeds 1, 11 and 145, as shipped and at omega_c = 1e8
(written next to the outputs), and the three commands on the tabulated and probe
configs of each `bench/tabgen.py` variant, written from their seeds.
All run `hamens.cli.main` in this process.

The digests hold only on the build they were recorded on: the numpy
version, the Python version, the platform with its C library (libm),
numpy's SIMD targets for float64 ufuncs, which pick the exp, sin and cos
kernels, and the core OpenBLAS picks for the CPU at run time, which
numpy's build information does not name (it names the build's target).
`tests/test_golden.py` compares against `tests/golden.json` and skips on
any other build.

    PYTHONPATH=src python tests/record_golden.py

reruns every output, rewrites `tests/golden.json` and prints what changed.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import sys
import tempfile

import numpy as np

from hamens.cli import main

try:
    from numpy.lib.introspect import opt_func_info
except ImportError:  # numpy < 2.0 names no dispatch targets
    opt_func_info = None

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(ROOT, "configs")
BENCH = os.path.join(ROOT, "bench")
GOLDEN = os.path.join(ROOT, "tests", "golden.json")
#: the names OpenBLAS builds export its runtime core name under
_CORENAME_SYMBOLS = ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename")


def blas_core() -> str:
    """The core OpenBLAS dispatches to here (SkylakeX, Haswell, ...), from the
    loaded library's own get_corename; "unknown" where any step fails."""
    try:
        with open("/proc/self/maps") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
        # numpy's own copy first, where scipy has loaded a second one
        numpy_dir = os.path.dirname(np.__file__)
        library = ctypes.CDLL(min(paths, key=lambda path: (not path.startswith(numpy_dir), path)))
    except (OSError, ValueError):  # no /proc, no OpenBLAS loaded, or it does not load
        return "unknown"
    for name in _CORENAME_SYMBOLS:
        if hasattr(library, name):
            corename = getattr(library, name)
            corename.restype = ctypes.c_char_p
            return (corename() or b"unknown").decode()
    return "unknown"


def build() -> dict:
    """What the digests depend on besides the code."""
    targets = {"unknown"} if opt_func_info is None else {
        kind["current"] for func in opt_func_info(signature="float64").values() for kind in func.values()}
    return {"numpy": np.__version__, "python": platform.python_version(),
            "platform": "-".join([platform.system(), platform.machine(), *platform.libc_ver()]),
            "simd": " ".join(sorted(targets)), "blas_core": blas_core()}


def _tabgen_configs(directory):
    """{label: config path} for the tabulated and probe configs of every tabgen variant."""
    sys.path.insert(0, BENCH)
    try:
        import tabgen
    finally:
        sys.path.remove(BENCH)
    configs = {}
    for variant in range(tabgen.VARIANTS):
        written = tabgen.write_inputs(os.path.join(directory, f"tabgen-v{variant}"),
                                      tabgen.make_inputs(variant))
        for name, path in written.items():
            configs[f"tabgen-v{variant}/{name}"] = path
    return configs


def _large_cutoff_config(directory):
    """validate_default.cfg with omega_c = 1e8, written under directory; its path."""
    with open(os.path.join(CONFIGS, "validate_default.cfg")) as handle:
        body = handle.read()
    if "omega_c = 1.0\n" not in body:
        raise ValueError("validate_default.cfg no longer sets omega_c = 1.0")
    path = os.path.join(directory, "validate_default_1e8.cfg")
    with open(path, "w") as handle:
        handle.write(body.replace("omega_c = 1.0\n", "omega_c = 1e8\n"))
    return path


def _runs(directory):
    """(key, argv without --out) of every golden run."""
    configs = {name[:-4]: os.path.join(CONFIGS, name)
               for name in sorted(os.listdir(CONFIGS)) if name.endswith(".cfg")}
    runs = [(f"{command} {label}", [command, "--config", path])
            for label, path in configs.items() for command in ("moments", "simulate", "rates")]
    runs += [(f"scan {label}", ["scan", "--config", path])
             for label, path in configs.items() if label.startswith("fig7_")]
    # seed 145 fails the 4-sigma gate (exit 1), so a change to the Monte-Carlo
    # route is checked at a failing seed as well as at passing ones; omega_c = 1e8
    # checks that every floor, window and threshold scales with the cutoff
    validate = {"validate_default": configs["validate_default"],
                "validate_default_1e8": _large_cutoff_config(directory)}
    runs += [(f"validate {label} --seed {seed}", ["validate", "--config", path, "--seed", seed])
             for label, path in validate.items() for seed in ("1", "11", "145")]
    runs += [(f"{command} {label}", [command, "--config", path])
             for label, path in _tabgen_configs(directory).items()
             for command in ("moments", "simulate", "rates")]
    return runs


def run_all(directory) -> dict:
    """{key: {"exit": code, "files": {name: sha256}}} of every golden run, written under directory."""
    results = {}
    for i, (key, argv) in enumerate(_runs(directory)):
        out_dir = os.path.join(directory, f"run{i}")
        os.makedirs(out_dir)
        code = main([*argv, "--out", os.path.join(out_dir, "out.csv")])
        files = {}
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as handle:
                files[name] = hashlib.sha256(handle.read()).hexdigest()
        results[key] = {"exit": code, "files": files}
    return results


def differences(recorded: dict, current: dict) -> list:
    """One line per run or file whose exit code or bytes differ."""
    lines = []
    for key in sorted(recorded.keys() | current.keys()):
        old, new = recorded.get(key), current.get(key)
        if old is None or new is None:
            lines.append(f"{key}: {'new run' if old is None else 'run gone'}")
            continue
        if old["exit"] != new["exit"]:
            lines.append(f"{key}: exit {old['exit']} -> {new['exit']}")
        for name in sorted(old["files"].keys() | new["files"].keys()):
            if name not in new["files"]:
                lines.append(f"{key}: {name} no longer written")
            elif name not in old["files"]:
                lines.append(f"{key}: {name} newly written")
            elif old["files"][name] != new["files"][name]:
                lines.append(f"{key}: {name} differs")
    return lines


def record():
    with tempfile.TemporaryDirectory() as directory:
        runs = run_all(directory)
    previous = {"build": None, "runs": {}}
    if os.path.exists(GOLDEN):
        with open(GOLDEN) as handle:
            previous = json.load(handle)
    here = build()
    if previous["build"] not in (None, here):
        print(f"previous build: {previous['build']}")
    changed = differences(previous["runs"], runs)
    with open(GOLDEN, "w") as handle:
        json.dump({"build": here, "runs": runs}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("\n".join(changed) if changed else "no output changed")
    print(f"{len(runs)} runs, {sum(len(r['files']) for r in runs.values())} files on {here}")


if __name__ == "__main__":
    record()
