"""Benchmark of the `hamens` CLI: figure sweep, validation and tabulated tables.

Run from the repository root:

    python3 bench/run.py --workload figures --seed 1 --seconds 30 --trace 0

One client drives the CLI in a closed loop: one fresh CLI process at a time,
the next one started when the previous one has exited.  A run repeats whole
passes over the workload's operations while the next pass is expected to end
within --seconds (at least one pass), checks every output, and prints one
JSON object as its last line.  --trace 0 reports the end-to-end metrics;
--trace 1 pairs every operation with a traced twin (`trace_child.py`) and
reports the per-layer metrics.  See README.md for the metric map.

The end-to-end timings are scaled to a reference host speed: while the timed
processes run, a thread of this one times a small fixed piece of work
(HostMeter), and every timing of the run is multiplied by METER_REF_S / (median
of those times).  Both the raw and the scaled figures are printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from importlib import metadata

import numpy as np

import check
import tabgen
import tracer
from oracle import TabulatedOracle

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
CONFIGS = os.path.join(ROOT, "configs")
WORK = os.path.join(BENCH, "_work")
REFS = os.path.join(BENCH, "ref")

WORKLOADS = ("figures", "validate", "tabulated")
SETUP_SAMPLES = 5
# the host meter times meter_work() every METER_PERIOD_S; METER_REF_S, its median on the
# 2-core host the benchmark was written on, defines the reference host speed
METER_PERIOD_S = 0.02
METER_REF_S = 0.00115
IMPORTTIME_SAMPLES = 3
OP_TIMEOUT_S = 150.0
CLI = "from hamens.cli import run; run()"

# one config per figure; fig1 is the long window (4001 rows)
FIGURE_CONFIGS = ("fig1_sphere_reciprocal-square_long", "fig2_bagel_gaussian",
                  "fig3_bagel_purity_theta0_quarterpi", "fig4_dumbbell_exp-cutoff",
                  "fig5_dumbbell_purity_theta0_halfpi", "fig6_cardioid_reciprocal-square")
SCAN_CONFIGS = ("fig7_kneaded_exp-cutoff", "fig7_kneaded_gaussian", "fig7_kneaded_reciprocal-square")
# one config per built-in angular kind
MOMENT_CONFIGS = ("fig1_sphere_gaussian", "fig2_bagel_exp-cutoff", "fig4_dumbbell_gaussian",
                  "fig6_cardioid_gaussian", "fig7_kneaded_gaussian")

# the built-in angular kinds the validation suites sample
ANGULAR_KINDS = ("sphere", "bagel", "dumbbell", "cardioid", "kneaded")

END_TO_END = {"setup_s": "s", "wall_s": "s", "rows_per_s": "rows/s", "peak_rss_mb": "MB"}


@dataclass
class Op:
    """One CLI invocation: `hamens <argv> --out <dir>/out.csv`, and how to check it."""

    name: str
    argv: list
    refs: dict | None = None          # file name -> reference check.Table
    oracle: object = None             # function(tables by file name) -> problems


@dataclass
class OpRun:
    op: Op
    traced: bool
    wall: float
    rss_mb: float
    rows: int
    problems: list = field(default_factory=list)
    spans: tuple | None = None        # (span summary, counters) of a traced run


_METER_VECTOR = np.arange(64.0)


def meter_work():
    """About a millisecond of the small-array and pure-Python work the CLI does."""
    x = 0.0
    for i in range(800):
        x += float(np.dot(_METER_VECTOR, _METER_VECTOR)) * 1e-9 + i * 0.5
    return x


class HostMeter:
    """Measures the speed of the shared host while the timed processes run.

    The host's speed drifts by tens of percent over minutes, and a process's
    CPU time follows its wall time, so the drift is not time spent waiting for
    a core.  While `busy` is set, a thread of the benchmark times meter_work()
    every METER_PERIOD_S on the core the CLI process leaves free (it is idle
    95 % of the time).  The run's timings are divided by the median sample.
    meter_work() uses no code of the repository, so a change to `hamens` does
    not move it.
    """

    def __init__(self):
        self.busy = threading.Event()     # set while a timed process runs
        self._samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def start(self):
        self._thread.start()

    def stop(self):
        self._stop.set()
        if self._thread.ident is not None:
            self._thread.join()

    def _sample(self):
        while not self._stop.wait(METER_PERIOD_S):
            if self.busy.is_set():
                began = time.perf_counter()
                meter_work()
                self._samples.append(time.perf_counter() - began)

    def samples(self):
        return list(self._samples)

    def scale(self):
        """Factor that turns this run's wall times into reference-host seconds."""
        if not self._samples:
            raise RuntimeError("the host meter took no samples")
        return METER_REF_S / statistics.median(self._samples)


class Runner:
    """Starts CLI processes one at a time and kills the live one on the way out."""

    def __init__(self, work, meter=None):
        self.work = work
        self.meter = meter
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        self._proc = None

    def close(self):
        proc = self._proc
        if proc is not None and proc.returncode is None:
            proc.kill()
            proc.wait()

    def spawn(self, cmd, stdout, stderr):
        """Run cmd to completion; returns (exit code, wall seconds, max RSS in MB)."""
        if self.meter is not None:
            self.meter.busy.set()
        start = time.perf_counter()
        self._proc = proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, env=self.env, cwd=ROOT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            if self.meter is not None:
                self.meter.busy.clear()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def python(self, args):
        """Time a short python process; returns (exit code, wall, stderr text)."""
        path = os.path.join(self.work, "python.err")
        with open(path, "w") as err:
            code, wall, _ = self.spawn([sys.executable, *args], subprocess.DEVNULL, err)
        with open(path) as err:
            return code, wall, err.read()

    def run_op(self, op, traced=False):
        out_dir = os.path.join(self.work, "op")
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        argv = [*op.argv, "--out", os.path.join(out_dir, "out.csv")]
        spans_path = os.path.join(self.work, "spans.npz")
        if traced:
            cmd = [sys.executable, os.path.join(BENCH, "trace_child.py"), spans_path, *argv]
        else:
            cmd = [sys.executable, "-c", CLI, *argv]
        stderr_path = os.path.join(self.work, "stderr.txt")
        with open(stderr_path, "w") as err:
            code, wall, rss = self.spawn(cmd, subprocess.DEVNULL, err)
        with open(stderr_path) as err:
            stderr = err.read()
        problems = check_output(op, out_dir, code, stderr)
        spans = None
        if traced and os.path.exists(spans_path):
            spans = tracer.span_summary(tracer.load_spans(spans_path))
            os.remove(spans_path)
        return OpRun(op, traced, wall, rss, check.data_rows(out_dir), problems, spans)


def check_output(op, out_dir, code, stderr):
    problems = []
    if "Traceback (most recent call last)" in stderr:
        problems.append("traceback: " + stderr.strip().splitlines()[-1])
    if code != 0:
        return problems + [f"exit code {code}"]
    try:
        produced = {name: check.Table.read(os.path.join(out_dir, name))
                    for name in sorted(os.listdir(out_dir)) if name.endswith(".csv")}
    except (OSError, ValueError) as err:
        return problems + [f"unreadable output: {err}"]
    if "out.csv" not in produced:
        return problems + ["no out.csv written"]
    if op.refs is not None:
        if sorted(produced) != sorted(op.refs):
            problems.append(f"output files {sorted(produced)} != reference {sorted(op.refs)}")
        for name in sorted(set(produced) & set(op.refs)):
            problems += check.compare_reference(f"{op.name}/{name}", produced[name], op.refs[name])
    if op.oracle is not None:
        try:
            problems += op.oracle(produced)
        except (IndexError, ValueError) as err:
            problems.append(f"output layout does not fit the oracle: {err!r}")
    return problems


# -- workloads -------------------------------------------------------------------

def _config(name):
    return os.path.join(CONFIGS, name + ".cfg")


def _refs_for(store, op_name):
    prefix = op_name + "|"
    return {key[len(prefix):]: table for key, table in store.items() if key.startswith(prefix)}


def figures_ops(seed, refs):
    ops = [Op(f"{cmd}:{cfg}", [cmd, "--config", _config(cfg)])
           for cfg in FIGURE_CONFIGS for cmd in ("simulate", "rates")]
    ops += [Op(f"scan:{cfg}", ["scan", "--config", _config(cfg)]) for cfg in SCAN_CONFIGS]
    ops += [Op(f"moments:{cfg}", ["moments", "--config", _config(cfg)]) for cfg in MOMENT_CONFIGS]
    for op in ops:
        op.refs = _refs_for(refs, op.name) if refs is not None else None
    order = np.random.default_rng(seed).permutation(len(ops))
    return [ops[i] for i in order], []


def validate_ops(seed, refs):
    del refs
    op = Op("validate:validate_default",
            ["validate", "--config", _config("validate_default"), "--seed", str(seed)],
            oracle=lambda out: check.check_validate(out["out.csv"]))
    return [op], []


def tabulated_ops(seed, refs):
    """The aligned-table operations, and the tilted probe (kept out of every timing)."""
    variant = seed % tabgen.VARIANTS
    inputs = tabgen.make_inputs(variant)
    configs = tabgen.write_inputs(os.path.join(WORK, "inputs"), inputs)
    aligned = TabulatedOracle(inputs["radial"], inputs["aligned"])
    tilted = TabulatedOracle(inputs["radial"], inputs["tilted"])
    if not aligned.aligned() or tilted.aligned():
        raise RuntimeError("generated tables are not in their intended symmetry classes")
    bloch = inputs["bloch"]

    def oracles(orc):
        return {"moments": lambda out: check.check_moments_oracle(out["out.csv"], orc),
                "simulate": lambda out: check.check_simulate_oracle(out["out.csv"], orc, bloch),
                "rates": lambda out: check.check_rates_oracle(out["out.csv"], orc)}

    main = oracles(aligned)
    ops = [Op(f"{cmd}:tabulated", [cmd, "--config", configs["tabulated"]], oracle=main[cmd])
           for cmd in ("moments", "simulate", "rates")]
    for op in ops:
        op.refs = _refs_for(refs, op.name) if refs is not None else None
    probe = oracles(tilted)
    probes = [Op(f"{cmd}:tilted-probe", [cmd, "--config", configs["probe"]], oracle=probe[cmd])
              for cmd in ("simulate", "rates")]
    order = np.random.default_rng(seed).permutation(len(ops))
    return [ops[i] for i in order], probes


WORKLOAD_OPS = {"figures": figures_ops, "validate": validate_ops, "tabulated": tabulated_ops}


def load_refs(workload, seed):
    if workload == "figures":
        return check.load_tables(os.path.join(REFS, "figures.npz"))
    if workload == "tabulated":
        return check.load_tables(os.path.join(REFS, f"tabulated_v{seed % tabgen.VARIANTS}.npz"))
    return None


# -- measurement -----------------------------------------------------------------

def run_passes(runner, ops, seconds, traced):
    """Whole passes while the next one is expected to fit in `seconds`; at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        runs = []
        for i, op in enumerate(ops):
            if not traced:
                runs.append(runner.run_op(op))
                continue
            # alternate which twin goes first
            pair = (False, True) if (len(passes) + i) % 2 == 0 else (True, False)
            runs += [runner.run_op(op, traced=t) for t in pair]
        passes.append(runs)
        now = time.perf_counter()
        if (now - start) + (now - began) > seconds:
            return passes


def setup_times(runner):
    walls = []
    for _ in range(SETUP_SAMPLES):
        code, wall, err = runner.python(["-c", "import hamens.cli"])
        if code != 0:
            raise RuntimeError(f"importing hamens.cli failed: {err.strip().splitlines()[-1:]}")
        walls.append(wall)
    return walls


def import_times(runner):
    """Cumulative -X importtime seconds of hamens, scipy.integrate, scipy.special."""
    wanted = {"hamens": [], "scipy.integrate": [], "scipy.special": []}
    for _ in range(IMPORTTIME_SAMPLES):
        _, _, err = runner.python(["-X", "importtime", "-c", "import hamens.cli"])
        for line in err.splitlines():
            parts = line[len("import time:"):].split("|") if line.startswith("import time:") else []
            if len(parts) == 3 and parts[2].strip() in wanted:
                try:
                    wanted[parts[2].strip()].append(int(parts[1]) * 1e-6)
                except ValueError:
                    continue
    return {name: statistics.median(vals) if vals else 0.0 for name, vals in wanted.items()}


def end_to_end_metrics(passes, setup, scale=1.0):
    """End-to-end metrics, with every wall time multiplied by `scale` (HostMeter.scale)."""
    runs = [r for p in passes for r in p]
    walls = defaultdict(list)
    for r in runs:
        walls[r.op.name].append(r.wall)
    return {
        "setup_s": statistics.median(setup) * scale,
        "wall_s": sum(statistics.median(v) for v in walls.values()) * scale,
        "rows_per_s": sum(r.rows for r in runs) / (sum(r.wall for r in runs) * scale),
        "peak_rss_mb": max(r.rss_mb for r in runs),
    }


PER_LAYER = {
    "import.hamens_s": "s", "import.scipy_integrate_s": "s", "import.scipy_special_s": "s",
    "config.load_config_s": "s", "ensemble.build_family_s": "s",
    "angular.moments_quadrature_s": "s", "quadrature.sphere_integral_calls": "count",
    "radial.expectation_calls": "count", "radial.expectation_s": "s",
    "quadrature.panel_integrate_calls": "count", "quadrature.panel_integrate_s": "s",
    "quadrature.errors": "count",
    "dynmap.trajectory_s": "s", "dynmap.points": "count",
    "generator.rate_trajectory_s": "s", "generator.extract_calls": "count",
    "generator.extract_s": "s", "generator.pole_window_frac": "ratio",
    "generator.pole_scan_calls": "count", "generator.pole_scan_s": "s",
    "generator.offdiagonal_rate_s": "s",
    "montecarlo.mc_average_calls": "count", "montecarlo.mc_average_s": "s",
    "montecarlo.samples": "count", "montecarlo.sample_radial_s": "s",
    **{f"montecarlo.sample_angular.{kind}_s": "s" for kind in ANGULAR_KINDS},
    "montecarlo.evolve_s": "s",
    "propagation.integrate_master_s": "s", "propagation.generator_evals": "count",
    "validation.radial_quadrature_s": "s", "validation.mc_vs_map_s": "s",
    "validation.extraction_s": "s", "validation.roundtrip_s": "s",
    "cli.self_s": "s", "cli.rows": "count",
    "trace.overhead_frac": "ratio", "probe.failed_ops": "count",
}

# per-layer metric -> (span name, field of the span summary)
_SPAN_METRICS = {
    "config.load_config_s": ("config.load_config", "s"),
    "ensemble.build_family_s": ("ensemble.build_family", "s"),
    "angular.moments_quadrature_s": ("angular.moments_quadrature", "s"),
    "quadrature.sphere_integral_calls": ("quadrature.sphere_integral", "calls"),
    "radial.expectation_s": ("radial.expectation", "s"),
    "quadrature.panel_integrate_calls": ("quadrature.panel_integrate", "calls"),
    "quadrature.panel_integrate_s": ("quadrature.panel_integrate", "s"),
    "dynmap.trajectory_s": ("dynmap.trajectory", "s"),
    "generator.rate_trajectory_s": ("generator.rate_trajectory", "s"),
    "generator.extract_calls": ("generator.extract", "calls"),
    "generator.extract_s": ("generator.extract", "s"),
    "generator.pole_scan_calls": ("generator.pole_scan", "calls"),
    "generator.pole_scan_s": ("generator.pole_scan", "s"),
    "generator.offdiagonal_rate_s": ("generator.offdiagonal_rate", "s"),
    "montecarlo.mc_average_calls": ("montecarlo.mc_average", "calls"),
    "montecarlo.mc_average_s": ("montecarlo.mc_average", "s"),
    "montecarlo.sample_radial_s": ("montecarlo.sample_radial", "s"),
    "montecarlo.evolve_s": ("montecarlo.mc_average", "self_s"),
    "propagation.integrate_master_s": ("propagation.integrate_master", "s"),
    "validation.radial_quadrature_s": ("validation.radial_quadrature", "s"),
    "validation.mc_vs_map_s": ("validation.mc_vs_map", "s"),
    "validation.extraction_s": ("validation.extraction", "s"),
    "validation.roundtrip_s": ("validation.roundtrip", "s"),
    "cli.self_s": (tracer.ROOT_SPAN, "self_s"),
    **{f"montecarlo.sample_angular.{kind}_s": (f"montecarlo.sample_angular.{kind}", "s")
       for kind in ANGULAR_KINDS},
}
_COUNT_METRICS = ("radial.expectation_calls", "dynmap.points", "montecarlo.samples",
                  "propagation.generator_evals")


def layer_metrics(traced_runs):
    """Per-layer metrics of one pass of traced operations."""
    spans = defaultdict(Counter)
    counts = Counter()
    for run in traced_runs:
        if run.spans is None:
            continue
        summary, counters = run.spans
        for name, fields in summary.items():
            spans[name].update(fields)
        counts.update(counters)
    out = {metric: float(spans[name][key]) for metric, (name, key) in _SPAN_METRICS.items()}
    out.update({metric: float(counts[metric]) for metric in _COUNT_METRICS})
    out["quadrature.errors"] = float(sum(
        v for k, v in counts.items()
        if k.startswith("quadrature.") and k.endswith(".raised.QuadratureError")))
    attempts = spans["generator.extract"]["calls"]
    poles = counts["generator.extract.raised.PoleError"]
    out["generator.pole_window_frac"] = poles / attempts if attempts else 0.0
    out["cli.rows"] = float(sum(r.rows for r in traced_runs))
    return out


def per_layer_metrics(passes, imports, probe_failed):
    per_pass = [layer_metrics([r for r in p if r.traced]) for p in passes]
    out = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    out["import.hamens_s"] = imports["hamens"]
    out["import.scipy_integrate_s"] = imports["scipy.integrate"]
    out["import.scipy_special_s"] = imports["scipy.special"]
    runs = [r for p in passes for r in p]
    traced = sum(r.wall for r in runs if r.traced)
    plain = sum(r.wall for r in runs if not r.traced)
    out["trace.overhead_frac"] = traced / plain - 1.0
    out["probe.failed_ops"] = float(probe_failed)
    return out


# -- report ----------------------------------------------------------------------

def environment_line():
    return (f"# env: python {platform.python_version()}, numpy {np.__version__}, "
            f"scipy {metadata.version('scipy')}, nproc {os.cpu_count()}")


def print_report(workload, seed, passes, setup, meter, probe_runs, metrics, units):
    runs = [r for p in passes for r in p]
    print(f"# workload {workload}, seed {seed}: {len(passes)} pass(es), {len(runs)} CLI processes, "
          f"one at a time")
    print(environment_line())
    print(f"# setup_s samples (n={len(setup)}): " + " ".join(f"{s:.4f}" for s in setup))
    if meter is not None:
        samples = meter.samples()
        print(f"# host meter (n={len(samples)}): median {statistics.median(samples):.7f} s, "
              f"reference {METER_REF_S} s, scale {meter.scale():.4f}")
        raw = end_to_end_metrics(passes, setup)
        print("# unscaled: " + ", ".join(f"{name} {raw[name]:.4f}"
                                        for name in ("setup_s", "wall_s", "rows_per_s")))
    by_cmd = defaultdict(list)
    for r in runs:
        by_cmd[(r.op.name.split(":")[0], r.traced)].append(r.wall)
    for (cmd, traced), walls in sorted(by_cmd.items()):
        label = f"{cmd}_s{' (traced)' if traced else ''}"
        print(f"# {label}: median {statistics.median(walls):.4f} s, max {max(walls):.4f} s "
              f"(n={len(walls)})")
    for r in runs:
        for problem in r.problems:
            print(f"# FAIL {r.op.name}{' (traced)' if r.traced else ''}: {problem}")
    for r in probe_runs:
        status = "ok" if not r.problems else "FAIL: " + "; ".join(r.problems)
        print(f"# probe {r.op.name} (not timed, not in attempted/failed): {status}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (os.path.isfile(os.path.join(SRC, "hamens", "cli.py")) and os.path.isdir(CONFIGS)):
        print(f"error: no hamens sources under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    meter = None if args.trace else HostMeter()
    runner = Runner(WORK, meter)
    try:
        refs = load_refs(args.workload, args.seed)
        ops, probes = WORKLOAD_OPS[args.workload](args.seed, refs)
        probe_runs = [runner.run_op(op) for op in probes]
        if meter is not None:   # the probe is not timed, so the meter starts after it
            meter.start()
        setup = setup_times(runner)
        passes = run_passes(runner, ops, args.seconds, traced=bool(args.trace))
        if args.trace:
            imports = import_times(runner)
            metrics = per_layer_metrics(passes, imports, sum(1 for r in probe_runs if r.problems))
            units = PER_LAYER
        else:
            metrics = end_to_end_metrics(passes, setup, meter.scale())
            units = END_TO_END
    finally:
        runner.close()
        if meter is not None:
            meter.stop()
    print_report(args.workload, args.seed, passes, setup, meter, probe_runs, metrics, units)
    runs = [r for p in passes for r in p]
    failed = sum(1 for r in runs if r.problems)
    result = {"correct": failed == 0, "attempted": len(runs), "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
