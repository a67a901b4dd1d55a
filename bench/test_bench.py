"""Tests of the benchmark itself (not of hamens).

Run from the repository root:  python3 -m pytest -q bench
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import check
import oracle
import run
import tabgen
import tracer

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def write_csv(path, table):
    lines = [",".join(table.header)]
    for i, row in enumerate(table.data):
        cells = [format(float(v), ".17g") for v in row]
        lines.append(",".join(([table.labels[i]] if table.labels else []) + cells))
    path.write_text("\n".join(lines + table.comments) + "\n")


@pytest.fixture(scope="module")
def rates_ref():
    refs = check.load_tables(os.path.join(run.REFS, "figures.npz"))
    return refs["rates:fig2_bagel_gaussian|out.csv"]


def test_checker_accepts_the_reference_itself(tmp_path, rates_ref):
    write_csv(tmp_path / "out.csv", rates_ref)
    table = check.Table.read(tmp_path / "out.csv")
    assert check.compare_reference("rates", table, rates_ref) == []


def test_checker_flags_a_perturbed_value(tmp_path, rates_ref):
    write_csv(tmp_path / "out.csv", rates_ref)
    table = check.Table.read(tmp_path / "out.csv")
    row = int(np.nonzero(np.isfinite(table.data[:, 2]))[0][100])
    table.data[row, 2] *= 1.0 + 1e-5
    problems = check.compare_reference("rates", table, rates_ref)
    assert len(problems) == 1 and "gamma_x" in problems[0]


def test_checker_flags_nan_positions_and_poles(tmp_path, rates_ref):
    write_csv(tmp_path / "out.csv", rates_ref)
    table = check.Table.read(tmp_path / "out.csv")
    table.data[5, 3] = math.nan
    table.comments = ["# poles: none"]
    problems = check.compare_reference("rates", table, rates_ref)
    assert any("NaN positions" in p for p in problems)
    assert any("poles" in p for p in problems)


def check_problems(op, out_dir, code, stderr):
    return run.check_output(op, str(out_dir), code, stderr)


def test_checker_flags_nonzero_exit_and_traceback(tmp_path):
    op = run.Op("simulate:x", ["simulate"])
    assert check_problems(op, tmp_path, 1, "") == ["exit code 1"]
    problems = check_problems(op, tmp_path, 1, "Traceback (most recent call last):\nValueError: x\n")
    assert problems == ["traceback: ValueError: x", "exit code 1"]




def test_checker_flags_missing_output_and_foreign_layout(tmp_path):
    op = run.validate_ops(7, None)[0][0]
    assert check_problems(op, tmp_path, 0, "") == ["no out.csv written"]
    (tmp_path / "out.csv").write_text("check,metric,threshold,passed\na,1,2,1\n")
    problems = check_problems(op, tmp_path, 0, "")
    assert len(problems) == 1 and problems[0].startswith("output layout")


def test_checker_flags_a_failed_validate_row(tmp_path):
    (tmp_path / "out.csv").write_text("check,metric,threshold,pass\na,1,2,1\nb,3,2,0\n")
    op = run.validate_ops(7, None)[0][0]
    assert check_problems(op, tmp_path, 0, "") == ["validate: check b failed"]


def test_generator_is_deterministic(tmp_path):
    first = tabgen.make_inputs(1)
    again = tabgen.make_inputs(1)
    for key in ("radial", "aligned", "tilted"):
        for a, b in zip(first[key], again[key]):
            assert np.array_equal(a, b)
    tabgen.write_inputs(tmp_path / "a", first)
    tabgen.write_inputs(tmp_path / "b", again)
    for name in sorted(os.listdir(tmp_path / "a")):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    other = tabgen.make_inputs(2)
    assert not np.array_equal(first["radial"][1], other["radial"][1])


def test_generated_tables_are_normalized_and_in_their_symmetry_classes():
    inputs = tabgen.make_inputs(0)
    omega, density = inputs["radial"]
    assert tabgen.radial_mass(omega, density) == pytest.approx(1.0, abs=1e-14)
    aligned = oracle.TabulatedOracle(inputs["radial"], inputs["aligned"])
    tilted = oracle.TabulatedOracle(inputs["radial"], inputs["tilted"])
    assert aligned.xi == pytest.approx(1.0, abs=1e-14) and aligned.aligned()
    assert tilted.xi == pytest.approx(1.0, abs=1e-14) and not tilted.aligned()
    assert abs(tilted.second[0, 1]) > 1e-3 and np.hypot(*tilted.first[:2]) > 1e-3


def test_oracle_matches_closed_forms():
    # constant angular density: xi = 1, S = I/3
    theta, phi = np.linspace(0, math.pi, 9), np.linspace(0, 2 * math.pi, 9)
    xi, first, second = oracle.angular_moments(theta, phi, np.full((9, 9), 1 / (4 * math.pi)))
    assert xi == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(first, 0.0, atol=1e-15) and np.allclose(second, np.eye(3) / 3, atol=1e-14)
    # P = 3 on [0, 1]: <cos wt> = 3 (t^2 sin t + 2 t cos t - 2 sin t) / t^3
    t = np.array([0.5, 2.0, 7.0])
    c, s, dc, ds = oracle.radial_expectations(np.array([0.0, 0.5, 1.0]), np.full(3, 3.0), t)
    exact = 3 * (t * t * np.sin(t) + 2 * t * np.cos(t) - 2 * np.sin(t)) / t ** 3
    assert np.allclose(c, exact, rtol=0, atol=1e-14)
    h = 1e-6
    c_plus = oracle.radial_expectations(np.array([0.0, 0.5, 1.0]), np.full(3, 3.0), t + h)[0]
    assert np.allclose(dc, (c_plus - c) / h, atol=1e-5)


def test_tracer_self_time_and_reentrancy(tmp_path):
    tr = tracer.Tracer()
    inner = tr.wrap("inner", lambda: sum(range(1000)))

    def recursive(n):
        return inner() if n == 0 else wrapped(n - 1)
    wrapped = tr.wrap("outer", recursive)
    tr.call("root", wrapped, 3)
    path = tmp_path / "spans.npz"
    tr.dump(path)
    summary, _ = tracer.span_summary(tracer.load_spans(path))
    assert {k: v["calls"] for k, v in summary.items()} == {"root": 1, "outer": 1, "inner": 1}
    for name in summary:
        assert 0.0 <= summary[name]["self_s"] <= summary[name]["s"]
    assert summary["root"]["s"] == pytest.approx(
        summary["root"]["self_s"] + summary["outer"]["s"], abs=1e-12)


def test_traced_child_wraps_every_importer(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[radial]\nkind = gaussian\n[angular]\nkind = kneaded\na = 0.3\n"
                   "[grid]\nt_max = 4\nn_points = 41\n[scan]\nparameter = a\nvalues = 0.2\n")
    spans = tmp_path / "spans.npz"
    env = dict(os.environ, PYTHONPATH=run.SRC)
    proc = subprocess.run([sys.executable, os.path.join(run.BENCH, "trace_child.py"), str(spans),
                           "scan", "--config", str(cfg), "--out", str(tmp_path / "out.csv")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    summary, counts = tracer.span_summary(tracer.load_spans(spans))
    for name in ("cli.main", "config.load_config", "ensemble.build_family",
                 "generator.rate_trajectory", "generator.extract", "generator.pole_scan",
                 "generator.offdiagonal_rate", "radial.expectation", "quadrature.sphere_integral"):
        assert summary[name]["calls"] >= 1, name
    # pole_scan is called from cli (scan summary) and from generator (rate_trajectory)
    assert summary["generator.pole_scan"]["calls"] == 2
    assert summary["generator.extract"]["calls"] == 41
    assert counts["radial.expectation_calls"] > 0


def test_metric_names_match_benchmark_json():
    with open(BENCHMARK_JSON) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    fake = run.OpRun(run.Op("x:y", []), True, 1.0, 50.0, 3, [], ({}, {}))
    plain = run.OpRun(run.Op("x:y", []), False, 1.0, 50.0, 3, [], None)
    layers = run.per_layer_metrics([[plain, fake]], {"hamens": 0.5, "scipy.integrate": 0.1,
                                                     "scipy.special": 0.1}, 0)
    assert set(layers) == set(run.PER_LAYER)
    assert set(run.end_to_end_metrics([[plain]], [0.8])) == set(run.END_TO_END)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "figures", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
