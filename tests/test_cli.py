"""Command-line interface: output formats, exit codes, byte stability."""

import csv
import json
import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from hamens import (DensityMatrix, IntegrationError, PoleError, QuadratureError, TabulatedAngular,
                    load_angular_table, load_radial_table, pole_scan)
from hamens.cli import main
from hamens.config import ConfigError, load_config, parse_angle
from hamens.validation import THRESHOLDS, builtin_families, check_roundtrip

from conftest import TABLES_WITH_X, d_denominator, scan_file_maxima, sign_change_roots


def write_config(tmp_path, body, name="run.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


SPHERE_CFG = """
[radial]
kind = gaussian
omega_c = 1.0

[angular]
kind = sphere

[state]
theta0 = 0

[grid]
t_max = 10
n_points = 201
"""


def read_csv(path):
    with open(path, newline="") as handle:
        rows = [r for r in csv.reader(handle) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


def read_comments(path):
    with open(path) as handle:
        return [line.strip() for line in handle if line.startswith("#")]


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_moments_sphere(tmp_path, capsys):
    cfg = write_config(tmp_path, SPHERE_CFG)
    assert main(["moments", "--config", cfg]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    table = {row.split(",")[0]: row.split(",")[1:] for row in lines[1:]}
    for name in ("second_xx", "second_yy", "second_zz"):
        analytic, quad, diff = (float(v) for v in table[name])
        assert analytic == pytest.approx(1 / 3)
        assert diff < 1e-10
    for name in ("first_x", "first_y", "first_z", "second_xy", "second_xz", "second_yz"):
        assert float(table[name][2]) < 1e-10


def test_moments_dumbbell_and_kneaded(tmp_path, capsys):
    cfg = write_config(tmp_path, SPHERE_CFG.replace("kind = sphere", "kind = dumbbell"))
    main(["moments", "--config", cfg])
    lines = capsys.readouterr().out.strip().splitlines()
    table = {row.split(",")[0]: float(row.split(",")[1]) for row in lines[1:]}
    assert (table["second_xx"], table["second_yy"], table["second_zz"]) == (0.2, 0.2, 0.6)

    cfg = write_config(tmp_path, SPHERE_CFG.replace("kind = sphere", "kind = kneaded\na = 0.3"))
    main(["moments", "--config", cfg])
    lines = capsys.readouterr().out.strip().splitlines()
    table = {row.split(",")[0]: float(row.split(",")[1]) for row in lines[1:]}
    assert table["first_z"] == pytest.approx(-1 / 3)
    assert table["second_xx"] == pytest.approx(2.3 / 6)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_sphere_purity_saturation(tmp_path):
    cfg = write_config(tmp_path, SPHERE_CFG)
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["t", "wc_t", "r_x", "r_y", "r_z", "purity"]
    assert float(rows[0][5]) == 1.0
    assert abs(float(rows[-1][5]) - 5.0 / 9.0) < 1e-3


def test_simulate_output_is_byte_stable(tmp_path):
    cfg = write_config(tmp_path, SPHERE_CFG)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["simulate", "--config", cfg, "--out", str(out1)])
    main(["simulate", "--config", cfg, "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()
    assert b"\r" not in out1.read_bytes()


def test_simulate_uses_17_significant_digits(tmp_path):
    cfg = write_config(tmp_path, SPHERE_CFG)
    out = tmp_path / "sim.csv"
    main(["simulate", "--config", cfg, "--out", str(out)])
    _, rows = read_csv(out)
    assert rows[-1][4] == "0.33333333333333331"


def test_csv_rows_write_every_cell_as_fmt_does():
    from hamens.cli import _fmt, _rows

    values = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e16, 5e-324, -1.7976931348623157e308,
                       1.0 / 3.0, 2.5, -1e-17, 123456789.123456789])
    values = np.concatenate([values, np.random.default_rng(5).standard_normal(12) * 1e3])
    flags = np.arange(values.size) % 2
    rows = _rows(values, values[::-1], flags)
    assert rows == [",".join(map(_fmt, cells)) for cells in zip(values, values[::-1], flags)]
    firsts = [row.split(",")[0] for row in rows[1:6]]
    assert firsts == ["-0", "nan", "inf", "-inf", "10000000000000000"]
    assert rows[1].endswith(",1") and rows[2].endswith(",0")


def test_simulate_bagel_purity_touches_half(tmp_path):
    body = SPHERE_CFG.replace("kind = sphere", "kind = bagel").replace(
        "t_max = 10", "t_max = 3").replace("n_points = 201", "n_points = 1501")
    cfg = write_config(tmp_path, body)
    out = tmp_path / "sim.csv"
    main(["simulate", "--config", cfg, "--out", str(out)])
    _, rows = read_csv(out)
    purity = np.array([float(r[5]) for r in rows])
    # the two f_z roots pull the purity to 1/2 exactly (grid comes close)
    minima = np.sort(purity)[:4]
    assert np.all(minima < 0.5 + 1e-5)


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------

def test_rates_sphere_columns_equal_with_sign_change(tmp_path):
    cfg = write_config(tmp_path, SPHERE_CFG)
    out = tmp_path / "rates.csv"
    assert main(["rates", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header[:9] == ["t", "wc_t", "gamma_x", "gamma_y", "gamma_z", "gamma_xy",
                          "omega_bar", "kossakowski_min", "pole_flag"]
    gx = np.array([float(r[2]) for r in rows[1:]])
    gz = np.array([float(r[4]) for r in rows[1:]])
    assert np.allclose(gx, gz, atol=1e-10)
    assert gx.max() > 0 and gx.min() < 0
    assert read_comments(out) == ["# poles: none"]


def test_rates_kneaded_zero_asymmetry_has_no_xy_channel(tmp_path):
    body = SPHERE_CFG.replace("kind = sphere", "kind = kneaded\na = 0.0")
    cfg = write_config(tmp_path, body)
    out = tmp_path / "rates.csv"
    main(["rates", "--config", cfg, "--out", str(out)])
    _, rows = read_csv(out)
    gxy = np.array([float(r[5]) for r in rows])
    assert np.isfinite(gxy).any() and np.all(gxy[np.isfinite(gxy)] == 0.0)


def test_rates_kneaded_gaussian_pole_flags(tmp_path):
    body = SPHERE_CFG.replace("kind = sphere", "kind = kneaded\na = 0.3").replace(
        "t_max = 10", "t_max = 4")
    cfg = write_config(tmp_path, body)
    out = tmp_path / "rates.csv"
    main(["rates", "--config", cfg, "--out", str(out)])
    _, rows = read_csv(out)
    flags = np.array([int(r[8]) for r in rows])
    assert flags.sum() >= 2
    comments = read_comments(out)
    assert len(comments) == 1 and comments[0].startswith("# poles: ")
    assert len(comments[0].split()[2:]) == 2


def test_simulate_and_rates_on_tilted_table(tmp_path, tilted_table):
    from hamens.dynmap import map_matrices
    from hamens.generator import POLE_THRESHOLD
    th, ph = np.meshgrid(tilted_table.theta, tilted_table.phi, indexing="ij")
    rows = zip(th.ravel(), ph.ravel(), tilted_table.values.ravel())
    (tmp_path / "tilted.csv").write_text(
        "theta,phi,Theta\n" + "".join(f"{a:.17g},{b:.17g},{v:.17g}\n" for a, b, v in rows))
    body = SPHERE_CFG.replace("kind = sphere", "kind = tabulated\ntable = tilted.csv").replace(
        "theta0 = 0", "bloch = 0.3 -0.5 0.6").replace("t_max = 10", "t_max = 4")
    cfg = write_config(tmp_path, body)
    run = load_config(cfg)
    fam = run.family
    regular = np.array([abs(np.linalg.det(map_matrices(fam, t))) >= POLE_THRESHOLD
                        for t in run.grid])
    for command in ("simulate", "rates"):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_csv(out)
        values = np.array([[float(v) for v in row] for row in rows])
        assert values.shape[0] == 201
        assert np.all(np.isfinite(values[regular]))


@pytest.mark.parametrize("table, entry", [("radial", "nan"), ("angular", "inf")])
def test_non_finite_table_entry_exits_2_with_one_line(tmp_path, capsys, table, entry):
    # float() reads nan and inf; a NaN P used to pass every table check and
    # give all-NaN rows with exit 0
    (tmp_path / "table.csv").write_text(TABLES_WITH_X[table].replace("X", entry))
    kind = "kind = gaussian" if table == "radial" else "kind = sphere"
    cfg = write_config(tmp_path, SPHERE_CFG.replace(kind, "kind = tabulated\ntable = table.csv"))
    out = tmp_path / "out.csv"
    for command in ("simulate", "validate"):
        assert main([command, "--config", cfg, "--out", str(out)]) == 2, command
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0] == f"error: {table} table: {table} table entries must be finite"
        assert captured.out == ""
        assert not out.exists()


@pytest.mark.parametrize("command", ["moments", "simulate", "rates", "validate", "scan"])
@pytest.mark.parametrize("table", ["radial", "angular"])
def test_missing_table_exits_2_with_one_line(tmp_path, capsys, table, command):
    # validate, which runs on the built-in families, used to exit 0 here and
    # write its CSV, because it never built the config's ensemble
    kind = "kind = gaussian" if table == "radial" else "kind = sphere"
    cfg = write_config(tmp_path, SPHERE_CFG.replace(kind, "kind = tabulated\ntable = missing.csv"))
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {table} table: ")
    assert "missing.csv" in err[0]
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_scan_reads_its_radial_table_once(tmp_path, monkeypatch):
    # scan pairs the one radial model built at load with each value's
    # angular model; it used to read the table again for every value
    import hamens.config as config
    calls = []

    def counted(path):
        calls.append(path)
        return load_radial_table(path)

    monkeypatch.setattr(config, "load_radial_table", counted)
    (tmp_path / "radial.csv").write_text("omega,P\n0,3\n1,3\n")
    body = SCAN_CFG.replace("kind = gaussian", "kind = tabulated\ntable = radial.csv").replace(
        "n_points = 401", "n_points = 21")
    cfg = write_config(tmp_path, body)
    assert main(["scan", "--config", cfg, "--out", str(tmp_path / "scan.csv")]) == 0
    _, rows = read_csv(tmp_path / "scan.csv")
    assert [row[0] for row in rows] == ["0", "0.10000000000000001", "0.29999999999999999"]
    assert calls == [str(tmp_path / "radial.csv")]


@pytest.mark.parametrize("command", ["moments", "simulate", "rates", "validate"])
def test_zero_mass_angular_table_exits_2_with_one_line(tmp_path, capsys, command):
    # moments used to print a zero quadrature column and NaN abs_diff with
    # exit 0, while the other commands refused the same table
    grid = [(th, ph) for th in (0.0, math.pi) for ph in (0.0, 2 * math.pi)]
    (tmp_path / "table.csv").write_text(
        "theta,phi,Theta\n" + "".join(f"{th!r},{ph!r},0\n" for th, ph in grid))
    cfg = write_config(tmp_path, SPHERE_CFG.replace("kind = sphere", "kind = tabulated\ntable = table.csv"))
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == [
        "error: angular table: angular table density must have positive mass"]
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["moments", "simulate", "rates", "validate"])
def test_split_table_pair_exits_2_with_one_line(tmp_path, capsys, command):
    # radial mass 0.5 times angular mass 2 is 1, but each factor must have
    # unit mass, in every command that builds the family; this pair used to
    # run with a UserWarning and exit 0 (moments: without the warning)
    (tmp_path / "radial.csv").write_text("omega,P\n0,1.5\n1,1.5\n")
    grid = [(th, ph) for th in (0.0, math.pi) for ph in (0.0, 2 * math.pi)]
    (tmp_path / "angular.csv").write_text(
        "theta,phi,Theta\n" + "".join(f"{th!r},{ph!r},{1 / (2 * math.pi)!r}\n" for th, ph in grid))
    body = SPHERE_CFG.replace("kind = gaussian", "kind = tabulated\ntable = radial.csv").replace(
        "kind = sphere", "kind = tabulated\ntable = angular.csv")
    cfg = write_config(tmp_path, body)
    radial_mass = load_radial_table(tmp_path / "radial.csv").mass()
    angular_mass = load_angular_table(tmp_path / "angular.csv").mass()
    assert radial_mass == pytest.approx(0.5, abs=1e-15)
    assert angular_mass == pytest.approx(2.0, abs=1e-15)
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == [f"error: radial mass must be 1, got {radial_mass!r}"]
    assert captured.out == ""
    assert not out.exists()


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_passes_and_scales_with_noise(tmp_path, capsys):
    cfg = write_config(tmp_path, SPHERE_CFG + "\n[mc]\nseed = 9\nsamples = 2000\n")
    rc = main(["validate", "--config", cfg])
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert lines[0] == "check,metric,threshold,pass"
    assert len(lines) == 5
    assert all(line.rsplit(",", 1)[1] == "1" for line in lines[1:])


def test_validate_catches_injected_sign_error(tmp_path, capsys, monkeypatch):
    from hamens.radial import GaussianRadial as GR
    original = GR.expectations

    def flipped_sin(self, t, derivative=False):
        c, s, *rest = original(self, t, derivative)
        return (c, -s, *rest)

    monkeypatch.setattr(GR, "expectations", flipped_sin)
    cfg = write_config(tmp_path, SPHERE_CFG + "\n[mc]\nseed = 9\nsamples = 20000\n")
    rc = main(["validate", "--config", cfg])
    capsys.readouterr()
    assert rc == 1


def validate_rows(text):
    return {row.split(",")[0]: row.split(",")[1:] for row in text.strip().splitlines()[1:]}


def _flip_level_spacing(monkeypatch):
    import hamens.generator as generator
    split = generator._split

    def flipped(dm, inv):
        h, k = split(dm, inv)
        return -h, k

    monkeypatch.setattr(generator, "_split", flipped)


def test_round_trip_catches_flipped_level_spacing(capsys, monkeypatch):
    # the round trip integrates the batched split that rates and scan use,
    # so a sign error in its level spacing fails validate
    _flip_level_spacing(monkeypatch)
    cfg = os.path.join(os.path.dirname(__file__), "..", "configs", "validate_default.cfg")
    assert main(["validate", "--config", cfg, "--samples", "2000"]) == 1
    rows = validate_rows(capsys.readouterr().out)
    assert rows["integrator-roundtrip-trace-distance"][2] == "0"


def validate_default_at(tmp_path, omega_c):
    """validate_default.cfg with its cutoff frequency replaced."""
    body = open(os.path.join(os.path.dirname(__file__), "..", "configs",
                             "validate_default.cfg")).read()
    assert "omega_c = 1.0\n" in body
    return write_config(tmp_path, body.replace("omega_c = 1.0\n", f"omega_c = {omega_c}\n"))


def test_validate_at_large_cutoff_passes(tmp_path, capsys):
    # check_extraction compares rates in units of omega_c, so a relative
    # error of 3e-15 at omega_c = 1e8 no longer reads as 3e-7 against 1e-8
    cfg = validate_default_at(tmp_path, "1e8")
    assert main(["validate", "--config", cfg, "--samples", "2000"]) == 0
    rows = validate_rows(capsys.readouterr().out)
    assert len(rows) == 4 and all(row[2] == "1" for row in rows.values())


def _nan_at_one_regular_point(monkeypatch):
    # check_extraction evaluates the closed form only where the split is
    # regular, so every time it passes is a regular point
    import hamens.validation as validation
    closed_form = validation.aligned_generator

    def patched(fam, t):
        h, k = closed_form(fam, t)
        k = np.array(k)
        k[k.shape[0] // 2, 0, 0] = np.nan
        return h, k

    monkeypatch.setattr(validation, "aligned_generator", patched)


def _swap_gamma_xy(monkeypatch):
    # every kind but kneaded has gamma_x = gamma_y, so only a check of all
    # of K (or the round trip) sees the swap
    import hamens.generator as generator
    split = generator._split

    def swapped(dm, inv):
        h, k = split(dm, inv)
        k = k.copy()
        k[..., [0, 1], [0, 1]] = k[..., [1, 0], [1, 0]]
        return h, k

    monkeypatch.setattr(generator, "_split", swapped)


@pytest.mark.parametrize("mutation, omega_c", [(_flip_level_spacing, "1.0"),
                                               (_flip_level_spacing, "1e8"),
                                               (_nan_at_one_regular_point, "1.0"),
                                               (_swap_gamma_xy, "1.0")],
                         ids=["flipped-h", "flipped-h-large-cutoff", "nan-closed-form",
                              "swapped-gamma-xy"])
def test_extraction_check_catches_mutations(tmp_path, capsys, monkeypatch, mutation, omega_c):
    mutation(monkeypatch)
    cfg = validate_default_at(tmp_path, omega_c)
    assert main(["validate", "--config", cfg, "--samples", "2000"]) == 1
    metric, _, passed = validate_rows(capsys.readouterr().out)["extraction-vs-closed-forms"]
    assert passed == "0"
    assert (metric == "nan") == (mutation is _nan_at_one_regular_point)


def test_undetected_pole_exits_2_with_one_line(capsys, monkeypatch):
    # a pole the scan misses sends the round trip into the pole window
    import hamens.validation as validation
    monkeypatch.setattr(validation, "pole_scan", lambda fam, window: [])
    cfg = os.path.join(os.path.dirname(__file__), "..", "configs", "validate_default.cfg")
    assert main(["validate", "--config", cfg, "--samples", "2000"]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: stepped into a pole window at t=")
    assert captured.out == ""


def test_validate_scans_each_family_once(capsys, monkeypatch):
    # the extraction and round-trip checks share one scan per family
    import hamens.validation as validation
    scan, windows = validation.pole_scan, []

    def counted(fam, window):
        windows.append(window)
        return scan(fam, window)

    monkeypatch.setattr(validation, "pole_scan", counted)
    cfg = os.path.join(os.path.dirname(__file__), "..", "configs", "validate_default.cfg")
    assert main(["validate", "--config", cfg, "--samples", "2000"]) == 0
    capsys.readouterr()
    assert windows == [(1e-9, 6.0)] * 15


# validate_default.cfg at two seeds, recorded from samplers that took libm cos
# and sin of the drawn angles; seed 145 fails the 4-sigma gate by chance
# (see check_mc_vs_map)
PINNED_VALIDATE = """check,metric,threshold,pass
radial-closed-form-vs-quadrature,{radial},1.0000000000000001e-09,1
mc-vs-map-stderr-units,{mc},4,{passed}
extraction-vs-closed-forms,{extraction},1e-08,1
integrator-roundtrip-trace-distance,{roundtrip},9.9999999999999995e-07,1
"""
#: the radial, extraction and round-trip cells at each cutoff frequency
PINNED_CELLS = {"1.0": ("4.4408920985006262e-15", "2.2204460492503131e-15",
                        "8.7694003603086982e-16"),
                "1e8": ("4.1078251911130792e-15", "2.384185791015625e-15",
                        "8.7814711166902399e-16")}


@pytest.mark.parametrize("omega_c, seed, mc_metric, code", [("1.0", 11, 2.5762458209965931, 0),
                                                            ("1.0", 145, 4.1600742391878418, 1),
                                                            ("1e8", 11, 2.5762458209965922, 0)],
                         ids=["seed11", "seed145", "seed11-large-cutoff"])
def test_validate_default_matches_the_pinned_rows(tmp_path, capsys, omega_c, seed, mc_metric, code):
    # every cell byte for byte, but the Monte-Carlo metric, which moves with
    # the rounding of the sampled axes, within 2e-15 relative
    cfg = validate_default_at(tmp_path, omega_c)
    assert main(["validate", "--config", cfg, "--seed", str(seed)]) == code
    out = capsys.readouterr().out
    mc = validate_rows(out)["mc-vs-map-stderr-units"][0]
    assert abs(float(mc) - mc_metric) <= 2e-15 * mc_metric
    radial, extraction, roundtrip = PINNED_CELLS[omega_c]
    assert out == PINNED_VALIDATE.format(radial=radial, mc=mc, passed=1 - code,
                                         extraction=extraction, roundtrip=roundtrip)


def test_large_cutoff_finds_the_scaled_poles(tmp_path, capsys):
    # pole_scan's floors are in units of 1/omega_c: at omega_c = 1e8 the
    # bagel poles were lost, and the round trip stepped into the first one
    body = open(os.path.join(os.path.dirname(__file__), "..", "configs",
                             "fig2_bagel_gaussian.cfg")).read()
    poles = {}
    for omega_c in ("1.0", "1e8"):
        cfg = write_config(tmp_path, body.replace("omega_c = 1.0", f"omega_c = {omega_c}"))
        assert main(["rates", "--config", cfg]) == 0
        last = capsys.readouterr().out.strip().splitlines()[-1]
        poles[omega_c] = np.array(last.removeprefix("# poles: ").split(), dtype=float)
    assert poles["1.0"].size == 2
    assert np.allclose(poles["1e8"], 1e-8 * poles["1.0"], rtol=1e-12, atol=0.0)
    rho0 = DensityMatrix([0.6, -0.1, 0.75])
    for _, fam in builtin_families(1e8):
        poles = pole_scan(fam, (1e-9 / 1e8, 6.0 / 1e8))
        assert check_roundtrip(fam, poles, rho0) <= THRESHOLDS["integrator-roundtrip-trace-distance"]


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

SCAN_CFG = """
[radial]
kind = gaussian

[angular]
kind = kneaded
a = 0.3

[grid]
t_max = 10
n_points = 401

[scan]
values = 0 0.1 0.3
"""


def test_scan_pole_counts_gaussian(tmp_path):
    cfg = write_config(tmp_path, SCAN_CFG)
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["a", "max_abs_gamma_xy", "pole_count"]
    by_a = {float(r[0]): (float(r[1]), int(r[2])) for r in rows}
    assert by_a[0.0][0] == 0.0
    assert by_a[0.1][1] == 0
    assert by_a[0.3][1] >= 2
    assert (tmp_path / "scan_a0.1.csv").exists()


def test_scan_pole_counts_exp_cutoff(tmp_path):
    body = SCAN_CFG.replace("kind = gaussian", "kind = exp-cutoff").replace(
        "values = 0 0.1 0.3", "values = 0.3 0.7")
    cfg = write_config(tmp_path, body)
    out = tmp_path / "scan.csv"
    main(["scan", "--config", cfg, "--out", str(out)])
    _, rows = read_csv(out)
    by_a = {float(r[0]): int(r[2]) for r in rows}
    assert by_a[0.3] == 0
    assert by_a[0.7] >= 2


@pytest.mark.parametrize("kind, values", [("gaussian", "0 0.1 0.3 0.9"),
                                           ("exp-cutoff", "0.3 0.9")])
def test_scan_summary_equals_a_per_point_reference_loop(tmp_path, kind, values):
    # the split is elementwise over the grid, so one time at a time gives the
    # batched gamma_xy bit for bit; a NaN row (pole window) is skipped
    from hamens.generator import _generators

    body = SCAN_CFG.replace("kind = gaussian", f"kind = {kind}").replace(
        "values = 0 0.1 0.3", f"values = {values}")
    cfg = write_config(tmp_path, body)
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
    run = load_config(cfg)
    grid = run.grid
    lines = ["a,max_abs_gamma_xy,pole_count"]
    for a in run.scan_values:
        fam = run.build_family(asymmetry=a)
        gxy = []
        for t in grid[1:]:
            ok, _, k = _generators(fam, np.array([t]))
            if ok[0]:
                gxy.append(abs(k[0, 0, 1]))
        poles = sign_change_roots(d_denominator(fam), 1e-9, float(grid[-1]))
        lines.append(f"{a:.17g},{max(gxy):.17g},{len(poles)}")
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()
    assert all(cell == largest for cell, largest in scan_file_maxima(out))


def test_scan_per_value_names_take_the_extension_from_the_basename(tmp_path):
    # a dot in a directory name is not an extension
    body = SCAN_CFG.replace("values = 0 0.1 0.3", "values = 0.1").replace("n_points = 401", "n_points = 21")
    cfg = write_config(tmp_path, body)
    out_dir = tmp_path / "x.d"
    out_dir.mkdir()
    assert main(["scan", "--config", cfg, "--out", str(out_dir / "out")]) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == ["out", "out_a0.1"]
    assert main(["scan", "--config", cfg, "--out", str(out_dir / "s.v1.csv")]) == 0
    assert (out_dir / "s.v1_a0.1.csv").exists()


def test_scan_rejects_unknown_parameter(tmp_path, capsys):
    # a is the one scanned parameter, so [scan] has no key to name it
    for value in ("omega_c", "a"):
        cfg = write_config(tmp_path, SCAN_CFG.replace("[scan]", f"[scan]\nparameter = {value}"))
        assert main(["scan", "--config", cfg]) == 2
        assert "unknown key 'parameter'" in capsys.readouterr().err


@pytest.mark.parametrize("values", ["0.1234567 0.1234568", "0.3 0.1 0.3"])
def test_scan_refuses_values_that_share_a_file_name(tmp_path, capsys, values):
    # each value writes <stem>_a{a:g}<ext>, so two values with one name would
    # overwrite a series; nothing is computed or written
    cfg = write_config(tmp_path, SCAN_CFG.replace("values = 0 0.1 0.3", f"values = {values}"))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main(["scan", "--config", cfg, "--out", str(out_dir / "scan.csv")]) == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: [scan] values ")
    assert captured.out == ""
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("command", ["moments", "simulate", "rates", "validate", "scan"])
def test_scan_values_outside_the_unit_interval_are_refused_at_load(tmp_path, capsys, command):
    # every command checks [scan] at load, not only the one that reads it
    cfg = write_config(tmp_path, SCAN_CFG.replace("values = 0 0.1 0.3", "values = 2 -1"))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main([command, "--config", cfg, "--out", str(out_dir / "out.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == [
        "error: [scan] lateral asymmetry must lie in [0, 1], got 2.0; "
        "[scan] lateral asymmetry must lie in [0, 1], got -1.0"]
    assert captured.out == ""
    assert list(out_dir.iterdir()) == []
    with pytest.raises(ConfigError, match=r"^\[scan\] lateral asymmetry must lie in \[0, 1\], got 2\.0;"):
        load_config(cfg)


# ---------------------------------------------------------------------------
# configuration errors
# ---------------------------------------------------------------------------

def test_unknown_key_is_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, SPHERE_CFG.replace("theta0 = 0", "theta0 = 0\nthta0 = 1"),
                       name="bad.cfg")
    assert main(["moments", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "thta0" in err


@pytest.mark.parametrize("body", [SPHERE_CFG.replace("[radial]", "[mc]\nsamples = 10\n\n[radial]"),
                                  "[radial]\nkind = gaussian\n", ""])
def test_default_section_is_rejected(tmp_path, capsys, body):
    # configparser would copy [DEFAULT] keys into every other section: with
    # [mc] the seed changed the run, with only [radial] it failed as an
    # unknown [radial] key, and alone it vanished without an error
    cfg = write_config(tmp_path, "[DEFAULT]\nseed = 5\n\n" + body)
    assert main(["simulate", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == ["error: unknown section [DEFAULT]"]
    assert captured.out == ""


def test_output_section_is_rejected(tmp_path, capsys):
    # [output] took no keys and set nothing
    cfg = write_config(tmp_path, SPHERE_CFG + "\n[output]\n")
    assert main(["simulate", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == ["error: unknown section [output]"]
    assert captured.out == ""


def test_duplicate_section_parse_error(tmp_path, capsys):
    cfg = write_config(tmp_path, SPHERE_CFG + "\n[state]\ntheta0 = 1\n", name="dup.cfg")
    assert main(["moments", "--config", cfg]) == 2
    assert "line" in capsys.readouterr().err


def test_bad_grid_is_rejected(tmp_path):
    cfg = write_config(tmp_path, SPHERE_CFG.replace("n_points = 201", "n_points = 1"))
    assert main(["simulate", "--config", cfg]) == 2


def test_kneaded_requires_asymmetry(tmp_path):
    cfg = write_config(tmp_path, SPHERE_CFG.replace("kind = sphere", "kind = kneaded"))
    assert main(["moments", "--config", cfg]) == 2


@pytest.mark.parametrize("command", ["moments", "simulate", "scan"])
def test_unwritable_out_exits_2_with_one_line(tmp_path, capsys, command):
    cfg = write_config(tmp_path, SCAN_CFG.replace("n_points = 401", "n_points = 21"))
    out = tmp_path / "no-such-dir" / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "no-such-dir" in err[0]
    assert captured.out == ""


def test_missing_config_file(tmp_path):
    assert main(["moments", "--config", str(tmp_path / "nope.cfg")]) == 2


#: SPHERE_CFG from its cutoff to its end time, the span of an edit to both
_SCALES = SPHERE_CFG[SPHERE_CFG.index("omega_c"):SPHERE_CFG.index("n_points")]


def _scales(omega_c, t_max):
    return _SCALES.replace("omega_c = 1.0", f"omega_c = {omega_c}").replace("t_max = 10", f"t_max = {t_max}")


@pytest.mark.parametrize("command", ["simulate", "rates"])
@pytest.mark.parametrize("old,new", [
    ("theta0 = 0", "bloch = nan 0 0"),
    ("theta0 = 0", "bloch = 1 1 1"),
    ("t_max = 10", "t_max = inf"),
    ("omega_c = 1.0", "omega_c = inf"),
    ("theta0 = 0", "theta0 = pi/0"),
    pytest.param("theta0 = 0", f"theta0 = {'9' * 400}pi", id="theta0 = 400 digits pi"),
    # the grid's end t_max / omega_c overflows to inf, or underflows to 0
    pytest.param(_SCALES, _scales("1e-300", "1e10"), id="grid end overflows"),
    pytest.param(_SCALES, _scales("1e300", "1e-30"), id="grid end underflows"),
])
def test_bad_numbers_are_rejected_at_load(tmp_path, capsys, command, old, new):
    cfg = write_config(tmp_path, SPHERE_CFG.replace(old, new))
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("command,body,extra", [
    ("validate", "", ["--seed", "-1"]),
    ("validate", "", ["--seed", str(2 ** 64)]),
    ("validate", "\n[mc]\nseed = -5\n", []),
    ("simulate", "\n[mc]\nseed = -5\n", []),
], ids=["flag-negative", "flag-2**64", "config-negative", "simulate-config-negative"])
def test_seed_outside_uint64_is_rejected(tmp_path, capsys, command, body, extra):
    # Philox keys are uint64 words; a seed outside [0, 2**64) used to end in
    # an OverflowError traceback with exit 1 (or pass unchecked in simulate)
    cfg = write_config(tmp_path, SPHERE_CFG + body)
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)] + extra) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "seed" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("command,n_points,mc,extra,key", [
    ("simulate", 10 ** 9, "", [], "n_points"),
    ("rates", 100_002, "", [], "n_points"),
    ("validate", 201, "samples = 1000000000000", [], "samples"),
    ("validate", 201, "chunk = 1000000000", [], "unknown key 'chunk'"),
    ("validate", 201, "", ["--samples", "1000000000000"], "sample"),
    ("validate", 201, "", ["--samples", "1"], "samples"),
    ("validate", 201, "samples = 1", [], "samples"),
], ids=["grid-1e9", "grid-cap+1", "samples-1e12", "chunk-1e9", "flag-samples-1e12",
        "flag-one-sample", "config-one-sample"])
def test_sizes_beyond_their_caps_are_rejected(tmp_path, capsys, monkeypatch,
                                              command, n_points, mc, extra, key):
    # a size is checked before anything is computed: every stage that would
    # allocate by it fails the test if reached, and so does a grid beyond its cap
    import hamens.cli as cli
    from hamens.config import MAX_GRID_POINTS

    def reached(*args, **kwargs):
        raise AssertionError("a size beyond its cap reached the computation")

    linspace = np.linspace

    def grid(start, stop, num=50, **kwargs):
        return reached() if num > MAX_GRID_POINTS else linspace(start, stop, num, **kwargs)

    monkeypatch.setattr(np, "linspace", grid)
    for stage in ("bloch_trajectory", "purity_trajectory", "rate_trajectory", "run_checks"):
        monkeypatch.setattr(cli, stage, reached)
    body = SPHERE_CFG.replace("n_points = 201", f"n_points = {n_points}")
    cfg = write_config(tmp_path, body + f"\n[mc]\n{mc}\n")
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)] + extra) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and key in err[0]
    assert not out.exists()


@pytest.mark.parametrize("command", ["moments", "simulate", "rates", "scan"])
@pytest.mark.parametrize("flag,value", [("--seed", "-1"), ("--samples", "1000000000000")],
                         ids=["seed-negative", "samples-1e12"])
def test_sampling_flags_are_refused_outside_validate(tmp_path, capsys, command, flag, value):
    # only validate draws samples; argparse refuses the flags elsewhere
    cfg = write_config(tmp_path, SPHERE_CFG)
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--config", cfg, "--out", str(out), flag, value])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.strip().splitlines()[-1] == (
        f"hamens: error: unrecognized arguments: {flag} {value}")
    assert not out.exists()


def test_size_caps_admit_the_sizes_in_use(tmp_path):
    from hamens.config import MAX_GRID_POINTS
    from hamens.montecarlo import CHUNK, MAX_SAMPLES

    assert MAX_GRID_POINTS >= 4001 and MAX_SAMPLES >= 1_000_000
    body = SPHERE_CFG.replace("n_points = 201", f"n_points = {MAX_GRID_POINTS}")
    body += f"\n[mc]\nsamples = {MAX_SAMPLES}\n"
    cfg = load_config(write_config(tmp_path, body))
    # validate draws in chunks of the fixed size CHUNK
    assert cfg.sampler.n_samples == MAX_SAMPLES and CHUNK == 4096
    assert cfg.grid.size == MAX_GRID_POINTS


def test_parse_angle_forms():
    assert parse_angle("0.25pi") == pytest.approx(math.pi / 4)
    assert parse_angle("pi/2") == pytest.approx(math.pi / 2)
    assert parse_angle("pi") == pytest.approx(math.pi)
    assert parse_angle("1.5707963267948966") == pytest.approx(math.pi / 2)
    with pytest.raises(ConfigError):
        parse_angle("two pies")


def test_load_config_defaults_and_overrides(tmp_path):
    cfg = load_config(write_config(tmp_path, SPHERE_CFG))
    assert cfg.omega_c == 1.0
    assert cfg.sampler.n_samples == 100000
    assert np.allclose(cfg.rho0.bloch, [0, 0, 1])
    grid = cfg.grid
    assert grid[0] == 0.0 and grid[-1] == pytest.approx(10.0)
    assert not grid.flags.writeable


def test_checked_in_figure_configs_load():
    import glob
    import os
    here = os.path.join(os.path.dirname(__file__), "..", "configs")
    paths = sorted(glob.glob(os.path.join(here, "*.cfg")))
    assert len(paths) >= 20
    for path in paths:
        load_config(path)


def test_python_dash_m_writes_the_same_bytes_as_main(tmp_path, capsys):
    root = os.path.join(os.path.dirname(__file__), "..")
    config = os.path.join(root, "configs", "fig6_cardioid_gaussian.cfg")
    assert main(["simulate", "--config", config]) == 0
    expected = capsys.readouterr().out
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "hamens", "simulate", "--config", config],
                          capture_output=True, env=env, check=True)
    assert proc.stdout == expected.encode()


#: runs whose bytes must not depend on the OpenBLAS core: the split (rates),
#: the scan summary read from it, and every validate row
_CORE_FREE_RUNS = (("rates", "fig7_kneaded_gaussian.cfg"), ("scan", "fig7_kneaded_gaussian.cfg"),
                   ("validate", "validate_default.cfg", "--samples", "2000", "--seed", "5"))

_RUN_UNDER_CORE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from record_golden import blas_core
from hamens.cli import main
print(*[main(argv) for argv in json.loads(sys.argv[2])], blas_core())
"""


def _outputs(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE=Prescott names an x86-64 core")
def test_rates_scan_and_validate_bytes_do_not_depend_on_the_blas_core(tmp_path):
    # Prescott runs on any x86-64 CPU and has other kernels than the core
    # OpenBLAS picks for a recent one; the core is read at load, so the
    # Prescott runs are made in a child process
    from record_golden import blas_core

    core = blas_core()
    if core in ("unknown", "Prescott", "Katmai"):
        pytest.skip(f"numpy's OpenBLAS core here is {core!r}")
    tests = os.path.dirname(os.path.abspath(__file__))
    configs = os.path.join(tests, "..", "configs")
    argvs = {}
    for side in ("here", "prescott"):
        (tmp_path / side).mkdir()
        argvs[side] = [[command, "--config", os.path.join(configs, config),
                        "--out", str(tmp_path / side / f"{command}.csv"), *rest]
                       for command, config, *rest in _CORE_FREE_RUNS]
    codes = [str(main(argv)) for argv in argvs["here"]]
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott", PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(tests, "..", "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _RUN_UNDER_CORE, tests,
                           json.dumps(argvs["prescott"])],
                          capture_output=True, env=env, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # OpenBLAS names its Prescott kernels after an older core ("Katmai")
    *child_codes, child_core = proc.stdout.split()
    assert child_codes == codes and child_core != core
    assert len(_outputs(tmp_path / "here")) == 8
    assert _outputs(tmp_path / "prescott") == _outputs(tmp_path / "here")


# ---------------------------------------------------------------------------
# start-up: scipy stays off the import path of the CLI
# ---------------------------------------------------------------------------

_SCIPY_MODULES = """
import sys
from hamens.cli import main
code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(code, *sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def run_python(*args, timeout=120):
    """A fresh interpreter with this checkout's src on its path, output captured."""
    root = os.path.join(os.path.dirname(__file__), "..")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, text=True,
                          timeout=timeout)


def loaded_scipy(*argv):
    """Exit code and the scipy modules loaded by a fresh interpreter that imports
    hamens.cli and, given arguments, runs one command."""
    proc = run_python("-c", _SCIPY_MODULES, *argv)
    proc.check_returncode()
    code, *modules = proc.stdout.split()
    return int(code), set(modules)


def test_importing_the_cli_loads_no_scipy():
    assert loaded_scipy() == (0, set())


def test_validate_loads_no_scipy(tmp_path):
    # the round trip integrates with the in-repo DOP853, not scipy.integrate
    config = os.path.join(os.path.dirname(__file__), "..", "configs", "validate_default.cfg")
    assert loaded_scipy("validate", "--config", config, "--samples", "2000",
                        "--out", str(tmp_path / "out.csv")) == (0, set())


def command_loaded_scipy(tmp_path, command, config):
    config = os.path.join(os.path.dirname(__file__), "..", "configs", config)
    return loaded_scipy(command, "--config", config, "--out", str(tmp_path / "out.csv"))


@pytest.mark.parametrize("command", ["moments", "simulate", "rates", "scan"])
def test_reciprocal_square_commands_load_no_scipy(tmp_path, command):
    assert command_loaded_scipy(tmp_path, command, "fig7_kneaded_reciprocal-square.cfg") == (0, set())


@pytest.mark.parametrize("command", ["moments", "simulate", "rates", "scan"])
def test_gaussian_commands_load_no_scipy(tmp_path, command):
    # Dawson's function for the Gaussian <sin omega t> is numpy, not scipy.special
    assert command_loaded_scipy(tmp_path, command, "fig7_kneaded_gaussian.cfg") == (0, set())


# ---------------------------------------------------------------------------
# library errors and extreme inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("error", [
    QuadratureError("panel refinement stalled after 2000 splits"),
    PoleError("map not invertible at t=1.0"),
    np.linalg.LinAlgError("Singular matrix"),
    IntegrationError("no convergence at t=1.0: the interval there is down to 3.55e-15"),
])
def test_library_errors_exit_2_with_one_line(tmp_path, capsys, monkeypatch, error):
    import hamens.cli as cli

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "rate_trajectory", fail)
    cfg = write_config(tmp_path, SPHERE_CFG)
    assert main(["rates", "--config", cfg]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0] == f"error: {error}"
    assert captured.out == ""


def test_rates_at_huge_finite_time_ends_quickly(tmp_path):
    # t_max = 1e300 passes config validation; the pole bracketing used to
    # bisect every NaN cell, and the Gaussian forms returned inf * 0
    body = SPHERE_CFG.replace("kind = sphere", "kind = bagel").replace("t_max = 10", "t_max = 1e300")
    proc = run_python("-m", "hamens", "rates", "--config", write_config(tmp_path, body), timeout=60)
    if proc.returncode == 2:
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
    else:
        assert proc.returncode == 0
        rows = [line.split(",") for line in proc.stdout.splitlines()[1:]
                if not line.startswith("#")]
        assert len(rows) == 201
        assert np.all(np.isfinite(np.array(rows, dtype=float)))


@pytest.mark.parametrize("command", ["simulate", "rates"])
def test_exp_cutoff_at_huge_finite_time_gives_finite_rows(tmp_path, command):
    # the exp-cutoff rational forms overflowed into inf / inf beyond
    # |omega_c t| ~ 1.3e154: 200 of 201 rows were NaN, with numpy warnings
    body = SPHERE_CFG.replace("kind = gaussian", "kind = exp-cutoff").replace("t_max = 10", "t_max = 1e300")
    proc = run_python("-m", "hamens", command, "--config", write_config(tmp_path, body), timeout=60)
    assert proc.returncode == 0 and proc.stderr == ""
    rows = [line.split(",") for line in proc.stdout.splitlines()[1:] if not line.startswith("#")]
    assert len(rows) == 201
    assert np.all(np.isfinite(np.array(rows, dtype=float)))


@pytest.mark.parametrize("command", ["simulate", "rates"])
def test_reciprocal_square_at_huge_finite_time_warns_nothing(tmp_path, command):
    # the small-|x| series ran on every element, and xs * xs overflowed
    body = open(os.path.join(os.path.dirname(__file__), "..", "configs",
                             "fig7_kneaded_reciprocal-square.cfg")).read()
    body = body.replace("t_max = 10", "t_max = 1e300").replace("n_points = 2001", "n_points = 201")
    proc = run_python("-W", "error", "-m", "hamens", command,
                      "--config", write_config(tmp_path, body), timeout=60)
    assert proc.returncode == 0 and proc.stderr == ""
    rows = [line.split(",") for line in proc.stdout.splitlines()[1:] if not line.startswith("#")]
    assert len(rows) == 201
    assert np.all(np.isfinite(np.array(rows, dtype=float)))


def write_tabulated_inputs(tmp_path):
    """A 62-row radial table on [0, 3] and a 19 x 25 angular table with a z first
    moment and diagonal second moments, both seeded and scaled to unit mass."""
    rng = np.random.default_rng([20210427, 0])
    omega = np.linspace(0.0, 3.0, 62)
    density = (0.5 + rng.random(omega.size)) * np.exp(-(omega / (3.0 * rng.uniform(0.3, 0.5))) ** 2)
    a, b, pa, pb = omega[:-1], omega[1:], density[:-1], density[1:]
    slope = (pb - pa) / (b - a)
    mass = np.sum((pa - slope * a) * (b ** 3 - a ** 3) / 3.0 + slope * (b ** 4 - a ** 4) / 4.0)
    density = density / mass
    theta, phi = np.linspace(0.0, math.pi, 19), np.linspace(0.0, 2.0 * math.pi, 25)
    g = (0.6 + 0.4 * rng.random(theta.size)) * (1.0 - rng.uniform(0.3, 0.9) * np.cos(theta))
    values = g[:, None] * (1.0 + rng.uniform(0.1, 0.6) * np.cos(2.0 * phi))[None, :]
    values = values / TabulatedAngular(theta, phi, values).mass()
    (tmp_path / "radial.csv").write_text(
        "omega,P\n" + "".join(f"{o:.17g},{p:.17g}\n" for o, p in zip(omega, density)))
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    (tmp_path / "aligned.csv").write_text("theta,phi,Theta\n" + "".join(
        f"{x:.17g},{y:.17g},{v:.17g}\n" for x, y, v in zip(th.ravel(), ph.ravel(), values.ravel())))
    return omega, density


def gauss_legendre_expectations(omega, density, t):
    """<cos>, <sin> and their t-derivatives by 24-point Gauss-Legendre on pieces
    of each table segment at most 0.5 rad of omega t wide."""
    x, w = np.polynomial.legendre.leggauss(24)
    edges = [np.linspace(a, b, 2 + int(t * (b - a) / 0.5)) for a, b in zip(omega[:-1], omega[1:])]
    lo = np.concatenate([e[:-1] for e in edges])
    hi = np.concatenate([e[1:] for e in edges])
    nodes = (0.5 * (lo + hi))[:, None] + (0.5 * (hi - lo))[:, None] * x[None, :]
    weights = (0.5 * (hi - lo))[:, None] * w[None, :] * np.interp(nodes, omega, density) * nodes ** 2
    c, s = np.cos(nodes * t), np.sin(nodes * t)
    return (np.sum(weights * c), np.sum(weights * s),
            -np.sum(weights * nodes * s), np.sum(weights * nodes * c))


def test_tabulated_rates_at_long_times(tmp_path):
    # t_max = 2000 used to end in a QuadratureError traceback with exit 1
    omega, density = write_tabulated_inputs(tmp_path)
    cfg = write_config(tmp_path, """
[radial]
kind = tabulated
table = radial.csv

[angular]
kind = tabulated
table = aligned.csv

[state]
bloch = 0.3 -0.5 0.6

[grid]
t_max = 2000
n_points = 201
""")
    outs = {}
    for command in ("simulate", "rates"):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_csv(out)
        outs[command] = np.array(rows, dtype=float)
        assert outs[command].shape[0] == 201 and np.all(np.isfinite(outs[command]))
    table = load_config(cfg).family.angular
    assert isinstance(table, TabulatedAngular)
    m = table.moments()
    n, big_s = m.first, m.second
    cross = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    for i in (1, 73, 200):
        t = outs["rates"][i, 0]
        c, s, dc, ds = gauss_legendre_expectations(omega, density, t)
        mt = c * (np.eye(3) - big_s) + big_s + s * cross
        dmt = dc * (np.eye(3) - big_s) + ds * cross
        assert np.allclose(outs["simulate"][i, 2:5], mt @ [0.3, -0.5, 0.6], rtol=0, atol=1e-12)
        ell = dmt @ np.linalg.inv(mt)
        sym = 0.5 * (ell + ell.T)
        k = sym - 0.5 * np.trace(sym) * np.eye(3)
        expected = [k[0, 0], k[1, 1], k[2, 2], k[0, 1], 0.5 * (ell[1, 0] - ell[0, 1])]
        assert np.allclose(outs["rates"][i, 2:7], expected, rtol=0, atol=1e-12)
