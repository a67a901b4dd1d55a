"""Seeded property test of `main()`, run in-process: configs drawn field by
field from lists of valid and invalid values, random tables included.

Every field value is either accepted by every command or refused by every
command at load, where `load_config` builds the run, so a config exits 0
exactly when it holds no invalid value, and 2 with one `error:` line
otherwise.  The one exception is `validate` (run with --samples 2000), which
may exit 1 on a valid config, because its 4-sigma Monte-Carlo gate can fail
by chance.  With exit 0, `simulate` has no NaN and purity at most 1,
`moments` has no NaN outside the columns a tabulated angular model leaves
without a closed form, `validate` writes one passing row per check, and the
map is completely positive on the whole grid.

Accepted grids end at t_max <= 100 in units of 1/omega_c (for a radial table,
omega_c is set to its last node): `generator.pole_scan` is complete on such
windows.  Its 200,001-point cap drops poles beyond about 500/omega_c, so
longer grids wait for a scan that is complete on any window.  The two
refused grid ends (an overflowing and a subnormal step) exceed that bound, but
load refuses them before any scan.

`scan` runs, with the other four commands, on kneaded configs with a drawn
[scan] section: a value outside [0, 1] is refused by every command, and two
values that share a per-value file name by `scan` alone.  With exit 0 its summary has one row per value,
each row's pole count is the number of poles its per-value file lists, and
its max_abs_gamma_xy cell is the largest |gamma_xy| in that file (t > 0).

Draws come from `np.random.default_rng(seed)` over a fixed seed range, not
from hypothesis, so a case depends on its seed alone.
"""

import math

import numpy as np
import pytest

from hamens import TabulatedAngular, TabulatedRadial, choi_check, map_matrices
from hamens.cli import main
from hamens.config import load_config

from conftest import random_radial, random_table, scan_file_maxima

SEEDS = range(64)
SCAN_SEEDS = range(24)
COMMANDS = ("moments", "simulate", "rates", "validate")
#: the arguments each command takes after --config and --out
ARGUMENTS = {"validate": ["--samples", "2000"]}
#: scan values on a grid of step 1/20, whose per-value file names differ
SCAN_GRID = np.linspace(0.0, 1.0, 21)
#: chance that a field takes one of its invalid values
P_INVALID = 0.07


def _write_radial(path, table, scale=1.0, last=None):
    p = table.density * scale
    rows = [f"{o!r},{d!r}" for o, d in zip(table.omega.tolist(), p.tolist())]
    if last is not None:
        rows[-1] = f"{table.omega[-1]!r},{last}"
    path.write_text("omega,P\n" + "\n".join(rows) + "\n")


def _write_angular(path, table, scale=1.0, fault=None):
    th, ph = np.meshgrid(table.theta, table.phi, indexing="ij")
    cells = [[repr(x), repr(y), repr(v)]
             for x, y, v in zip(th.ravel().tolist(), ph.ravel().tolist(),
                                (table.values * scale).ravel().tolist())]
    if fault is not None:
        column, text = fault
        cells[-1][column] = text
    path.write_text("theta,phi,Theta\n" + "".join(",".join(c) + "\n" for c in cells))


class Draw:
    """Field values drawn from one seed, with a record of the invalid ones."""

    def __init__(self, seed, directory):
        self.rng = np.random.default_rng(seed)
        self.directory = directory
        self.invalid = []
        self.angular_table = False

    def pick(self, valid, invalid=()):
        if invalid and self.rng.random() < P_INVALID:
            choice = invalid[int(self.rng.integers(len(invalid)))]
            self.invalid.append(choice)
            return choice
        return valid[int(self.rng.integers(len(valid)))]

    def table_seed(self):
        return int(self.rng.integers(2 ** 31))


def _radial(draw):
    """[radial] lines; a table's omega_c is its last node."""
    kind = draw.pick(["gaussian", "exp-cutoff", "reciprocal-square", "table", "sparse table"],
                     ["kind = lorentzian", "kind = tabulated", "nan entry", "inf entry",
                      "zero mass", "mass 2", "missing file"])
    if kind in ("gaussian", "exp-cutoff", "reciprocal-square"):
        omega_c = draw.pick(["omega_c = 1", "omega_c = 0.25", "omega_c = 3", "omega_c = 1e-8",
                             "omega_c = 1e8", ""],
                            ["omega_c = 0", "omega_c = -1", "omega_c = inf", "omega_c = nan",
                             "omega_c = fast"])
        return [f"kind = {kind}", omega_c]
    if kind.startswith("kind = "):
        return [kind]
    path = draw.directory / "radial.csv"
    table = random_radial(draw.table_seed(), int(draw.rng.integers(2, 9)))
    if kind == "sparse table":  # zero weight on all nodes but one or two
        density = table.density * (draw.rng.permutation(table.omega.size) < 2)
        table = TabulatedRadial(table.omega, density / TabulatedRadial(table.omega, density).mass())
    faults = {"nan entry": {"last": "nan"}, "inf entry": {"last": "inf"},
              "zero mass": {"scale": 0.0}, "mass 2": {"scale": 2.0}}
    if kind != "missing file":
        _write_radial(path, table, **faults.get(kind, {}))
    return ["kind = tabulated", f"table = {path.name}", f"omega_c = {table.omega_c!r}"]


def _kneaded(draw):
    return ["kind = kneaded", draw.pick(["a = 0", "a = 0.3", "a = 0.71", "a = 1"])]


def _angular(draw):
    kind = draw.pick(["sphere", "bagel", "dumbbell", "cardioid", "kneaded", "table",
                      "sparse table"],
                     ["kind = kneaded", "kind = kneaded\na = 1.5", "kind = sphere\na = 0.3",
                      "kind = donut", "kind = tabulated", "zero mass", "nan theta", "inf phi",
                      "nan density", "mass 2"])
    if kind == "kneaded":
        return _kneaded(draw)
    if kind in ("sphere", "bagel", "dumbbell", "cardioid"):
        return [f"kind = {kind}"]
    if kind.startswith("kind = "):
        return [kind]
    draw.angular_table = True
    path = draw.directory / "angular.csv"
    table = random_table(draw.table_seed(), int(draw.rng.integers(2, 7)), int(draw.rng.integers(2, 7)))
    if kind == "sparse table":  # zero density on all nodes but one or two
        values = table.values * (draw.rng.permutation(table.values.size) < 2).reshape(table.values.shape)
        table = TabulatedAngular(table.theta, table.phi,
                                 values / TabulatedAngular(table.theta, table.phi, values).mass())
    faults = {"zero mass": {"scale": 0.0}, "mass 2": {"scale": 2.0},
              "nan theta": {"fault": (0, "nan")}, "inf phi": {"fault": (1, "inf")},
              "nan density": {"fault": (2, "nan")}}
    _write_angular(path, table, **faults.get(kind, {}))
    return ["kind = tabulated", f"table = {path.name}"]


def _state(draw):
    r = draw.rng.normal(size=3)
    r *= draw.rng.uniform(0.0, 0.999) / np.linalg.norm(r)
    bloch = "bloch = " + " ".join(repr(x) for x in r.tolist())
    return [draw.pick(["theta0 = 0", "theta0 = pi/4", "theta0 = 0.25pi", "theta0 = 1.3",
                       "theta0 = pi", bloch, ""],
                      ["theta0 = pi/0", f"theta0 = {'9' * 400}pi", "bloch = 1 1 1",
                       "bloch = nan 0 0", "bloch = 0.1 0.2", f"theta0 = 1\n{bloch}"])]


def _grid(draw):
    return [draw.pick(["t_max = 0.5", "t_max = 10", "t_max = 37.5", "t_max = 100"],
                      ["t_max = 0", "t_max = -3", "t_max = inf"]),
            draw.pick(["n_points = 2", "n_points = 3", "n_points = 51", "n_points = 201"],
                      ["n_points = 1", "n_points = 100002", "n_points = ten"])]


def _extra(draw):
    return draw.pick(["", "[mc]\nseed = 7\nsamples = 1000", "[scan]\nvalues = 0.1, 0.5"],
                     ["[DEFAULT]\nseed = 1", "[output]\npath = x.csv", "[scan]\nparameter = a",
                      "[scan]\nvalues = 0.5 1.5",
                      "[mc]\nseed = -5", "[mc]\nsamples = 0"])


def _write_config(directory, sections, extra):
    """Write the sections, then the extra text, to run.cfg; returns its path."""
    text = "".join(f"[{name}]\n" + "".join(f"{line}\n" for line in lines if line) + "\n"
                   for name, lines in sections.items())
    path = directory / "run.cfg"
    path.write_text(text + extra + "\n")
    return str(path)


def draw_config(seed, directory):
    """The path of one drawn config, the invalid values it holds and whether
    its angular model is a table."""
    draw = Draw(seed, directory)
    sections = {"radial": _radial(draw), "angular": _angular(draw), "state": _state(draw),
                "grid": _grid(draw)}
    # a grid end t_max / omega_c that overflows, or a step below the smallest normal float
    scales = draw.pick([None], [("1e-300", "1e10"), ("1e300", "1e-30")])
    if scales is not None:
        sections["radial"] = [line for line in sections["radial"] if not line.startswith("omega_c")]
        sections["radial"].append(f"omega_c = {scales[0]}")
        sections["grid"][0] = f"t_max = {scales[1]}"
    return _write_config(directory, sections, _extra(draw)), draw.invalid, draw.angular_table


def _scan(draw):
    """[scan] values from `SCAN_GRID`; by chance with a value outside [0, 1]
    mixed in (invalid for every command) or a pair of values whose file names
    coincide (invalid for `scan` only).  Returns the section and whether a
    pair collides."""
    values = [repr(a) for a in draw.rng.choice(SCAN_GRID, int(draw.rng.integers(1, 5)),
                                               replace=False).tolist()]
    roll = draw.rng.random()
    if roll < 0.25:
        value = ("-0.25", "1.5", "1.0000001", "-1e-300")[int(draw.rng.integers(4))]
        draw.invalid.append(f"[scan] {value}")
        values.insert(int(draw.rng.integers(len(values) + 1)), value)
    collides = 0.25 <= roll < 0.45
    if collides:
        values += ["0.1234567", "0.1234568"]
    separator = (" ", ", ")[int(draw.rng.integers(2))]
    return f"[scan]\nvalues = {separator.join(values)}", collides


def draw_scan_config(seed, directory):
    """The path of one drawn kneaded config with a [scan] section, the invalid
    values it holds and whether two of its scan values collide."""
    draw = Draw(seed, directory)
    sections = {"radial": _radial(draw), "angular": _kneaded(draw), "state": _state(draw),
                "grid": _grid(draw)}
    scan, collides = _scan(draw)
    return _write_config(directory, sections, scan), draw.invalid, collides


def _cells(path):
    with open(path) as handle:
        rows = [line.rstrip("\n").split(",") for line in handle if not line.startswith("#")]
    return rows[0], rows[1:]


@pytest.mark.parametrize("seed", SEEDS)
def test_main_exits_0_or_2_and_writes_sound_outputs(tmp_path, capsys, seed):
    cfg, invalid, angular_table = draw_config(seed, tmp_path)
    run = None if invalid else load_config(cfg)
    for command in COMMANDS:
        out = tmp_path / f"{command}.csv"
        code = main([command, "--config", cfg, "--out", str(out), *ARGUMENTS.get(command, [])])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert code == (2 if invalid else 0) or (command, code, invalid) == ("validate", 1, []), (
            command, invalid, err)
        if code == 2:
            lines = err.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (command, err)
            assert not out.exists()
            continue
        assert err == ""
        header, rows = _cells(out)
        if command == "validate":
            assert header == ["check", "metric", "threshold", "pass"] and len(rows) == 4
            assert [row[3] for row in rows].count("0") == code
        elif command != "moments":
            assert len(rows) == run.grid.size
        if command == "simulate":
            values = np.array(rows, dtype=float)
            assert not np.isnan(values).any()
            assert values[:, header.index("purity")].max() <= 1.0 + 1e-12
        if command == "moments":
            for row in rows:
                for name, cell in zip(header[1:], row[1:]):
                    if not (angular_table and name in ("analytic", "abs_diff")):
                        assert not math.isnan(float(cell)), (row, name)
    if not invalid:
        assert choi_check(map_matrices(run.family, run.grid)).min() >= -1e-12


def test_the_seeds_draw_both_outcomes(tmp_path):
    # the seed range holds accepted configs and refused ones, both in numbers
    refused = 0
    for seed in SEEDS:
        directory = tmp_path / str(seed)
        directory.mkdir()
        refused += bool(draw_config(seed, directory)[1])
    assert 10 <= refused <= len(SEEDS) - 10


def _poles_listed(path):
    with open(path) as handle:
        line = next(line for line in handle if line.startswith("# poles:"))
    poles = line[len("# poles:"):].split()
    return 0 if poles == ["none"] else len(poles)


@pytest.mark.parametrize("seed", SCAN_SEEDS)
def test_scan_exits_0_or_2_and_counts_the_poles_it_lists(tmp_path, capsys, seed):
    cfg, invalid, collides = draw_scan_config(seed, tmp_path)
    for command in (*COMMANDS, "scan"):
        out_dir = tmp_path / command
        out_dir.mkdir()
        code = main([command, "--config", cfg, "--out", str(out_dir / "out.csv"),
                     *ARGUMENTS.get(command, [])])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        refused = bool(invalid) or (collides and command == "scan")
        assert code == (2 if refused else 0) or (command, code, refused) == ("validate", 1, False), (
            command, invalid, collides, err)
        if code == 2:
            lines = err.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (command, err)
            assert list(out_dir.iterdir()) == []
            continue
        assert err == ""
    if invalid or collides:
        return
    run = load_config(cfg)
    header, rows = _cells(out_dir / "out.csv")
    assert header == ["a", "max_abs_gamma_xy", "pole_count"]
    assert tuple(float(row[0]) for row in rows) == run.scan_values
    assert len(list(out_dir.iterdir())) == 1 + len(rows)
    for row in rows:
        per_value = out_dir / f"out_a{float(row[0]):g}.csv"
        assert len(_cells(per_value)[1]) == run.grid.size
        assert int(row[2]) == _poles_listed(per_value), row
    # each summary cell is the largest |gamma_xy| of the file it summarises
    for cell, largest in scan_file_maxima(out_dir / "out.csv"):
        assert cell == largest


def test_the_scan_seeds_draw_every_outcome(tmp_path):
    # valid lists, out-of-range values and colliding pairs, each more than once
    outcomes = []
    for seed in SCAN_SEEDS:
        directory = tmp_path / str(seed)
        directory.mkdir()
        _, invalid, collides = draw_scan_config(seed, directory)
        outcomes.append("invalid" if invalid else "collides" if collides else "valid")
    assert min(outcomes.count(o) for o in ("invalid", "collides", "valid")) >= 2, outcomes
