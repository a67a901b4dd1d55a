"""Run configuration: line-oriented `key = value` files with [section] headers.

Sections: radial, angular, state, grid, mc, scan.  Unknown sections,
unknown keys and malformed values are hard errors, so a typo cannot silently
change a run.  All times in a config are in units of 1/omega_c.  Only
`validate` reads [mc] and only `scan` reads [scan] (its one key, values,
lists the asymmetries a in [0, 1] to sweep), but every command checks them at load.

The ensemble is separable, p(omega, theta, phi) = P(omega) Theta(theta, phi).
A config names each factor by a kind: a built-in model of `RADIAL_KINDS` or
`ANGULAR_KINDS`, or "tabulated" with a CSV table, loaded by
`load_radial_table` or `load_angular_table`.  Each factor must have unit
mass within 1e-9, int P(omega) omega^2 domega = 1 and int Theta dOmega = 1;
`dynmap.MapFamily` checks both when it pairs them.

`load_config` returns the built run, a `RunConfig`: every object a command
uses is built there, once, by the class that owns its rules, so each table
is read once and every command refuses the same configs.
"""

from __future__ import annotations

import configparser
import csv
import math
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from .angular import (BagelAngular, CardioidAngular, DumbbellAngular,
                      KneadedCardioidAngular, SphereAngular, TabulatedAngular)
from .dynmap import DensityMatrix, MapFamily
from .montecarlo import SamplerConfig
from .radial import (ExponentialCutoffRadial, GaussianRadial, ReciprocalSquareRadial,
                     TabulatedRadial)

#: built-in radial models by config name; each takes omega_c
RADIAL_KINDS = {"gaussian": GaussianRadial, "exp-cutoff": ExponentialCutoffRadial,
                "reciprocal-square": ReciprocalSquareRadial}
#: built-in angular models by config name; `angular_model` builds one
ANGULAR_KINDS = {"sphere": SphereAngular, "bagel": BagelAngular, "dumbbell": DumbbellAngular,
                 "cardioid": CardioidAngular, "kneaded": KneadedCardioidAngular}


def angular_model(kind, asymmetry):
    """The built-in angular model of a kind: "kneaded" takes the asymmetry a,
    every other kind takes nothing."""
    return ANGULAR_KINDS[kind](asymmetry) if kind == "kneaded" else ANGULAR_KINDS[kind]()


def _read_csv(path, expected_headers):
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty table") from None
        names = [h.strip() for h in header]
        if names != list(expected_headers):
            raise ValueError(
                f"{path}: expected header {','.join(expected_headers)}, got {','.join(names)}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(expected_headers):
                raise ValueError(f"{path}:{lineno}: expected {len(expected_headers)} columns")
            try:
                rows.append([float(c) for c in row])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric entry") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(rows, dtype=float)


def load_radial_table(path) -> TabulatedRadial:
    """Load a radial model from a two-column CSV (header 'omega,P').

    A family built from it needs int P(omega) omega^2 domega = 1 within 1e-9.
    """
    data = _read_csv(path, ("omega", "P"))
    return TabulatedRadial(omega=data[:, 0], density=data[:, 1])


def load_angular_table(path) -> TabulatedAngular:
    """Load an angular model from a three-column CSV (header 'theta,phi,Theta').

    Rows must enumerate a rectangular grid; the order is free.  A family
    built from it needs int Theta dOmega = 1 within 1e-9.
    """
    data = _read_csv(path, ("theta", "phi", "Theta"))
    # before np.unique, which would count a NaN coordinate as one more grid line
    if not np.isfinite(data[:, :2]).all():
        raise ValueError(f"{path}: theta and phi must be finite")
    thetas = np.unique(data[:, 0])
    phis = np.unique(data[:, 1])
    if thetas.size * phis.size != data.shape[0]:
        raise ValueError(f"{path}: rows do not form a rectangular (theta, phi) grid")
    ti = np.searchsorted(thetas, data[:, 0])
    pi = np.searchsorted(phis, data[:, 1])
    filled = np.zeros((thetas.size, phis.size), dtype=bool)
    filled[ti, pi] = True
    if not filled.all():
        raise ValueError(f"{path}: duplicate or missing grid nodes")
    values = np.zeros(filled.shape)
    values[ti, pi] = data[:, 2]
    return TabulatedAngular(theta=thetas, phi=phis, values=values)


class ConfigError(Exception):
    """Anything wrong with a configuration file; message carries diagnostics."""


#: `rates`, the largest user of an n-point grid, holds a few (n, 3, 3) float64
#: stacks (72 B per point each) while it splits the generator, and then the
#: CSV rows: 0.7 KB per point in all (traced at 20,001 points), so a grid at
#: the cap takes about 70 MB
MAX_GRID_POINTS = 100_001

_ANGLE_RE = re.compile(r"^\s*([0-9.]+)?\s*pi\s*(?:/\s*([0-9.]+))?\s*$")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"must be a finite number, got {text.strip()!r}")
    return value


def parse_angle(text: str) -> float:
    """Angles as plain radians or in terms of pi: '0.25pi', 'pi/4', 'pi'."""
    m = _ANGLE_RE.match(text)
    if m:
        num = float(m.group(1)) if m.group(1) else 1.0
        den = float(m.group(2)) if m.group(2) else 1.0
        value = num * math.pi / den if den else math.inf
        if not math.isfinite(value):
            raise ConfigError(f"must be a finite angle, got {text.strip()!r}")
        return value
    try:
        return _finite(text)
    except ValueError:
        raise ConfigError(f"cannot parse angle {text!r}") from None


@dataclass(frozen=True, eq=False)
class RunConfig:
    """The built run of a configuration file: the family of its [radial] and
    [angular] sections, the initial state, the read-only time grid in
    absolute time and the [mc] sampler, with what the commands read besides
    them: the time unit 1/omega_c, the angular kind, its asymmetry a (None
    but for the kneaded kind) and the [scan] values."""

    family: MapFamily
    rho0: DensityMatrix
    grid: np.ndarray
    sampler: SamplerConfig
    omega_c: float
    angular_kind: str
    asymmetry: float | None
    scan_values: tuple

    def build_family(self, asymmetry=None) -> MapFamily:
        """The built family; with an asymmetry, its radial model paired with the
        angular model of the config's kind at that asymmetry."""
        if asymmetry is None:
            return self.family
        return MapFamily.from_ensemble(self.family.radial, angular_model(self.angular_kind, asymmetry))


def _float_list(text: str):
    parts = [p for chunk in text.split(",") for p in chunk.split()]
    if not parts:
        raise ValueError("empty list")
    return [_finite(p) for p in parts]


#: every [section] key, with the name of the value it sets and its parser
_SCHEMA = {
    ("radial", "kind"): ("radial_kind", str.strip),
    ("radial", "omega_c"): ("omega_c", _finite),
    ("radial", "table"): ("radial_table", str.strip),
    ("angular", "kind"): ("angular_kind", str.strip),
    ("angular", "a"): ("asymmetry", _finite),
    ("angular", "table"): ("angular_table", str.strip),
    ("state", "theta0"): ("theta0", parse_angle),
    ("state", "bloch"): ("bloch", _float_list),
    ("grid", "t_max"): ("t_max", _finite),
    ("grid", "n_points"): ("n_points", int),
    ("mc", "seed"): ("seed", int),
    ("mc", "samples"): ("samples", int),
    ("scan", "values"): ("scan_values", _float_list),
}
_SECTIONS = {section for section, _ in _SCHEMA}
#: the value of each key a config leaves out
_DEFAULTS = {"radial_kind": "gaussian", "omega_c": 1.0, "radial_table": None,
             "angular_kind": "sphere", "asymmetry": None, "angular_table": None,
             "theta0": 0.0, "bloch": None, "t_max": 10.0, "n_points": 501,
             "seed": 12345, "samples": 100000, "scan_values": ()}


def _build(errors, prefix, make, *args):
    """make(*args); on a ValueError or OSError, append prefix and its text to
    errors and return None."""
    try:
        return make(*args)
    except (ValueError, OSError) as err:
        errors.append(f"{prefix}{err}")
        return None


def load_config(path) -> RunConfig:
    """Parse a configuration file and build its run; raises ConfigError with
    every fault found, in one message.

    Config checks what it alone owns: sections and keys, kinds and table
    paths, that a is given exactly for the kneaded kind, the time unit and
    the grid, and the form of [state].  Each object is then built by the
    class that owns its rules (`DensityMatrix`, `SamplerConfig`, the models
    and table loaders, `MapFamily`), and each ValueError or OSError it raises
    is one more fault.
    """
    # no section name matches "", so [DEFAULT] is read as an ordinary section,
    # and refused as unknown, instead of having its keys copied into every other
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"),
                                       default_section="")
    parser.optionxform = str
    try:
        with open(path) as handle:
            parser.read_file(handle, source=str(path))
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from err
    except configparser.Error as err:
        raise ConfigError(f"config parse failure: {err}") from err

    given, errors = dict(_DEFAULTS), []
    for section in parser.sections():
        if section not in _SECTIONS:
            errors.append(f"unknown section [{section}]")
            continue
        for key in parser.options(section):
            if (section, key) not in _SCHEMA:
                errors.append(f"[{section}] unknown key {key!r}")
                continue
            name, convert = _SCHEMA[section, key]
            raw = parser.get(section, key)
            try:
                given[name] = convert(raw)
            except ConfigError as err:
                errors.append(f"[{section}] {key}: {err}")
            except ValueError:
                errors.append(f"[{section}] {key}: cannot parse {raw!r}")

    state = given["bloch"]
    if state is None:
        state = [math.sin(given["theta0"]), 0.0, math.cos(given["theta0"])]
    elif len(state) != 3:
        errors.append("[state] bloch: need exactly three components")
        state = None
    elif parser.has_option("state", "theta0"):
        errors.append("[state] give either theta0 or bloch, not both")
        state = None
    radial_kind, radial_table = given["radial_kind"], given["radial_table"]
    angular_kind, angular_table, a = given["angular_kind"], given["angular_table"], given["asymmetry"]
    radial_kinds, angular_kinds = (*RADIAL_KINDS, "tabulated"), (*ANGULAR_KINDS, "tabulated")
    if radial_kind not in radial_kinds:
        errors.append(f"[radial] kind must be one of {', '.join(radial_kinds)}")
    elif radial_kind == "tabulated" and not radial_table:
        errors.append("[radial] tabulated kind needs a table path")
    if angular_kind not in angular_kinds:
        errors.append(f"[angular] kind must be one of {', '.join(angular_kinds)}")
    elif angular_kind == "tabulated" and not angular_table:
        errors.append("[angular] tabulated kind needs a table path")
    elif angular_kind == "kneaded" and a is None:
        errors.append("[angular] kneaded kind needs the asymmetry key a")
    if angular_kind != "kneaded" and a is not None:
        errors.append("[angular] key 'a' only applies to the kneaded kind")
    omega_c, t_max, n_points = given["omega_c"], given["t_max"], given["n_points"]
    before = len(errors)
    if not omega_c > 0.0:
        errors.append("[radial] omega_c must be positive")
    if not 2 <= n_points <= MAX_GRID_POINTS:
        errors.append(f"[grid] n_points must lie in [2, {MAX_GRID_POINTS}]")
    if not t_max > 0.0:
        errors.append("[grid] t_max must be positive")
    if len(errors) == before:
        # the grid runs to t_max / omega_c in absolute time, which can overflow or
        # underflow; its points increase strictly where its step is a normal float
        end = t_max / omega_c
        if not math.isfinite(end):
            errors.append(f"[grid] t_max / omega_c = {end!r} is not a finite time")
        elif end / (n_points - 1) < sys.float_info.min:
            errors.append(f"[grid] t_max / omega_c = {end!r} is too small for "
                          f"{n_points} strictly increasing times")

    rho0 = None if state is None else _build(errors, "[state] ", DensityMatrix, state)
    sampler = _build(errors, "[mc] ", SamplerConfig, given["seed"], given["samples"])
    for value in given["scan_values"]:
        _build(errors, "[scan] ", angular_model, "kneaded", value)
    base_dir = os.path.dirname(os.path.abspath(path))  # an absolute table path replaces it
    radial = angular = None
    if radial_kind == "tabulated" and radial_table:
        radial = _build(errors, "radial table: ", load_radial_table,
                        os.path.join(base_dir, radial_table))
    elif radial_kind in RADIAL_KINDS and omega_c > 0.0:
        radial = RADIAL_KINDS[radial_kind](omega_c)
    if angular_kind == "tabulated" and angular_table:
        angular = _build(errors, "angular table: ", load_angular_table,
                         os.path.join(base_dir, angular_table))
    elif angular_kind in ANGULAR_KINDS and (angular_kind == "kneaded") == (a is not None):
        angular = _build(errors, "[angular] ", angular_model, angular_kind, a)
    family = None if radial is None or angular is None else _build(
        errors, "", MapFamily.from_ensemble, radial, angular)
    if errors:
        raise ConfigError("; ".join(errors))
    grid = np.linspace(0.0, t_max / omega_c, n_points)
    grid.setflags(write=False)
    return RunConfig(family, rho0, grid, sampler, omega_c, angular_kind, a,
                     tuple(given["scan_values"]))
