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
"""

from __future__ import annotations

import configparser
import csv
import math
import os
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from .angular import (BagelAngular, CardioidAngular, DumbbellAngular,
                      KneadedCardioidAngular, SphereAngular, TabulatedAngular)
from .dynmap import DensityMatrix, MapFamily
from .montecarlo import MAX_SAMPLES, SEED_LIMIT, SamplerConfig
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


@dataclass
class RunConfig:
    """Validated, typed view of a configuration file."""

    radial_kind: str = "gaussian"
    omega_c: float = 1.0
    radial_table: str | None = None
    angular_kind: str = "sphere"
    asymmetry: float | None = None
    angular_table: str | None = None
    theta0: float = 0.0
    bloch: tuple | None = None
    t_max: float = 10.0
    n_points: int = 501
    seed: int = 12345
    samples: int = 100000
    scan_values: list = field(default_factory=list)
    base_dir: str = "."

    # -- builders ------------------------------------------------------------
    def _table(self, part, load, path):
        try:  # an absolute path replaces base_dir in the join
            return load(os.path.join(self.base_dir, path))
        except (OSError, ValueError) as err:
            raise ConfigError(f"{part} table: {err}") from err

    def build_family(self, asymmetry=None) -> MapFamily:
        """The family of the [radial] and [angular] sections (asymmetry overrides a)."""
        if self.radial_kind == "tabulated":
            radial = self._table("radial", load_radial_table, self.radial_table)
        else:
            radial = RADIAL_KINDS[self.radial_kind](self.omega_c)
        if self.angular_kind == "tabulated":
            angular = self._table("angular", load_angular_table, self.angular_table)
        else:
            angular = angular_model(self.angular_kind,
                                    self.asymmetry if asymmetry is None else asymmetry)
        try:
            return MapFamily.from_ensemble(radial, angular)
        except ValueError as err:
            raise ConfigError(str(err)) from err

    def initial_state(self) -> DensityMatrix:
        if self.bloch is not None:
            return DensityMatrix(np.asarray(self.bloch))
        return DensityMatrix([math.sin(self.theta0), 0.0, math.cos(self.theta0)])

    def time_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max / self.omega_c, self.n_points)

    def sampler_config(self, seed=None, samples=None) -> SamplerConfig:
        return SamplerConfig(seed=self.seed if seed is None else seed,
                             n_samples=self.samples if samples is None else samples)


def _float_list(text: str):
    parts = [p for chunk in text.split(",") for p in chunk.split()]
    if not parts:
        raise ValueError("empty list")
    return [_finite(p) for p in parts]


#: every [section] key, with the RunConfig field it sets and its parser
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


def load_config(path) -> RunConfig:
    """Parse and validate a configuration file; raises ConfigError with diagnostics."""
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

    cfg = RunConfig(base_dir=os.path.dirname(os.path.abspath(path)))
    errors = []
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
                setattr(cfg, name, convert(raw))
            except ConfigError as err:
                errors.append(f"[{section}] {key}: {err}")
            except ValueError:
                errors.append(f"[{section}] {key}: cannot parse {raw!r}")

    # cross-field validation
    if cfg.bloch is not None:
        if len(cfg.bloch) != 3:
            errors.append("[state] bloch: need exactly three components")
        elif parser.has_option("state", "theta0"):
            errors.append("[state] give either theta0 or bloch, not both")
        elif math.hypot(*cfg.bloch) > 1.0 + 1e-12:
            errors.append("[state] bloch: the vector lies outside the unit ball")
        cfg.bloch = tuple(cfg.bloch)
    radial_kinds, angular_kinds = (*RADIAL_KINDS, "tabulated"), (*ANGULAR_KINDS, "tabulated")
    if cfg.radial_kind not in radial_kinds:
        errors.append(f"[radial] kind must be one of {', '.join(radial_kinds)}")
    elif cfg.radial_kind == "tabulated" and not cfg.radial_table:
        errors.append("[radial] tabulated kind needs a table path")
    if cfg.angular_kind not in angular_kinds:
        errors.append(f"[angular] kind must be one of {', '.join(angular_kinds)}")
    elif cfg.angular_kind == "tabulated" and not cfg.angular_table:
        errors.append("[angular] tabulated kind needs a table path")
    if cfg.angular_kind == "kneaded":
        if cfg.asymmetry is None:
            errors.append("[angular] kneaded kind needs the asymmetry key a")
        elif not 0.0 <= cfg.asymmetry <= 1.0:
            errors.append("[angular] a must lie in [0, 1]")
    elif cfg.asymmetry is not None:
        errors.append("[angular] key 'a' only applies to the kneaded kind")
    if not cfg.omega_c > 0.0:
        errors.append("[radial] omega_c must be positive")
    if not 2 <= cfg.n_points <= MAX_GRID_POINTS:
        errors.append(f"[grid] n_points must lie in [2, {MAX_GRID_POINTS}]")
    if not cfg.t_max > 0.0:
        errors.append("[grid] t_max must be positive")
    if not 0 <= cfg.seed < SEED_LIMIT:
        errors.append("[mc] seed must lie in [0, 2**64)")
    if not 1 <= cfg.samples <= MAX_SAMPLES:
        errors.append(f"[mc] samples must lie in [1, {MAX_SAMPLES}]")
    errors += [f"[scan] value {a!r} outside [0, 1]" for a in cfg.scan_values
               if not 0.0 <= a <= 1.0]
    if not errors:
        # the grid runs to t_max / omega_c in absolute time, which can overflow or
        # underflow; its points increase strictly where its step is a normal float
        end = cfg.t_max / cfg.omega_c
        if not math.isfinite(end):
            errors.append(f"[grid] t_max / omega_c = {end!r} is not a finite time")
        elif end / (cfg.n_points - 1) < sys.float_info.min:
            errors.append(f"[grid] t_max / omega_c = {end!r} is too small for "
                          f"{cfg.n_points} strictly increasing times")

    if errors:
        raise ConfigError("; ".join(errors))
    return cfg
