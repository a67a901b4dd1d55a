"""Model registries and table loaders for separable ensembles.

The joint density factorizes as p(omega, theta, phi) = P(omega) Theta(theta, phi)
with each factor of unit mass: int P(omega) omega^2 domega = 1 and
int Theta dOmega = 1.  This module names the built-in models and loads
tabulated ones from CSV; `dynmap.MapFamily` pairs a radial with an angular
model and checks both masses.
"""

from __future__ import annotations

import csv

import numpy as np

from .angular import (BagelAngular, CardioidAngular, DumbbellAngular,
                      KneadedCardioidAngular, SphereAngular, TabulatedAngular)
from .radial import (ExponentialCutoffRadial, GaussianRadial, ReciprocalSquareRadial,
                     TabulatedRadial)

#: built-in radial models by config name; each takes omega_c
RADIAL_KINDS = {"gaussian": GaussianRadial, "exp-cutoff": ExponentialCutoffRadial,
                "reciprocal-square": ReciprocalSquareRadial}
#: built-in angular models by config name; only "kneaded" takes an argument, its asymmetry a
ANGULAR_KINDS = {"sphere": SphereAngular, "bagel": BagelAngular, "dumbbell": DumbbellAngular,
                 "cardioid": CardioidAngular, "kneaded": KneadedCardioidAngular}


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
