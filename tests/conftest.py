"""Inputs shared by several test modules."""

import math
import os
import sys

import numpy as np
import pytest

from hamens import MapFamily, SphereAngular, TabulatedAngular, TabulatedRadial, aligned_generator

#: polar angle and azimuth of the tilted symmetry axis m
TILT = (0.7, 0.4)
#: the smallest valid CSV table of each side, with its last entry left as X,
#: and the angular one with its last phi coordinate left as X
TABLES_WITH_X = {"radial": "omega,P\n0,1\n1,X\n",
                 "angular": "theta,phi,Theta\n0,0,1\n0,6.283185307179586,1\n"
                            "3.141592653589793,0,1\n3.141592653589793,6.283185307179586,X\n",
                 "angular-phi": "theta,phi,Theta\n0,0,1\n0,6.283185307179586,1\n"
                                "3.141592653589793,0,1\n3.141592653589793,X,1\n"}


def sign_change_roots(func, lo, hi):
    """Roots of func on [lo, hi]: every sign change between neighbours of the
    grid `pole_scan` samples, refined by brentq.  func takes an array of times;
    the tests use it for one closed-form denominator at a time."""
    from scipy.optimize import brentq

    grid = np.linspace(lo, hi, int(min(200001, max(2001, 400 * (hi - lo)))))
    values = func(grid)
    flips = np.flatnonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0.0)
    return [brentq(lambda t: float(func(t)), grid[i], grid[i + 1], xtol=1e-15) for i in flips]


def d_denominator(fam):
    """D = f_x f_y + <n_z>^2 <sin omega t>^2, the denominator of the
    off-diagonal and azimuthal closed forms; vectorized over t."""
    from hamens.dynmap import diagonal_components

    nz = float(fam.moments.first[2])

    def d(t):
        f, _, s, _ = diagonal_components(fam, t)
        return f[..., 0] * f[..., 1] + nz * nz * s * s

    return d


def scan_file_maxima(out):
    """(max_abs_gamma_xy cell, largest |gamma_xy| of its per-value file) for
    each row of the scan summary at ``out``.  The maximum runs over the file's
    rows with t > 0 and gamma_xy not NaN, and is written as %.17g, like every
    CLI cell; "nan" when no row is left."""
    stem, ext = os.path.splitext(str(out))
    with open(out) as handle:
        summary = [line.rstrip("\n").split(",") for line in handle][1:]
    pairs = []
    for a, cell, _ in summary:
        with open(f"{stem}_a{float(a):g}{ext}") as handle:
            rows = [line.rstrip("\n").split(",") for line in handle if not line.startswith("#")]
        column = rows[0].index("gamma_xy")
        values = [abs(float(row[column])) for row in rows[1:] if float(row[0]) > 0.0]
        values = [value for value in values if not math.isnan(value)]
        pairs.append((cell, format(max(values), ".17g") if values else "nan"))
    return pairs


def sphere_rate(radial, t):
    """The common decay rate of the isotropic family of ``radial``: gamma_x of
    `aligned_generator`, of t's shape."""
    return aligned_generator(MapFamily.from_ensemble(radial, SphereAngular()), t)[1][..., 0, 0]


def axis_rates(fam, t):
    """(gamma_x, gamma_y, gamma_z) of `aligned_generator`, shape t.shape + (3,)."""
    return np.diagonal(aligned_generator(fam, t)[1], axis1=-2, axis2=-1)


def random_table(seed, n_theta, n_phi):
    """Normalized random table on random grids; its second moments have off-diagonal parts."""
    rng = np.random.default_rng(seed)
    th = np.concatenate([[0.0], np.sort(rng.uniform(0.0, math.pi, n_theta - 2)), [math.pi]])
    ph = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 2 * math.pi, n_phi - 2)), [2 * math.pi]])
    vals = rng.random((n_theta, n_phi))
    return TabulatedAngular(th, ph, vals / TabulatedAngular(th, ph, vals).mass())


def random_radial(seed, n):
    """Unit-mass radial table of n nodes on random gaps; about half of the seeds
    give a table that starts above omega = 0, where the weight jumps from 0."""
    rng = np.random.default_rng(seed)
    start = rng.uniform(0.1, 1.0) if rng.random() < 0.5 else 0.0
    omega = start + np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, n - 1))])
    density = rng.random(n)
    return TabulatedRadial(omega, density / TabulatedRadial(omega, density).mass())


@pytest.fixture(scope="session")
def tilted_table():
    """37 x 49 table of 3 (n.m)^2 (1 + n.m/2) / 4pi about a tilted axis m, scaled to unit mass.

    Its first moment is tilted and its second-moment matrix has off-diagonal
    entries, so no axis-aligned shortcut applies.
    """
    theta = np.linspace(0.0, math.pi, 37)
    phi = np.linspace(0.0, 2.0 * math.pi, 49)
    m = np.array([math.sin(TILT[0]) * math.cos(TILT[1]),
                  math.sin(TILT[0]) * math.sin(TILT[1]),
                  math.cos(TILT[0])])
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    nm = np.sin(th) * np.cos(ph) * m[0] + np.sin(th) * np.sin(ph) * m[1] + np.cos(th) * m[2]
    values = 3.0 * nm * nm * (1.0 + 0.5 * nm) / (4.0 * math.pi)
    return TabulatedAngular(theta, phi, values / TabulatedAngular(theta, phi, values).mass())


@pytest.fixture(scope="session")
def tabgen():
    """The seeded table generator `bench/tabgen.py`, imported from its directory."""
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
    sys.path.insert(0, bench)
    try:
        import tabgen
    finally:
        sys.path.remove(bench)
    return tabgen
