"""Seeded inputs for the `tabulated` workload.

Every input is a pure function of the variant number, so the same seed gives
byte-identical table and config files.  Two angular tables are made:

* the aligned table, in the symmetry class the program supports: density
  g(theta) (1 + a cos 2 phi), so the first moment lies along z and the
  second-moment matrix is diagonal;
* the tilted probe, g(n . m) about a tilted axis m, which has a tilted first
  moment and off-diagonal second moments.

Both share one piecewise-linear radial table.  The radial table is scaled to
unit effective mass and each angular table to unit solid-angle mass, so the
joint normalization holds with xi = 1.
"""

from __future__ import annotations

import math
import os

import numpy as np

from oracle import angular_moments

OMEGA_MAX = 3.0
N_OMEGA = 62
N_THETA = 19
N_PHI = 25
# sized so that about three passes of the tabulated workload fit one run
T_MAX = 2.0
N_POINTS = 1001
# the probe keeps the window its failure was first recorded on
PROBE_T_MAX = 3.0
PROBE_N_POINTS = 201

#: the seed picks one of this many variants; references exist for each
VARIANTS = 4


def _fmt(x) -> str:
    return repr(float(x))


def radial_mass(omega, density) -> float:
    """Exact integral of the piecewise-linear P(omega) times omega^2."""
    a, b = omega[:-1], omega[1:]
    pa, pb = density[:-1], density[1:]
    slope = (pb - pa) / (b - a)
    return float(np.sum((pa - slope * a) * (b ** 3 - a ** 3) / 3.0
                        + slope * (b ** 4 - a ** 4) / 4.0))


def radial_table(rng):
    omega = np.linspace(0.0, OMEGA_MAX, N_OMEGA)
    width = OMEGA_MAX * rng.uniform(0.3, 0.5)
    density = (0.5 + rng.random(N_OMEGA)) * np.exp(-(omega / width) ** 2)
    return omega, density / radial_mass(omega, density)


def angular_grid():
    return np.linspace(0.0, math.pi, N_THETA), np.linspace(0.0, 2.0 * math.pi, N_PHI)


def aligned_angular(rng):
    theta, phi = angular_grid()
    beta = rng.uniform(0.3, 0.9)
    a = rng.uniform(0.1, 0.6)
    g = (0.6 + 0.4 * rng.random(N_THETA)) * (1.0 - beta * np.cos(theta))
    values = g[:, None] * (1.0 + a * np.cos(2.0 * phi))[None, :]
    return theta, phi, values / angular_moments(theta, phi, values)[0]


def tilted_angular(rng):
    theta, phi = angular_grid()
    tilt = rng.uniform(0.35, 1.2)
    psi = rng.uniform(0.0, 2.0 * math.pi)
    m = np.array([math.sin(tilt) * math.cos(psi), math.sin(tilt) * math.sin(psi), math.cos(tilt)])
    b = rng.uniform(-0.8, -0.3)
    c = rng.uniform(0.5, 1.5)
    n = np.stack([np.sin(theta)[:, None] * np.cos(phi)[None, :],
                  np.sin(theta)[:, None] * np.sin(phi)[None, :],
                  np.broadcast_to(np.cos(theta)[:, None], (N_THETA, N_PHI))])
    u = np.tensordot(m, n, axes=1)
    values = 1.0 + b * u + c * u * u
    return theta, phi, values / angular_moments(theta, phi, values)[0]


def initial_bloch(rng):
    v = rng.normal(size=3)
    return 0.95 * v / np.linalg.norm(v)


def make_inputs(variant: int):
    """All arrays of one variant: radial table, aligned and tilted angular tables, state."""
    rng = np.random.default_rng([20210427, variant])
    return {
        "radial": radial_table(rng),
        "aligned": aligned_angular(rng),
        "tilted": tilted_angular(rng),
        "bloch": initial_bloch(rng),
    }


def _write_angular(path, theta, phi, values):
    rows = ["theta,phi,Theta"]
    for i, th in enumerate(theta):
        for j, ph in enumerate(phi):
            rows.append(f"{_fmt(th)},{_fmt(ph)},{_fmt(values[i, j])}")
    with open(path, "w", newline="") as handle:
        handle.write("\n".join(rows) + "\n")


def _write_config(path, angular_csv, bloch, t_max, n_points):
    text = (
        "[radial]\nkind = tabulated\ntable = radial.csv\n\n"
        f"[angular]\nkind = tabulated\ntable = {angular_csv}\n\n"
        f"[state]\nbloch = {' '.join(_fmt(b) for b in bloch)}\n\n"
        f"[grid]\nt_max = {_fmt(t_max)}\nn_points = {n_points}\n")
    with open(path, "w", newline="") as handle:
        handle.write(text)


def write_inputs(directory, inputs):
    """Write the tables and the two configs; returns {'tabulated': cfg, 'probe': cfg}."""
    os.makedirs(directory, exist_ok=True)
    omega, density = inputs["radial"]
    with open(os.path.join(directory, "radial.csv"), "w", newline="") as handle:
        handle.write("omega,P\n" + "".join(f"{_fmt(o)},{_fmt(p)}\n" for o, p in zip(omega, density)))
    _write_angular(os.path.join(directory, "aligned.csv"), *inputs["aligned"])
    _write_angular(os.path.join(directory, "tilted.csv"), *inputs["tilted"])
    configs = {"tabulated": os.path.join(directory, "tabulated.cfg"),
               "probe": os.path.join(directory, "probe.cfg")}
    _write_config(configs["tabulated"], "aligned.csv", inputs["bloch"], T_MAX, N_POINTS)
    _write_config(configs["probe"], "tilted.csv", inputs["bloch"], PROBE_T_MAX, PROBE_N_POINTS)
    return configs
