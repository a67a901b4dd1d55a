"""Solid-angle distributions and their directional moments.

The geometry of the angular density Theta(theta, phi) encodes the symmetry
class of the ensemble.  Built-ins, ordered by decreasing symmetry:

* sphere            Theta = 1/4pi                          (full rotational symmetry)
* bagel             Theta = sin(theta)/pi^2                (azimuthal + xy-reflection)
* dumbbell          Theta = 3 cos^2(theta)/4pi             (azimuthal + xy-reflection)
* cardioid          Theta = (1 - cos theta)/4pi            (azimuthal only)
* kneaded cardioid  Theta = (1-cos theta)(1+a cos 2phi)/4pi (xz/yz reflections only)

What the dynamics consumes are the first moments <n_j> and the symmetric
second-moment matrix <n_j n_k>, which each model states in `moments()`: the
built-ins in closed form, a tabulated model (arbitrary densities given on a
rectangular (theta, phi) grid) as exact sums over its grid.  The product
quadrature of the density is kept as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import _gauss_nodes, sphere_integral

_FOUR_PI = 4.0 * math.pi
#: the axis n = (sin th cos ph, sin th sin ph, cos th), one (theta, phi) factor pair per component
_AXIS = ((np.sin, np.cos), (np.sin, np.sin), (np.cos, np.ones_like))
#: the upper triangle of the second-moment matrix, and each matrix entry's place in it
_UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
_SYMMETRIC = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])
#: Gauss-Legendre order per table cell, exact to rounding for its integrands:
#: trigonometric of frequency <= 3 times a linear hat, on cells at most 2pi wide
_CELL_ORDER = 16


@dataclass(frozen=True, eq=False)
class DirectionalMoments:
    """First moments <n_j> and second-moment matrix <n_j n_k> of the axis direction.

    trace(second) equals the angular mass since sum_j n_j^2 = 1.
    """

    first: np.ndarray
    second: np.ndarray

    def __post_init__(self):
        first = np.array(self.first, dtype=float).reshape(3)
        second = np.array(self.second, dtype=float).reshape(3, 3)
        if not np.allclose(second, second.T, atol=1e-12):
            raise ValueError("second-moment matrix must be symmetric")
        if np.linalg.eigvalsh(second)[0] < -1e-12:
            raise ValueError("second-moment matrix must be positive semidefinite")
        if np.any(np.abs(first) > np.trace(second) + 1e-10):
            raise ValueError("first moments cannot exceed the angular mass")
        first.setflags(write=False)
        second.setflags(write=False)
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)


class AngularModel:
    """Base class for solid-angle densities; each model states its exact
    directional moments in `moments()`."""

    def density(self, theta, phi):
        """Theta(theta, phi), in a shape that broadcasts against both arguments."""
        raise NotImplementedError

    def mass(self) -> float:
        """Total solid-angle mass of the density."""
        return 1.0

    def moments(self) -> DirectionalMoments:
        raise NotImplementedError


@dataclass(frozen=True)
class SphereAngular(AngularModel):
    """Uniform direction: every axis equally likely."""

    def density(self, theta, phi):
        return 1.0 / _FOUR_PI

    def moments(self):
        return DirectionalMoments(np.zeros(3), np.eye(3) / 3.0)


@dataclass(frozen=True)
class BagelAngular(AngularModel):
    """Equatorial ring profile, sin(theta)/pi^2; axes avoid the poles."""

    def density(self, theta, phi):
        return np.sin(theta) / math.pi ** 2

    def moments(self):
        return DirectionalMoments(np.zeros(3), np.diag([3.0 / 8.0, 3.0 / 8.0, 1.0 / 4.0]))


@dataclass(frozen=True)
class DumbbellAngular(AngularModel):
    """Polar lobes, 3 cos^2(theta)/4pi; axes cluster near +-z."""

    def density(self, theta, phi):
        return 3.0 * np.cos(theta) ** 2 / _FOUR_PI

    def moments(self):
        return DirectionalMoments(np.zeros(3), np.diag([0.2, 0.2, 0.6]))


@dataclass(frozen=True)
class CardioidAngular(AngularModel):
    """Heart-shaped profile (1 - cos theta)/4pi, weighted toward -z.

    Breaks the xy-plane reflection: the first z-moment is -1/3 while the
    second moments stay balanced at 1/3.
    """

    def density(self, theta, phi):
        return (1.0 - np.cos(theta)) / _FOUR_PI

    def moments(self):
        return DirectionalMoments([0.0, 0.0, -1.0 / 3.0], np.eye(3) / 3.0)


@dataclass(frozen=True)
class KneadedCardioidAngular(AngularModel):
    """Cardioid squeezed along y and widened along x by the asymmetry a in [0, 1].

    (1 - cos theta)(1 + a cos 2phi)/4pi; at a = 0 it is the cardioid exactly.
    Only the reflections about the xz and yz planes survive.
    """

    a: float = 0.0

    def __post_init__(self):
        a = float(self.a)
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"lateral asymmetry must lie in [0, 1], got {a}")
        object.__setattr__(self, "a", a)

    def density(self, theta, phi):
        return (1.0 - np.cos(theta)) * (1.0 + self.a * np.cos(2.0 * np.asarray(phi))) / _FOUR_PI

    def moments(self):
        return DirectionalMoments([0.0, 0.0, -1.0 / 3.0],
                                  np.diag([(2.0 + self.a) / 6.0, (2.0 - self.a) / 6.0, 1.0 / 3.0]))


@dataclass(frozen=True, eq=False)
class TabulatedAngular(AngularModel):
    """Density given on a rectangular (theta, phi) grid, bilinearly interpolated.

    The grid must cover the full sphere: theta from 0 to pi, phi from 0 to
    2pi.  The interpolant is a sum of products of 1-D hat functions and every
    moment integrand is a product f(theta) g(phi), so the mass and each moment
    are w_theta @ values @ w_phi, with w the integrals of f sin(theta) and of g
    against each node's hat function, exact to rounding.  They are computed
    once, with what the exact sampler in `montecarlo` draws from: row_mass, the
    phi integral of each grid row; phi_cdf, the cumulative phi-cell masses of
    all rows, flattened; theta_mass, the mass of the theta marginal
    (row_mass_i + b_i x) sin(theta_i + x) on each theta-cell i, b_i the slope
    of row_mass; and its cumulative sum theta_cdf.  Both CDFs start at 0.
    """

    theta: np.ndarray
    phi: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float).ravel()
        phi = np.asarray(self.phi, dtype=float).ravel()
        values = np.asarray(self.values, dtype=float)
        if theta.size < 2 or phi.size < 2:
            raise ValueError("angular table needs at least a 2x2 grid")
        if values.shape != (theta.size, phi.size):
            raise ValueError("angular table values must be laid out as (n_theta, n_phi)")
        if not (np.isfinite(theta).all() and np.isfinite(phi).all() and np.isfinite(values).all()):
            raise ValueError("angular table entries must be finite")
        if np.any(np.diff(theta) <= 0.0) or np.any(np.diff(phi) <= 0.0):
            raise ValueError("angular table grids must be strictly increasing")
        if abs(theta[0]) > 1e-9 or abs(theta[-1] - math.pi) > 1e-9:
            raise ValueError("theta grid must span [0, pi]")
        if abs(phi[0]) > 1e-9 or abs(phi[-1] - 2.0 * math.pi) > 1e-9:
            raise ValueError("phi grid must span [0, 2pi]")
        if np.any(values < 0.0):
            raise ValueError("angular table density must be nonnegative")
        # moment k is row k of both weight stacks: the mass, <n_a>, then <n_a n_b>
        m = np.einsum("ki,ij,kj->k", _hat_weights(theta, 0), values, _hat_weights(phi, 1))
        if not m[0] > 0.0:
            raise ValueError("angular table density must have positive mass")
        second = m[4:][_SYMMETRIC]
        h = np.diff(theta)
        # the trapezoid rule is exact for the rows, linear in phi on each cell
        cells = 0.5 * (values[:, 1:] + values[:, :-1]) * np.diff(phi)
        rows = cells.sum(axis=1)
        theta_mass = _theta_cell_cdf(h, rows[:-1], np.diff(rows) / h, np.sin(theta[:-1]), np.cos(theta[:-1]))
        object.__setattr__(self, "_mass", float(m[0]))
        for name, arr in (("theta", theta), ("phi", phi), ("values", values), ("_first", m[1:4]),
                          ("_second", second), ("row_mass", rows), ("theta_mass", theta_mass),
                          ("theta_cdf", np.concatenate([[0.0], np.cumsum(theta_mass)])),
                          ("phi_cdf", np.concatenate([[0.0], np.cumsum(cells.ravel())]))):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def density(self, theta, phi):
        th = np.clip(theta, self.theta[0], self.theta[-1])
        ph = np.mod(phi, 2.0 * math.pi)
        i = np.clip(np.searchsorted(self.theta, th, side="right") - 1, 0, self.theta.size - 2)
        j = np.clip(np.searchsorted(self.phi, ph, side="right") - 1, 0, self.phi.size - 2)
        t0, t1 = self.theta[i], self.theta[i + 1]
        p0, p1 = self.phi[j], self.phi[j + 1]
        wt = (th - t0) / (t1 - t0)
        wp = (ph - p0) / (p1 - p0)
        v = self.values
        return ((1 - wt) * (1 - wp) * v[i, j] + wt * (1 - wp) * v[i + 1, j]
                + (1 - wt) * wp * v[i, j + 1] + wt * wp * v[i + 1, j + 1])

    def mass(self) -> float:
        return self._mass

    def moments(self):
        return DirectionalMoments(self._first, self._second)


def _hat_weights(grid, side):
    """Integrals over the grid of the (side 0) theta or (side 1) phi factors of 1, n_a
    and n_a n_b (a <= b) against every node's hat function, sin(theta) included for
    theta; one row per factor."""
    x, w = _gauss_nodes(_CELL_ORDER)
    up = 0.5 * (1.0 + x)
    width = np.diff(grid)[:, None]
    pts = grid[:-1, None] + width * up
    comps = [pair[side](pts) for pair in _AXIS]
    vals = np.stack([np.ones_like(pts)] + comps + [comps[a] * comps[b] for a, b in _UPPER])
    vals *= 0.5 * width * w * (np.sin(pts) if side == 0 else 1.0)
    out = np.zeros((vals.shape[0], grid.size))
    out[:, :-1] += vals @ (1.0 - up)
    out[:, 1:] += vals @ up
    return out


def _theta_cell_cdf(x, a0, b, s, c):
    """Integral over [0, x] of (a0 + b t) sin(theta0 + t) dt, with s, c = sin, cos theta0.

    Half angles give sin x and 1 - cos x without cancellation.
    """
    sh, ch = np.sin(0.5 * x), np.cos(0.5 * x)
    sin_x, vers = 2.0 * sh * ch, 2.0 * sh * sh
    return a0 * (s * sin_x + c * vers) + b * (s * (x * sin_x - vers) + c * (sin_x - x * (1.0 - vers)))


def _axis(a, th, ph):
    return _AXIS[a][0](th) * _AXIS[a][1](ph)


def directional_moments_quadrature(model: AngularModel) -> DirectionalMoments:
    """Moments by solid-angle product quadrature on the density; oracle route."""
    first = np.array([sphere_integral(lambda th, ph, a=a: model.density(th, ph) * _axis(a, th, ph))
                      for a in range(3)])
    second = np.empty((3, 3))
    for a, b in _UPPER:
        second[a, b] = second[b, a] = sphere_integral(
            lambda th, ph, a=a, b=b: model.density(th, ph) * _axis(a, th, ph) * _axis(b, th, ph))
    return DirectionalMoments(first, second)
