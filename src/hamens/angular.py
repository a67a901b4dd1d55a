"""Solid-angle distributions and their directional moments.

The geometry of the angular density Theta(theta, phi) encodes the symmetry
class of the ensemble.  Built-ins, ordered by decreasing symmetry:

* sphere            Theta = 1/4pi                          (full rotational symmetry)
* bagel             Theta = sin(theta)/pi^2                (azimuthal + xy-reflection)
* dumbbell          Theta = 3 cos^2(theta)/4pi             (azimuthal + xy-reflection)
* cardioid          Theta = (1 - cos theta)/4pi            (azimuthal only)
* kneaded cardioid  Theta = (1-cos theta)(1+a cos 2phi)/4pi (xz/yz reflections only)

What the dynamics consumes are the first moments <n_j> and the symmetric
second-moment matrix <n_j n_k>; all built-ins have these in closed form,
with the product quadrature kept as an independent oracle.  A tabulated
model supports arbitrary densities given on a rectangular (theta, phi) grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import _gauss_nodes, sphere_integral

_FOUR_PI = 4.0 * math.pi


@dataclass(frozen=True, eq=False)
class DirectionalMoments:
    """First moments <n_j> and second-moment matrix <n_j n_k> of the axis direction.

    trace(second) equals the angular normalization xi since sum_j n_j^2 = 1.
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
        xi = float(np.trace(second))
        if np.any(np.abs(first) > xi + 1e-10):
            raise ValueError("first moments cannot exceed the angular mass")
        first.setflags(write=False)
        second.setflags(write=False)
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)

    @property
    def xi(self) -> float:
        return float(np.trace(self.second))


class AngularModel:
    """Base class for solid-angle densities."""

    def density(self, theta, phi):
        raise NotImplementedError

    def xi(self) -> float:
        """Total solid-angle mass of the density."""
        return 1.0

    def first_moment(self) -> np.ndarray:
        raise NotImplementedError

    def second_moment(self) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class SphereAngular(AngularModel):
    """Uniform direction: every axis equally likely."""

    def density(self, theta, phi):
        return np.broadcast_to(1.0 / _FOUR_PI, np.broadcast_shapes(np.shape(theta), np.shape(phi)))

    def first_moment(self):
        return np.zeros(3)

    def second_moment(self):
        return np.eye(3) / 3.0


@dataclass(frozen=True)
class BagelAngular(AngularModel):
    """Equatorial ring profile, sin(theta)/pi^2; axes avoid the poles."""

    def density(self, theta, phi):
        return np.broadcast_to(np.sin(theta) / math.pi ** 2,
                               np.broadcast_shapes(np.shape(theta), np.shape(phi)))

    def first_moment(self):
        return np.zeros(3)

    def second_moment(self):
        return np.diag([3.0 / 8.0, 3.0 / 8.0, 1.0 / 4.0])


@dataclass(frozen=True)
class DumbbellAngular(AngularModel):
    """Polar lobes, 3 cos^2(theta)/4pi; axes cluster near +-z."""

    def density(self, theta, phi):
        return np.broadcast_to(3.0 * np.cos(theta) ** 2 / _FOUR_PI,
                               np.broadcast_shapes(np.shape(theta), np.shape(phi)))

    def first_moment(self):
        return np.zeros(3)

    def second_moment(self):
        return np.diag([0.2, 0.2, 0.6])


@dataclass(frozen=True)
class CardioidAngular(AngularModel):
    """Heart-shaped profile (1 - cos theta)/4pi, weighted toward -z.

    Breaks the xy-plane reflection: the first z-moment is -1/3 while the
    second moments stay balanced at 1/3.
    """

    def density(self, theta, phi):
        return np.broadcast_to((1.0 - np.cos(theta)) / _FOUR_PI,
                               np.broadcast_shapes(np.shape(theta), np.shape(phi)))

    def first_moment(self):
        return np.array([0.0, 0.0, -1.0 / 3.0])

    def second_moment(self):
        return np.eye(3) / 3.0


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

    def first_moment(self):
        return np.array([0.0, 0.0, -1.0 / 3.0])

    def second_moment(self):
        return np.diag([(2.0 + self.a) / 6.0, (2.0 - self.a) / 6.0, 1.0 / 3.0])


@dataclass(frozen=True, eq=False)
class TabulatedAngular(AngularModel):
    """Density given on a rectangular (theta, phi) grid, bilinearly interpolated.

    The grid must cover the full sphere: theta from 0 to pi, phi from 0 to
    2pi.  Moments and mass integrate the interpolant cell by cell with an
    order-8 product Gauss-Legendre rule.  The rule is not exact for the
    bilinear model, since the sin(theta) Jacobian and the moment factors are
    not polynomials: against order 60 on random tables, mass and moments are
    off by up to 6.4e-7 on a 2x2 grid, 9.2e-12 on 3x3, 7.6e-14 on 5x4, and
    1e-15 on 9x9 and finer grids.
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
        if np.any(np.diff(theta) <= 0.0) or np.any(np.diff(phi) <= 0.0):
            raise ValueError("angular table grids must be strictly increasing")
        if abs(theta[0]) > 1e-9 or abs(theta[-1] - math.pi) > 1e-9:
            raise ValueError("theta grid must span [0, pi]")
        if abs(phi[0]) > 1e-9 or abs(phi[-1] - 2.0 * math.pi) > 1e-9:
            raise ValueError("phi grid must span [0, 2pi]")
        if np.any(values < 0.0):
            raise ValueError("angular table density must be nonnegative")
        for arr in (theta, phi, values):
            arr.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_xi", self._integrate(lambda th, ph: 1.0))

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

    def _integrate(self, fn, order=8) -> float:
        """Integrate density * fn(theta, phi) * sin(theta) cell by cell."""
        x, w = _gauss_nodes(order)
        th_nodes = 0.5 * (self.theta[:-1, None] + self.theta[1:, None]) \
            + 0.5 * np.diff(self.theta)[:, None] * x[None, :]
        th_w = 0.5 * np.diff(self.theta)[:, None] * w[None, :]
        ph_nodes = 0.5 * (self.phi[:-1, None] + self.phi[1:, None]) \
            + 0.5 * np.diff(self.phi)[:, None] * x[None, :]
        ph_w = 0.5 * np.diff(self.phi)[:, None] * w[None, :]
        th_flat = th_nodes.ravel()
        ph_flat = ph_nodes.ravel()
        grid_t = th_flat[:, None]
        grid_p = ph_flat[None, :]
        integrand = self.density(grid_t, grid_p) * np.asarray(fn(grid_t, grid_p)) * np.sin(grid_t)
        return float(th_w.ravel() @ integrand @ ph_w.ravel())

    def xi(self) -> float:
        return self._xi

    def first_moment(self):
        return np.array([
            self._integrate(lambda th, ph: np.sin(th) * np.cos(ph)),
            self._integrate(lambda th, ph: np.sin(th) * np.sin(ph)),
            self._integrate(lambda th, ph: np.cos(th) * np.ones_like(ph)),
        ])

    def second_moment(self):
        comps = {
            "x": lambda th, ph: np.sin(th) * np.cos(ph),
            "y": lambda th, ph: np.sin(th) * np.sin(ph),
            "z": lambda th, ph: np.cos(th) * np.ones_like(ph),
        }
        names = ["x", "y", "z"]
        out = np.empty((3, 3))
        for i, a in enumerate(names):
            for j, b in enumerate(names):
                if j < i:
                    out[i, j] = out[j, i]
                else:
                    out[i, j] = self._integrate(lambda th, ph, a=a, b=b: comps[a](th, ph) * comps[b](th, ph))
        return out


def directional_moments(model: AngularModel) -> DirectionalMoments:
    """Directional moments of a model: closed form for built-ins, quadrature otherwise."""
    return DirectionalMoments(model.first_moment(), model.second_moment())


def directional_moments_quadrature(model: AngularModel) -> DirectionalMoments:
    """Moments by solid-angle product quadrature on the density; oracle route."""
    comps = {
        0: lambda th, ph: np.sin(th) * np.cos(ph),
        1: lambda th, ph: np.sin(th) * np.sin(ph),
        2: lambda th, ph: np.cos(th) * np.ones(np.shape(ph)),
    }
    first = np.array([
        sphere_integral(lambda th, ph, j=j: model.density(th, ph) * comps[j](th, ph))
        for j in range(3)
    ])
    second = np.empty((3, 3))
    for i in range(3):
        for j in range(i, 3):
            second[i, j] = second[j, i] = sphere_integral(
                lambda th, ph, i=i, j=j: model.density(th, ph) * comps[i](th, ph) * comps[j](th, ph))
    return DirectionalMoments(first, second)
