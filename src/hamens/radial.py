"""Radial frequency distributions and their trigonometric expectations.

Each model carries the effective weight w(omega) = P(omega) * omega^2 (the
measure every expectation integrates against) and closed forms, where they
exist, for

    <cos omega t>,  <sin omega t>,  their time derivatives,  and <omega>.

The generic quadrature fallback (`expectation`) is shared by all models and
deliberately independent of the closed forms, so it doubles as the oracle
for them.  Three built-in families are provided:

* Gaussian with cutoff omega_c (effective weight is a Maxwell distribution),
* exponential cutoff (effective weight is a Gamma(4) distribution),
* reciprocal square on [0, omega_c] (effective weight is uniform),

plus a tabulated model defined by (omega, P) samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import dawsn

from .quadrature import panel_integrate

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)

#: built-in families whose normalization has been verified by quadrature
_NORMALIZATION_CHECKED: set = set()


# libm pow on arrays as on scalars: `**` on float arrays takes a SIMD power
# that rounds differently, so a batched grid would not match pointwise calls
_pow = np.float_power


def _scalarize(t, value):
    return float(value) if np.ndim(t) == 0 else value


class RadialModel:
    """Base class; subclasses override the closed forms they know."""

    omega_c: float

    # -- measure -----------------------------------------------------------
    def weight(self, omega):
        """Effective weight P(omega) * omega^2 (vectorized)."""
        raise NotImplementedError

    def support(self) -> tuple[float, float]:
        """Interval outside of which the weight vanishes (or is negligible)."""
        raise NotImplementedError

    def mass(self) -> float:
        """Total weight, equal to 1/xi of the normalization split."""
        lo, hi = self.support()
        return panel_integrate(self.weight, lo, hi, breakpoints=self._grid_breakpoints())

    def _grid_breakpoints(self):
        return ()

    # -- quadrature route (shared; also the oracle for the closed forms) ----
    def _integrate(self, g, t: float) -> float:
        lo, hi = self.support()
        breaks = list(self._grid_breakpoints())
        if t > 0.0:
            half_period = math.pi / t
            k0 = int(math.floor(lo / half_period)) + 1
            k1 = int(math.ceil(hi / half_period))
            if k1 - k0 <= 20000:
                breaks.extend(k * half_period for k in range(k0, k1))
        return panel_integrate(g, lo, hi, breakpoints=breaks, weight=self.weight)

    def expectation(self, f, t: float) -> float:
        """Quadrature evaluation of the radial expectation of f(omega*t)."""
        t = float(t)
        return self._integrate(lambda w: f(w * t) * self.weight(w), abs(t))

    # -- expectations (quadrature defaults, overridden by closed forms) -----
    def cos_expectation(self, t):
        if np.ndim(t) > 0:
            return np.array([self.cos_expectation(ti) for ti in np.asarray(t).ravel()]).reshape(np.shape(t))
        return self.expectation(np.cos, t)

    def sin_expectation(self, t):
        if np.ndim(t) > 0:
            return np.array([self.sin_expectation(ti) for ti in np.asarray(t).ravel()]).reshape(np.shape(t))
        return self.expectation(np.sin, t)

    def dcos_expectation(self, t):
        """d/dt <cos omega t> = -<omega sin omega t>, by differentiation under the integral."""
        if np.ndim(t) > 0:
            return np.array([self.dcos_expectation(ti) for ti in np.asarray(t).ravel()]).reshape(np.shape(t))
        t = float(t)
        return self._integrate(lambda w: -w * np.sin(w * t) * self.weight(w), abs(t))

    def dsin_expectation(self, t):
        """d/dt <sin omega t> = <omega cos omega t>."""
        if np.ndim(t) > 0:
            return np.array([self.dsin_expectation(ti) for ti in np.asarray(t).ravel()]).reshape(np.shape(t))
        t = float(t)
        return self._integrate(lambda w: w * np.cos(w * t) * self.weight(w), abs(t))

    def mean_omega(self) -> float:
        """First frequency moment of the effective weight."""
        return self._integrate(lambda w: w * self.weight(w), 0.0)

    # -- shared validation ---------------------------------------------------
    def _check_normalization(self, key):
        """Quadrature assertion that the hard-coded mass of a built-in is 1."""
        if key in _NORMALIZATION_CHECKED:
            return
        mass = RadialModel.mass(self)
        if abs(mass - 1.0) > 1e-10:
            raise ValueError(f"{type(self).__name__} weight integrates to {mass!r}, expected 1")
        _NORMALIZATION_CHECKED.add(key)


def _positive_cutoff(omega_c) -> float:
    omega_c = float(omega_c)
    if not omega_c > 0.0:
        raise ValueError(f"cutoff frequency must be positive, got {omega_c}")
    return omega_c


@dataclass(frozen=True)
class GaussianRadial(RadialModel):
    """P(omega) = sqrt(2/pi) exp(-omega^2 / 2 omega_c^2) / omega_c^3 on [0, inf)."""

    omega_c: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "omega_c", _positive_cutoff(self.omega_c))
        self._check_normalization(type(self).__name__)

    def weight(self, omega):
        y = np.asarray(omega) / self.omega_c
        return _SQRT_2_OVER_PI * y * y * np.exp(-0.5 * y * y) / self.omega_c

    def support(self):
        # weight below 1e-36 of its peak beyond 13 omega_c
        return 0.0, 13.0 * self.omega_c

    def mass(self):
        return 1.0

    def cos_expectation(self, t):
        x = self.omega_c * np.asarray(t, dtype=float)
        return _scalarize(t, np.exp(-0.5 * x * x) * (1.0 - x * x))

    def sin_expectation(self, t):
        # exp(-x^2/2) erfi(x/sqrt 2) rewritten through the Dawson function:
        # the naive product overflows against underflow for x >~ 38.
        x = self.omega_c * np.asarray(t, dtype=float)
        daw = dawsn(x / math.sqrt(2.0))
        return _scalarize(t, _SQRT_2_OVER_PI * x + (1.0 - x * x) * _TWO_OVER_SQRT_PI * daw)

    def dcos_expectation(self, t):
        x = self.omega_c * np.asarray(t, dtype=float)
        return _scalarize(t, -self.omega_c * x * (3.0 - x * x) * np.exp(-0.5 * x * x))

    def dsin_expectation(self, t):
        x = self.omega_c * np.asarray(t, dtype=float)
        daw = dawsn(x / math.sqrt(2.0))
        val = _SQRT_2_OVER_PI * (2.0 - x * x) - _TWO_OVER_SQRT_PI * x * (3.0 - x * x) * daw
        return _scalarize(t, self.omega_c * val)

    def mean_omega(self):
        return 2.0 * _SQRT_2_OVER_PI * self.omega_c


@dataclass(frozen=True)
class ExponentialCutoffRadial(RadialModel):
    """P(omega) = omega exp(-omega/omega_c) / (6 omega_c^4) on [0, inf)."""

    omega_c: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "omega_c", _positive_cutoff(self.omega_c))
        self._check_normalization(type(self).__name__)

    def weight(self, omega):
        y = np.asarray(omega) / self.omega_c
        return y ** 3 * np.exp(-y) / (6.0 * self.omega_c)

    def support(self):
        return 0.0, 90.0 * self.omega_c

    def mass(self):
        return 1.0

    def cos_expectation(self, t):
        x = self.omega_c * np.asarray(t, dtype=float)
        u = x * x
        return _scalarize(t, (1.0 - 6.0 * u + u * u) / _pow(1.0 + u, 4))

    def sin_expectation(self, t):
        x = self.omega_c * np.asarray(t, dtype=float)
        u = x * x
        return _scalarize(t, 4.0 * x * (1.0 - u) / _pow(1.0 + u, 4))

    def dcos_expectation(self, t):
        x = self.omega_c * np.asarray(t, dtype=float)
        u = x * x
        return _scalarize(t, -4.0 * self.omega_c * x * (5.0 - 10.0 * u + u * u) / _pow(1.0 + u, 5))

    def dsin_expectation(self, t):
        x = self.omega_c * np.asarray(t, dtype=float)
        u = x * x
        return _scalarize(t, 4.0 * self.omega_c * (5.0 * u * u - 10.0 * u + 1.0) / _pow(1.0 + u, 5))

    def mean_omega(self):
        return 4.0 * self.omega_c


@dataclass(frozen=True)
class ReciprocalSquareRadial(RadialModel):
    """P(omega) = 1 / (omega_c omega^2) on [0, omega_c]; effective weight uniform.

    The 1/omega^2 singularity of the density is cancelled exactly by the
    omega^2 measure factor, so everything works with the constant weight.
    """

    omega_c: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "omega_c", _positive_cutoff(self.omega_c))
        self._check_normalization(type(self).__name__)

    def weight(self, omega):
        w = np.asarray(omega, dtype=float)
        return np.where((w >= 0.0) & (w <= self.omega_c), 1.0 / self.omega_c, 0.0)

    def support(self):
        return 0.0, self.omega_c

    def mass(self):
        return 1.0

    def cos_expectation(self, t):
        x = self.omega_c * np.asarray(t, dtype=float)
        return _scalarize(t, np.sinc(x / np.pi))

    def sin_expectation(self, t):
        x = self.omega_c * np.asarray(t, dtype=float)
        small = np.abs(x) < 1e-3
        xs = np.where(small, 1.0, x)
        series = x / 2.0 - x ** 3 / 24.0 + x ** 5 / 720.0
        return _scalarize(t, np.where(small, series, (1.0 - np.cos(xs)) / xs))

    def dcos_expectation(self, t):
        x = self.omega_c * np.asarray(t, dtype=float)
        small = np.abs(x) < 1e-2
        xs = np.where(small, 1.0, x)
        series = -x / 3.0 + x ** 3 / 30.0 - x ** 5 / 840.0
        val = np.where(small, series, np.cos(xs) / xs - np.sin(xs) / (xs * xs))
        return _scalarize(t, self.omega_c * val)

    def dsin_expectation(self, t):
        x = self.omega_c * np.asarray(t, dtype=float)
        small = np.abs(x) < 1e-2
        xs = np.where(small, 1.0, x)
        series = 0.5 - x * x / 8.0 + x ** 4 / 144.0
        val = np.where(small, series, np.sin(xs) / xs - (1.0 - np.cos(xs)) / (xs * xs))
        return _scalarize(t, self.omega_c * val)

    def mean_omega(self):
        return 0.5 * self.omega_c


@dataclass(frozen=True, eq=False)
class TabulatedRadial(RadialModel):
    """Radial distribution sampled as (omega, P(omega)) pairs, linearly interpolated.

    All expectations go through quadrature on the effective weight; no closed
    forms.  The total weight may differ from 1 (normalization split xi != 1),
    which the ensemble joint check picks up.
    """

    omega: np.ndarray
    density: np.ndarray

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float).ravel()
        density = np.asarray(self.density, dtype=float).ravel()
        if omega.size < 2 or density.size != omega.size:
            raise ValueError("radial table needs at least two (omega, P) rows")
        if np.any(np.diff(omega) <= 0.0):
            raise ValueError("radial table frequencies must be strictly increasing")
        if omega[0] < 0.0:
            raise ValueError("radial table frequencies must be nonnegative")
        if np.any(density < 0.0):
            raise ValueError("radial table density must be nonnegative")
        omega.setflags(write=False)
        density.setflags(write=False)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "density", density)
        object.__setattr__(self, "omega_c", float(omega[-1]))
        object.__setattr__(self, "_mass", super().mass())

    def weight(self, omega):
        w = np.asarray(omega, dtype=float)
        p = np.interp(w, self.omega, self.density, left=0.0, right=0.0)
        return p * w * w

    def support(self):
        return float(self.omega[0]), float(self.omega[-1])

    def _grid_breakpoints(self):
        return tuple(self.omega[1:-1])

    def mass(self):
        return self._mass


def expectation_quadrature(model: RadialModel, f, t: float) -> float:
    """Radial expectation of f(omega*t) by adaptive panel quadrature.

    Independent of any closed form the model may carry; this is the oracle
    route for every built-in expectation.
    """
    return RadialModel.expectation(model, f, t)
