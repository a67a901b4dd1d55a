"""Radial frequency distributions and their trigonometric expectations.

Each model carries the effective weight w(omega) = P(omega) * omega^2 (the
measure every expectation integrates against) and one method,
`expectations(t, derivative=False)`, that evaluates in a single pass

    <cos omega t>,  <sin omega t>,  and with ``derivative`` their time derivatives

elementwise over t, each of t's shape (a float t gives numpy scalars or 0-d
arrays); <omega> is the derivative of <sin omega t> at 0.
`expectation_quadrature(model, f, t)` integrates f(omega t) against the
weight by adaptive panel quadrature, for one scalar t.  It uses nothing of
the exact forms and no model's expectations use it: it is the oracle for
them.  Three built-in families have closed forms:

* Gaussian with cutoff omega_c (effective weight is a Maxwell distribution),
* exponential cutoff (effective weight is a Gamma(4) distribution),
* reciprocal square on [0, omega_c] (effective weight is uniform),

and a tabulated model defined by (omega, P) samples sums exact per-segment
Fourier integrals of its piecewise-cubic weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import panel_integrate

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)

#: |omega_c t| beyond which exp(-x^2/2) is exactly 0 in double precision
_GAUSS_ZERO = 40.0
#: |omega_c t| from which <sin> and its derivative take their asymptotic series:
#: the closed forms cancel to about x^4 eps relative, and form inf * 0 once x^2
#: overflows
_GAUSS_FAR = 20.0
#: <sin> ~ sqrt(2/pi) sum_n -2n (2n-1)!! / x^(2n+1) and, term by term, its
#: x-derivative 2n (2n+1)!! / x^(2n+2); 13 terms leave a relative remainder
#: below 1e-17 at _GAUSS_FAR
_GAUSS_SIN_TAIL = tuple(-2 * n * math.prod(range(1, 2 * n, 2)) for n in range(1, 14))
_GAUSS_DSIN_TAIL = tuple(2 * n * math.prod(range(1, 2 * n + 2, 2)) for n in range(1, 14))


def _gaussian_tail(x, coefficients, odd):
    """sqrt(2/pi) sum_n coefficients[n-1] / x^(2n+1) (odd) or / x^(2n+2) (even)
    where |x| >= _GAUSS_FAR; the other entries are placeholders."""
    u = 1.0 / np.where(np.abs(x) >= _GAUSS_FAR, x, _GAUSS_FAR)
    y = u * u
    acc = 0.0
    for a in reversed(coefficients):
        acc = acc * y + a
    return _SQRT_2_OVER_PI * acc * y * (u if odd else y)


#: sample spacing h of Rybicki's sum; its aliasing error is about exp(-(pi/2h)^2) < 1e-17
_DAWSON_H = 0.25
#: sample offsets n h for the 14 odd n = 1, 3, ..., 27, then for -n; the first
#: dropped pair is below 1e-19 relative
_DAWSON_SHIFTS = np.array([n * _DAWSON_H for n in range(1, 28, 2)] + [-n * _DAWSON_H for n in range(1, 28, 2)])
#: |x| below which the Taylor series replaces the sum (which cancels as x -> 0)
_DAWSON_TAYLOR = 0.2
#: Taylor coefficients (-2)^k / (2k+1)!!, k = 1..9, of F(x) / x in x^2; the
#: first dropped term is below 1e-20 relative at _DAWSON_TAYLOR
_DAWSON_SERIES = tuple((-2.0) ** k / math.prod(range(1, 2 * k + 2, 2)) for k in range(1, 10))
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


def _dawsn(x):
    """Dawson's integral F(x) = exp(-x^2) int_0^x exp(u^2) du, odd in x.

    Rybicki's sampling-theorem sum (G. B. Rybicki, Computers in Physics 3, 85
    (1989); Numerical Recipes 6.10) with h = _DAWSON_H = 0.25: with n0 the even
    integer nearest |x|/h and x' = |x| - n0 h,

        F(|x|) = sum_(n = +-1, +-3, ..., +-27) exp(-(x' - n h)^2) / ((n0 + n) sqrt(pi)),

    14 odd pairs, each Gaussian evaluated directly and the smallest pairs added
    first; below |x| = _DAWSON_TAYLOR = 0.2 the Taylor series
    sum_k (-2)^k x^(2k+1) / (2k+1)!! to k = 9 replaces it.  Against 30-digit
    mpmath on 7,000 points of [-15, 15] the largest error is 3.1 ulp (5.2e-16
    relative) and the mean 0.48 ulp.

    Exactly odd (the sign is copied on at the end).  The arithmetic is
    elementwise, so an array gives bit for bit its scalar calls.
    """
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    n0 = 2.0 * np.floor(ax / (2.0 * _DAWSON_H) + 0.5)
    xp = ax - n0 * _DAWSON_H
    x2 = ax * ax
    pairs = _DAWSON_SHIFTS.size // 2
    acc = 0.0
    for k in range(pairs - 1, -1, -1):
        n = 2.0 * k + 1.0
        up, down = xp - _DAWSON_SHIFTS[k], xp - _DAWSON_SHIFTS[pairs + k]
        acc = acc + (np.exp(-(up * up)) / (n0 + n) + np.exp(-(down * down)) / (n0 - n))
    poly = _DAWSON_SERIES[-1]
    for a in reversed(_DAWSON_SERIES[:-1]):
        poly = poly * x2 + a
    near = ax + ax * (x2 * poly)
    far = _INV_SQRT_PI * acc
    return np.copysign(np.where(ax < _DAWSON_TAYLOR, near, far), x)


#: |omega_c t| beyond which the exponential-cutoff forms are taken in 1/x:
#: (1 + x^2)^5 overflows from |x| ~ 4e30 and x^2 from 1.3e154, while every
#: grid a config can sensibly ask for stays far below
_EXP_FAR = 1e30


# libm pow on arrays as on scalars: `**` on float arrays takes a SIMD power
# that rounds differently, so a batched grid would not match pointwise calls
_pow = np.float_power


class RadialModel:
    """Base class of the weight and its support; each subclass adds `mass()`
    and `expectations` in exact form."""

    omega_c: float

    def weight(self, omega):
        """Effective weight P(omega) * omega^2 (vectorized)."""
        raise NotImplementedError

    def support(self) -> tuple[float, float]:
        """Interval outside of which the weight vanishes (or is negligible)."""
        raise NotImplementedError


@dataclass(frozen=True)
class _CutoffRadial(RadialModel):
    """A closed-form model of unit mass, set by its cutoff frequency omega_c > 0."""

    omega_c: float = 1.0

    def __post_init__(self):
        omega_c = float(self.omega_c)
        if not omega_c > 0.0:
            raise ValueError(f"cutoff frequency must be positive, got {omega_c}")
        object.__setattr__(self, "omega_c", omega_c)

    def mass(self):
        return 1.0


@dataclass(frozen=True)
class GaussianRadial(_CutoffRadial):
    """P(omega) = sqrt(2/pi) exp(-omega^2 / 2 omega_c^2) / omega_c^3 on [0, inf)."""

    def weight(self, omega):
        y = np.asarray(omega) / self.omega_c
        return _SQRT_2_OVER_PI * y * y * np.exp(-0.5 * y * y) / self.omega_c

    def support(self):
        # weight below 1e-36 of its peak beyond 13 omega_c
        return 0.0, 13.0 * self.omega_c

    # Clamping |x| to _GAUSS_ZERO in the exp(-x^2/2) forms changes no value
    # (the factor is already 0 there) and keeps x^2 finite.

    def expectations(self, t, derivative=False):
        x = self.omega_c * np.asarray(t, dtype=float)
        xa = np.minimum(np.abs(x), _GAUSS_ZERO)
        c = np.exp(-0.5 * xa * xa) * (1.0 - xa * xa)
        # exp(-x^2/2) erfi(x/sqrt 2) rewritten through the Dawson function (the
        # naive product overflows against underflow for x >~ 38); from
        # _GAUSS_FAR on, the asymptotic series replaces it
        far = np.abs(x) >= _GAUSS_FAR
        any_far = far.any()
        xn = np.where(far, 0.0, x) if any_far else x
        daw = _dawsn(xn / math.sqrt(2.0))
        s = _SQRT_2_OVER_PI * xn + (1.0 - xn * xn) * _TWO_OVER_SQRT_PI * daw
        if any_far:
            s = np.where(far, _gaussian_tail(x, _GAUSS_SIN_TAIL, odd=True), s)
        if not derivative:
            return c, s
        xc = np.maximum(np.minimum(x, _GAUSS_ZERO), -_GAUSS_ZERO)
        dc = -self.omega_c * xc * (3.0 - xc * xc) * np.exp(-0.5 * xc * xc)
        ds = self.omega_c * (_SQRT_2_OVER_PI * (2.0 - xn * xn)
                             - _TWO_OVER_SQRT_PI * xn * (3.0 - xn * xn) * daw)
        if any_far:
            ds = np.where(far, self.omega_c * _gaussian_tail(x, _GAUSS_DSIN_TAIL, odd=False), ds)
        return c, s, dc, ds


@dataclass(frozen=True)
class ExponentialCutoffRadial(_CutoffRadial):
    """P(omega) = omega exp(-omega/omega_c) / (6 omega_c^4) on [0, inf)."""

    def weight(self, omega):
        y = np.asarray(omega) / self.omega_c
        return y ** 3 * np.exp(-y) / (6.0 * self.omega_c)

    def support(self):
        return 0.0, 90.0 * self.omega_c

    def expectations(self, t, derivative=False):
        x = self.omega_c * np.asarray(t, dtype=float)
        # beyond _EXP_FAR the same rational forms are taken in y = 1/x
        far = np.abs(x) > _EXP_FAR
        any_far = far.any()
        if any_far:
            xn = np.where(far, 0.0, x)
            y = 1.0 / np.where(far, x, _EXP_FAR)
            v = y * y
            y5 = y * v * v
        else:
            xn = x
        u = xn * xn
        q = _pow(1.0 + u, 4)
        c = (1.0 - 6.0 * u + u * u) / q
        s = 4.0 * xn * (1.0 - u) / q
        if any_far:
            q = _pow(1.0 + v, 4)
            c = np.where(far, (1.0 - 6.0 * v + v * v) * (v * v) / q, c)
            s = np.where(far, 4.0 * y5 * (v - 1.0) / q, s)
        if not derivative:
            return c, s
        q = _pow(1.0 + u, 5)
        dc = -4.0 * self.omega_c * xn * (5.0 - 10.0 * u + u * u) / q
        ds = 4.0 * self.omega_c * (5.0 * u * u - 10.0 * u + 1.0) / q
        if any_far:
            q = _pow(1.0 + v, 5)
            dc = np.where(far, -4.0 * self.omega_c * y5 * (5.0 * v * v - 10.0 * v + 1.0) / q, dc)
            ds = np.where(far, 4.0 * self.omega_c * (y5 * y) * (5.0 - 10.0 * v + v * v) / q, ds)
        return c, s, dc, ds


@dataclass(frozen=True)
class ReciprocalSquareRadial(_CutoffRadial):
    """P(omega) = 1 / (omega_c omega^2) on [0, omega_c]; effective weight uniform.

    The 1/omega^2 singularity of the density is cancelled exactly by the
    omega^2 measure factor, so everything works with the constant weight.
    """

    def weight(self, omega):
        w = np.asarray(omega, dtype=float)
        return np.where((w >= 0.0) & (w <= self.omega_c), 1.0 / self.omega_c, 0.0)

    def support(self):
        return 0.0, self.omega_c

    def expectations(self, t, derivative=False):
        x = self.omega_c * np.asarray(t, dtype=float)
        c = np.sinc(x / np.pi)
        # each series runs on x only where it is used (0 elsewhere), so a
        # huge |x| raises no overflow in x ** 5
        small = np.abs(x) < 1e-3
        xs, xq = np.where(small, 1.0, x), np.where(small, x, 0.0)
        series = xq / 2.0 - xq ** 3 / 24.0 + xq ** 5 / 720.0
        s = np.where(small, series, (1.0 - np.cos(xs)) / xs)
        if not derivative:
            return c, s
        # the derivatives switch to their series at a wider |x|
        small = np.abs(x) < 1e-2
        xs, xq = np.where(small, 1.0, x), np.where(small, x, 0.0)
        # xs^2, clamped where it would overflow; the terms over it are below
        # 1e-308 there, against 1e-154 for the terms over xs
        xa = np.minimum(np.abs(xs), 1e154)
        sq = xa * xa
        series = -xq / 3.0 + xq ** 3 / 30.0 - xq ** 5 / 840.0
        dc = self.omega_c * np.where(small, series, np.cos(xs) / xs - np.sin(xs) / sq)
        series = 0.5 - xq * xq / 8.0 + xq ** 4 / 144.0
        ds = self.omega_c * np.where(small, series, np.sin(xs) / xs - (1.0 - np.cos(xs)) / sq)
        return c, s, dc, ds


#: theta = half-width * |t| below which the segment moments mu_k come from
#: their power series, and from which they come from the upward recurrence
_SERIES_THETA = 2.0
#: even and odd series terms kept: the first dropped one is below 2^(2J)/(2J)! < 1e-17
_SERIES_TERMS = 13
#: upper bound on the elements of one (time block x segment) work array; at
#: 64 KB each, the dozen live temporaries stay in cache and add nothing
#: measurable to a process's peak memory
_BLOCK_ELEMENTS = 1 << 13


def _segment_series(r):
    """Power-series coefficients, in theta^2, of the even and odd parts of
    sum_k r_k mu_k(theta), mu_k(theta) = int_-1^1 v^k exp(i theta v) dv (one row per term)."""
    j = np.arange(_SERIES_TERMS)
    fact = np.cumprod(np.concatenate([[1.0], np.arange(1.0, 2 * _SERIES_TERMS + 1)]))
    sign = np.where(j % 2 == 0, 2.0, -2.0)[:, None]
    even = sum(r[k][None, :] / (k + 2 * j + 1)[:, None] for k in range(0, len(r), 2))
    odd = sum(r[k][None, :] / (k + 2 * j + 2)[:, None] for k in range(1, len(r), 2))
    return sign * even / fact[2 * j][:, None], sign * odd / fact[2 * j + 1][:, None]


def _series_parts(theta, phase, even, odd):
    """Real and imaginary parts of exp(i c t) sum_k r_k mu_k(theta), with
    mu_k from its power series in theta^2 (for theta < _SERIES_THETA);
    phase = c t."""
    x2 = theta * theta
    e, o = even[-1], odd[-1]
    for j in range(_SERIES_TERMS - 2, -1, -1):
        e = e * x2 + even[j]
        o = o * x2 + odd[j]
    o = o * theta
    cos_ct, sin_ct = np.cos(phase), np.sin(phase)
    return cos_ct * e - sin_ct * o, sin_ct * e + cos_ct * o


def _recurrence_parts(theta, node_phase, r):
    """Real and imaginary parts of sum_k r_k nu_k, nu_k = exp(i c t) mu_k(theta),
    by the upward recurrence nu_k = -i (exp(i b t) - (-1)^k exp(i a t) - k nu_(k-1)) / theta
    (for theta >= _SERIES_THETA, where it amplifies rounding by at most
    4!/theta^4 < 2); node_phase = omega t at the table nodes."""
    cos_node, sin_node = np.cos(node_phase), np.sin(node_phase)
    ca, sa, cb, sb = cos_node[:, :-1], sin_node[:, :-1], cos_node[:, 1:], sin_node[:, 1:]
    inv = 1.0 / theta
    nu_re = nu_im = out_re = out_im = 0.0
    for k, rk in enumerate(r):
        sign = 1.0 if k % 2 else -1.0
        z_re = cb + sign * ca - k * nu_re
        z_im = sb + sign * sa - k * nu_im
        nu_re, nu_im = z_im * inv, -z_re * inv
        out_re = out_re + rk * nu_re
        out_im = out_im + rk * nu_im
    return out_re, out_im


@dataclass(frozen=True, eq=False)
class TabulatedRadial(RadialModel):
    """Radial distribution sampled as (omega, P(omega)) pairs, linearly interpolated.

    The effective weight P(omega) omega^2 is a cubic on each segment, so every
    expectation is a sum of exact per-segment Fourier integrals (Filon's
    method with no approximation left: Filon, Proc. R. Soc. Edinburgh 49
    (1928); Iserles & Norsett, Proc. R. Soc. A 461 (2005)).  Writing a segment
    as midpoint c plus half-width d, with omega = c + d v,

        int w(omega) exp(i omega t) domega = exp(i c t) sum_k r_k mu_k(d t),

    where mu_k(theta) = int_-1^1 v^k exp(i theta v) dv comes from its power
    series for small |theta| and otherwise from the recurrence
    mu_k = [v^k exp(i theta v) / i theta]_-1^1 - (k / i theta) mu_(k-1),
    run on exp(i c t) mu_k so that it needs exp(i omega t) only at the nodes.
    The midpoint form keeps the polynomial well conditioned and avoids the
    1/t^4 cancellation of a global antiderivative.  The total weight may
    differ from 1, which `MapFamily` refuses.
    """

    omega: np.ndarray
    density: np.ndarray

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float).ravel()
        density = np.asarray(self.density, dtype=float).ravel()
        if omega.size < 2 or density.size != omega.size:
            raise ValueError("radial table needs at least two (omega, P) rows")
        if not (np.isfinite(omega).all() and np.isfinite(density).all()):
            raise ValueError("radial table entries must be finite")
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
        # w(c + u) = (p + g u)(c + u)^2 = sum_k q_k u^k on each segment
        c = 0.5 * (omega[:-1] + omega[1:])
        d = 0.5 * (omega[1:] - omega[:-1])
        p = 0.5 * (density[:-1] + density[1:])
        g = (density[1:] - density[:-1]) / (omega[1:] - omega[:-1])
        q = [p * c * c, 2.0 * p * c + g * c * c, p + 2.0 * g * c, g]
        q_omega = [c * q[0]] + [c * q[k] + q[k - 1] for k in range(1, 4)] + [q[3]]
        coefficients = []
        for qs in (q, q_omega):
            r = [qk * d ** (k + 1) for k, qk in enumerate(qs)]
            coefficients.append((r, *_segment_series(r)))
        object.__setattr__(self, "_mid", c)
        object.__setattr__(self, "_half", d)
        object.__setattr__(self, "_coefficients", tuple(coefficients))
        object.__setattr__(self, "_mass", float(self._fourier(0.0, 0)[0]))

    def weight(self, omega):
        w = np.asarray(omega, dtype=float)
        p = np.interp(w, self.omega, self.density, left=0.0, right=0.0)
        return p * w * w

    def support(self):
        return float(self.omega[0]), float(self.omega[-1])

    def mass(self):
        return self._mass

    def _fourier(self, t, moment):
        """Real and imaginary parts of int omega^moment w(omega) exp(i omega t) domega.

        Evaluated at |t| in blocks of whole rows (one time, every segment), so
        a time's value does not depend on the other times in the array; the
        imaginary part is then made odd in t.
        """
        t = np.asarray(t, dtype=float)
        at = np.abs(t).ravel()
        r, even, odd = self._coefficients[moment]
        re, im = np.empty(at.shape), np.empty(at.shape)
        step = max(1, _BLOCK_ELEMENTS // self._mid.size)
        for i in range(0, at.size, step):
            tb = at[i:i + step, None]
            theta = tb * self._half
            small = theta < _SERIES_THETA
            if small.all():
                seg_re, seg_im = _series_parts(theta, tb * self._mid, even, odd)
            elif not small.any():
                seg_re, seg_im = _recurrence_parts(theta, tb * self.omega, r)
            else:
                ser = _series_parts(np.minimum(theta, _SERIES_THETA), tb * self._mid, even, odd)
                rec = _recurrence_parts(np.maximum(theta, _SERIES_THETA), tb * self.omega, r)
                seg_re, seg_im = np.where(small, ser[0], rec[0]), np.where(small, ser[1], rec[1])
            re[i:i + step] = np.sum(seg_re, axis=1)
            im[i:i + step] = np.sum(seg_im, axis=1)
        im = np.where(t.ravel() < 0.0, -im, im)
        return re.reshape(t.shape), im.reshape(t.shape)

    def expectations(self, t, derivative=False):
        c, s = self._fourier(t, 0)
        if not derivative:
            return c, s
        ds, minus_dc = self._fourier(t, 1)
        return c, s, -minus_dc, ds


def expectation_quadrature(model: RadialModel, f, t: float) -> float:
    """Radial expectation of f(omega t) by adaptive panel quadrature.

    Independent of any closed form the model may carry; this is the oracle
    route for every model's `expectations`.  The panels break at the nodes of
    a table and, for t != 0, at the half-periods of f(omega t), unless there
    are more than 20,000 of them.
    """
    t = float(t)
    lo, hi = model.support()
    breaks = list(model.omega[1:-1]) if isinstance(model, TabulatedRadial) else []
    if abs(t) > 0.0:
        half_period = math.pi / abs(t)
        k0 = int(math.floor(lo / half_period)) + 1
        k1 = int(math.ceil(hi / half_period))
        if k1 - k0 <= 20000:
            breaks.extend(k * half_period for k in range(k0, k1))
    return panel_integrate(lambda w: f(w * t) * model.weight(w), lo, hi,
                           breakpoints=breaks, weight=model.weight)
