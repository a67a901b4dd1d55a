"""Tabulated radial tables: the exact per-segment Fourier route against a
Gauss-Legendre oracle in the local phase, its symmetries, and scalar/array
agreement."""

import math

import numpy as np
import pytest

from hamens import TabulatedRadial
from hamens.radial import _SERIES_THETA

from conftest import random_radial

#: each seed draws one table from its own numpy stream, so the tables depend
#: on nothing but the seed (not on literals anywhere in the code)
SEEDS = range(40)

#: the four values of expectations(t, derivative=True), in order
EXPECTATIONS = ("cos", "sin", "dcos", "dsin")
#: the integrand factor of each expectation, sign * omega^power * trig(omega t)
INTEGRANDS = {"cos": (1.0, 0, np.cos), "sin": (1.0, 0, np.sin),
              "dcos": (-1.0, 1, np.sin), "dsin": (1.0, 1, np.cos)}
#: +1 for the even expectations, -1 for the odd ones
PARITY = {"cos": 1.0, "sin": -1.0, "dcos": -1.0, "dsin": 1.0}


def table(rng):
    """Non-uniform table of 2-8 nodes, scaled to an effective mass near 1; it
    may start at omega_0 > 0 with P(omega_0) > 0, where the weight jumps from 0."""
    n = int(rng.integers(2, 9))
    gaps = rng.uniform(0.05, 1.0, n - 1)
    start = 0.0 if rng.random() < 0.5 else rng.uniform(0.1, 2.0)
    omega = start + np.concatenate([[0.0], np.cumsum(gaps)])
    density = rng.uniform(0.0, 1.0, n)
    density[0] = 0.0 if rng.random() < 0.5 else rng.uniform(0.2, 1.0)
    if not np.any(density > 0.0):
        density[-1] = 1.0
    weight = density * omega * omega
    rough_mass = float(np.sum(0.5 * (weight[:-1] + weight[1:]) * np.diff(omega)))
    return TabulatedRadial(omega, density / max(rough_mass, 1e-3))


def probe_times(model):
    """Times in the series branch, around the series/recurrence switch of the
    widest and the narrowest segment, and at large theta."""
    half = 0.5 * np.diff(model.omega)
    switch_wide, switch_narrow = _SERIES_THETA / half.max(), _SERIES_THETA / half.min()
    return [0.0, 0.3 * switch_wide, np.nextafter(switch_wide, 0.0), switch_wide,
            np.nextafter(switch_wide, np.inf), switch_narrow, 4.0 * switch_narrow,
            40.0 / half.min()]


def oracle(model, sign, power, trig, t=0.0, order=24):
    """sign * int omega^power trig(omega t) w(omega) domega by composite
    Gauss-Legendre quadrature on the pieces that the half-periods of omega t
    cut from the table segments.

    Each piece is integrated in its local phase v in [0, pi], omega t = k pi + v,
    so trig(omega t) = (-1)^k trig(v) carries no rounding from a large phase.
    (Near omega t = 7000 a phase rounds by up to 5e-13; that noise stalls
    adaptive panel quadrature of these integrals at a 1e-13 target.)  On a
    piece the weight times omega^power is a polynomial of degree at most 4 in
    v and trig(v) is entire, so the order-24 rule is exact to rounding.  At
    t = 0 the pieces are the segments and v is omega itself.
    """
    x, wx = np.polynomial.legendre.leggauss(order)
    a, b = model.omega[:-1], model.omega[1:]
    if t == 0.0:
        k, v0, v1, scale = np.zeros(a.size), a, b, 1.0
    else:
        k0 = np.floor(a * t / np.pi)
        count = (np.ceil(b * t / np.pi) - k0).astype(int)
        seg = np.repeat(np.arange(a.size), count)
        k = k0[seg] + np.arange(seg.size) - np.repeat(np.cumsum(count) - count, count)
        v0 = np.maximum(a[seg] * t - k * np.pi, 0.0)
        v1 = np.minimum(b[seg] * t - k * np.pi, np.pi)
        scale = t
    half = 0.5 * (v1 - v0)[:, None]
    v = 0.5 * (v0 + v1)[:, None] + half * x
    omega = (k[:, None] * np.pi + v) / scale
    sign_k = np.where(k % 2 == 0, 1.0, -1.0)[:, None]
    values = omega ** power * sign_k * trig(v if t else np.zeros_like(v)) * model.weight(omega)
    return sign * float(np.sum(half * wx * values)) / scale


def test_exact_route_matches_quadrature_oracle():
    for seed in SEEDS:
        model = table(np.random.default_rng(seed))
        for t in probe_times(model):
            for name, exact in zip(EXPECTATIONS, model.expectations(t, derivative=True)):
                reference = oracle(model, *INTEGRANDS[name], t)
                assert abs(exact - reference) < 1e-12, (seed, name, t)
        at_zero = model.expectations(0.0, derivative=True)
        assert abs(model.mass() - oracle(model, 1.0, 0, np.cos)) < 1e-12, seed
        assert abs(at_zero[3] - oracle(model, 1.0, 1, np.cos)) < 1e-12, seed
        assert at_zero[0] == model.mass(), seed


def test_parity_and_scalar_array_agreement():
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        model = table(rng)
        # up to 12 extra times in [-300, 300] next to the probe times
        ts = np.concatenate([rng.uniform(-300.0, 300.0, int(rng.integers(1, 13))),
                             probe_times(model)])
        for k, name in enumerate(EXPECTATIONS):
            def f(t):
                return model.expectations(t, derivative=True)[k]
            values = f(ts)
            assert np.array_equal(f(-ts), PARITY[name] * values), (seed, name)
            assert np.array_equal(values, [f(float(t)) for t in ts]), (seed, name)
            assert np.array_equal(f(ts[::-1].reshape(1, -1))[0], values[::-1]), (seed, name)


def test_tabulated_route_never_reaches_panel_quadrature(monkeypatch):
    import hamens.radial as radial

    def forbidden(*args, **kwargs):
        raise AssertionError("panel quadrature reached")

    monkeypatch.setattr(radial, "panel_integrate", forbidden)
    om = np.linspace(0.0, 3.0, 62)
    model = TabulatedRadial(om, np.exp(-(om / 1.2) ** 2))
    ts = np.linspace(0.0, 2000.0, 4001)
    for values in model.expectations(ts, derivative=True):
        assert np.all(np.isfinite(values))
    assert model.mass() > 0.0 and model.expectations(0.0, derivative=True)[3] > 0.0


def test_large_times_decay_like_the_edge_jump():
    # P jumps from P(3) to 0 at the last node, so <cos omega t> ~ P(3) 9 sin(3t)/t
    om = np.linspace(0.0, 3.0, 62)
    model = TabulatedRadial(om, np.exp(-(om / 1.2) ** 2))
    edge = model.density[-1] * 9.0
    for t in (1e4, 1e5):
        c, s = model.expectations(t)
        assert c == pytest.approx(edge * np.sin(3.0 * t) / t, abs=20 / t ** 2)
        assert s == pytest.approx(-edge * np.cos(3.0 * t) / t, abs=20 / t ** 2)


def jump_sum(model, t, moment):
    """int omega^moment w(omega) exp(i omega t) domega for t != 0, exactly, by
    integration by parts: with w = 0 outside the table, the integrand
    f = P omega^p (p = 2 + moment) is a polynomial of degree p + 1 on each
    segment, so

        int f exp(i omega t) domega = sum_k (-1)^(k+1) (i t)^-(k+1) sum_n J_k(n) exp(i omega_n t)

    over k = 0..p + 1, where J_k(n) is the jump of the k-th derivative of f
    at node n.  P is continuous inside the table, so by Leibniz only its own
    jump [P] (at the two ends) and the jump [P'] of its slope contribute:
    J_k = [P] (omega^p)^(k) + k [P'] (omega^p)^(k-1).  This uses no
    quadrature, so it is an oracle at any time.
    """
    omega, density = model.omega, model.density
    jump = np.zeros(omega.size)
    jump[0], jump[-1] = density[0], -density[-1]
    slope_jump = np.diff(np.concatenate([[0.0], np.diff(density) / np.diff(omega), [0.0]]))
    power = 2 + moment

    def monomial_derivative(k):
        if not 0 <= k <= power:
            return np.zeros(omega.size)
        return math.perm(power, k) * omega ** (power - k)

    t = np.asarray(t, dtype=float)
    phases = np.exp(1j * np.multiply.outer(t, omega))
    total = np.zeros(t.shape, dtype=complex)
    for k in range(power + 2):
        j_k = jump * monomial_derivative(k) + k * slope_jump * monomial_derivative(k - 1)
        total += (-1) ** (k + 1) * (1j * t) ** -(k + 1) * (phases @ j_k)
    return total


def test_expectations_match_the_jump_sum_at_long_times():
    # panel quadrature stalls on these integrals beyond t ~ 400, the jump sum
    # does not; on these tables the largest differences seen were 2.3e-15 for
    # the values and 1.4e-14 for the derivatives (seed 0 at t = 50.1)
    times = np.concatenate([[5.0, 17.3, 100.0, 400.0, 1600.0, 1e4], np.geomspace(5.0, 1e4, 400)])
    for seed in range(6):
        model = random_radial(seed, 12)
        c, s, dc, ds = model.expectations(times, derivative=True)
        values, weighted = jump_sum(model, times, 0), jump_sum(model, times, 1)
        assert np.abs(c - values.real).max() <= 5e-15, seed
        assert np.abs(s - values.imag).max() <= 5e-15, seed
        # d/dt int w exp(i omega t) = i int omega w exp(i omega t)
        assert np.abs(dc + weighted.imag).max() <= 3e-14, seed
        assert np.abs(ds - weighted.real).max() <= 3e-14, seed
