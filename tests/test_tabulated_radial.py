"""Tabulated radial tables: the exact per-segment Fourier route against the
panel-quadrature oracle, its symmetries, and scalar/array agreement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamens import TabulatedRadial
from hamens.quadrature import panel_integrate
from hamens.radial import _SERIES_THETA

#: deterministic, so Tier-1 runs the same examples every time
PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=40)

EXPECTATIONS = ("cos_expectation", "sin_expectation", "dcos_expectation", "dsin_expectation")
#: the integrand factor of each expectation, as a function of (omega, t)
INTEGRANDS = {"cos_expectation": lambda w, t: np.cos(w * t),
              "sin_expectation": lambda w, t: np.sin(w * t),
              "dcos_expectation": lambda w, t: -w * np.sin(w * t),
              "dsin_expectation": lambda w, t: w * np.cos(w * t)}
#: +1 for the even expectations, -1 for the odd ones
PARITY = {"cos_expectation": 1.0, "sin_expectation": -1.0,
          "dcos_expectation": -1.0, "dsin_expectation": 1.0}


@st.composite
def tables(draw):
    """Non-uniform table, scaled to an effective mass near 1; it may start at
    omega_0 > 0 with P(omega_0) > 0, where the weight jumps from 0."""
    n = draw(st.integers(2, 8))
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=n - 1, max_size=n - 1))
    start = draw(st.one_of(st.just(0.0), st.floats(0.1, 2.0)))
    omega = start + np.concatenate([[0.0], np.cumsum(gaps)])
    density = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    density[0] = draw(st.one_of(st.just(0.0), st.floats(0.2, 1.0)))
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


def oracle(model, g, t=0.0):
    """Adaptive panel quadrature of g(omega) w(omega), split at the table nodes
    and at the half-periods of omega t.  abs_tol = 1e-13 sits below the 1e-12
    comparison and above the roundoff of summing hundreds of panels, where
    the library default (1e-14) can stall the refinement."""
    lo, hi = model.support()
    breaks = list(model.omega[1:-1])
    if t > 0.0:
        breaks += list(np.arange(np.floor(lo * t / np.pi) + 1, np.ceil(hi * t / np.pi)) * np.pi / t)
    return panel_integrate(lambda w: g(w) * model.weight(w), lo, hi, breakpoints=breaks,
                           abs_tol=1e-13)


@PROPERTY
@given(tables())
def test_exact_route_matches_quadrature_oracle(model):
    for t in probe_times(model):
        for name in EXPECTATIONS:
            exact = getattr(model, name)(t)
            reference = oracle(model, lambda w: INTEGRANDS[name](w, t), t)
            assert abs(exact - reference) < 1e-12, (name, t)
    assert abs(model.mass() - oracle(model, np.ones_like)) < 1e-12
    assert abs(model.mean_omega() - oracle(model, lambda w: w)) < 1e-12
    assert model.cos_expectation(0.0) == model.mass()


@PROPERTY
@given(tables(), st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=12))
def test_parity_and_scalar_array_agreement(model, times):
    ts = np.array(times + probe_times(model))
    for name in EXPECTATIONS:
        f = getattr(model, name)
        values = f(ts)
        assert np.array_equal(f(-ts), PARITY[name] * values), name
        assert np.array_equal(values, [f(float(t)) for t in ts]), name
        assert np.array_equal(f(ts[::-1].reshape(1, -1))[0], values[::-1]), name


def test_tabulated_route_never_reaches_panel_quadrature(monkeypatch):
    import hamens.radial as radial

    def forbidden(*args, **kwargs):
        raise AssertionError("panel quadrature reached")

    monkeypatch.setattr(radial, "panel_integrate", forbidden)
    om = np.linspace(0.0, 3.0, 62)
    model = TabulatedRadial(om, np.exp(-(om / 1.2) ** 2))
    ts = np.linspace(0.0, 2000.0, 4001)
    for name in EXPECTATIONS:
        assert np.all(np.isfinite(getattr(model, name)(ts)))
    assert model.mass() > 0.0 and model.mean_omega() > 0.0


def test_large_times_decay_like_the_edge_jump():
    # P jumps from P(3) to 0 at the last node, so <cos omega t> ~ P(3) 9 sin(3t)/t
    om = np.linspace(0.0, 3.0, 62)
    model = TabulatedRadial(om, np.exp(-(om / 1.2) ** 2))
    edge = model.density[-1] * 9.0
    for t in (1e4, 1e5):
        assert model.cos_expectation(t) == pytest.approx(edge * np.sin(3.0 * t) / t, abs=20 / t ** 2)
        assert model.sin_expectation(t) == pytest.approx(-edge * np.cos(3.0 * t) / t, abs=20 / t ** 2)


def test_quadrature_defaults_stay_the_oracle_on_arrays(monkeypatch):
    # RadialModel.<method>(model, array) must run the quadrature for each
    # element, not dispatch to the model's own exact route
    import hamens.radial as radial
    from hamens.radial import RadialModel

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return panel_integrate(*args, **kwargs)

    monkeypatch.setattr(radial, "panel_integrate", counted)
    om = np.linspace(0.0, 3.0, 9)
    model = TabulatedRadial(om, np.exp(-(om / 1.2) ** 2))
    ts = np.array([0.0, 0.4, 1.3, 2.5, 7.0])
    for name in EXPECTATIONS:
        default = getattr(RadialModel, name)
        calls.clear()
        values = default(model, ts)
        assert len(calls) == ts.size, name
        assert np.array_equal(values, [default(model, float(t)) for t in ts]), name
        assert np.array_equal(default(model, ts.reshape(1, -1))[0], values), name
