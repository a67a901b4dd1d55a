"""Radial distributions: closed forms vs the quadrature oracle."""

import math
import warnings

import numpy as np
import pytest

from hamens import (ExponentialCutoffRadial, GaussianRadial, ReciprocalSquareRadial,
                    TabulatedRadial, expectation_quadrature, quadrature)

BUILTINS = [GaussianRadial(), ExponentialCutoffRadial(), ReciprocalSquareRadial()]
_OMEGA = np.linspace(0.0, 3.0, 62)
#: every model class: the built-ins and a smooth 62-node table
MODELS = BUILTINS + [TabulatedRadial(_OMEGA, np.exp(-(_OMEGA / 1.2) ** 2))]


def mean_cos(r, t):
    return r.expectations(t)[0]


def mean_sin(r, t):
    return r.expectations(t)[1]


def mean_dcos(r, t):
    return r.expectations(t, derivative=True)[2]


def mean_dsin(r, t):
    return r.expectations(t, derivative=True)[3]


def normalized_gaussian_table(n=12001, upper=13.0):
    om = np.linspace(0.0, upper, n)
    dens = np.sqrt(2.0 / np.pi) * np.exp(-0.5 * om * om)
    tab = TabulatedRadial(om, dens)
    return TabulatedRadial(om, dens / tab.mass())


def test_cos_expectation_trivial_values():
    assert mean_cos(GaussianRadial(1.0), 0.0) == pytest.approx(1.0)
    # the polynomial bracket 1 - (omega_c t)^2 vanishes at omega_c t = 1
    assert mean_cos(GaussianRadial(1.0), 1.0) == pytest.approx(0.0, abs=1e-15)
    assert mean_cos(ReciprocalSquareRadial(1.0), np.pi) == pytest.approx(0.0, abs=1e-15)


def test_cos_expectation_exp_cutoff_value():
    # (1 - 6 + 1)/2^4 = -1/4, cross-checked against quadrature
    r = ExponentialCutoffRadial(1.0)
    assert mean_cos(r, 1.0) == pytest.approx(-0.25, abs=1e-12)
    assert expectation_quadrature(r, np.cos, 1.0) == pytest.approx(-0.25, abs=1e-9)


def test_sin_expectation_trivial_values():
    for r in BUILTINS:
        assert mean_sin(r, 0.0) == pytest.approx(0.0, abs=1e-15)
    # numerator -4 + 4 = 0 at omega_c t = 1
    assert mean_sin(ExponentialCutoffRadial(1.0), 1.0) == pytest.approx(0.0, abs=1e-15)


def test_sin_expectation_gaussian_vs_quadrature():
    r = GaussianRadial(1.0)
    oracle = expectation_quadrature(r, np.sin, 0.5)
    assert abs(mean_sin(r, 0.5) - oracle) < 1e-9


def test_sin_expectation_positive_at_small_times():
    # <sin omega t> ~ <omega> t > 0 for small positive t
    for r in BUILTINS:
        assert mean_sin(r, 0.01) > 0.0


@pytest.mark.parametrize("radial", MODELS, ids=lambda r: type(r).__name__)
def test_closed_forms_match_quadrature(radial):
    ts = np.array([0.05, 0.1, 0.7, 1.0, 2.5, 5.0, 9.0])
    for t in ts:
        assert abs(mean_cos(radial, t) - expectation_quadrature(radial, np.cos, t)) < 1e-9
        assert abs(mean_sin(radial, t) - expectation_quadrature(radial, np.sin, t)) < 1e-9
    # an array of times gives, bit for bit, the values of one call per time:
    # both branches of every piecewise form, negative times and huge ones
    ts = np.concatenate([ts, -ts, [0.0, 3e-4, 5e-3, 2e-2, 19.999, 20.0, 45.0, 1e3, 1e8],
                         np.linspace(0.0, 10.0, 401)])
    batched = radial.expectations(ts, derivative=True)
    for k, values in enumerate(batched):
        assert values.shape == ts.shape
        assert np.array_equal(values, [radial.expectations(float(t), True)[k] for t in ts]), k
    assert all(np.array_equal(a, b) for a, b in zip(radial.expectations(ts), batched))


@pytest.mark.parametrize("radial", BUILTINS, ids=lambda r: type(r).__name__)
def test_builtin_weight_integrates_to_one(radial):
    # mass() of a built-in returns the constant 1; quadrature of its weight checks it
    assert abs(expectation_quadrature(radial, np.cos, 0.0) - 1.0) <= 1e-10


def test_gaussian_sin_stable_to_large_arguments():
    # the Dawson-function route must hold to omega_c t = 30
    r = GaussianRadial(1.0)
    for t in [12.0, 20.0, 30.0]:
        assert abs(mean_sin(r, t) - expectation_quadrature(r, np.sin, t)) < 1e-9
        assert abs(mean_cos(r, t) - expectation_quadrature(r, np.cos, t)) < 1e-9


@pytest.mark.parametrize("x", [1e3, 1e8, 1e154, 1e300])
def test_gaussian_forms_finite_at_huge_arguments(x):
    # e^{-x^2/2} terms vanish; <sin> and its derivative follow the Dawson asymptote
    r = GaussianRadial(1.0)
    values = list(r.expectations(x, derivative=True))
    assert np.all(np.isfinite(values)) and np.all(np.abs(values) <= 1.0)
    assert values[0] == 0.0 and values[2] == 0.0
    u, lead = 1.0 / x, np.sqrt(2.0 / np.pi)
    assert values[1] == pytest.approx(-lead * (2 * u ** 3 + 12 * u ** 5), rel=1e-9, abs=1e-300)
    assert values[3] == pytest.approx(lead * (6 * u ** 4 + 60 * u ** 6), rel=1e-9, abs=1e-300)
    assert np.array_equal(mean_sin(r, np.array([-x, x])), [-values[1], values[1]])


def test_gaussian_asymptote_joins_the_closed_form():
    from hamens.radial import _GAUSS_FAR
    r = GaussianRadial(1.0)
    below, at = np.nextafter(_GAUSS_FAR, 0.0), _GAUSS_FAR
    assert mean_sin(r, below) == pytest.approx(mean_sin(r, at), rel=1e-10)
    assert mean_dsin(r, below) == pytest.approx(mean_dsin(r, at), rel=1e-8)


def test_dawson_against_mpmath():
    # 30-digit reference sqrt(pi)/2 exp(-x^2) erfi(x); the points include 0, the
    # smallest subnormals, both sides of the Taylor switch and, densely, the
    # n0 = 0 and n0 = 2 cells of Rybicki's sum, where its pairs cancel
    mp = pytest.importorskip("mpmath")
    from hamens.radial import _DAWSON_TAYLOR, _dawsn

    edge = np.nextafter(_DAWSON_TAYLOR, [0.0, 1.0])
    xs = np.concatenate([np.linspace(-15.0, 15.0, 6001),
                         np.random.default_rng(9).uniform(-1.0, 1.0, 1000),
                         [0.0, 5e-324, -5e-324, _DAWSON_TAYLOR, -_DAWSON_TAYLOR], edge, -edge])
    with mp.workdps(30):
        ref = np.array([float(mp.sqrt(mp.pi) / 2 * mp.exp(-mp.mpf(x) ** 2) * mp.erfi(mp.mpf(x)))
                        for x in xs])
    values = _dawsn(xs)
    zero = xs == 0.0
    assert np.all(values[zero] == 0.0)
    assert np.max(np.abs(values - ref)[~zero] / np.abs(ref[~zero])) <= 2e-15
    assert np.array_equal(_dawsn(-xs), -values)
    assert np.array_equal(values, [_dawsn(float(x)) for x in xs])
    assert np.array_equal(_dawsn(xs[:7000].reshape(70, 100)), values[:7000].reshape(70, 100))


@pytest.mark.parametrize("x", [1e3, 1e154, 1e200, 1e300])
def test_exp_cutoff_forms_finite_at_huge_arguments(x):
    # far out the rational forms are taken in y = 1/x; x^2 used to overflow
    # into inf / inf.  Leading terms: y^4 (1 - 10 y^2), -4 y^5 (1 - 5 y^2),
    # -4 y^5 (1 - 15 y^2), 20 y^6 (1 - 7 y^2)
    r = ExponentialCutoffRadial(1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = r.expectations(x, derivative=True)
        batched = r.expectations(np.array([0.5, -x, x]), derivative=True)
    y, v = 1.0 / x, 1.0 / (x * x)
    leading = [y ** 4 * (1 - 10 * v), -4 * y ** 5 * (1 - 5 * v),
               -4 * y ** 5 * (1 - 15 * v), 20 * y ** 6 * (1 - 7 * v)]
    assert np.all(np.isfinite(values))
    assert values == pytest.approx(leading, rel=1e-9, abs=1e-300)
    parity = [1.0, -1.0, -1.0, 1.0]
    for k, column in enumerate(batched):
        assert np.array_equal(column, [r.expectations(0.5, True)[k], parity[k] * values[k], values[k]])


def test_exp_cutoff_far_form_joins_the_closed_form():
    from hamens.radial import _EXP_FAR
    r = ExponentialCutoffRadial(1.0)
    below, above = r.expectations(_EXP_FAR, True), r.expectations(np.nextafter(_EXP_FAR, 2 * _EXP_FAR), True)
    assert above == pytest.approx(below, rel=1e-14)


def test_expectation_bounds_and_initial_values():
    ts = np.linspace(0.0, 25.0, 400)
    for r in BUILTINS:
        c, s = r.expectations(ts)
        assert c[0] == pytest.approx(1.0)
        assert s[0] == pytest.approx(0.0, abs=1e-15)
        assert np.all(np.abs(c) <= 1.0 + 1e-12)
        assert np.all(np.abs(s) <= 1.0 + 1e-12)


def test_derivatives_match_central_differences():
    # the scale floor keeps the comparison meaningful where the derivative
    # itself sits below the finite-difference roundoff (~2e-9 at step 1e-6)
    h = 1e-6
    ts = np.linspace(0.05, 8.0, 160)
    for r in BUILTINS:
        _, _, dc, ds = r.expectations(ts, derivative=True)
        dc_fd = (mean_cos(r, ts + h) - mean_cos(r, ts - h)) / (2 * h)
        ds_fd = (mean_sin(r, ts + h) - mean_sin(r, ts - h)) / (2 * h)
        scale_c = np.maximum(np.abs(dc), 1e-2)
        scale_s = np.maximum(np.abs(ds), 1e-2)
        assert np.max(np.abs(dc - dc_fd) / scale_c) < 1e-6
        assert np.max(np.abs(ds - ds_fd) / scale_s) < 1e-6


#: <omega> of each built-in effective weight at omega_c = 1
MEAN_OMEGA = {GaussianRadial: 2.0 * np.sqrt(2.0 / np.pi), ExponentialCutoffRadial: 4.0,
              ReciprocalSquareRadial: 0.5}


def test_derivative_at_zero_equals_mean_omega():
    # d/dt <sin omega t> at 0 is <omega>
    for r in BUILTINS:
        assert mean_dsin(r, 0.0) == pytest.approx(MEAN_OMEGA[type(r)], rel=1e-12)
        assert mean_dcos(r, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_mean_omega_closed_forms_against_quadrature():
    # the quadrature oracle of f(x) = x at t = 1 is <omega>, the weight's first moment
    for r in BUILTINS:
        oracle = expectation_quadrature(r, lambda x: x, 1.0)
        assert mean_dsin(r, 0.0) == pytest.approx(MEAN_OMEGA[type(r)], rel=1e-12)
        assert mean_dsin(r, 0.0) == pytest.approx(oracle, rel=1e-10)
    # cutoff scaling
    assert mean_dsin(GaussianRadial(2.5), 0.0) == pytest.approx(2.5 * 2.0 * np.sqrt(2.0 / np.pi))


def test_cutoff_scaling_of_expectations():
    r1, r2 = GaussianRadial(1.0), GaussianRadial(2.0)
    for t in [0.3, 1.1, 4.0]:
        assert mean_cos(r2, t) == pytest.approx(mean_cos(r1, 2.0 * t), rel=1e-13)
        assert mean_sin(r2, t) == pytest.approx(mean_sin(r1, 2.0 * t), rel=1e-13)


def test_reciprocal_square_quadrature_at_pi():
    v = expectation_quadrature(ReciprocalSquareRadial(1.0), np.cos, np.pi)
    assert abs(v) < 1e-10


def test_panel_refinement_splits_a_narrow_bump(monkeypatch):
    # one panel with no breakpoints cannot resolve a bump of width 0.01, so the
    # worst panel is split and both halves go through one batched call per order
    sizes = []
    batch = quadrature._batch_panel_values

    def counted(f, lo, hi, order):
        sizes.append(lo.size)
        return batch(f, lo, hi, order)

    monkeypatch.setattr(quadrature, "_batch_panel_values", counted)
    centre, width = 0.3, 0.01

    def bump(x):
        return np.exp(-0.5 * ((x - centre) / width) ** 2)

    value = quadrature.panel_integrate(bump, 0.0, 1.0, weight=bump)
    exact = width * math.sqrt(0.5 * math.pi) * (math.erf((1.0 - centre) / (width * math.sqrt(2.0)))
                                                + math.erf(centre / (width * math.sqrt(2.0))))
    assert abs(value - exact) <= 1e-12
    assert sizes[:2] == [1, 1] and len(sizes) > 2 and set(sizes[2:]) == {2}


def test_tabulated_copy_of_gaussian():
    tab = normalized_gaussian_table()
    ref = GaussianRadial(1.0)
    assert abs(tab.mass() - 1.0) < 1e-12
    assert abs(mean_cos(tab, 1.0)) < 1e-6
    for t in [0.2, 1.0, 3.0]:
        assert abs(mean_cos(tab, t) - mean_cos(ref, t)) < 1e-6
        assert abs(mean_sin(tab, t) - mean_sin(ref, t)) < 1e-6
        assert abs(mean_dsin(tab, t) - mean_dsin(ref, t)) < 1e-5
    assert abs(mean_dsin(tab, 0.0) - mean_dsin(ref, 0.0)) < 1e-5


def test_tabulated_validation():
    with pytest.raises(ValueError):
        TabulatedRadial(np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        TabulatedRadial(np.array([0.0, 1.0]), np.array([1.0, -0.5]))
    with pytest.raises(ValueError):
        TabulatedRadial(np.array([1.0, 0.5]), np.array([1.0, 1.0]))


def test_builtin_cutoff_validation():
    with pytest.raises(ValueError):
        GaussianRadial(0.0)
    with pytest.raises(ValueError):
        ExponentialCutoffRadial(-2.0)
