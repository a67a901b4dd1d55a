"""Radial distributions: closed forms vs the quadrature oracle."""

import numpy as np
import pytest

from hamens import (ExponentialCutoffRadial, GaussianRadial, RadialModel,
                    ReciprocalSquareRadial, TabulatedRadial, expectation_quadrature)

BUILTINS = [GaussianRadial(), ExponentialCutoffRadial(), ReciprocalSquareRadial()]


def normalized_gaussian_table(n=12001, upper=13.0):
    om = np.linspace(0.0, upper, n)
    dens = np.sqrt(2.0 / np.pi) * np.exp(-0.5 * om * om)
    tab = TabulatedRadial(om, dens)
    return TabulatedRadial(om, dens / tab.mass())


def test_cos_expectation_trivial_values():
    assert GaussianRadial(1.0).cos_expectation(0.0) == pytest.approx(1.0)
    # the polynomial bracket 1 - (omega_c t)^2 vanishes at omega_c t = 1
    assert GaussianRadial(1.0).cos_expectation(1.0) == pytest.approx(0.0, abs=1e-15)
    assert ReciprocalSquareRadial(1.0).cos_expectation(np.pi) == pytest.approx(0.0, abs=1e-15)


def test_cos_expectation_exp_cutoff_value():
    # (1 - 6 + 1)/2^4 = -1/4, cross-checked against quadrature
    r = ExponentialCutoffRadial(1.0)
    assert r.cos_expectation(1.0) == pytest.approx(-0.25, abs=1e-12)
    assert expectation_quadrature(r, np.cos, 1.0) == pytest.approx(-0.25, abs=1e-9)


def test_sin_expectation_trivial_values():
    for r in BUILTINS:
        assert r.sin_expectation(0.0) == pytest.approx(0.0, abs=1e-15)
    # numerator -4 + 4 = 0 at omega_c t = 1
    assert ExponentialCutoffRadial(1.0).sin_expectation(1.0) == pytest.approx(0.0, abs=1e-15)


def test_sin_expectation_gaussian_vs_quadrature():
    r = GaussianRadial(1.0)
    oracle = expectation_quadrature(r, np.sin, 0.5)
    assert abs(r.sin_expectation(0.5) - oracle) < 1e-9


def test_sin_expectation_positive_at_small_times():
    # <sin omega t> ~ <omega> t > 0 for small positive t
    for r in BUILTINS:
        assert r.sin_expectation(0.01) > 0.0


@pytest.mark.parametrize("radial", BUILTINS, ids=lambda r: type(r).__name__)
def test_closed_forms_match_quadrature(radial):
    for t in [0.05, 0.1, 0.7, 1.0, 2.5, 5.0, 9.0]:
        assert abs(radial.cos_expectation(t) - expectation_quadrature(radial, np.cos, t)) < 1e-9
        assert abs(radial.sin_expectation(t) - expectation_quadrature(radial, np.sin, t)) < 1e-9


@pytest.mark.parametrize("radial", BUILTINS, ids=lambda r: type(r).__name__)
def test_builtin_weight_integrates_to_one(radial):
    # mass() of a built-in returns the constant 1; quadrature of its weight checks it
    assert abs(RadialModel.mass(radial) - 1.0) <= 1e-10


def test_gaussian_sin_stable_to_large_arguments():
    # the Dawson-function route must hold to omega_c t = 30
    r = GaussianRadial(1.0)
    for t in [12.0, 20.0, 30.0]:
        assert abs(r.sin_expectation(t) - expectation_quadrature(r, np.sin, t)) < 1e-9
        assert abs(r.cos_expectation(t) - expectation_quadrature(r, np.cos, t)) < 1e-9


@pytest.mark.parametrize("x", [1e3, 1e8, 1e154, 1e300])
def test_gaussian_forms_finite_at_huge_arguments(x):
    # e^{-x^2/2} terms vanish; <sin> and its derivative follow the Dawson asymptote
    r = GaussianRadial(1.0)
    values = [r.cos_expectation(x), r.sin_expectation(x), r.dcos_expectation(x),
              r.dsin_expectation(x)]
    assert np.all(np.isfinite(values)) and np.all(np.abs(values) <= 1.0)
    assert values[0] == 0.0 and values[2] == 0.0
    u, lead = 1.0 / x, np.sqrt(2.0 / np.pi)
    assert values[1] == pytest.approx(-lead * (2 * u ** 3 + 12 * u ** 5), rel=1e-9, abs=1e-300)
    assert values[3] == pytest.approx(lead * (6 * u ** 4 + 60 * u ** 6), rel=1e-9, abs=1e-300)
    assert np.array_equal(r.sin_expectation(np.array([-x, x])), [-values[1], values[1]])


def test_gaussian_asymptote_joins_the_closed_form():
    from hamens.radial import _GAUSS_FAR
    r = GaussianRadial(1.0)
    below, at = np.nextafter(_GAUSS_FAR, 0.0), _GAUSS_FAR
    assert r.sin_expectation(below) == pytest.approx(r.sin_expectation(at), rel=1e-10)
    assert r.dsin_expectation(below) == pytest.approx(r.dsin_expectation(at), rel=1e-8)


def test_expectation_bounds_and_initial_values():
    ts = np.linspace(0.0, 25.0, 400)
    for r in BUILTINS:
        c = r.cos_expectation(ts)
        s = r.sin_expectation(ts)
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
        dc = r.dcos_expectation(ts)
        ds = r.dsin_expectation(ts)
        dc_fd = (r.cos_expectation(ts + h) - r.cos_expectation(ts - h)) / (2 * h)
        ds_fd = (r.sin_expectation(ts + h) - r.sin_expectation(ts - h)) / (2 * h)
        scale_c = np.maximum(np.abs(dc), 1e-2)
        scale_s = np.maximum(np.abs(ds), 1e-2)
        assert np.max(np.abs(dc - dc_fd) / scale_c) < 1e-6
        assert np.max(np.abs(ds - ds_fd) / scale_s) < 1e-6


def test_derivative_at_zero_equals_mean_omega():
    for r in BUILTINS:
        assert r.dsin_expectation(0.0) == pytest.approx(r.mean_omega(), rel=1e-12)
        assert r.dcos_expectation(0.0) == pytest.approx(0.0, abs=1e-15)


def test_mean_omega_closed_forms_against_quadrature():
    from hamens.radial import RadialModel
    expected = {
        GaussianRadial: 2.0 * np.sqrt(2.0 / np.pi),
        ExponentialCutoffRadial: 4.0,
        ReciprocalSquareRadial: 0.5,
    }
    for r in BUILTINS:
        oracle = RadialModel.mean_omega(r)
        assert r.mean_omega() == pytest.approx(expected[type(r)], rel=1e-12)
        assert r.mean_omega() == pytest.approx(oracle, rel=1e-10)
    # cutoff scaling
    assert GaussianRadial(2.5).mean_omega() == pytest.approx(2.5 * 2.0 * np.sqrt(2.0 / np.pi))


def test_cutoff_scaling_of_expectations():
    r1, r2 = GaussianRadial(1.0), GaussianRadial(2.0)
    for t in [0.3, 1.1, 4.0]:
        assert r2.cos_expectation(t) == pytest.approx(r1.cos_expectation(2.0 * t), rel=1e-13)
        assert r2.sin_expectation(t) == pytest.approx(r1.sin_expectation(2.0 * t), rel=1e-13)


def test_reciprocal_square_quadrature_at_pi():
    v = expectation_quadrature(ReciprocalSquareRadial(1.0), np.cos, np.pi)
    assert abs(v) < 1e-10


def test_tabulated_copy_of_gaussian():
    tab = normalized_gaussian_table()
    ref = GaussianRadial(1.0)
    assert abs(tab.mass() - 1.0) < 1e-12
    assert abs(tab.cos_expectation(1.0)) < 1e-6
    for t in [0.2, 1.0, 3.0]:
        assert abs(tab.cos_expectation(t) - ref.cos_expectation(t)) < 1e-6
        assert abs(tab.sin_expectation(t) - ref.sin_expectation(t)) < 1e-6
        assert abs(tab.dsin_expectation(t) - ref.dsin_expectation(t)) < 1e-5
    assert abs(tab.mean_omega() - ref.mean_omega()) < 1e-5


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
