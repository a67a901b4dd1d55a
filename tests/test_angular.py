"""Angular geometries: moment values, quadrature oracle, tabulated tables."""

import math

import numpy as np
import pytest

from hamens import (BagelAngular, CardioidAngular, DirectionalMoments, DumbbellAngular,
                    KneadedCardioidAngular, SphereAngular, TabulatedAngular,
                    directional_moments_quadrature)
from hamens.quadrature import sphere_integral

from conftest import random_table

BUILTINS = [SphereAngular(), BagelAngular(), DumbbellAngular(), CardioidAngular(),
            KneadedCardioidAngular(0.3)]


def test_known_moment_values():
    m = SphereAngular().moments()
    assert np.allclose(m.second, np.eye(3) / 3.0)
    assert np.allclose(m.first, 0.0)

    m = BagelAngular().moments()
    assert np.allclose(m.second, np.diag([3 / 8, 3 / 8, 1 / 4]))
    assert np.allclose(m.first, 0.0)

    m = DumbbellAngular().moments()
    assert np.allclose(m.second, np.diag([1 / 5, 1 / 5, 3 / 5]))

    m = CardioidAngular().moments()
    assert np.allclose(m.first, [0.0, 0.0, -1 / 3])
    assert np.allclose(m.second, np.eye(3) / 3.0)

    m = KneadedCardioidAngular(0.3).moments()
    assert np.allclose(m.second, np.diag([2.3 / 6, 1.7 / 6, 1 / 3]))
    assert np.allclose(m.first, [0.0, 0.0, -1 / 3])


@pytest.mark.parametrize("model", BUILTINS + [KneadedCardioidAngular(0.0),
                                              KneadedCardioidAngular(1.0)],
                         ids=lambda m: f"{type(m).__name__}{getattr(m, 'a', '')}")
def test_quadrature_moments_match_analytic(model):
    analytic = model.moments()
    quad = directional_moments_quadrature(model)
    assert np.max(np.abs(analytic.second - quad.second)) < 1e-10
    assert np.max(np.abs(analytic.first - quad.first)) < 1e-10


@pytest.mark.parametrize("model", BUILTINS[:4] + [KneadedCardioidAngular(a)
                                                  for a in (0.0, 0.3, 0.5, 1.0)],
                         ids=lambda m: f"{type(m).__name__}{getattr(m, 'a', '')}")
def test_density_integrates_to_xi(model):
    # mass() of a built-in returns the constant 1; quadrature of its density checks it
    assert abs(sphere_integral(model.density) - model.mass()) <= 1e-10


def test_second_moment_trace_is_angular_mass():
    for model in BUILTINS:
        m = model.moments()
        assert np.trace(m.second) == pytest.approx(1.0, abs=1e-12)


def test_kneaded_reduces_to_cardioid_at_zero_asymmetry():
    kn = KneadedCardioidAngular(0.0)
    ca = CardioidAngular()
    mk, mc = kn.moments(), ca.moments()
    assert np.array_equal(mk.second, mc.second)
    assert np.array_equal(mk.first, mc.first)
    th = np.linspace(0, math.pi, 45)[:, None]
    ph = np.linspace(0, 2 * math.pi, 91)[None, :]
    assert np.max(np.abs(kn.density(th, ph) - ca.density(th, ph))) == 0.0


def test_kneaded_moments_continuous_in_asymmetry():
    eps = 1e-9
    m0 = KneadedCardioidAngular(0.0).moments()
    m1 = KneadedCardioidAngular(eps).moments()
    assert np.max(np.abs(m0.second - m1.second)) < 1e-9


def test_kneaded_asymmetry_validation():
    with pytest.raises(ValueError):
        KneadedCardioidAngular(1.5)
    with pytest.raises(ValueError):
        KneadedCardioidAngular(-0.1)


def test_directional_moments_validation():
    with pytest.raises(ValueError):
        DirectionalMoments(np.zeros(3), np.diag([0.5, 0.5, -0.2]))
    with pytest.raises(ValueError):
        DirectionalMoments(np.zeros(3), np.array([[1, 0.5, 0], [0, 1, 0], [0, 0, 1.0]]))
    with pytest.raises(ValueError):
        DirectionalMoments(np.array([2.0, 0, 0]), np.eye(3) / 3)



def cardioid_table(n_theta=241, n_phi=121):
    th = np.linspace(0, math.pi, n_theta)
    ph = np.linspace(0, 2 * math.pi, n_phi)
    vals = np.broadcast_to(((1 - np.cos(th)) / (4 * math.pi))[:, None],
                           (n_theta, n_phi)).copy()
    return TabulatedAngular(th, ph, vals)


def test_tabulated_angular_matches_source_moments():
    tab = cardioid_table()
    m = tab.moments()
    ref = CardioidAngular().moments()
    assert abs(tab.mass() - 1.0) < 1e-4
    assert np.max(np.abs(m.second - ref.second)) < 1e-4
    assert np.max(np.abs(m.first - ref.first)) < 1e-4


def test_tabulated_angular_validation():
    th = np.linspace(0, math.pi, 5)
    ph = np.linspace(0, 2 * math.pi, 5)
    with pytest.raises(ValueError):
        TabulatedAngular(th, ph, -np.ones((5, 5)))
    with pytest.raises(ValueError):
        TabulatedAngular(th[:-1], ph, np.ones((4, 5)))  # theta does not reach pi
    with pytest.raises(ValueError):
        TabulatedAngular(th, ph, np.ones((5, 4)))


def test_tabulated_angular_needs_positive_mass():
    # a table with no mass has no moments to normalize
    th = np.linspace(0, math.pi, 5)
    ph = np.linspace(0, 2 * math.pi, 5)
    with pytest.raises(ValueError, match="positive mass"):
        TabulatedAngular(th, ph, np.zeros((5, 5)))
    one_node = np.zeros((5, 5))
    one_node[0, 0] = 1.0  # on the pole: its hat function still carries mass
    assert TabulatedAngular(th, ph, one_node).mass() > 0.0


def referee_moments(tab, mpmath):
    """Mass, <n_a> and <n_a n_b> (a <= b) of the bilinear table in 30-digit arithmetic.

    A 24 x 24 Gauss-Legendre product rule on every cell, with the interpolant
    evaluated at each node pair; no use is made of its separation into 1-D
    factors.  The integrands are entire and the cells at most 2pi wide, so the
    rule's error is below 1e-30.
    """
    mp = mpmath.mp
    upper = [(a, b) for a in range(3) for b in range(a, 3)]
    total = [0] * 10
    with mp.workdps(30):
        # degree 4 is the 24-point rule, its nodes mapped to [0, 1]
        nodes = [((x + 1) / 2, w / 2) for x, w in
                 mpmath.calculus.quadrature.GaussLegendre(mp).calc_nodes(4, mp.prec)]
        for i in range(tab.theta.size - 1):
            for j in range(tab.phi.size - 1):
                t0, t1, p0, p1 = (mp.mpf(float(x)) for x in (tab.theta[i], tab.theta[i + 1],
                                                              tab.phi[j], tab.phi[j + 1]))
                v00, v10, v01, v11 = (mp.mpf(float(tab.values[i + di, j + dj]))
                                      for di, dj in ((0, 0), (1, 0), (0, 1), (1, 1)))
                phis = [(up, wp, mp.cos(p0 + (p1 - p0) * up), mp.sin(p0 + (p1 - p0) * up))
                        for up, wp in nodes]
                for ut, wt in nodes:
                    st, ct = mp.sin(t0 + (t1 - t0) * ut), mp.cos(t0 + (t1 - t0) * ut)
                    for up, wp, cp, sp in phis:
                        dens = (1 - ut) * ((1 - up) * v00 + up * v01) + ut * ((1 - up) * v10 + up * v11)
                        weight = wt * wp * (t1 - t0) * (p1 - p0) * dens * st
                        n = (st * cp, st * sp, ct)
                        for k, val in enumerate([1, *n] + [n[a] * n[b] for a, b in upper]):
                            total[k] += weight * val
        return np.array([float(x) for x in total])


@pytest.mark.parametrize("seed, n_theta, n_phi", [(40, 2, 2), (41, 3, 4), (45, 4, 5)])
def test_tabulated_moments_match_a_2d_mpmath_referee(seed, n_theta, n_phi):
    mpmath = pytest.importorskip("mpmath")
    tab = random_table(seed, n_theta, n_phi)
    ref = referee_moments(tab, mpmath)
    m = tab.moments()
    assert abs(m.second[0, 1]) > 1e-3
    assert abs(tab.mass() - ref[0]) <= 1e-13
    assert np.max(np.abs(m.first - ref[1:4])) <= 1e-13
    upper = m.second[np.triu_indices(3)]
    assert np.max(np.abs(upper - ref[4:])) <= 1e-13


def test_tabulated_moments_need_no_density_calls(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the table's moments evaluated its density")

    monkeypatch.setattr(TabulatedAngular, "density", forbidden)
    tab = random_table(7, 6, 9)
    tab.moments()
