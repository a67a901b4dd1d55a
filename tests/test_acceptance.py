"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import math
import time

import numpy as np
import pytest

from hamens import (BagelAngular, CardioidAngular, DensityMatrix, DirectionalMoments,
                    DumbbellAngular, ExponentialCutoffRadial, GaussianRadial,
                    KneadedCardioidAngular, MapFamily, ReciprocalSquareRadial,
                    SphereAngular, bloch_generators,
                    choi_check, directional_moments_quadrature,
                    integrate_master, map_matrices, mc_trajectory,
                    pole_scan, purity_trajectory, SamplerConfig)
from hamens.dynmap import bloch_trajectory, diagonal_components
from hamens.generator import _generators, _regular_split
from hamens.validation import builtin_families, check_extraction, pole_free_times

from conftest import axis_rates, d_denominator, sign_change_roots, sphere_rate

ANGULAR_VALUES = [
    (SphereAngular(), np.zeros(3), np.diag([1 / 3, 1 / 3, 1 / 3])),
    (BagelAngular(), np.zeros(3), np.diag([3 / 8, 3 / 8, 1 / 4])),
    (DumbbellAngular(), np.zeros(3), np.diag([1 / 5, 1 / 5, 3 / 5])),
    (CardioidAngular(), np.array([0, 0, -1 / 3]), np.diag([1 / 3, 1 / 3, 1 / 3])),
    (KneadedCardioidAngular(0.3), np.array([0, 0, -1 / 3]),
     np.diag([(2 + 0.3) / 6, (2 - 0.3) / 6, 1 / 3])),
]


def report(num, label, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {num} [{status}] {label}{': ' + detail if detail else ''}")
    return passed


def test_criterion_1_moment_tables():
    start = time.monotonic()
    worst = 0.0
    for model, first, second in ANGULAR_VALUES:
        analytic = model.moments()
        quad = directional_moments_quadrature(model)
        worst = max(worst,
                    float(np.max(np.abs(analytic.first - first))),
                    float(np.max(np.abs(analytic.second - second))),
                    float(np.max(np.abs(quad.first - first))),
                    float(np.max(np.abs(quad.second - second))))
    elapsed = time.monotonic() - start
    ok = worst < 1e-10 and elapsed < 1.0
    assert report(1, "moment tables vs analytic values",
                  ok, f"max dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_purity_saturation():
    start = time.monotonic()
    fam_g = MapFamily.from_ensemble(GaussianRadial(), SphereAngular())
    p10 = float(purity_trajectory(fam_g, DensityMatrix([0, 0, 1]), np.array([10.0]))[0])
    dev_g = abs(p10 - 5 / 9)

    fam_rs = MapFamily.from_ensemble(ReciprocalSquareRadial(), SphereAngular())
    window = np.linspace(80.0, 100.0, 2001)
    mean_rs = float(np.mean(purity_trajectory(fam_rs, DensityMatrix([0, 0, 1]), window)))
    dev_rs = abs(mean_rs - 5 / 9)
    elapsed = time.monotonic() - start
    ok = dev_g < 1e-3 and dev_rs < 5e-3 and elapsed < 1.0
    assert report(2, "purity saturates at 5/9",
                  ok, f"gauss dev {dev_g:.2e}, recip-square dev {dev_rs:.2e}, {elapsed:.2f}s")


def test_criterion_3_closed_form_rates():
    h = 1e-6
    worst_fd = 0.0
    radials = [GaussianRadial(), ExponentialCutoffRadial(), ReciprocalSquareRadial()]
    forms = [
        lambda x: x * (3 - x * x) / (2 * (1 - x * x) + math.exp(x * x / 2)),
        lambda x: 4 * x * (((3 - x**2) * (1 + x**2) + 2 * (1 - 6 * x**2 + x**4))
                           / (2 * (1 - 6 * x**2 + x**4) * (1 + x**2) + (1 + x**2) ** 5)),
        lambda x: (math.sin(x) - x * math.cos(x)) / (2 * x * math.sin(x) + x * x),
    ]
    for radial, form in zip(radials, forms):
        for t in np.linspace(0.01, 1.5, 150):
            w = lambda tt: (2 * radial.expectations(tt)[0] + 1) / 3
            fd = -(w(t + h) - w(t - h)) / (2 * h) / (2 * w(t))
            worst_fd = max(worst_fd,
                           abs(form(t) - fd) / abs(fd),
                           abs(sphere_rate(radial, t) - fd) / abs(fd))

    # per-axis closed forms against the general log-derivative expression
    worst_axis = 0.0
    for angular in (BagelAngular(), DumbbellAngular()):
        for radial in radials:
            fam = MapFamily.from_ensemble(radial, angular)
            ts = pole_free_times(np.linspace(0.05, 6.0, 120), pole_scan(fam, (0.05, 6.0)),
                                 margin=0.08)
            rates = axis_rates(fam, ts)
            f, df, _, _ = diagonal_components(fam, ts)
            general = np.stack([df[:, j] / (2 * f[:, j])
                                - sum(df[:, k] / (2 * f[:, k]) for k in range(3) if k != j)
                                for j in range(3)], axis=-1)
            worst_axis = max(worst_axis, float(np.max(np.abs(rates - general))))
    ok = worst_fd < 1e-6 and worst_axis < 1e-10
    assert report(3, "closed-form rates vs finite differences and general form",
                  ok, f"fd rel {worst_fd:.2e}, axis {worst_axis:.2e}")


def test_criterion_4_monte_carlo_oracle():
    start = time.monotonic()
    rho0 = DensityMatrix([0.6, -0.1, 0.75])
    cfg = SamplerConfig(seed=20240817, n_samples=1_000_000)
    worst = 0.0
    times = (0.2, 1.0, 3.0, 8.0)
    for name, fam in builtin_families():
        for t, mean, stderr in zip(times, *mc_trajectory(fam, rho0, times, cfg)):
            exact = map_matrices(fam, t) @ rho0.bloch
            z = np.max(np.abs(mean - exact) / np.maximum(stderr, 1e-300))
            worst = max(worst, float(z))
    elapsed = time.monotonic() - start
    ok = worst <= 4.0 and elapsed < 120.0
    assert report(4, "Monte-Carlo oracle, 15 pairs x 4 times, N=1e6",
                  ok, f"max z {worst:.2f} sigma, {elapsed:.1f}s")


def test_criterion_5_generator_extraction():
    start = time.monotonic()
    worst = 0.0
    for _, fam in builtin_families():
        worst = np.maximum(worst, check_extraction(fam, pole_scan(fam, (1e-9, 6.0))))
    elapsed = time.monotonic() - start
    ok = worst < 1e-8 and elapsed < 10.0
    assert report(5, "extraction matches every closed-form rate and level spacing",
                  ok, f"max dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_6_pole_phenomenology():
    fam = MapFamily.from_ensemble(GaussianRadial(), BagelAngular())
    roots = pole_scan(fam, (1e-6, 3.0))
    sq = [r * r for r in roots]
    ok = (len(roots) == 2 and 1.7 <= sq[0] <= 1.9 and 4.9 <= sq[1] <= 5.2)

    def d_pole_count(radial, a):
        f = MapFamily.from_ensemble(radial, KneadedCardioidAngular(a))
        return len(sign_change_roots(d_denominator(f), 1e-6, 10.0))

    ok = ok and d_pole_count(GaussianRadial(), 0.3) >= 2
    ok = ok and d_pole_count(GaussianRadial(), 0.1) == 0
    ok = ok and d_pole_count(ExponentialCutoffRadial(), 0.7) >= 2
    ok = ok and d_pole_count(ExponentialCutoffRadial(), 0.3) == 0
    assert report(6, "pole locations and asymmetry thresholds",
                  ok, f"bagel (wc t)^2 = {sq}")


def test_criterion_7_integrator_round_trip():
    start = time.monotonic()
    rho0 = DensityMatrix([0.6, -0.1, 0.75])
    worst = 0.0
    for name, fam in builtin_families():
        poles = pole_scan(fam, (1e-9, 6.0))
        t_end = min(0.9 * poles[0], 4.0) if poles else 4.0
        t_eval = np.linspace(0.0, t_end, 21)
        bloch = integrate_master(lambda ts, fam=fam: bloch_generators(fam, ts),
                                rho0, (0.0, t_end), t_eval=t_eval)
        exact = bloch_trajectory(fam, rho0, t_eval)
        worst = max(worst, float(np.max(0.5 * np.linalg.norm(bloch - exact, axis=1))))
    elapsed = time.monotonic() - start
    ok = worst < 1e-6 and elapsed < 30.0
    assert report(7, "master-equation round trip on pole-free spans",
                  ok, f"max trace distance {worst:.2e}, {elapsed:.1f}s")


def test_criterion_8_complete_positivity_and_unitality():
    worst = 0.0
    grid = np.linspace(0.0, 10.0, 50)
    for name, fam in builtin_families():
        worst = min(worst, float(np.min(choi_check(map_matrices(fam, grid)))))
    unital = True
    zero = DensityMatrix([0.0, 0.0, 0.0])
    for name, fam in builtin_families():
        out = map_matrices(fam, 1.7) @ zero.bloch
        unital = unital and np.array_equal(out, np.zeros(3))
    ok = worst >= -1e-10 and unital
    assert report(8, "complete positivity (Choi) and exact unitality",
                  ok, f"min Choi eigenvalue {worst:.2e}")


def test_criterion_9_short_time_positivity():
    # t1 = first sign change of the smallest Kossakowski eigenvalue; the
    # spectrum must rise to positive values and stay PSD before t1
    worst = 0.0
    smallest_window = np.inf
    for name, fam in builtin_families():
        t_probe = np.concatenate([np.geomspace(1e-6, 0.1, 50), np.linspace(0.1, 8.0, 1200)])
        ok, _, k = _generators(fam, t_probe)
        regular = np.argmin(ok) if not ok.all() else ok.size  # points before the first pole
        lam = np.linalg.eigvalsh(k[:regular])[:, 0]
        negative = np.flatnonzero(lam < -1e-10)
        stop = negative[0] if negative.size else lam.size
        t1 = t_probe[stop] if negative.size else None
        worst = min(worst, float(np.min(lam[:stop], initial=0.0)))
        window = t1 if t1 is not None else t_probe[-1]
        smallest_window = min(smallest_window, window)
    ok = worst >= -1e-10 and smallest_window > 0.3
    assert report(9, "Kossakowski spectrum nonnegative at short times",
                  ok, f"min eig before first crossing {worst:.2e}, "
                      f"smallest window {smallest_window:.2f}/wc")


def test_criterion_10_reduction_limits():
    # kneaded -> cardioid
    fam_eps = MapFamily.from_ensemble(GaussianRadial(), KneadedCardioidAngular(1e-6))
    fam_card = MapFamily.from_ensemble(GaussianRadial(), CardioidAngular())
    ts = np.linspace(0.1, 3.0, 30)
    (h_eps, k_eps), (h_card, k_card) = _regular_split(fam_eps, ts), _regular_split(fam_card, ts)
    dev1 = max(float(np.max(np.abs(k_eps - k_card))), float(np.max(np.abs(h_eps - h_card))))

    # cardioid with the first moment zeroed -> diagonal balanced rates
    fam0 = MapFamily(fam_card.radial, fam_card.angular,
                     DirectionalMoments(np.zeros(3), fam_card.moments.second))
    h0, k0 = _regular_split(fam0, ts)
    dev2 = max(float(np.max(np.abs(k0 - axis_rates(fam0, ts)[..., None] * np.eye(3)))),
               float(np.max(np.abs(h0))),
               float(np.max(np.abs(np.diagonal(k0, axis1=1, axis2=2)
                                   - sphere_rate(fam_card.radial, ts)[:, None]))))

    # nearly equal second moments -> common rate
    eps = 1e-6
    fam_sph = MapFamily.from_ensemble(GaussianRadial(), SphereAngular())
    fam_pert = MapFamily(fam_sph.radial, fam_sph.angular,
                         DirectionalMoments(
                             np.zeros(3), np.diag([1 / 3 + eps, 1 / 3 - eps, 1 / 3])))
    ts = np.linspace(0.1, 1.5, 15)
    dev3 = float(np.max(np.abs(axis_rates(fam_pert, ts)
                               - sphere_rate(fam_sph.radial, ts)[:, None])))

    ok = dev1 < 1e-4 and dev2 < 1e-10 and dev3 < 1e-4
    assert report(10, "reduction limits across symmetry classes",
                  ok, f"kneaded->cardioid {dev1:.2e}, zeroed first moment {dev2:.2e}, "
                      f"balanced moments {dev3:.2e}")
