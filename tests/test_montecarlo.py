"""Stochastic oracle: sampler distributions, determinism, map agreement."""

import math

import numpy as np
import pytest
from scipy.stats import kstest

from hamens import (BagelAngular, CardioidAngular, DensityMatrix, DumbbellAngular,
                    ExponentialCutoffRadial, GaussianRadial, KneadedCardioidAngular,
                    MapFamily, ReciprocalSquareRadial, SamplerConfig, SeparableEnsemble,
                    SphereAngular, TabulatedAngular, TabulatedRadial, directional_moments,
                    map_matrices, mc_average, mc_trajectory, sample_angular, sample_radial)
from hamens.montecarlo import (_NEWTON_CAP, _bagel_guess, _newton_cdf,
                               _tabulated_radial_quantile, chunk_stream)

ANGULARS = [SphereAngular(), BagelAngular(), DumbbellAngular(), CardioidAngular(),
            KneadedCardioidAngular(0.3)]


def moment_zscores(model, seed, n=200000):
    """First and second sampled moments against the analytic values, in sigmas."""
    rng = chunk_stream(seed, 0)
    axes = sample_angular(model, rng, n)
    m = directional_moments(model)
    scores = []
    for j in range(3):
        sample = axes[:, j]
        err = max(float(sample.std(ddof=1)) / math.sqrt(n), 1e-12)
        scores.append((sample.mean() - m.first[j]) / err)
    for i in range(3):
        for j in range(i, 3):
            sample = axes[:, i] * axes[:, j]
            err = max(float(sample.std(ddof=1)) / math.sqrt(n), 1e-12)
            scores.append((sample.mean() - m.second[i, j]) / err)
    return np.abs(np.array(scores))


@pytest.mark.parametrize("model", ANGULARS, ids=lambda m: type(m).__name__)
def test_angular_sampler_moments(model):
    for seed in (11, 2024, 777):
        assert np.max(moment_zscores(model, seed)) < 4.0


def test_angular_samples_are_unit_vectors():
    rng = chunk_stream(5, 0)
    for model in ANGULARS:
        axes = sample_angular(model, rng, 2000)
        assert np.max(np.abs(np.sum(axes * axes, axis=1) - 1.0)) < 1e-12


def test_radial_sampler_means():
    cases = [
        (GaussianRadial(1.3), 1.3 * 2 * math.sqrt(2 / math.pi)),
        (ExponentialCutoffRadial(0.7), 0.7 * 4.0),
    ]
    n = 1_000_000
    for model, mean in cases:
        rng = chunk_stream(31, 0)
        omega = sample_radial(model, rng, n)
        stderr = omega.std(ddof=1) / math.sqrt(n)
        assert abs(omega.mean() - mean) < 3 * stderr


def test_radial_sampler_reciprocal_square_is_uniform():
    rng = chunk_stream(42, 0)
    omega = sample_radial(ReciprocalSquareRadial(2.0), rng, 200000)
    result = kstest(omega / 2.0, "uniform")
    assert result.pvalue > 0.01


def test_tabulated_radial_sampler():
    om = np.linspace(0.0, 60.0, 1501)
    dens = om * np.exp(-om) / 6.0
    tab = TabulatedRadial(om, dens)
    rng = chunk_stream(9, 0)
    omega = sample_radial(tab, rng, 400000)
    stderr = omega.std(ddof=1) / math.sqrt(omega.size)
    assert abs(omega.mean() - tab.expectations(0.0, derivative=True)[3] / tab.mass()) < 4 * stderr


def table_cdf(tab, x):
    """Effective-measure CDF of a table by 3-point Gauss-Legendre per segment
    (exact for the cubic weight), independent of the sampler's coefficients."""
    nodes, weights = np.polynomial.legendre.leggauss(3)
    a, b = tab.omega[:-1], tab.omega[1:]

    def integral(lo, hi):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        return half * (tab.weight(mid[:, None] + half[:, None] * nodes) @ weights)

    below = np.concatenate([[0.0], np.cumsum(integral(a, b))])
    j = np.clip(np.searchsorted(tab.omega, x, side="right") - 1, 0, a.size - 1)
    return (below[j] + integral(a[j], np.minimum(x, b[j]))) / below[-1]


def test_tabulated_radial_quantile_inverts_the_exact_cdf():
    rng = np.random.default_rng(2026)
    u = np.concatenate([[0.0, 1.0, 0.5], rng.random(5000)])
    for size in (2, 3, 9, 40):
        for start in (0.0, 0.7):
            om = start + np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 2.0, size - 1))])
            dens = rng.random(size) * (rng.random(size) > 0.25)
            dens[rng.integers(size)] = 1.0
            tab = TabulatedRadial(om, dens)
            omega = _tabulated_radial_quantile(tab, u)
            assert np.all((om[0] <= omega) & (omega <= om[-1]))
            assert np.max(np.abs(table_cdf(tab, omega) - u)) <= 1e-12


def test_tabulated_angular_sampler():
    th = np.linspace(0, math.pi, 241)
    ph = np.linspace(0, 2 * math.pi, 241)
    vals = (1 - np.cos(th))[:, None] * (1 + 0.3 * np.cos(2 * ph))[None, :] / (4 * math.pi)
    tab = TabulatedAngular(th, ph, vals)
    rng = chunk_stream(13, 0)
    axes = sample_angular(tab, rng, 150000)
    ref = directional_moments(KneadedCardioidAngular(0.3))
    for j in range(3):
        sample = axes[:, j]
        err = sample.std(ddof=1) / math.sqrt(sample.size)
        assert abs(sample.mean() - ref.first[j]) < 4 * err + 1e-3
    for i in range(3):
        sample = axes[:, i] * axes[:, i]
        err = sample.std(ddof=1) / math.sqrt(sample.size)
        assert abs(sample.mean() - ref.second[i, i]) < 4 * err + 1e-3


def test_mc_average_at_time_zero_is_exact():
    ens = SeparableEnsemble(GaussianRadial(), CardioidAngular())
    rho0 = DensityMatrix([0.3, -0.4, 0.5])
    est = mc_average(ens, rho0, 0.0, SamplerConfig(seed=1, n_samples=5000))
    assert np.array_equal(est.bloch_mean, rho0.bloch)
    assert np.array_equal(est.bloch_stderr, np.zeros(3))


def test_mc_average_sphere_weight():
    # cosine expectation vanishes at omega_c t = 1, leaving weight 1/3
    ens = SeparableEnsemble(GaussianRadial(), SphereAngular())
    est = mc_average(ens, DensityMatrix([0, 0, 1]), 1.0, SamplerConfig(seed=3, n_samples=400000))
    assert abs(est.bloch_mean[2] - 1.0 / 3.0) < 3 * est.bloch_stderr[2]


def test_mc_average_matches_map_componentwise():
    ens = SeparableEnsemble(ReciprocalSquareRadial(), BagelAngular())
    fam = MapFamily.from_ensemble(ens)
    rho0 = DensityMatrix([1.0, 0.0, 0.0])
    est = mc_average(ens, rho0, 2.0, SamplerConfig(seed=8, n_samples=400000))
    exact = map_matrices(fam, 2.0) @ rho0.bloch
    stderr = np.maximum(est.bloch_stderr, 1e-12)
    assert np.max(np.abs(est.bloch_mean - exact) / stderr) < 3.0


def test_mc_average_bit_identical_across_runs_and_workers():
    ens = SeparableEnsemble(GaussianRadial(), KneadedCardioidAngular(0.3))
    rho0 = DensityMatrix([0.6, 0.0, 0.7])
    cfg = SamplerConfig(seed=77, n_samples=150001, chunk=4096)
    first, second = (mc_average(ens, rho0, 1.3, cfg) for _ in range(2))
    assert np.array_equal(first.bloch_mean, second.bloch_mean)
    assert np.array_equal(first.bloch_stderr, second.bloch_stderr)
    assert first.n == 150001


def test_mc_trajectory_entries_match_single_times_and_time_zero_is_exact():
    ens = SeparableEnsemble(GaussianRadial(), KneadedCardioidAngular(0.3))
    rho0 = DensityMatrix([0.3, -0.4, 0.5])
    cfg = SamplerConfig(seed=12, n_samples=9001, chunk=2048)
    times = [1.5, 0.0, 0.2, 8.0, 0.0]
    estimates = mc_trajectory(ens, rho0, times, cfg)
    assert len(estimates) == len(times)
    for t, est in zip(times, estimates):
        # mc_average is the one-point trajectory, and an entry does not
        # depend on the other times
        for single in (mc_average(ens, rho0, t, cfg), mc_trajectory(ens, rho0, [t], cfg)[0]):
            assert np.array_equal(est.bloch_mean, single.bloch_mean)
            assert np.array_equal(est.bloch_stderr, single.bloch_stderr)
            assert single.n == est.n == 9001
        if t == 0.0:
            assert np.array_equal(est.bloch_mean, rho0.bloch)
            assert np.array_equal(est.bloch_stderr, np.zeros(3))
        else:
            assert np.all(est.bloch_stderr > 0.0)


def test_mc_trajectory_bit_identical_across_runs():
    ens = SeparableEnsemble(ReciprocalSquareRadial(), BagelAngular())
    rho0 = DensityMatrix([0.6, 0.0, 0.7])
    cfg = SamplerConfig(seed=77, n_samples=30001, chunk=4096)
    times = np.array([0.0, 0.4, 1.3, 6.0])
    first, second = (mc_trajectory(ens, rho0, times, cfg) for _ in range(2))
    for a, b in zip(first, second):
        assert np.array_equal(a.bloch_mean, b.bloch_mean)
        assert np.array_equal(a.bloch_stderr, b.bloch_stderr)


def bisect_60(cdf, u, lo, hi):
    lo, hi = np.full_like(u, lo), np.full_like(u, hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = cdf(mid) < u
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def kneaded_case(a):
    return (lambda ph: (ph + 0.5 * a * np.sin(2.0 * ph)) / (2 * math.pi),
            lambda ph: (1.0 + a * np.cos(2.0 * ph)) / (2 * math.pi),
            2 * math.pi, lambda u: 2 * math.pi * u,
            # exact roots: the ends, and pi/2, 3pi/2 where F' = 0 at a = 1
            {0.0: 0.0, 0.25: math.pi / 2, 0.75: 1.5 * math.pi, 1.0: 2 * math.pi})


NEWTON_CASES = {
    "bagel": (lambda th: (th - 0.5 * np.sin(2.0 * th)) / math.pi,
              lambda th: 2.0 * np.sin(th) ** 2 / math.pi,
              math.pi, _bagel_guess,
              # F' = 0 at both ends
              {0.0: 0.0, 0.5: math.pi / 2, 1.0: math.pi}),
    "kneaded0": kneaded_case(0.0),
    "kneaded0.3": kneaded_case(0.3),
    "kneaded1": kneaded_case(1.0),
}
# iterations over a random batch, with margin; a bisection needs 44
NEWTON_ITERATIONS = {"bagel": 10, "kneaded0": 2, "kneaded0.3": 7, "kneaded1": 20}


@pytest.mark.parametrize("case", NEWTON_CASES)
def test_newton_cdf_matches_bisection_and_exact_roots(case):
    cdf, pdf, hi, guess, exact = NEWTON_CASES[case]
    u = np.concatenate([[0.0, 1e-9, 1.0 - 1e-9], chunk_stream(3, 0).random(20000)])
    x, iterations = _newton_cdf(cdf, pdf, u, 0.0, hi, guess(u))
    assert iterations <= NEWTON_ITERATIONS[case]
    assert np.max(np.abs(x - bisect_60(cdf, u, 0.0, hi))) <= 1e-12
    # where F' vanishes, cdf is flat to rounding over about 1e-5, and the
    # 60-step bisection lands anywhere in that flat stretch; the exact roots
    # are the referee there
    u = np.array(list(exact))
    x, iterations = _newton_cdf(cdf, pdf, u, 0.0, hi, guess(u))
    assert iterations < _NEWTON_CAP
    assert np.max(np.abs(x - np.array(list(exact.values())))) <= 1e-12
    # next to those points Newton creeps, and rounding noise in cdf can send it
    # between two points; the cap must still not be reached
    u = np.concatenate([q + np.geomspace(1e-16, 1e-2, 300) * side
                        for q in exact for side in (-1.0, 1.0) if 0.0 < q + 1e-2 * side < 1.0])
    x, iterations = _newton_cdf(cdf, pdf, u, 0.0, hi, guess(u))
    assert iterations < _NEWTON_CAP
    assert np.max(np.abs(cdf(x) - u)) <= 1e-15


def test_chunk_streams_are_independent_and_deterministic():
    a1 = chunk_stream(5, 0).standard_normal(4)
    a2 = chunk_stream(5, 0).standard_normal(4)
    b = chunk_stream(5, 1).standard_normal(4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(seed=1, n_samples=0)
    with pytest.raises(ValueError):
        SamplerConfig(seed=1, n_samples=10, chunk=0)
    for seed in (-1, 2 ** 64):
        with pytest.raises(ValueError, match="seed"):
            SamplerConfig(seed=seed, n_samples=10)
    SamplerConfig(seed=2 ** 64 - 1, n_samples=10)
