"""Stochastic oracle: sampler distributions, determinism, map agreement."""

import math

import numpy as np
import pytest
from scipy.stats import kstest

from hamens import (BagelAngular, CardioidAngular, DensityMatrix, DumbbellAngular,
                    ExponentialCutoffRadial, GaussianRadial, KneadedCardioidAngular,
                    MapFamily, ReciprocalSquareRadial, SamplerConfig, SeparableEnsemble,
                    SphereAngular, TabulatedAngular, TabulatedRadial, directional_moments,
                    map_at, mc_average, sample_angular, sample_radial)
from hamens.montecarlo import chunk_stream

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
    assert abs(omega.mean() - 4.0) < 4 * stderr + 1e-3


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
    exact = map_at(fam, 2.0).apply(rho0).bloch
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
