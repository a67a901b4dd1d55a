"""Stochastic oracle: sampler distributions, determinism, map agreement."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import kstest

from hamens import (BagelAngular, CardioidAngular, DensityMatrix, DirectionalMoments, DumbbellAngular,
                    ExponentialCutoffRadial, GaussianRadial, KneadedCardioidAngular,
                    MapFamily, ReciprocalSquareRadial, SamplerConfig,
                    SphereAngular, TabulatedAngular, TabulatedRadial,
                    map_matrices, mc_average, mc_trajectory, sample_angular, sample_radial)
from hamens.montecarlo import CHUNK, _NEWTON_CAP, _mc_pairs, _newton_cdf, chunk_stream
from hamens.validation import builtin_families

from conftest import random_table

ANGULARS = [SphereAngular(), BagelAngular(), DumbbellAngular(), CardioidAngular(),
            KneadedCardioidAngular(0.3)]


def moment_zscores(model, seed, n=200000, moments=None):
    """First and second sampled moments against the analytic values, in sigmas."""
    rng = chunk_stream(seed, 0)
    axes = sample_angular(model, rng, n)
    m = moments or model.moments()
    scores = []
    for j in range(3):
        sample = axes[j]
        err = max(float(sample.std(ddof=1)) / math.sqrt(n), 1e-12)
        scores.append((sample.mean() - m.first[j]) / err)
    for i in range(3):
        for j in range(i, 3):
            sample = axes[i] * axes[j]
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
        assert np.max(np.abs(np.sum(axes * axes, axis=0) - 1.0)) < 1e-12


def angle_construction_axes(model, rng, n, mpmath):
    """The axes as theta and phi, then their cos and sin, in mpmath from the
    draws that sample_angular makes: the S^3 polar angle is atan2(rho, g_0),
    and a shifted kneaded phi is that angle - pi/2, plus pi on the bit."""
    mpf, two_pi = mpmath.mpf, 2 * math.pi

    def s3_polar(g):
        return [mpmath.atan2(mpmath.sqrt(mpf(a) ** 2 + mpf(b) ** 2 + mpf(c) ** 2), mpf(d))
                for d, a, b, c in g.T]

    if isinstance(model, BagelAngular):
        theta = s3_polar(rng.standard_normal((4, n)))
    else:
        if isinstance(model, SphereAngular):
            cos_t = rng.uniform(-1.0, 1.0, n)
        elif isinstance(model, DumbbellAngular):
            cos_t = np.cbrt(rng.uniform(-1.0, 1.0, n))
        else:
            cos_t = 1.0 - 2.0 * np.sqrt(rng.random(n))
        theta = [mpmath.acos(mpf(c)) for c in cos_t]
    if isinstance(model, KneadedCardioidAngular):
        shifted = [th - mpmath.pi / 2 for th in s3_polar(rng.standard_normal((4, n)))]
        pick, bit, flat = rng.random((3, n))
        phi = [sh + mpmath.pi * (b < 0.5) if p < model.a else mpf(two_pi * f)
               for sh, p, b, f in zip(shifted, pick, bit, flat)]
    else:
        phi = [mpf(p) for p in rng.uniform(0.0, two_pi, n)]
    return np.array([[float(mpmath.sin(th) * mpmath.cos(ph)), float(mpmath.sin(th) * mpmath.sin(ph)),
                      float(mpmath.cos(th))] for th, ph in zip(theta, phi)])


@pytest.mark.parametrize("model", ANGULARS, ids=lambda m: type(m).__name__)
def test_angular_samples_match_the_angle_construction(model):
    # the samplers form cos and sin with no angle; against the angles
    # evaluated in 30 digits from the same draws they keep 4e-16, where
    # sqrt(1 - cos^2 theta) would be off by up to 1.3e-15 near the poles
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        ref = angle_construction_axes(model, chunk_stream(64, 0), 2000, mpmath)
    axes = sample_angular(model, chunk_stream(64, 0), 2000)
    assert np.max(np.abs(axes.T - ref)) <= 4e-16


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


def seeded_radial_tables():
    """Random tables of 2, 3, 9 and 40 nodes from 0 and from 0.7, with zero-density
    nodes, and one with zero mass on its first segment and its last two."""
    rng = np.random.default_rng(2026)
    tables = []
    for size in (2, 3, 9, 40):
        for start in (0.0, 0.7):
            om = start + np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 2.0, size - 1))])
            dens = rng.random(size) * (rng.random(size) > 0.25)
            dens[rng.integers(size)] = 1.0
            tables.append(TabulatedRadial(om, dens))
    tables.append(TabulatedRadial([0.0, 0.5, 1.0, 2.5, 3.0, 4.0], [0.0, 0.0, 1.0, 0.3, 0.0, 0.0]))
    return tables


@pytest.mark.parametrize("index", range(9))
def test_tabulated_radial_draws_follow_the_exact_cdf(index):
    tab = seeded_radial_tables()[index]
    n = 200_000
    omega = sample_radial(tab, chunk_stream(index, 0), n)
    om = tab.omega
    assert np.all((om[0] <= omega) & (omega <= om[-1]))
    assert kstest(omega, lambda x: table_cdf(tab, x)).pvalue > 0.01
    # no draw lies inside a segment of zero mass, and the others get their
    # exact share of the draws within 4 sigma
    p = np.diff(table_cdf(tab, om))
    segment = np.clip(np.searchsorted(om, omega, side="right") - 1, 0, p.size - 1)
    assert not np.any((p[segment] == 0.0) & (omega > om[segment]))
    counts = np.bincount(segment, minlength=p.size)
    positive = p > 0.0
    sigma = np.sqrt(n * p * (1.0 - p))
    assert np.all(np.abs(counts - n * p)[positive] <= 4.0 * sigma[positive])


class PickUniforms:
    """A stream whose draws are all 1/2 but the first of each sample, which is
    the uniform the radial-table sampler picks its (segment, term) pair with."""

    def __init__(self, pick):
        self.pick = np.asarray(pick, dtype=float)

    def random(self, shape):
        u = np.full(shape, 0.5)
        u[:, 0] = self.pick
        return u


def test_tabulated_radial_pick_skips_zero_mass_at_both_ends():
    # the extreme pick uniforms, where u total rounds onto the first or the
    # last cumulative mass, land on the first and the last segment that has mass
    pick = [0.0, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53]
    for tab in seeded_radial_tables():
        om = tab.omega
        p = np.diff(table_cdf(tab, om))
        omega = sample_radial(tab, PickUniforms(pick), len(pick))
        segment = np.clip(np.searchsorted(om, omega, side="right") - 1, 0, p.size - 1)
        assert np.all(p[segment] > 0.0), (om, tab.density, omega)
        lo, hi = np.flatnonzero(p)[[0, -1]]
        assert om[lo] < np.min(omega) and np.max(omega) < om[hi + 1]


TABLE_COARSE = random_table(45, 4, 5)


def node_weights(grid, fn, order=20):
    """Integrals of fn against each node's hat function on the grid (Gauss-Legendre per cell)."""
    x, w = np.polynomial.legendre.leggauss(order)
    lo, width = grid[:-1, None], np.diff(grid)[:, None]
    pts = lo + 0.5 * width * (1 + x)
    vals = 0.5 * width * w * fn(pts)
    up = (pts - lo) / width
    out = np.zeros(grid.size)
    out[:-1] += (vals * (1 - up)).sum(axis=1)
    out[1:] += (vals * up).sum(axis=1)
    return out


def table_moments(tab):
    """Moments of the bilinear table, each a sum of products of 1-D integrals.

    Every moment integrand is f(theta) g(phi) and the interpolant is a sum of
    products of hat functions, so each moment is wt @ values @ wp; a 20-point
    rule per cell is exact to rounding.  TabulatedAngular computes the same
    contraction with its own code and a 16-point rule; test_angular holds a
    2-D referee that does not use the separation.
    """
    th = {"x": np.sin, "y": np.sin, "z": np.cos}
    ph = {"x": np.cos, "y": np.sin, "z": np.ones_like}

    def integral(f, g):
        wt = node_weights(tab.theta, lambda t: f(t) * np.sin(t))
        return wt @ tab.values @ node_weights(tab.phi, g)

    names = "xyz"
    first = np.array([integral(th[a], ph[a]) for a in names])
    second = np.array([[integral(lambda t, a=a, b=b: th[a](t) * th[b](t),
                                 lambda p, a=a, b=b: ph[a](p) * ph[b](p)) for b in names]
                       for a in names])
    return DirectionalMoments(first, second)


def test_tabulated_angular_sampler():
    # the fine table's first row is zero (theta = 0); the coarse one is tilted
    th = np.linspace(0, math.pi, 241)
    ph = np.linspace(0, 2 * math.pi, 241)
    vals = (1 - np.cos(th))[:, None] * (1 + 0.3 * np.cos(2 * ph))[None, :] / (4 * math.pi)
    fine = TabulatedAngular(th, ph, vals)
    coarse = TABLE_COARSE.moments()
    assert abs(coarse.second[0, 1]) > 1e-3
    # both are exact to rounding
    exact = table_moments(TABLE_COARSE)
    assert np.allclose(exact.first, coarse.first, rtol=0, atol=1e-14)
    assert np.allclose(exact.second, coarse.second, rtol=0, atol=1e-14)
    assert np.max(moment_zscores(TABLE_COARSE, 13, n=150000, moments=coarse)) < 4.0
    assert np.max(moment_zscores(fine, 13, n=150000, moments=table_moments(fine))) < 4.0


def test_tabulated_angular_sampler_avoids_zero_density():
    # zero rows at the poles and inside, and a zero phi-cell on a nonzero row
    th = np.linspace(0, math.pi, 5)
    ph = np.linspace(0, 2 * math.pi, 6)
    vals = np.ones((5, 6))
    vals[[0, 2, 4]] = 0.0
    vals[3, 1:3] = 0.0
    tab = TabulatedAngular(th, ph, vals)
    axes = sample_angular(tab, chunk_stream(4, 0), 100000)
    assert np.max(np.abs(np.sum(axes * axes, axis=0) - 1.0)) < 1e-12
    theta = np.arccos(np.clip(axes[2], -1.0, 1.0))
    phi = np.mod(np.arctan2(axes[1], axes[0]), 2 * math.pi)
    assert np.min(tab.density(theta, phi)) > 0.0


def test_fixed_draw_count():
    # the stream position after a draw depends on the kind and size only,
    # never on the model's parameters or the table's values and size
    radial_tables = seeded_radial_tables()
    pairs = [(sample_angular, KneadedCardioidAngular(0.3), KneadedCardioidAngular(0.9)),
             (sample_angular, TABLE_COARSE, random_table(46, 4, 5)),
             (sample_radial, radial_tables[0], radial_tables[-1])]
    for sampler, first, second in pairs:
        after = []
        for model in (first, second):
            rng = chunk_stream(21, 0)
            sampler(model, rng, 1000)
            after.append(rng.random())
        assert after[0] == after[1], type(first).__name__


def test_bagel_theta_ks():
    axes = sample_angular(BagelAngular(), chunk_stream(61, 0), 1_000_000)
    theta = np.arccos(np.clip(axes[2], -1.0, 1.0))
    assert kstest(theta, lambda th: (th - np.sin(th) * np.cos(th)) / math.pi).pvalue > 0.01


@pytest.mark.parametrize("a", [0.0, 0.3, 1.0])
def test_kneaded_phi_ks(a):
    axes = sample_angular(KneadedCardioidAngular(a), chunk_stream(62, 0), 1_000_000)
    phi = np.mod(np.arctan2(axes[1], axes[0]), 2 * math.pi)
    assert kstest(phi, lambda ph: (ph + 0.5 * a * np.sin(2 * ph)) / (2 * math.pi)).pvalue > 0.01


def table_theta_cdf(tab, theta):
    """CDF of the theta marginal, (alpha + beta theta) sin(theta) on each theta-cell,
    from its global antiderivative -alpha cos + beta (sin - theta cos)."""
    # the trapezoid rule is exact for the linear rows
    rows = np.trapezoid(tab.values, tab.phi, axis=1)
    beta = np.diff(rows) / np.diff(tab.theta)
    alpha = rows[:-1] - beta * tab.theta[:-1]

    def anti(i, th):
        return -alpha[i] * np.cos(th) + beta[i] * (np.sin(th) - th * np.cos(th))

    cells = np.arange(alpha.size)
    below = np.concatenate([[0.0], np.cumsum(anti(cells, tab.theta[1:]) - anti(cells, tab.theta[:-1]))])
    assert abs(below[-1] - tab.mass()) <= 1e-12 * tab.mass()
    i = np.clip(np.searchsorted(tab.theta, theta, side="right") - 1, 0, alpha.size - 1)
    return (below[i] + anti(i, theta) - anti(i, tab.theta[i])) / below[-1]


def table_phi_cdf(tab, i, phi):
    """CDF of phi given theta in cell i: rows i and i + 1 weighted by the cell integrals
    of (1 - w) sin(theta) and w sin(theta), w linear across the cell (Gauss-Legendre)."""
    x, wts = np.polynomial.legendre.leggauss(20)
    lo, hi = tab.theta[i], tab.theta[i + 1]
    th = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
    w = (th - lo) / (hi - lo)
    weights = [0.5 * (hi - lo) * wts @ ((1 - w) * np.sin(th)), 0.5 * (hi - lo) * wts @ (w * np.sin(th))]
    j = np.clip(np.searchsorted(tab.phi, phi, side="right") - 1, 0, tab.phi.size - 2)
    total = 0.0
    cdf = np.zeros_like(phi)
    for row, weight in zip((i, i + 1), weights):
        node = tab.values[row]
        below = np.concatenate([[0.0], np.cumsum(0.5 * (node[1:] + node[:-1]) * np.diff(tab.phi))])
        partial = 0.5 * (phi - tab.phi[j]) * (node[j] + tab.density(np.full_like(phi, tab.theta[row]), phi))
        cdf += weight * (below[j] + partial)
        total += weight * below[-1]
    return cdf / total


def test_tabulated_angular_ks():
    axes = sample_angular(TABLE_COARSE, chunk_stream(63, 0), 1_000_000)
    theta = np.arccos(np.clip(axes[2], -1.0, 1.0))
    assert kstest(theta, lambda th: table_theta_cdf(TABLE_COARSE, th)).pvalue > 0.01
    # the theta-cell with the most mass
    i = int(np.argmax(np.diff(table_theta_cdf(TABLE_COARSE, TABLE_COARSE.theta))))
    inside = (TABLE_COARSE.theta[i] < theta) & (theta < TABLE_COARSE.theta[i + 1])
    phi = np.mod(np.arctan2(axes[1, inside], axes[0, inside]), 2 * math.pi)
    assert kstest(phi, lambda ph: table_phi_cdf(TABLE_COARSE, i, ph)).pvalue > 0.01


def test_mc_average_at_time_zero_is_exact():
    fam = MapFamily.from_ensemble(GaussianRadial(), CardioidAngular())
    rho0 = DensityMatrix([0.3, -0.4, 0.5])
    mean, stderr = mc_average(fam, rho0, 0.0, SamplerConfig(seed=1, n_samples=5000))
    assert np.array_equal(mean, rho0.bloch)
    assert np.array_equal(stderr, np.zeros(3))


def test_mc_average_sphere_weight():
    # cosine expectation vanishes at omega_c t = 1, leaving weight 1/3
    fam = MapFamily.from_ensemble(GaussianRadial(), SphereAngular())
    mean, stderr = mc_average(fam, DensityMatrix([0, 0, 1]), 1.0, SamplerConfig(seed=3, n_samples=400000))
    assert abs(mean[2] - 1.0 / 3.0) < 3 * stderr[2]


def test_mc_average_matches_map_componentwise():
    fam = MapFamily.from_ensemble(ReciprocalSquareRadial(), BagelAngular())
    rho0 = DensityMatrix([1.0, 0.0, 0.0])
    mean, stderr = mc_average(fam, rho0, 2.0, SamplerConfig(seed=8, n_samples=400000))
    exact = map_matrices(fam, 2.0) @ rho0.bloch
    stderr = np.maximum(stderr, 1e-12)
    assert np.max(np.abs(mean - exact) / stderr) < 3.0


def test_mc_average_bit_identical_across_runs_and_workers():
    fam = MapFamily.from_ensemble(GaussianRadial(), KneadedCardioidAngular(0.3))
    rho0 = DensityMatrix([0.6, 0.0, 0.7])
    cfg = SamplerConfig(seed=77, n_samples=150001)
    first, second = (mc_average(fam, rho0, 1.3, cfg) for _ in range(2))
    assert first[0].shape == first[1].shape == (3,)
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])


def test_mc_trajectory_entries_match_single_times_and_time_zero_is_exact():
    fam = MapFamily.from_ensemble(GaussianRadial(), KneadedCardioidAngular(0.3))
    rho0 = DensityMatrix([0.3, -0.4, 0.5])
    cfg = SamplerConfig(seed=12, n_samples=9001)
    times = [1.5, 0.0, 0.2, 8.0, 0.0]
    means, stderrs = mc_trajectory(fam, rho0, times, cfg)
    assert means.shape == stderrs.shape == (len(times), 3)
    for t, mean, stderr in zip(times, means, stderrs):
        # mc_average is the one-point trajectory, and a row does not
        # depend on the other times
        one_point = [row[0] for row in mc_trajectory(fam, rho0, [t], cfg)]
        for single_mean, single_stderr in (mc_average(fam, rho0, t, cfg), one_point):
            assert np.array_equal(mean, single_mean)
            assert np.array_equal(stderr, single_stderr)
        if t == 0.0:
            assert np.array_equal(mean, rho0.bloch)
            assert np.array_equal(stderr, np.zeros(3))
        else:
            assert np.all(stderr > 0.0)


@pytest.mark.parametrize("seed", [3, 145])
def test_one_radial_draw_per_chunk_gives_each_pair_its_own_estimate(seed):
    # validate draws each radial model once per chunk for all five angular
    # kinds, resetting the stream before each angular draw: every pair must
    # get bit for bit what mc_trajectory gives it alone, chunk after chunk
    rho0 = DensityMatrix([0.6, -0.1, 0.75])
    cfg = SamplerConfig(seed=seed, n_samples=CHUNK + 905)
    times = [0.0, 0.2, 1.0, 3.0, 8.0]
    families = [fam for _, fam in builtin_families()]
    for first in range(0, len(families), 5):
        group = families[first:first + 5]
        assert all(fam.radial is group[0].radial for fam in group)
        grouped = _mc_pairs(group[0].radial, [fam.angular for fam in group], rho0, times, cfg)
        for fam, (mean, stderr) in zip(group, grouped):
            alone = mc_trajectory(fam, rho0, times, cfg)
            assert np.array_equal(mean, alone[0]) and np.array_equal(stderr, alone[1])


def test_mc_trajectory_bit_identical_across_runs():
    fam = MapFamily.from_ensemble(ReciprocalSquareRadial(), BagelAngular())
    rho0 = DensityMatrix([0.6, 0.0, 0.7])
    cfg = SamplerConfig(seed=77, n_samples=30001)
    times = np.array([0.0, 0.4, 1.3, 6.0])
    first, second = (mc_trajectory(fam, rho0, times, cfg) for _ in range(2))
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])


def test_mc_trajectory_stderr_scales_with_small_times():
    # the spread of r_t is O(t) next to an O(1) mean, so a one-pass variance
    # of r_t cancels (its stderr reads exactly 0 at t = 1e-8); one of
    # d = r_t - r0 keeps its relative accuracy
    fam = MapFamily.from_ensemble(GaussianRadial(), BagelAngular())
    rho0 = DensityMatrix([0.6, -0.1, 0.75])
    times = [1e-5, 1e-7, 1e-8, 1e-9]
    means, stderrs = mc_trajectory(fam, rho0, times, SamplerConfig(seed=3, n_samples=8192))
    slopes = stderrs / np.array(times)[:, None]
    assert np.all(slopes > 0.0)
    assert np.max(np.abs(slopes / slopes[0] - 1.0)) <= 1e-5
    for t, mean, stderr in zip(times, means, stderrs):
        exact = map_matrices(fam, t) @ rho0.bloch
        assert np.max(np.abs(mean - exact) / stderr) < 4.0, t


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_single_realization_where_the_half_angle_tangent_is_largest(seed):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    fam = MapFamily.from_ensemble(GaussianRadial(), KneadedCardioidAngular(0.3))
    # the one realization that mc_trajectory draws for n = 1
    stream = chunk_stream(seed, 0)
    omega = sample_radial(fam.radial, stream, 1)[0]
    axis = sample_angular(fam.angular, stream, 1)[:, 0]
    # odd multiples of pi put the half angle next to a pole of tan
    k = np.concatenate([np.arange(1, 2001, 2), np.arange(999_001, 1_000_001, 2),
                        2 * np.random.default_rng(72).integers(0, 500_000, 1000) + 1])
    times = np.concatenate([k * math.pi / omega, -k * math.pi / omega])
    angles = omega * times
    assert np.max(np.abs(np.tan(0.5 * angles))) > 1e16
    r0 = np.array([0.6, -0.2, 0.7])
    cfg = SamplerConfig(seed=seed, n_samples=1)
    means, _ = mc_trajectory(fam, DensityMatrix(r0), times, cfg)
    n, r = [[mpmath.mpf(float(x)) for x in v] for v in (axis, r0)]
    cross = [n[(j + 1) % 3] * r[(j + 2) % 3] - n[(j + 2) % 3] * r[(j + 1) % 3] for j in range(3)]
    along = [(n[0] * r[0] + n[1] * r[1] + n[2] * r[2]) * n[j] for j in range(3)]
    for angle, mean in zip(angles, means):
        c, s = mpmath.cos(float(angle)), mpmath.sin(float(angle))
        ref = [float(c * r[j] + s * cross[j] + (1 - c) * along[j]) for j in range(3)]
        assert np.max(np.abs(mean - ref)) <= 1e-15, angle


def cos_sin_trajectory(ensemble, rho0, times, cfg):
    """mc_trajectory as r_t = c r0 + s (n x r0) + (1 - c) (r0.n) n with np.cos and np.sin."""
    n, r0 = cfg.n_samples, rho0.bloch
    times = np.asarray(times, dtype=float)
    total = np.zeros((times.size, 3))
    total_sq = np.zeros((times.size, 3))
    for index in range((n + CHUNK - 1) // CHUNK):
        rng = chunk_stream(cfg.seed, index)
        count = min(CHUNK, n - index * CHUNK)
        omega = sample_radial(ensemble.radial, rng, count)
        axes = sample_angular(ensemble.angular, rng, count)
        cross = np.cross(axes, r0, axisa=0, axisc=0)
        along = (r0 @ axes) * axes
        for k, t in enumerate(times):
            angle = omega * t
            c = np.cos(angle)
            r_t = c * r0[:, None] + np.sin(angle) * cross + (1.0 - c) * along
            total[k] += r_t.sum(axis=1)
            total_sq[k] += (r_t * r_t).sum(axis=1)
    mean = total / n
    return mean, np.sqrt(np.maximum(total_sq - n * mean * mean, 0.0) / (n - 1) / n)


def seeded_tabulated_ensemble():
    rng = np.random.default_rng(73)
    omega = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 0.6, 7))])
    density = rng.uniform(0.0, 1.0, 8)
    radial = TabulatedRadial(omega, density / TabulatedRadial(omega, density).mass())
    return MapFamily.from_ensemble(radial, random_table(47, 5, 6))


@pytest.mark.parametrize("ensemble, times", [
    (MapFamily.from_ensemble(GaussianRadial(), KneadedCardioidAngular(0.3)), [-1.3, 0.0, 0.25, 2.0, 8.0]),
    (MapFamily.from_ensemble(ReciprocalSquareRadial(), BagelAngular()), [0.2, 1.0, 3.0, 8.0]),
    (seeded_tabulated_ensemble(), [0.5, 4.0, 30.0]),
], ids=["gaussian-kneaded", "reciprocal-square-bagel", "tables"])
def test_mc_trajectory_matches_the_cos_sin_evolve(ensemble, times):
    rho0 = DensityMatrix([0.6, -0.2, 0.7])
    cfg = SamplerConfig(seed=74, n_samples=20001)
    mean, stderr = cos_sin_trajectory(ensemble, rho0, times, cfg)
    for t, mc_mean, mc_stderr, m, e in zip(times, *mc_trajectory(ensemble, rho0, times, cfg), mean, stderr):
        assert np.max(np.abs(mc_mean - m)) <= 1e-15, t
        if t != 0.0:
            assert np.max(np.abs(mc_stderr - e) / e) <= 1e-12, t


def radial_table_31():
    """31 nodes on [0, 3] of a decaying density, scaled to unit effective mass."""
    omega = np.linspace(0.0, 3.0, 31)
    density = np.exp(-omega)
    return TabulatedRadial(omega, density / TabulatedRadial(omega, density).mass())


@pytest.mark.parametrize("radial, angular, per_sample", [
    (GaussianRadial(), KneadedCardioidAngular(0.3), 145),
    (GaussianRadial(), TABLE_COARSE, 298),
    (radial_table_31(), KneadedCardioidAngular(0.3), 145),
], ids=["kneaded", "table", "radial-table"])
def test_chunk_peak_memory_is_as_documented(radial, angular, per_sample):
    # the figures of the CHUNK comment: the tracemalloc peak of one chunk,
    # evolved to two times, in bytes per sample
    ensemble = MapFamily.from_ensemble(radial, angular)
    rho0 = DensityMatrix([0.3, -0.4, 0.5])
    cfg = SamplerConfig(seed=3, n_samples=CHUNK)
    tracemalloc.start()
    try:
        mc_trajectory(ensemble, rho0, [0.5, 2.0], cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert round(peak / CHUNK) == per_sample


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


def bagel_guess(u):
    """Start for the bagel theta: y = theta - pi/2 solves y + sin(2y)/2 = pi(u - 1/2).

    y + sin(2y)/2 is about 2y in the middle and pi/2 - (2/3)(pi/2 - |y|)^3
    near the ends; each approximation is inverted where it holds.
    """
    s = math.pi * (u - 0.5)
    end = np.sign(s) * (math.pi / 2 - np.cbrt(1.5 * np.maximum(math.pi / 2 - np.abs(s), 0.0)))
    return math.pi / 2 + np.where(np.abs(s) < 1.0, 0.5 * s, end)


# CDFs whose pdf vanishes at some points: the hard cases for the safeguards
NEWTON_CASES = {
    "bagel": (lambda th: (th - 0.5 * np.sin(2.0 * th)) / math.pi,
              lambda th: 2.0 * np.sin(th) ** 2 / math.pi,
              math.pi, bagel_guess,
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
    for seed in (-1, 2 ** 64):
        with pytest.raises(ValueError, match="seed"):
            SamplerConfig(seed=seed, n_samples=10)
    SamplerConfig(seed=2 ** 64 - 1, n_samples=10)
