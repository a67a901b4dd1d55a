"""Stochastic oracle: sampler distributions, determinism, map agreement."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import kstest

from hamens import (BagelAngular, CardioidAngular, DensityMatrix, DirectionalMoments, DumbbellAngular,
                    ExponentialCutoffRadial, GaussianRadial, KneadedCardioidAngular,
                    MapFamily, ReciprocalSquareRadial, SamplerConfig, SeparableEnsemble,
                    SphereAngular, TabulatedAngular, TabulatedRadial, directional_moments,
                    map_matrices, mc_average, mc_trajectory, sample_angular, sample_radial)
from hamens.montecarlo import (MAX_CHUNK, _NEWTON_CAP, _cos_sin, _newton_cdf,
                               _tabulated_radial_quantile, chunk_stream)

from conftest import random_table

ANGULARS = [SphereAngular(), BagelAngular(), DumbbellAngular(), CardioidAngular(),
            KneadedCardioidAngular(0.3)]


def moment_zscores(model, seed, n=200000, moments=None):
    """First and second sampled moments against the analytic values, in sigmas."""
    rng = chunk_stream(seed, 0)
    axes = sample_angular(model, rng, n)
    m = moments or directional_moments(model)
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
    coarse = directional_moments(TABLE_COARSE)
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
    assert np.max(np.abs(np.sum(axes * axes, axis=1) - 1.0)) < 1e-12
    theta = np.arccos(np.clip(axes[:, 2], -1.0, 1.0))
    phi = np.mod(np.arctan2(axes[:, 1], axes[:, 0]), 2 * math.pi)
    assert np.min(tab.density(theta, phi)) > 0.0


def test_fixed_draw_count():
    # the stream position after a draw depends on the kind and size only,
    # never on the model's parameters or the table's values
    pairs = [(KneadedCardioidAngular(0.3), KneadedCardioidAngular(0.9)),
             (TABLE_COARSE, random_table(46, 4, 5))]
    for first, second in pairs:
        after = []
        for model in (first, second):
            rng = chunk_stream(21, 0)
            sample_angular(model, rng, 1000)
            after.append(rng.random())
        assert after[0] == after[1], type(first).__name__


def test_bagel_theta_ks():
    axes = sample_angular(BagelAngular(), chunk_stream(61, 0), 1_000_000)
    theta = np.arccos(np.clip(axes[:, 2], -1.0, 1.0))
    assert kstest(theta, lambda th: (th - np.sin(th) * np.cos(th)) / math.pi).pvalue > 0.01


@pytest.mark.parametrize("a", [0.0, 0.3, 1.0])
def test_kneaded_phi_ks(a):
    axes = sample_angular(KneadedCardioidAngular(a), chunk_stream(62, 0), 1_000_000)
    phi = np.mod(np.arctan2(axes[:, 1], axes[:, 0]), 2 * math.pi)
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
    assert abs(below[-1] - tab.xi()) <= 1e-12 * tab.xi()
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
    theta = np.arccos(np.clip(axes[:, 2], -1.0, 1.0))
    assert kstest(theta, lambda th: table_theta_cdf(TABLE_COARSE, th)).pvalue > 0.01
    # the theta-cell with the most mass
    i = int(np.argmax(np.diff(table_theta_cdf(TABLE_COARSE, TABLE_COARSE.theta))))
    inside = (TABLE_COARSE.theta[i] < theta) & (theta < TABLE_COARSE.theta[i + 1])
    phi = np.mod(np.arctan2(axes[inside, 1], axes[inside, 0]), 2 * math.pi)
    assert kstest(phi, lambda ph: table_phi_cdf(TABLE_COARSE, i, ph)).pvalue > 0.01


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


def test_cos_sin_matches_libm():
    angle = np.random.default_rng(71).uniform(-1e4, 1e4, 1_000_000)
    c, s = _cos_sin(angle)
    assert np.max(np.abs(c - np.cos(angle))) <= 4.5e-16
    assert np.max(np.abs(s - np.sin(angle))) <= 4.5e-16
    assert np.max(np.abs(c * c + s * s - 1.0)) <= 4 * np.spacing(1.0)
    c, s = _cos_sin(np.array(0.0))
    assert c == 1.0 and s == 0.0
    assert np.array_equal(_cos_sin(np.array([math.pi, -math.pi]))[0], [-1.0, -1.0])


def test_cos_sin_against_mpmath_where_the_tangent_is_largest():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    # odd multiples of fl(pi) put the half angle next to a pole of tan
    k = np.concatenate([np.arange(1, 2001, 2), np.arange(999_001, 1_000_001, 2),
                        2 * np.random.default_rng(72).integers(0, 500_000, 1000) + 1])
    angle = np.concatenate([k * math.pi, -k * math.pi])
    assert np.max(np.abs(np.tan(0.5 * angle))) > 1e17
    c, s = _cos_sin(angle)
    ref_c = np.array([float(mpmath.cos(mpmath.mpf(float(a)))) for a in angle])
    ref_s = np.array([float(mpmath.sin(mpmath.mpf(float(a)))) for a in angle])
    assert np.array_equal(c, ref_c)
    assert np.all(np.abs(s - ref_s) <= 2 * np.spacing(np.abs(ref_s)))
    with np.errstate(invalid="ignore"):
        bad = np.array([np.inf, -np.inf, np.nan])
        c, s = _cos_sin(bad)
        assert np.all(np.isnan(c)) and np.all(np.isnan(s)) and np.all(np.isnan(np.cos(bad)))


def cos_sin_trajectory(ensemble, rho0, times, cfg):
    """mc_trajectory as it was with np.cos and np.sin of the angle: the oracle for _cos_sin."""
    n, r0 = cfg.n_samples, rho0.bloch
    times = np.asarray(times, dtype=float)
    total = np.zeros((times.size, 3))
    total_sq = np.zeros((times.size, 3))
    for index in range((n + cfg.chunk - 1) // cfg.chunk):
        rng = chunk_stream(cfg.seed, index)
        count = min(cfg.chunk, n - index * cfg.chunk)
        omega = sample_radial(ensemble.radial, rng, count)
        axes = np.ascontiguousarray(sample_angular(ensemble.angular, rng, count).T)
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
    return SeparableEnsemble(radial, random_table(47, 5, 6))


@pytest.mark.parametrize("ensemble, times", [
    (SeparableEnsemble(GaussianRadial(), KneadedCardioidAngular(0.3)), [-1.3, 0.0, 0.25, 2.0, 8.0]),
    (SeparableEnsemble(ReciprocalSquareRadial(), BagelAngular()), [0.2, 1.0, 3.0, 8.0]),
    (seeded_tabulated_ensemble(), [0.5, 4.0, 30.0]),
], ids=["gaussian-kneaded", "reciprocal-square-bagel", "tables"])
def test_mc_trajectory_matches_the_cos_sin_evolve(ensemble, times):
    rho0 = DensityMatrix([0.6, -0.2, 0.7])
    cfg = SamplerConfig(seed=74, n_samples=20001, chunk=4096)
    mean, stderr = cos_sin_trajectory(ensemble, rho0, times, cfg)
    for t, est, m, e in zip(times, mc_trajectory(ensemble, rho0, times, cfg), mean, stderr):
        assert np.max(np.abs(est.bloch_mean - m)) <= 1e-15, t
        if t != 0.0:
            assert np.max(np.abs(est.bloch_stderr - e) / e) <= 1e-12, t


@pytest.mark.parametrize("angular, per_sample", [(KneadedCardioidAngular(0.3), 184), (TABLE_COARSE, 296)],
                         ids=["kneaded", "table"])
def test_chunk_peak_memory_is_as_documented(angular, per_sample):
    # the figures of the MAX_CHUNK comment: the tracemalloc peak of one chunk
    # at the cap, evolved to two times, in bytes per sample
    ensemble = SeparableEnsemble(GaussianRadial(), angular)
    rho0 = DensityMatrix([0.3, -0.4, 0.5])
    cfg = SamplerConfig(seed=3, n_samples=MAX_CHUNK, chunk=MAX_CHUNK)
    tracemalloc.start()
    try:
        mc_trajectory(ensemble, rho0, [0.5, 2.0], cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert round(peak / MAX_CHUNK) == per_sample


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
    with pytest.raises(ValueError):
        SamplerConfig(seed=1, n_samples=10, chunk=0)
    for seed in (-1, 2 ** 64):
        with pytest.raises(ValueError, match="seed"):
            SamplerConfig(seed=seed, n_samples=10)
    SamplerConfig(seed=2 ** 64 - 1, n_samples=10)
