"""Stochastic oracle: sample the ensemble and average unitary realizations.

Every estimate is assembled from fixed-size chunks, each driven by its own
counter-based random stream (Philox keyed by (seed, chunk index)), and the
chunk partials are reduced in index order.  The result is therefore
bit-identical for a given SamplerConfig.

Every sampler draws from the exact model density with a fixed number of
draws per sample and no rejection.  The built-in kinds use closed forms only,
with the cos and sin of each angle as ratios of the draws: a uniform phi as
(1 - tau^2, 2 tau) / (1 + tau^2) with tau = tan(phi / 2), and the polar angle
of a uniform point on S^3 (the bagel theta, and the kneaded phi mixed with a
uniform one) as ratios of four normals.  A radial table's weight
P(omega) omega^2 is a cubic on each segment with nonnegative Bernstein
coefficients, so it is a mixture of Beta(j + 1, 4 - j) laws, one per segment
and term, each drawn as the (j + 1)-th smallest of four uniforms (Devroye,
Non-Uniform Random Variate Generation, 1986; Farouki, CAGD 29, 379 (2012), on
the Bernstein basis).  Safeguarded Newton iteration inverts only the theta
CDF of an angular table.  One draw serves every time of a trajectory: each
chunk is drawn once and evolved to all requested times.

The evolve sums each realization's displacement d = r_t - r0 from one
tangent of the half angle, tau = tan(omega t / 2): with sin = 2 tau / (1 + tau^2),
cos - 1 = -tau sin exactly, so d = sin (n x r0 - tau (r0 - (r0.n) n)).  d is
O(omega t) with no cancellation as omega t -> 0, and its sums give the mean
and a variance that keep their relative accuracy at small times.  numpy
vectorizes float64 tan on common x86 hosts but calls scalar libm for cos and
sin, which would take most of the samplers' and the evolve's time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angular import (AngularModel, BagelAngular, CardioidAngular, DumbbellAngular,
                      KneadedCardioidAngular, SphereAngular, TabulatedAngular, _theta_cell_cdf)
from .dynmap import DensityMatrix, MapFamily
from .radial import (ExponentialCutoffRadial, GaussianRadial, RadialModel,
                     ReciprocalSquareRadial, TabulatedRadial)

_TWO_PI = 2.0 * math.pi
#: Philox keys are pairs of uint64 words, so seeds lie in [0, SEED_LIMIT)
SEED_LIMIT = 2 ** 64
#: no array is sized by the sample count, so this cap bounds run time only:
#: `validate` at the cap draws 1e7 realizations for each of 15 pairs
MAX_SAMPLES = 10_000_000
#: samples per chunk: it picks which Philox stream draws which samples, so it is
#: part of the estimate.  A pair's chunk peaks (tracemalloc) at 145 B per sample,
#: 0.6 MB, in the evolve, or 298 B, 1.2 MB, in the Newton solve of an angular
#: table's theta; each further angular model sharing the radial draw adds 48 B
CHUNK = 4096
#: stop a root once its Newton step or its bracket is this small
_NEWTON_TOL = 1e-12
#: hard cap on Newton iterations; next to a zero of pdf the most seen is 53
_NEWTON_CAP = 100


@dataclass(frozen=True)
class SamplerConfig:
    """Seed and sample count; with the fixed CHUNK they pin the estimate exactly."""

    seed: int
    n_samples: int

    def __post_init__(self):
        faults = []
        if not 0 <= self.seed < SEED_LIMIT:
            faults.append(f"seed must lie in [0, 2**64), got {self.seed}")
        if not 1 <= self.n_samples <= MAX_SAMPLES:
            faults.append(f"samples must lie in [1, {MAX_SAMPLES}], got {self.n_samples}")
        if faults:
            raise ValueError("; ".join(faults))


def chunk_stream(seed: int, index: int) -> np.random.Generator:
    """Independent deterministic stream for one chunk."""
    key = np.array([np.uint64(seed), np.uint64(index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _newton_cdf(cdf, pdf, u, lo, hi, x0):
    """Vectorized safeguarded Newton solve of cdf(x) = u on [lo, hi] (cdf monotone).

    Every evaluation narrows the bracket [lo, hi] around the root.  A Newton
    step x - (cdf(x) - u) / pdf(x) is taken when it lands inside the bracket;
    when it leaves the bracket, or pdf(x) = 0, the midpoint is taken instead
    (Devroye, Non-Uniform Random Variate Generation, 1986, ch. 2).  The bracket
    test is inclusive, because a converged step lands on the end that x has
    just become; a longer step onto an end would revisit an evaluated point and
    can cycle where rounding noise in cdf dominates a flat pdf, so it bisects.
    A sample stops, and keeps its value, once its step or its bracket width is
    at most _NEWTON_TOL.  Returns the roots and the number of iterations run.
    """
    lo = np.full(u.shape, lo, dtype=float)
    hi = np.full(u.shape, hi, dtype=float)
    x = np.clip(x0, lo, hi)
    active = np.ones(u.shape, dtype=bool)
    for iteration in range(1, _NEWTON_CAP + 1):
        f = cdf(x) - u
        below = f < 0.0
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(f == 0.0, 0.0, f / pdf(x))
        nxt = x - step
        inside = (lo <= nxt) & (nxt <= hi)
        revisit = ((nxt == lo) | (nxt == hi)) & (np.abs(step) > _NEWTON_TOL)
        nxt = np.where(inside & ~revisit, nxt, 0.5 * (lo + hi))
        done = (np.abs(nxt - x) <= _NEWTON_TOL) | (hi - lo <= _NEWTON_TOL)
        x = np.where(active, nxt, x)
        active &= ~done
        if not active.any():
            break
    return x, iteration


def sample_radial(model: RadialModel, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw frequencies from the effective measure P(omega) omega^2 domega."""
    if isinstance(model, GaussianRadial):
        g = np.square(rng.standard_normal((size, 3)))
        return model.omega_c * np.sqrt(g[:, 0] + g[:, 1] + g[:, 2])
    if isinstance(model, ExponentialCutoffRadial):
        u = rng.random((size, 4))
        return -model.omega_c * np.log(u).sum(axis=1)
    if isinstance(model, ReciprocalSquareRadial):
        return model.omega_c * rng.random(size)
    if isinstance(model, TabulatedRadial):
        return _sample_tabulated_radial(model, rng, size)
    raise TypeError(f"no sampler for {type(model).__name__}")


def _sample_tabulated_radial(model: TabulatedRadial, rng, size):
    """Exact draw from a table's effective measure, with five uniforms per sample.

    On a segment of width h, with omega = omega_0 + h x, the weight
    (p_0 (1 - x) + p_1 x)(omega_0 (1 - x) + omega_1 x)^2 is sum_j b_j B_j(x)
    in the cubic Bernstein basis B_j, with every b_j >= 0, and B_j integrates
    to 1/4.  One uniform picks a (segment, j) pair by its mass b_j h / 4, and
    x is then Beta(j + 1, 4 - j): the (j + 1)-th smallest of four uniforms.
    """
    om, p = model.omega, model.density
    w0, w1, p0, p1 = om[:-1], om[1:], p[:-1], p[1:]
    b = np.array([p0 * w0 * w0, (p1 * w0 * w0 + 2.0 * p0 * w0 * w1) / 3.0,
                  (2.0 * p1 * w0 * w1 + p0 * w1 * w1) / 3.0, p1 * w1 * w1])
    # pair k = 4 segment + j, in the order of the cumulative masses
    masses = np.concatenate([[0.0], np.cumsum((0.25 * (w1 - w0) * b).ravel(order="F"))])
    u = rng.random((size, 5))
    # the target (1 - u) total lies in (0, total], and the pair k picked has
    # masses[k] < target <= masses[k + 1], so never zero mass, at either end
    pair = np.searchsorted(masses, (1.0 - u[:, 0]) * masses[-1]) - 1
    segment, j = np.divmod(pair, 4)
    x = np.take_along_axis(np.sort(u[:, 1:], axis=1), j[:, None], axis=1)[:, 0]
    return np.minimum(w0[segment] + (w1[segment] - w0[segment]) * x, w1[segment])


def sample_angular(model: AngularModel, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw axis directions from Theta(theta, phi) sin(theta) as rows: returns
    (3, size), the x, y and z components of the axes.

    The built-in kinds take cos and sin of theta and phi as ratios of the draws."""
    if isinstance(model, TabulatedAngular):
        return _sample_tabulated_angular(model, rng, size)
    if isinstance(model, BagelAngular):
        cos_t, sin_t = _s3_polar(rng, size)
    else:
        if isinstance(model, SphereAngular):
            cos_t = rng.uniform(-1.0, 1.0, size)
        elif isinstance(model, DumbbellAngular):
            cos_t = np.cbrt(rng.uniform(-1.0, 1.0, size))
        elif isinstance(model, (CardioidAngular, KneadedCardioidAngular)):
            cos_t = 1.0 - 2.0 * np.sqrt(rng.random(size))
        else:
            raise TypeError(f"no sampler for {type(model).__name__}")
        # unlike 1 - cos^2, keeps its relative accuracy at the poles
        sin_t = np.sqrt((1.0 - cos_t) * (1.0 + cos_t))
    if isinstance(model, KneadedCardioidAngular):
        # (1 + a cos 2phi)/2pi = (1 - a) U(0, 2pi) + a cos^2(phi)/pi.  The second
        # part is the S^3 polar angle shifted by -pi/2, and by pi on a fair bit,
        # so (cos, sin) = +-(sin, -cos) of that angle.  Both parts are drawn for
        # every sample, so the draw count does not depend on a.
        cos_s, sin_s = _s3_polar(rng, size)
        pick, bit, flat = rng.random((3, size))
        flip, shifted = np.where(bit < 0.5, -1.0, 1.0), pick < model.a
        cos_p, sin_p = _unit_circle(_TWO_PI * flat)
        np.copyto(cos_p, flip * sin_s, where=shifted)
        np.copyto(sin_p, flip * -cos_s, where=shifted)
    else:
        cos_p, sin_p = _unit_circle(rng.uniform(0.0, _TWO_PI, size))
    cos_p *= sin_t
    sin_p *= sin_t
    return np.array([cos_p, sin_p, cos_t])


def _unit_circle(phi):
    """cos and sin of phi as (1 - tau^2, 2 tau) / (1 + tau^2), tau = tan(phi / 2)."""
    tau = np.tan(0.5 * phi)
    den = 1.0 + tau * tau
    return (1.0 - tau * tau) / den, 2.0 * tau / den


def _s3_polar(rng, size):
    """cos and sin of the polar angle of a uniform point on S^3, whose density is
    (2/pi) sin^2 on [0, pi]: g_0 / |g| and rho / |g| for four normals g,
    rho^2 = g_1^2 + g_2^2 + g_3^2 (Marsaglia, Ann. Math. Stat. 43, 645 (1972))."""
    g = rng.standard_normal((4, size))
    rho_sq = g[1] * g[1] + g[2] * g[2] + g[3] * g[3]
    norm = np.sqrt(g[0] * g[0] + rho_sq)
    return g[0] / norm, np.sqrt(rho_sq) / norm


def _sample_tabulated_angular(model: TabulatedAngular, rng, size):
    """Exact draw from the bilinear table: theta from its marginal, then phi given theta.

    On theta-cell i the phi-integrated density is (A_i + b x) sin(theta_i + x),
    with A the row masses and x = theta - theta_i.  The cell is picked by its
    exact mass and its CDF inverted by Newton.  At the drawn theta the phi
    density mixes rows i and i + 1 with weights (1 - w) A_i and w A_{i+1},
    w = x / (theta_{i+1} - theta_i).  A row is picked, then a phi-cell by its
    mass, and the cell's linear density is inverted in closed form.  Three
    uniforms per sample, whatever the table; the masses come with the model.
    """
    th, ph, v, rows, masses = model.theta, model.phi, model.values, model.row_mass, model.theta_cdf
    u_theta, u_row, u_phi = rng.random((3, size))
    target = u_theta * masses[-1]
    # side="right" never picks a zero-mass cell below the target
    i = np.clip(np.searchsorted(masses, target, side="right") - 1, 0, th.size - 2)
    h = th[i + 1] - th[i]
    a0, b = rows[i], (rows[i + 1] - rows[i]) / h
    s, c = np.sin(th[i]), np.cos(th[i])
    y = target - masses[i]
    # start from the exact root for a density constant in theta (b = 0)
    cell_mass = model.theta_mass[i]
    q = np.divide(y, cell_mass, out=np.zeros_like(y), where=cell_mass > 0.0)
    x0 = np.arccos(np.clip(c - q * (c - np.cos(th[i + 1])), -1.0, 1.0)) - th[i]
    x, _ = _newton_cdf(lambda x: _theta_cell_cdf(x, a0, b, s, c),
                       lambda x: (a0 + b * x) * (s * np.cos(x) + c * np.sin(x)),
                       y, 0.0, h, x0)
    theta = th[i] + x

    w = x / h
    lower, upper = (1.0 - w) * rows[i], w * rows[i + 1]
    row = i + (u_row * (lower + upper) >= lower)
    # one cumulative sum over all rows keeps every row's masses monotone, with
    # no division by a row mass, which is 0 where the density vanishes on a row
    n_cells, flat = ph.size - 1, model.phi_cdf
    start = row * n_cells
    target = flat[start] + u_phi * (flat[start + n_cells] - flat[start])
    k = np.clip(np.searchsorted(flat, target, side="right") - 1, start, start + n_cells - 1)
    j = k - start
    # the root t of v0 t + (v1 - v0) t^2 / 2 width = y, in a form without
    # cancellation; 0 where the cell's density and y vanish together
    v0, v1, y, width = v[row, j], v[row, j + 1], target - flat[k], ph[j + 1] - ph[j]
    den = v0 + np.sqrt(np.maximum(v0 * v0 + 2.0 * (v1 - v0) * y / width, 0.0))
    t = np.divide(2.0 * y, den, out=np.zeros_like(y), where=den > 0.0)
    phi = ph[j] + np.minimum(t, width)

    sin_t = np.sin(theta)
    return np.array([sin_t * np.cos(phi), sin_t * np.sin(phi), np.cos(theta)])


def mc_trajectory(fam: MapFamily, rho0: DensityMatrix, times,
                  cfg: SamplerConfig) -> tuple[np.ndarray, np.ndarray]:
    """Ensemble averages of the evolved Bloch vector at each time: (mean, stderr),
    the sample mean and its per-component standard error, each (len(times), 3).
    Draws come from the family's radial and angular models.

    Deterministic for a fixed config: chunk i is drawn once from the stream
    keyed by (seed, i) and evolved to every time, and each time's chunk
    partials are summed in index order, so a row does not depend on the
    other times.  At t == 0 every displacement d is exactly 0, so the
    row is r0 with no spread; one sample has no spread either.
    """
    return _mc_pairs(fam.radial, [fam.angular], rho0, times, cfg)[0]


def _mc_pairs(radial: RadialModel, angulars, rho0: DensityMatrix, times, cfg: SamplerConfig):
    """mc_trajectory of the radial model paired with each angular model, as a
    list of (mean, stderr).

    A chunk's frequencies, and the half-angle tangents of each time, serve
    every pair: before each angular draw the stream is reset to its state
    after the radial draw, so each pair gets exactly the draws it gets alone.
    """
    n = cfg.n_samples
    r0 = rho0.bloch
    times = np.asarray(times, dtype=float).ravel()
    total = np.zeros((len(angulars), times.size, 3))
    total_sq = np.zeros_like(total)
    for index in range((n + CHUNK - 1) // CHUNK):
        rng = chunk_stream(cfg.seed, index)
        count = min(CHUNK, n - index * CHUNK)
        half_omega = 0.5 * sample_radial(radial, rng, count)
        state = rng.bit_generator.state
        pairs = []
        for angular in angulars:
            rng.bit_generator.state = state
            # one row per component, so that the sums over samples run along rows
            axes = sample_angular(angular, rng, count)
            x, y, z = axes  # n x r0 as np.cross forms it, which is slower
            cross = np.array([y * r0[2] - z * r0[1], z * r0[0] - x * r0[2], x * r0[1] - y * r0[0]])
            # the loop needs no axes, so across takes their memory
            pairs.append((cross, np.subtract(r0[:, None], (r0 @ axes) * axes, out=axes)))
        # d is written into two arrays per chunk rather than fresh
        # temporaries per time, which is slower
        d, d_sq = np.empty((3, count)), np.empty((3, count))
        for k, t in enumerate(times):
            tau = np.tan(half_omega * t)
            sin = 2.0 * tau / (1.0 + tau * tau)
            for j, (cross, across) in enumerate(pairs):
                np.multiply(tau, across, out=d)
                np.subtract(cross, d, out=d)
                d *= sin
                total[j, k] += d.sum(axis=1)
                total_sq[j, k] += np.multiply(d, d, out=d_sq).sum(axis=1)
    mean_d = total / n
    var = np.maximum(total_sq - n * mean_d * mean_d, 0.0) / max(n - 1, 1)
    return list(zip(r0 + mean_d, np.sqrt(var / n)))


def mc_average(fam: MapFamily, rho0: DensityMatrix, t: float,
               cfg: SamplerConfig) -> tuple[np.ndarray, np.ndarray]:
    """Ensemble average of the evolved Bloch vector at one time: the row of
    mc_trajectory at [t], as (mean, stderr), each of shape (3,)."""
    mean, stderr = mc_trajectory(fam, rho0, [t], cfg)
    return mean[0], stderr[0]
