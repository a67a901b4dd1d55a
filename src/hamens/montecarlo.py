"""Stochastic oracle: sample the ensemble and average unitary realizations.

Every estimate is assembled from fixed-size chunks, each driven by its own
counter-based random stream (Philox keyed by (seed, chunk index)), and the
chunk partials are reduced in index order.  The result is therefore
bit-identical for a given SamplerConfig.

Samplers invert exact CDFs, in closed form or by safeguarded Newton
iteration; no rejection steps, so the draw count per sample is fixed.  One
draw serves every time of a trajectory: each chunk is drawn once and evolved
to all requested times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angular import (AngularModel, BagelAngular, CardioidAngular, DumbbellAngular,
                      KneadedCardioidAngular, SphereAngular, TabulatedAngular)
from .ensemble import SeparableEnsemble
from .radial import (ExponentialCutoffRadial, GaussianRadial, RadialModel,
                     ReciprocalSquareRadial, TabulatedRadial)
from .su2 import DensityMatrix

_TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi
#: Philox keys are pairs of uint64 words, so seeds lie in [0, SEED_LIMIT)
SEED_LIMIT = 2 ** 64
#: no array is sized by the sample count, so this cap bounds run time only:
#: `validate` at the cap draws 1e7 realizations for each of 15 pairs
MAX_SAMPLES = 10_000_000
#: about 22 float64 arrays of the chunk length are live while a chunk is drawn
#: and evolved (180 B per sample), so a chunk at the cap takes about 12 MB
MAX_CHUNK = 65_536
#: stop a root once its Newton step or its bracket is this small
_NEWTON_TOL = 1e-12
#: hard cap on Newton iterations; next to a zero of pdf the most seen is 53
_NEWTON_CAP = 100


@dataclass(frozen=True)
class SamplerConfig:
    """Seed, sample count and chunk size; together they pin the estimate exactly."""

    seed: int
    n_samples: int
    chunk: int = 4096

    def __post_init__(self):
        if not 0 <= self.seed < SEED_LIMIT:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        if not 1 <= self.n_samples <= MAX_SAMPLES:
            raise ValueError(f"sample count must lie in [1, {MAX_SAMPLES}], got {self.n_samples}")
        if not 1 <= self.chunk <= MAX_CHUNK:
            raise ValueError(f"chunk size must lie in [1, {MAX_CHUNK}], got {self.chunk}")


@dataclass(frozen=True, eq=False)
class MCEstimate:
    """Sample mean of the Bloch vector with per-component standard errors."""

    bloch_mean: np.ndarray
    bloch_stderr: np.ndarray
    n: int


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
        g = rng.standard_normal((size, 3))
        return model.omega_c * np.linalg.norm(g, axis=1)
    if isinstance(model, ExponentialCutoffRadial):
        u = rng.random((size, 4))
        return -model.omega_c * np.log(u).sum(axis=1)
    if isinstance(model, ReciprocalSquareRadial):
        return model.omega_c * rng.random(size)
    if isinstance(model, TabulatedRadial):
        return _sample_tabulated_radial(model, rng, size)
    raise TypeError(f"no sampler for {type(model).__name__}")


def _sample_tabulated_radial(model: TabulatedRadial, rng, size):
    return _tabulated_radial_quantile(model, rng.random(size))


def _tabulated_radial_quantile(model: TabulatedRadial, u):
    """Exact inverse of the effective-measure CDF of a table at probabilities u.

    The segment is picked by its exact mass, and its quartic CDF in v (see
    TabulatedRadial.segment_cubics) is inverted by Newton.
    """
    mid, half, (r0, r1, r2, r3) = model.segment_cubics()
    masses = np.concatenate([[0.0], np.cumsum(2.0 * (r0 + r2 / 3.0))])
    target = np.asarray(u, dtype=float) * masses[-1]
    # side="right" never picks a zero-mass segment below the target
    j = np.clip(np.searchsorted(masses, target, side="right") - 1, 0, r0.size - 1)
    r0, r1, r2, r3 = r0[j], r1[j], r2[j], r3[j]
    y = target - masses[j]
    left = r0 - 0.5 * r1 + r2 / 3.0 - 0.25 * r3          # minus the antiderivative at v = -1
    mass = masses[j + 1] - masses[j]
    v0 = np.divide(2.0 * y, mass, out=np.zeros_like(y), where=mass > 0.0) - 1.0
    v, _ = _newton_cdf(lambda v: v * (r0 + v * (0.5 * r1 + v * (r2 / 3.0 + 0.25 * v * r3))) + left,
                       lambda v: r0 + v * (r1 + v * (r2 + v * r3)),
                       y, -1.0, 1.0, v0)
    return np.clip(mid[j] + half[j] * v, model.omega[j], model.omega[j + 1])


def sample_angular(model: AngularModel, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw axis directions from Theta(theta, phi) sin(theta); returns (size, 3)."""
    if isinstance(model, SphereAngular):
        cos_t = rng.uniform(-1.0, 1.0, size)
        phi = rng.uniform(0.0, _TWO_PI, size)
    elif isinstance(model, BagelAngular):
        u = rng.random(size)
        # theta marginal ~ sin^2; CDF (theta - sin(theta)cos(theta))/pi
        theta, _ = _newton_cdf(lambda th: (th - 0.5 * np.sin(2.0 * th)) / math.pi,
                               lambda th: 2.0 * np.sin(th) ** 2 / math.pi,
                               u, 0.0, math.pi, _bagel_guess(u))
        cos_t = np.cos(theta)
        phi = rng.uniform(0.0, _TWO_PI, size)
    elif isinstance(model, DumbbellAngular):
        v = rng.uniform(-1.0, 1.0, size)
        cos_t = np.cbrt(v)
        phi = rng.uniform(0.0, _TWO_PI, size)
    elif isinstance(model, CardioidAngular):
        u = rng.random(size)
        cos_t = 1.0 - 2.0 * np.sqrt(u)
        phi = rng.uniform(0.0, _TWO_PI, size)
    elif isinstance(model, KneadedCardioidAngular):
        u = rng.random(size)
        cos_t = 1.0 - 2.0 * np.sqrt(u)
        v = rng.random(size)
        a = model.a
        phi, _ = _newton_cdf(lambda ph: (ph + 0.5 * a * np.sin(2.0 * ph)) / _TWO_PI,
                             lambda ph: (1.0 + a * np.cos(2.0 * ph)) / _TWO_PI,
                             v, 0.0, _TWO_PI, _TWO_PI * v)
    elif isinstance(model, TabulatedAngular):
        return _sample_tabulated_angular(model, rng, size)
    else:
        raise TypeError(f"no sampler for {type(model).__name__}")
    sin_t = np.sqrt(np.clip(1.0 - cos_t * cos_t, 0.0, 1.0))
    return np.column_stack([sin_t * np.cos(phi), sin_t * np.sin(phi), cos_t])


def _bagel_guess(u):
    """Start for the bagel theta: y = theta - pi/2 solves y + sin(2y)/2 = pi(u - 1/2).

    y + sin(2y)/2 is about 2y in the middle and pi/2 - (2/3)(pi/2 - |y|)^3
    near the ends; each approximation is inverted where it holds.
    """
    s = math.pi * (u - 0.5)
    end = np.sign(s) * (_HALF_PI - np.cbrt(1.5 * np.maximum(_HALF_PI - np.abs(s), 0.0)))
    return _HALF_PI + np.where(np.abs(s) < 1.0, 0.5 * s, end)


def _refined(grid, target):
    """Subdivide cells only as far as needed to reach the target spacing."""
    pieces = []
    for a, b in zip(grid[:-1], grid[1:]):
        pieces.append(np.linspace(a, b, max(2, int(np.ceil((b - a) / target)) + 1)))
    return np.unique(np.concatenate(pieces))


def _sample_tabulated_angular(model: TabulatedAngular, rng, size):
    # theta from the phi-integrated marginal, then phi from the conditional
    # at the drawn theta; piecewise-linear inverse CDFs on refined grids.
    th_grid = _refined(model.theta, math.pi / 512)
    ph_grid = _refined(model.phi, math.pi / 256)
    dens = model.density(th_grid[:, None], ph_grid[None, :]) * np.sin(th_grid)[:, None]
    marg = np.trapezoid(dens, ph_grid, axis=1)
    cdf_t = np.concatenate([[0.0], np.cumsum(0.5 * (marg[1:] + marg[:-1]) * np.diff(th_grid))])
    cdf_t /= cdf_t[-1]
    theta = np.interp(rng.random(size), cdf_t, th_grid)
    u = rng.random(size)

    # conditional phi draw in blocks: the dense (samples x phi-grid) CDF
    # table would not fit in memory in one piece
    phi = np.empty(size)
    block = max(1, 4_000_000 // ph_grid.size)
    for start in range(0, size, block):
        sel = slice(start, min(start + block, size))
        cond = model.density(theta[sel, None], ph_grid[None, :])
        n_sel = cond.shape[0]
        cdf_p = np.concatenate(
            [np.zeros((n_sel, 1)),
             np.cumsum(0.5 * (cond[:, 1:] + cond[:, :-1]) * np.diff(ph_grid), axis=1)],
            axis=1)
        cdf_p /= cdf_p[:, -1:]
        ub = u[sel]
        idx = np.clip((cdf_p < ub[:, None]).sum(axis=1), 1, ph_grid.size - 1)
        rows = np.arange(n_sel)
        c0 = cdf_p[rows, idx - 1]
        c1 = cdf_p[rows, idx]
        frac = np.where(c1 > c0, (ub - c0) / np.where(c1 > c0, c1 - c0, 1.0), 0.0)
        phi[sel] = ph_grid[idx - 1] + frac * (ph_grid[idx] - ph_grid[idx - 1])

    sin_t = np.sin(theta)
    return np.column_stack([sin_t * np.cos(phi), sin_t * np.sin(phi), np.cos(theta)])


def mc_trajectory(ensemble: SeparableEnsemble, rho0: DensityMatrix, times,
                  cfg: SamplerConfig) -> list[MCEstimate]:
    """Ensemble averages of the evolved Bloch vector at each time, one MCEstimate per time.

    Deterministic for a fixed config: chunk i is drawn once from the stream
    keyed by (seed, i) and evolved to every time, and each time's chunk
    partials are summed in index order, so an entry does not depend on the
    other times.  At t == 0 every realization is the identity, and the
    estimate is r0 with no spread.
    """
    n = cfg.n_samples
    r0 = rho0.bloch
    times = np.asarray(times, dtype=float).ravel()
    moving = np.flatnonzero(times != 0.0)
    total = np.zeros((times.size, 3))
    total_sq = np.zeros((times.size, 3))
    for index in range((n + cfg.chunk - 1) // cfg.chunk if moving.size else 0):
        rng = chunk_stream(cfg.seed, index)
        count = min(cfg.chunk, n - index * cfg.chunk)
        omega = sample_radial(ensemble.radial, rng, count)
        # one row per component, so that the sums over samples run along rows
        axes = np.ascontiguousarray(sample_angular(ensemble.angular, rng, count).T)
        # time-independent parts of the axis-angle rotation
        cross = np.cross(axes, r0, axisa=0, axisc=0)
        along = (r0 @ axes) * axes
        for k in moving:
            angle = omega * times[k]
            c = np.cos(angle)
            r_t = c * r0[:, None] + np.sin(angle) * cross + (1.0 - c) * along
            total[k] += r_t.sum(axis=1)
            total_sq[k] += (r_t * r_t).sum(axis=1)
    mean = total / n
    var = np.maximum(total_sq - n * mean * mean, 0.0) / max(n - 1, 1)
    still = (times == 0.0)[:, None]
    mean = np.where(still, r0, mean)
    stderr = np.where(still | (n == 1), 0.0, np.sqrt(var / n))
    return [MCEstimate(bloch_mean=m, bloch_stderr=e, n=n) for m, e in zip(mean, stderr)]


def mc_average(ensemble: SeparableEnsemble, rho0: DensityMatrix, t: float,
               cfg: SamplerConfig) -> MCEstimate:
    """Ensemble average of the evolved Bloch vector at one time: mc_trajectory at [t]."""
    return mc_trajectory(ensemble, rho0, [t], cfg)[0]
