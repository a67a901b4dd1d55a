"""Stochastic oracle: sample the ensemble and average unitary realizations.

Every estimate is assembled from fixed-size chunks, each driven by its own
counter-based random stream (Philox keyed by (seed, chunk index)), and the
chunk partials are reduced in index order.  The result is therefore
bit-identical for a given SamplerConfig.

Samplers invert exact CDFs (closed form or bisection); no rejection steps,
so the draw count per sample is fixed.
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


@dataclass(frozen=True)
class SamplerConfig:
    """Seed, sample count and chunk size; together they pin the estimate exactly."""

    seed: int
    n_samples: int
    chunk: int = 4096

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("need at least one sample")
        if self.chunk < 1:
            raise ValueError("chunk size must be positive")


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


def _bisect_cdf(cdf, u, lo, hi, iterations=44):
    """Vectorized bisection solve of cdf(x) = u on [lo, hi] (cdf monotone).

    44 halvings take a 2*pi bracket below 1e-12.
    """
    lo = np.full_like(u, lo, dtype=float)
    hi = np.full_like(u, hi, dtype=float)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        below = cdf(mid) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


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
    # piecewise-linear inverse CDF over the effective measure on a refined grid
    grid = np.unique(np.concatenate([
        np.linspace(a, b, 17) for a, b in zip(model.omega[:-1], model.omega[1:])]))
    w = model.weight(grid)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(grid))])
    cdf /= cdf[-1]
    return np.interp(rng.random(size), cdf, grid)


def sample_angular(model: AngularModel, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw axis directions from Theta(theta, phi) sin(theta); returns (size, 3)."""
    if isinstance(model, SphereAngular):
        cos_t = rng.uniform(-1.0, 1.0, size)
        phi = rng.uniform(0.0, _TWO_PI, size)
    elif isinstance(model, BagelAngular):
        u = rng.random(size)
        # theta marginal ~ sin^2; CDF (theta - sin(theta)cos(theta))/pi
        theta = _bisect_cdf(lambda th: (th - 0.5 * np.sin(2.0 * th)) / math.pi,
                            u, 0.0, math.pi)
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
        phi = _bisect_cdf(lambda ph: (ph + 0.5 * a * np.sin(2.0 * ph)) / _TWO_PI,
                          v, 0.0, _TWO_PI)
    elif isinstance(model, TabulatedAngular):
        return _sample_tabulated_angular(model, rng, size)
    else:
        raise TypeError(f"no sampler for {type(model).__name__}")
    sin_t = np.sqrt(np.clip(1.0 - cos_t * cos_t, 0.0, 1.0))
    return np.column_stack([sin_t * np.cos(phi), sin_t * np.sin(phi), cos_t])


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


def _evolve_bloch(r0: np.ndarray, omega: np.ndarray, axes: np.ndarray, t: float) -> np.ndarray:
    """Axis-angle rotation of a fixed Bloch vector by each sampled realization."""
    angle = omega * t
    c = np.cos(angle)[:, None]
    s = np.sin(angle)[:, None]
    dot = axes @ r0
    return c * r0 + s * np.cross(axes, r0) + (1.0 - c) * dot[:, None] * axes


def _chunk_partial(ensemble, r0, t, seed, index, count):
    rng = chunk_stream(seed, index)
    omega = sample_radial(ensemble.radial, rng, count)
    axes = sample_angular(ensemble.angular, rng, count)
    r_t = _evolve_bloch(r0, omega, axes, t)
    return r_t.sum(axis=0), (r_t * r_t).sum(axis=0)


def mc_average(ensemble: SeparableEnsemble, rho0: DensityMatrix, t: float,
               cfg: SamplerConfig) -> MCEstimate:
    """Ensemble average of the evolved Bloch vector over cfg.n_samples draws.

    Deterministic for a fixed config: chunk i draws from the stream keyed by
    (seed, i), and the chunk partials are summed in index order.
    """
    n = cfg.n_samples
    r0 = rho0.bloch
    if t == 0.0:
        # every realization is the identity; the estimator is r0 with no spread
        return MCEstimate(bloch_mean=r0.copy(), bloch_stderr=np.zeros(3), n=n)
    counts = [min(cfg.chunk, n - i * cfg.chunk) for i in range((n + cfg.chunk - 1) // cfg.chunk)]
    total = np.zeros(3)
    total_sq = np.zeros(3)
    for index, count in enumerate(counts):
        part_sum, part_sq = _chunk_partial(ensemble, r0, float(t), cfg.seed, index, count)
        total += part_sum
        total_sq += part_sq
    mean = total / n
    if n > 1:
        var = np.maximum(total_sq - n * mean * mean, 0.0) / (n - 1)
        stderr = np.sqrt(var / n)
    else:
        stderr = np.zeros(3)
    return MCEstimate(bloch_mean=mean, bloch_stderr=stderr, n=n)
