"""Stochastic oracle: sample the ensemble and average unitary realizations.

Every estimate is assembled from fixed-size chunks, each driven by its own
counter-based random stream (Philox keyed by (seed, chunk index)), and the
chunk partials are reduced in index order.  The result is therefore
bit-identical for a given SamplerConfig.

Every sampler draws from the exact model density with a fixed number of
draws per sample and no rejection.  The built-in kinds use closed forms only:
the bagel theta and the kneaded phi are the polar angle of a uniform point
on S^3, the latter mixed with a uniform angle.  Safeguarded Newton iteration
inverts the exact CDFs of tables only.  One draw serves every time of a
trajectory: each chunk is drawn once and evolved to all requested times.

The evolve forms cos and sin of each rotation angle from one tangent of the
half angle (_cos_sin).  numpy vectorizes float64 tan on common x86 hosts but
calls scalar libm for cos and sin, which would take most of the evolve's
time; where tan is not vectorized, one libm call still replaces two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angular import (AngularModel, BagelAngular, CardioidAngular, DumbbellAngular,
                      KneadedCardioidAngular, SphereAngular, TabulatedAngular, _theta_cell_cdf)
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
#: while a chunk is drawn and evolved, the tracemalloc peak is 23 float64 arrays
#: of the chunk length for the built-in kinds (184 B per sample, in the evolve)
#: and 37 for a table (296 B, in its Newton solve), so a chunk at the cap takes
#: 12 or 19 MB
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
        return _tabulated_radial_quantile(model, rng.random(size))
    raise TypeError(f"no sampler for {type(model).__name__}")


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
        cos_t = np.cos(_s3_polar_angle(rng, size))
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
        # (1 + a cos 2phi)/2pi = (1 - a) U(0, 2pi) + a cos^2(phi)/pi.  The second
        # part is the S^3 polar angle shifted by -pi/2, and by pi on a fair bit.
        # Both parts are drawn for every sample, so the draw count does not depend on a.
        shifted = _s3_polar_angle(rng, size) - _HALF_PI
        pick, bit, flat = rng.random((3, size))
        phi = np.where(pick < model.a, shifted + math.pi * (bit < 0.5), _TWO_PI * flat)
    elif isinstance(model, TabulatedAngular):
        return _sample_tabulated_angular(model, rng, size)
    else:
        raise TypeError(f"no sampler for {type(model).__name__}")
    sin_t = np.sqrt(np.clip(1.0 - cos_t * cos_t, 0.0, 1.0))
    return np.column_stack([sin_t * np.cos(phi), sin_t * np.sin(phi), cos_t])


def _s3_polar_angle(rng, size):
    """Polar angle of a uniform point on S^3, whose density is (2/pi) sin^2 on [0, pi].

    The point is four normals over their norm (Marsaglia, Ann. Math. Stat. 43,
    645 (1972)).
    """
    g = rng.standard_normal((4, size))
    return np.arctan2(np.sqrt(g[1] * g[1] + g[2] * g[2] + g[3] * g[3]), g[0])


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
    return np.column_stack([sin_t * np.cos(phi), sin_t * np.sin(phi), np.cos(theta)])


def _cos_sin(angle):
    """cos and sin of an array of angles from one tangent of the half angle.

    With tau = tan(angle / 2) and w = 2 / (1 + tau^2), cos = w - 1 and
    sin = w tau: one vectorized tan in place of two libm calls.  Each value
    is within 4.5e-16 of libm's.  cos is exactly 1 at 0 and -1 at +-fl(pi),
    where |tau| ~ 1e16 and sin = 2 / tau keeps its relative accuracy; inf
    and NaN give NaN, as np.cos does.
    """
    tau = np.tan(0.5 * angle)
    w = 2.0 / (1.0 + tau * tau)
    return w - 1.0, w * tau


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
        # the loop needs no axes, so across takes their memory
        across = np.subtract(r0[:, None], along, out=axes)
        # r_t = along + c across + s cross, written into two arrays per chunk
        # rather than four fresh temporaries per time, which is slower
        r_t, term = np.empty_like(across), np.empty_like(across)
        for k in moving:
            c, s = _cos_sin(omega * times[k])
            np.multiply(c, across, out=r_t)
            r_t += along
            r_t += np.multiply(s, cross, out=term)
            total[k] += r_t.sum(axis=1)
            total_sq[k] += np.multiply(r_t, r_t, out=term).sum(axis=1)
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
