"""Time-local generators of the ensemble-averaged dynamics.

Between poles the exact channel M(t) defines a generator L(t) = Mdot M^-1 on
Bloch vectors.  For a unital qubit channel the split into antisymmetric and
symmetric parts is unique:

    L = [h]_x + K - tr(K) I ,

with [h]_x the cross-product matrix of the level-spacing vector h (the
effective Hamiltonian is h . sigma / 2) and K = [gamma_jk] the Kossakowski
matrix in the convention

    drho/dt = -i [h . sigma / 2, rho]
              + sum_jk (gamma_jk / 2)(sigma_j rho sigma_k - {sigma_k sigma_j, rho}/2).

Note the explicit factor 1/2 on the dissipator: rates here are twice as
small as in conventions that absorb it.  The reported level spacing
omega_bar is h_z, the lab z-component of h.

The split is evaluated over a whole time grid at once, in any frame, with M
inverted by its adjugate elementwise, so the entries that a family's
symmetry makes zero in L are exactly zero.  One closed form,
`aligned_generator`, is kept as its oracle: for every family with <n> along
z and a diagonal S (each built-in kind, and aligned tables) M is block
diagonal, so the 2x2 adjugate of its xy block gives all of h and K
elementwise over times of any shape, with no 3x3 product and NaN inside pole
windows.  `offdiagonal_rate` is its gamma_xy entry.  All time derivatives
are closed-form; points where |det M| falls below POLE_THRESHOLD count as
poles rather than being extrapolated."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynmap import MapFamily, _cross_matrix, diagonal_components, map_matrices

#: absolute bound below which a denominator, or det M, counts as a pole:
#: the closed form gives NaN there (``_guard``), and ``bloch_generators`` and
#: ``extract_generator`` raise PoleError
POLE_THRESHOLD = 1e-8


class PoleError(ValueError):
    """The map is not invertible (|det M| < POLE_THRESHOLD) at ``time``, where
    a generator was asked for."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


@dataclass(frozen=True, eq=False)
class RateTrajectory:
    """Rate series on a time grid; entries are NaN inside pole windows."""

    rates: dict
    poles: list


def _guard(denominator):
    """The denominator, with NaN where |value| < POLE_THRESHOLD."""
    return np.where(np.abs(denominator) < POLE_THRESHOLD, np.nan, denominator)


def aligned_generator(fam: MapFamily, t):
    """Closed-form generator (h, K) of an axis-aligned family, of shapes
    t.shape + (3,) and t.shape + (3, 3); ValueError for any other family.

    With <n> along z and S diagonal, M is block diagonal: the xy block
    [[f_x, -a], [a, f_y]], a = <n_z> s, is inverted by its adjugate over
    D = f_x f_y + <n_z>^2 s^2, and L_zz = fdot_z / f_z.  Then
    h = (0, 0, anti_yx) and K = sym - tr(sym) I / 2, written elementwise.
    h_z and gamma_xy are NaN where |D| < POLE_THRESHOLD, the diagonal of K
    also where |f_z| < POLE_THRESHOLD.
    """
    n, second = fam.moments.first, fam.moments.second
    tilt = np.concatenate([n[:2], (second - np.diag(np.diag(second))).ravel()])
    if not np.all(np.abs(tilt) <= 1e-12):
        raise ValueError("closed form requires <n> along z and a diagonal second-moment matrix")
    f, df, s, ds = diagonal_components(fam, t)
    (fx, fy, fz), (dfx, dfy, dfz) = np.moveaxis(f, -1, 0), np.moveaxis(df, -1, 0)
    nz = float(n[2])
    a, da = nz * s, nz * ds
    d = _guard(fx * fy + nz * nz * s * s)
    lxx, lyy, lzz = (dfx * fy + da * a) / d, (dfy * fx + da * a) / d, dfz / _guard(fz)
    lxy, lyx = (dfx * a - da * fx) / d, (da * fy - dfy * a) / d
    half_trace = 0.5 * (lxx + lyy + lzz)
    hz = 0.5 * (lyx - lxy)
    kxy = 0.5 * (lxy + lyx)
    zero = np.zeros_like(hz)
    h = np.stack([zero, zero, hz], axis=-1)
    k = np.stack([lxx - half_trace, kxy, zero, kxy, lyy - half_trace, zero,
                  zero, zero, lzz - half_trace], axis=-1)
    return h, k.reshape(np.shape(hz) + (3, 3))


def offdiagonal_rate(fam: MapFamily, t):
    """Coupled xy decay channel opened by azimuthal symmetry breaking, the
    gamma_xy entry of `aligned_generator`:

    gamma_xy = <n_z> [ (fdot_x - fdot_y) s - (f_x - f_y) sdot ] / 2D with
    D = f_x f_y + <n_z>^2 s^2; swapping the x and y axes flips its sign.
    Of t's shape, NaN where |D| < POLE_THRESHOLD; ValueError, as there, for
    a family that is not axis-aligned.

    No package code calls it; bench/tracer.py wraps it by name.
    """
    return aligned_generator(fam, t)[1][..., 0, 1]


def _split(dm, inv):
    """Level-spacing vectors h and Kossakowski matrices K of L = Mdot M^-1
    (stacked), the product written as a sum of elementwise products."""
    # summed from 0, so a sum of signed zeros (Mdot at t = 0) reads 0, not -0
    ell = sum(dm[..., :, j, None] * inv[..., None, j, :] for j in range(3))
    ell_t = np.swapaxes(ell, -1, -2)
    sym = 0.5 * (ell + ell_t)
    anti = 0.5 * (ell - ell_t)
    h = np.stack([anti[..., 2, 1], anti[..., 0, 2], anti[..., 1, 0]], axis=-1)
    k = sym - 0.5 * np.trace(sym, axis1=-2, axis2=-1)[..., None, None] * np.eye(3)
    return h, k


def _generators(fam: MapFamily, grid: np.ndarray):
    """Regular-point mask (|det M| >= POLE_THRESHOLD) and the split at those points.

    M^-1 = adj(M) / det M elementwise: the columns of adj M are the cross
    products of the rows of M, and det M is row 0 dotted with column 0.  With
    no LU pivoting or BLAS kernel, every entry that a family's symmetry makes
    zero in L, or equal to another, comes out exactly so."""
    m, dm = map_matrices(fam, grid, derivative=True)
    r0, r1, r2 = np.moveaxis(m, -2, 0)
    adj = np.stack([np.cross(r1, r2), np.cross(r2, r0), np.cross(r0, r1)], axis=-1)
    det = np.sum(m[..., 0, :] * adj[..., 0], axis=-1)
    ok = np.abs(det) >= POLE_THRESHOLD
    h, k = _split(dm[ok], adj[ok] / det[ok, None, None])
    return ok, h, k


def _bloch_matrices(h, k):
    """G = [h]_x + K - tr(K) I, the generator on Bloch vectors (stacked)."""
    return _cross_matrix(h) + k - np.trace(k, axis1=-2, axis2=-1)[..., None, None] * np.eye(3)


def _regular_split(fam: MapFamily, t):
    """(h, K) stacks at an array of times; PoleError if |det M| < POLE_THRESHOLD at any."""
    t = np.asarray(t, dtype=float).reshape(-1)
    ok, h, k = _generators(fam, t)
    if not np.all(ok):
        bad = float(t[np.argmin(ok)])
        raise PoleError(f"map not invertible at t={bad!r}", time=bad)
    return h, k


def bloch_generators(fam: MapFamily, t) -> np.ndarray:
    """Bloch generators G(t), drdt = G r, at an array of times, shape (n, 3, 3).

    Raises PoleError if |det M| < POLE_THRESHOLD at any of the times.
    """
    return _bloch_matrices(*_regular_split(fam, t))


def extract_generator(fam: MapFamily, t: float):
    """The batched split at one time: level spacing h, shape (3,), and
    Kossakowski matrix K, shape (3, 3); PoleError inside a pole window.

    No package code calls it; bench/tracer.py wraps it by name."""
    h, k = _regular_split(fam, [t])
    return h[0], k[0]


def _determinant(fam: MapFamily, c, s, f):
    """det M = prod_j f_j + s^2 n^T P n for the symmetric part P = c (I - S) + S,
    from det(P + s [n]_x) = det P + s^2 n^T P n; no 3x3 stacks."""
    n = fam.moments.first
    nsn = float(n @ fam.moments.second @ n)
    return np.prod(f, axis=-1) + s * s * (c * (float(n @ n) - nsn) + nsn)


def pole_scan(fam: MapFamily, window):
    """Generator singularities in a time window, by sign-change bracketing and
    batched multisection.

    The candidates are the sign changes of det M and of the three
    eigen-branches f_j of the symmetric part of M, and a candidate is kept
    only where |det M| < POLE_THRESHOLD.  The branches catch the double roots
    of det M (f_x = f_y with no first moment, as in bagel and dumbbell), where
    det M touches zero without changing sign; a branch root where the first
    moment keeps the map invertible (det M = s^2 n^T P n there) is dropped.

    A cell brackets a root when both end values are finite, differ in sign and
    the left one is nonzero (a zero at the right end is a root on the node).
    That rule runs on the sampled grid, then on each round that cuts every
    open bracket into 64 cells, all evaluated in one `expectations` call.  A
    bracket closes at its midpoint once no wider than 1e-12 of t or of
    1/omega_c, whichever is larger, and roots are merged within 1e-9 on the
    same scale, so the scan commutes with rescaling time by omega_c.
    Sorted, deduplicated; empty when the generator is regular.
    """
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise ValueError("window must have positive length")
    radial = fam.radial
    n = int(min(200001, max(2001, 400 * (hi - lo) * radial.omega_c)))
    sigma = np.linalg.eigvalsh(fam.moments.second)
    unit = 1.0 / radial.omega_c

    def values(t):
        # det M, then the eigenvalues f_j of the symmetric part of M, on the last axis
        c, s = radial.expectations(t)
        f = c[..., None] * (1.0 - sigma) + sigma
        return np.concatenate([_determinant(fam, c, s, f)[..., None], f], axis=-1)

    # one row per open bracket, its sample times along the row
    t = np.linspace(lo, hi, n)[None, :]
    cuts = np.linspace(0.0, 1.0, 65)  # 64 equal cells per bracket
    roots = []
    while t.size:
        v = values(t)
        left, right = v[:, :-1], v[:, 1:]
        flips = ((np.sign(left) != np.sign(right)) & (left != 0.0)
                 & np.isfinite(left) & np.isfinite(right))
        row, cell = np.nonzero(np.any(flips, axis=-1))
        a, b = t[row, cell], t[row, cell + 1]
        mid = 0.5 * (a + b)
        closed = b - a <= 1e-12 * np.maximum(unit, np.abs(mid))
        roots.append(mid[closed])
        a, b = a[~closed, None], b[~closed, None]
        t = a + (b - a) * cuts
    roots = np.sort(np.concatenate(roots))
    roots = roots[np.abs(values(roots)[:, 0]) < POLE_THRESHOLD]
    merged = []
    for r in roots.tolist():
        if not merged or abs(r - merged[-1]) > 1e-9 * max(unit, abs(r)):
            merged.append(r)
    return merged


def rate_trajectory(fam: MapFamily, grid) -> RateTrajectory:
    """Evaluate the generator on a whole grid at once; NaN inside pole windows."""
    grid = np.asarray(grid, dtype=float)
    ok, h, k = _generators(fam, grid)
    values = {"gamma_x": k[:, 0, 0], "gamma_y": k[:, 1, 1], "gamma_z": k[:, 2, 2],
              "gamma_xy": k[:, 0, 1], "omega_bar": h[:, 2],
              "kossakowski_min": np.linalg.eigvalsh(k)[:, 0]}
    rates = {}
    for name, value in values.items():
        rates[name] = np.full(grid.shape, np.nan)
        rates[name][ok] = value
    poles = pole_scan(fam, (float(grid[0]), float(grid[-1]))) if grid.size > 1 else []
    return RateTrajectory(rates=rates, poles=poles)

