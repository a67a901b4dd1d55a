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

The split is evaluated over a whole time grid at once, in any frame.
Closed forms per symmetry class (isotropic, anisotropic diagonal, azimuthal
with level spacing, off-diagonal xy rate) are kept as oracles for it.  All
time derivatives are closed-form; points where |det M| falls below
POLE_THRESHOLD count as poles rather than being extrapolated."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynmap import MapFamily, diagonal_components, map_matrices
from .radial import RadialModel

#: absolute bound below which a denominator, or det M, counts as a pole:
#: ``_require`` and ``extract_generator`` raise PoleError when |value| < it
POLE_THRESHOLD = 1e-8


class PoleError(ValueError):
    """A generator denominator is inside its pole exclusion window."""

    def __init__(self, message, time=None, denominator=None):
        super().__init__(message)
        self.time = time
        self.denominator = denominator


@dataclass(frozen=True, eq=False)
class LindbladGenerator:
    """Level-spacing vector plus Kossakowski matrix at one time."""

    h: np.ndarray
    kossakowski: np.ndarray
    time: float

    def __post_init__(self):
        h = np.array(self.h, dtype=float).reshape(3)
        h.setflags(write=False)
        object.__setattr__(self, "h", h)
        k = np.array(self.kossakowski, dtype=float).reshape(3, 3)
        if np.max(np.abs(k - k.T)) > 1e-12 * max(1.0, float(np.max(np.abs(k)))):
            raise ValueError("Kossakowski matrix must be symmetric")
        k = 0.5 * (k + k.T)
        k.setflags(write=False)
        object.__setattr__(self, "kossakowski", k)

    def bloch_generator(self) -> np.ndarray:
        """The 3x3 generator acting on Bloch vectors, drdt = G r."""
        return _bloch_matrices(self.h, self.kossakowski)


@dataclass(frozen=True, eq=False)
class RateTrajectory:
    """Rate series on a time grid; entries are NaN inside pole windows."""

    grid: np.ndarray
    rates: dict
    poles: list

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        grid.setflags(write=False)
        object.__setattr__(self, "grid", grid)


def _require(denominator: float, t: float, what: str) -> float:
    if abs(denominator) < POLE_THRESHOLD:
        raise PoleError(f"{what} inside pole window at t={t!r} (|den|={abs(denominator):.3e})",
                        time=t, denominator=denominator)
    return denominator


def isotropic_rate(radial: RadialModel, t: float) -> float:
    """Common decay rate of the three Pauli channels under full rotational symmetry.

    gamma = -wdot / 2w for the mixing weight w = (2 <cos omega t> + 1)/3.
    """
    c, _, dc, _ = radial.expectations(t, derivative=True)
    w = (2.0 * c + 1.0) / 3.0
    _require(w, t, "mixing weight")
    return -dc / (3.0 * w)


def anisotropic_rates(fam: MapFamily, t: float) -> np.ndarray:
    """Per-axis rates for diagonal maps: gamma_j = fdot_j/2f_j - sum_{k!=j} fdot_k/2f_k."""
    f, df, _, _ = diagonal_components(fam, t, derivative=True)
    for j, name in enumerate("xyz"):
        _require(f[j], t, f"f_{name}")
    logd = df / (2.0 * f)
    return 2.0 * logd - np.sum(logd)


def azimuthal_generator(fam: MapFamily, t: float) -> LindbladGenerator:
    """Generator for azimuthally symmetric geometries (f_x = f_y).

    The broken xy-reflection shows up as a first z-moment, which adds the
    effective level spacing h_z and reshapes gamma_z; gamma_x = gamma_y stay
    locked to f_z.
    """
    f, df, s, ds = diagonal_components(fam, t, derivative=True)
    if abs(f[0] - f[1]) > 1e-10 * max(1.0, abs(f[0])):
        raise ValueError("azimuthal closed form requires equal x/y second moments")
    nz = float(fam.moments.first[2])
    _require(f[2], t, "f_z")
    d = _require(f[0] * f[0] + nz * nz * s * s, t, "level-spacing denominator")
    gx = -df[2] / (2.0 * f[2])
    hz = nz * (f[0] * ds - df[0] * s) / d
    gz = -f[0] * df[0] / d - gx - nz * nz * s * ds / d
    return LindbladGenerator(h=[0.0, 0.0, hz], kossakowski=np.diag([gx, gx, gz]), time=float(t))


def offdiagonal_rate(fam: MapFamily, t):
    """Coupled xy decay channel opened by azimuthal symmetry breaking.

    gamma_xy = <n_z> [ (fdot_x - fdot_y) s - (f_x - f_y) sdot ] / 2D with
    D = f_x f_y + <n_z>^2 s^2; swapping the x and y axes flips its sign.
    Vectorized over t: a scalar t gives a float and raises PoleError where
    |D| < POLE_THRESHOLD; an array gives an array with NaN there.
    """
    f, df, s, ds = diagonal_components(fam, t, derivative=True)
    nz = float(fam.moments.first[2])
    d = f[..., 0] * f[..., 1] + nz * nz * s * s
    if np.ndim(t) == 0:
        _require(float(d), t, "off-diagonal denominator")
    d = np.where(np.abs(d) < POLE_THRESHOLD, np.nan, d)
    rate = nz * ((df[..., 0] - df[..., 1]) * s - (f[..., 0] - f[..., 1]) * ds) / (2.0 * d)
    return float(rate) if np.ndim(t) == 0 else rate


def _split(m, dm):
    """Level-spacing vectors h and Kossakowski matrices K of L = Mdot M^-1 (stacked)."""
    ell = dm @ np.linalg.inv(m)
    ell_t = np.swapaxes(ell, -1, -2)
    sym = 0.5 * (ell + ell_t)
    anti = 0.5 * (ell - ell_t)
    h = np.stack([anti[..., 2, 1], anti[..., 0, 2], anti[..., 1, 0]], axis=-1)
    k = sym - 0.5 * np.trace(sym, axis1=-2, axis2=-1)[..., None, None] * np.eye(3)
    return h, k


def extract_generator(fam: MapFamily, t: float) -> LindbladGenerator:
    """General route: L = Mdot M^-1, split into level spacing and Kossakowski matrix.

    Works for every symmetry class and frame (it is the defining
    construction); the closed-form routes above are its per-class reductions.
    """
    m, dm = map_matrices(fam, float(t), derivative=True)
    det = np.linalg.det(m)
    if abs(det) < POLE_THRESHOLD:
        raise PoleError(f"map not invertible at t={t!r} (|det|={abs(det):.3e})",
                        time=t, denominator=det)
    h, k = _split(m, dm)
    return LindbladGenerator(h=h, kossakowski=k, time=float(t))


def _generators(fam: MapFamily, grid: np.ndarray):
    """Regular-point mask (|det M| >= POLE_THRESHOLD) and the split at those points."""
    m, dm = map_matrices(fam, grid, derivative=True)
    ok = np.abs(np.linalg.det(m)) >= POLE_THRESHOLD
    h, k = _split(m[ok], dm[ok])
    return ok, h, k


#: the cross-product matrices [e_x]_x, [e_y]_x, [e_z]_x, flattened: [h]_x = h @ _UNIT_CROSS
_UNIT_CROSS = np.array([[0, 0, 0, 0, 0, -1, 0, 1, 0],
                        [0, 0, 1, 0, 0, 0, -1, 0, 0],
                        [0, -1, 0, 1, 0, 0, 0, 0, 0]], dtype=float)


def _bloch_matrices(h, k):
    """G = [h]_x + K - tr(K) I, the generator on Bloch vectors (stacked)."""
    cross = (h @ _UNIT_CROSS).reshape(k.shape)
    return cross + k - np.trace(k, axis1=-2, axis2=-1)[..., None, None] * np.eye(3)


def bloch_generators(fam: MapFamily, t) -> np.ndarray:
    """Bloch generators G(t), drdt = G r, at an array of times, shape (n, 3, 3).

    Raises PoleError if |det M| < POLE_THRESHOLD at any of the times.
    """
    t = np.asarray(t, dtype=float).reshape(-1)
    ok, h, k = _generators(fam, t)
    if not np.all(ok):
        bad = float(t[np.argmin(ok)])
        raise PoleError(f"map not invertible at t={bad!r}", time=bad)
    return _bloch_matrices(h, k)


def _determinant(fam: MapFamily, c, s, f):
    """det M = prod_j f_j + s^2 n^T P n for the symmetric part P = c (xi I - S) + S / xi,
    from det(P + s [n]_x) = det P + s^2 n^T P n; no 3x3 stacks."""
    n = fam.moments.first
    nsn = float(n @ fam.moments.second @ n)
    xi = fam.xi
    return np.prod(f, axis=-1) + s * s * (c * (xi * float(n @ n) - nsn) + nsn / xi)


def _bisect(func, lo, hi, unit, iterations=100):
    """A root of func in [lo, hi] to 1e-12 relative, or 1e-12 * unit near t = 0."""
    flo = func(lo)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-12 * max(unit, abs(mid)):
            break
        fmid = func(mid)
        if fmid == 0.0:
            return mid
        if (flo < 0.0) != (fmid < 0.0):
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def _sign_change_roots(func, grid, values, unit):
    """Bisected roots of func in every grid cell where its sampled values flip sign.

    A cell is bracketed only when both end values are finite and the left one
    is nonzero (a zero at the right end is a root on the node); a NaN or
    infinite sample brackets nothing.
    """
    signs = np.sign(values)
    finite = np.isfinite(values)
    flips = np.nonzero((signs[:-1] != signs[1:]) & (signs[:-1] != 0.0)
                       & finite[:-1] & finite[1:])[0]
    return [_bisect(func, grid[i], grid[i + 1], unit) for i in flips]


def pole_scan(fam: MapFamily, window):
    """Generator singularities in a time window, by sign-change bracketing + bisection.

    The candidates are the sign changes of det M and of the three
    eigen-branches f_j of the symmetric part of M, and a candidate is kept
    only where |det M| < POLE_THRESHOLD.  The branches catch the double roots
    of det M (f_x = f_y with no first moment, as in bagel and dumbbell), where
    det M touches zero without changing sign; a branch root where the first
    moment keeps the map invertible (det M = s^2 n^T P n there) is dropped.
    Roots are bisected to 1e-12 and merged within 1e-9, relative to t or to
    1/omega_c, whichever is larger, so the scan commutes with rescaling time
    by omega_c.  Sorted, deduplicated; empty when the generator is regular.
    """
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise ValueError("window must have positive length")
    omega_c = getattr(fam.ensemble.radial, "omega_c", 1.0)
    n = int(min(200001, max(2001, 400 * (hi - lo) * omega_c)))
    grid = np.linspace(lo, hi, n)
    radial = fam.ensemble.radial
    sigma = np.linalg.eigvalsh(fam.moments.second)

    def branches(c):
        # eigenvalues f_j of the symmetric part of M; c = <cos omega t>
        return np.asarray(c)[..., None] * (fam.xi - sigma) + sigma / fam.xi

    def det_at(t):
        c, s = radial.expectations(t)
        return float(_determinant(fam, c, s, branches(c)))

    c, s = radial.expectations(grid)
    f = branches(c)
    unit = 1.0 / omega_c
    roots = _sign_change_roots(det_at, grid, _determinant(fam, c, s, f), unit)
    for j in range(3):
        roots += _sign_change_roots(
            lambda t, j=j: float(branches(radial.expectations(t)[0])[j]), grid, f[:, j], unit)
    roots = [r for r in roots if abs(det_at(r)) < POLE_THRESHOLD]
    roots.sort()
    merged = []
    for r in roots:
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
    return RateTrajectory(grid=grid, rates=rates, poles=poles)

