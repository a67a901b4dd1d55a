"""Panel-based Gauss-Legendre quadrature tuned for oscillatory weighted integrals.

Two entry points:

* ``panel_integrate`` -- adaptive 1D integration over a panel decomposition,
  used for radial expectations <f(omega t)>_P.  Panels are split at the
  half-periods of the oscillatory factor; trailing panels whose weight
  envelope falls below a relative floor are dropped.  Every estimate comes
  from the one batched Gauss-Legendre rule: all panels at once, and when
  refinement splits the worst panel, its two halves at once.
* ``sphere_integral`` -- product quadrature over the solid angle
  (Gauss-Legendre in cos(theta) x trapezoid in phi), refined by doubling
  until two successive refinements agree.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

#: panel_integrate: a panel's coarse Gauss-Legendre estimate has order _PANEL_ORDER and
#: the fine one twice that; refinement stops once their summed gap is within
#: max(_PANEL_ABS_TOL, _PANEL_REL_TOL |I|) and gives up after _PANEL_SPLITS splits
_PANEL_ORDER, _PANEL_REL_TOL, _PANEL_ABS_TOL, _PANEL_SPLITS = 24, 1e-11, 1e-14, 2000
#: panels whose weight envelope is below this fraction of its peak are dropped
_WEIGHT_FLOOR = 1e-14
#: sphere_integral starts from this many theta nodes and phi intervals and doubles
#: both, at most _SPHERE_DOUBLINGS times, until two levels agree to _SPHERE_REL_TOL
_SPHERE_N_THETA, _SPHERE_N_PHI, _SPHERE_REL_TOL, _SPHERE_DOUBLINGS = 64, 128, 1e-11, 5


class QuadratureError(RuntimeError):
    """Integration failed to converge; carries the residual error estimate."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


@lru_cache(maxsize=32)
def _gauss_nodes(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _batch_panel_values(f, lo, hi, order):
    """GL estimate of every panel at once; lo/hi are arrays of panel edges."""
    x, w = _gauss_nodes(order)
    mid = 0.5 * (lo + hi)[:, None]
    half = 0.5 * (hi - lo)[:, None]
    vals = f((mid + half * x[None, :]).ravel()).reshape(lo.size, order)
    return (half[:, 0]) * (vals @ w)


def panel_integrate(f, a, b, *, breakpoints=(), weight):
    """Integrate ``f`` over [a, b] with adaptive panel refinement.

    ``breakpoints`` pre-split the interval (typically at half-periods of an
    oscillatory factor).  When there is more than one panel, those whose
    ``weight`` envelope is below _WEIGHT_FLOOR times the global peak are
    discarded: the tail contributes nothing at the target accuracy.  Raises
    QuadratureError with the residual estimate when refinement stalls.
    """
    edges = np.array([a] + [float(t) for t in sorted(breakpoints) if a < t < b] + [b])
    lo, hi = edges[:-1], edges[1:]

    if lo.size > 1:
        mids = 0.5 * (lo + hi)
        env_pts = np.abs(weight(np.concatenate([edges, mids])))
        edge_env, mid_env = env_pts[: edges.size], env_pts[edges.size:]
        peak = float(np.max(env_pts))
        if peak > 0.0:
            env = np.maximum(np.maximum(edge_env[:-1], edge_env[1:]), mid_env)
            keep = env >= _WEIGHT_FLOOR * peak
            if np.any(keep):
                lo, hi = lo[keep], hi[keep]

    def estimates(lo, hi):  # (lo, hi, coarse, fine) per panel, one batched call per order
        return list(zip(lo, hi, _batch_panel_values(f, lo, hi, _PANEL_ORDER),
                        _batch_panel_values(f, lo, hi, 2 * _PANEL_ORDER)))

    # split the worst panel until the coarse/fine gaps sum to within tol
    work = estimates(lo, hi)
    splits = 0
    while True:
        total = sum(fine for _, _, _, fine in work)
        errors = [abs(fine - coarse) for _, _, coarse, fine in work]
        residual = sum(errors)
        tol = max(_PANEL_ABS_TOL, _PANEL_REL_TOL * abs(total))
        if residual <= tol:
            return total
        if splits >= _PANEL_SPLITS:
            raise QuadratureError(
                f"panel refinement stalled after {splits} splits (residual {residual:.3e})",
                residual=residual)
        lo, hi, _, _ = work.pop(int(np.argmax(errors)))
        mid = 0.5 * (lo + hi)
        work += estimates(np.array([lo, mid]), np.array([mid, hi]))
        splits += 1


def sphere_integral(fn):
    """Integrate ``fn(theta, phi)`` over the solid angle sin(theta) dtheta dphi.

    Gauss-Legendre in theta (the sin(theta) Jacobian kept explicit, so ring
    and lobe profiles stay entire functions of the node variable) crossed
    with a trapezoid rule in phi, doubling both orders until two successive
    refinements differ by less than _SPHERE_REL_TOL (relative to max(1, |I|)).
    """
    def evaluate(nt, nph):
        x, wx = _gauss_nodes(nt)
        theta = 0.5 * np.pi * (x + 1.0)
        wtheta = 0.5 * np.pi * wx * np.sin(theta)
        phi = np.linspace(0.0, 2.0 * np.pi, nph + 1)
        wphi = np.full(nph + 1, 2.0 * np.pi / nph)
        wphi[0] *= 0.5
        wphi[-1] *= 0.5
        vals = fn(theta[:, None], phi[None, :])
        vals = np.broadcast_to(vals, (nt, nph + 1))
        return float(wtheta @ vals @ wphi)

    prev = evaluate(_SPHERE_N_THETA, _SPHERE_N_PHI)
    for level in range(1, _SPHERE_DOUBLINGS + 1):
        cur = evaluate(_SPHERE_N_THETA * 2 ** level, _SPHERE_N_PHI * 2 ** level)
        if abs(cur - prev) < _SPHERE_REL_TOL * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise QuadratureError(f"solid-angle quadrature did not settle at {_SPHERE_REL_TOL}", residual=abs(cur - prev))
