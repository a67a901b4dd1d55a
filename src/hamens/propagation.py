"""Integrate the time-local master equation and compare against the exact map.

The Bloch-vector form of the generator (see `generator`) is a linear ODE,
drdt = G(t) r, whose G does not depend on r, so the 3x3 propagator P of an
interval [a, a + h] needs G at fixed times only.  It comes from s-stage
Gauss-Legendre collocation, of order 2s at the interval ends (J. C. Butcher,
Math. Comp. 18, 50 (1964); Hairer, Norsett and Wanner, Solving ODEs I,
section II.7): the stage propagators solve Y_i = I + h sum_j a_ij G_j Y_j with
G_j = G(a + c_j h), one (3s x 3s) linear system, and P = I + h sum_i b_i G_i Y_i.

The intervals start as the span alone.  Each round takes the generators at the
nodes of the earliest pending intervals and of their two halves in one batched
call, and solves all their systems in one stacked solve.  An interval is
accepted when h max|G| <= 1 at its nodes and the product of its two half
propagators agrees with its whole one to _ATOL + _RTOL max|P|.  The others are
cut: a steep one into about h max|G| pieces, an inaccurate one into halves.
The accepted (two-halves) propagators are chained in time order.  Each output
time closes one more interval, from the start of the accepted interval that
holds it; being no longer than that interval, its propagator is within the
tolerance that the acceptance test gauged on the whole one.

The h max|G| bound is the only guard against a pole the caller missed.  G
diverges there like 1/(t - t_p) while the solution M(t) M(0)^-1 r0 stays
smooth, so without the bound the two estimates agree and collocation steps
over the pole unseen.  With it, the interval holding the pole is cut until
a node falls in the pole window, where the generator function raises
PoleError; that surfaces as IntegrationError at the node's time.  So callers
split spans at the output of `pole_scan` and bridge poles with the exact map.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .dynmap import DensityMatrix
from .generator import PoleError
from .quadrature import _gauss_nodes

#: collocation stages s (order 2s); intervals per round and output times per call,
#: which bounds the memory of one generator call and solve (~21 KB per interval,
#: ~7 KB per output time) and how fast the pending list grows; the most pieces a
#: steep interval is cut into
_STAGES, _BLOCK, _PIECES = 8, 512, 16
#: relative and absolute tolerance of the two-halves acceptance test
_RTOL, _ATOL = 1e-9, 1e-12


class IntegrationError(RuntimeError):
    """Integration failed (no convergence, typically an undetected pole)."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


@lru_cache(maxsize=1)
def _tableau():
    """Nodes c, weights b and matrix a of s-stage Gauss-Legendre collocation:
    a_ij = int_0^c_i l_j, i.e. sum_j a_ij c_j^(k-1) = c_i^k / k for k <= s."""
    x, w = _gauss_nodes(_STAGES)
    c, b = 0.5 * (x + 1.0), 0.5 * w
    powers = np.arange(1, _STAGES + 1)
    vander = c[:, None] ** (powers - 1)
    a = np.linalg.solve(vander.T, (c[:, None] ** powers / powers).T).T
    return c, b, a


def _propagators(gens, h):
    """Collocation propagators of intervals of lengths h, shape (...), from the
    generators at their nodes, shape (..., s, 3, 3); returns shape (..., 3, 3)."""
    _, b, a = _tableau()
    n = 3 * _STAGES
    hg = h[..., None, None, None] * gens
    # block (i, j) of the system is delta_ij I - a_ij h G_j
    lhs = np.einsum("ij,...jkl->...ikjl", -a, hg, order="C").reshape(h.shape + (n, n))
    lhs[..., range(n), range(n)] += 1.0
    rhs = np.broadcast_to(np.tile(np.eye(3), (_STAGES, 1)), h.shape + (n, 3))
    y = np.linalg.solve(lhs, rhs).reshape(hg.shape)
    return np.eye(3) + np.einsum("i,...ijk,...ikl->...jl", b, hg, y)


def _generators(genfn, firsts, lengths):
    """Generators at the nodes of the intervals [firsts, firsts + lengths], both
    of shape (...), from one call; returns shape (..., s, 3, 3)."""
    nodes = firsts[..., None] + lengths[..., None] * _tableau()[0]
    return genfn(nodes.ravel()).reshape(lengths.shape + (_STAGES, 3, 3))


def _round(genfn, lo, hi):
    """h max|G| at the nodes of each interval [lo, hi] and of its two halves,
    the accept mask, and the two-halves propagators of the accepted ones."""
    h = hi - lo
    lengths = h[:, None] * [1.0, 0.5, 0.5]
    gens = _generators(genfn, np.stack([lo, lo, lo + lengths[:, 2]], axis=1), lengths)
    steepness = h * np.max(np.abs(gens), axis=(1, 2, 3, 4))
    # steep intervals are cut without a solve, which can be singular there
    ok = steepness <= 1.0
    p = _propagators(gens[ok], lengths[ok])
    halves = p[:, 2] @ p[:, 1]
    gap = np.max(np.abs(halves - p[:, 0]), axis=(1, 2))
    close = gap <= _ATOL + _RTOL * np.max(np.abs(halves), axis=(1, 2))
    ok[ok] = close
    return steepness, ok, halves[close]


def _cut(lo, hi, pieces):
    """Cut each interval [lo, hi] into its number of equal pieces."""
    which = np.repeat(np.arange(lo.size), pieces)
    ends = np.cumsum(pieces)
    part = (np.arange(which.size) - (ends - pieces)[which]) / pieces[which]
    starts = lo[which] + (hi - lo)[which] * part
    stops = np.roll(starts, -1)
    stops[ends - 1] = hi
    return starts, stops


def integrate_master(genfn, rho0: DensityMatrix, span, t_eval) -> np.ndarray:
    """Propagate rho0 forward across a pole-free span; returns the Bloch
    vector at each of the sorted times t_eval inside the span, shape
    (len(t_eval), 3).

    genfn(times) returns the Bloch generators at an array of times, stacked
    with shape (n, 3, 3).
    """
    t0, t1 = float(span[0]), float(span[1])
    if not t1 > t0:
        raise ValueError("span must run forward in time")
    t_eval = np.array(t_eval, dtype=float).reshape(-1)
    if np.any(np.diff(t_eval) < 0.0) or (t_eval.size and not t0 <= t_eval[0] <= t_eval[-1] <= t1):
        raise ValueError("t_eval must be sorted and inside the span")
    # below this length the pieces of an interval no longer have distinct nodes
    shortest = 16.0 * np.finfo(float).eps * max(abs(t0), abs(t1))
    lo, hi = np.array([t0]), np.array([t1])
    starts, props = [], []
    try:
        while lo.size:
            # each round takes the earliest pending intervals, so a pole-window
            # error names the earliest interval that reached one
            steepness, ok, halves = _round(genfn, lo[:_BLOCK], hi[:_BLOCK])
            starts.append(lo[:_BLOCK][ok])
            props.append(halves)
            a, b, steepness = lo[:_BLOCK][~ok], hi[:_BLOCK][~ok], steepness[~ok]
            short = np.flatnonzero(b - a <= shortest)
            if short.size:
                t = float(a[short[0]])
                raise IntegrationError(f"no convergence at t={t!r}: the interval there "
                                       f"is down to {shortest:.3g}", time=t)
            # a steep interval into as many pieces as h max|G| <= 1 asks for,
            # an inaccurate one into halves
            pieces = np.where(steepness > 2.0, np.minimum(np.ceil(steepness), _PIECES), 2.0)
            a, b = _cut(a, b, pieces.astype(int))
            lo, hi = np.concatenate([a, lo[_BLOCK:]]), np.concatenate([b, hi[_BLOCK:]])
        starts = np.concatenate(starts)
        order = np.argsort(starts)
        states = [rho0.bloch]
        for p in np.concatenate(props)[order]:
            states.append(p @ states[-1])
        states = np.array(states)
        # each output time closes one more interval, from the start of the
        # accepted interval that holds it (or from t1)
        edges = np.append(starts[order], t1)
        held = np.searchsorted(edges, t_eval, side="right") - 1
        h = t_eval - edges[held]
        bloch = np.empty((t_eval.size, 3))
        for k in range(0, t_eval.size, _BLOCK):
            part = slice(k, k + _BLOCK)
            gens = _generators(genfn, edges[held[part]], h[part])
            bloch[part] = np.einsum("njk,nk->nj", _propagators(gens, h[part]), states[held[part]])
    except PoleError as err:
        raise IntegrationError(f"stepped into a pole window at t={err.time!r}",
                               time=err.time) from err
    except np.linalg.LinAlgError as err:
        raise IntegrationError(f"collocation failed: {err}") from err
    return bloch
