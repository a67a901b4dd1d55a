"""Integrate the time-local master equation and compare against the exact map.

The Bloch-vector form of the generator (see `generator`) is an ordinary
linear ODE, drdt = G(t) r.  It is integrated with DOP853, the Dormand-Prince
8(5,3) pair (tableau and error estimator in `dop853`, after Hairer, Norsett
and Wanner, Solving ODEs I, sections II.5 and II.10), under the standard
step-size controller and starting-step heuristic of that code.  G does not
depend on r, so each step attempt takes all its stage generators from one
batched call of the generator function, and G(t + h) of an accepted step is
the first stage of the next one.  An output time inside a step is reached by
a shorter DOP853 step from that step's start, whose stages ride in the same
batched call, so each attempt costs one call whatever the output times.

The generator diverges at poles while the channel itself stays regular, so
spans must be pole-free -- callers split them at the output of `pole_scan`
and bridge poles by applying the exact map directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generator import PoleError
from .su2 import DensityMatrix

#: step-size controller: safety factor and bounds on the change of h per step
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0


class IntegrationError(RuntimeError):
    """Integration failed (step-size underflow, typically an undetected pole)."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


@dataclass(frozen=True, eq=False)
class StateTrajectory:
    """Times and the Bloch vector at each time, shape (n, 3)."""

    times: np.ndarray
    bloch: np.ndarray


def _rms(x):
    return float(np.linalg.norm(x)) / np.sqrt(x.size)


def integrate_master(genfn, rho0: DensityMatrix, span, *, rtol: float = 1e-9,
                     atol: float = 1e-12, t_eval=None) -> StateTrajectory:
    """Propagate rho0 forward across a pole-free span.

    genfn(times) returns the Bloch generators at an array of times, stacked
    with shape (n, 3, 3).  The state is reported at the sorted times t_eval
    inside the span (default: the span endpoints).
    """
    # imported here, not at module level, so that only the commands that
    # integrate compile the method
    from . import dop853

    t0, t1 = float(span[0]), float(span[1])
    if not t1 > t0:
        raise ValueError("span must run forward in time")
    t_eval = np.array([t0, t1] if t_eval is None else t_eval, dtype=float).reshape(-1)
    if np.any(np.diff(t_eval) < 0.0) or (t_eval.size and not t0 <= t_eval[0] <= t_eval[-1] <= t1):
        raise ValueError("t_eval must be sorted and inside the span")
    out = np.empty((t_eval.size, 3))
    t, y = t0, np.array(rho0.bloch, dtype=float)
    try:
        f = genfn(np.array([t0]))[0] @ y
        h_abs = _initial_step(genfn, t0, y, f, t1 - t0, rtol, atol, dop853.ORDER)
        done = int(np.searchsorted(t_eval, t0, side="right"))
        out[:done] = y
        while t < t1:
            min_step = 10.0 * abs(np.nextafter(t, np.inf) - t)
            h_abs = max(h_abs, min_step)
            rejected = False
            while True:
                if h_abs < min_step:
                    raise IntegrationError(f"step size underflow at t={t!r}", time=t)
                t_new = min(t + h_abs, t1)
                h = t_new - t
                # the output times inside the step ride along as shorter steps
                before = int(np.searchsorted(t_eval, t_new))
                y_new, g_new, w = dop853.steps(genfn, t, y, f,
                                               np.append(h, t_eval[done:before] - t))
                scale = atol + np.maximum(np.abs(y), np.abs(y_new[0])) * rtol
                err = dop853.error_norm(w[0], scale)
                factor = (_MAX_FACTOR if err == 0.0 else
                          _SAFETY * err ** (-1.0 / (dop853.ORDER + 1)))
                if err < 1.0:
                    h_abs = h * (min(1.0, factor) if rejected else min(_MAX_FACTOR, factor))
                    break
                h_abs = h * max(_MIN_FACTOR, factor)
                rejected = True
            stop = int(np.searchsorted(t_eval, t_new, side="right"))
            out[done:before] = y_new[1:]
            out[before:stop] = y_new[0]
            done = stop
            t, y = t_new, y_new[0]
            f = g_new[0] @ y
    except PoleError as err:
        raise IntegrationError(f"stepped into a pole window at t={err.time!r}",
                               time=err.time) from err
    return StateTrajectory(times=t_eval, bloch=out)


def _initial_step(genfn, t0, y0, f0, length, rtol, atol, order):
    """Starting step size from the norms of y0, f0 and an estimate of the second
    derivative (Hairer, Norsett and Wanner, section II.4)."""
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, length)
    f1 = genfn(np.array([t0 + h0]))[0] @ (y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / (order + 1))
    return min(100.0 * h0, h1, length)
