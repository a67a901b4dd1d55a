"""Integrate the time-local master equation and compare against the exact map.

The Bloch-vector form of the generator (see `generator`) is an ordinary
linear ODE, drdt = G(t) r; it is integrated with an embedded adaptive
Runge-Kutta pair.  The generator diverges at poles while the channel itself
stays regular, so spans must be pole-free -- callers split them at the
output of `pole_scan` and bridge poles by applying the exact map directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generator import PoleError
from .su2 import DensityMatrix


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


def integrate_master(genfn, rho0: DensityMatrix, span, *, rtol: float = 1e-9,
                     atol: float = 1e-12, t_eval=None) -> StateTrajectory:
    """Propagate rho0 across a pole-free span under the generator genfn(t).

    genfn returns a LindbladGenerator; dense output is evaluated at t_eval
    (defaults to the span endpoints).
    """
    # imported here, not at module level: scipy.integrate takes about 0.35 s
    # to load and only this function needs it, so the other CLI commands skip it
    from scipy.integrate import solve_ivp

    t0, t1 = float(span[0]), float(span[1])

    def rhs(t, r):
        return genfn(t).bloch_generator() @ r

    try:
        sol = solve_ivp(rhs, (t0, t1), rho0.bloch, method="DOP853",
                        rtol=rtol, atol=atol, t_eval=t_eval)
    except PoleError as err:
        raise IntegrationError(f"stepped into a pole window at t={err.time!r}",
                               time=err.time) from err
    if not sol.success:
        reached = float(sol.t[-1]) if sol.t.size else t0
        raise IntegrationError(f"integration failed at t={reached!r}: {sol.message}",
                               time=reached)
    return StateTrajectory(times=sol.t, bloch=sol.y.T)

