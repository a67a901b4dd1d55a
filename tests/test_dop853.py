"""The in-repo DOP853 integrator: against scipy's as a referee, against a
closed form, and the shape of its batched generator calls."""

import numpy as np
import pytest

from hamens import DensityMatrix, bloch_generators, integrate_master, pole_scan
from hamens.dop853 import C
from hamens.validation import builtin_families


def test_matches_scipy_dop853_referee():
    # the round trips of the validation suite, against scipy's DOP853 run
    # at much tighter tolerances on the same generators
    from scipy.integrate import solve_ivp

    rho0 = DensityMatrix([0.6, -0.1, 0.75])
    for name, fam in builtin_families():
        poles = pole_scan(fam, (1e-9, 6.0))
        t_end = min(0.9 * poles[0], 4.0) if poles else 4.0
        t_eval = np.linspace(0.0, t_end, 21)
        traj = integrate_master(lambda ts, fam=fam: bloch_generators(fam, ts),
                                rho0, (0.0, t_end), t_eval=t_eval)
        ref = solve_ivp(lambda t, r, fam=fam: bloch_generators(fam, [t])[0] @ r,
                        (0.0, t_end), rho0.bloch, method="DOP853", rtol=1e-12, atol=1e-14,
                        t_eval=t_eval)
        assert ref.success, name
        assert np.max(np.abs(traj.bloch - ref.y.T)) <= 1e-9, name


def test_time_dependent_rotation_one_call_per_attempt():
    # G(t) = phi'(t) [n]_x rotates r about the fixed axis n by the angle
    # phi(t) = 2t + 3 sin t (Rodrigues); every genfn call after the two
    # starting-step probes is one step attempt: 11 stage times t + c_i h for
    # the step, plus 11 for each output time inside it, all from the same t
    n = np.array([1.0, 2.0, 2.0]) / 3.0
    cross = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    calls = []

    def genfn(ts):
        calls.append(np.array(ts))
        return (2.0 + 3.0 * np.cos(ts))[:, None, None] * cross

    rho0 = DensityMatrix([0.5, -0.3, 0.4])
    t_eval = np.linspace(0.0, 10.0, 37)
    # over these 25 rad the global error at the default rtol = 1e-9 reaches
    # 3.0e-10 (scipy's DOP853 with dense output: 7.9e-10), so tighten by 10
    traj = integrate_master(genfn, rho0, (0.0, 10.0), t_eval=t_eval, rtol=1e-10, atol=1e-13)
    phi = 2.0 * t_eval + 3.0 * np.sin(t_eval)
    r0 = rho0.bloch
    exact = (np.cos(phi)[:, None] * r0 + np.sin(phi)[:, None] * np.cross(n, r0)
             + (1.0 - np.cos(phi))[:, None] * (n @ r0) * n)
    assert np.max(np.abs(traj.bloch - exact)) <= 1e-10

    assert [c.size for c in calls[:2]] == [1, 1]
    attempts = [c.reshape(-1, C.size - 1) for c in calls[2:]]
    starts, ends = [], []
    for stages in attempts:
        h = (stages[0, -1] - stages[0, 0]) / (1.0 - C[1])
        t = stages[0, -1] - h
        assert np.allclose(stages, t + (stages[:, -1:] - t) * C[1:], rtol=0.0, atol=1e-12)
        starts.append(t)
        ends.append(stages[0, -1])
    # each attempt starts where the previous one ended (accepted) or started (rejected)
    assert starts[0] == pytest.approx(0.0, abs=1e-12) and ends[-1] == 10.0
    for j in range(1, len(attempts)):
        assert min(abs(starts[j] - starts[j - 1]), abs(starts[j] - ends[j - 1])) < 1e-12
    row_ends = np.concatenate([stages[:, -1] for stages in attempts])
    assert all(np.min(np.abs(row_ends - t)) < 1e-12 for t in t_eval[1:])
