"""Master-equation integration against the exact channel, against scipy's
DOP853 as a referee, and the shape of its batched generator calls."""

import numpy as np
import pytest

from hamens import (BagelAngular, CardioidAngular, DensityMatrix, ExponentialCutoffRadial,
                    GaussianRadial, IntegrationError, MapFamily,
                    ReciprocalSquareRadial, SphereAngular,
                    bloch_generators, integrate_master, map_matrices, pole_scan)
from hamens import propagation
from hamens.dynmap import bloch_trajectory
from hamens.generator import POLE_THRESHOLD
from hamens.validation import builtin_families

from conftest import sphere_rate

PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def family(radial, angular):
    return MapFamily.from_ensemble(radial, angular)


def test_trace_distance_values():
    # the round-trip checks report half the Bloch distance as the trace
    # distance; oracle: half the trace norm of rho - sigma = (a - b).sigma / 2
    def trace_distance(a, b):
        diff = 0.5 * np.einsum("j,jab->ab", np.subtract(a, b), PAULIS)
        return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))

    cases = [([0.3, 0, 0], [0.3, 0, 0], 0.0), ([0, 0, 1], [0, 0, -1], 1.0),
             ([0.3, 0, 0], [0, 0.4, 0], 0.25)]
    rng = np.random.default_rng(4)
    for _ in range(50):
        a, b = rng.uniform(-0.57, 0.57, (2, 3))
        cases.append((a, b, 0.5 * np.linalg.norm(a - b)))
    for a, b, half_bloch_distance in cases:
        assert trace_distance(a, b) == pytest.approx(half_bloch_distance, abs=1e-15)


def still(ts):
    """The zero Bloch generator at every time of a batch."""
    return np.zeros((len(ts), 3, 3))


def test_zero_generator_keeps_state_constant():
    rho0 = DensityMatrix([0.2, -0.5, 0.1])
    bloch = integrate_master(still, rho0, (0.0, 5.0), t_eval=np.linspace(0, 5, 7))
    assert np.max(np.abs(bloch - rho0.bloch)) < 1e-12


def test_states_accessor():
    # the result holds one Bloch row per requested time
    bloch = integrate_master(still, DensityMatrix([0, 0, 0.5]), (0.0, 1.0), [0.0, 1.0])
    assert bloch.shape == (2, 3)
    states = [DensityMatrix(r) for r in bloch]
    assert 0.5 * np.linalg.norm(states[0].bloch - states[1].bloch) < 1e-12


def test_sphere_gaussian_endpoint():
    fam = family(GaussianRadial(), SphereAngular())
    rho0 = DensityMatrix([0.0, 0.0, 1.0])
    bloch = integrate_master(lambda ts: bloch_generators(fam, ts), rho0, (0.0, 1.5),
                            t_eval=[1.5])
    w = (2 * fam.radial.expectations(1.5)[0] + 1) / 3
    assert np.max(np.abs(bloch[-1] - w * rho0.bloch)) < 1e-6


def test_cardioid_exp_cutoff_tracks_exact_map():
    fam = family(ExponentialCutoffRadial(), CardioidAngular())
    rho0 = DensityMatrix([0.6, -0.2, 0.5])
    t_eval = np.linspace(0.0, 4.0, 41)
    bloch = integrate_master(lambda ts: bloch_generators(fam, ts), rho0, (0.0, 4.0),
                            t_eval=t_eval)
    exact = bloch_trajectory(fam, rho0, t_eval)
    dist = 0.5 * np.linalg.norm(bloch - exact, axis=1)
    assert np.max(dist) < 1e-6


def test_purity_revival_follows_rate_sign():
    # purity slope and decay rate have opposite signs pointwise
    for radial in (GaussianRadial(), ExponentialCutoffRadial(), ReciprocalSquareRadial()):
        fam = family(radial, SphereAngular())
        rho0 = DensityMatrix([0.0, 0.0, 1.0])
        t_eval = np.linspace(0.0, 12.0, 2401)
        bloch = integrate_master(lambda ts: bloch_generators(fam, ts), rho0, (0.0, 12.0),
                                t_eval=t_eval)
        pur = 0.5 * (1 + np.sum(bloch ** 2, axis=1))
        dpur = np.diff(pur)
        mids = 0.5 * (t_eval[1:] + t_eval[:-1])
        rates = sphere_rate(radial, mids)
        mask = np.abs(rates) > 1e-3
        assert np.all(np.sign(dpur[mask]) == -np.sign(rates[mask]))


def test_trajectory_stays_in_bloch_ball():
    fam = family(GaussianRadial(), CardioidAngular())
    rho0 = DensityMatrix([0.0, 0.0, 1.0])
    bloch = integrate_master(lambda ts: bloch_generators(fam, ts), rho0, (0.0, 6.0),
                            t_eval=np.linspace(0, 6, 200))
    assert np.max(np.linalg.norm(bloch, axis=1)) <= 1.0 + 1e-8


def test_pole_window_hit_becomes_integration_error():
    # a generator evaluation inside the pole exclusion window surfaces as an
    # integration failure carrying the time, not as a leaked internal error
    fam = family(GaussianRadial(), BagelAngular())
    pole = pole_scan(fam, (1e-6, 3.0))[0]

    def genfn(ts):
        return bloch_generators(fam, np.minimum(ts, pole))

    rho0 = DensityMatrix([0.4, 0.3, 0.6])
    with pytest.raises(IntegrationError) as err:
        integrate_master(genfn, rho0, (0.0, pole + 0.05), [0.0, pole + 0.05])
    assert err.value.time == pytest.approx(pole, abs=1e-6)



def test_matches_scipy_dop853_referee():
    # the round trips of the validation suite, against scipy's DOP853 run
    # at much tighter tolerances on the same generators
    from scipy.integrate import solve_ivp

    rho0 = DensityMatrix([0.6, -0.1, 0.75])
    for name, fam in builtin_families():
        poles = pole_scan(fam, (1e-9, 6.0))
        t_end = min(0.9 * poles[0], 4.0) if poles else 4.0
        t_eval = np.linspace(0.0, t_end, 21)
        bloch = integrate_master(lambda ts, fam=fam: bloch_generators(fam, ts),
                                rho0, (0.0, t_end), t_eval=t_eval)
        ref = solve_ivp(lambda t, r, fam=fam: bloch_generators(fam, [t])[0] @ r,
                        (0.0, t_end), rho0.bloch, method="DOP853", rtol=1e-12, atol=1e-14,
                        t_eval=t_eval)
        assert ref.success, name
        assert np.max(np.abs(bloch - ref.y.T)) <= 1e-9, name


def test_tableau_order_conditions():
    # Gauss-Legendre collocation: the quadrature (b, c) is exact for degree
    # 2s - 1, B(2s), and each row of a integrates the interpolant exactly up
    # to degree s - 1, C(s); both hold to 3.1e-16 with the linear solve
    c, b, a = propagation._tableau()
    s = propagation._STAGES
    assert np.all(np.diff(c) > 0.0) and 0.0 < c[0] and c[-1] < 1.0
    for k in range(1, 2 * s + 1):
        assert abs(b @ c ** (k - 1) - 1.0 / k) <= 1e-14, k
    for k in range(1, s + 1):
        assert np.max(np.abs(a @ c ** (k - 1) - c ** k / k)) <= 1e-14, k


def intervals(ts):
    """The intervals [lo, lo + h] of one round's generator call, recovered from
    the nodes of each interval, of its first half and of its second half."""
    c = propagation._tableau()[0]
    nodes = np.asarray(ts).reshape(-1, 3, propagation._STAGES)
    h = (nodes[:, 0, -1] - nodes[:, 0, 0]) / (c[-1] - c[0])
    lo = nodes[:, 0, 0] - h * c[0]
    expected = np.stack([lo[:, None] + h[:, None] * c,
                         lo[:, None] + 0.5 * h[:, None] * c,
                         lo[:, None] + 0.5 * h[:, None] * (1.0 + c)], axis=1)
    assert np.allclose(nodes, expected, rtol=0.0, atol=1e-12)
    return lo, h


def test_time_dependent_rotation_one_call_per_round():
    # G(t) = phi'(t) [n]_x rotates r about the fixed axis n by the angle
    # phi(t) = 2t + 3 sin t (Rodrigues).  Each genfn call but the last is one
    # round: the first holds the span, and every later one holds equal pieces
    # of intervals of the round before.  The last call closes one interval
    # per output time, from the start of an accepted interval or from t1
    n = np.array([1.0, 2.0, 2.0]) / 3.0
    cross = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    calls = []

    def genfn(ts):
        calls.append(np.array(ts))
        return (2.0 + 3.0 * np.cos(ts))[:, None, None] * cross

    rho0 = DensityMatrix([0.5, -0.3, 0.4])
    # over these 25 rad the global error is 1.4e-15
    t_eval = np.linspace(0.0, 10.0, 21)
    bloch = integrate_master(genfn, rho0, (0.0, 10.0), t_eval=t_eval)
    phi = 2.0 * t_eval + 3.0 * np.sin(t_eval)
    r0 = rho0.bloch
    exact = (np.cos(phi)[:, None] * r0 + np.sin(phi)[:, None] * np.cross(n, r0)
             + (1.0 - np.cos(phi))[:, None] * (n @ r0) * n)
    assert np.max(np.abs(bloch - exact)) <= 1e-10

    *rounds, outputs = calls
    assert len(rounds) >= 2, [ts.size for ts in calls]
    for ts in calls:
        assert np.all((0.0 <= ts) & (ts <= 10.0))
    lo, h = intervals(rounds[0])
    assert np.array_equal(lo, [0.0]) and np.allclose(h, [10.0], rtol=0.0, atol=1e-12)
    for before, after in zip(rounds, rounds[1:]):
        (lo0, h0), (lo1, h1) = intervals(before), intervals(after)
        # each interval is one of 2 to _PIECES equal pieces of the interval
        # that holds its midpoint
        parent = np.searchsorted(lo0, lo1 + 0.5 * h1) - 1
        pieces, offset = h0[parent] / h1, (lo1 - lo0[parent]) / h1
        assert np.allclose(pieces, np.round(pieces), rtol=0.0, atol=1e-9)
        assert np.all((1.5 < pieces) & (pieces < propagation._PIECES + 0.5))
        assert np.allclose(offset, np.round(offset), rtol=0.0, atol=1e-9)
    c = propagation._tableau()[0]
    nodes = outputs.reshape(t_eval.size, propagation._STAGES)
    h = (nodes[:, -1] - nodes[:, 0]) / (c[-1] - c[0])
    lo = nodes[:, 0] - h * c[0]
    assert np.allclose(nodes, lo[:, None] + h[:, None] * c, rtol=0.0, atol=1e-12)
    assert np.allclose(lo + h, t_eval, rtol=0.0, atol=1e-12)
    starts = np.concatenate([intervals(ts)[0] for ts in rounds] + [[10.0]])
    assert np.all(np.min(np.abs(lo[:, None] - starts), axis=1) <= 1e-12)


@pytest.mark.parametrize("omega_c", [1.0, 1e8])
def test_every_builtin_stops_at_its_pole_or_matches_the_map(omega_c):
    # a pole that the caller missed ends in the pole window, whatever the
    # order of the families: the solution M(t) M(0)^-1 r0 is smooth across
    # a pole, and only the h max|G| <= 1 rule keeps collocation from
    # stepping over it.  At a double root of det M (dumbbell) the window is
    # about 2e-4/omega_c wide, so the hit lies that far from the pole.
    rho0 = DensityMatrix([0.6, -0.1, 0.75])
    t_end = 4.0 / omega_c
    stopped = []
    for name, fam in builtin_families(omega_c):
        poles = pole_scan(fam, (1e-9 / omega_c, t_end))
        genfn = lambda ts, fam=fam: bloch_generators(fam, ts)
        if poles:
            with pytest.raises(IntegrationError, match="stepped into a pole window") as err:
                integrate_master(genfn, rho0, (0.0, t_end), [0.0, t_end])
            t = err.value.time
            assert abs(np.linalg.det(map_matrices(fam, [t])[0])) < POLE_THRESHOLD, name
            assert np.min(np.abs(np.array(poles) - t)) <= 1e-3 / omega_c, name
            stopped.append(name)
        else:
            bloch = integrate_master(genfn, rho0, (0.0, t_end), [0.0, t_end])
            exact = bloch_trajectory(fam, rho0, [0.0, t_end])
            assert np.max(np.abs(bloch - exact)) <= 1e-12, name
    assert stopped == ["gaussian+bagel", "gaussian+dumbbell", "gaussian+kneaded",
                       "exp-cutoff+bagel", "exp-cutoff+dumbbell"]


def test_no_convergence_is_an_integration_error():
    # G = [e_z]_x / |t - 1/3| is singular with no pole window, and h max|G|
    # stays above 1 on the interval at 1/3 however short: the run ends when
    # that interval is down to the resolution of the span's times
    cross = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    calls = []

    def singular(ts):
        calls.append(ts.size)
        return (1.0 / np.abs(ts - 1.0 / 3.0))[:, None, None] * cross

    rho0 = DensityMatrix([0.5, 0.0, 0.5])
    with pytest.raises(IntegrationError, match=r"no convergence at t=0\.333") as err:
        integrate_master(singular, rho0, (0.0, 1.0), [0.0, 1.0])
    assert err.value.time == pytest.approx(1.0 / 3.0, abs=1e-12)

    # a generator steep everywhere: every interval is cut, none is solved
    # (such a system can be singular), and a round never holds more than
    # _BLOCK intervals, so the run ends at t = 0 in bounded memory
    calls.clear()
    with pytest.raises(IntegrationError, match=r"no convergence at t=0\.0:") as err:
        integrate_master(lambda ts: 1e30 * singular(ts), rho0, (0.0, 1.0), [0.0, 1.0])
    assert err.value.time == 0.0
    assert max(calls) <= 3 * propagation._STAGES * propagation._BLOCK
    assert len(calls) <= 20, len(calls)


def test_singular_solve_is_an_integration_error(monkeypatch):
    propagation._tableau()

    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(IntegrationError, match="collocation failed: Singular matrix"):
        integrate_master(still, DensityMatrix([0.5, 0.0, 0.5]), (0.0, 1.0), [0.0, 1.0])


def test_thousands_of_steep_output_intervals_integrate():
    # G = 2 [e_z]_x over [0, 3000] needs ~6,000 intervals, and every one of
    # the 3,000 gaps between the output times is steep: the run does not
    # depend on the number of output times, and a round holds at most _BLOCK
    # intervals
    cross = 2.0 * np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    calls = []

    def genfn(ts):
        calls.append(ts.size)
        return np.broadcast_to(cross, (ts.size, 3, 3))

    rho0 = DensityMatrix([0.6, -0.1, 0.75])
    t_eval = np.arange(3001.0)
    bloch = integrate_master(genfn, rho0, (0.0, 3000.0), t_eval=t_eval)
    x, y, z = rho0.bloch
    cos, sin = np.cos(2.0 * t_eval), np.sin(2.0 * t_eval)
    exact = np.stack([cos * x - sin * y, sin * x + cos * y, np.full_like(cos, z)], axis=1)
    assert np.max(np.abs(bloch - exact)) <= 1e-9
    assert max(calls) <= 3 * propagation._STAGES * propagation._BLOCK


def test_blocks_bound_memory_and_keep_the_result(monkeypatch):
    # the output times go to the generator and the solve in blocks of _BLOCK:
    # the result is the same, and 2,401 of them peak at ~3.5 MB (~16 MB as
    # one block)
    import tracemalloc

    fam = family(GaussianRadial(), CardioidAngular())
    rho0 = DensityMatrix([0.0, 0.0, 1.0])
    t_eval = np.linspace(0.0, 6.0, 2401)
    tracemalloc.start()
    try:
        whole = integrate_master(lambda ts: bloch_generators(fam, ts), rho0, (0.0, 6.0),
                                 t_eval=t_eval)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    monkeypatch.setattr(propagation, "_BLOCK", 7)
    blocked = integrate_master(lambda ts: bloch_generators(fam, ts), rho0, (0.0, 6.0),
                               t_eval=t_eval)
    assert np.max(np.abs(blocked - whole)) <= 1e-15
