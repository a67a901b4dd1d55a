"""Master-equation integration against the exact channel."""

import numpy as np
import pytest

from hamens import (BagelAngular, CardioidAngular, DensityMatrix, ExponentialCutoffRadial,
                    GaussianRadial, IntegrationError, MapFamily,
                    ReciprocalSquareRadial, SeparableEnsemble, SphereAngular,
                    bloch_generators, integrate_master, isotropic_rate, pole_scan)
from hamens.dynmap import bloch_trajectory

PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def family(radial, angular):
    return MapFamily.from_ensemble(SeparableEnsemble(radial, angular))


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
    traj = integrate_master(still, rho0, (0.0, 5.0), t_eval=np.linspace(0, 5, 7))
    assert np.max(np.abs(traj.bloch - rho0.bloch)) < 1e-12


def test_states_accessor():
    # the trajectory holds one time and one Bloch row per requested time
    traj = integrate_master(still, DensityMatrix([0, 0, 0.5]), (0.0, 1.0),
                            t_eval=[0.0, 1.0])
    assert np.array_equal(traj.times, [0.0, 1.0])
    assert traj.bloch.shape == (2, 3)
    states = [DensityMatrix(r) for r in traj.bloch]
    assert 0.5 * np.linalg.norm(states[0].bloch - states[1].bloch) < 1e-12


def test_sphere_gaussian_endpoint():
    fam = family(GaussianRadial(), SphereAngular())
    rho0 = DensityMatrix([0.0, 0.0, 1.0])
    traj = integrate_master(lambda ts: bloch_generators(fam, ts), rho0, (0.0, 1.5),
                            t_eval=[1.5])
    w = (2 * fam.ensemble.radial.expectations(1.5)[0] + 1) / 3
    assert np.max(np.abs(traj.bloch[-1] - w * rho0.bloch)) < 1e-6


def test_cardioid_exp_cutoff_tracks_exact_map():
    fam = family(ExponentialCutoffRadial(), CardioidAngular())
    rho0 = DensityMatrix([0.6, -0.2, 0.5])
    t_eval = np.linspace(0.0, 4.0, 41)
    traj = integrate_master(lambda ts: bloch_generators(fam, ts), rho0, (0.0, 4.0),
                            t_eval=t_eval)
    exact = bloch_trajectory(fam, rho0, t_eval)
    dist = 0.5 * np.linalg.norm(traj.bloch - exact, axis=1)
    assert np.max(dist) < 1e-6


def test_purity_revival_follows_rate_sign():
    # purity slope and decay rate have opposite signs pointwise
    for radial in (GaussianRadial(), ExponentialCutoffRadial(), ReciprocalSquareRadial()):
        fam = family(radial, SphereAngular())
        rho0 = DensityMatrix([0.0, 0.0, 1.0])
        t_eval = np.linspace(0.0, 12.0, 2401)
        traj = integrate_master(lambda ts: bloch_generators(fam, ts), rho0, (0.0, 12.0),
                                t_eval=t_eval)
        pur = 0.5 * (1 + np.sum(traj.bloch ** 2, axis=1))
        dpur = np.diff(pur)
        mids = 0.5 * (t_eval[1:] + t_eval[:-1])
        rates = isotropic_rate(radial, mids)
        mask = np.abs(rates) > 1e-3
        assert np.all(np.sign(dpur[mask]) == -np.sign(rates[mask]))


def test_trajectory_stays_in_bloch_ball():
    fam = family(GaussianRadial(), CardioidAngular())
    rho0 = DensityMatrix([0.0, 0.0, 1.0])
    traj = integrate_master(lambda ts: bloch_generators(fam, ts), rho0, (0.0, 6.0),
                            t_eval=np.linspace(0, 6, 200))
    assert np.max(np.linalg.norm(traj.bloch, axis=1)) <= 1.0 + 1e-8


def test_pole_window_hit_becomes_integration_error():
    # a generator evaluation inside the pole exclusion window surfaces as an
    # integration failure carrying the time, not as a leaked internal error
    fam = family(GaussianRadial(), BagelAngular())
    pole = pole_scan(fam, (1e-6, 3.0))[0]

    def genfn(ts):
        return bloch_generators(fam, np.minimum(ts, pole))

    rho0 = DensityMatrix([0.4, 0.3, 0.6])
    with pytest.raises(IntegrationError) as err:
        integrate_master(genfn, rho0, (0.0, pole + 0.05))
    assert err.value.time == pytest.approx(pole, abs=1e-6)

