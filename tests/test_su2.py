"""Qubit states, and the rotation that the Monte-Carlo sampler applies to them.

The Pauli matrices, the Bloch <-> 2x2 maps and the propagator
exp(-i omega t n.sigma / 2) are test-local oracles.  The sampler runs with a
single sample in a single chunk, so its mean at each time is one realization;
its frequency and axis are redrawn here from the same chunk stream.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from hamens import (DensityMatrix, GaussianRadial, KneadedCardioidAngular, MapFamily,
                    SamplerConfig, mc_trajectory, sample_angular, sample_radial)
from hamens.montecarlo import chunk_stream

PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
IDENTITY = np.eye(2, dtype=complex)
ENSEMBLE = MapFamily.from_ensemble(GaussianRadial(), KneadedCardioidAngular(0.3))
SEEDS = range(50)
#: times of the single realization, with 0 and a negative time among them
TIMES = np.array([-1.3, 0.0, 0.25, 0.9, 2.0, 4.5])

rng = np.random.default_rng(202401)


def to_matrix(r):
    return 0.5 * (IDENTITY + np.einsum("j,jab->ab", r, PAULIS))


def to_bloch(rho):
    return np.einsum("jab,ba->j", PAULIS, rho).real


def random_bloch():
    r = rng.uniform(-1, 1, 3)
    return r * rng.uniform(0, 1) / max(np.linalg.norm(r), 1e-12)


def drawn_member(seed):
    """Frequency and axis of the one realization mc_trajectory draws for a seed."""
    stream = chunk_stream(seed, 0)
    omega = sample_radial(ENSEMBLE.radial, stream, 1)[0]
    return omega, sample_angular(ENSEMBLE.angular, stream, 1)[:, 0]


def realization(seed, r0, times=TIMES):
    """Bloch vector of that realization at each time, as mc_trajectory evolves it."""
    cfg = SamplerConfig(seed=seed, n_samples=1)
    return mc_trajectory(ENSEMBLE, DensityMatrix(r0), times, cfg)[0]


def rotation(seed, times=TIMES):
    """The realization as a 3x3 matrix per time: columns are the images of the axes."""
    return np.stack([realization(seed, e, times) for e in np.eye(3)], axis=-1)


def axis_frame(axis, slot):
    """Right-handed orthonormal frame, as rows, whose row `slot` is the axis."""
    helper = np.eye(3)[np.argmin(np.abs(axis))]
    e1 = np.cross(axis, helper)
    e1 /= np.linalg.norm(e1)
    return np.roll(np.stack([axis, e1, np.cross(axis, e1)]), slot, axis=0)


def test_unitary_at_diagonal_generator():
    # in a frame whose z axis is the drawn axis, H = omega sigma_z / 2 is diagonal;
    # at omega t = pi, U = diag(exp(-i pi/2), exp(i pi/2)) = -i sigma_z flips x and y
    u = np.diag([np.exp(-1j * math.pi / 2), np.exp(1j * math.pi / 2)])
    expected = np.stack([to_bloch(u @ to_matrix(e) @ u.conj().T) for e in np.eye(3)], axis=-1)
    assert np.allclose(expected, np.diag([-1.0, -1.0, 1.0]), atol=1e-15)
    for seed in SEEDS:
        omega, axis = drawn_member(seed)
        frame = axis_frame(axis, 2)
        r = rotation(seed, [math.pi / omega])[0]
        assert np.max(np.abs(frame @ r @ frame.T - expected)) < 1e-14, seed


def test_unitary_at_x_axis_vs_matrix_exponential():
    # oracle: scaling-and-squaring exponential of -i pi sigma_x / 2, which is -i sigma_x,
    # acting in a frame whose x axis is the drawn axis, at omega t = pi
    u = expm(-1j * math.pi * 0.5 * PAULIS[0])
    assert np.allclose(u, -1j * PAULIS[0], atol=1e-13)
    oracle = np.stack([to_bloch(u @ to_matrix(e) @ u.conj().T) for e in np.eye(3)], axis=-1)
    for seed in SEEDS:
        omega, axis = drawn_member(seed)
        frame = axis_frame(axis, 0)
        assert np.linalg.det(frame) == pytest.approx(1.0, abs=1e-15)
        r = rotation(seed, [math.pi / omega])[0]
        assert np.max(np.abs(frame @ r @ frame.T - oracle)) < 1e-13, seed


def test_unitary_at_random_vs_matrix_exponential():
    # oracle: U rho U^dagger with U the scaling-and-squaring exponential of -i H t
    for seed in SEEDS:
        omega, axis = drawn_member(seed)
        h = 0.5 * omega * np.einsum("j,jab->ab", axis, PAULIS)
        r0 = random_bloch()
        for t, r_t in zip(TIMES, realization(seed, r0)):
            u = expm(-1j * h * t)
            oracle = to_bloch(u @ to_matrix(r0) @ u.conj().T)
            assert np.max(np.abs(r_t - oracle)) < 1e-14, (seed, t)


def test_unitary_at_time_zero_is_identity():
    for seed in SEEDS:
        assert np.array_equal(rotation(seed, [0.0])[0], np.eye(3))


def test_unitarity_and_determinant():
    # a unitary conjugation acts on Bloch vectors as a proper rotation
    for seed in SEEDS:
        for r in rotation(seed):
            assert np.max(np.abs(r @ r.T - np.eye(3))) < 1e-14
            assert abs(np.linalg.det(r) - 1.0) < 1e-14


def test_unitary_composition():
    for seed in SEEDS:
        t1, t2 = rng.uniform(-4, 4, 2)
        r1, r2, r12 = rotation(seed, [t1, t2, t1 + t2])
        assert np.max(np.abs(r12 - r2 @ r1)) < 1e-13


def test_evolve_single_commuting_generator_fixes_pole_state():
    # a state along the axis commutes with the Hamiltonian
    for seed in SEEDS:
        _, axis = drawn_member(seed)
        r0 = 0.9 * axis
        assert np.max(np.abs(realization(seed, r0) - r0)) < 1e-15


def test_evolve_single_quarter_turn():
    # omega t = pi/2 turns the part of r0 across the axis into axis x r0
    for seed in SEEDS:
        omega, axis = drawn_member(seed)
        r0 = random_bloch()
        r_t = realization(seed, r0, [0.5 * math.pi / omega])[0]
        assert np.max(np.abs(r_t - (np.cross(axis, r0) + (axis @ r0) * axis))) < 1e-14


def test_evolve_single_fixed_point_and_conjugation_oracle():
    for seed in SEEDS:
        assert np.array_equal(realization(seed, np.zeros(3)), np.zeros((TIMES.size, 3)))
        r0 = random_bloch()
        rho0 = to_matrix(r0)
        purity = np.trace(rho0 @ rho0).real
        for r_t in realization(seed, r0):
            # conjugation keeps the spectrum, hence trace and purity
            rho_t = to_matrix(r_t)
            assert np.allclose(np.linalg.eigvalsh(rho_t), np.linalg.eigvalsh(rho0), atol=1e-14)
            assert DensityMatrix(r_t).purity() == pytest.approx(purity, abs=1e-14)


def test_bloch_round_trip():
    for _ in range(100):
        r = random_bloch()
        m = to_matrix(DensityMatrix(r).bloch)
        assert np.max(np.abs(to_bloch(m) - r)) < 1e-14
        assert abs(np.trace(m) - 1.0) < 1e-15
        assert np.max(np.abs(m - m.conj().T)) < 1e-15


def test_purity_values():
    for r, p in (([0, 0, 0], 0.5), ([0, 0, 1], 1.0), ([0.6, 0, 0], 0.68)):
        rho = to_matrix(r)
        assert DensityMatrix(r).purity() == pytest.approx(p)
        assert DensityMatrix(r).purity() == pytest.approx(np.trace(rho @ rho).real)


def test_density_matrix_rejects_bloch_outside_ball():
    with pytest.raises(ValueError):
        DensityMatrix([1.2, 0, 0])


def test_density_matrix_rejects_non_finite_bloch():
    for bad in ([math.nan, 0, 0], [0, math.inf, 0]):
        with pytest.raises(ValueError):
            DensityMatrix(bad)


def test_pauli_algebra():
    for p in PAULIS:
        assert np.allclose(p @ p, IDENTITY)
    assert np.allclose(PAULIS[0] @ PAULIS[1], 1j * PAULIS[2])
