"""Exact dynamical map: reductions, conventions, positivity, purity."""

import math

import numpy as np
import pytest

from hamens import (BagelAngular, CardioidAngular, DensityMatrix, DumbbellAngular,
                    GaussianRadial, KneadedCardioidAngular, MapFamily, SamplerConfig,
                    SphereAngular, choi_check, map_matrices,
                    mc_average, purity_trajectory)
from hamens.dynmap import _cross_matrix, bloch_trajectory, diagonal_components
from hamens.validation import builtin_families

from conftest import sign_change_roots

PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def family(radial, angular):
    return MapFamily.from_ensemble(radial, angular)


SPHERE_G = family(GaussianRadial(), SphereAngular())
CARDIOID_G = family(GaussianRadial(), CardioidAngular())
BAGEL_G = family(GaussianRadial(), BagelAngular())


def mixing_weight(radial, t):
    return (2.0 * radial.expectations(t)[0] + 1.0) / 3.0


def choi_matrix(m):
    """Unit-trace 4x4 Choi matrices sum_jk Phi(E_jk) (x) E_jk / 2 of the unital
    maps m, shape (..., 3, 3), built from the 2x2 action of each map."""
    m = np.asarray(m, dtype=float)
    choi = np.zeros(m.shape[:-2] + (4, 4), dtype=complex)
    for j in range(2):
        for k in range(2):
            e_jk = np.zeros((2, 2))
            e_jk[j, k] = 1.0
            a = 0.5 * np.einsum("pab,ba->p", PAULIS, e_jk)
            out = 0.5 * np.trace(e_jk) * np.eye(2) + np.einsum("...p,pab->...ab", m @ a, PAULIS)
            choi += 0.5 * np.einsum("...ab,cd->...acbd", out, e_jk).reshape(choi.shape)
    return choi


def test_f_component_sphere_equals_mixing_weight():
    for t in [0.0, 0.4, 1.3, 5.0]:
        w = mixing_weight(SPHERE_G.radial, t)
        assert np.allclose(diagonal_components(SPHERE_G, t)[0], w, rtol=0.0, atol=1e-14)


def test_f_component_at_time_zero_is_one():
    for fam in (SPHERE_G, CARDIOID_G, BAGEL_G):
        assert diagonal_components(fam, 0.0)[0] == pytest.approx([1.0, 1.0, 1.0])


def test_f_component_bagel_when_cosine_vanishes():
    # cosine expectation is zero at omega_c t = 1, leaving the z second moment
    assert diagonal_components(BAGEL_G, 1.0)[0][2] == pytest.approx(0.25, abs=1e-14)


def test_map_sphere_is_isotropic_contraction():
    for t in np.linspace(0.0, 8.0, 60):
        m = map_matrices(SPHERE_G, t)
        assert np.max(np.abs(m - mixing_weight(SPHERE_G.radial, t) * np.eye(3))) < 1e-12


def test_map_identity_at_time_zero():
    for fam in (SPHERE_G, CARDIOID_G, BAGEL_G):
        assert np.allclose(map_matrices(fam, 0.0), np.eye(3), atol=1e-14)


def test_map_diagonal_for_reflection_symmetric_geometries():
    for angular in (BagelAngular(), DumbbellAngular()):
        fam = family(GaussianRadial(), angular)
        for t in np.linspace(0.1, 6.0, 25):
            m = map_matrices(fam, t)
            off = m - np.diag(np.diag(m))
            assert np.max(np.abs(off)) < 1e-12


def test_map_convention_against_quadrature_averaged_realizations():
    """Reference point pinning the operator-to-Bloch index convention.

    The ensemble average of single-realization rotations, evaluated by
    product quadrature over (omega, theta, phi), must equal the closed-form
    map.  Checked at cardioid + Gaussian, omega_c t = 0.5.
    """
    t = 0.5
    r0 = np.array([0.63, -0.41, 0.52])
    # radial nodes: Gauss-Legendre on [0, 13] (weight is smooth, t is small)
    xr, wr = np.polynomial.legendre.leggauss(200)
    om = 6.5 * (xr + 1.0)
    wom = 6.5 * wr * np.sqrt(2 / np.pi) * om * om * np.exp(-0.5 * om * om)
    # angular nodes
    xt, wt = np.polynomial.legendre.leggauss(128)
    th = 0.5 * math.pi * (xt + 1.0)
    wth = 0.5 * math.pi * wt * np.sin(th) * (1 - np.cos(th)) / (4 * math.pi)
    ph = np.linspace(0.0, 2 * math.pi, 256, endpoint=False)
    wph = np.full(ph.size, 2 * math.pi / ph.size)

    axes = np.stack([
        (np.sin(th)[:, None] * np.cos(ph)[None, :]),
        (np.sin(th)[:, None] * np.sin(ph)[None, :]),
        np.broadcast_to(np.cos(th)[:, None], (th.size, ph.size)),
    ], axis=-1).reshape(-1, 3)
    w_ang = (wth[:, None] * wph[None, :]).ravel()

    angle = om[:, None] * t
    c = np.cos(angle)
    s = np.sin(angle)
    dot = axes @ r0
    cross = np.cross(axes, r0)
    # r(t) per (omega, direction), then the doubly weighted average
    r_t = (c[..., None] * r0
           + s[..., None] * cross[None, :, :]
           + (1 - c)[..., None] * dot[None, :, None] * axes[None, :, :])
    averaged = np.einsum("i,j,ijk->k", wom, w_ang, r_t)

    exact = map_matrices(CARDIOID_G, t) @ DensityMatrix(r0).bloch
    assert np.max(np.abs(averaged - exact)) < 1e-8


def test_cross_matrix_of_stacked_vectors():
    # one builder for the map's [<n>]_x and the generator's stacked [h]_x
    rng = np.random.default_rng(5)
    v, r = rng.normal(size=(4, 2, 3)), rng.normal(size=3)
    m = _cross_matrix(v)
    assert m.shape == (4, 2, 3, 3)
    assert np.allclose(m @ r, np.cross(v, r), rtol=1e-14, atol=1e-14)
    assert np.array_equal(m, -np.swapaxes(m, -1, -2))
    assert np.array_equal(_cross_matrix(v[1, 0]), m[1, 0])


def test_apply_unitality_and_identity():
    m0 = map_matrices(CARDIOID_G, 0.0)
    rho = DensityMatrix([0.3, -0.2, 0.5])
    assert np.allclose(m0 @ rho.bloch, rho.bloch, atol=1e-14)
    out = map_matrices(CARDIOID_G, 2.0) @ DensityMatrix([0.0, 0.0, 0.0]).bloch
    assert np.array_equal(out, np.zeros(3))


def test_apply_long_time_sphere_limit():
    # the weight settles at 1/3: a constant mixture with the fully mixed state
    out = map_matrices(SPHERE_G, 40.0) @ DensityMatrix([0.0, 0.0, 1.0]).bloch
    assert np.allclose(out, [0.0, 0.0, 1.0 / 3.0], atol=1e-10)


def test_map_contracts_bloch_norm_for_all_builtin_pairs():
    r0 = np.array([0.8, -0.33, 0.47])
    n0 = np.linalg.norm(r0)
    for _, fam in builtin_families():
        for t in np.linspace(0.0, 10.0, 101):
            assert np.linalg.norm(map_matrices(fam, t) @ r0) <= n0 + 1e-12


def test_purity_trajectory_sphere_values():
    grid = np.array([0.0, 1.0, 10.0])
    pur = purity_trajectory(SPHERE_G, DensityMatrix([0, 0, 1]), grid)
    assert pur[0] == pytest.approx(1.0)
    # weight form: purity = w^2 (p0 - 1/2) + 1/2 for any initial purity
    rho_mixed = DensityMatrix([0.0, 0.0, 0.6])
    pur_m = purity_trajectory(SPHERE_G, rho_mixed, grid)
    for p, t in zip(pur_m, grid):
        w = mixing_weight(SPHERE_G.radial, t)
        assert p == pytest.approx(w * w * (rho_mixed.purity() - 0.5) + 0.5, abs=1e-12)
    assert pur[-1] == pytest.approx(5.0 / 9.0, abs=1e-3)


def test_purity_dies_out_at_diagonal_component_roots():
    # polar initial state: purity is (1 + f_z^2)/2, reaching exactly 1/2
    # where f_z vanishes, followed by a revival
    roots = sign_change_roots(lambda t: diagonal_components(BAGEL_G, t)[0][..., 2], 0.1, 3.0)
    assert len(roots) == 2
    pur = purity_trajectory(BAGEL_G, DensityMatrix([0, 0, 1]), np.asarray(roots))
    assert np.allclose(pur, 0.5, atol=1e-9)
    after = purity_trajectory(BAGEL_G, DensityMatrix([0, 0, 1]),
                              np.asarray(roots) + 0.2)
    assert np.all(after > 0.5)


def test_purity_matches_bloch_norm_route():
    grid = np.linspace(0.0, 5.0, 40)
    rho0 = DensityMatrix([0.4, 0.31, -0.62])
    fam = family(GaussianRadial(), KneadedCardioidAngular(0.3))
    pur = purity_trajectory(fam, rho0, grid)
    r_t = bloch_trajectory(fam, rho0, grid)
    assert np.allclose(pur, 0.5 * (1 + np.sum(r_t * r_t, axis=1)), atol=1e-14)


def test_map_matrices_makes_one_radial_pass(monkeypatch):
    # M and Mdot share one expectations call: two Fourier sums (orders 0 and 1)
    # for a table, one Dawson evaluation for the Gaussian
    from hamens import TabulatedRadial, radial

    om = np.linspace(0.0, 3.0, 62)
    density = np.exp(-(om / 1.2) ** 2)
    table = TabulatedRadial(om, density / TabulatedRadial(om, density).mass())
    tabulated = family(table, CardioidAngular())
    grid = np.linspace(0.0, 10.0, 201)
    calls = []
    fourier, dawsn = TabulatedRadial._fourier, radial._dawsn

    def counted_fourier(self, t, moment):
        calls.append("fourier")
        return fourier(self, t, moment)

    def counted_dawsn(x):
        calls.append("dawsn")
        return dawsn(x)

    monkeypatch.setattr(TabulatedRadial, "_fourier", counted_fourier)
    monkeypatch.setattr(radial, "_dawsn", counted_dawsn)
    map_matrices(tabulated, grid, derivative=True)
    assert calls == ["fourier", "fourier"]
    calls.clear()
    map_matrices(CARDIOID_G, grid, derivative=True)
    assert calls == ["dawsn"]


def test_choi_identity_map():
    identity = map_matrices(SPHERE_G, 0.0)
    eig = np.linalg.eigvalsh(choi_matrix(identity))
    assert eig[0] == pytest.approx(0.0, abs=1e-14)
    assert eig[-1] == pytest.approx(1.0, abs=1e-14)
    assert choi_check(identity) == pytest.approx(0.0, abs=1e-14)


def test_choi_depolarizing_spectrum():
    # direct 4x4 oracle: w |phi+><phi+| + (1-w) I/4
    w = 1.0 / 3.0
    m = w * np.eye(3)
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1.0 / math.sqrt(2.0)
    oracle = w * np.outer(phi, phi.conj()) + (1 - w) * np.eye(4) / 4.0
    assert np.max(np.abs(choi_matrix(m) - oracle)) < 1e-14
    eig = np.linalg.eigvalsh(choi_matrix(m))
    assert np.allclose(eig[:3], (1 - w) / 4.0, atol=1e-14)
    assert choi_check(m) == pytest.approx((1 - w) / 4.0, abs=1e-14)


def test_choi_detects_norm_violation():
    assert choi_check(np.diag([1.2, 1.0, 1.0])) < 0.0


def test_choi_nonnegative_on_sampled_times():
    grid = np.linspace(0.0, 8.0, 17)
    for _, fam in builtin_families():
        assert np.all(choi_check(map_matrices(fam, grid)) >= -1e-10)


def test_choi_check_matches_smallest_choi_eigenvalue(tilted_table):
    grid = np.linspace(0.0, 10.0, 200)
    maps = [map_matrices(fam, grid) for _, fam in builtin_families()]
    maps.append(map_matrices(family(GaussianRadial(), tilted_table), grid))
    # random maps, most of them not completely positive
    rng = np.random.default_rng(31)
    maps.append(rng.uniform(-1.0, 1.0, (2000, 3, 3)) * rng.uniform(0.0, 1.2, (2000, 1, 1)))
    for m in maps:
        oracle = np.linalg.eigvalsh(choi_matrix(m))[..., 0]
        assert np.max(np.abs(choi_check(m) - oracle)) <= 1e-14
    assert np.any(oracle < -0.01) and np.any(oracle > 0.01)


def test_map_agrees_with_monte_carlo():
    # stochastic oracle at 3 standard errors, fixed seeds
    r0 = DensityMatrix([0.6, -0.1, 0.75])
    cases = [
        (CARDIOID_G, 0.7),
        (family(GaussianRadial(), SphereAngular()), 1.0),
        (family(GaussianRadial(), DumbbellAngular()), 2.0),
    ]
    for fam, t in cases:
        mean, stderr = mc_average(fam, r0, t, SamplerConfig(seed=90210, n_samples=400000))
        exact = map_matrices(fam, t) @ r0.bloch
        z = np.abs(mean - exact) / stderr
        assert np.max(z) < 3.0



def test_map_agrees_with_monte_carlo_on_tilted_table(tilted_table):
    # tilted first moment and off-diagonal second moments, in the lab frame
    fam = MapFamily.from_ensemble(GaussianRadial(), tilted_table)
    second = tilted_table.moments().second
    assert np.max(np.abs(second - np.diag(np.diag(second)))) > 0.05
    rho0 = DensityMatrix([0.3, -0.5, 0.6])
    mean, stderr = mc_average(fam, rho0, 1.0, SamplerConfig(seed=5, n_samples=40000))
    exact = bloch_trajectory(fam, rho0, [1.0])[0]
    assert np.allclose(exact, map_matrices(fam, 1.0) @ rho0.bloch, rtol=0.0, atol=1e-15)
    assert np.max(np.abs(mean - exact) / stderr) < 4.0
