"""Time-local generators: closed forms, extraction, poles, divisibility."""

import math

import numpy as np
import pytest

from hamens import (BagelAngular, CardioidAngular, DirectionalMoments, DumbbellAngular,
                    ExponentialCutoffRadial, GaussianRadial, KneadedCardioidAngular,
                    MapFamily, PoleError, ReciprocalSquareRadial,
                    SphereAngular, TabulatedAngular, TabulatedRadial, aligned_generator,
                    bloch_generators, extract_generator, map_matrices, offdiagonal_rate, pole_scan,
                    rate_trajectory)
from hamens.dynmap import diagonal_components
from hamens.generator import POLE_THRESHOLD, _determinant, _generators
from hamens.radial import RadialModel, expectation_quadrature
from hamens.validation import builtin_families, pole_free_times

from conftest import (axis_rates, d_denominator, random_table, sign_change_roots,
                      sphere_rate)


def family(radial, angular):
    return MapFamily.from_ensemble(radial, angular)


# ---------------------------------------------------------------------------
# reference closed forms for the isotropic rate, one per radial family
# ---------------------------------------------------------------------------

def iso_gaussian(x):
    return x * (3 - x * x) / (2 * (1 - x * x) + np.exp(x * x / 2))


def iso_exp_cutoff(x):
    u = x * x
    return 4 * x * ((3 - u) * (1 + u) + 2 * (1 - 6 * u + u * u)) / \
        (2 * (1 - 6 * u + u * u) * (1 + u) + (1 + u) ** 5)


def iso_reciprocal_square(x):
    return (np.sin(x) - x * np.cos(x)) / (2 * x * np.sin(x) + x * x)


ISO_FORMS = {
    GaussianRadial: iso_gaussian,
    ExponentialCutoffRadial: iso_exp_cutoff,
    ReciprocalSquareRadial: iso_reciprocal_square,
}

# per-axis closed forms for the two reflection-symmetric geometries
BAGEL_FORMS = {
    GaussianRadial: (
        lambda x: 3 * x * (3 - x * x) / (6 * (1 - x * x) + 2 * np.exp(x * x / 2)),
        lambda x: 5 * x * (3 - x * x) / (5 * (1 - x * x) + 3 * np.exp(x * x / 2)),
    ),
    ExponentialCutoffRadial: (
        lambda x, u=None: 6 * x * (((3 - x**2) * (1 + x**2) + 2 * (1 - 6 * x**2 + x**4))
                                   / (3 * (1 - 6 * x**2 + x**4) * (1 + x**2) + (1 + x**2) ** 5)),
        lambda x: 20 * x * (((3 - x**2) * (1 + x**2) + 2 * (1 - 6 * x**2 + x**4))
                            / (5 * (1 - 6 * x**2 + x**4) * (1 + x**2) + 3 * (1 + x**2) ** 5)),
    ),
    ReciprocalSquareRadial: (
        lambda x: 3 * (np.sin(x) - x * np.cos(x)) / (6 * x * np.sin(x) + 2 * x * x),
        lambda x: 5 * (np.sin(x) - x * np.cos(x)) / (5 * x * np.sin(x) + 3 * x * x),
    ),
}
DUMBBELL_FORMS = {
    GaussianRadial: (
        lambda x: x * (3 - x * x) / (2 * (1 - x * x) + 3 * np.exp(x * x / 2)),
        lambda x: 4 * x * (3 - x * x) / (4 * (1 - x * x) + np.exp(x * x / 2)),
    ),
    ExponentialCutoffRadial: (
        lambda x: 4 * x * (((3 - x**2) * (1 + x**2) + 2 * (1 - 6 * x**2 + x**4))
                           / (2 * (1 - 6 * x**2 + x**4) * (1 + x**2) + 3 * (1 + x**2) ** 5)),
        lambda x: 16 * x * (((3 - x**2) * (1 + x**2) + 2 * (1 - 6 * x**2 + x**4))
                            / (4 * (1 - 6 * x**2 + x**4) * (1 + x**2) + (1 + x**2) ** 5)),
    ),
    ReciprocalSquareRadial: (
        lambda x: (np.sin(x) - x * np.cos(x)) / (2 * x * np.sin(x) + 3 * x * x),
        lambda x: 4 * (np.sin(x) - x * np.cos(x)) / (4 * x * np.sin(x) + x * x),
    ),
}


def test_isotropic_rate_matches_reference_forms():
    for radial_cls, form in ISO_FORMS.items():
        r = radial_cls(1.0)
        for x in np.linspace(0.05, 1.5, 40):
            assert sphere_rate(r, x) == pytest.approx(form(x), abs=1e-12)


def test_isotropic_rate_trivials():
    assert sphere_rate(GaussianRadial(), 0.0) == 0.0
    # initial slope equals the squared cutoff
    slopes = [sphere_rate(GaussianRadial(2.0), t) / t for t in (1e-4, 2e-4)]
    assert slopes[0] == pytest.approx(4.0, rel=1e-3)
    assert sphere_rate(ReciprocalSquareRadial(1.0), math.pi) == pytest.approx(1 / math.pi, rel=1e-12)


def test_isotropic_rate_matches_finite_differences():
    # -wdot/2w with central differences at step 1e-6, relative 1e-6
    h = 1e-6
    for radial_cls in ISO_FORMS:
        r = radial_cls(1.0)
        for t in np.linspace(0.01, 1.5, 60):
            w = lambda tt: (2 * r.expectations(tt)[0] + 1) / 3
            fd = -(w(t + h) - w(t - h)) / (2 * h) / (2 * w(t))
            assert sphere_rate(r, t) == pytest.approx(fd, rel=1e-6)


def test_anisotropic_rates_match_reference_forms():
    for angular, forms in [(BagelAngular(), BAGEL_FORMS), (DumbbellAngular(), DUMBBELL_FORMS)]:
        for radial_cls, (gx_form, gz_aux) in forms.items():
            fam = family(radial_cls(1.0), angular)
            xs = pole_free_times(np.linspace(0.05, 6.0, 90), pole_scan(fam, (0.05, 6.0)), margin=0.08)
            for x in xs:
                gx, gy, gz = axis_rates(fam, x)
                assert gy == pytest.approx(gx, abs=1e-14)
                assert gx == pytest.approx(gx_form(x), abs=1e-10)
                assert gz == pytest.approx(gz_aux(x) - gx_form(x), abs=1e-10)


def test_anisotropic_reduces_to_isotropic_for_sphere():
    # every axis decays at -wdot/2w for the mixing weight w = (2 <cos omega t> + 1)/3
    fam = family(GaussianRadial(), SphereAngular())
    for t in (0.3, 1.0, 2.7):
        c, _, dc, _ = fam.radial.expectations(t, derivative=True)
        h, k = aligned_generator(fam, t)
        assert np.all(h == 0.0) and np.all(k[~np.eye(3, dtype=bool)] == 0.0)
        assert np.allclose(np.diag(k), -dc / (2.0 * c + 1.0), atol=1e-14)


def test_bagel_reciprocal_square_amplitude_ordering():
    # the wider equatorial moments make the transverse channel louder
    fam = family(ReciprocalSquareRadial(1.0), BagelAngular())
    xs = np.linspace(1e-3, 20.0, 40001)
    rates = axis_rates(fam, xs)
    assert np.max(np.abs(rates[:, 0])) > np.max(np.abs(rates[:, 2]))


def test_azimuthal_generator_initial_level_spacing():
    # h_z(0+) = <n_z> <omega>; the mean frequency is the quadrature oracle
    for radial_cls, mean in [(GaussianRadial, 2 * math.sqrt(2 / math.pi)),
                             (ExponentialCutoffRadial, 4.0)]:
        fam = family(radial_cls(1.0), CardioidAngular())
        h, _ = aligned_generator(fam, 1e-12)
        oracle = expectation_quadrature(fam.radial, lambda x: x, 1.0)
        assert h[2] == pytest.approx(-mean / 3, rel=1e-9)
        assert h[2] == pytest.approx(-oracle / 3, rel=1e-9)


def test_azimuthal_generator_reduces_when_reflection_symmetric():
    # with no first moment: no level spacing, and the per-axis rates
    # gamma_j = fdot_j/2f_j - sum_{k!=j} fdot_k/2f_k of the f_j alone
    for angular in (SphereAngular(), BagelAngular(), DumbbellAngular()):
        fam = family(GaussianRadial(), angular)
        for t in (0.4, 1.0):
            h, k = aligned_generator(fam, t)
            f, df, _, _ = diagonal_components(fam, t)
            logd = df / (2.0 * f)
            assert np.all(h == 0.0)
            assert np.allclose(np.diag(k), 2.0 * logd - np.sum(logd), atol=1e-12)


def test_azimuthal_generator_transverse_rates_match_spherical():
    # balanced second moments: gamma_x equals the fully symmetric rate
    fam = family(GaussianRadial(), CardioidAngular())
    for t in (0.3, 0.9, 2.0):
        _, k = aligned_generator(fam, t)
        assert k[0, 0] == pytest.approx(sphere_rate(fam.radial, t), abs=1e-13)


def test_offdiagonal_rate_vanishes_at_zero_asymmetry():
    fam = family(GaussianRadial(), KneadedCardioidAngular(0.0))
    for t in np.linspace(0.1, 6.0, 30):
        assert offdiagonal_rate(fam, t) == 0.0


def test_offdiagonal_rate_linear_in_small_asymmetry():
    # the numerator is exactly linear in a; the denominator picks up an
    # O(a^2) correction, negligible at this time for a <= 1e-2
    vals = {}
    for a in (1e-3, 1e-2):
        fam = family(GaussianRadial(), KneadedCardioidAngular(a))
        vals[a] = offdiagonal_rate(fam, 0.3) / a
    assert vals[1e-3] == pytest.approx(vals[1e-2], rel=1e-6)


@pytest.mark.parametrize("a", [0.0, 0.3, 0.9])
@pytest.mark.parametrize("radial", [GaussianRadial(), ExponentialCutoffRadial(),
                                    ReciprocalSquareRadial()], ids=lambda r: type(r).__name__)
def test_offdiagonal_rate_on_an_array_equals_the_scalar_route(radial, a):
    # the fig7 grid, plus the roots of D, which lie inside its pole window
    fam = family(radial, KneadedCardioidAngular(a))
    grid = np.linspace(0.0, 10.0, 2001)[1:]
    roots = sign_change_roots(d_denominator(fam), 1e-9, 10.0)
    ts = np.concatenate([grid, roots])
    batched = offdiagonal_rate(fam, ts)
    assert batched.shape == ts.shape
    for t, value in zip(ts, batched):
        assert np.array_equal(offdiagonal_rate(fam, np.array([t])), [value], equal_nan=True), t
    assert np.all(np.isnan(batched[grid.size:]))
    if a == 0.0:
        assert np.all(batched == 0.0)
    else:
        assert np.all(np.isfinite(batched[:grid.size]))


#: entries of the closed form, as f(fam, t), with the geometries each is read on
CLOSED_FORMS = {
    "isotropic": (lambda fam, t: sphere_rate(fam.radial, t), [SphereAngular()]),
    "anisotropic": (axis_rates, [BagelAngular(), DumbbellAngular()]),
    "azimuthal": (aligned_generator, [CardioidAngular(), BagelAngular()]),
    "offdiagonal": (offdiagonal_rate, [KneadedCardioidAngular(0.3)]),
}


def _flat(value, n):
    """A closed form's value(s) at n times as one row per time."""
    parts = value if isinstance(value, tuple) else (value,)
    return np.concatenate([np.reshape(p, (n, -1)) for p in parts], axis=1)


def narrow_table():
    """A tent of frequencies on [0.9, 1.1]: <cos omega t> nears cos t, so the
    isotropic mixing weight (2 <cos omega t> + 1)/3 changes sign."""
    omega, density = [0.9, 1.0, 1.1], [0.0, 1.0, 0.0]
    return TabulatedRadial(omega, np.divide(density, TabulatedRadial(omega, density).mass()))


@pytest.mark.parametrize("radial", ["gaussian", "exp-cutoff", "reciprocal-square", "narrow-table"])
@pytest.mark.parametrize("form", list(CLOSED_FORMS))
def test_closed_forms_on_an_array_equal_the_scalar_calls(form, radial):
    # bit for bit at regular times, and NaN exactly where the one-point call
    # gives NaN, which it does at every pole of the map, except that gamma_xy
    # has no f_z denominator, so an f_z root of det M = f_z D is regular for it
    radial = {"gaussian": GaussianRadial(), "exp-cutoff": ExponentialCutoffRadial(),
              "reciprocal-square": ReciprocalSquareRadial(), "narrow-table": narrow_table()}[radial]
    closed_form, angulars = CLOSED_FORMS[form]
    for angular in angulars:
        fam = family(radial, angular)
        poles = pole_scan(fam, (1e-6, 10.0))
        ts = np.concatenate([np.linspace(0.0, 10.0, 501)[1:], poles])
        batched = _flat(closed_form(fam, ts), ts.size)
        for row, t in zip(batched, ts):
            assert np.array_equal(row, _flat(closed_form(fam, np.array([t])), 1)[0],
                                  equal_nan=True), (form, t)
        if form != "offdiagonal":
            assert np.isnan(batched[ts.size - len(poles):]).any(axis=1).all()


def test_diagonal_component_gap_is_linear_in_asymmetry():
    a = 0.37
    fam = family(GaussianRadial(), KneadedCardioidAngular(a))
    for t in (0.2, 1.1):
        f = diagonal_components(fam, t)[0]
        c = fam.radial.expectations(t)[0]
        assert f[0] - f[1] == pytest.approx((a / 3) * (1 - c), abs=1e-14)


def test_extract_generator_matches_closed_forms_everywhere():
    for name, fam in builtin_families():
        grid = pole_free_times(np.linspace(0.05, 6.0, 60), pole_scan(fam, (0.05, 6.0)), margin=0.1)
        for t in grid:
            h, k = extract_generator(fam, t)
            ref_h, ref_k = aligned_generator(fam, t)
            assert np.max(np.abs(k - k.T)) < 1e-12
            assert np.allclose(k, ref_k, atol=1e-8), name
            assert np.allclose(h, ref_h, atol=1e-8), name
            if name.endswith("+sphere"):
                assert np.allclose(k, ref_k[0, 0] * np.eye(3), atol=1e-8)
                assert np.allclose(h, 0.0, atol=1e-10)


def test_extraction_matches_the_closed_form_on_aligned_tables(tabgen, tilted_table):
    # every entry of h and K on each seeded aligned table (<n> along z and S
    # diagonal to 6.3e-17); the largest difference measured is 3.4e-16 omega_c
    for variant in range(tabgen.VARIANTS):
        inputs = tabgen.make_inputs(variant)
        radial = TabulatedRadial(*inputs["radial"])
        fam = family(radial, TabulatedAngular(*inputs["aligned"]))
        omega_c = radial.omega_c
        poles = pole_scan(fam, (1e-9 / omega_c, 6.0 / omega_c))
        times = pole_free_times(np.linspace(0.05, 6.0, 80) / omega_c, poles, margin=0.1 / omega_c)
        ok, h, k = _generators(fam, times)
        assert ok.all(), variant
        ref_h, ref_k = aligned_generator(fam, times)
        assert np.max(np.abs(h - ref_h)) <= 2e-15 * omega_c, variant
        assert np.max(np.abs(k - ref_k)) <= 2e-15 * omega_c, variant
        with pytest.raises(ValueError, match="diagonal second-moment matrix"):
            aligned_generator(family(radial, TabulatedAngular(*inputs["tilted"])), times)
    with pytest.raises(ValueError, match="diagonal second-moment matrix"):
        aligned_generator(family(GaussianRadial(), tilted_table), np.linspace(0.1, 1.0, 5))


#: the six built-in kinds, kneaded at a = 0 (reflection-symmetric like the
#: rest) and at a = 0.3 (which opens the xy channel)
SYMMETRY_KINDS = {"sphere": SphereAngular(), "bagel": BagelAngular(),
                  "dumbbell": DumbbellAngular(), "cardioid": CardioidAngular(),
                  "kneaded-0": KneadedCardioidAngular(0.0),
                  "kneaded-0.3": KneadedCardioidAngular(0.3)}


@pytest.mark.parametrize("kind", SYMMETRY_KINDS)
@pytest.mark.parametrize("radial", [GaussianRadial(), ExponentialCutoffRadial(),
                                    ReciprocalSquareRadial(), GaussianRadial(1e8)],
                         ids=["gaussian", "exp-cutoff", "reciprocal-square", "gaussian-1e8"])
def test_split_keeps_symmetry_zeros_exact(kind, radial):
    # M^-1 = adj(M) / det M elementwise: with <n> along z and S diagonal, the
    # entries of L that vanish by symmetry vanish exactly, and with
    # S_xx = S_yy, K_xy = 0 and K_xx = K_yy exactly, not to LAPACK roundoff
    fam = family(radial, SYMMETRY_KINDS[kind])
    ok, h, k = _generators(fam, np.linspace(0.0, 10.0 / radial.omega_c, 2001))
    assert ok.any()
    assert np.all(h[:, :2] == 0.0)
    assert np.all(k[:, :2, 2] == 0.0) and np.all(k[:, 2, :2] == 0.0)
    if kind != "kneaded-0.3":
        assert np.all(k[:, 0, 1] == 0.0) and np.all(k[:, 1, 0] == 0.0)
        assert np.array_equal(k[:, 0, 0], k[:, 1, 1])


def test_extract_generator_kneaded_example_point():
    fam = family(GaussianRadial(), KneadedCardioidAngular(0.3))
    _, k = extract_generator(fam, 0.4)
    assert k[0, 1] == pytest.approx(offdiagonal_rate(fam, 0.4), abs=1e-8)


def test_extract_generator_short_time_positivity():
    for _, fam in builtin_families():
        eig = np.linalg.eigvalsh(extract_generator(fam, 1e-4)[1])
        assert eig[0] >= -1e-12


def test_reduction_kneaded_to_cardioid():
    fam_eps = family(GaussianRadial(), KneadedCardioidAngular(1e-6))
    fam_card = family(GaussianRadial(), CardioidAngular())
    for t in (0.2, 0.8, 1.7):
        h_eps, k_eps = extract_generator(fam_eps, t)
        h_card, k_card = extract_generator(fam_card, t)
        assert np.max(np.abs(k_eps - k_card)) < 1e-4
        assert np.max(np.abs(h_eps - h_card)) < 1e-4


def test_reduction_zeroed_first_moment_gives_diagonal_rates():
    # cardioid second moments with the first moment forced to zero
    base = family(GaussianRadial(), CardioidAngular())
    fam = MapFamily(base.radial, base.angular,
                    DirectionalMoments(np.zeros(3), base.moments.second))
    for t in (0.3, 1.2):
        h, k = extract_generator(fam, t)
        assert np.all(h == 0.0)
        assert np.allclose(k, np.diag(axis_rates(fam, t)), atol=1e-12)
        # balanced moments: this is the fully symmetric rate again
        assert np.allclose(np.diag(k),
                           sphere_rate(base.radial, t), atol=1e-12)


def test_reduction_nearly_equal_moments_to_isotropic():
    eps = 1e-6
    base = family(GaussianRadial(), SphereAngular())
    second = np.diag([1 / 3 + eps, 1 / 3 - eps, 1 / 3])
    fam = MapFamily(base.radial, base.angular,
                    DirectionalMoments(np.zeros(3), second))
    for t in (0.4, 1.0):
        rates = axis_rates(fam, t)
        assert np.max(np.abs(rates - sphere_rate(base.radial, t))) < 1e-4


def test_map_derivatives_match_finite_differences():
    h = 1e-6
    for _, fam in builtin_families():
        ts = np.linspace(0.05, 5.0, 30)
        df = diagonal_components(fam, ts)[1]
        fd = (diagonal_components(fam, ts + h)[0] - diagonal_components(fam, ts - h)[0]) / (2 * h)
        assert np.max(np.abs(df - fd) / np.maximum(np.abs(df), 1e-2)) < 1e-6


def _rotation(axis, angle):
    k = np.cross(np.eye(3), np.asarray(axis, dtype=float) / np.linalg.norm(axis))
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


ROTATION = _rotation([1.0, -2.0, 0.5], 1.1)


@pytest.mark.parametrize("angular,n_poles", [(DumbbellAngular(), 2), (CardioidAngular(), 0),
                                             (KneadedCardioidAngular(0.3), 2)],
                         ids=["dumbbell", "cardioid", "kneaded"])
def test_lab_frame_route_is_rotation_covariant(angular, n_poles):
    # rotating the moments by R must give R M R^T, R K R^T, R h and the same poles
    fam = family(GaussianRadial(), angular)
    r = ROTATION
    rotated = MapFamily(fam.radial, fam.angular,
                        DirectionalMoments(r @ fam.moments.first,
                                                   r @ fam.moments.second @ r.T))
    second = rotated.moments.second
    assert max(np.max(np.abs(second - np.diag(np.diag(second)))),
               np.max(np.abs(rotated.moments.first[:2]))) > 1e-2  # not axis-aligned
    for t in (0.0, 0.3, 1.1, 2.6, 4.0):
        assert np.max(np.abs(map_matrices(rotated, t) - r @ map_matrices(fam, t) @ r.T)) < 1e-14

    poles = pole_scan(fam, (1e-6, 4.0))
    assert len(poles) == n_poles  # the dumbbell's are double roots of det M (f_x = f_y)
    poles_rotated = pole_scan(rotated, (1e-6, 4.0))
    assert len(poles_rotated) == len(poles)
    assert np.allclose(poles_rotated, poles, rtol=0.0, atol=1e-9)

    grid = np.sort(np.concatenate([np.linspace(0.05, 4.0, 80), poles]))
    for t in pole_free_times(grid, poles, margin=0.1):
        (h, k), (h_r, k_r) = extract_generator(fam, t), extract_generator(rotated, t)
        assert np.max(np.abs(k_r - r @ k @ r.T)) < 1e-9
        assert np.max(np.abs(h_r - r @ h)) < 1e-9

    nan_rows = np.isnan(rate_trajectory(fam, grid).rates["gamma_x"])
    assert nan_rows.sum() >= len(poles)
    for rates in rate_trajectory(rotated, grid).rates.values():
        assert np.array_equal(np.isnan(rates), nan_rows)


# ---------------------------------------------------------------------------
# poles
# ---------------------------------------------------------------------------

def determinant_families(tilted_table):
    """The 15 built-ins, and three tables whose moments have off-diagonal parts."""
    tables = [("gaussian+tilted", GaussianRadial(), tilted_table),
              ("exp-cutoff+random45", ExponentialCutoffRadial(2.0), random_table(45, 4, 5)),
              ("reciprocal-square+random41", ReciprocalSquareRadial(0.5), random_table(41, 3, 4))]
    return builtin_families() + [(name, family(r, a)) for name, r, a in tables]


def test_determinant_equals_the_map_determinant(tilted_table):
    # the pole scan reads det M from _determinant, which forms no 3x3 stack;
    # its f_j here are the eigenvalues of the symmetric part of M itself
    for name, fam in determinant_families(tilted_table):
        t = np.linspace(0.0, 20.0, 200) / fam.radial.omega_c
        m = map_matrices(fam, t)
        c, s = fam.radial.expectations(t)
        f = np.linalg.eigvalsh(0.5 * (m + np.swapaxes(m, -1, -2)))
        det = np.linalg.det(m)
        assert np.all(np.abs(_determinant(fam, c, s, f) - det)
                      <= 1e-14 * np.maximum(1.0, np.abs(det))), name


class StubRadial(RadialModel):
    """Radial model whose <cos omega t> is given pointwise: with the sphere, every
    f_j = (2 c + 1)/3 equals `branch(t)` and det M = branch(t)^3.  Records the
    times of each `expectations` call."""

    omega_c = 1.0

    def __init__(self, branch):
        self.branch = branch
        self.calls = []

    def mass(self):
        return 1.0

    def expectations(self, t, derivative=False):
        t = np.asarray(t, dtype=float)
        self.calls.append(t.ravel())
        return (3.0 * self.branch(t) - 1.0) / 2.0, np.zeros(t.shape)


def test_sign_change_bracketing_skips_non_finite_samples():
    radial = StubRadial(lambda t: np.full(t.shape, np.nan))
    assert pole_scan(family(radial, SphereAngular()), (0.0, 1.0)) == []
    grid = np.linspace(0.0, 1.0, 2001)
    assert np.array_equal(radial.calls[0], grid)
    assert all(c.size == 0 for c in radial.calls[1:])

    # positive, then NaN, then one root at 0.5503, then +inf and -inf, then
    # positive: only the finite cell around the root is refined
    root = 0.5503

    def branch(t):
        value = np.where(t < 0.2, 1.0, t - root)
        value = np.where((t >= 0.2) & (t < 0.3), np.nan, value)
        value = np.where((t >= 0.8) & (t <= 0.85), np.inf, value)
        value = np.where((t > 0.85) & (t <= 0.9), -np.inf, value)
        return np.where(t > 0.9, 1.0, value)

    radial = StubRadial(branch)
    with np.errstate(invalid="ignore"):  # det M is inf * 0 = NaN where c is infinite
        poles = pole_scan(family(radial, SphereAngular()), (0.0, 1.0))
    assert poles == [pytest.approx(root, rel=0.0, abs=1e-12)]
    i = int(np.searchsorted(grid, root)) - 1
    refined = np.concatenate(radial.calls[1:])
    assert refined.size and np.all((grid[i] <= refined) & (refined <= grid[i + 1]))


@pytest.mark.parametrize("omega_c", [1.0, 1e8])
def test_pole_scan_evaluates_in_few_batched_calls(omega_c, monkeypatch):
    # one call for the grid, one per multisection round, one for the |det M| filter
    calls = []
    for cls in (GaussianRadial, ExponentialCutoffRadial, ReciprocalSquareRadial):
        def counted(self, t, derivative=False, expectations=cls.expectations):
            calls.append(np.size(t))
            return expectations(self, t, derivative)
        monkeypatch.setattr(cls, "expectations", counted)
    for name, fam in builtin_families(omega_c):
        calls.clear()
        pole_scan(fam, (1e-9 / omega_c, 6.0 / omega_c))
        assert len(calls) <= 8, (name, calls)


@pytest.mark.parametrize("omega_c", [1.0, 1e8])
def test_pole_scan_roots_match_brentq(omega_c):
    # each pole against brentq on det M or on an eigenvalue of the symmetric
    # part of M (numpy's, not the scan's branches) that changes sign across it
    from scipy.optimize import brentq

    unit = 1.0 / omega_c

    def symmetric_eigenvalue(fam, t, j):
        m = map_matrices(fam, t)
        return np.linalg.eigvalsh(0.5 * (m + m.T))[j]

    def funcs(fam):
        yield lambda t: np.linalg.det(map_matrices(fam, t))
        for j in range(3):
            yield lambda t, j=j: symmetric_eigenvalue(fam, t, j)

    found = 0
    for name, fam in builtin_families(omega_c):
        for pole in pole_scan(fam, (1e-9 * unit, 6.0 * unit)):
            scale = max(unit, pole)
            lo, hi = pole - 1e-9 * scale, pole + 1e-9 * scale
            roots = [brentq(g, lo, hi, xtol=1e-15 * unit) for g in funcs(fam) if g(lo) * g(hi) < 0.0]
            assert roots, (name, pole)
            assert min(abs(pole - r) for r in roots) <= 1e-12 * scale, (name, pole, roots)
            found += 1
    assert found >= 10


def test_pole_scan_sphere_is_regular():
    for radial in (GaussianRadial(), ExponentialCutoffRadial(), ReciprocalSquareRadial()):
        fam = family(radial, SphereAngular())
        assert pole_scan(fam, (1e-6, 5.0)) == []


def test_pole_scan_is_invariant_under_rescaling_time():
    # the bisection and merge floors are in units of 1/omega_c, so at
    # omega_c = 1e8 the scan finds the omega_c = 1 poles scaled by 1e-8
    for (name, fam), (_, fam8) in zip(builtin_families(1.0), builtin_families(1e8)):
        poles = pole_scan(fam, (1e-9, 10.0))
        poles8 = pole_scan(fam8, (1e-17, 1e-7))
        assert len(poles8) == len(poles), name
        assert np.allclose(poles8, 1e-8 * np.array(poles), rtol=1e-12, atol=0.0), name


def test_pole_scan_bagel_gaussian_two_roots():
    fam = family(GaussianRadial(), BagelAngular())
    roots = pole_scan(fam, (1e-6, 3.0))
    assert len(roots) == 2
    # independent bracketing of 3(1 - x^2) + exp(x^2/2) on the same window
    den = lambda x: 3 * (1 - x * x) + math.exp(x * x / 2)
    for root in roots:
        assert den(root - 1e-7) * den(root + 1e-7) < 0
    sq = [r * r for r in roots]
    assert 1.7 <= sq[0] <= 1.9
    assert 4.9 <= sq[1] <= 5.2


def test_pole_scan_bagel_reciprocal_square_regular():
    fam = family(ReciprocalSquareRadial(), BagelAngular())
    assert pole_scan(fam, (1e-6, 20.0)) == []


def test_pole_scan_dumbbell_gaussian_z_channel():
    # the longitudinal channel is singular (f_x roots), the transverse one is not
    fam = family(GaussianRadial(), DumbbellAngular())
    assert len(sign_change_roots(lambda t: diagonal_components(fam, t)[0][..., 0], 1e-6, 4.0)) == 2
    assert sign_change_roots(lambda t: diagonal_components(fam, t)[0][..., 2], 1e-6, 4.0) == []


@pytest.mark.parametrize("radial_cls,with_poles,without", [
    (GaussianRadial, 0.3, 0.1),
    (ExponentialCutoffRadial, 0.7, 0.3),
])
def test_pole_scan_kneaded_asymmetry_thresholds(radial_cls, with_poles, without):
    fam_hot = family(radial_cls(1.0), KneadedCardioidAngular(with_poles))
    fam_cold = family(radial_cls(1.0), KneadedCardioidAngular(without))
    assert len(sign_change_roots(d_denominator(fam_hot), 1e-6, 10.0)) >= 2
    assert sign_change_roots(d_denominator(fam_cold), 1e-6, 10.0) == []


def test_pole_scan_kneaded_reciprocal_square_regular_even_at_large_asymmetry():
    fam = family(ReciprocalSquareRadial(), KneadedCardioidAngular(0.9))
    assert sign_change_roots(d_denominator(fam), 1e-6, 20.0) == []


# Roots on (0, 4) for the Gaussian radial model (omega_c = 1) with the kneaded
# cardioid at a = 0.3, from an evaluation that shares no code with hamens
# (mpmath 1.3.0, 40 digits, no closed form for <sin omega t>):
#   w = lambda om: mp.sqrt(2/mp.pi) * om**2 * mp.exp(-om**2/2)
#   c = lambda t: mp.quad(lambda om: w(om) * mp.cos(om*t), [0, mp.inf])
#   s = lambda t: mp.quad(lambda om: w(om) * mp.sin(om*t), [0, mp.inf])
#   sx, sy, nz = mpf(23)/60, mpf(17)/60, -mpf(1)/3  # also by 2-D mp.quad of the density
#   fx = lambda t: c(t)*(1 - sx) + sx;  fy = lambda t: c(t)*(1 - sy) + sy
#   D = lambda t: fx(t)*fy(t) + nz**2 * s(t)**2
#   mp.findroot(fy, 1.47), mp.findroot(fy, 2.04), mp.findroot(D, 1.82), mp.findroot(D, 2.03)
# The second f_y root lies only 8.737e-3 from the second D root.
KNEADED_FY_ROOTS = (1.4731010577086274, 2.0376778499441551)
KNEADED_D_ROOTS = (1.8209286513652817, 2.0289408999653861)


def test_pole_scan_kneaded_ignores_harmless_fy_roots():
    # det M = f_z D with D = f_x f_y + <n_z>^2 <sin omega t>^2, so at an f_y root
    # D = <n_z>^2 <sin omega t>^2 > 0 whenever <sin omega t> != 0: the map stays
    # invertible there, and only the two D sign changes are generator singularities
    fam = family(GaussianRadial(), KneadedCardioidAngular(0.3))
    fy_roots = sign_change_roots(lambda t: diagonal_components(fam, t)[0][..., 1], 1e-6, 4.0)
    assert len(fy_roots) == 2
    true_poles = pole_scan(fam, (1e-6, 4.0))
    assert len(true_poles) == 2
    d_roots = sign_change_roots(d_denominator(fam), 1e-6, 4.0)
    assert np.allclose(true_poles, d_roots, atol=1e-9)
    assert np.allclose(fy_roots, KNEADED_FY_ROOTS, rtol=0.0, atol=1e-9)
    assert np.allclose(true_poles, KNEADED_D_ROOTS, rtol=0.0, atol=1e-9)
    nz = float(fam.moments.first[2])
    for r in fy_roots:
        assert all(abs(r - p) > 1e-9 for p in true_poles)
        det = np.linalg.det(map_matrices(fam, r))
        harmless = nz * nz * fam.radial.expectations(r)[1] ** 2
        assert det / diagonal_components(fam, r)[0][2] == pytest.approx(harmless, rel=1e-9)
        assert abs(det) > POLE_THRESHOLD
        h, k = extract_generator(fam, r)
        assert np.all(np.isfinite(h))
        assert np.all(np.isfinite(k))
        assert k[0, 1] == pytest.approx(offdiagonal_rate(fam, r), rel=1e-9)


def test_rates_raise_inside_pole_window():
    # the closed form marks the pole with NaN; the batched split raises
    fam = family(GaussianRadial(), BagelAngular())
    pole = pole_scan(fam, (1e-6, 3.0))[0]
    assert np.isnan(axis_rates(fam, np.array([pole]))).all()
    with pytest.raises(PoleError):
        extract_generator(fam, pole)


def test_rate_trajectory_marks_pole_window_and_lists_poles():
    fam = family(GaussianRadial(), BagelAngular())
    poles = pole_scan(fam, (1e-6, 3.0))
    grid = np.sort(np.concatenate([np.linspace(0.01, 3.0, 100), poles]))
    traj = rate_trajectory(fam, grid)
    assert np.allclose(traj.poles, poles, atol=1e-9)
    for pole in poles:
        i = int(np.argmin(np.abs(grid - pole)))
        assert not np.isfinite(traj.rates["gamma_x"][i])
    finite = np.isfinite(traj.rates["gamma_x"])
    assert finite.sum() >= 100


def test_batched_generator_equals_one_point_route():
    # the batched split must reproduce extract_generator point by point,
    # with NaN exactly where it raises PoleError
    for _, fam in builtin_families():
        poles = pole_scan(fam, (1e-6, 6.0))
        grid = np.sort(np.concatenate([np.linspace(0.0, 6.0, 121), poles]))
        traj = rate_trajectory(fam, grid)
        for i, t in enumerate(grid):
            try:
                h, k = extract_generator(fam, t)
            except PoleError:
                assert all(np.isnan(v[i]) for v in traj.rates.values())
                continue
            expected = {"gamma_x": k[0, 0], "gamma_y": k[1, 1], "gamma_z": k[2, 2],
                        "gamma_xy": k[0, 1], "omega_bar": h[2],
                        "kossakowski_min": np.linalg.eigvalsh(k)[0]}
            for name, value in expected.items():
                assert traj.rates[name][i] == value, (name, t)


def test_bloch_generators_equal_the_one_point_route():
    # the integrator's batched generators do not depend on the batch: each
    # equals the one-point call bit for bit, and the split it is built from
    # is [h]_x + K - tr(K) I; a time inside a pole window raises PoleError
    for name, fam in builtin_families():
        grid = pole_free_times(np.linspace(0.0, 6.0, 61), pole_scan(fam, (1e-9, 6.0)), margin=0.05)
        gens = bloch_generators(fam, grid)
        assert gens.shape == (grid.size, 3, 3)
        for t, g in zip(grid, gens):
            assert np.array_equal(g, bloch_generators(fam, [t])[0]), (name, t)
            h, k = extract_generator(fam, t)
            cross = np.cross(h, np.eye(3)).T  # [h]_x r = h x r
            assert np.array_equal(g, cross + k - np.trace(k) * np.eye(3)), (name, t)
    fam = family(GaussianRadial(), BagelAngular())
    pole = pole_scan(fam, (1e-6, 3.0))[0]
    with pytest.raises(PoleError) as err:
        bloch_generators(fam, [0.5, pole, 2.0])
    assert err.value.time == pole


# ---------------------------------------------------------------------------
# divisibility: the sign pattern of the smallest Kossakowski eigenvalue
# ---------------------------------------------------------------------------

def test_divisibility_sphere_gaussian_two_regimes():
    fam = family(GaussianRadial(), SphereAngular())
    grid = np.linspace(0.01, 8.0, 400)
    k_min = rate_trajectory(fam, grid).rates["kossakowski_min"]
    assert np.all(np.isfinite(k_min))
    # one sign change, from divisible to not, at the sign change of the rate
    # x (3 - x^2) exp(-x^2/2): x = sqrt(3), inside that grid cell
    changes = np.flatnonzero((k_min[:-1] >= 0.0) != (k_min[1:] >= 0.0))
    assert changes.size == 1 and k_min[0] >= 0.0
    assert grid[changes[0]] <= math.sqrt(3.0) <= grid[changes[0] + 1]


def test_divisibility_reciprocal_square_alternates():
    fam = family(ReciprocalSquareRadial(), SphereAngular())
    k_min = rate_trajectory(fam, np.linspace(0.01, 20.0, 1000)).rates["kossakowski_min"]
    assert np.all(np.isfinite(k_min))
    changes = np.flatnonzero((k_min[:-1] >= 0.0) != (k_min[1:] >= 0.0))
    assert changes.size >= 4
