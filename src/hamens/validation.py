"""Self-validation suites: every fast route checked against an independent one.

Four suites, each reported as (check, metric, threshold, passed):

* closed-form radial expectations against adaptive quadrature,
* the exact map against the Monte-Carlo sampler (stderr-scaled),
* the batched generator split against the per-symmetry-class closed forms,
* master-equation integration against direct map application.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynmap import MapFamily, bloch_trajectory
from .ensemble import ANGULAR_KINDS, RADIAL_KINDS, SeparableEnsemble
from .generator import (_generators, anisotropic_rates, azimuthal_generator, bloch_generators,
                        isotropic_rate, offdiagonal_rate, pole_scan)
from .montecarlo import mc_trajectory
from .propagation import integrate_master
from .radial import expectation_quadrature


@dataclass(frozen=True)
class CheckResult:
    check: str
    metric: float
    threshold: float
    passed: bool


def _result(check, metric, threshold):
    return CheckResult(check=check, metric=float(metric), threshold=float(threshold),
                       passed=bool(metric <= threshold))


def builtin_radials(omega_c: float):
    # the second name of exp-cutoff would run its model twice
    return [(name, kind(omega_c)) for name, kind in RADIAL_KINDS.items()
            if name != "exponential-cutoff"]


def builtin_angulars(asymmetry: float = 0.3):
    return [(name, kind(asymmetry) if name == "kneaded" else kind())
            for name, kind in ANGULAR_KINDS.items()]


def builtin_families(omega_c: float = 1.0, asymmetry: float = 0.3):
    """All 15 (radial x angular) built-in pairs as map families."""
    out = []
    for rname, radial in builtin_radials(omega_c):
        for aname, angular in builtin_angulars(asymmetry):
            fam = MapFamily.from_ensemble(SeparableEnsemble(radial, angular))
            out.append((f"{rname}+{aname}", fam))
    return out


def builtin_poles(omega_c: float = 1.0, asymmetry: float = 0.3):
    """Poles of each built-in family on (1e-9, 6)/omega_c, the window of the
    extraction and round-trip checks."""
    return [pole_scan(fam, (1e-9 / omega_c, 6.0 / omega_c))
            for _, fam in builtin_families(omega_c, asymmetry)]


def pole_free_times(fam, times, margin, poles=None):
    if poles is None:
        start = float(times[0]) if times[0] > 0 else 1e-9 / fam.ensemble.radial.omega_c
        poles = pole_scan(fam, (start, float(times[-1])))
    if not poles:
        return np.asarray(times)
    times = np.asarray(times)
    dist = np.min(np.abs(times[:, None] - np.asarray(poles)[None, :]), axis=1)
    return times[dist > margin]


def check_radial_quadrature(omega_c: float = 1.0, threshold: float = 1e-9):
    """Closed-form cos/sin expectations vs the adaptive-quadrature oracle."""
    worst = 0.0
    times = np.array([0.05, 0.3, 1.0, 2.5, 5.0, 8.0]) / omega_c
    for _, radial in builtin_radials(omega_c):
        for t, c, s in zip(times, *radial.expectations(times)):
            worst = max(worst, abs(c - expectation_quadrature(radial, np.cos, t)))
            worst = max(worst, abs(s - expectation_quadrature(radial, np.sin, t)))
    return [_result("radial-closed-form-vs-quadrature", worst, threshold)]


def check_mc_vs_map(rho0, cfg, omega_c: float = 1.0, asymmetry: float = 0.3,
                    threshold: float = 4.0):
    """Componentwise |MC - exact| in units of the MC standard error.

    The metric is the largest of 180 correlated z-scores (15 pairs, 4 times,
    3 components), so the 4-sigma gate fails now and then by chance, with
    exact samplers too: on validate_default.cfg, seed 145 of seeds 0-199
    reads 4.16.  One failing seed is a reason to run others, not a proof of
    a fault.  Rounding in the sampled axes moves the metric in its last
    digits only: seed 145 reads 4.1600742391878427, and 4.1600742391878418
    from axes built with libm cos and sin of the drawn angles.
    """
    worst = 0.0
    times = np.array([0.2, 1.0, 3.0, 8.0]) / omega_c
    for _, fam in builtin_families(omega_c, asymmetry):
        exact_rows = bloch_trajectory(fam, rho0, times)
        for exact, est in zip(exact_rows, mc_trajectory(fam.ensemble, rho0, times, cfg)):
            stderr = np.maximum(est.bloch_stderr, 1e-300)
            worst = max(worst, float(np.max(np.abs(est.bloch_mean - exact) / stderr)))
    return [_result("mc-vs-map-stderr-units", worst, threshold)]


def check_extraction(omega_c: float = 1.0, asymmetry: float = 0.3, threshold: float = 1e-8,
                     poles=None):
    """The batched generator split vs the per-class closed forms, away from
    poles, in units of omega_c (rates scale with it).

    A closed form that is NaN where the split is regular fails the check.
    """
    worst = 0.0
    grid = np.linspace(0.05, 6.0, 80) / omega_c
    poles = builtin_poles(omega_c, asymmetry) if poles is None else poles
    for (name, fam), fam_poles in zip(builtin_families(omega_c, asymmetry), poles):
        times = pole_free_times(fam, grid, margin=0.1 / omega_c, poles=fam_poles)
        ok, h, k = _generators(fam, times)
        t, angular = times[ok], name.split("+")[1]
        if angular == "sphere":
            devs = [k - isotropic_rate(fam.ensemble.radial, t)[:, None, None] * np.eye(3), h]
        elif angular in ("bagel", "dumbbell"):
            devs = [k - anisotropic_rates(fam, t)[..., None] * np.eye(3), h]
        elif angular == "cardioid":
            ref_h, ref_k = azimuthal_generator(fam, t)
            devs = [k - ref_k, h - ref_h]
        else:  # kneaded: the off-diagonal rate is the closed form on record
            devs = [k[:, 0, 1] - offdiagonal_rate(fam, t)]
        for dev in devs:
            worst = np.max(np.abs(dev), initial=worst)
    return [_result("extraction-vs-closed-forms", worst / omega_c, threshold)]


def check_roundtrip(rho0, omega_c: float = 1.0, asymmetry: float = 0.3,
                    threshold: float = 1e-6, poles=None):
    """Integrated master equation vs direct map application on pole-free spans."""
    worst = 0.0
    poles = builtin_poles(omega_c, asymmetry) if poles is None else poles
    for (_, fam), fam_poles in zip(builtin_families(omega_c, asymmetry), poles):
        t_end = min(0.9 * fam_poles[0], 4.0 / omega_c) if fam_poles else 4.0 / omega_c
        t_eval = np.linspace(0.0, t_end, 21)
        traj = integrate_master(lambda ts, fam=fam: bloch_generators(fam, ts),
                                rho0, (0.0, t_end), t_eval=t_eval)
        exact = bloch_trajectory(fam, rho0, t_eval)
        dist = 0.5 * np.linalg.norm(traj.bloch - exact, axis=1)
        worst = max(worst, float(np.max(dist)))
    return [_result("integrator-roundtrip-trace-distance", worst, threshold)]


def run_checks(rho0, cfg, omega_c: float = 1.0, asymmetry: float = 0.3):
    """Run all four suites; returns the combined list of results."""
    results = []
    results += check_radial_quadrature(omega_c)
    results += check_mc_vs_map(rho0, cfg, omega_c, asymmetry)
    poles = builtin_poles(omega_c, asymmetry)
    results += check_extraction(omega_c, asymmetry, poles=poles)
    results += check_roundtrip(rho0, omega_c, asymmetry, poles=poles)
    return results
