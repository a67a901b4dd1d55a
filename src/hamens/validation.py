"""Self-validation: every fast route checked against an independent one.

`run_checks` builds the 15 built-in (radial x angular) families once, scans
each for poles once and runs three checks on them:

* the exact map against the Monte-Carlo sampler (stderr-scaled), on the five
  families of each radial model at once,
* the batched generator split against the closed form `aligned_generator`,
  every entry of h and K,
* master-equation integration against direct map application;

and one check of the closed-form radial expectations against the quadrature
oracle `expectation_quadrature`.  Each check returns its metric; the report
is one (check, metric, threshold, passed) row per check, with the worst
metric over the families.  A NaN metric fails its row.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .config import ANGULAR_KINDS, RADIAL_KINDS, angular_model
from .dynmap import MapFamily, bloch_trajectory
from .generator import _generators, aligned_generator, bloch_generators, pole_scan
from .montecarlo import _mc_pairs
from .propagation import integrate_master
from .radial import expectation_quadrature

#: each check's report name and the largest metric it passes at, in report order
THRESHOLDS = {"radial-closed-form-vs-quadrature": 1e-9, "mc-vs-map-stderr-units": 4.0,
              "extraction-vs-closed-forms": 1e-8, "integrator-roundtrip-trace-distance": 1e-6}
#: the asymmetry a of the kneaded families when the config sets none
DEFAULT_ASYMMETRY = 0.3


@dataclass(frozen=True)
class CheckResult:
    check: str
    metric: float
    threshold: float
    passed: bool


def builtin_radials(omega_c: float):
    return [(name, kind(omega_c)) for name, kind in RADIAL_KINDS.items()]


def builtin_families(omega_c: float = 1.0, asymmetry: float = DEFAULT_ASYMMETRY):
    """All 15 (radial x angular) built-in pairs as map families."""
    return [(f"{rname}+{aname}", MapFamily.from_ensemble(radial, angular_model(aname, asymmetry)))
            for rname, radial in builtin_radials(omega_c) for aname in ANGULAR_KINDS]


def pole_free_times(times, poles, margin):
    """The times farther than ``margin`` from every pole."""
    times = np.asarray(times)
    if not poles:
        return times
    dist = np.min(np.abs(times[:, None] - np.asarray(poles)[None, :]), axis=1)
    return times[dist > margin]


def check_radial_quadrature(omega_c: float) -> float:
    """Closed-form cos/sin expectations vs the adaptive-quadrature oracle."""
    worst = 0.0
    times = np.array([0.05, 0.3, 1.0, 2.5, 5.0, 8.0]) / omega_c
    for _, radial in builtin_radials(omega_c):
        for t, c, s in zip(times, *radial.expectations(times)):
            devs = (c - expectation_quadrature(radial, np.cos, t),
                    s - expectation_quadrature(radial, np.sin, t))
            worst = np.max(np.abs(devs), initial=worst)
    return float(worst)


def check_mc_vs_map(fams, rho0, cfg) -> float:
    """Componentwise |MC - exact| in units of the MC standard error, the
    largest over families that share one radial model, which is drawn once.

    `run_checks` keeps the largest of 180 correlated z-scores (15 pairs, 4
    times, 3 components), so the 4-sigma gate fails now and then by chance,
    with exact samplers too: on validate_default.cfg, seed 145 of seeds 0-199
    reads 4.16.  One failing seed is a reason to run others, not a proof of
    a fault.  Rounding in the sampled axes moves the metric in its last
    digits only: seed 145 reads 4.1600742391878427, and 4.1600742391878418
    from axes built with libm cos and sin of the drawn angles.
    """
    radial = fams[0].radial
    times = np.array([0.2, 1.0, 3.0, 8.0]) / radial.omega_c
    estimates = _mc_pairs(radial, [fam.angular for fam in fams], rho0, times, cfg)
    z = [np.abs(mean - bloch_trajectory(fam, rho0, times)) / np.maximum(stderr, 1e-300)
         for fam, (mean, stderr) in zip(fams, estimates)]
    return float(np.max(z))


def check_extraction(fam, poles) -> float:
    """The batched generator split vs `aligned_generator`, every entry of h
    and K, away from poles, in units of omega_c (rates scale with it).

    A closed form that is NaN where the split is regular fails the check.
    """
    omega_c = fam.radial.omega_c
    times = pole_free_times(np.linspace(0.05, 6.0, 80) / omega_c, poles, margin=0.1 / omega_c)
    ok, h, k = _generators(fam, times)
    ref_h, ref_k = aligned_generator(fam, times[ok])
    worst = np.maximum(np.max(np.abs(h - ref_h), initial=0.0),
                       np.max(np.abs(k - ref_k), initial=0.0))
    return float(worst / omega_c)


def check_roundtrip(fam, poles, rho0) -> float:
    """Integrated master equation vs direct map application, up to 0.9 of the
    first pole or 4/omega_c."""
    t_end = 4.0 / fam.radial.omega_c
    if poles:
        t_end = min(0.9 * poles[0], t_end)
    t_eval = np.linspace(0.0, t_end, 21)
    bloch = integrate_master(lambda ts: bloch_generators(fam, ts), rho0, (0.0, t_end), t_eval)
    exact = bloch_trajectory(fam, rho0, t_eval)
    return float(np.max(0.5 * np.linalg.norm(bloch - exact, axis=1)))


def run_checks(rho0, cfg, omega_c: float = 1.0, asymmetry: float = DEFAULT_ASYMMETRY):
    """Run every check; returns one CheckResult per check, in THRESHOLDS order."""
    metrics = np.array([check_radial_quadrature(omega_c), 0.0, 0.0, 0.0])
    families = builtin_families(omega_c, asymmetry)
    # the families come radial model by radial model
    for _, group in groupby(families, key=lambda pair: pair[1].radial):
        metrics[1] = np.maximum(metrics[1], check_mc_vs_map([fam for _, fam in group], rho0, cfg))
    for _, fam in families:
        poles = pole_scan(fam, (1e-9 / omega_c, 6.0 / omega_c))
        metrics[2:] = np.maximum(metrics[2:], [check_extraction(fam, poles),
                                               check_roundtrip(fam, poles, rho0)])
    return [CheckResult(check, float(metric), threshold, bool(metric <= threshold))
            for (check, threshold), metric in zip(THRESHOLDS.items(), metrics)]
