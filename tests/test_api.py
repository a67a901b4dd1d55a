"""Public surface: what `hamens` exports, and constructors that compute nothing."""

import hamens
from hamens import (BagelAngular, CardioidAngular, DumbbellAngular, ExponentialCutoffRadial,
                    GaussianRadial, KneadedCardioidAngular, MapFamily, ReciprocalSquareRadial,
                    SeparableEnsemble, SphereAngular)

#: names the package no longer exports
REMOVED = ("UnitVector", "MemberHamiltonian", "unitary_at", "evolve_single", "purity", "apply",
           "f_component", "choi_matrix", "trace_distance")


def test_every_export_resolves_once():
    assert len(hamens.__all__) == len(set(hamens.__all__))
    for name in hamens.__all__:
        assert hasattr(hamens, name), name
    for name in REMOVED:
        assert not hasattr(hamens, name), name


def test_builtin_constructors_run_no_quadrature(monkeypatch):
    from hamens import angular, quadrature, radial

    def forbidden(*args, **kwargs):
        raise AssertionError("a constructor ran quadrature")

    for module, name in ((quadrature, "panel_integrate"), (radial, "panel_integrate"),
                         (quadrature, "sphere_integral"), (angular, "sphere_integral")):
        monkeypatch.setattr(module, name, forbidden)
    angulars = [SphereAngular(), BagelAngular(), DumbbellAngular(), CardioidAngular()]
    angulars += [KneadedCardioidAngular(a) for a in (0.0, 0.3, 0.5, 0.71, 1.0)]
    for omega_c in (0.5, 1.0, 3.0):
        for radial_model in (GaussianRadial(omega_c), ExponentialCutoffRadial(omega_c),
                             ReciprocalSquareRadial(omega_c)):
            for angular_model in angulars:
                MapFamily.from_ensemble(SeparableEnsemble(radial_model, angular_model))
