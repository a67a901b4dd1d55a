"""Public surface: what `hamens` exports, constructors that compute nothing,
and the benchmark tracer that wraps the package from outside."""

import ast
import dataclasses
import importlib.util
import inspect
import os
import subprocess
import sys

import hamens
from hamens import (AngularModel, BagelAngular, CardioidAngular, DumbbellAngular,
                    ExponentialCutoffRadial, GaussianRadial, KneadedCardioidAngular, MapFamily,
                    PoleError, RadialModel, RateTrajectory, ReciprocalSquareRadial, RunConfig,
                    SphereAngular, TabulatedAngular, TabulatedRadial, angular, config, dynmap,
                    generator, montecarlo, pole_scan, propagation, quadrature, radial, validation)
from hamens.cli import build_parser

from conftest import random_table

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: names the package no longer exports, nor the classes and modules that held them
REMOVED = ("UnitVector", "MemberHamiltonian", "unitary_at", "evolve_single", "purity", "apply",
           "f_component", "choi_matrix", "trace_distance",
           "cos_expectation", "sin_expectation", "dcos_expectation", "dsin_expectation",
           "mean_omega", "BlochAffineMap", "map_at", "diagonal_derivatives", "_denominators",
           "divisibility_flags", "short_time_positive_window", "kossakowski_eigenvalues",
           "LindbladGenerator", "_require", "builtin_poles", "builtin_angulars", "_result",
           "_quadrature", "_integrate", "expectation", "_scalarize", "MCEstimate",
           "_tabulated_radial_quantile", "segment_cubics", "SeparableEnsemble", "build_ensemble",
           "scan_parameter", "build_radial", "build_angular", "StateTrajectory", "MAX_CHUNK",
           "_positive_cutoff", "_panel_values", "_UNIT_CROSS", "first_moment", "second_moment",
           "directional_moments", "isotropic_rate", "anisotropic_rates", "azimuthal_generator")


def test_every_export_resolves_once():
    assert len(hamens.__all__) == len(set(hamens.__all__))
    for name in hamens.__all__:
        assert hasattr(hamens, name), name
    holders = (hamens, angular, config, dynmap, generator, montecarlo, propagation, quadrature,
               radial, validation, RadialModel, GaussianRadial, ExponentialCutoffRadial,
               ReciprocalSquareRadial, TabulatedRadial, AngularModel, SphereAngular, BagelAngular,
               DumbbellAngular, CardioidAngular, KneadedCardioidAngular, TabulatedAngular,
               RunConfig)
    for name in REMOVED:
        for holder in holders:
            assert not hasattr(holder, name), (holder, name)
    # the base class keeps the weight and its support; each model has its own exact forms
    assert "mass" not in vars(RadialModel) and "expectations" not in vars(RadialModel)
    # an angular model states its exact moments in one method that takes nothing
    assert list(inspect.signature(AngularModel.moments).parameters) == ["self"]
    assert list(inspect.signature(pole_scan).parameters) == ["fam", "window"]
    # the closed form takes any shape of t and marks poles with NaN, with no scalar route
    assert list(inspect.signature(generator._guard).parameters) == ["denominator"]
    assert "derivative" not in inspect.signature(dynmap.diagonal_components).parameters
    assert "denominator" not in inspect.signature(PoleError).parameters
    assert not hasattr(PoleError("map not invertible"), "denominator")
    # a rate trajectory holds what its readers use, not its time grid
    assert [f.name for f in dataclasses.fields(RateTrajectory)] == ["rates", "poles"]


def test_folded_modules_are_gone():
    # the Bloch-vector state lives with the map that acts on it, and the
    # model registries and table loaders with the config that names them
    for name in ("hamens.su2", "hamens.ensemble"):
        assert importlib.util.find_spec(name) is None, name
    assert hamens.DensityMatrix is dynmap.DensityMatrix
    assert hamens.load_radial_table is config.load_radial_table
    assert hamens.load_angular_table is config.load_angular_table


def test_monte_carlo_surface():
    # bench/tracer.py wraps these by name and passes their arguments on;
    # mc_average's first argument is a MapFamily
    signatures = {montecarlo.mc_average: ["fam", "rho0", "t", "cfg"],
                  montecarlo.mc_trajectory: ["fam", "rho0", "times", "cfg"],
                  montecarlo.sample_radial: ["model", "rng", "size"],
                  montecarlo.sample_angular: ["model", "rng", "size"],
                  validation.check_mc_vs_map: ["fams", "rho0", "cfg"]}
    for fn, parameters in signatures.items():
        assert list(inspect.signature(fn).parameters) == parameters, fn.__name__
    # the chunk size is fixed: a seed and a sample count pin the estimate
    assert [f.name for f in dataclasses.fields(montecarlo.SamplerConfig)] == ["seed", "n_samples"]
    # the integrator reports the times it is given, and has no default for them
    t_eval = inspect.signature(propagation.integrate_master).parameters["t_eval"]
    assert t_eval.default is inspect.Parameter.empty
    # axes come as rows, (3, n), for every kind
    for model in (SphereAngular(), BagelAngular(), DumbbellAngular(), CardioidAngular(),
                  KneadedCardioidAngular(0.3), random_table(45, 4, 5)):
        assert montecarlo.sample_angular(model, montecarlo.chunk_stream(1, 0), 5).shape == (3, 5)


def test_one_family_object():
    # one frozen object holds both models and the moments; the tracer
    # wraps the classmethod from_ensemble and RunConfig.build_family by name
    fam = MapFamily.from_ensemble(GaussianRadial(), CardioidAngular())
    assert list(inspect.signature(MapFamily.from_ensemble).parameters) == ["radial", "angular"]
    assert isinstance(vars(MapFamily)["from_ensemble"], classmethod)
    assert [f.name for f in dataclasses.fields(fam)] == ["radial", "angular", "moments"]
    assert list(inspect.signature(RunConfig.build_family).parameters) == ["self", "asymmetry"]
    assert sorted(config.RADIAL_KINDS) == ["exp-cutoff", "gaussian", "reciprocal-square"]


def test_each_command_takes_only_the_options_it_reads():
    # only validate draws samples, so only validate takes --seed and --samples
    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    options = {name: sorted(flag for action in cmd._actions if action.dest != "help"
                            for flag in action.option_strings)
               for name, cmd in commands.items()}
    plain = ["--config", "--out"]
    assert options == {"moments": plain, "simulate": plain, "rates": plain,
                       "validate": ["--config", "--out", "--samples", "--seed"], "scan": plain}


def test_builtin_constructors_run_no_quadrature(monkeypatch):
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
                MapFamily.from_ensemble(radial_model, angular_model)


def test_bench_tracer_installs_on_the_package():
    # bench/tracer.py wraps hamens functions by name; a deletion it still
    # names must fail here, not only inside a traced benchmark run
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from tracer import Tracer, install; install(Tracer())")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code, os.path.join(ROOT, "bench")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_names_no_closed_form_and_the_split_inverts_by_hand():
    # the closed forms are oracles of validation and the tests, and the split
    # inverts M by its adjugate, with no LAPACK inverse or determinant
    with open(os.path.join(ROOT, "src", "hamens", "cli.py")) as handle:
        cli = ast.parse(handle.read())
    names = {node.id for node in ast.walk(cli) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(cli) if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(cli) if isinstance(node, (ast.Import, ast.ImportFrom))
              for alias in node.names}
    assert not names & {"aligned_generator", "offdiagonal_rate", "diagonal_components"}
    assert [[alias.name for alias in node.names] for node in ast.walk(cli)
            if isinstance(node, ast.ImportFrom) and node.module == "generator"] == [["rate_trajectory"]]
    with open(os.path.join(ROOT, "src", "hamens", "generator.py")) as handle:
        split = ast.parse(handle.read())
    calls = {ast.unparse(node.func) for node in ast.walk(split) if isinstance(node, ast.Call)}
    assert not calls & {"np.linalg.inv", "np.linalg.det", "numpy.linalg.inv", "numpy.linalg.det"}


def test_cli_import_leaves_out_dop853_and_numpy_polynomial():
    # the collocation tableau is built on first use, so only a run that
    # integrates loads numpy.polynomial (7 ms); the DOP853 stepper is gone
    code = ("import importlib.util, sys, hamens.cli; "
            "print(importlib.util.find_spec('hamens.dop853'), 'numpy.polynomial' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["None", "False"]
