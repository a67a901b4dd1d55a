"""Qubit decoherence from structurally disordered ensembles of su(2) Hamiltonians.

Build a separable distribution over Hamiltonian directions and frequencies,
evaluate the exact ensemble-averaged Bloch map, extract the time-local
generator (decay rates, effective level spacing, Kossakowski matrix), and
cross-check everything against an independent Monte-Carlo sampler and the
master-equation integrator.
"""

from .quadrature import QuadratureError
from .radial import (ExponentialCutoffRadial, GaussianRadial, RadialModel,
                     ReciprocalSquareRadial, TabulatedRadial, expectation_quadrature)
from .angular import (AngularModel, BagelAngular, CardioidAngular, DirectionalMoments,
                      DumbbellAngular, KneadedCardioidAngular, SphereAngular,
                      TabulatedAngular, directional_moments_quadrature)
from .dynmap import (DensityMatrix, MapFamily, bloch_trajectory, choi_check, map_matrices,
                     purity_trajectory)
from .generator import (PoleError, RateTrajectory, aligned_generator, bloch_generators,
                        extract_generator, offdiagonal_rate, pole_scan, rate_trajectory)
from .montecarlo import SamplerConfig, mc_average, mc_trajectory, sample_angular, sample_radial
from .propagation import IntegrationError, integrate_master
from .config import ConfigError, RunConfig, load_angular_table, load_config, load_radial_table
from .validation import CheckResult, run_checks

__version__ = "0.1.0"

__all__ = [
    "DensityMatrix", "QuadratureError", "RadialModel", "GaussianRadial",
    "ExponentialCutoffRadial", "ReciprocalSquareRadial", "TabulatedRadial",
    "expectation_quadrature", "AngularModel", "SphereAngular", "BagelAngular",
    "DumbbellAngular", "CardioidAngular", "KneadedCardioidAngular", "TabulatedAngular",
    "DirectionalMoments", "directional_moments_quadrature",
    "load_radial_table", "load_angular_table", "MapFamily",
    "map_matrices", "purity_trajectory", "bloch_trajectory", "choi_check",
    "PoleError", "RateTrajectory", "aligned_generator", "offdiagonal_rate",
    "extract_generator", "bloch_generators",
    "pole_scan", "rate_trajectory",
    "SamplerConfig", "mc_average", "mc_trajectory", "sample_radial", "sample_angular",
    "IntegrationError", "integrate_master",
    "ConfigError", "RunConfig", "load_config", "CheckResult", "run_checks",
]
