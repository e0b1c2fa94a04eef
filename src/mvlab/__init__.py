"""Simulation laboratory for mean-field SDEs, nonlinear Fokker-Planck
equations, and their lifted Markov dynamics on measure space.

Submodules:

- ``measures``: empirical measures, grid densities, Wasserstein distances,
  KDE, cylindrical functions and their intrinsic gradients
- ``coefficients``: coefficient families (mean-field OU, density-dependent
  diffusion with confining drift, heat) and hypothesis checks
- ``fpe``: conservative finite-volume solver for the nonlinear equation and
  its frozen linearization
- ``particles``: interacting-particle Euler-Maruyama simulation
- ``lifted``: kernel on pair space, measure generator, Chapman-Kolmogorov
  residuals
- ``ergodicity``: invariant measures and the two-rate decay envelope
- ``feynman_kac``: probabilistic representation of backward equations on
  pair space
- ``plotting``: deterministic SVG artifacts
- ``cli``: experiment runner
"""

from .coefficients import (
    CoefficientSet,
    MonotonicityConstants,
    NLDBMParams,
    canonical_confining_potential,
    heat_coefficients,
    meanfield_ou_coefficients,
    nldbm_coefficients,
    validate_hypotheses,
)
from .ergodicity import ErgodicityReport, decay_envelope, decay_study, find_invariant
from .feynman_kac import FKEstimate, FKProblem, fk_evaluate, l_derivative_fd, pde_residual
from .fpe import (
    DensityPath,
    SolverConfig,
    fpe_weak_residual,
    solve_frozen_fpe,
    solve_nonlinear_fpe,
    total_clipped_mass,
)
from .lifted import (
    LiftedTestFunction,
    ProductLaw,
    apply_lifted_generator,
    apply_measure_generator,
    chapman_kolmogorov_residual,
    kernel_evaluate,
    kernel_law,
)
from .measures import (
    CylindricalFunction,
    EmpiricalMeasure,
    GridDensity1D,
    InnerTest,
    intrinsic_gradient,
    kde_density,
    pushforward,
    sample_density,
    w2_gaussian_1d,
    w2_to_quantile,
    wasserstein2,
)
from .particles import (
    KDESpec,
    PathEnsemble,
    SimConfig,
    simulate_frozen,
    simulate_lifted,
    simulate_mckean_vlasov,
)

__version__ = "0.1.0"
