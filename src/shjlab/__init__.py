"""Numerical laboratory for stochastic Hamilton-Jacobi equations.

Controlled random ODEs driven by one Brownian path family, dynamic
programming on box lattices, regression Monte Carlo conditional
expectations, backward SDE solvers, and one-sided viscosity-residual
checks with mollified coefficient ladders and envelope constructions.
"""

from .exceptions import AccuracyError, CapacityError, IntegrationError
from .probspace import (CondExpOperator, PathSlice, TimeGrid, WienerEnsemble,
                        polynomial_basis, sample_ensemble, subset_paths)
from .coeffs import (CoefficientSet, control_grid, probe_lattice, reach_radius,
                     scenario, scenario_names)
from .smoothing import (ApproximationErrors, FunctionalApproximant,
                        MollifiedSet, bump_kernel, error_processes,
                        fit_functional_approximant, kernel_quadrature,
                        linear_growth_penalty)
from .dynamics import StateTrajectoryBatch, flow_audit, integrate
from .valuefn import BoxLattice, ControlPolicy, ValueSurface, value_V, value_audit
from .fields import AdaptedField, reconstruction_report, sample_adapted_field
from .bsde import (BsdeSolution, BsdeSpec, backward_knots, cost_majorant,
                   error_bound_bsde, policy_cost_surface, solve_bsde)
from .viscosity import (EnvelopePair, HjbFdSolution, build_envelopes,
                        estimate_decomposition, hamiltonian, residual_check,
                        sandwich_report, solve_hjb_fd_1d)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "AccuracyError", "CapacityError", "IntegrationError",
    # probability space
    "TimeGrid", "WienerEnsemble", "PathSlice", "CondExpOperator",
    "sample_ensemble", "subset_paths", "polynomial_basis",
    # problem data
    "CoefficientSet", "scenario", "scenario_names",
    "control_grid", "reach_radius", "probe_lattice",
    # smoothing and approximants
    "bump_kernel", "kernel_quadrature", "MollifiedSet",
    "linear_growth_penalty", "ApproximationErrors", "error_processes",
    "FunctionalApproximant", "fit_functional_approximant",
    # dynamics and value functions
    "StateTrajectoryBatch", "integrate", "flow_audit",
    "BoxLattice", "ControlPolicy", "ValueSurface", "value_V", "value_audit",
    # adapted fields and BSDEs
    "AdaptedField", "sample_adapted_field", "reconstruction_report",
    "BsdeSpec", "BsdeSolution", "solve_bsde", "error_bound_bsde",
    "backward_knots", "policy_cost_surface", "cost_majorant",
    # viscosity layer
    "hamiltonian", "estimate_decomposition", "residual_check",
    "EnvelopePair", "build_envelopes", "sandwich_report",
    "HjbFdSolution", "solve_hjb_fd_1d",
]
