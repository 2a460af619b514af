"""Probability currents and pilot-wave trajectories for arbitrary
differential-operator Hamiltonians on periodic grids."""

from .multiindex import MultiIndex, binom_int, binom_multi
from .expr import CoefficientExpression, approx_equal, parse
from .grids import Grid, GridState
from .operators import (
    DifferentialOperator,
    HermitianOperator,
    SamplingSpec,
    adjoint,
    apply,
    hermitize,
    is_hermitian,
    load_hamiltonian,
    require_hermitian,
)
from .currents import (
    CurrentTable,
    VectorField,
    current_1d_integral,
    derive_current_table,
    eval_current,
    eval_current_direct,
    identity_residual,
    source_term,
)
from .epstein import green_function, nonlocal_current, poisson_solve
from .solver import EvolutionSpec, continuity_residual, evolve
from .trajectories import (
    Ensemble,
    equivariance_test,
    integrate_trajectories,
    sample_density,
    velocity,
)
from .altcurrents import born_jordan_current, compare_fields, second_order_current

__version__ = "0.1.0"

__all__ = [
    "MultiIndex",
    "binom_int",
    "binom_multi",
    "CoefficientExpression",
    "approx_equal",
    "parse",
    "Grid",
    "GridState",
    "DifferentialOperator",
    "HermitianOperator",
    "SamplingSpec",
    "adjoint",
    "apply",
    "hermitize",
    "is_hermitian",
    "load_hamiltonian",
    "require_hermitian",
    "CurrentTable",
    "VectorField",
    "current_1d_integral",
    "derive_current_table",
    "eval_current",
    "eval_current_direct",
    "identity_residual",
    "source_term",
    "green_function",
    "nonlocal_current",
    "poisson_solve",
    "EvolutionSpec",
    "continuity_residual",
    "evolve",
    "Ensemble",
    "equivariance_test",
    "integrate_trajectories",
    "sample_density",
    "velocity",
    "born_jordan_current",
    "compare_fields",
    "second_order_current",
    "__version__",
]
