"""Probability currents and pilot-wave trajectories for arbitrary
differential-operator Hamiltonians on periodic grids.

The top level exports what the README's library example and the command
line use; everything else is imported from its module (`pilotwave.currents`,
`pilotwave.multiindex`, ...)."""

from .errors import (
    ExpressionSyntaxError,
    GridError,
    HamiltonianFormatError,
    NonHermitianError,
    PilotwaveError,
)
from .grids import Grid, GridState, check_length, check_points
from .operators import (
    DifferentialOperator,
    SamplingSpec,
    hermiticity_violations,
    hermitize,
    load_hamiltonian,
    require_hermitian,
)
from .states import build_state, parse_state_spec
from .currents import derive_current_table, eval_current
from .epstein import nonlocal_current
from .solver import EvolutionSpec, default_stride, evolve, norm_drift
from .trajectories import check_count, equivariance_test, integrate_trajectories, sample_density

__version__ = "0.1.0"

__all__ = [
    "ExpressionSyntaxError",
    "GridError",
    "HamiltonianFormatError",
    "NonHermitianError",
    "PilotwaveError",
    "Grid",
    "GridState",
    "check_length",
    "check_points",
    "DifferentialOperator",
    "SamplingSpec",
    "hermiticity_violations",
    "hermitize",
    "load_hamiltonian",
    "require_hermitian",
    "build_state",
    "parse_state_spec",
    "derive_current_table",
    "eval_current",
    "nonlocal_current",
    "EvolutionSpec",
    "default_stride",
    "evolve",
    "norm_drift",
    "check_count",
    "equivariance_test",
    "integrate_trajectories",
    "sample_density",
    "__version__",
]
