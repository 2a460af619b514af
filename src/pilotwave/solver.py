"""Explicit time evolution of i d/dt psi = H psi on the periodic grid.

Classic fourth-order Runge-Kutta stepping with the operator applied
spectrally at substep times, so time-dependent coefficients are supported.
Explicit stepping keeps the scheme independent of any per-Hamiltonian
structure; in exchange the time step must respect the spectral-radius bound
estimated from sum_n max|h_n| k_max^n, which is checked at setup.  Norm
drift is monitored at every snapshot and aborts the run when it exceeds
NORM_DRIFT_LIMIT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NormDriftError, StabilityError
from .grids import Grid, GridState
from .operators import DifferentialOperator

# |dt * lambda| limit on the imaginary axis for classical RK4 (2*sqrt(2)).
RK4_STABILITY_LIMIT = 2.8
NORM_DRIFT_LIMIT = 1e-6
# At 0.5 ms per step (a 256-point 1D p^4 operator on a 2-vCPU host) this
# budget is over 8 minutes; a larger count means a grid too fine for RK4.
MAX_RK4_STEPS = 10**6


@dataclass(frozen=True)
class EvolutionSpec:
    """Time-stepping parameters; `stride` is the snapshot cadence in steps."""

    dt: float
    steps: int
    stride: int = 1

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")


def stability_estimate(H: DifferentialOperator, grid: Grid, t: float = 0.0) -> float:
    """Conservative spectral-radius estimate sum_n max|h_n| prod_a k_max_a^n_a."""
    return H.realize(grid).spectral_radius(t)


def check_stability(H: DifferentialOperator, grid: Grid, spec: EvolutionSpec, t: float = 0.0) -> float:
    return _check_dt(spec.dt, stability_estimate(H, grid, t))


def _check_dt(dt: float, radius: float) -> float:
    product = dt * radius
    if product > RK4_STABILITY_LIMIT:
        raise StabilityError(
            f"dt * spectral-radius estimate = {product:.3f} exceeds the RK4 limit "
            f"{RK4_STABILITY_LIMIT}; reduce dt below {RK4_STABILITY_LIMIT / radius:.3e}"
        )
    return product


def evolve(H: DifferentialOperator, psi0: GridState, spec: EvolutionSpec) -> list[GridState]:
    """Integrate the state forward, returning snapshots every `stride` steps.

    The initial state and the final step are always included.  Each snapshot
    is an immutable copy stamped with its time.
    """
    if spec.steps > MAX_RK4_STEPS:
        raise StabilityError(
            f"{spec.steps} RK4 steps exceed MAX_RK4_STEPS = {MAX_RK4_STEPS}; "
            "coarsen the grid or shorten the run"
        )
    applier = H.realize(psi0.grid)
    _check_dt(spec.dt, applier.spectral_radius(psi0.t))

    def rhs(values: np.ndarray, t: float) -> np.ndarray:
        return -1j * applier(values, t)

    norm0 = psi0.norm_sq()
    if norm0 == 0:
        raise NormDriftError("cannot evolve the zero state")
    snapshots = [psi0.copy()]
    values = psi0.values.copy()
    t = psi0.t
    dt = spec.dt
    for step in range(1, spec.steps + 1):
        k1 = rhs(values, t)
        k2 = rhs(values + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = rhs(values + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = rhs(values + dt * k3, t + dt)
        values = values + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = psi0.t + step * dt
        if step % spec.stride == 0 or step == spec.steps:
            snapshot = GridState(psi0.grid, values.copy(), t)
            drift = abs(snapshot.norm_sq() - norm0) / norm0
            if drift > NORM_DRIFT_LIMIT:
                raise NormDriftError(
                    f"norm drift {drift:.3e} at t={t:.6g} exceeds {NORM_DRIFT_LIMIT:.0e}; "
                    "the state is under-resolved or dt is too large"
                )
            snapshots.append(snapshot)
    return snapshots


def norm_drift(snapshots: list[GridState]) -> list[float]:
    """Relative norm drift of each snapshot against the first."""
    norm0 = snapshots[0].norm_sq()
    return [abs(s.norm_sq() - norm0) / norm0 for s in snapshots]


def continuity_residual(
    H: DifferentialOperator,
    snapshots: list[GridState],
    current_provider,
    normalized: bool = True,
) -> float:
    """Defect of d/dt |psi|^2 + div j at the middle snapshot.

    The time derivative is a centered difference of the neighbouring
    snapshots; j comes from `current_provider(state)`.  With `normalized`
    the max-norm defect is divided by max |d/dt rho|; stationary states
    should be checked with normalized=False since the scale vanishes.
    """
    if len(snapshots) < 3:
        raise ValueError("need at least three consecutive snapshots")
    mid = len(snapshots) // 2
    before, middle, after = snapshots[mid - 1], snapshots[mid], snapshots[mid + 1]
    drho_dt = (after.density() - before.density()) / (after.t - before.t)
    div = current_provider(middle).divergence()
    residual = float(np.max(np.abs(drho_dt + div)))
    if not normalized:
        return residual
    scale = float(np.max(np.abs(drho_dt)))
    if scale == 0.0:
        return residual
    return residual / scale
