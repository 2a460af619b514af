"""Time evolution of i d/dt psi = H psi on the periodic grid.

Both propagators use the bound R = sum_n max|h_n| k_max^n on the norm of the
grid operator.  A time-independent H is propagated exactly: each snapshot
interval tau applies the Chebyshev series exp(-i H tau) = sum_k c_k T_k(H/R)
(Tal-Ezer and Kosloff 1984), when that series is shorter than the 4 * stride
applications RK4 would spend.  Otherwise classic fourth-order Runge-Kutta
applies the operator at substep times, so time-dependent coefficients are
supported, and dt * R must respect the RK4 stability limit, checked at setup.
Norm drift is monitored at every snapshot on both paths and aborts the run
when it exceeds NORM_DRIFT_LIMIT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NormDriftError, StabilityError
from .grids import GridState, check_integer
from .operators import DifferentialOperator

# |dt * lambda| limit on the imaginary axis for classical RK4 (2*sqrt(2)).
RK4_STABILITY_LIMIT = 2.8
NORM_DRIFT_LIMIT = 1e-6
# At 0.5 ms per step (a 256-point 1D p^4 operator on a 2-vCPU host) this
# budget is over 8 minutes; a larger count means a grid too fine for RK4.
# It counts schedule steps on both propagators.
MAX_RK4_STEPS = 10**6
# Chebyshev terms below this magnitude end the series; the FFT that computes
# the coefficients has a noise floor near 1e-16.
CHEBYSHEV_CUTOFF = 1e-15


@dataclass(frozen=True)
class EvolutionSpec:
    """Time-stepping parameters; `stride` is the snapshot cadence in steps."""

    dt: float
    steps: int
    stride: int = 1

    def __post_init__(self):
        if not 0 < self.dt < float("inf"):
            raise ValueError("dt must be positive and finite")
        if check_integer(self.steps, "steps") < 1:
            raise ValueError("steps must be >= 1")
        if check_integer(self.stride, "stride") < 1:
            raise ValueError("stride must be >= 1")


def _check_dt(dt: float, radius: float) -> float:
    product = dt * radius
    if product > RK4_STABILITY_LIMIT:
        raise StabilityError(
            f"dt * spectral-radius estimate = {product:.3f} exceeds the RK4 limit "
            f"{RK4_STABILITY_LIMIT}; reduce dt below {RK4_STABILITY_LIMIT / radius:.3e}"
        )
    return product


def chebyshev_coefficients(a: float) -> np.ndarray:
    """c_k = (2 - delta_k0) (-i)^k J_k(a), so that exp(-i a x) = sum_k c_k T_k(x) on [-1, 1].

    By the Jacobi-Anger expansion exp(-i a cos th) = sum_k c_k cos(k th), so one
    FFT of samples in th gives every c_k.  The series ends before the first
    k > max(a, 1) with |c_k| < CHEBYSHEV_CUTOFF.
    """
    points = 2 ** math.ceil(math.log2(4 * a + 64))
    theta = 2.0 * np.pi * np.arange(points) / points
    coefficients = np.fft.fft(np.exp(-1j * a * np.cos(theta))) / points
    coefficients[1:] *= 2.0
    k = np.arange(points)
    stop = np.flatnonzero((k > max(a, 1.0)) & (np.abs(coefficients) < CHEBYSHEV_CUTOFF))[0]
    return coefficients[:stop]


def _chebyshev_series(applier, values: np.ndarray, coefficients: np.ndarray, radius: float, t: float):
    """sum_k c_k T_k(H/R) values by the recurrence T_k+1 = 2 (H/R) T_k - T_k-1."""
    previous, current = values, applier(values, t) / radius
    out = coefficients[0] * previous + coefficients[1] * current
    for c in coefficients[2:]:
        previous, current = current, (2.0 / radius) * applier(current, t) - previous
        out += c * current
    return out


def _snapshot_steps(spec: EvolutionSpec):
    yield from range(spec.stride, spec.steps + 1, spec.stride)
    if spec.steps % spec.stride:
        yield spec.steps


def evolve(H: DifferentialOperator, psi0: GridState, spec: EvolutionSpec) -> list[GridState]:
    """Propagate the state, returning snapshots every `stride` steps.

    The initial state and the final step are always included.  Each snapshot
    is an immutable copy stamped with its time psi0.t + step * dt.  A
    time-independent H takes the Chebyshev path when its series for one
    snapshot interval is shorter than 4 * stride; every other input takes RK4.
    """
    if spec.steps > MAX_RK4_STEPS:
        raise StabilityError(
            f"{spec.steps} RK4 steps exceed MAX_RK4_STEPS = {MAX_RK4_STEPS}; "
            "coarsen the grid or shorten the run"
        )
    applier = H.realize(psi0.grid)
    radius = applier.spectral_radius(psi0.t)
    exact = radius > 0 and not H.is_time_dependent()
    series = chebyshev_coefficients(radius * spec.stride * spec.dt) if exact else None
    if series is None or len(series) >= 4 * spec.stride:
        series = None
        _check_dt(spec.dt, radius)

    def rhs(values: np.ndarray, t: float) -> np.ndarray:
        return -1j * applier(values, t)

    norm0 = psi0.norm_sq()
    if norm0 == 0:
        raise NormDriftError("cannot evolve the zero state")
    snapshots = [psi0.copy()]
    values = psi0.values.copy()
    dt = spec.dt
    start = 0
    for stop in _snapshot_steps(spec):
        if series is None:
            for step in range(start, stop):
                t = psi0.t + step * dt
                k1 = rhs(values, t)
                k2 = rhs(values + 0.5 * dt * k1, t + 0.5 * dt)
                k3 = rhs(values + 0.5 * dt * k2, t + 0.5 * dt)
                k4 = rhs(values + dt * k3, t + dt)
                values = values + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        else:
            last = stop - start != spec.stride
            interval = chebyshev_coefficients(radius * (stop - start) * dt) if last else series
            values = _chebyshev_series(applier, values, interval, radius, psi0.t)
        start = stop
        t = psi0.t + stop * dt
        drift = abs(float(np.sum(np.abs(values) ** 2) * psi0.grid.cell_volume) - norm0) / norm0
        if not drift <= NORM_DRIFT_LIMIT:  # also catches a series that overflowed to inf or nan
            raise NormDriftError(
                f"norm drift {drift:.3e} at t={t:.6g} exceeds {NORM_DRIFT_LIMIT:.0e}; "
                "the state is under-resolved or dt is too large"
            )
        snapshots.append(GridState(psi0.grid, values.copy(), t))
    return snapshots


def norm_drift(snapshots: list[GridState]) -> list[float]:
    """Relative norm drift of each snapshot against the first."""
    norm0 = snapshots[0].norm_sq()
    return [abs(s.norm_sq() - norm0) / norm0 for s in snapshots]


def continuity_residual(snapshots: list[GridState], current_provider, normalized: bool = True) -> float:
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
