"""Time evolution of i d/dt psi = H psi on the periodic grid, and the schedule it runs.

Three propagators, one chosen per run by `_plan`.  For a time-independent H
each snapshot interval tau can apply the Chebyshev series exp(-i H tau) =
e^(-i c tau) sum_k c_k T_k((H - c)/h) (Tal-Ezer and Kosloff 1984), where
[c - h, c + h] is the operator's spectral interval; a constant H (h = 0) is
the phase e^(-i c tau) alone.  Classic fourth-order Runge-Kutta supports
time-dependent coefficients, and dt * R must respect its stability limit,
where R = sum_n max|h_n| k_max^n bounds the norm of the grid operator.  On a
small grid a Hermitian grid matrix with constant-coefficient derivatives is
diagonalized once (the Fourier grid Hamiltonian, Marston and Balint-Kurti
1989) and every snapshot is U exp(-i lambda t) U^dagger psi0; a phase
lambda t is off by up to R t 2^-52 radians, and the path refuses a run whose
span T gives R T 2^-52 above NORM_DRIFT_LIMIT.  Norm drift aborts the run
when it exceeds NORM_DRIFT_LIMIT at any snapshot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ._numpy import np

from .errors import NormDriftError, StabilityError
from .grids import GridState, check_integer
from .operators import DifferentialOperator

# |dt * lambda| limit on the imaginary axis for classical RK4 (2*sqrt(2)).
RK4_STABILITY_LIMIT = 2.8
NORM_DRIFT_LIMIT = 1e-6
# At 0.5 ms per step (a 256-point 1D p^4 operator on a 2-vCPU host) this
# budget is over 8 minutes; a larger count means a grid too fine for RK4.  It
# counts steps on the RK4 and Chebyshev paths and snapshot intervals on the
# dense path, where a schedule the program chooses has one step per interval.
MAX_RK4_STEPS = 10**6
# The dense path's grid limit.  With single-threaded OpenBLAS on a 2-core x86
# host, eigh of a complex grid matrix takes 28 ms at 256 points, 0.24 s at 512
# and 1.7 s at 1,024: about 500, 3,700 and 33,000 applications of a 1D p^4
# operator, against the N^2 / 32 = 2,048, 8,192 and 32,768 the path requires.
# A real symmetric matrix takes a sixth of that or less.
MAX_DENSE_POINTS = 1024
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


def _relative_drift(norm_sq: float, norm0: float) -> float:
    return abs(norm_sq - norm0) / norm0


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


def _propagate(applier, values: np.ndarray, coefficients: np.ndarray, center: float,
               half_width: float, tau: float, t: float) -> np.ndarray:
    """exp(-i H tau) values = e^(-i c tau) sum_k c_k T_k(X) values with X = (H - c)/h, by the
    recurrence T_k+1 = 2 X T_k - T_k-1; the c_k are chebyshev_coefficients(h tau)."""
    phase = np.exp(-1j * center * tau)
    if half_width == 0:
        return phase * values
    coefficients = phase * coefficients
    scale, shift = 1.0 / half_width, center / half_width
    previous, current = values, scale * applier(values, t) - shift * values
    out = coefficients[0] * previous + coefficients[1] * current
    for c in coefficients[2:]:
        previous, current = current, (2 * scale) * applier(current, t) - (2 * shift) * current - previous
        out += c * current
    return out


def _snapshot_steps(spec: EvolutionSpec):
    yield from range(spec.stride, spec.steps + 1, spec.stride)
    if spec.steps % spec.stride:
        yield spec.steps


def _matvec(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """matrix @ vector for a complex vector; a real matrix multiplies the real and imaginary parts
    as two columns instead of being cast to a complex copy."""
    if np.iscomplexobj(matrix):
        return matrix @ vector
    return (matrix @ vector.view(float).reshape(-1, 2)).view(complex).ravel()


def _plan(H: DifferentialOperator, psi0: GridState, spec: EvolutionSpec, radius: float):
    """(dense, chebyshev) for `spec` (stride <= steps) and R = `radius`: `evolve`'s path choice, also
    asked by `schedule`.  A time-independent H takes the Chebyshev series when it is shorter than RK4's
    4 * stride applications per interval; chebyshev is (center, half_width, series, last_series), or None.
    RK4 costs 4 per stable step, max(steps, ceil(steps dt R / RK4_STABILITY_LIMIT)), or 0 if R steps dt
    overflows.  The run is dense on at most MAX_DENSE_POINTS points N if the other path would apply H
    N^2 / 32 times or more, in at most MAX_RK4_STEPS snapshot intervals, and H is `diagonalizable`."""
    applier, dt = H.realize(psi0.grid), spec.dt
    full, last = divmod(spec.steps, spec.stride)
    points = psi0.values.size
    eligible = points <= MAX_DENSE_POINTS and full + (last > 0) <= MAX_RK4_STEPS and applier.diagonalizable()
    chebyshev = None
    stable_steps = spec.steps * (dt * radius / RK4_STABILITY_LIMIT)
    applications = 4 * max(spec.steps, math.ceil(stable_steps)) if radius * spec.steps * dt < math.inf else 0
    # A series for h tau has more than h tau terms: none is built at h dt >= 4, where RK4's 4 * stride wins,
    # or once RK4 and h dt steps both reach N^2 / 32, where every path is dense, or above MAX_RK4_STEPS.
    if not H.is_time_dependent() and spec.steps <= MAX_RK4_STEPS:
        low, high = applier.spectral_interval(psi0.t)
        center, half_width = (low + high) / 2, (high - low) / 2
        if eligible and min(applications, half_width * dt * spec.steps) >= points**2 / 32:
            return True, None
        if half_width * dt < 4:
            series = chebyshev_coefficients(half_width * spec.stride * dt)
            if len(series) < 4 * spec.stride:
                last_series = chebyshev_coefficients(half_width * last * dt) if last else series
                applications = full * len(series) + (len(last_series) if last else 0)
                chebyshev = center, half_width, series, last_series
    return eligible and applications >= points**2 / 32, chebyshev


def schedule(H: DifferentialOperator, psi0: GridState, *, steps: int | None = None, dt: float | None = None,
             stride: int | None = None, horizon: float | None = None) -> EvolutionSpec:
    """The EvolutionSpec of a command's schedule flags, R being H's spectral-radius bound at psi0.t:
    flags left out are 1000 steps, dt = min(1e-3, 1/R) and stride max(1, steps // 100).  A horizon T
    takes no flag: the 100 equally spaced snapshot times of (0, T] when `evolve` would diagonalize
    them, one step each; else max(100, ceil(T R)) steps of T / steps, stride max(1, steps // 100)."""
    if horizon is not None and (steps, dt, stride) != (None, None, None):
        raise ValueError("a horizon schedule takes no steps, dt or stride")
    radius = H.realize(psi0.grid).spectral_radius(psi0.t) if dt is None else None
    if horizon is not None:
        snapshots = EvolutionSpec(dt=horizon / 100, steps=100)
        if _plan(H, psi0, snapshots, radius)[0]:
            return snapshots
        steps = max(100, math.ceil(horizon / (1.0 / radius if radius > 0 else horizon / 100.0)))
        dt = horizon / steps
    elif dt is None:
        dt = min(1e-3, 1.0 / radius) if radius > 0 else 1e-3
    steps = 1000 if steps is None else steps
    return EvolutionSpec(dt=dt, steps=steps, stride=max(1, steps // 100) if stride is None else stride)


def evolve(H: DifferentialOperator, psi0: GridState, spec: EvolutionSpec,
           on_snapshot=None) -> list[GridState]:
    """Propagate the state, returning snapshots every `stride` steps.

    The initial state and the final step are always included.  Each snapshot is an immutable copy
    stamped with its time psi0.t + step * dt; a stride above steps runs as stride = steps.  R is
    computed once, for `_plan`'s path choice and RK4's stability limit.  `on_snapshot(snapshot)`,
    when given, is called with each snapshot as it is taken, after the setup checks and after that
    snapshot's norm check, so a run that fails has handed over every snapshot it reached.
    """
    applier = H.realize(psi0.grid)
    dt = spec.dt
    # a stride above steps is the same run as stride = steps: snapshots at 0 and at steps
    spec = replace(spec, stride=min(spec.stride, spec.steps))
    radius = applier.spectral_radius(psi0.t)
    dense, chebyshev = _plan(H, psi0, spec, radius)
    if dense:
        # the unitary path keeps the norm, so lost phase digits would show no drift
        phase_error = radius * spec.steps * dt * 2.0**-52
        if not phase_error <= NORM_DRIFT_LIMIT:
            raise StabilityError(
                f"phases exp(-i lambda t) to t = {spec.steps * dt:.6g} are off by up to R t 2^-52 = "
                f"{phase_error:.3e} rad, above NORM_DRIFT_LIMIT = {NORM_DRIFT_LIMIT:.0e}; shorten the run"
            )
        energies, vectors = applier.eigh()
        amplitudes = _matvec(vectors.T, psi0.values.ravel().conj()).conj()
    elif spec.steps > MAX_RK4_STEPS:
        raise StabilityError(
            f"{spec.steps} RK4 steps exceed MAX_RK4_STEPS = {MAX_RK4_STEPS}; "
            "coarsen the grid or shorten the run"
        )
    elif chebyshev is None:
        _check_dt(dt, radius)
    else:
        center, half_width, series, last_series = chebyshev

    def rhs(values: np.ndarray, t: float) -> np.ndarray:
        return -1j * applier(values, t)

    norm0 = psi0.norm_sq()
    if norm0 == 0:
        raise NormDriftError("cannot evolve the zero state")
    snapshots = []

    def take(snapshot: GridState) -> None:
        snapshots.append(snapshot)
        if on_snapshot is not None:
            on_snapshot(snapshot)

    take(psi0.copy())
    values = psi0.values.copy()
    start = 0
    for stop in _snapshot_steps(spec):
        if dense:
            phases = np.exp(-1j * energies * (stop * dt))
            values = _matvec(vectors, phases * amplitudes).reshape(psi0.grid.shape)
        elif chebyshev is None:
            for step in range(start, stop):
                t = psi0.t + step * dt
                k1 = rhs(values, t)
                k2 = rhs(values + 0.5 * dt * k1, t + 0.5 * dt)
                k3 = rhs(values + 0.5 * dt * k2, t + 0.5 * dt)
                k4 = rhs(values + dt * k3, t + dt)
                values = values + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        else:
            interval = series if stop - start == spec.stride else last_series
            values = _propagate(applier, values, interval, center, half_width, (stop - start) * dt, psi0.t)
        start = stop
        t = psi0.t + stop * dt
        drift = _relative_drift(float(np.sum(np.abs(values) ** 2) * psi0.grid.cell_volume), norm0)
        if not drift <= NORM_DRIFT_LIMIT:  # also catches a series that overflowed to inf or nan
            raise NormDriftError(
                f"norm drift {drift:.3e} at t={t:.6g} exceeds {NORM_DRIFT_LIMIT:.0e}; "
                "the state is under-resolved or dt is too large"
            )
        take(GridState(psi0.grid, values.copy(), t))
    return snapshots


def norm_drift(snapshots: list[GridState]) -> list[float]:
    """Relative norm drift of each snapshot against the first."""
    norm0 = snapshots[0].norm_sq()
    return [_relative_drift(s.norm_sq(), norm0) for s in snapshots]
