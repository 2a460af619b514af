"""Guidance-equation trajectories, equilibrium sampling, equivariance.

The configuration moves with velocity j/|psi|^2.  The density and current
grids are interpolated in space by one periodic 4-point Lagrange stencil per
axis (`_corners`, fourth order, 4^N corners) and linearly in time between
PDE snapshots, and particles advance with classical RK4, by default one step
per snapshot interval: the spatial kernel, not the time step, sets the
error floor.  Near a node of psi (density below NODE_EPS times its maximum)
the velocity is singular and the particle is truncated — flagged and
frozen, never silently dropped and never velocity-capped, since capping
would quietly break equivariance.  The stencil can overshoot, so an
interpolated density next to a node can fall below the floor or below zero;
that particle is truncated too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ._numpy import np

from .currents import CurrentTable, derive_current_table, eval_current
from .errors import (
    DimensionMismatchError,
    PilotwaveError,
    TruncationError,
)
from .grids import Grid, GridState
from .operators import DifferentialOperator, require_hermitian
from .solver import evolve, schedule

NODE_EPS = 1e-10
MAX_TRUNCATED_FRACTION = 0.10
# Most particles in one ensemble.  simulate keeps every particle's position at
# each of about 100 snapshots and writes them as CSV rows, about 7 kB per
# particle in 1D, so this many take under 1 GB.
MAX_PARTICLES = 10**5
# RK4 steps per snapshot interval unless a caller asks for more (--substeps)
DEFAULT_SUBSTEPS = 1


# ---------------------------------------------------------------------------
# Periodic 4-point Lagrange interpolation

def _stencil_work(dim: int, count: int) -> tuple:
    """Work buffers of `_corners` for `count` points: each axis's 4 node
    indices and weights, the running corner index and weight past axis 0, and
    three scratch rows."""
    return (
        np.empty((dim, 4, count), dtype=np.intp),
        np.empty((dim, 4, count)),
        np.empty((dim - 1, count), dtype=np.intp),
        np.empty((dim - 1, count)),
        np.empty((3, count)),
    )


def _corners(grid: Grid, points: np.ndarray, work: tuple):
    """Yield the flat row-major index and the weight of each of the 4^N
    corners of the periodic 4-point Lagrange stencil around each point: the
    nodes at offsets -1, 0, 1, 2 from the point's cell on every axis.

    At a fraction f of its cell, with g = 1 - f and r = f g, an axis weighs
    its nodes r (f - 2) / 6, (1 + r / 2) g, (1 + r / 2) f and -r (f + 1) / 6.
    Corners come in row-major order of their offsets, and a corner's weight
    is the product of its axis weights, axis 0 first.  The yielded arrays
    are rows of `work` (from `_stencil_work`), overwritten by the next corner.
    """
    axis_index, axis_weight, index, weight, (f, r, s) = work
    offsets = np.arange(-1.0, 3.0).reshape(4, 1)
    for axis in range(grid.dim):
        np.divide(points[:, axis], grid.spacings[axis], out=f)
        np.floor(f, out=s)
        np.subtract(f, s, out=f)
        # axis lengths are powers of two (Grid checks), so & (n - 1) is mod n
        nodes = axis_index[axis]
        np.add(s, offsets, out=nodes, casting="unsafe")
        np.bitwise_and(nodes, grid.shape[axis] - 1, out=nodes)
        stride = math.prod(grid.shape[axis + 1 :])
        if stride > 1:
            np.multiply(nodes, stride, out=nodes)
        w = axis_weight[axis]
        g = np.subtract(1.0, f, out=w[1])
        np.multiply(f, g, out=r)
        half = np.add(np.multiply(r, 0.5, out=s), 1.0, out=s)  # 1 + r / 2
        np.multiply(half, g, out=w[1])
        np.multiply(half, f, out=w[2])
        np.divide(r, 6.0, out=r)
        np.multiply(r, np.subtract(f, 2.0, out=s), out=w[0])
        np.multiply(r, np.subtract(-1.0, f, out=s), out=w[3])
    for k in range(4):  # the first axis's rows as they are: no multiply by 1.0
        yield from _products(work, 1, axis_index[0, k], axis_weight[0, k])


def _products(work: tuple, axis: int, idx: np.ndarray, wt: np.ndarray):
    """The corners of `_corners` from `axis` on, after the running index and
    weight of the axes before it.  A module function, not a closure: a
    recursive closure is a reference cycle, and the buffers it holds would
    wait for the cycle collector."""
    axis_index, axis_weight, index, weight, _ = work
    if axis == len(axis_index):
        yield idx, wt
        return
    for k in range(4):
        yield from _products(work, axis + 1, np.add(idx, axis_index[axis, k], out=index[axis - 1]),
                             np.multiply(wt, axis_weight[axis, k], out=weight[axis - 1]))


def _finite_points(points) -> np.ndarray:
    """`points` as a float array of shape (M, N), refusing a non-finite coordinate."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if not np.isfinite(points).all():
        row = np.isfinite(points).all(axis=1).argmin()
        raise ValueError(f"coordinates must be finite, got {points[row].tolist()} in row {row}")
    return points


def interpolate(grid: Grid, values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Periodic 4-point Lagrange interpolation (`_corners`); points shape (M, N), finite."""
    points = _finite_points(points)
    if points.shape[1] != grid.dim:
        raise DimensionMismatchError(f"points have {points.shape[1]} coords, grid dim {grid.dim}")
    if np.shape(values) != grid.shape:
        raise DimensionMismatchError(f"values of shape {np.shape(values)} on a grid of shape {grid.shape}")
    flat = np.asarray(values).reshape(-1)
    out = np.zeros(points.shape[0], dtype=flat.dtype)
    for idx, weight in _corners(grid, points, _stencil_work(grid.dim, points.shape[0])):
        out = out + weight * flat[idx]
    return out


# ---------------------------------------------------------------------------
# Ensembles

@dataclass
class Ensemble:
    """Configuration-space points, with finite coordinates, and their recorded trajectory history."""

    positions: np.ndarray  # (M, N)
    times: list[float] = field(default_factory=list)
    history: list[np.ndarray] = field(default_factory=list)
    truncated: np.ndarray | None = None

    def __post_init__(self):
        self.positions = _finite_points(self.positions)
        if self.truncated is None:
            self.truncated = np.zeros(self.positions.shape[0], dtype=bool)
        if not self.times:
            self.times = [0.0]
            self.history = [self.positions.copy()]

    @property
    def count(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    def truncated_fraction(self) -> float:
        return float(np.mean(self.truncated))


def check_count(count: int) -> None:
    """Refuse a particle count below 1 or above MAX_PARTICLES."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > MAX_PARTICLES:
        raise PilotwaveError(f"{count} particles exceed MAX_PARTICLES = {MAX_PARTICLES}")


def sample_density(rho: np.ndarray, grid: Grid, count: int, seed: int) -> Ensemble:
    """Rejection sampling of the density interpolated by `interpolate`,
    clipped at 0.  On each axis the 4-point stencil's weights sum in absolute
    value to 1 + f (1 - f) <= 5/4, so the interpolant stays below 1.25^N times
    the grid maximum, and proposals are accepted under that ceiling."""
    check_count(count)
    rho = np.asarray(rho, dtype=float)
    if rho.shape != grid.shape:
        raise DimensionMismatchError("density shape does not match grid")
    peak = float(rho.max())
    if peak <= 0.0:
        raise PilotwaveError("density is identically zero")
    if rho.min() < -1e-12 * peak:
        raise PilotwaveError("density has negative values")
    rho = np.clip(rho, 0.0, None)
    rng = np.random.default_rng(seed)
    lengths = np.asarray(grid.lengths)
    accepted = np.empty((0, grid.dim))
    drawn = 0
    budget = max(10_000_000, 10_000 * count)
    while accepted.shape[0] < count:
        if drawn > budget:
            raise PilotwaveError(
                f"rejection sampler accepted only {accepted.shape[0]}/{count} "
                f"after {drawn} draws; density is too concentrated for this grid"
            )
        batch = max(1024, 2 * (count - accepted.shape[0]))
        drawn += batch
        proposals = rng.uniform(0.0, 1.0, (batch, grid.dim)) * lengths
        acceptance = rng.uniform(0.0, 1.25**grid.dim * peak, batch)
        keep = acceptance < interpolate(grid, rho, proposals)
        accepted = np.vstack([accepted, proposals[keep]])
    positions = accepted[:count]
    return Ensemble(positions)


class _FlowField:
    """Snapshot stack of rho and j, interpolated linearly in time and then in
    space by the 4-point stencil of `_corners`.

    `velocities` blends the two bracketing snapshots on the grid, in two
    buffers of the fields' shape, and gathers and sums that blend's corner
    values in two work buffers of shape (N + 1, M); the stencil keeps its
    per-axis indices and weights in the `_stencil_work` buffers.  The
    particle buffers are sized for the live count and reallocated only when
    that count changes, so a warm call allocates no per-corner array.
    Allocated per call, arrays above glibc's 128 KiB mmap threshold would be
    fresh zeroed pages at every RK4 stage.
    """

    def __init__(self, snapshots: list[GridState], table: CurrentTable):
        if len(snapshots) < 2:
            raise PilotwaveError("need at least two snapshots to integrate trajectories")
        self.grid = snapshots[0].grid
        self.times = np.array([s.t for s in snapshots])
        if np.any(np.diff(self.times) <= 0):
            raise PilotwaveError("snapshots must be strictly time-ordered")
        # fields[snapshot, field, point]: rho, then j_1 .. j_N, flattened row-major
        self.fields = np.empty((len(snapshots), self.grid.dim + 1, math.prod(self.grid.shape)))
        for s, snap in enumerate(snapshots):
            self.fields[s, 0] = snap.density().reshape(-1)
            for axis, component in enumerate(eval_current(table, snap).components, start=1):
                self.fields[s, axis] = component.reshape(-1)
        self.node_floor = NODE_EPS * float(self.fields[:, 0].max())
        self._blend, self._scaled = np.empty((2,) + self.fields.shape[1:])
        self._gathered = self._summed = np.empty((self.grid.dim + 1, 0))
        self._stencil = _stencil_work(self.grid.dim, 0)

    def velocities(self, points: np.ndarray, t: float, active: np.ndarray):
        """Velocities for the active subset; returns (velocities, node_mask)."""
        k = min(max(int(np.searchsorted(self.times, t, side="right")) - 1, 0), len(self.times) - 2)
        t0, t1 = self.times[k], self.times[k + 1]
        w = min(max(float((t - t0) / (t1 - t0)), 0.0), 1.0)
        # integrate_trajectories passes live particles only: no copy then
        pts = points if active.all() else points[active]
        if self._summed.shape[-1] != pts.shape[0]:
            self._gathered = np.empty((self.grid.dim + 1, pts.shape[0]))
            self._summed = np.empty_like(self._gathered)
            self._stencil = _stencil_work(self.grid.dim, pts.shape[0])
        blend, gathered, summed = self._blend, self._gathered, self._summed
        np.multiply(1.0 - w, self.fields[k], out=blend)
        blend += np.multiply(w, self.fields[k + 1], out=self._scaled)
        summed.fill(0.0)  # +0.0 first, as the per-field sum: a sum of -0.0 stays +0.0
        for idx, weight in _corners(self.grid, pts, self._stencil):
            # indices are in range by construction; mode="raise" would copy `out`
            blend.take(idx, axis=-1, out=gathered, mode="clip")
            np.add(summed, np.multiply(weight, gathered, out=gathered), out=summed)
        rho = summed[0]
        nodes = rho < self.node_floor
        vel = (summed[1:] / np.where(nodes, 1.0, rho)).T
        vel[nodes] = 0.0
        return vel, nodes


def integrate_trajectories(
    snapshots: list[GridState],
    table: CurrentTable,
    ensemble: Ensemble,
    substeps: int = DEFAULT_SUBSTEPS,
    record_history: bool = True,
) -> Ensemble:
    """RK4 integration of dq/dt = j/|psi|^2 across the snapshot window.

    Particles that enter a node region are truncated: frozen at their last
    position and flagged.  Raises when every particle is truncated.  With
    `record_history` the positions are recorded at every snapshot time;
    without it the returned history holds only the final positions.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    flow = _FlowField(snapshots, table)
    if ensemble.dim != flow.grid.dim:
        raise DimensionMismatchError("ensemble dimension does not match snapshots")
    lengths = np.asarray(flow.grid.lengths)
    positions = np.mod(ensemble.positions.copy(), lengths)
    truncated = ensemble.truncated.copy()
    times = [float(flow.times[0])]
    history = [positions.copy()]

    for k in range(len(flow.times) - 1):
        t0, t1 = float(flow.times[k]), float(flow.times[k + 1])
        dt = (t1 - t0) / substeps
        for sub in range(substeps):
            t = t0 + sub * dt
            live = np.flatnonzero(~truncated)
            if live.size == 0:
                break
            # the four stages run on the particles live at the substep's start
            pts = positions[live]
            everyone = np.ones(live.size, dtype=bool)
            # the stencil wraps its node indices, so only the moved positions are wrapped
            k1, h1 = flow.velocities(pts, t, everyone)
            k2, h2 = flow.velocities(pts + 0.5 * dt * k1, t + 0.5 * dt, everyone)
            k3, h3 = flow.velocities(pts + 0.5 * dt * k2, t + 0.5 * dt, everyone)
            k4, h4 = flow.velocities(pts + dt * k3, t + dt, everyone)
            hit = h1 | h2 | h3 | h4
            moved = np.mod(pts + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), lengths)
            positions[live[~hit]] = moved[~hit]
            truncated[live[hit]] = True
        if not record_history:
            times.clear()
            history.clear()
        times.append(t1)
        history.append(positions.copy())

    if np.all(truncated):
        raise TruncationError("every trajectory hit a node; no usable ensemble remains")
    return Ensemble(positions, times=times, history=history, truncated=truncated)


# ---------------------------------------------------------------------------
# Kolmogorov–Smirnov machinery

def ks_critical_99(count: int) -> float:
    """99% one-sample Kolmogorov-Smirnov critical value, 1.63/sqrt(M)."""
    return 1.63 / math.sqrt(count)


def _axis_cdf(grid: Grid, density: np.ndarray, axis: int):
    """Marginal CDF nodes/values along one axis (trapezoid, periodic closure)."""
    other = tuple(a for a in range(grid.dim) if a != axis)
    marginal = density.sum(axis=other) if other else density.copy()
    dx = grid.spacings[axis]
    nodes = np.append(grid.axis_points(axis), grid.lengths[axis])
    closed = np.append(marginal, marginal[0])
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (closed[1:] + closed[:-1]) * dx)])
    total = cdf[-1]
    if total <= 0:
        raise PilotwaveError("cannot build a CDF from a zero marginal density")
    return nodes, cdf / total


def ks_distance_to_density(samples: np.ndarray, grid: Grid, density: np.ndarray) -> float:
    """KS statistic of sampled positions against a grid density.

    Full one-dimensional KS for one axis; the maximum of per-axis marginal
    KS statistics in higher dimension.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    worst = 0.0
    for axis in range(grid.dim):
        nodes, cdf = _axis_cdf(grid, density, axis)
        xs = np.sort(np.mod(samples[:, axis], grid.lengths[axis]))
        model = np.interp(xs, nodes, cdf)
        m = len(xs)
        empirical_hi = np.arange(1, m + 1) / m
        empirical_lo = np.arange(0, m) / m
        d = float(np.max(np.maximum(np.abs(model - empirical_hi), np.abs(model - empirical_lo))))
        worst = max(worst, d)
    return worst


# ---------------------------------------------------------------------------
# Equivariance

@dataclass
class EquivarianceReport:
    ks_distance: float
    truncated_fraction: float
    baseline_ks: float
    count: int
    horizon: float
    seed: int
    valid: bool


def equivariance_test(
    H: DifferentialOperator,
    psi0: GridState,
    count: int,
    horizon: float,
    seed: int,
    evolution_spec=None,
    substeps: int = DEFAULT_SUBSTEPS,
) -> EquivarianceReport:
    """Sample |psi0|^2, integrate guided trajectories to the horizon, and
    compare the empirical distribution against |psi(T)|^2.

    A given `evolution_spec` fixes the schedule, and the run and the report
    end at its steps * dt instead of `horizon`."""
    check_count(count)
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    H = require_hermitian(H)
    if evolution_spec is None:
        evolution_spec = schedule(H, psi0, horizon=horizon)
    else:
        horizon = evolution_spec.steps * evolution_spec.dt
    table = derive_current_table(H)
    snapshots = evolve(H, psi0, evolution_spec)
    ensemble = sample_density(psi0.density(), psi0.grid, count, seed)
    baseline = ks_distance_to_density(ensemble.positions, psi0.grid, psi0.density())
    final = integrate_trajectories(snapshots, table, ensemble, substeps=substeps, record_history=False)
    kept = final.positions[~final.truncated]
    ks = ks_distance_to_density(kept, psi0.grid, snapshots[-1].density())
    fraction = final.truncated_fraction()
    return EquivarianceReport(
        ks_distance=ks,
        truncated_fraction=fraction,
        baseline_ks=baseline,
        count=count,
        horizon=horizon,
        seed=seed,
        valid=fraction <= MAX_TRUNCATED_FRACTION,
    )
