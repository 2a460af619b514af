"""Shared generators and oracles for the test suite.

Random operators use polynomial-times-Gaussian coefficients centered
mid-domain, so that (a) grid states concentrated at the domain center see
the coefficients at full strength, and (b) the randomized symbolic equality
checks, drawing from the same grid box, can distinguish them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import indices_of_max_order
from pilotwave import cli, expr, operators
from pilotwave.currents import CurrentTable, derive_current_table, eval_current, source_term
from pilotwave.expr import CoefficientExpression
from pilotwave.grids import Grid, GridState
from pilotwave.operators import DifferentialOperator, SamplingSpec, hermitize
from pilotwave.trajectories import DEFAULT_SUBSTEPS, NODE_EPS, Ensemble, integrate_trajectories


def grid_meshes(grid: Grid) -> list[np.ndarray]:
    """The grid's full coordinate meshes, ij indexing: the oracle that the
    sparse `Grid.axis_vectors()` broadcast to."""
    return np.meshgrid(*(grid.axis_points(a) for a in range(grid.dim)), indexing="ij")


def run_fresh_python(script: str) -> subprocess.CompletedProcess:
    """Run `script` in a new interpreter that imports this checkout's src/,
    as a CLI call starts: no module imported and the allocator untouched."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done


@pytest.fixture(autouse=True)
def no_child_left():
    """After the test, this process has no child: every forked snapshot writer
    was reaped.  A module imports it to make it autouse there."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def count_hermiticity_checks(monkeypatch) -> list:
    """Record the `check` argument of every hermiticity_violations call, made
    through the operators module or through the CLI's import of it."""
    calls = []
    original = operators.hermiticity_violations

    def counting(H, check=None):
        calls.append(check)
        return original(H, check)

    for module in (operators, cli):
        monkeypatch.setattr(module, "hermiticity_violations", counting)
    return calls


def record_function_argument_sizes(monkeypatch) -> list:
    """Record the element count of the argument of every exp/sin/cos/log/sqrt/
    conj call that grid evaluation makes (every function of the grid table,
    which the walker looks up at call time)."""
    sizes = []

    def recording(function):
        def call(arg):
            sizes.append(np.size(arg))
            return function(arg)

        return call

    functions = expr._grid_table()["functions"]
    for name, function in list(functions.items()):
        monkeypatch.setitem(functions, name, recording(function))
    return sizes


def centered_spec(center, samples: int = 48, seed: int = 7, tol: float = 1e-9) -> SamplingSpec:
    """Checks on the box [0, 2 c) centred on `center`: the grid's box when
    `center` is the grid's centre."""
    return SamplingSpec(samples=samples, seed=seed, tol=tol, lengths=tuple(2.0 * c for c in center))


def poly_gauss_coefficient(
    rng: np.random.Generator, dim: int, center, decay: float = 1.0, max_degree: int = 2
) -> CoefficientExpression:
    """(complex polynomial in q - c) * exp(-decay |q - c|^2), plus sometimes
    a plain complex constant.

    These coefficients are not periodic.  A grid oracle that does not
    concentrate its states (a dense matrix on low Fourier modes, say) sees
    the jump of the coefficient and of its derivatives at the box edge, so
    it needs a box half-width at which the Gaussian tail and its
    derivatives are below machine precision: about 7 for decay 1.0.
    """
    shifted = [expr.parse(f"q{a}", dim) - expr.const(center[a - 1], dim) for a in range(1, dim + 1)]
    poly = expr.const(complex(rng.normal(), rng.normal()), dim)
    for _ in range(rng.integers(0, 3)):
        mono = expr.const(complex(rng.normal(), rng.normal()), dim)
        degree = int(rng.integers(1, max_degree + 1))
        for _ in range(degree):
            mono = mono * shifted[rng.integers(0, dim)]
        poly = poly + mono
    radius = expr.const(0, dim)
    for s in shifted:
        radius = radius + s * s
    coef = poly * expr.call("exp", expr.const(-decay, dim) * radius)
    if rng.random() < 0.3:
        coef = coef + expr.const(complex(rng.normal(), rng.normal()), dim)
    return coef


def random_operator(
    rng: np.random.Generator,
    dim: int,
    max_order: int,
    center,
    max_terms: int = 4,
    decay: float = 1.0,
) -> DifferentialOperator:
    candidates = [n for n in indices_of_max_order(dim, max_order)]
    rng.shuffle(candidates)
    count = int(rng.integers(2, max_terms + 1))
    terms = {}
    for n in candidates[:count]:
        terms[n] = poly_gauss_coefficient(rng, dim, center, decay=decay)
    return DifferentialOperator(dim, terms)


def random_hermitian_operator(
    rng: np.random.Generator, dim: int, max_order: int, center, max_terms: int = 4,
    decay: float = 1.0,
) -> DifferentialOperator:
    return hermitize(random_operator(rng, dim, max_order, center, max_terms, decay))


def band_limited_state(
    grid: Grid,
    rng: np.random.Generator,
    max_mode: int = 3,
    modes: int = 4,
    envelope_kappa: float | None = None,
) -> GridState:
    """Random low-wavenumber Fourier sum, optionally under a periodic bump
    envelope exp(kappa (cos(2 pi (q-c)/L) - 1)) centered mid-domain.

    The bump is exactly periodic and entire, so concentration does not leak
    broadband content into the spectrum the way a plain Gaussian (with its
    wrap kink at the boundary) does; needed whenever non-periodic
    coefficients multiply the state and spectral residues must reach 1e-9.
    """
    meshes = grid_meshes(grid)
    values = np.zeros(grid.shape, dtype=complex)
    for _ in range(modes):
        amplitude = complex(rng.normal(), rng.normal())
        phase = np.zeros(grid.shape)
        for axis in range(grid.dim):
            m = int(rng.integers(-max_mode, max_mode + 1))
            phase = phase + 2.0 * np.pi * m * meshes[axis] / grid.lengths[axis]
        values = values + amplitude * np.exp(1j * phase)
    if envelope_kappa is not None:
        center = grid.center()
        ramp = np.zeros(grid.shape)
        for axis in range(grid.dim):
            angle = 2.0 * np.pi * (meshes[axis] - center[axis]) / grid.lengths[axis]
            ramp = ramp + envelope_kappa * (np.cos(angle) - 1.0)
        values = values * np.exp(ramp)
    return GridState(grid, values).normalized()


def braket(a: GridState, b: GridState) -> complex:
    return complex(np.sum(np.conjugate(a.values) * b.values) * a.grid.cell_volume)


def inner_product_hermitian(
    H: DifferentialOperator, grid: Grid, rng: np.random.Generator, states: int = 5,
    rel_tol: float = 1e-6, envelope_kappa: float = 12.0,
) -> bool:
    """Grid test of <phi, H psi> = <H phi, psi> on concentrated random states."""
    from pilotwave.operators import apply as apply_operator

    for _ in range(states):
        phi = band_limited_state(grid, rng, envelope_kappa=envelope_kappa)
        psi = band_limited_state(grid, rng, envelope_kappa=envelope_kappa)
        h_psi = apply_operator(H, psi)
        h_phi = apply_operator(H, phi)
        lhs = braket(phi, h_psi)
        rhs = braket(h_phi, psi)
        scale = (
            np.sqrt(phi.norm_sq() * h_psi.norm_sq())
            + np.sqrt(h_phi.norm_sq() * psi.norm_sq())
        )
        if abs(lhs - rhs) > rel_tol * scale:
            return False
    return True


def max_slot_deviation_on_probe(H: DifferentialOperator, center, half_width: float = 2.0) -> float:
    """Largest normalized Hermiticity defect over a deterministic probe lattice.

    Used to reject randomly generated 'non-Hermitian' operators whose defect
    is numerically invisible, which would make classification tests flaky.
    """
    from pilotwave.operators import adjoint

    adj = adjoint(H)
    slots = set(H.terms) | set(adj.terms)
    center = np.asarray(center, dtype=float)
    ticks = np.linspace(-half_width, half_width, 5)
    mesh = np.meshgrid(*([ticks] * H.dim), indexing="ij")
    points = [m.reshape(-1) + c for m, c in zip(mesh, center)]
    worst = 0.0
    for slot in slots:
        va = H.coefficient(slot).evaluate_on(points, 0.37)
        vb = adj.coefficient(slot).evaluate_on(points, 0.37)
        worst = max(worst, float(np.max(np.abs(va - vb) / (1.0 + np.abs(va) + np.abs(vb)))))
    return worst


def visibly_non_hermitian_operator(
    rng: np.random.Generator, dim: int, max_order: int, center, floor: float = 1e-3
) -> DifferentialOperator:
    for _ in range(50):
        H = random_operator(rng, dim, max_order, center)
        if max_slot_deviation_on_probe(H, center) >= floor:
            return H
    raise RuntimeError("could not generate a visibly non-Hermitian operator")


def dense_propagator(H: DifferentialOperator, grid: Grid, t: float) -> np.ndarray:
    """exp(-i M t) for the grid matrix M of H, built column by column from the
    operator's applier and exponentiated through `eigh`.  M must be Hermitian
    to rounding, which holds for constant derivative coefficients and any real
    potential; the propagator acts on flattened grid values."""
    applier = H.realize(grid)
    size = int(np.prod(grid.shape))
    M = np.empty((size, size), dtype=complex)
    for j in range(size):
        unit = np.zeros(size, dtype=complex)
        unit[j] = 1.0
        M[:, j] = applier(unit.reshape(grid.shape), 0.0).reshape(-1)
    assert np.linalg.norm(M - M.conj().T) <= 1e-12 * np.linalg.norm(M)
    energies, vectors = np.linalg.eigh(M)
    return (vectors * np.exp(-1j * energies * t)) @ vectors.conj().T


def continuity_identity_defect(H: DifferentialOperator, snapshots: list[GridState], relative: bool = True) -> float:
    """Largest max-norm defect of the identity div j = I = 2 Re(i conj(psi) H psi) over the
    evolved snapshots (all but the first), each divided by its max |I| when `relative`; a
    stationary state, whose source vanishes, is checked with relative=False."""
    table = derive_current_table(H)
    worst = 0.0
    for snap in snapshots[1:]:
        source = source_term(H, snap)
        defect = float(np.max(np.abs(eval_current(table, snap).divergence() - source)))
        worst = max(worst, defect / float(np.max(np.abs(source))) if relative else defect)
    return worst


def padded_cdf(state: GridState, factor: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Nodes on [0, L] and values of the CDF of a 1D state's |psi|^2, with psi
    zero-padded `factor` times in Fourier space (the Nyquist mode split
    between its two images) and the density summed by the trapezoid rule."""
    points = state.grid.shape[0]
    half = points // 2
    spectrum = np.fft.fft(state.values)
    padded = np.zeros(factor * points, dtype=complex)
    padded[:half] = spectrum[:half]
    padded[-half + 1 :] = spectrum[half + 1 :]
    padded[half] = padded[-half] = 0.5 * spectrum[half]
    rho = np.abs(np.fft.ifft(padded) * factor) ** 2
    dx = state.grid.lengths[0] / rho.size
    closed = np.append(rho, rho[0])
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (closed[1:] + closed[:-1]) * dx)])
    return np.arange(rho.size + 1) * dx, cdf / cdf[-1]


def guidance_residual(snapshots: list[GridState], table: CurrentTable, count: int = 200) -> float:
    """How far guided 1D trajectories are from carrying the |psi|^2 mass
    between them.  Particles start at the quantiles u_i = (i + 1/2) / count of
    |psi0|^2 and are integrated with the default settings; in 1D they do not
    cross, so F_T(q_i(T)) - u_i is one constant (Duerr, Goldstein and Zanghi
    1992), and the residual is its largest deviation from its mean.  The
    CDFs come from `padded_cdf`; the mass must not cross the box edge."""
    quantiles = (np.arange(count) + 0.5) / count
    nodes, cdf = padded_cdf(snapshots[0])
    final = integrate_trajectories(snapshots, table, Ensemble(np.interp(quantiles, cdf, nodes).reshape(-1, 1)))
    assert not final.truncated.any()
    nodes, cdf = padded_cdf(snapshots[-1])
    shift = np.interp(final.positions[:, 0], nodes, cdf) - quantiles
    return float(np.max(np.abs(shift - shift.mean())))


# ---------------------------------------------------------------------------
# Per-element references for the guided-trajectory path and the text writers.
# They interpolate one field at a time through tuple indexing, run the RK4
# stages on full-size arrays with mask scatters, and format one element at a
# time; the array versions must match them bit for bit and byte for byte.


def lagrange_weights(f: np.ndarray) -> list[np.ndarray]:
    """The cubic Lagrange basis on the nodes -1, 0, 1, 2 at the points f of
    [0, 1): -f (f - 1)(f - 2) / 6, (f + 1)(f - 1)(f - 2) / 2,
    -(f + 1) f (f - 2) / 2 and (f + 1) f (f - 1) / 6, each factored through
    r = f (1 - f) with the rounding the package's stencil uses."""
    g = 1.0 - f
    r = f * g
    half = r * 0.5 + 1.0
    sixth = r / 6.0
    return [sixth * (f - 2.0), half * g, half * f, sixth * (-1.0 - f)]


def reference_interpolate(grid: Grid, values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Periodic 4-point Lagrange interpolation, one corner of the 4^N at a
    time: corners in row-major order of their offsets, each weight the
    product of the axis weights taken from axis 0 on."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.zeros(points.shape[0], dtype=values.dtype)
    base = []
    weights = []
    for axis in range(grid.dim):
        u = points[:, axis] / grid.spacings[axis]
        i0 = np.floor(u).astype(int)
        base.append(i0)
        weights.append(lagrange_weights(u - i0))
    for offsets in np.ndindex(*(4,) * grid.dim):
        weight = weights[0][offsets[0]]
        for axis in range(1, grid.dim):
            weight = weight * weights[axis][offsets[axis]]
        idx = tuple(np.mod(base[axis] + offsets[axis] - 1, grid.shape[axis]) for axis in range(grid.dim))
        out = out + weight * values[idx]
    return out


class ReferenceFlowField:
    """One density and N current grids per snapshot; the two snapshots around
    t are blended on the grid, and each blended grid is interpolated on its own."""

    def __init__(self, snapshots: list[GridState], table: CurrentTable):
        self.grid = snapshots[0].grid
        self.times = np.array([s.t for s in snapshots])
        self.densities = [s.density() for s in snapshots]
        self.currents = [eval_current(table, s).components for s in snapshots]
        self.node_floor = NODE_EPS * max(float(d.max()) for d in self.densities)

    def velocities(self, points: np.ndarray, t: float, active: np.ndarray):
        k = int(np.clip(np.searchsorted(self.times, t, side="right") - 1, 0, len(self.times) - 2))
        t0, t1 = self.times[k], self.times[k + 1]
        w = float(np.clip((t - t0) / (t1 - t0), 0.0, 1.0))
        pts = points[active]
        rho = reference_interpolate(self.grid, (1.0 - w) * self.densities[k] + w * self.densities[k + 1], pts)
        nodes = rho < self.node_floor
        rho_safe = np.where(nodes, 1.0, rho)
        vel = np.empty_like(pts)
        for axis in range(self.grid.dim):
            j = (1.0 - w) * self.currents[k][axis] + w * self.currents[k + 1][axis]
            vel[:, axis] = reference_interpolate(self.grid, j, pts) / rho_safe
        vel[nodes] = 0.0
        return vel, nodes


def reference_integrate_trajectories(
    snapshots: list[GridState], table: CurrentTable, ensemble: Ensemble, substeps: int = DEFAULT_SUBSTEPS
) -> Ensemble:
    flow = ReferenceFlowField(snapshots, table)
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
            active = ~truncated
            if not np.any(active):
                break

            def stage(offset_positions, stage_t):
                vel, nodes = flow.velocities(offset_positions, stage_t, active)
                full = np.zeros_like(positions)
                full[active] = vel
                hit = np.zeros(positions.shape[0], dtype=bool)
                hit[active] = nodes
                return full, hit

            k1, h1 = stage(positions, t)
            k2, h2 = stage(positions + 0.5 * dt * k1, t + 0.5 * dt)
            k3, h3 = stage(positions + 0.5 * dt * k2, t + 0.5 * dt)
            k4, h4 = stage(positions + dt * k3, t + dt)
            stage_trunc = h1 | h2 | h3 | h4
            move = active & ~stage_trunc
            positions[move] = np.mod(
                positions[move] + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)[move],
                lengths[None, :],
            )
            truncated |= stage_trunc
        times.append(t1)
        history.append(positions.copy())
    return Ensemble(positions, times=times, history=history, truncated=truncated)


def reference_snapshot_json(state: GridState) -> str:
    flat = state.values.reshape(-1)
    return json.dumps(
        {
            "dimension": state.dim,
            "lengths": list(state.grid.lengths),
            "shape": list(state.grid.shape),
            "time": state.t,
            "values": [[float(v.real), float(v.imag)] for v in flat],
        }
    )


def reference_snapshot_csv(state: GridState) -> str:
    header = ",".join(f"q{a}" for a in range(1, state.dim + 1)) + ",re,im"
    coords = [m.reshape(-1) for m in grid_meshes(state.grid)]
    flat = state.values.reshape(-1)
    lines = [header]
    for idx in range(flat.size):
        pos = ",".join(f"{c[idx]:.12g}" for c in coords)
        lines.append(f"{pos},{flat[idx].real:.15g},{flat[idx].imag:.15g}")
    return "\n".join(lines) + "\n"


def reference_trajectory_csv(ensemble: Ensemble) -> str:
    axes = ",".join(f"q{a}" for a in range(1, ensemble.dim + 1))
    lines = [f"t,particle_id,{axes},truncated"]
    for t, positions in zip(ensemble.times, ensemble.history):
        for pid in range(ensemble.count):
            coords = ",".join(f"{x:.12g}" for x in positions[pid])
            flag = int(bool(ensemble.truncated[pid]))
            lines.append(f"{t:.12g},{pid},{coords},{flag}")
    return "\n".join(lines) + "\n"
