import sys
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from helpers import grid_meshes, reference_integrate_trajectories, reference_interpolate, run_fresh_python
from pilotwave import trajectories
from pilotwave.currents import derive_current_table, eval_current
from pilotwave.errors import (
    DimensionMismatchError,
    NodeError,
    PilotwaveError,
    StabilityError,
    TruncationError,
)
from pilotwave.grids import Grid, GridState
from pilotwave.operators import OperatorApplier, load_hamiltonian
from pilotwave.solver import EvolutionSpec, evolve
from pilotwave.states import gaussian, ho_eigenstate, plane_wave
from pilotwave.trajectories import (
    Ensemble,
    _FlowField,
    equivariance_test,
    integrate_trajectories,
    interpolate,
    ks_critical_99,
    ks_distance_to_density,
    sample_density,
    velocity,
)

FREE_1D = 'dim = 1\nterm [2] = "-0.5"\n'
HO_1D = 'dim = 1\nterm [2] = "-0.5"\nterm [0] = "(q1-20)^2/2"\n'
P4_1D = 'dim = 1\nterm [4] = "1"\n'


def test_interpolate_linear_exact_with_wrap():
    grid = Grid((8.0,), (8,))
    values = grid.axis_points(0).copy()  # f(q) = q on nodes
    inside = interpolate(grid, values, np.array([[1.5], [3.25]]))
    assert np.allclose(inside, [1.5, 3.25])
    # in the last cell the periodic image f(8)=f(0)=0 takes over
    wrap = interpolate(grid, values, np.array([[7.5]]))
    assert wrap[0] == pytest.approx(3.5)


def test_interpolate_2d_bilinear():
    grid = Grid((4.0, 4.0), (4, 4))
    X, Y = grid_meshes(grid)
    values = 2.0 * X + 3.0 * Y
    pts = np.array([[1.5, 0.5], [0.25, 2.75]])
    assert np.allclose(interpolate(grid, values, pts), 2 * pts[:, 0] + 3 * pts[:, 1])


def test_velocity_plane_wave():
    grid = Grid((8 * np.pi,), (64,))
    H = load_hamiltonian(FREE_1D)
    psi = plane_wave(grid, [1.0])
    j = eval_current(derive_current_table(H), psi)
    for q in (0.3, 7.0, 20.0):
        assert velocity(psi, j, [q])[0] == pytest.approx(1.0, abs=1e-10)


def test_velocity_p4_group_velocity():
    grid = Grid((8 * np.pi,), (64,))
    H = load_hamiltonian(P4_1D)
    psi = plane_wave(grid, [0.5])
    j = eval_current(derive_current_table(H), psi)
    assert velocity(psi, j, [11.0])[0] == pytest.approx(4 * 0.5 ** 3, abs=1e-10)


def test_velocity_node_error():
    grid = Grid((40.0,), (256,))
    x = grid.axis_points(0)
    values = (x - 20.0) * np.exp(-((x - 20.0) ** 2)) + 0j
    psi = GridState(grid, values).normalized()
    H = load_hamiltonian(FREE_1D)
    j = eval_current(derive_current_table(H), psi)
    with pytest.raises(NodeError):
        velocity(psi, j, [20.0])


@pytest.mark.parametrize("text,grid,wavevector,dt", [
    ('dim = 1\nterm [4] = "0.05"\nterm [2] = "-0.5"\n', Grid((40.0,), (128,)), [1.0], 0.002),
    ('dim = 2\nterm [2,0] = "-0.5"\nterm [0,2] = "-0.5"\nterm [0,0] = "0.1*cos(0.3*q1)"\n',
     Grid((12.0, 12.0), (32, 32)), [0.5, -0.3], 0.01),
], ids=["1d-quartic", "2d-cosine-potential"])
def test_flow_field_velocity_is_the_guidance_velocity_at_each_snapshot(text, grid, wavevector, dt):
    """What integrate_trajectories integrates is, at each snapshot time, bitwise
    trajectories.velocity of that snapshot and its current, away from nodes."""
    H = load_hamiltonian(text)
    table = derive_current_table(H)
    snaps = evolve(H, gaussian(grid, wavevector=wavevector), EvolutionSpec(dt=dt, steps=40, stride=10))
    flow = _FlowField(snaps, table)
    points = np.random.default_rng(4).uniform(-1.5, 1.5, (50, grid.dim)) + np.asarray(grid.center())
    assert len(snaps) == 5
    for s in snaps:
        vel, nodes = flow.velocities(points, s.t, np.ones(len(points), dtype=bool))
        assert not nodes.any()
        want = np.array([velocity(s, eval_current(table, s), q) for q in points])
        assert vel.tobytes() == want.tobytes()


def test_sample_density_uniform_ks():
    grid = Grid((10.0,), (64,))
    rho = np.ones(64)
    M = 4000
    ens = sample_density(rho, grid, M, seed=21)
    assert ens.count == M
    assert ks_distance_to_density(ens.positions, grid, rho) < ks_critical_99(M)


def test_sample_density_hot_cell():
    grid = Grid((10.0,), (64,))
    rho = np.zeros(64)
    rho[40] = 1.0
    ens = sample_density(rho, grid, 500, seed=3)
    dx = grid.spacings[0]
    target = grid.axis_points(0)[40]
    assert np.all(np.abs(ens.positions[:, 0] - target) <= dx + 1e-12)


def test_sample_density_gaussian_variance():
    grid = Grid((40.0,), (512,))
    sigma = 1.3
    rho = gaussian(grid, center=[20.0], width=sigma).density()
    ens = sample_density(rho, grid, 100_000, seed=5)
    var = np.var(ens.positions[:, 0])
    assert abs(var - sigma ** 2) / sigma ** 2 < 0.05


def test_sample_density_rejects_bad_input():
    grid = Grid((10.0,), (64,))
    with pytest.raises(PilotwaveError):
        sample_density(np.zeros(64), grid, 10, seed=1)
    with pytest.raises(PilotwaveError):
        sample_density(-np.ones(64), grid, 10, seed=1)


def test_sampler_reproducible():
    grid = Grid((10.0,), (64,))
    rho = np.ones(64)
    a = sample_density(rho, grid, 100, seed=9).positions
    b = sample_density(rho, grid, 100, seed=9).positions
    assert np.array_equal(a, b)


def free_gaussian_snapshots(sigma0=0.5, wavevector=0.0, steps=1000, stride=25):
    H = load_hamiltonian(FREE_1D)
    grid = Grid((40.0,), (512,))
    psi0 = gaussian(grid, center=[20.0], width=sigma0, wavevector=[wavevector])
    snaps = evolve(H, psi0, EvolutionSpec(dt=1e-3, steps=steps, stride=stride))
    return H, grid, snaps


def test_trajectories_follow_gaussian_scaling_law():
    sigma0 = 0.5
    H, grid, snaps = free_gaussian_snapshots(sigma0=sigma0)
    table = derive_current_table(H)
    starts = np.array([[18.5], [19.2], [20.0], [20.6], [21.5]])
    ensemble = Ensemble(starts)
    final = integrate_trajectories(snaps, table, ensemble, substeps=4)
    T = snaps[-1].t
    scale = np.sqrt(1.0 + (T / (2 * sigma0 ** 2)) ** 2)
    for start, end in zip(starts[:, 0], final.positions[:, 0]):
        expected = 20.0 + (start - 20.0) * scale
        assert abs(end - expected) <= 1e-2 * max(abs(expected - 20.0), 0.1)
    # independent oracle: ten-fold denser integration agrees even tighter
    dense = integrate_trajectories(snaps, table, ensemble, substeps=40)
    assert np.max(np.abs(dense.positions - final.positions)) < 1e-4


def test_trajectories_static_for_stationary_ground_state():
    H = load_hamiltonian(HO_1D)
    grid = Grid((40.0,), (256,))
    psi0 = ho_eigenstate(grid, [0], center=[20.0])
    snaps = evolve(H, psi0, EvolutionSpec(dt=1e-3, steps=200, stride=50))
    table = derive_current_table(H)
    starts = np.array([[19.0], [20.0], [21.3]])
    final = integrate_trajectories(snaps, table, Ensemble(starts))
    assert np.max(np.abs(final.positions - starts)) < 1e-10
    assert not final.truncated.any()


def test_trajectories_mean_displacement_under_drift():
    # sigma = 3 packet: spreading correction to the velocity is O(1e-3)
    H, grid, snaps = free_gaussian_snapshots(sigma0=3.0, wavevector=1.0, steps=500)
    table = derive_current_table(H)
    starts = 20.0 + np.linspace(-4.0, 4.0, 9).reshape(-1, 1)
    final = integrate_trajectories(snaps, table, Ensemble(starts))
    T = snaps[-1].t
    displacement = final.positions - starts
    assert np.max(np.abs(displacement - 1.0 * T)) < 1e-2


def test_no_crossing_in_1d():
    H, grid, snaps = free_gaussian_snapshots(sigma0=0.5, wavevector=1.0, steps=600)
    table = derive_current_table(H)
    rng = np.random.default_rng(33)
    starts = np.sort(rng.uniform(18.0, 22.0, 64)).reshape(-1, 1)
    final = integrate_trajectories(snaps, table, Ensemble(starts))
    for positions in final.history:
        order = positions[:, 0]
        assert np.all(np.diff(order) > -1e-12)


def test_integration_deterministic():
    H, grid, snaps = free_gaussian_snapshots(steps=200)
    table = derive_current_table(H)
    ens = sample_density(snaps[0].density(), grid, 200, seed=77)
    a = integrate_trajectories(snaps, table, ens)
    b = integrate_trajectories(snaps, table, ens)
    assert np.array_equal(a.positions, b.positions)
    assert a.times == b.times


def test_all_truncated_raises():
    H = load_hamiltonian(FREE_1D)
    grid = Grid((40.0,), (256,))
    x = grid.axis_points(0)
    psi0 = GridState(grid, (x - 20.0) * np.exp(-((x - 20.0) ** 2) / 2) + 0j).normalized()
    snaps = evolve(H, psi0, EvolutionSpec(dt=1e-3, steps=10, stride=5))
    table = derive_current_table(H)
    at_node = Ensemble(np.array([[20.0]]))
    with pytest.raises(TruncationError):
        integrate_trajectories(snaps, table, at_node)


def test_history_cadence_matches_snapshots():
    H, grid, snaps = free_gaussian_snapshots(steps=100, stride=25)
    table = derive_current_table(H)
    final = integrate_trajectories(snaps, table, Ensemble(np.array([[20.0]])))
    assert final.times == [s.t for s in snaps]
    assert len(final.history) == len(snaps)


def test_ks_distance_exact_for_model_samples():
    grid = Grid((1.0,), (64,))
    rho = np.ones(64)
    # stratified points have the lowest possible empirical deviation
    samples = ((np.arange(1000) + 0.5) / 1000).reshape(-1, 1)
    assert ks_distance_to_density(samples, grid, rho) < 1e-3


def test_equivariance_free_gaussian_quick():
    H = load_hamiltonian(FREE_1D)
    grid = Grid((40.0,), (512,))
    psi0 = gaussian(grid, center=[18.0], width=0.5, wavevector=[1.0])
    spec = EvolutionSpec(dt=1e-3, steps=500, stride=10)
    report = equivariance_test(
        H, psi0, count=2000, horizon=0.5, seed=11, evolution_spec=spec, substeps=2
    )
    assert report.valid
    assert report.truncated_fraction == 0.0
    assert report.ks_distance < 0.05


def test_equivariance_stationary_flow_is_identity():
    H = load_hamiltonian(HO_1D)
    grid = Grid((40.0,), (256,))
    psi0 = ho_eigenstate(grid, [0], center=[20.0])
    spec = EvolutionSpec(dt=1e-3, steps=100, stride=10)
    report = equivariance_test(
        H, psi0, count=1000, horizon=0.1, seed=4, evolution_spec=spec, substeps=2
    )
    assert report.ks_distance == pytest.approx(report.baseline_ks, abs=1e-12)


def test_equivariance_auto_evolution_spec():
    # with no explicit spec the horizon is split by the stability estimate
    H = load_hamiltonian(FREE_1D)
    grid = Grid((40.0,), (128,))
    psi0 = gaussian(grid, center=[20.0], width=1.0)
    report = equivariance_test(H, psi0, count=300, horizon=0.05, seed=2)
    assert report.valid
    assert report.ks_distance < 0.2


def test_equivariance_reproducible():
    H = load_hamiltonian(FREE_1D)
    grid = Grid((40.0,), (256,))
    psi0 = gaussian(grid, center=[20.0], width=1.0)
    spec = EvolutionSpec(dt=1e-3, steps=50, stride=10)
    a = equivariance_test(H, psi0, count=500, horizon=0.05, seed=8, evolution_spec=spec)
    b = equivariance_test(H, psi0, count=500, horizon=0.05, seed=8, evolution_spec=spec)
    assert asdict(a) == asdict(b)


QUARTIC_1D = 'dim = 1\nterm [4] = "0.05"\nterm [2] = "-0.5"\nterm [0] = "(q1-20)^2/8"\n'


def test_equivariance_diagonalizes_a_run_above_the_step_budget(monkeypatch):
    """The p^4 operator on 1024 points would need 2,095,129 RK4 steps to
    T = 1, above MAX_RK4_STEPS.  One diagonalization gives its 100 snapshot
    intervals without an operator application, and the run is valid."""
    applications = []
    monkeypatch.setattr(OperatorApplier, "__call__", lambda self, values, t: applications.append(t))
    grid = Grid((40.0,), (1024,))
    psi0 = gaussian(grid, center=[18.0], width=0.5, wavevector=[1.0])
    report = equivariance_test(load_hamiltonian(QUARTIC_1D), psi0, count=100, horizon=1.0, seed=0)
    assert report.valid and report.horizon == 1.0
    assert applications == []


def test_equivariance_refuses_a_run_above_the_step_budget(monkeypatch):
    """A drive of 1e-9 cos(t) keeps the same p^4 run on RK4, where it would
    need 2,095,129 steps; the run is refused before the first operator
    application."""
    applications = []
    monkeypatch.setattr(OperatorApplier, "__call__", lambda self, values, t: applications.append(t))
    grid = Grid((40.0,), (1024,))
    psi0 = gaussian(grid, center=[18.0], width=0.5, wavevector=[1.0])
    driven = QUARTIC_1D.replace('^2/8"', '^2/8 + 1e-9*cos(t)"')
    with pytest.raises(StabilityError, match=r"^2095129 RK4 steps exceed MAX_RK4_STEPS = 1000000; "
                                             "coarsen the grid or shorten the run$"):
        equivariance_test(load_hamiltonian(driven), psi0, count=100, horizon=1.0, seed=0)
    assert applications == []


# ---------------------------------------------------------------------------
# The array path against the per-field reference (tests/helpers.py), bit for bit

GRIDS = {
    "1d": Grid((10.0,), (64,)),
    "2d": Grid((8.0, 12.0), (16, 32)),
    "3d": Grid((6.0, 5.0, 7.0), (16, 16, 16)),
}
FREE = {
    1: FREE_1D,
    2: 'dim = 2\nterm [2,0] = "-0.5"\nterm [0,2] = "-0.5"\n',
    3: 'dim = 3\nterm [2,0,0] = "-0.5"\nterm [0,2,0] = "-0.5"\nterm [0,0,2] = "-0.5"\n',
}


def wrap_edge_points(grid: Grid, rng: np.random.Generator, count: int) -> np.ndarray:
    """Random points plus points on nodes, on the last node, just below L,
    at exactly L, at -0.0 and one period out."""
    lengths = np.asarray(grid.lengths)
    spacings = np.asarray(grid.spacings)
    edges = np.array([
        np.zeros(grid.dim),
        np.full(grid.dim, -0.0),
        lengths - spacings,
        lengths - 1e-13,
        lengths,
        lengths + 0.5 * spacings,
        -0.25 * spacings,
        3 * spacings,
    ])
    return np.vstack([edges, rng.uniform(0.0, 1.0, (count, grid.dim)) * lengths])


def drifting_state(grid: Grid, t: float = 0.0) -> GridState:
    """A plane wave under a nonvanishing periodic envelope: every particle
    moves, and those next to q_a = L_a cross the wrap edge."""
    values = np.ones(grid.shape, dtype=complex)
    for axis, mesh in enumerate(grid_meshes(grid)):
        phase = 2.0 * np.pi * mesh / grid.lengths[axis]
        values = values * np.exp(1j * (axis + 1) * phase) * (1.5 + np.cos(phase + axis))
    return GridState(grid, values, t).normalized()


def assert_same_ensemble(got: Ensemble, want: Ensemble):
    assert got.positions.tobytes() == want.positions.tobytes()
    assert got.times == want.times
    assert len(got.history) == len(want.history)
    for a, b in zip(got.history, want.history):
        assert a.tobytes() == b.tobytes()
    assert got.truncated.tobytes() == want.truncated.tobytes()


@pytest.mark.parametrize("name", GRIDS)
def test_interpolate_is_bitwise_the_per_corner_reference(name):
    grid = GRIDS[name]
    rng = np.random.default_rng(3)
    points = wrap_edge_points(grid, rng, 200)
    real = rng.normal(size=grid.shape)
    for values in (real, real + 1j * rng.normal(size=grid.shape)):
        got = interpolate(grid, values, points)
        assert got.dtype == values.dtype
        assert got.tobytes() == reference_interpolate(grid, values, points).tobytes()


def test_interpolate_refuses_values_off_the_grid_shape():
    """A field of another grid would be read through this grid's flat indices."""
    grid = Grid((4.0, 4.0), (32, 32))
    with pytest.raises(DimensionMismatchError, match=r"\(64, 64\)"):
        interpolate(grid, np.ones((64, 64)), np.array([[1.0, 1.0]]))


@pytest.mark.parametrize("name", GRIDS)
def test_trajectories_are_bitwise_the_per_field_reference(name):
    grid = GRIDS[name]
    H = load_hamiltonian(FREE[grid.dim])
    snaps = evolve(H, drifting_state(grid), EvolutionSpec(dt=0.01, steps=30, stride=10))
    table = derive_current_table(H)
    start = wrap_edge_points(grid, np.random.default_rng(5), 100)
    ensemble = Ensemble(start)
    got = integrate_trajectories(snaps, table, ensemble, substeps=3)
    assert_same_ensemble(got, reference_integrate_trajectories(snaps, table, ensemble, substeps=3))
    lengths = np.asarray(grid.lengths)
    crossed = np.abs(got.history[-1] - got.history[0]) > lengths / 2
    assert np.any(crossed)  # some particles crossed the wrap edge
    assert not np.any(got.truncated)


def emptying_snapshots(grid: Grid) -> list[GridState]:
    """Four snapshots of a drifting state whose slab 0.5 L_1 <= q_1 < 0.8 L_1 is
    empty from the third snapshot on: particles that reach it afterwards are
    truncated mid-run, the others never are."""
    snaps = []
    q1 = grid_meshes(grid)[0]
    slab = (q1 >= 0.5 * grid.lengths[0]) & (q1 < 0.8 * grid.lengths[0])
    for s in range(4):
        values = drifting_state(grid).values.copy()
        if s >= 2:
            values[slab] = 0.0
        snaps.append(GridState(grid, values, 0.2 * s))
    return snaps


@pytest.mark.parametrize("name", ["1d", "2d"])
def test_partial_truncation_is_bitwise_the_per_field_reference(name):
    grid = GRIDS[name]
    H = load_hamiltonian(FREE[grid.dim])
    snaps = emptying_snapshots(grid)
    table = derive_current_table(H)
    start = wrap_edge_points(grid, np.random.default_rng(11), 150)
    ensemble = Ensemble(start)
    got = integrate_trajectories(snaps, table, ensemble, substeps=4)
    assert_same_ensemble(got, reference_integrate_trajectories(snaps, table, ensemble, substeps=4))
    assert 0 < got.truncated.sum() < got.count
    # truncated particles moved through the first interval, then froze
    frozen = got.truncated
    assert np.all(np.any(got.history[1][frozen] != got.history[0][frozen], axis=1))
    assert np.array_equal(got.history[-1][frozen], got.positions[frozen])


# The flow field's two work buffers of shape (2, N + 1, M): above glibc's
# 128 KiB mmap threshold once M > 4,096 in 1D

def test_large_1d_ensemble_is_bitwise_the_per_field_reference():
    grid = GRIDS["1d"]
    H = load_hamiltonian(FREE_1D)
    snaps = evolve(H, drifting_state(grid), EvolutionSpec(dt=0.01, steps=30, stride=10))
    table = derive_current_table(H)
    ensemble = Ensemble(wrap_edge_points(grid, np.random.default_rng(7), 5000))
    got = integrate_trajectories(snaps, table, ensemble, substeps=3)
    assert_same_ensemble(got, reference_integrate_trajectories(snaps, table, ensemble, substeps=3))


def test_work_buffers_are_resized_only_when_truncation_shrinks_the_live_set(monkeypatch):
    grid = GRIDS["1d"]
    snaps = emptying_snapshots(grid)
    table = derive_current_table(load_hamiltonian(FREE_1D))
    ensemble = Ensemble(wrap_edge_points(grid, np.random.default_rng(13), 5000))
    buffers = []
    velocities = _FlowField.velocities

    def recording(flow, points, t, active):
        out = velocities(flow, points, t, active)
        if not any(flow._summed is seen for seen in buffers):
            buffers.append(flow._summed)
        return out

    monkeypatch.setattr(_FlowField, "velocities", recording)
    got = integrate_trajectories(snaps, table, ensemble, substeps=4)
    monkeypatch.undo()
    assert_same_ensemble(got, reference_integrate_trajectories(snaps, table, ensemble, substeps=4))
    sizes = [buffer.shape[-1] for buffer in buffers]
    assert sizes[0] == ensemble.count and sizes[-1] >= np.count_nonzero(~got.truncated)
    # one buffer per live count, each smaller than the last
    assert len(sizes) > 1 and sizes == sorted(set(sizes), reverse=True)


def drifting_flow(grid: Grid) -> _FlowField:
    H = load_hamiltonian(FREE[grid.dim])
    snaps = evolve(H, drifting_state(grid), EvolutionSpec(dt=0.01, steps=20, stride=10))
    return _FlowField(snaps, derive_current_table(H))


def test_velocities_of_a_masked_subset_are_those_of_the_subset():
    grid = GRIDS["1d"]
    flow = drifting_flow(grid)
    rng = np.random.default_rng(9)
    points = rng.uniform(0.0, grid.lengths[0], (5000, 1))
    mask = rng.random(5000) < 0.7
    vel, nodes = flow.velocities(points, 0.15, mask)
    want_vel, want_nodes = flow.velocities(points[mask], 0.15, np.ones(mask.sum(), dtype=bool))
    assert vel.tobytes() == want_vel.tobytes() and nodes.tobytes() == want_nodes.tobytes()


def test_a_warm_velocities_call_allocates_no_work_stack():
    """tracemalloc peak of a warm 5,000-particle 1D call: 392 KiB with the
    reused buffers, 666 KiB when each call allocated its own stacks."""
    grid = GRIDS["1d"]
    flow = drifting_flow(grid)
    points = np.random.default_rng(3).uniform(0.0, grid.lengths[0], (5000, 1))
    active = np.ones(5000, dtype=bool)
    flow.velocities(points, 0.05, active)
    tracemalloc.start()
    try:
        flow.velocities(points, 0.15, active)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stack = 2 * (grid.dim + 1) * 5000 * 8
    assert peak < 3 * stack


FAULTS_SCRIPT = r"""
import resource
import numpy as np
from pilotwave.currents import derive_current_table
from pilotwave.grids import Grid, GridState
from pilotwave.operators import load_hamiltonian
from pilotwave.solver import EvolutionSpec, evolve
from pilotwave.trajectories import Ensemble, integrate_trajectories
grid = Grid((10.0,), (64,))
phase = 2 * np.pi * grid.axis_points(0) / 10.0
psi = GridState(grid, np.exp(1j * phase) * (1.5 + np.cos(phase)), 0.0).normalized()
H = load_hamiltonian('dim = 1\nterm [2] = "-0.5"\n')
snaps = evolve(H, psi, EvolutionSpec(dt=0.01, steps=20, stride=2))
table = derive_current_table(H)
ensemble = Ensemble(np.random.default_rng(0).uniform(0.0, 10.0, (5000, 1)))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
integrate_trajectories(snaps, table, ensemble)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, (len(snaps) - 1) * 4 * 4)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="page-fault counts of glibc's allocator")
def test_integration_faults_fewer_pages_per_stage_than_one_work_stack():
    """A fresh interpreter, as a CLI call is: 5,000 1D particles took about
    133 minor faults per RK4 stage when each stage allocated its own stacks
    (39 pages each), and take about 17 with the reused buffers."""
    pytest.importorskip("resource")
    faults, stages = map(int, run_fresh_python(FAULTS_SCRIPT).stdout.split())
    stack_pages = 2 * 2 * 5000 * 8 / 4096
    assert faults < stages * stack_pages


def test_integration_without_history_ends_where_the_recording_run_does():
    grid = GRIDS["1d"]
    snaps = emptying_snapshots(grid)
    table = derive_current_table(load_hamiltonian(FREE_1D))
    ensemble = Ensemble(wrap_edge_points(grid, np.random.default_rng(17), 300))
    recorded = integrate_trajectories(snaps, table, ensemble)
    bare = integrate_trajectories(snaps, table, ensemble, record_history=False)
    assert 0 < bare.truncated.sum() < bare.count
    assert bare.positions.tobytes() == recorded.positions.tobytes()
    assert bare.truncated.tobytes() == recorded.truncated.tobytes()
    assert len(recorded.history) == len(snaps)
    # the run without history keeps one copy of the positions: the final one
    assert bare.times == recorded.times[-1:]
    assert len(bare.history) == 1 and bare.history[0].tobytes() == recorded.positions.tobytes()


def test_equivariance_report_is_the_same_with_recorded_history(monkeypatch):
    grid = Grid((40.0,), (128,))
    psi0 = gaussian(grid, center=[20.0], width=1.0, wavevector=[1.0])
    args = dict(count=300, horizon=1.0, seed=4, evolution_spec=EvolutionSpec(dt=1e-3, steps=50, stride=5))
    integrate = trajectories.integrate_trajectories
    finals = []

    def recording(*positional, **keywords):
        finals.append(integrate(*positional, **keywords))
        return finals[-1]

    monkeypatch.setattr(trajectories, "integrate_trajectories", recording)
    bare = equivariance_test(load_hamiltonian(FREE_1D), psi0, **args)
    monkeypatch.setattr(trajectories, "integrate_trajectories",
                        lambda *positional, **keywords: recording(*positional, **{**keywords, "record_history": True}))
    full = equivariance_test(load_hamiltonian(FREE_1D), psi0, **args)
    assert repr(asdict(bare)) == repr(asdict(full))
    without, with_history = finals
    assert (len(without.history), len(with_history.history)) == (1, 11)
    assert without.positions.tobytes() == with_history.positions.tobytes()
    assert without.truncated.tobytes() == with_history.truncated.tobytes()


@pytest.mark.parametrize("substeps", [0, -1])
def test_integration_refuses_a_substep_count_below_one(substeps):
    H, grid, snaps = free_gaussian_snapshots(steps=50)
    ensemble = Ensemble(np.array([[20.0]]))
    with pytest.raises(ValueError, match="substeps"):
        integrate_trajectories(snaps, derive_current_table(H), ensemble, substeps=substeps)


@pytest.mark.parametrize("count", [0, -3])
def test_sampling_refuses_a_count_below_one(count):
    grid = Grid((10.0,), (64,))
    with pytest.raises(ValueError, match="count"):
        sample_density(np.ones(64), grid, count, seed=1)


@pytest.mark.parametrize(
    "bad", [{"count": 0}, {"substeps": 0}, {"substeps": -1}], ids=["count=0", "substeps=0", "substeps=-1"]
)
def test_equivariance_refuses_bad_counts_before_any_work(bad, monkeypatch):
    applications = []
    monkeypatch.setattr(OperatorApplier, "__call__", lambda self, values, t: applications.append(t))
    grid = Grid((40.0,), (128,))
    psi0 = gaussian(grid, center=[20.0], width=1.0)
    args = {"count": 100, "substeps": 4, **bad}
    with pytest.raises(ValueError, match=next(iter(bad))):
        equivariance_test(load_hamiltonian(FREE_1D), psi0, horizon=0.05, seed=2, **args)
    assert applications == []
