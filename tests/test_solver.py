import numpy as np
import pytest

from pilotwave.currents import derive_current_table, eval_current
from pilotwave.errors import NormDriftError, StabilityError
from pilotwave.grids import Grid, GridState
from pilotwave.operators import load_hamiltonian
from pilotwave.solver import (
    EvolutionSpec,
    check_stability,
    continuity_residual,
    evolve,
    norm_drift,
    stability_estimate,
)
from pilotwave.states import gaussian, ho_eigenstate, plane_wave

FREE_1D = 'dim = 1\nterm [2] = "-0.5"\n'
HO_1D = 'dim = 1\nterm [2] = "-0.5"\nterm [0] = "(q1-20)^2/2"\n'
P4_1D = 'dim = 1\nterm [4] = "1"\n'


def density_moments(state):
    x = state.grid.axis_points(0)
    rho = state.density()
    rho = rho / (rho.sum() * state.grid.cell_volume)
    mean = float((x * rho).sum() * state.grid.cell_volume)
    var = float(((x - mean) ** 2 * rho).sum() * state.grid.cell_volume)
    return mean, var


def test_spec_validation():
    with pytest.raises(ValueError):
        EvolutionSpec(dt=0.0, steps=10)
    with pytest.raises(ValueError):
        EvolutionSpec(dt=1e-3, steps=0)
    with pytest.raises(ValueError):
        EvolutionSpec(dt=1e-3, steps=10, stride=0)


def test_stability_guard():
    H = load_hamiltonian(FREE_1D)
    grid = Grid((40.0,), (512,))
    assert stability_estimate(H, grid) > 0
    check_stability(H, grid, EvolutionSpec(dt=1e-3, steps=1))
    with pytest.raises(StabilityError):
        check_stability(H, grid, EvolutionSpec(dt=1.0, steps=1))


def test_evolve_refuses_an_unstable_step():
    H = load_hamiltonian(FREE_1D)
    grid = Grid((40.0,), (512,))
    with pytest.raises(StabilityError, match="exceeds the RK4 limit"):
        evolve(H, gaussian(grid, center=[20.0], width=1.0), EvolutionSpec(dt=1.0, steps=1))


def test_stability_estimate_follows_time_dependent_coefficients():
    H = load_hamiltonian(
        'dim = 2\nterm [2,0] = "-0.5"\nterm [0,1] = "i*cos(t)"\nterm [0,0] = "q1*sin(t)"\n'
    )
    grid = Grid((10.0, 20.0), (32, 64))
    k1, k2 = grid.max_wavenumbers()
    q1_max = grid.axis_points(0)[-1]
    for t in (0.0, 1.0, 2.5):
        expected = 0.5 * k1 ** 2 + abs(np.cos(t)) * k2 + q1_max * abs(np.sin(t))
        assert stability_estimate(H, grid, t) == pytest.approx(expected, rel=1e-12)


def test_free_gaussian_spreading_law():
    H = load_hamiltonian(FREE_1D)
    grid = Grid((40.0,), (512,))
    sigma0 = 0.5
    psi0 = gaussian(grid, center=[20.0], width=sigma0)
    snaps = evolve(H, psi0, EvolutionSpec(dt=1e-3, steps=1000, stride=100))
    for snap in snaps:
        _, var = density_moments(snap)
        expected = sigma0 ** 2 * (1.0 + (snap.t / (2 * sigma0 ** 2)) ** 2)
        assert abs(var - expected) / expected < 1e-3
    assert max(norm_drift(snaps)) < 1e-6


def test_coherent_state_center_oscillates():
    H = load_hamiltonian(HO_1D)
    grid = Grid((40.0,), (512,))
    q0 = 2.0
    # displaced ground state: width 1/sqrt(2) in density deviation
    psi0 = gaussian(grid, center=[20.0 + q0], width=np.sqrt(0.5))
    snaps = evolve(H, psi0, EvolutionSpec(dt=1e-3, steps=2000, stride=200))
    for snap in snaps:
        mean, _ = density_moments(snap)
        assert abs(mean - (20.0 + q0 * np.cos(snap.t))) < 1e-3


def test_ground_state_is_stationary():
    H = load_hamiltonian(HO_1D)
    grid = Grid((40.0,), (256,))
    psi0 = ho_eigenstate(grid, [0], center=[20.0])
    snaps = evolve(H, psi0, EvolutionSpec(dt=1e-3, steps=500, stride=100))
    assert np.max(np.abs(snaps[-1].density() - psi0.density())) < 1e-6


def test_time_dependent_coefficients_keep_norm():
    H = load_hamiltonian(
        'dim = 1\nterm [2] = "-0.5"\nterm [0] = "0.3*cos(t)*cos(0.15707963267948966*q1)"\n'
    )
    grid = Grid((40.0,), (256,))
    psi0 = gaussian(grid, center=[20.0], width=1.0)
    snaps = evolve(H, psi0, EvolutionSpec(dt=1e-3, steps=500, stride=100))
    assert max(norm_drift(snaps)) < 1e-8


def test_evolution_is_linear():
    H = load_hamiltonian(HO_1D)
    grid = Grid((40.0,), (256,))
    a = gaussian(grid, center=[19.0], width=0.8, wavevector=[1.0])
    b = ho_eigenstate(grid, [1], center=[20.0])
    alpha, beta = 0.6 - 0.2j, 0.3 + 0.7j
    combo = GridState(grid, alpha * a.values + beta * b.values)
    spec = EvolutionSpec(dt=1e-3, steps=1, stride=1)
    lhs = evolve(H, combo, spec)[-1].values
    rhs = alpha * evolve(H, a, spec)[-1].values + beta * evolve(H, b, spec)[-1].values
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_step_reversal_restores_state():
    H = load_hamiltonian(HO_1D)
    grid = Grid((40.0,), (256,))
    psi0 = gaussian(grid, center=[20.5], width=0.9)
    spec = EvolutionSpec(dt=1e-3, steps=1, stride=1)
    forward = evolve(H, psi0, spec)[-1]
    # stepping -dt under H equals stepping +dt under -H
    back = evolve(H.scaled(-1.0), forward, spec)[-1]
    assert np.max(np.abs(back.values - psi0.values)) < 1e-9


def test_norm_drift_abort_on_underresolved_state():
    H = load_hamiltonian(FREE_1D)
    grid = Grid((40.0,), (128,))
    rng = np.random.default_rng(8)
    noise = GridState(grid, rng.normal(size=128) + 1j * rng.normal(size=128)).normalized()
    radius = stability_estimate(H, grid)
    spec = EvolutionSpec(dt=2.75 / radius, steps=200, stride=200)
    with pytest.raises(NormDriftError):
        evolve(H, noise, spec)


def test_continuity_residual_free_gaussian():
    H = load_hamiltonian(FREE_1D)
    grid = Grid((40.0,), (512,))
    psi0 = gaussian(grid, center=[19.0], width=0.6, wavevector=[1.0])
    snaps = evolve(H, psi0, EvolutionSpec(dt=1e-3, steps=20, stride=10))
    table = derive_current_table(H)
    res = continuity_residual(H, snaps, lambda s: eval_current(table, s))
    assert res < 1e-3


def test_continuity_residual_stationary_absolute():
    H = load_hamiltonian(HO_1D)
    grid = Grid((40.0,), (256,))
    psi0 = ho_eigenstate(grid, [0], center=[20.0])
    snaps = evolve(H, psi0, EvolutionSpec(dt=1e-3, steps=20, stride=10))
    table = derive_current_table(H)
    res = continuity_residual(H, snaps, lambda s: eval_current(table, s), normalized=False)
    assert res < 1e-8


def test_continuity_residual_p4_packet():
    H = load_hamiltonian(P4_1D)
    grid = Grid((40.0,), (128,))
    psi0 = gaussian(grid, center=[20.0], width=1.5, wavevector=[0.5])
    snaps = evolve(H, psi0, EvolutionSpec(dt=1e-4, steps=20, stride=10))
    table = derive_current_table(H)
    res = continuity_residual(H, snaps, lambda s: eval_current(table, s))
    assert res < 1e-3


def test_continuity_residual_needs_three_snapshots():
    H = load_hamiltonian(FREE_1D)
    grid = Grid((40.0,), (128,))
    psi0 = gaussian(grid, center=[20.0], width=1.0)
    snaps = evolve(H, psi0, EvolutionSpec(dt=1e-3, steps=1, stride=1))
    table = derive_current_table(H)
    with pytest.raises(ValueError):
        continuity_residual(H, snaps, lambda s: eval_current(table, s))


def test_snapshots_carry_times_and_copies():
    H = load_hamiltonian(FREE_1D)
    grid = Grid((40.0,), (128,))
    psi0 = gaussian(grid, center=[20.0], width=1.0)
    snaps = evolve(H, psi0, EvolutionSpec(dt=1e-3, steps=25, stride=10))
    assert [round(s.t, 6) for s in snaps] == [0.0, 0.01, 0.02, 0.025]
    snaps[1].values[:] = 0  # mutating one snapshot must not corrupt others
    assert snaps[2].norm_sq() > 0.5


def test_plane_wave_phase_evolution():
    H = load_hamiltonian(FREE_1D)
    grid = Grid((8 * np.pi,), (64,))
    k = 1.0
    psi0 = plane_wave(grid, [k])
    snaps = evolve(H, psi0, EvolutionSpec(dt=1e-3, steps=100, stride=100))
    expected = psi0.values * np.exp(-1j * (k ** 2 / 2) * snaps[-1].t)
    assert np.max(np.abs(snaps[-1].values - expected)) < 1e-10
