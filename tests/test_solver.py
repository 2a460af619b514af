import math

import numpy as np
import pytest

from helpers import continuity_identity_defect, dense_propagator
from pilotwave import solver
from pilotwave.errors import NormDriftError, StabilityError
from pilotwave.grids import DerivativeCache, Grid, GridState
from pilotwave.operators import OperatorApplier, hermiticity_violations, load_hamiltonian
from pilotwave.solver import (
    EvolutionSpec,
    _check_dt,
    chebyshev_coefficients,
    evolve,
    norm_drift,
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


@pytest.mark.parametrize("dt", [float("nan"), float("inf"), -float("inf")])
def test_spec_refuses_non_finite_dt(dt):
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        EvolutionSpec(dt=dt, steps=10, stride=5)


def test_spec_validation():
    with pytest.raises(ValueError):
        EvolutionSpec(dt=0.0, steps=10)
    with pytest.raises(ValueError):
        EvolutionSpec(dt=1e-3, steps=0)
    with pytest.raises(ValueError):
        EvolutionSpec(dt=1e-3, steps=10, stride=0)
    for fields, name in [({"steps": 2.5}, "steps"), ({"steps": float("nan")}, "steps"),
                         ({"steps": 10, "stride": float("nan")}, "stride")]:
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            EvolutionSpec(dt=1e-3, **fields)
    assert EvolutionSpec(dt=1e-3, steps=np.int64(10), stride=np.int32(5)).steps == 10


def test_stability_guard():
    H = load_hamiltonian(FREE_1D)
    grid = Grid((40.0,), (512,))
    radius = H.realize(grid).spectral_radius(0.0)
    assert radius > 0
    _check_dt(1e-3, radius)
    with pytest.raises(StabilityError):
        _check_dt(1.0, radius)


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
        assert H.realize(grid).spectral_radius(t) == pytest.approx(expected, rel=1e-12)


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
    # The weak drive makes H time dependent, so the run takes RK4 near its stability limit.
    H = load_hamiltonian(FREE_1D + 'term [0] = "1e-3*cos(t)"\n')
    grid = Grid((40.0,), (128,))
    rng = np.random.default_rng(8)
    noise = GridState(grid, rng.normal(size=128) + 1j * rng.normal(size=128)).normalized()
    radius = H.realize(grid).spectral_radius(0.0)
    spec = EvolutionSpec(dt=2.75 / radius, steps=200, stride=200)
    with pytest.raises(NormDriftError):
        evolve(H, noise, spec)


def test_continuity_identity_free_gaussian():
    H = load_hamiltonian(FREE_1D)
    grid = Grid((40.0,), (512,))
    psi0 = gaussian(grid, center=[19.0], width=0.6, wavevector=[1.0])
    snaps = evolve(H, psi0, EvolutionSpec(dt=1e-3, steps=20, stride=10))
    assert continuity_identity_defect(H, snaps) < 1e-10  # 1.3e-13


def test_continuity_identity_stationary_absolute():
    H = load_hamiltonian(HO_1D)
    grid = Grid((40.0,), (256,))
    psi0 = ho_eigenstate(grid, [0], center=[20.0])
    snaps = evolve(H, psi0, EvolutionSpec(dt=1e-3, steps=20, stride=10))
    assert continuity_identity_defect(H, snaps, relative=False) < 1e-12  # 6.9e-15


def test_continuity_identity_p4_packet():
    H = load_hamiltonian(P4_1D)
    grid = Grid((40.0,), (128,))
    psi0 = gaussian(grid, center=[20.0], width=1.5, wavevector=[0.5])
    snaps = evolve(H, psi0, EvolutionSpec(dt=1e-4, steps=20, stride=10))
    assert continuity_identity_defect(H, snaps) < 1e-10  # 2.4e-12


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


# ---------------------------------------------------------------------------
# Chebyshev propagation of time-independent operators

QUARTIC_1D = 'dim = 1\nterm [4] = "0.05"\nterm [2] = "-0.5"\nterm [0] = "(q1-20)^2/8"\n'
LATTICE_2D = (
    'dim = 2\nterm [2,0] = "-0.5"\nterm [0,2] = "-0.5"\nterm [1,0] = "0.3*i"\n'
    'term [0,0] = "0.4*cos(0.6283185307179586*q1) + 0.3*sin(1.2566370614359172*q2)"\n'
)
DRIVEN_1D = FREE_1D + 'term [0] = "0.1*cos(0.15707963267948966*q1)*cos(t)"\n'
# the quartic plus (f p + p f) / 2 with f = 1e-3 sin(w q): a derivative term
# with a variable coefficient keeps it off the dense path
VARIABLE_QUARTIC_1D = (
    'dim = 1\nterm [4] = "0.05"\nterm [2] = "-0.5"\nterm [1] = "-1e-3*i*sin(0.15707963267948966*q1)"\n'
    'term [0] = "(q1-20)^2/8 - 5e-4*i*0.15707963267948966*cos(0.15707963267948966*q1)"\n'
)
# a large negative offset: the interval's center is far from 0
SHIFTED_QUARTIC_1D = 'dim = 1\nterm [4] = "0.05"\nterm [2] = "-0.5"\nterm [0] = "(q1-20)^2/8 - 500"\n'


def count_applications(monkeypatch) -> list:
    calls = []
    original = OperatorApplier.__call__

    def counting(self, values, t):
        calls.append(t)
        return original(self, values, t)

    monkeypatch.setattr(OperatorApplier, "__call__", counting)
    return calls


EQUIV1D_GRID = Grid((40.0,), (256,))


def equiv1d_like_spec(H, horizon):
    """The schedule equivariance_test chooses: dt near 1/R and 100 snapshots."""
    steps = max(100, math.ceil(horizon * H.realize(EQUIV1D_GRID).spectral_radius(0.0)))
    return EvolutionSpec(dt=horizon / steps, steps=steps, stride=max(1, steps // 100))


def relative_error(values, exact):
    return float(np.linalg.norm(values - exact) / np.linalg.norm(exact))


@pytest.mark.parametrize(
    "text, grid, state",
    [
        (QUARTIC_1D, Grid((40.0,), (128,)), {"center": [18.0], "width": 0.8, "wavevector": [1.0]}),
        (LATTICE_2D, Grid((10.0, 10.0), (16, 16)),
         {"center": [5.0, 4.0], "width": 1.2, "wavevector": [0.6, -0.6]}),
        (SHIFTED_QUARTIC_1D, Grid((40.0,), (128,)),
         {"center": [18.0], "width": 0.8, "wavevector": [1.0]}),
    ],
    ids=["quartic-1d", "lattice-2d", "shifted-quartic-1d"],
)
def test_series_matches_the_dense_propagator(text, grid, state):
    H = load_hamiltonian(text)
    psi0 = gaussian(grid, **state)
    # 10 steps of 1/R per snapshot, then a shorter last interval of 4 steps
    spec = EvolutionSpec(dt=1.0 / H.realize(grid).spectral_radius(0.0), steps=10 * 12 + 4, stride=10)
    snaps = evolve(H, psi0, spec)
    for snap in (snaps[len(snaps) // 2], snaps[-2], snaps[-1]):
        exact = dense_propagator(H, grid, snap.t - psi0.t) @ psi0.values.reshape(-1)
        assert relative_error(snap.values.reshape(-1), exact) <= 1e-11


def bessel_series(k: int, a: float) -> float:
    return sum((-1) ** m * (a / 2) ** (2 * m + k) / (math.factorial(m) * math.factorial(m + k))
               for m in range(30))


@pytest.mark.parametrize("a", [1e-6, 0.21, 1.0, 2.75])
def test_coefficients_match_the_bessel_power_series(a):
    c = chebyshev_coefficients(a)
    expected = [(2 - (k == 0)) * (-1j) ** k * bessel_series(k, a) for k in range(len(c))]
    assert np.max(np.abs(c - expected)) <= 1e-15
    assert len(c) - 1 > a


@pytest.mark.parametrize("a", [0.21, 1.0, 2.75, 84.0, 550.0])
def test_coefficients_sum_to_the_exponential(a):
    c = chebyshev_coefficients(a)
    x = np.linspace(-1.0, 1.0, 201)
    series = np.polynomial.chebyshev.chebval(x, c)
    assert np.max(np.abs(series - np.exp(-1j * a * x))) <= 1e-12
    assert len(c) - 1 > a


def test_time_dependent_operator_steps_rk4(monkeypatch):
    grid = Grid((40.0,), (128,))
    H = load_hamiltonian(DRIVEN_1D)
    calls = count_applications(monkeypatch)
    spec = EvolutionSpec(dt=1.0 / H.realize(grid).spectral_radius(0.0), steps=10 * 12 + 4, stride=10)
    evolve(H, gaussian(grid, center=[20.0], width=1.0), spec)
    assert len(calls) == 4 * spec.steps


def test_stride_one_steps_rk4(monkeypatch):
    grid = Grid((40.0,), (128,))
    H = load_hamiltonian(QUARTIC_1D)
    calls = count_applications(monkeypatch)
    spec = EvolutionSpec(dt=1.0 / H.realize(grid).spectral_radius(0.0), steps=30, stride=1)
    evolve(H, gaussian(grid, center=[18.0], width=0.8), spec)
    assert len(calls) == 4 * spec.steps


def test_snapshot_cadence_takes_the_series(monkeypatch):
    H = load_hamiltonian(VARIABLE_QUARTIC_1D)
    calls = count_applications(monkeypatch)
    spec = equiv1d_like_spec(H, horizon=0.2)
    evolve(H, gaussian(EQUIV1D_GRID, center=[18.0], width=0.5, wavevector=[1.0]), spec)
    applier = H.realize(EQUIV1D_GRID)
    low, high = applier.spectral_interval(0.0)
    full, last = divmod(spec.steps, spec.stride)

    def applications(half_width):
        terms = full * len(chebyshev_coefficients(half_width * spec.stride * spec.dt))
        if last:
            terms += len(chebyshev_coefficients(half_width * last * spec.dt))
        return terms - (full + (last > 0))  # T_0 needs no application

    assert len(calls) == applications((high - low) / 2)
    assert len(calls) < 4 * spec.steps
    # H is bounded below, so its interval is about half of [-R, R]
    assert len(calls) < 0.7 * applications(applier.spectral_radius(0.0))


def test_series_snapshot_times_equal_rk4s(monkeypatch):
    grid = Grid((40.0,), (128,))
    psi0 = gaussian(grid, center=[18.0], width=0.8).copy(t=0.3)
    exact_H = load_hamiltonian(QUARTIC_1D)
    rk4_H = load_hamiltonian(QUARTIC_1D + 'term [1] = "1e-9*i*cos(t)"\n')
    spec = EvolutionSpec(dt=1.0 / exact_H.realize(grid).spectral_radius(0.0), steps=10 * 12 + 4, stride=10)
    calls = count_applications(monkeypatch)
    exact = evolve(exact_H, psi0, spec)
    assert len(calls) < 4 * spec.steps
    calls.clear()
    rk4 = evolve(rk4_H, psi0, spec)
    assert len(calls) == 4 * spec.steps
    assert [s.t for s in exact] == [s.t for s in rk4]
    assert len(exact) == 1 + 12 + 1
    assert max(relative_error(a.values, b.values) for a, b in zip(exact, rk4)) < 1e-6


def test_series_norm_is_kept_on_an_underresolved_state():
    H = load_hamiltonian(FREE_1D)
    grid = Grid((40.0,), (128,))
    rng = np.random.default_rng(8)
    noise = GridState(grid, rng.normal(size=128) + 1j * rng.normal(size=128)).normalized()
    radius = H.realize(grid).spectral_radius(0.0)
    snaps = evolve(H, noise, EvolutionSpec(dt=2.75 / radius, steps=200, stride=200))
    assert max(norm_drift(snaps)) <= 1e-12


def test_series_with_an_understated_radius_raises(monkeypatch):
    H = load_hamiltonian(QUARTIC_1D)
    spec = equiv1d_like_spec(H, horizon=0.2)
    low, high = H.realize(EQUIV1D_GRID).spectral_interval(0.0)
    understated = (low, low + (high - low) / 4)
    monkeypatch.setattr(OperatorApplier, "spectral_interval", lambda self, t: understated)
    calls = count_applications(monkeypatch)
    with pytest.raises(NormDriftError):
        evolve(H, gaussian(EQUIV1D_GRID, center=[18.0], width=0.5, wavevector=[1.0]), spec)
    # whole intervals of the series, stopped at a snapshot long before the end
    half_width = (understated[1] - understated[0]) / 2
    per_interval = len(chebyshev_coefficients(half_width * spec.stride * spec.dt)) - 1
    assert len(calls) % per_interval == 0
    assert 0 < len(calls) // per_interval < 10


def test_constant_operator_is_a_phase(monkeypatch):
    H = load_hamiltonian('dim = 1\nterm [0] = "3"\n')
    grid = Grid((40.0,), (64,))
    psi0 = gaussian(grid, center=[18.0], width=0.8, wavevector=[1.0])
    assert H.realize(grid).spectral_interval(0.0) == (3.0, 3.0)
    calls = count_applications(monkeypatch)
    snaps = evolve(H, psi0, EvolutionSpec(dt=0.01, steps=10 * 12 + 4, stride=10))
    assert calls == []
    for snap in snaps:
        exact = dense_propagator(H, grid, snap.t - psi0.t) @ psi0.values.reshape(-1)
        assert relative_error(snap.values.reshape(-1), exact) <= 1e-14


VARIABLE_MASS_1D = (
    'dim = 1\nterm [4] = "0.002"\nterm [2] = "-0.5 - 0.2*cos(0.7853981633974483*q1)"\n'
    'term [1] = "0.2*0.7853981633974483*sin(0.7853981633974483*q1)"\nterm [0] = "(q1-4)^2"\n'
)


def test_shifted_series_equals_the_series_on_the_full_interval(monkeypatch):
    """c d^4/dq^4 - d/dq (m(q)/2) d/dq + V: the dense check needs an exactly
    Hermitian grid matrix, so the reference is the same series on [-R, R]."""
    H = load_hamiltonian(VARIABLE_MASS_1D)
    grid = Grid((8.0,), (64,))
    assert not hermiticity_violations(H)
    applier = H.realize(grid)
    radius = applier.spectral_radius(0.0)
    low, high = applier.spectral_interval(0.0)
    assert -radius < low and high - low < 1.5 * radius
    psi0 = gaussian(grid, center=[4.5], width=0.6, wavevector=[1.0])
    spec = EvolutionSpec(dt=1.0 / radius, steps=10 * 12 + 4, stride=10)
    shifted = evolve(H, psi0, spec)
    monkeypatch.setattr(OperatorApplier, "spectral_interval", lambda self, t: (-radius, radius))
    reference = evolve(H, psi0, spec)
    assert max(relative_error(a.values, b.values) for a, b in zip(shifted, reference)) <= 1e-11


@pytest.mark.parametrize("text, grid", [(QUARTIC_1D, EQUIV1D_GRID), (LATTICE_2D, Grid((10.0, 20.0), (16, 32)))],
                         ids=["1d-real", "2d-complex"])
def test_eigh_diagonalizes_the_applier(text, grid):
    H = load_hamiltonian(text)
    assert not hermiticity_violations(H)
    applier = H.realize(grid)
    energies, vectors = applier.eigh()
    assert np.iscomplexobj(vectors) == (grid.dim == 2)
    rng = np.random.default_rng(5)
    values = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    diagonalized = vectors @ (energies * (vectors.conj().T @ values.reshape(-1)))
    assert relative_error(diagonalized, applier(values, 0.0).reshape(-1)) <= 1e-12


@pytest.mark.parametrize("text", [
    FREE_1D + 'term [0] = "0.1*cos(t)"\n',
    VARIABLE_MASS_1D,
    FREE_1D + 'term [0] = "(q1-20)^2/8 + 1e-3*i*exp(-100*(q1-20.3)^2)"\n',
    FREE_1D + 'term [1] = "1"\n',
], ids=["explicit-t", "variable-mass", "complex-potential", "complex-multiplier"])
def test_eigh_needs_a_hermitian_grid_matrix(text):
    assert load_hamiltonian(text).realize(Grid((40.0,), (64,))).eigh() is None


@pytest.mark.parametrize("text, grid, state, spec", [
    (QUARTIC_1D, EQUIV1D_GRID, {"center": [18.0], "width": 0.5, "wavevector": [1.0]}, None),
    (LATTICE_2D, Grid((10.0, 10.0), (16, 16)), {"center": [5.0, 4.0], "width": 1.2, "wavevector": [0.6, -0.6]},
     (2000, 20)),
], ids=["1d", "2d"])
def test_dense_snapshots_agree_with_the_series(text, grid, state, spec, monkeypatch):
    """The Chebyshev series is the independent reference: each dense snapshot
    is within 1e-10 of it, relative in the max-norm, at the same time."""
    H = load_hamiltonian(text)
    psi0 = gaussian(grid, **state)
    if spec is None:
        spec = equiv1d_like_spec(H, horizon=1.0)
    else:
        spec = EvolutionSpec(dt=1.0 / H.realize(grid).spectral_radius(0.0), steps=spec[0], stride=spec[1])
    calls = count_applications(monkeypatch)
    dense = evolve(H, psi0, spec)
    assert calls == []
    monkeypatch.setattr(solver, "MAX_DENSE_POINTS", 0)
    series = evolve(H, psi0, spec)
    assert math.prod(grid.shape) ** 2 / 32 <= len(calls) < 4 * spec.steps
    assert [s.t for s in dense] == [s.t for s in series]
    for a, b in zip(dense, series):
        assert np.max(np.abs(a.values - b.values)) <= 1e-10 * np.max(np.abs(b.values))


def test_the_dense_path_is_bounded_by_snapshots_not_steps(monkeypatch):
    """2 * 10^6 steps in 100 snapshot intervals run with no application of H;
    with stride 1 the step-by-step paths' refusal applies."""
    H = load_hamiltonian(FREE_1D)
    grid = Grid((40.0,), (64,))
    psi0 = gaussian(grid, center=[20.0], width=1.0, wavevector=[1.0])
    calls = count_applications(monkeypatch)
    snaps = evolve(H, psi0, EvolutionSpec(dt=1e-6, steps=2 * 10**6, stride=2 * 10**4))
    assert calls == [] and len(snaps) == 101
    exact = dense_propagator(H, grid, snaps[-1].t) @ psi0.values.reshape(-1)
    assert relative_error(snaps[-1].values.reshape(-1), exact) <= 1e-12
    with pytest.raises(StabilityError, match=r"^2000000 RK4 steps exceed MAX_RK4_STEPS = 1000000; "
                                             "coarsen the grid or shorten the run$"):
        evolve(H, psi0, EvolutionSpec(dt=1e-6, steps=2 * 10**6, stride=1))


def test_a_run_above_the_step_budget_builds_no_series(monkeypatch):
    """Off the dense path a run above MAX_RK4_STEPS is refused before its
    series is built: one interval of 2 * 10^6 steps of dt = 1 would need about
    10^7 terms here."""
    monkeypatch.setattr(solver, "chebyshev_coefficients", lambda a: pytest.fail(f"series for a = {a}"))
    psi0 = gaussian(Grid((8.0,), (64,)), center=[4.5], width=0.6, wavevector=[1.0])
    with pytest.raises(StabilityError, match=r"^2000000 RK4 steps exceed MAX_RK4_STEPS = 1000000; "):
        evolve(load_hamiltonian(VARIABLE_MASS_1D), psi0, EvolutionSpec(dt=1.0, steps=2 * 10**6, stride=2 * 10**6))


def test_series_are_built_only_for_intervals_that_run(monkeypatch):
    """Both intervals' series when the series path runs; the full interval's alone when RK4
    wins; none at h dt >= 4, where a series of more than h stride dt terms cannot win.  Every
    a given to chebyshev_coefficients is recorded, and one above 10^4 fails before it is built."""
    H = load_hamiltonian(VARIABLE_MASS_1D)
    grid = Grid((8.0,), (64,))
    psi0 = gaussian(grid, center=[4.5], width=0.6, wavevector=[1.0])
    applier = H.realize(grid)
    low, high = applier.spectral_interval(0.0)
    half_width = (high - low) / 2
    recorded = []
    original = solver.chebyshev_coefficients

    def recording(a):
        recorded.append(a)
        if a > 1e4:
            pytest.fail(f"series for a = {a}")
        return original(a)

    monkeypatch.setattr(solver, "chebyshev_coefficients", recording)
    dt = 1.0 / applier.spectral_radius(0.0)
    evolve(H, psi0, EvolutionSpec(dt=dt, steps=10 * 12 + 4, stride=10))
    assert recorded == [half_width * 10 * dt, half_width * 4 * dt]
    # 3 steps of 1e-3 at stride 2 take RK4; stride 10^6 over 2 steps is the run with stride 2
    for steps, stride in [(3, 2), (2, 10**6)]:
        recorded.clear()
        evolve(H, psi0, EvolutionSpec(dt=1e-3, steps=steps, stride=stride))
        assert recorded == [half_width * 2 * 1e-3]
    recorded.clear()
    assert half_width * 1.0 >= 4
    with pytest.raises(StabilityError, match="exceeds the RK4 limit"):
        evolve(H, psi0, EvolutionSpec(dt=1.0, steps=1000, stride=1000))
    assert recorded == []


@pytest.mark.parametrize("dt, steps, stride", [(1e-3, 2, 10**6), (0.002, 40, 10**3)], ids=["rk4", "series"])
def test_a_stride_above_steps_is_the_run_with_stride_steps(dt, steps, stride, monkeypatch):
    """Snapshots at 0 and at steps alone: the same path, applications and bits as stride = steps."""
    H = load_hamiltonian(VARIABLE_MASS_1D)
    psi0 = gaussian(Grid((8.0,), (64,)), center=[4.5], width=0.6, wavevector=[1.0])
    calls = count_applications(monkeypatch)
    reference = evolve(H, psi0, EvolutionSpec(dt=dt, steps=steps, stride=steps))
    applications = len(calls)
    calls.clear()
    snaps = evolve(H, psi0, EvolutionSpec(dt=dt, steps=steps, stride=stride))
    assert len(calls) == applications
    assert [s.t for s in snaps] == [s.t for s in reference] == [0.0, steps * dt]
    assert all(np.array_equal(a.values, b.values) for a, b in zip(snaps, reference))


def count_ffts(monkeypatch) -> list:
    calls = []
    for name in ("fftn", "ifftn"):
        original = getattr(np.fft, name)

        def counted(a, *args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


def test_constant_terms_share_one_inverse_fft(monkeypatch):
    grid = Grid((40.0,), (128,))
    applier = load_hamiltonian(QUARTIC_1D).realize(grid)
    values = gaussian(grid, center=[18.0], width=0.8, wavevector=[1.0]).values
    calls = count_ffts(monkeypatch)
    applier(values, 0.0)
    assert calls == ["fftn", "ifftn"]


@pytest.mark.parametrize("text, shape", [(QUARTIC_1D, (128,)), (LATTICE_2D, (16, 16)),
                                         (DRIVEN_1D, (128,))])
def test_folded_applier_equals_the_term_sum(text, shape):
    H = load_hamiltonian(text)
    grid = Grid((40.0,) * len(shape), shape)
    rng = np.random.default_rng(3)
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    t = 0.7
    axes = grid.axis_vectors()
    applier = H.realize(grid)
    derivatives = DerivativeCache(values, grid)
    expected = sum(
        np.broadcast_to(coef.evaluate_on(axes, t), shape) * derivatives.derivative(n)
        for n, coef in H.terms.items()
    )
    out = applier(values, t)
    assert np.linalg.norm(out - expected) <= 1e-13 * np.linalg.norm(expected)
    grids = applier.coefficient_grids(t)
    assert set(grids) == set(H.terms)
    radius = 0.0
    for n, coef_grid in grids.items():
        assert np.array_equal(coef_grid, np.broadcast_to(H.terms[n].evaluate_on(axes, t), shape))
        radius += float(np.max(np.abs(coef_grid))) * math.prod(
            k ** p for k, p in zip(grid.max_wavenumbers(), n.entries))
    assert applier.spectral_radius(t) == radius
