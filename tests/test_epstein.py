import math

import numpy as np
import pytest

from helpers import band_limited_state, centered_spec, grid_meshes, random_hermitian_operator
from oracles import green_function
from pilotwave.currents import derive_current_table, eval_current, source_term
from pilotwave.epstein import nonlocal_current, poisson_solve
from pilotwave.errors import PilotwaveError
from pilotwave.grids import Grid, spectral_divergence
from pilotwave.operators import load_hamiltonian, require_hermitian
from pilotwave.states import gaussian, ho_eigenstate, superposition

STANDARD_2D = 'dim = 2\nterm [2,0] = "-0.5"\nterm [0,2] = "-0.5"\n'


def test_green_function_values():
    assert green_function(3, [1.0, 0.0, 0.0]) == pytest.approx(-1.0 / (4 * math.pi))
    assert green_function(2, [1.0, 0.0]) == pytest.approx(0.0)
    assert green_function(2, [math.e, 0.0]) == pytest.approx(1.0 / (2 * math.pi))
    # N=4: -Gamma(1)/(4 pi^2 r^2)
    assert green_function(4, [2.0, 0.0, 0.0, 0.0]) == pytest.approx(
        -1.0 / (4 * math.pi ** 2 * 4.0)
    )


def test_green_function_guards():
    with pytest.raises(PilotwaveError):
        green_function(3, [0.0, 0.0, 0.0])
    with pytest.raises(PilotwaveError):
        green_function(1, [1.0])


def test_green_function_harmonic_away_from_origin():
    # 7-point finite-difference Laplacian on a patch excluding the origin
    h = 1e-2
    rng = np.random.default_rng(3)
    for _ in range(20):
        q = rng.uniform(1.0, 3.0, 3) * rng.choice([-1.0, 1.0], 3)
        lap = -6.0 * green_function(3, q)
        for axis in range(3):
            for sign in (-1.0, 1.0):
                shifted = q.copy()
                shifted[axis] += sign * h
                lap += green_function(3, shifted)
        lap /= h * h
        assert abs(lap) < 1e-3


def test_poisson_single_mode():
    grid = Grid((10.0,), (64,))
    x = grid.axis_points(0)
    k = 2 * np.pi / 10.0
    source = np.sin(k * x)
    sol = poisson_solve(source, grid)
    assert np.max(np.abs(sol.values - (-1.0 / k ** 2) * np.sin(k * x))) < 1e-12
    assert abs(np.mean(sol.values)) < 1e-14
    assert sol.residual < 1e-12


def test_poisson_zero_source():
    grid = Grid((10.0, 10.0), (32, 32))
    sol = poisson_solve(np.zeros(grid.shape), grid)
    assert np.max(np.abs(sol.values)) == 0.0


def test_poisson_rejects_nonzero_mean():
    grid = Grid((10.0,), (64,))
    with pytest.raises(PilotwaveError):
        poisson_solve(np.ones(grid.shape), grid)


def test_poisson_2d_manufactured():
    grid = Grid((2 * np.pi, 2 * np.pi), (64, 64))
    X, Y = grid_meshes(grid)
    phi_exact = np.sin(X) * np.cos(2 * Y) + 0.3 * np.sin(3 * Y)
    lap = -(1 + 4) * np.sin(X) * np.cos(2 * Y) - 0.3 * 9 * np.sin(3 * Y)
    sol = poisson_solve(lap, grid)
    assert np.max(np.abs(sol.values - phi_exact)) < 1e-12


def test_nonlocal_current_satisfies_continuity():
    H = load_hamiltonian(STANDARD_2D)
    grid = Grid((20.0, 20.0), (64, 64))
    psi = gaussian(grid, center=[10.0, 10.0], width=1.0, wavevector=[1.0, 2.0])
    I = source_term(H, psi)
    j = nonlocal_current(H, psi)
    resid = np.max(np.abs(j.divergence() - I))
    assert resid < 1e-8 * np.max(np.abs(I))


def test_nonlocal_current_zero_for_zero_source():
    # real stationary superposition at t=0 has I identically zero
    H = load_hamiltonian(
        'dim = 2\nterm [2,0] = "-0.5"\nterm [0,2] = "-0.5"\n'
        'term [0,0] = "((q1-10)^2 + (q2-10)^2)/2"\n'
    )
    grid = Grid((20.0, 20.0), (64, 64))
    psi = superposition(
        [
            (1.0, ho_eigenstate(grid, [0, 0], center=[10.0, 10.0])),
            (0.5, ho_eigenstate(grid, [1, 0], center=[10.0, 10.0])),
        ]
    )
    I = source_term(H, psi)
    assert np.max(np.abs(I)) < 1e-9
    j = nonlocal_current(H, psi)
    assert j.max_abs() < 1e-9


def test_nonlocal_differs_pointwise_but_not_in_divergence():
    H = load_hamiltonian(STANDARD_2D)
    grid = Grid((20.0, 20.0), (64, 64))
    psi = gaussian(grid, center=[10.0, 10.0], width=1.0, wavevector=[1.0, 2.0])
    I = source_term(H, psi)
    j_nonlocal = nonlocal_current(H, psi)
    j_local = eval_current(derive_current_table(H), psi)
    diff = [a - b for a, b in zip(j_nonlocal.components, j_local.components)]
    div_diff = np.max(np.abs(spectral_divergence(diff, grid)))
    assert div_diff < 1e-8 * np.max(np.abs(I))
    # the fields themselves genuinely differ: currents are fixed by
    # continuity only up to a divergence-free part
    pointwise = max(np.max(np.abs(d)) for d in diff)
    assert pointwise > 1e-2


def test_nonlocal_current_3d():
    rng = np.random.default_rng(9)
    grid = Grid((10.0, 10.0, 10.0), (64, 64, 64))
    center = grid.center()
    H = random_hermitian_operator(rng, 3, 2, center, decay=1.2)
    psi = band_limited_state(grid, rng, max_mode=1, envelope_kappa=6.0)
    I = source_term(H, psi)
    assert np.max(np.abs(I)) > 1e-3  # non-degenerate draw
    j = nonlocal_current(require_hermitian(H, centered_spec(center)), psi)
    resid = np.max(np.abs(j.divergence() - I))
    assert resid < 1e-8 * np.max(np.abs(I))


def test_nonlocal_requires_two_dimensions():
    H = load_hamiltonian('dim = 1\nterm [2] = "-0.5"\n')
    grid = Grid((20.0,), (64,))
    psi = gaussian(grid, center=[10.0], width=1.0)
    with pytest.raises(PilotwaveError):
        nonlocal_current(H, psi)



STANDARD_3D = 'dim = 3\nterm [2,0,0] = "-0.5"\nterm [0,2,0] = "-0.5"\nterm [0,0,2] = "-0.5"\n'


@pytest.mark.parametrize("text", [STANDARD_2D, STANDARD_3D], ids=["2d", "3d"])
def test_nonlocal_current_transforms_each_field_once(text, monkeypatch):
    """Forward FFTs: psi for H psi (folded kinetic multiplier) and the source
    of the Poisson solve over all axes; the potential along each axis once,
    shared by the residual's Laplacian and the gradient: 2 + dim."""
    H = require_hermitian(load_hamiltonian(text))
    grid = Grid((10.0,) * H.dim, (16,) * H.dim)
    psi = gaussian(grid, width=1.0, wavevector=[1.0] + [0.5] * (H.dim - 1))
    forward = []
    original = np.fft.fftn

    def counting(a, *args, **kwargs):
        forward.append((np.shape(a), kwargs.get("axes")))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fftn", counting)
    nonlocal_current(H, psi)
    every_axis = tuple(range(H.dim))
    one_axis = [(axis,) for axis in every_axis]
    assert len(forward) == 2 + H.dim
    assert [shape for shape, _ in forward] == [grid.shape] * len(forward)
    assert [axes for _, axes in forward] == [every_axis, None] + one_axis
