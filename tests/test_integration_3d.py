"""Three-dimensional trajectory machinery and CLI grid precedence."""

import numpy as np
import pytest

from helpers import grid_meshes
from oracles import velocity
from pilotwave.cli import build_parser, _resolve_grid
from pilotwave.currents import derive_current_table, eval_current
from pilotwave.grids import Grid
from pilotwave.multiindex import MultiIndex
from pilotwave.operators import load_hamiltonian
from pilotwave.solver import EvolutionSpec, evolve
from pilotwave.states import gaussian
from pilotwave.trajectories import integrate_trajectories, interpolate, sample_density

STD3D = (
    'dim = 3\n'
    'term [2,0,0] = "-0.5"\n'
    'term [0,2,0] = "-0.5"\n'
    'term [0,0,2] = "-0.5"\n'
)


def test_interpolate_trilinear_exact():
    grid = Grid((4.0, 4.0, 4.0), (8, 8, 8))
    X, Y, Z = grid_meshes(grid)
    values = 1.0 + 2.0 * X - 0.5 * Y + 3.0 * Z
    pts = np.array([[0.25, 1.75, 2.5], [3.1, 0.4, 1.9]])
    expected = 1.0 + 2.0 * pts[:, 0] - 0.5 * pts[:, 1] + 3.0 * pts[:, 2]
    assert np.allclose(interpolate(grid, values, pts), expected)


def test_3d_sampling_and_guided_drift():
    H = load_hamiltonian(STD3D)
    grid = Grid((12.0, 12.0, 12.0), (32, 32, 32))
    k = [1.0, 0.5, 0.25]
    psi0 = gaussian(grid, center=[6.0, 6.0, 6.0], width=1.2, wavevector=k)
    table = derive_current_table(H)
    for axis in range(3):
        e_i = MultiIndex.unit(axis + 1, 3)
        entries = table.axes[axis]
        assert entries[(e_i, MultiIndex((0,) * 3))].constant_value() == -0.5j
    j = eval_current(table, psi0)
    # the packet's wrap tail on this compact box limits the velocity to ~1e-5
    assert velocity(psi0, j, [6.0, 6.0, 6.0]) == pytest.approx(k, abs=1e-4)

    snaps = evolve(H, psi0, EvolutionSpec(dt=1e-3, steps=100, stride=25))
    ensemble = sample_density(psi0.density(), grid, 150, seed=12)
    final = integrate_trajectories(snaps, table, ensemble, substeps=2)
    T = snaps[-1].t
    drift = (final.positions - ensemble.positions).mean(axis=0)
    assert np.allclose(drift, np.asarray(k) * T, atol=0.02)
    assert final.truncated_fraction() == 0.0


def test_grid_dimension_cap():
    from pilotwave.errors import GridError

    with pytest.raises(GridError):
        Grid((4.0,) * 4, (8,) * 4)


def test_cli_grid_precedence_flags_beat_state_file():
    """The flags set the grid, over the defaults; a state file sets none (its grid
    and domain lines are refused)."""
    parser = build_parser()
    args = parser.parse_args(
        ["simulate", "h.ham", "--state", "s.st", "--grid", "128", "--domain", "20"]
    )
    grid = _resolve_grid(args, 1)
    assert grid.shape == (128,)
    assert grid.lengths == (20.0,)
    # without flags the defaults apply
    args2 = parser.parse_args(["simulate", "h.ham", "--state", "s.st"])
    grid2 = _resolve_grid(args2, 1)
    assert grid2.shape == (256,)
    assert grid2.lengths == (40.0,)
