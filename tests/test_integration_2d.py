"""Cross-module scenarios in two dimensions plus time-dependent coefficients."""

import json

import numpy as np
import pytest

from helpers import continuity_identity_defect, no_child_left  # noqa: F401  (autouse fixture)
from oracles import velocity
from pilotwave import expr
from pilotwave.cli import main
from pilotwave.currents import derive_current_table, eval_current
from pilotwave.grids import Grid
from pilotwave.multiindex import MultiIndex
from pilotwave.operators import DifferentialOperator, hermiticity_violations, load_hamiltonian
from pilotwave.solver import EvolutionSpec, evolve
from pilotwave.states import gaussian
from pilotwave.trajectories import (
    equivariance_test,
    integrate_trajectories,
    sample_density,
)

STD2D = 'dim = 2\nterm [2,0] = "-0.5"\nterm [0,2] = "-0.5"\n'


def test_velocity_2d_drifting_packet_center():
    H = load_hamiltonian(STD2D)
    grid = Grid((20.0, 20.0), (64, 64))
    psi = gaussian(grid, center=[10.0, 10.0], width=1.0, wavevector=[1.0, 2.0])
    j = eval_current(derive_current_table(H), psi)
    v = velocity(psi, j, [10.0, 10.0])
    assert v == pytest.approx([1.0, 2.0], abs=1e-6)


def test_equivariance_2d_marginals():
    H = load_hamiltonian(STD2D)
    grid = Grid((20.0, 20.0), (64, 64))
    psi0 = gaussian(grid, center=[9.0, 10.0], width=0.8, wavevector=[1.0, 0.5])
    spec = EvolutionSpec(dt=5e-4, steps=600, stride=20)
    report = equivariance_test(
        H, psi0, count=2000, horizon=0.3, seed=13, evolution_spec=spec, substeps=2
    )
    assert report.valid
    assert report.truncated_fraction == 0.0
    assert report.ks_distance < 0.06
    # statistically compatible with the sampler's own baseline
    assert report.ks_distance < 2.0 * max(report.baseline_ks, 1.63 / np.sqrt(2000))


def test_equivariance_ks_ratio_free_gaussian():
    H = load_hamiltonian('dim = 1\nterm [2] = "-0.5"\n')
    grid = Grid((40.0,), (512,))
    psi0 = gaussian(grid, center=[18.0], width=0.5, wavevector=[1.0])
    spec = EvolutionSpec(dt=1e-3, steps=500, stride=10)
    report = equivariance_test(
        H, psi0, count=3000, horizon=0.5, seed=29, evolution_spec=spec, substeps=2
    )
    assert report.ks_distance < 2.0 * max(report.baseline_ks, 1.63 / np.sqrt(3000))


def test_2d_trajectories_drift_both_axes():
    H = load_hamiltonian(STD2D)
    grid = Grid((20.0, 20.0), (64, 64))
    psi0 = gaussian(grid, center=[9.0, 9.0], width=2.0, wavevector=[1.0, 2.0])
    snaps = evolve(H, psi0, EvolutionSpec(dt=5e-4, steps=400, stride=20))
    table = derive_current_table(H)
    ensemble = sample_density(psi0.density(), grid, 200, seed=2)
    final = integrate_trajectories(snaps, table, ensemble, substeps=2)
    T = snaps[-1].t
    displacement = final.positions - ensemble.positions
    assert np.abs(displacement[:, 0].mean() - 1.0 * T) < 0.02
    assert np.abs(displacement[:, 1].mean() - 2.0 * T) < 0.02


def test_time_dependent_current_table():
    # h1 = -i (1 + sin(t)/2) stays anti-conjugate at every t, so the operator
    # is Hermitian and the current is (1 + sin(t)/2) rho
    H = DifferentialOperator(
        1, {MultiIndex((1,)): expr.parse("-i*(1 + sin(t)/2)", 1)}
    )
    assert not hermiticity_violations(H)
    table = derive_current_table(H)
    grid = Grid((20.0,), (128,))
    psi = gaussian(grid, center=[10.0], width=1.0, wavevector=[0.7])
    for t in (0.0, 0.4, 1.3):
        j = eval_current(table, psi.copy(t=t))
        expected = (1.0 + np.sin(t) / 2.0) * psi.density()
        assert np.max(np.abs(j.components[0] - expected)) < 1e-12


def test_time_dependent_potential_keeps_continuity():
    H = load_hamiltonian(
        'dim = 1\nterm [2] = "-0.5"\nterm [0] = "0.3*cos(t)*cos(0.15707963267948966*q1)"\n'
    )
    grid = Grid((40.0,), (256,))
    psi0 = gaussian(grid, center=[20.0], width=1.0, wavevector=[0.5])
    snaps = evolve(H, psi0, EvolutionSpec(dt=1e-3, steps=20, stride=10))
    assert continuity_identity_defect(H, snaps) < 1e-10  # 4.2e-14


def test_cli_simulate_2d_writes_two_axis_trajectories(tmp_path):
    ham = tmp_path / "std2d.ham"
    ham.write_text(STD2D)
    state = tmp_path / "g2.st"
    state.write_text(
        "state = gaussian\ncenter = [10.0, 10.0]\nwidth = 1.0\nwavevector = [1.0, 0.5]\n"
    )
    out = tmp_path / "run"
    code = main(
        [
            "simulate",
            str(ham),
            "--state",
            str(state),
            "--grid",
            "64",
            "--domain",
            "20",
            "--dt",
            "5e-4",
            "--steps",
            "100",
            "--stride",
            "50",
            "--trajectories",
            "20",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = (out / "trajectories.csv").read_text().strip().splitlines()
    assert rows[0] == "t,particle_id,q1,q2,truncated"
    # 64^2 = 4096 points sits at the CSV snapshot limit
    assert (out / "snapshot_0000.csv").exists()
    header = (out / "snapshot_0000.csv").read_text().splitlines()[0]
    assert header == "q1,q2,re,im"


def test_cli_simulate_deterministic(tmp_path):
    ham = tmp_path / "free.ham"
    ham.write_text('dim = 1\nterm [2] = "-0.5"\n')
    state = tmp_path / "g.st"
    state.write_text("state = gaussian\ncenter = [18.0]\nwidth = 0.5\nwavevector = [1.0]\n")
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(
            [
                "simulate",
                str(ham),
                "--state",
                str(state),
                "--grid",
                "256",
                "--domain",
                "40",
                "--dt",
                "1e-3",
                "--steps",
                "50",
                "--stride",
                "25",
                "--trajectories",
                "30",
                "--seed",
                "6",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        outputs.append((out / "trajectories.csv").read_text())
    assert outputs[0] == outputs[1]


def test_cli_compare_out_file(tmp_path):
    ham = tmp_path / "std2d.ham"
    ham.write_text(STD2D)
    state = tmp_path / "g2.st"
    state.write_text("state = gaussian\ncenter = [10.0, 10.0]\nwidth = 1.0\nwavevector = [1.0, 2.0]\n")
    out = tmp_path / "report.json"
    code = main(
        [
            "compare",
            str(ham),
            "--state",
            str(state),
            "--grid",
            "64",
            "--domain",
            "20",
            "--methods",
            "canonical,epstein",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["pairs"]["canonical vs epstein"]["max_div_diff"] < 1e-8
