import json
import math
import re

import numpy as np
import pytest

from helpers import (
    grid_meshes,
    reference_snapshot_csv,
    reference_snapshot_json,
    reference_trajectory_csv,
    run_fresh_python,
)
from pilotwave.errors import HamiltonianFormatError
from pilotwave.grids import Grid, GridState
from pilotwave.serialize import (
    snapshot_from_json,
    snapshot_to_csv,
    snapshot_to_json,
    trajectory_csv,
)
from pilotwave.states import (
    build_state,
    gaussian,
    ho_eigenstate,
    parse_state_spec,
    plane_wave,
    superposition,
)
from pilotwave.trajectories import Ensemble, sample_density


def test_gaussian_moments():
    grid = Grid((40.0,), (512,))
    sigma = 0.7
    psi = gaussian(grid, center=[22.0], width=sigma, wavevector=[1.0])
    assert psi.norm_sq() == pytest.approx(1.0)
    x = grid.axis_points(0)
    rho = psi.density()
    mean = (x * rho).sum() * grid.cell_volume
    var = ((x - mean) ** 2 * rho).sum() * grid.cell_volume
    assert mean == pytest.approx(22.0, abs=1e-9)
    assert var == pytest.approx(sigma ** 2, rel=1e-6)


def test_plane_wave_snaps_to_lattice():
    grid = Grid((10.0,), (64,))
    psi = plane_wave(grid, [1.0])
    unit = 2 * np.pi / 10.0
    assert np.allclose(np.abs(psi.values), 1.0)
    # exactly periodic: spectral content on the single lattice mode nearest k = 1
    spectrum = np.abs(np.fft.fft(psi.values))
    assert np.flatnonzero(spectrum > 1e-6).tolist() == [round(1.0 / unit)]


def test_ho_eigenstates_orthonormal():
    grid = Grid((40.0,), (512,))
    states = [ho_eigenstate(grid, [n], center=[20.0]) for n in range(4)]
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            overlap = np.sum(np.conjugate(a.values) * b.values) * grid.cell_volume
            assert abs(overlap - (1.0 if i == j else 0.0)) < 1e-10


@pytest.mark.parametrize("level", [151, 171, 200])
def test_ho_eigenstate_above_the_factorial_range(level):
    """2^n n! overflows a float from n = 151 and n! from n = 171; the
    Hermite-function recurrence still gives the normalized eigenstate."""
    from pilotwave.operators import apply, load_hamiltonian

    grid = Grid((60.0,), (1024,))
    psi = ho_eigenstate(grid, [level], center=[30.0])
    assert psi.norm_sq() == pytest.approx(1.0, abs=1e-12)
    below = ho_eigenstate(grid, [level - 1], center=[30.0])
    assert abs(np.sum(np.conjugate(below.values) * psi.values) * grid.cell_volume) < 1e-10
    H = load_hamiltonian('dim = 1\nterm [2] = "-0.5"\nterm [0] = "(q1-30)^2/2"\n')
    residual = apply(H, psi).values - (level + 0.5) * psi.values
    assert np.max(np.abs(residual)) < 1e-8 * (level + 0.5) * np.max(np.abs(psi.values))


def test_a_narrow_oscillator_state_builds_without_warnings():
    """Where u^2 = m w (q - c)^2 overflows, e^(-u^2/2) is 0: a state whose factor
    overflows away from its center is still built, with no numpy warning
    (a RuntimeWarning fails the test)."""
    psi = ho_eigenstate(Grid((40.0,), (64,)), center=[20.0], mass=1e154, frequency=1e154)
    assert np.count_nonzero(psi.values) == 1


def test_ho_eigenstate_2d_energy():
    grid = Grid((20.0, 20.0), (128, 128))
    psi = ho_eigenstate(grid, [1, 2], center=[10.0, 10.0])
    assert psi.norm_sq() == pytest.approx(1.0)
    from pilotwave.operators import apply, load_hamiltonian

    H = load_hamiltonian(
        'dim = 2\nterm [2,0] = "-0.5"\nterm [0,2] = "-0.5"\n'
        'term [0,0] = "((q1-10)^2 + (q2-10)^2)/2"\n'
    )
    out = apply(H, psi)
    energy = 1.5 + 2.5
    assert np.max(np.abs(out.values - energy * psi.values)) < 1e-6


def mesh_gaussian(grid, center, widths, ks):
    phase = np.zeros(grid.shape)
    envelope = np.zeros(grid.shape)
    for mesh, c, sigma, k in zip(grid_meshes(grid), center, widths, ks):
        envelope = envelope - (mesh - c) ** 2 / (4.0 * sigma ** 2)
        phase = phase + k * mesh
    return GridState(grid, np.exp(envelope + 1j * phase)).normalized()


def mesh_plane_wave(grid, ks):
    phase = np.zeros(grid.shape)
    for axis, (mesh, k) in enumerate(zip(grid_meshes(grid), ks)):
        unit = 2.0 * np.pi / grid.lengths[axis]
        phase = phase + unit * round(k / unit) * mesh
    return GridState(grid, np.exp(1j * phase))


def mesh_ho_eigenstate(grid, levels, center, frequency, mass):
    values = np.ones(grid.shape, dtype=complex)
    for mesh, c, n in zip(grid_meshes(grid), center, levels):
        u = math.sqrt(mass * frequency) * (mesh - c)
        previous, current = 0.0, np.exp(-0.5 * u ** 2)
        for k in range(n):
            previous, current = current, math.sqrt(2 / (k + 1)) * u * current - math.sqrt(k / (k + 1)) * previous
        values = values * ((mass * frequency / math.pi) ** 0.25 * current)
    return GridState(grid, values).normalized()


@pytest.mark.parametrize("grid", [
    Grid((40.0,), (256,)), Grid((20.0, 30.0), (64, 64)), Grid((40.0, 40.0), (128, 128)),
    Grid((10.0, 12.0, 9.0), (16, 32, 8)),
], ids=["1d", "2d-64", "2d-128", "3d"])
def test_presets_are_bitwise_the_mesh_formulas(grid):
    """The presets compute on the sparse axis vectors; their values are the
    bytes of the same formulas on the full coordinate meshes."""
    center = [L / 2.3 for L in grid.lengths]
    widths = [0.7 + 0.3 * a for a in range(grid.dim)]
    ks = [1.3 - a for a in range(grid.dim)]
    pairs = [
        (gaussian(grid, center, widths, ks), mesh_gaussian(grid, center, widths, ks)),
        (plane_wave(grid, ks), mesh_plane_wave(grid, ks)),
    ]
    for top in (0, 7, 160):
        levels = [max(top - 3 * a, 0) for a in range(grid.dim)]
        pairs.append((ho_eigenstate(grid, levels, center, frequency=2.0, mass=0.5),
                      mesh_ho_eigenstate(grid, levels, center, frequency=2.0, mass=0.5)))
    for state, reference in pairs:
        assert state.values.shape == grid.shape
        assert state.values.tobytes() == reference.values.tobytes()


def test_superposition_normalizes():
    grid = Grid((40.0,), (256,))
    a = ho_eigenstate(grid, [0], center=[20.0])
    b = ho_eigenstate(grid, [1], center=[20.0])
    s = superposition([(1.0, a), (1j, b)])
    assert s.norm_sq() == pytest.approx(1.0)


STATE_TEXT = """
# drifting packet
state = gaussian
center = [18.0]
width = 0.5
wavevector = [1.0]
"""


def test_parse_state_spec():
    spec = parse_state_spec(STATE_TEXT)
    assert spec.kind == "gaussian"
    assert spec.params["center"] == [18.0]
    assert spec.params["width"] == 0.5
    grid = Grid((40.0,), (512,))
    psi = build_state(spec, grid)
    assert psi.norm_sq() == pytest.approx(1.0)


def test_superposition_state_file():
    text = (
        "state = superposition\n"
        "component = 0.70710678 | ho-eigenstate levels=[0] center=[20]\n"
        "component = (0.5+0.5*i) | gaussian center=[22] width=0.5 wavevector=[1]\n"
    )
    grid = Grid((40.0,), (256,))
    psi = build_state(parse_state_spec(text), grid)
    assert psi.norm_sq() == pytest.approx(1.0)


# Each malformed state file and the whole message it is refused with on a 1D grid.
STATE_REJECTS = {
    "width = 0.5": "missing 'state = <kind>' declaration",
    "state = vortex": "line 1: unknown state kind 'vortex'",
    "state = gaussian\ncomponent = 1 | gaussian": "component lines are only valid for superposition states",
    "state = superposition": "superposition state lists no components",
    "state = superposition\ncomponent = q1 | gaussian": "line 2: component coefficient must be a constant",
    "state = plane-wave": "plane-wave state needs a wavevector",
    "state = gaussian\nwidth = [0.5, 0.7]": "width needs 1 entries, got 2",  # wrong arity for 1D grid
    "wavevector = [1.0]\nstate = plane-wave\nlevels = [0]":
        "line 3: unknown key 'levels' for plane-wave (it takes wavevector)",
    "state = superposition\ncenter = [20]\ncomponent = 1 | gaussian":
        "line 2: unknown key 'center' for superposition (it takes only component lines)",
    "state = superposition\ncomponent = 1 | ho-eigenstate level=[1]":
        "line 2: unknown key 'level' for ho-eigenstate (it takes levels, center, frequency, mass)",
    "state = gaussian\ncenter = [20": "line 2: unterminated list '[20'",
    "state = gaussian\ncenter = [20, x]": "line 2: bad list '[20, x]'",
    "state = gaussian\nwidth = wide": "line 2: bad numeric value 'wide'",
    "state = superposition\ncomponent = 1 gaussian": "line 2: component must be 'coeff | kind key=value ...'",
    "state = superposition\ncomponent = 1 |": "line 2: missing component kind",
    "state = superposition\ncomponent = 1 | blob": "line 2: unknown component kind 'blob'",
    "state = superposition\ncomponent = 1 | gaussian width": "line 2: expected key=value, got 'width'",
}


@pytest.mark.parametrize("text", STATE_REJECTS)
def test_state_spec_rejects(text):
    grid = Grid((40.0,), (64,))
    with pytest.raises(HamiltonianFormatError, match=f"^{re.escape(STATE_REJECTS[text])}$"):
        build_state(parse_state_spec(text), grid)


def test_snapshot_json_roundtrip():
    grid = Grid((12.0, 6.0), (32, 16))
    rng = np.random.default_rng(1)
    values = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    state = GridState(grid, values, t=0.75)
    back = snapshot_from_json(snapshot_to_json(state))
    assert back.grid == grid
    assert back.t == 0.75
    assert np.array_equal(back.values, state.values)


def test_snapshot_json_rejects_garbage():
    with pytest.raises(HamiltonianFormatError):
        snapshot_from_json('{"dimension": 1}')


def _snapshot_doc(**changes):
    state = GridState(Grid((12.0,), (4,)), np.arange(4) + 0.5j, t=0.25)
    return json.dumps({**json.loads(snapshot_to_json(state)), **changes})


@pytest.mark.parametrize("text", [
    _snapshot_doc(lengths=[-1]),
    _snapshot_doc(shape=[3]),
    _snapshot_doc(values=[[0, 0], [1, float("nan")], [2, 0], [3, 0]]),
    _snapshot_doc(values=[0, 1, 2, 3]),
    _snapshot_doc(dimension=2),
    _snapshot_doc(time=float("nan")),
    _snapshot_doc(shape=[4.5]),
    _snapshot_doc(values=[[0, 0, 9.0], [1, 0.5, 9.0], [2, 0.5, 9.0], [3, 0.5, 9.0]]),
    _snapshot_doc(dimension=True),
], ids=["negative-length", "shape-3", "nan-value", "flat-values", "dimension-2", "nan-time",
        "fractional-shape", "three-number-rows", "bool-dimension"])
def test_snapshot_from_json_refuses_a_malformed_document(text):
    with pytest.raises(HamiltonianFormatError, match="bad snapshot document"):
        snapshot_from_json(text)


def test_snapshot_csv_shape():
    grid = Grid((4.0,), (16,))
    psi = gaussian(grid, center=[2.0], width=0.5)
    lines = snapshot_to_csv(psi).strip().splitlines()
    assert lines[0] == "q1,re,im"
    assert len(lines) == 17


def test_trajectory_csv_format():
    grid = Grid((10.0,), (64,))
    ens = sample_density(np.ones(64), grid, 3, seed=1)
    ens.times = [0.0, 0.5]
    ens.history = [ens.positions.copy(), ens.positions.copy() + 0.1]
    ens.truncated = np.array([False, True, False])
    lines = trajectory_csv(ens).strip().splitlines()
    assert lines[0] == "t,particle_id,q1,truncated"
    assert len(lines) == 1 + 2 * 3
    assert lines[2].split(",")[1] == "1"
    assert lines[2].split(",")[-1] == "1"


# Writers against the per-element references (tests/helpers.py), byte for byte

WRITER_GRIDS = {
    "1d": Grid((4.0,), (16,)),
    "2d": Grid((12.0, 6.5), (16, 32)),
    "3d": Grid((1.0, 3.3, 7.0), (2, 4, 8)),
}
SPECIAL = np.array([-0.0, 5e-324, -5e-324, 1e17, -1e17, 0.1 + 0.2, 1e-7, 123456789.123456789])


def with_specials(values: np.ndarray) -> np.ndarray:
    flat = values.reshape(-1)
    flat[: SPECIAL.size] = SPECIAL
    flat[-SPECIAL.size :] = SPECIAL[::-1]
    return values


@pytest.mark.parametrize("name", WRITER_GRIDS)
def test_snapshot_writers_are_byte_identical_to_the_reference(name):
    grid = WRITER_GRIDS[name]
    rng = np.random.default_rng(4)
    re = with_specials(rng.normal(size=grid.shape) * 10.0 ** rng.integers(-5, 5, grid.shape))
    im = with_specials(rng.normal(size=grid.shape))[::-1].copy()
    state = GridState(grid, re + 1j * im, t=0.1 + 0.2)
    assert snapshot_to_csv(state) == reference_snapshot_csv(state)
    assert snapshot_to_json(state) == reference_snapshot_json(state)


@pytest.mark.parametrize("name", WRITER_GRIDS)
def test_trajectory_csv_is_byte_identical_to_the_reference(name):
    grid = WRITER_GRIDS[name]
    rng = np.random.default_rng(6)
    count = 40
    history = [with_specials(rng.uniform(0.0, 1.0, (count, grid.dim)) * grid.lengths) for _ in range(3)]
    ensemble = Ensemble(history[-1], times=[0.0, 0.1 + 0.2, 1e-7], history=history,
                        truncated=rng.random(count) < 0.3)
    assert 0 < ensemble.truncated.sum() < count
    assert trajectory_csv(ensemble) == reference_trajectory_csv(ensemble)


def test_svgplot_writes_polylines():
    from pilotwave import svgplot

    xs = np.linspace(0, 1, 20)
    text = svgplot.line_plot([(xs, np.sin(xs)), (xs, np.cos(xs))], title="demo", labels=["a", "b"])
    assert text.startswith("<svg")
    assert text.count("<polyline") == 2
    assert "demo" in text


@pytest.mark.parametrize(
    "text", ["", "a & b", "<q1> & <q2>", "1 < 2 > 0", "\"quoted\" 'text'", "ψ(t) — |ψ|² ≥ 0 &amp;"]
)
def test_svgplot_escape_is_the_xml_sax_escape(text):
    from xml.sax.saxutils import escape

    from pilotwave import svgplot

    assert svgplot.escape(text) == escape(text)


def test_cli_import_pulls_in_no_network_or_xml_modules():
    """xml.sax.saxutils alone brought urllib.request, http.client, email and
    ssl into every CLI call's import."""
    done = run_fresh_python("import sys, pilotwave.cli; print(' '.join(sorted(sys.modules)))")
    top_level = {name.split(".")[0] for name in done.stdout.split()}
    assert "pilotwave" in top_level
    assert not top_level & {"xml", "http", "email", "ssl", "socket"}
