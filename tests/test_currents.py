import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    band_limited_state,
    centered_spec,
    random_hermitian_operator,
    record_function_argument_sizes,
)
from pilotwave import expr
from pilotwave.altcurrents import born_jordan_current
from pilotwave.currents import (
    CurrentTable,
    VectorField,
    _exchange_weight,
    _weight,
    current_1d_integral,
    derive_current_table,
    eval_current,
    eval_current_direct,
    identity_residual,
    source_term,
)
from pilotwave.errors import (
    DimensionMismatchError,
    HamiltonianFormatError,
    NonHermitianError,
    PilotwaveError,
)
from pilotwave.expr import CoefficientExpression
from pilotwave.grids import Grid
from pilotwave.multiindex import MultiIndex, binom_multi, indices_of_max_order, indices_up_to
from pilotwave.operators import hermitize, load_hamiltonian, require_hermitian
from pilotwave.solver import EvolutionSpec, evolve
from pilotwave.states import gaussian, ho_eigenstate, plane_wave, superposition

STANDARD_1D = 'dim = 1\nterm [2] = "-0.5"\n'
P4_1D = 'dim = 1\nterm [4] = "1"\n'


def mi(*entries):
    return MultiIndex(tuple(entries))


def test_table_standard_hamiltonian_exact():
    table = derive_current_table(load_hamiltonian(STANDARD_1D))
    entries = table.axes[0]
    assert set(entries) == {(mi(1), mi(0)), (mi(0), mi(1))}
    assert entries[(mi(1), mi(0))].constant_value() == -0.5j
    assert entries[(mi(0), mi(1))].constant_value() == 0.5j


def test_table_p4_exact():
    table = derive_current_table(load_hamiltonian(P4_1D))
    entries = {k: v.constant_value() for k, v in table.axes[0].items()}
    assert entries == {
        (mi(3), mi(0)): 1j,
        (mi(2), mi(1)): -1j,
        (mi(1), mi(2)): 1j,
        (mi(0), mi(3)): -1j,
    }


def test_table_potential_only_is_empty():
    table = derive_current_table(load_hamiltonian('dim = 1\nterm [0] = "cos(q1)"\n'))
    assert table.axes[0] == {}


def test_table_standard_reduction_with_masses():
    # -(1/2m_k) lap_k + V reproduces the textbook two-entry table per axis
    text = (
        "dim = 3\n"
        'term [2,0,0] = "-0.5"\n'
        'term [0,2,0] = "-0.25"\n'
        'term [0,0,2] = "-0.125"\n'
        'term [0,0,0] = "q1^2 + cos(q2)*q3"\n'
    )
    masses = [1.0, 2.0, 4.0]
    table = derive_current_table(load_hamiltonian(text))
    for axis in (1, 2, 3):
        e_i = MultiIndex.unit(axis, 3)
        entries = table.axes[axis - 1]
        assert set(entries) == {(e_i, mi(0, 0, 0)), (mi(0, 0, 0), e_i)}
        assert entries[(e_i, mi(0, 0, 0))].constant_value() == -0.5j / masses[axis - 1]
        assert entries[(mi(0, 0, 0), e_i)].constant_value() == 0.5j / masses[axis - 1]


def test_table_absent_above_operator_order():
    H = load_hamiltonian(P4_1D)
    table = derive_current_table(H)
    for (n, m) in table.axes[0]:
        assert n.order() + m.order() < H.max_order


def test_table_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        derive_current_table(load_hamiltonian('dim = 1\nterm [1] = "1"\n'))


def test_weights_match_factorial_forms():
    def fact(n):
        return n.factorial()

    def order_fact(n):
        return math.factorial(n.order())

    for r in indices_of_max_order(2, 6):
        for axis in (1, 2):
            e_i = MultiIndex.unit(axis, 2)
            budget = r.try_sub(e_i)
            if budget is None:
                continue
            for n in indices_up_to(budget):
                nme = r - n - e_i
                assert _exchange_weight(r, n, e_i) == (
                    Fraction((-1) ** n.order())
                    * Fraction(fact(r), order_fact(r))
                    * Fraction(order_fact(n), fact(n))
                    * Fraction(order_fact(nme), fact(nme))
                )
                for m in indices_up_to(budget - n):
                    assert _weight(r, n, m, e_i) == (
                        Fraction((-1) ** ((r + n).order() + 1))
                        * Fraction(fact(r), order_fact(r))
                        * Fraction(order_fact(nme), fact(nme))
                        * Fraction(order_fact(n), fact(n))
                        * binom_multi(nme, m)
                    )


def test_eval_current_plane_wave():
    grid = Grid((8 * np.pi,), (64,))
    table = derive_current_table(load_hamiltonian(STANDARD_1D))
    j = eval_current(table, plane_wave(grid, [1.0]))
    assert np.allclose(j.components[0], 1.0, atol=1e-12)


def test_eval_current_real_state_vanishes():
    grid = Grid((8 * np.pi,), (64,))
    table = derive_current_table(load_hamiltonian(STANDARD_1D))
    psi = gaussian(grid, width=1.0)
    j = eval_current(table, psi)
    assert np.max(np.abs(j.components[0])) < 1e-14


def test_eval_current_p4_group_velocity():
    grid = Grid((8 * np.pi,), (64,))
    table = derive_current_table(load_hamiltonian(P4_1D))
    j = eval_current(table, plane_wave(grid, [0.5]))
    assert np.allclose(j.components[0], 4 * 0.5 ** 3, atol=1e-10)


def test_direct_form_matches_table_form_on_examples():
    grid = Grid((8 * np.pi,), (64,))
    for text, state in [
        (STANDARD_1D, plane_wave(grid, [1.0])),
        (STANDARD_1D, gaussian(grid, width=1.0)),
        (P4_1D, plane_wave(grid, [0.5])),
    ]:
        H = load_hamiltonian(text)
        a = eval_current(derive_current_table(H), state)
        b = eval_current_direct(H, state)
        assert np.max(np.abs(a.components[0] - b.components[0])) < 1e-10


def test_direct_form_2d_standard_reduction():
    H = load_hamiltonian('dim = 2\nterm [2,0] = "-0.5"\nterm [0,2] = "-0.5"\n')
    grid = Grid((20.0, 20.0), (64, 64))
    psi = gaussian(grid, center=[10.0, 10.0], width=1.0, wavevector=[1.0, 2.0])
    j = eval_current_direct(H, psi)
    # standard current Im(conj(psi) grad psi) = rho * k has component ratio 2
    idx = tuple(s // 2 for s in grid.shape)
    assert j.components[1][idx] / j.components[0][idx] == pytest.approx(2.0, rel=1e-9)
    jt = eval_current(derive_current_table(H), psi)
    for a, b in zip(j.components, jt.components):
        assert np.max(np.abs(a - b)) < 1e-12


def test_direct_form_real_state_vanishes():
    H = load_hamiltonian(STANDARD_1D)
    grid = Grid((20.0,), (64,))
    j = eval_current_direct(H, gaussian(grid, width=1.0))
    assert np.max(np.abs(j.components[0])) < 1e-14


def test_form_equivalence_random_ensemble():
    rng = np.random.default_rng(404)
    for dim in (1, 2):
        lengths = (10.0,) * dim
        grid = Grid(lengths, (128,) * dim)
        center = grid.center()
        spec = centered_spec(center)
        for _ in range(5):
            H = random_hermitian_operator(rng, dim, 3, center, decay=1.2)
            psi = band_limited_state(grid, rng, envelope_kappa=12.0)
            a = eval_current(derive_current_table(require_hermitian(H, spec)), psi)
            b = eval_current_direct(require_hermitian(H, spec), psi)
            scale = max(a.max_abs(), 1e-30)
            diff = max(
                np.max(np.abs(x - y)) for x, y in zip(a.components, b.components)
            )
            assert diff < 1e-9 * scale


def test_reality_of_table_entries():
    rng = np.random.default_rng(505)
    center = (2.0, 2.0)  # the box [0, 4)^2, the old [-2, 2)^2 translated with the operators
    spec = centered_spec(center, tol=1e-9)
    for _ in range(8):
        H = random_hermitian_operator(rng, 2, 4, center)
        table = derive_current_table(require_hermitian(H, centered_spec(center)))
        for axis in (1, 2):
            entries = table.axes[axis - 1]
            for (n, m), coef in entries.items():
                partner = entries.get((m, n), expr.const(0, 2))
                assert expr.approx_equal(coef, partner.conjugate(), spec)


def test_source_term_eigenstate_vanishes():
    grid = Grid((40.0,), (256,))
    H = load_hamiltonian('dim = 1\nterm [2] = "-0.5"\nterm [0] = "(q1-20)^2/2"\n')
    psi = ho_eigenstate(grid, [0], center=[20.0])
    I = source_term(H, psi)
    assert np.max(np.abs(I)) < 1e-10


def test_source_term_plane_wave_vanishes():
    grid = Grid((8 * np.pi,), (64,))
    H = load_hamiltonian(STANDARD_1D)
    I = source_term(H, plane_wave(grid, [1.0]))
    assert np.max(np.abs(I)) < 1e-12


def test_source_term_matches_density_time_derivative():
    grid = Grid((40.0,), (256,))
    H = load_hamiltonian('dim = 1\nterm [2] = "-0.5"\nterm [0] = "(q1-20)^2/2"\n')
    psi0 = superposition(
        [
            (1.0, ho_eigenstate(grid, [0], center=[20.0])),
            (1j, ho_eigenstate(grid, [1], center=[20.0])),
        ]
    )
    snaps = evolve(H, psi0, EvolutionSpec(dt=1e-3, steps=2, stride=1))
    drho_dt = (snaps[2].density() - snaps[0].density()) / (snaps[2].t - snaps[0].t)
    I = source_term(H, snaps[1])
    scale = np.max(np.abs(drho_dt))
    assert np.max(np.abs(I - (-drho_dt))) < 1e-3 * scale


def test_spectral_continuity_div_j_equals_source():
    rng = np.random.default_rng(77)
    for dim in (1, 2):
        grid = Grid((10.0,) * dim, (128,) * dim)
        center = grid.center()
        spec = centered_spec(center)
        for _ in range(4):
            H = random_hermitian_operator(rng, dim, 3, center, decay=1.2)
            psi = band_limited_state(grid, rng, envelope_kappa=12.0)
            I = source_term(H, psi)
            j = eval_current(derive_current_table(require_hermitian(H, spec)), psi)
            residual = np.max(np.abs(j.divergence() - I))
            assert residual < 1e-8 * max(np.max(np.abs(I)), 1e-30)


@pytest.mark.parametrize(
    "n,tol",
    [((1,), 1e-10), ((2,), 1e-10), ((4,), 1e-9)],
)
def test_identity_residual_1d(n, tol):
    rng = np.random.default_rng(88)
    grid = Grid((2 * np.pi,), (64,))
    phi = band_limited_state(grid, rng)
    chi = band_limited_state(grid, rng)
    assert identity_residual(phi, chi, MultiIndex(n)) < tol


def test_identity_residual_2d():
    rng = np.random.default_rng(89)
    grid = Grid((2 * np.pi, 2 * np.pi), (32, 32))
    phi = band_limited_state(grid, rng, max_mode=2)
    chi = band_limited_state(grid, rng, max_mode=2)
    assert identity_residual(phi, chi, MultiIndex((2, 1))) < 1e-8


def test_identity_residual_guards():
    grid = Grid((2 * np.pi,), (64,))
    other = Grid((2 * np.pi,), (32,))
    rng = np.random.default_rng(90)
    phi = band_limited_state(grid, rng)
    with pytest.raises(DimensionMismatchError):
        identity_residual(phi, band_limited_state(other, rng), MultiIndex((1,)))
    with pytest.raises(DimensionMismatchError):
        identity_residual(phi, phi, MultiIndex((1, 1)))


def test_integral_current_matches_table_for_drifting_gaussian():
    # trapezoid error dx^2/12 * d_q(d_t rho) needs the fine grid to reach 1e-4
    H = load_hamiltonian(STANDARD_1D)
    grid = Grid((40.0,), (1024,))
    psi0 = gaussian(grid, center=[20.0], width=1.0, wavevector=[1.0])
    snaps = evolve(H, psi0, EvolutionSpec(dt=5e-4, steps=2, stride=1))
    j_int = current_1d_integral(snaps[0], snaps[2])
    j_tab = eval_current(derive_current_table(H), snaps[1]).components[0]
    assert np.max(np.abs(j_int - j_tab)) < 1e-4


def test_integral_current_stationary_state():
    H = load_hamiltonian('dim = 1\nterm [2] = "-0.5"\nterm [0] = "(q1-20)^2/2"\n')
    grid = Grid((40.0,), (256,))
    psi0 = ho_eigenstate(grid, [0], center=[20.0])
    snaps = evolve(H, psi0, EvolutionSpec(dt=1e-3, steps=20, stride=10))
    j_int = current_1d_integral(snaps[0], snaps[2])
    assert np.max(np.abs(j_int)) < 1e-8


def test_integral_current_p4_packet():
    H = load_hamiltonian(P4_1D)
    grid = Grid((40.0,), (256,))
    psi0 = gaussian(grid, center=[20.0], width=1.5, wavevector=[0.5])
    snaps = evolve(H, psi0, EvolutionSpec(dt=1e-5, steps=2, stride=1))
    j_int = current_1d_integral(snaps[0], snaps[2])
    j_tab = eval_current(derive_current_table(H), snaps[1]).components[0]
    assert np.max(np.abs(j_int - j_tab)) < 1e-3


def test_integral_current_requires_decayed_boundary():
    grid = Grid((40.0,), (256,))
    near_edge = gaussian(grid, center=[2.0], width=1.0)
    before = near_edge.copy(t=0.0)
    after = near_edge.copy(t=0.01)
    with pytest.raises(PilotwaveError):
        current_1d_integral(before, after)


def test_integral_current_requires_1d():
    grid = Grid((10.0, 10.0), (32, 32))
    psi = gaussian(grid, width=1.0)
    with pytest.raises(DimensionMismatchError):
        current_1d_integral(psi.copy(t=0.0), psi.copy(t=0.1))


def test_eval_current_detects_corrupted_table():
    grid = Grid((40.0,), (256,))
    table = derive_current_table(load_hamiltonian(STANDARD_1D))
    entries = dict(table.axes[0])
    entries[(mi(1), mi(0))] = expr.parse("0.5*i", 1)  # reality-breaking sign flip
    corrupted = CurrentTable(1, [entries])
    psi = gaussian(grid, center=[20.0], width=0.5, wavevector=[1.0])
    with pytest.raises(PilotwaveError):
        eval_current(corrupted, psi)


# The real first-order bump at 20.3 makes H non-Hermitian, but no default
# sample point comes near it, so H passes the sampled check; its current is not real.
HIDDEN_BUMP_1D = 'dim = 1\nterm [2] = "-0.5"\nterm [1] = "1e-3*exp(-100*(q1-20.3)^2)"\n'


@pytest.mark.parametrize("what, current", [
    ("eval_current", lambda H, psi: eval_current(derive_current_table(H), psi)),
    ("eval_current_direct", eval_current_direct),
    ("born_jordan_current", born_jordan_current),
], ids=["table", "direct", "born-jordan"])
def test_current_refuses_an_imaginary_residue(what, current):
    H = require_hermitian(load_hamiltonian(HIDDEN_BUMP_1D))
    psi = gaussian(Grid((40.0,), (256,)), center=[20.0], width=0.5, wavevector=[1.0])
    with pytest.raises(PilotwaveError, match=f"^{what}: imaginary residue"):
        current(H, psi)


def test_table_json_roundtrip():
    H = load_hamiltonian('dim = 2\nterm [2,0] = "-0.5"\nterm [0,2] = "-0.5"\nterm [0,0] = "cos(q1)+q2^2"\n')
    table = derive_current_table(H)
    back = CurrentTable.from_json(table.to_json())
    assert back.dim == table.dim
    for axis in (1, 2):
        a, b = table.axes[axis - 1], back.axes[axis - 1]
        assert set(a) == set(b)
        for key in a:
            assert expr.approx_equal(a[key], b[key])


def _table_doc(dim, axes, expression="0.5*i"):
    return json.dumps({"dimension": dim, "provenance": "", "axes": [
        {"axis": axis, "entries": [{"n": n, "m": m, "expression": expression} for n, m in entries]}
        for axis, entries in axes
    ]})


@pytest.mark.parametrize("text", [
    _table_doc(2, [(0, [([1, 0], [0, 0])]), (2, [([0, 1], [0, 0])])]),  # axis 0
    _table_doc(2, [(1, [([1, 0], [0, 0])]), (1, [([0, 1], [0, 0])])]),  # repeated axis
    _table_doc(2, [(1, [([1, 0], [0, 0])])]),  # missing axis
    _table_doc(1, [(1, [([1, 0], [0])])]),  # n of dimension 2
    _table_doc(1, [(1, [([1], [0]), ([1], [0])])]),  # repeated entry
    _table_doc(0, []),
    "{}",
    "[]",
    _table_doc(1, [(1, [([1], [0])])], "q1 +"),
    _table_doc(1, [(1, [([1], [0])])], "q2"),
    _table_doc(1, [(1, [([1.5], [0])])]),
], ids=["axis-0", "repeated-axis", "missing-axis", "n-dimension", "repeated-entry", "dimension-0",
        "empty", "list", "syntax", "axis-2-in-1d", "fractional-n"])
def test_table_from_json_refuses_a_malformed_document(text):
    with pytest.raises(HamiltonianFormatError, match="bad current table document"):
        CurrentTable.from_json(text)


def test_table_latex_smoke():
    table = derive_current_table(load_hamiltonian(STANDARD_1D))
    tex = table.to_latex()
    assert "j_{1}" in tex and "\\psi" in tex
    empty = derive_current_table(load_hamiltonian('dim = 1\nterm [0] = "q1"\n'))
    assert "j_{1} = 0" in empty.to_latex()


def test_vector_field_guards():
    grid = Grid((10.0,), (32,))
    with pytest.raises(DimensionMismatchError):
        VectorField(grid, [np.zeros(32), np.zeros(32)])


def test_direct_form_evaluates_each_coefficient_once(monkeypatch):
    """The [2,2] coefficient feeds both axes; it becomes a grid once, in the
    operator's shared applier, which a second call reuses."""
    H = require_hermitian(load_hamiltonian(
        'dim = 2\nterm [2,0] = "-0.5"\nterm [0,2] = "-0.5"\nterm [2,2] = "0.01"\n'
        'term [0,0] = "cos(q1)*cos(q2)"\n'
    ))
    grid = Grid((20.0, 20.0), (32, 32))
    psi = gaussian(grid, width=1.5, wavevector=[1.0, 0.5])
    evaluated = Counter()
    original = CoefficientExpression.evaluate_on

    def counting(self, meshes, t):
        evaluated[id(self)] += 1
        return original(self, meshes, t)

    monkeypatch.setattr(CoefficientExpression, "evaluate_on", counting)
    first = eval_current_direct(H, psi)
    assert evaluated == Counter({id(c): 1 for c in H.terms.values()})
    second = eval_current_direct(H, psi)
    assert sum(evaluated.values()) == len(H.terms)
    for a, b in zip(first.components, second.components):
        assert np.array_equal(a, b)


def test_eval_current_evaluates_one_axis_entries_on_axis_vectors(monkeypatch):
    H = require_hermitian(hermitize(load_hamiltonian(
        'dim = 2\nterm [2,0] = "-0.5*(2+cos(q1))"\nterm [0,2] = "-0.5"\n'
    )))
    table = derive_current_table(H)
    grid = Grid((10.0, 10.0), (64, 64))
    state = band_limited_state(grid, np.random.default_rng(3))
    sizes = record_function_argument_sizes(monkeypatch)
    field = eval_current(table, state)
    assert field.components[0].shape == grid.shape
    assert sizes and set(sizes) == {64}  # cos(q1), sin(q1): 64 points, never 64^2
