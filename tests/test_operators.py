import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    centered_spec,
    count_hermiticity_checks,
    grid_meshes,
    inner_product_hermitian,
    random_hermitian_operator,
    random_operator,
    record_function_argument_sizes,
    visibly_non_hermitian_operator,
)
from oracles import approx_equal as batch_approx_equal, eval_current_direct
from pilotwave import expr
from pilotwave.altcurrents import born_jordan_current, second_order_current
from pilotwave.currents import derive_current_table
from pilotwave.epstein import nonlocal_current
from pilotwave.errors import (
    DimensionMismatchError,
    EvaluationDomainError,
    GridError,
    HamiltonianFormatError,
    NonHermitianError,
    StabilityError,
)
from pilotwave.grids import Grid, GridState
from pilotwave.multiindex import MultiIndex
from pilotwave.operators import (
    DifferentialOperator,
    HermitianOperator,
    OperatorApplier,
    SamplingSpec,
    adjoint,
    apply,
    hermiticity_violations,
    hermitize,
    load_hamiltonian,
    require_hermitian,
)
from pilotwave.solver import EvolutionSpec, chebyshev_coefficients, evolve
from pilotwave.states import gaussian, parse_state_spec, plane_wave
from pilotwave.trajectories import equivariance_test


def op_1d(terms_text: dict[int, str]) -> DifferentialOperator:
    return DifferentialOperator(
        1, {MultiIndex((k,)): expr.parse(v, 1) for k, v in terms_text.items()}
    )


def test_adjoint_of_first_derivative():
    H = op_1d({1: "1"})
    adj = adjoint(H)
    assert set(adj.terms) == {MultiIndex((1,))}
    assert adj.coefficient(MultiIndex((1,))).constant_value() == -1.0


def test_adjoint_fixed_point_for_standard_hamiltonian():
    H = op_1d({2: "-0.5", 0: "q1^2"})
    adj = adjoint(H)
    for slot in H.terms:
        assert expr.approx_equal(adj.coefficient(slot), H.coefficient(slot))


def test_adjoint_of_q_times_derivative():
    H = op_1d({1: "-i*q1"})
    adj = adjoint(H)
    assert expr.approx_equal(adj.coefficient(MultiIndex((1,))), expr.parse("-i*q1", 1))
    assert expr.approx_equal(adj.coefficient(MultiIndex((0,))), expr.parse("-i", 1))


def test_adjoint_is_involution():
    rng = np.random.default_rng(41)
    for dim in (1, 2):
        center = (2.0,) * dim  # the box [0, 4), the old [-2, 2) translated with the operators
        spec = centered_spec(center)
        for _ in range(5):
            H = random_hermitian_operator(rng, dim, 3, center)
            back = adjoint(adjoint(H))
            slots = set(H.terms) | set(back.terms)
            for slot in slots:
                assert expr.approx_equal(H.coefficient(slot), back.coefficient(slot), spec)


def test_is_hermitian_classification():
    assert hermiticity_violations(op_1d({1: "1"}))
    assert not hermiticity_violations(op_1d({1: "-i"}))
    assert hermiticity_violations(op_1d({1: "-i*q1"}))
    assert not hermiticity_violations(op_1d({1: "-i*q1", 0: "-i/2"}))


def test_hermiticity_violations_lists_slots():
    # h_1 = 1 fails h_1 = -conj(h_1); the n=0 slot compares 0 against
    # -d/dq conj(h_1) = 0 and stays clean.
    bad = hermiticity_violations(op_1d({1: "1"}))
    assert bad == [MultiIndex((1,))]
    bad_q = hermiticity_violations(op_1d({1: "-i*q1"}))
    assert bad_q == [MultiIndex((0,))]


# The six functions that derive a current: the state dimension each needs,
# and the function called as (H, psi).
CURRENTS = {
    "derive_current_table": (1, lambda H, psi: derive_current_table(H)),
    "eval_current_direct": (1, eval_current_direct),
    "born_jordan_current": (1, born_jordan_current),
    "second_order_current": (1, second_order_current),
    "nonlocal_current": (2, nonlocal_current),
    "equivariance_test": (1, lambda H, psi: equivariance_test(H, psi, count=50, horizon=0.01, seed=0)),
}
FREE = {
    1: 'dim = 1\nterm [2] = "-0.5"\n',
    2: 'dim = 2\nterm [2,0] = "-0.5"\nterm [0,2] = "-0.5"\n',
}


def free_particle(dim: int):
    H = load_hamiltonian(FREE[dim])
    grid = Grid((20.0,) * dim, (64,) * dim)
    return H, gaussian(grid, center=[10.0] * dim, width=1.0, wavevector=[1.0] * dim)


def test_require_hermitian_returns_a_verified_operator(monkeypatch):
    H = op_1d({2: "-0.5", 0: "cos(q1)"})
    calls = count_hermiticity_checks(monkeypatch)
    verified = require_hermitian(H)
    assert isinstance(verified, HermitianOperator) and calls == [None]
    assert verified.terms == H.terms and repr(verified) == repr(H)
    assert repr(verified).startswith("DifferentialOperator(dim=1, ")
    assert require_hermitian(verified) is verified and len(calls) == 1
    # an explicit spec configures the verdict of an unverified operator only
    assert require_hermitian(verified, SamplingSpec(seed=5)) is verified
    assert calls == [None]
    with pytest.raises(NonHermitianError, match=r"violated slots: \[1\]"):
        require_hermitian(op_1d({1: "1"}))


def test_operations_on_a_verified_operator_are_unverified():
    """`hermitize` builds a Hermitian operator; scaling and sums need a verdict."""
    verified = require_hermitian(op_1d({2: "-0.5"}))
    assert not isinstance(verified.scaled(1j), HermitianOperator)
    assert not isinstance(verified + verified, HermitianOperator)
    assert isinstance(hermitize(verified), HermitianOperator)


@pytest.mark.parametrize("name", CURRENTS)
def test_currents_refuse_non_hermitian_operators(name):
    _, current = CURRENTS[name]
    _, psi = free_particle(1)
    with pytest.raises(NonHermitianError):
        current(op_1d({1: "1"}), psi)


@pytest.mark.parametrize("name", CURRENTS)
def test_currents_trust_a_verified_operator(name, monkeypatch):
    dim, current = CURRENTS[name]
    H, psi = free_particle(dim)
    verified = require_hermitian(H)
    calls = count_hermiticity_checks(monkeypatch)
    current(verified, psi)
    assert calls == []
    current(H, psi)
    assert calls == [None]


def test_pruning_keeps_a_bump_away_from_the_origin():
    # coefficients centred at (10, 10) are far below 1e-12 near the origin
    H = random_hermitian_operator(np.random.default_rng(1), 2, 6, (10, 10))
    assert len(H.terms) == 4
    assert require_hermitian(H, SamplingSpec(lengths=(20.0, 20.0))).terms == H.terms
    # a Hermitian potential that is exactly 0.0 in doubles except within 0.273
    # of 20.3, where the 32 sample points of most seeds never land
    bump = load_hamiltonian('dim = 1\nterm [2] = "-0.5"\nterm [0] = "exp(-10000*(q1-20.3)^2)"\n')
    assert len(bump.terms) == 2
    for spec in [SamplingSpec(seed=seed) for seed in range(8)] + [None]:
        assert require_hermitian(bump, spec).terms == bump.terms


def test_pruning_keeps_a_small_drive():
    H = load_hamiltonian('dim = 1\nterm [2] = "-0.5"\nterm [0] = "1e-12*cos(t)"\n')
    assert len(H.terms) == 2 and H.is_time_dependent()
    verified = require_hermitian(H)
    assert verified.terms == H.terms and verified.is_time_dependent()
    # a time-independent H would take the Chebyshev path on this schedule;
    # the driven one takes RK4, whose stability limit dt * R = 3 exceeds
    grid = Grid((20.0,), (64,))
    psi = gaussian(grid, center=[10.0], width=1.0, wavevector=[1.0])
    spec = EvolutionSpec(dt=3.0 / H.realize(grid).spectral_radius(0.0), steps=100, stride=100)
    assert len(chebyshev_coefficients(3.0 * spec.stride)) < 4 * spec.stride
    evolve(load_hamiltonian(FREE[1]), psi, spec)
    with pytest.raises(StabilityError, match="exceeds the RK4 limit"):
        evolve(verified, psi, spec)


def test_pruning_drops_exact_cancellations():
    # hermitize's [1] slot is 0.5*(q1 + -1.0*q1), which folds to 0 where it is built
    sym = hermitize(load_hamiltonian('dim = 1\nterm [2] = "-0.5"\nterm [1] = "q1"\n'))
    assert {n: c.constant_value() for n, c in sym.terms.items()} == {
        MultiIndex((0,)): -0.5, MultiIndex((2,)): -0.5
    }
    assert require_hermitian(sym).terms == sym.terms


@pytest.mark.parametrize("lengths, error", [
    ((0.0,), GridError), ((float("nan"),), GridError), ((20.0, 20.0), DimensionMismatchError),
])
def test_malformed_sampling_box_is_refused(lengths, error):
    H = op_1d({2: "-0.5"})
    with pytest.raises(error):
        require_hermitian(H, SamplingSpec(lengths=lengths))
    with pytest.raises(error):
        expr.approx_equal(H.coefficient(MultiIndex((2,))), expr.parse("q1", 1), SamplingSpec(lengths=lengths))


@pytest.mark.parametrize("seed, message", [
    (2.5, "seed must be an integer, got 2.5"), (-1, "seed must be non-negative, got -1"),
])
def test_sampling_seed_is_checked_at_construction(seed, message):
    with pytest.raises(ValueError, match=message):
        SamplingSpec(seed=seed)
    assert SamplingSpec(seed=np.int64(7)).seed == 7


@pytest.mark.parametrize("spec, name", [
    ({"samples": 0}, "samples"), ({"samples": -1}, "samples"),
    ({"tol": float("nan")}, "tol"), ({"tol": float("inf")}, "tol"),
    ({"tol": -1e-9}, "tol"), ({"samples": 2.5}, "samples must be an integer"),
])
def test_vacuous_sampling_is_refused(spec, name):
    """Zero points or an unbounded tolerance would call -i*q1 d/dq1 Hermitian.
    A fractional count is refused when the spec is built."""
    qp = op_1d({1: "-i*q1"})
    with pytest.raises(ValueError, match=name):
        hermiticity_violations(qp, SamplingSpec(**spec))
    with pytest.raises(ValueError, match=name):
        require_hermitian(qp, SamplingSpec(**spec))


def test_exact_sampling_tolerance_is_legal():
    assert not hermiticity_violations(op_1d({2: "-0.5", 0: "q1^2"}), SamplingSpec(tol=0.0))
    assert hermiticity_violations(op_1d({1: "-i*q1"}), SamplingSpec(tol=0.0))


def benchmark_operators(out: Path):
    """(H, box length) for every Hamiltonian file of the benchmark's inputs, seeds 1-3."""
    spec = importlib.util.spec_from_file_location("inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    lengths = {"sim2d-driven": inputs.SIM2D_LENGTH, "equiv1d-quartic": inputs.EQUIV1D_LENGTH,
               "symbolic2d-order6": inputs.SYMBOLIC_LENGTH}
    for workload, length in lengths.items():
        for seed in (1, 2, 3):
            files = inputs.write_inputs(workload, seed, out / f"{workload}-{seed}")
            yield from ((load_hamiltonian(text), length) for name, text in files.items() if name.endswith(".ham"))


def test_benchmark_slot_verdicts_match_the_numpy_batch_oracle(tmp_path):
    """Each slot's Hermiticity verdict, on the default box and on the run's box,
    for the raw and the hermitized benchmark operators."""
    for H, length in benchmark_operators(tmp_path):
        for op in (H, hermitize(H)):
            adj = adjoint(op)
            for spec in (SamplingSpec(), SamplingSpec(lengths=(length,) * op.dim)):
                for n in set(op.terms) | set(adj.terms):
                    a, b = op.coefficient(n), adj.coefficient(n)
                    assert expr.approx_equal(a, b, spec) == batch_approx_equal(a, b, spec), (n, a)


def test_hermitize_is_hermitian_by_construction(tmp_path, monkeypatch):
    """`hermitize` samples nothing, so its claim is checked here: every slot of
    (H + adj H)/2 passes the sampled verdict for the benchmark operators, on
    the default box and on the run's box, and for random operators."""
    for H, length in benchmark_operators(tmp_path):
        for spec in (SamplingSpec(), SamplingSpec(lengths=(length,) * H.dim)):
            assert hermiticity_violations(hermitize(H), spec) == []
    rng = np.random.default_rng(3001)
    for k in range(30):
        dim = k % 3 + 1
        center = (2.0,) * dim  # sampled on [0, 4), where the coefficients are not negligible
        H = random_hermitian_operator(rng, dim, 4, center, max_terms=3)
        assert hermiticity_violations(H, centered_spec(center)) == []
    calls = count_hermiticity_checks(monkeypatch)
    sym = hermitize(op_1d({1: "-i*q1"}))
    assert isinstance(sym, HermitianOperator) and calls == []
    assert require_hermitian(sym, SamplingSpec(seed=5)) is sym and calls == []


def test_hermitize_examples():
    assert hermitize(op_1d({1: "1"})).terms == {}
    fixed = hermitize(op_1d({2: "-0.5"}))
    assert expr.approx_equal(fixed.coefficient(MultiIndex((2,))), expr.parse("-0.5", 1))
    sym = hermitize(op_1d({1: "-i*q1"}))
    assert expr.approx_equal(sym.coefficient(MultiIndex((1,))), expr.parse("-i*q1", 1))
    assert expr.approx_equal(sym.coefficient(MultiIndex((0,))), expr.parse("-i/2", 1))
    assert not hermiticity_violations(sym)


def test_hermitize_idempotent_on_hermitian_input():
    H = op_1d({2: "-0.5", 0: "cos(q1)"})
    again = hermitize(H)
    for slot in H.terms:
        assert expr.approx_equal(H.coefficient(slot), again.coefficient(slot))


def test_apply_plane_wave_eigenfunction():
    grid = Grid((8 * np.pi,), (128,))
    H = op_1d({2: "-0.5"})
    k = 1.0
    psi = plane_wave(grid, [k])
    out = apply(H, psi)
    expected = (k ** 2 / 2.0) * psi.values
    assert np.max(np.abs(out.values - expected)) < 1e-10


def test_apply_multiplication_operator():
    grid = Grid((10.0,), (64,))
    H = op_1d({0: "q1"})
    psi = gaussian(grid, center=[5.0], width=0.8)
    out = apply(H, psi)
    assert np.allclose(out.values, grid.axis_points(0) * psi.values)


def test_apply_derivative_of_constant():
    grid = Grid((10.0,), (64,))
    H = op_1d({1: "1"})
    psi = GridState(grid, np.ones(64, dtype=complex))
    out = apply(H, psi)
    assert np.max(np.abs(out.values)) < 1e-12


def test_apply_is_linear():
    rng = np.random.default_rng(13)
    grid = Grid((10.0,), (64,))
    H = op_1d({2: "-0.5", 1: "-i*sin(0.6283185307179586*q1)", 0: "cos(0.6283185307179586*q1)"})
    a = GridState(grid, rng.normal(size=64) + 1j * rng.normal(size=64))
    b = GridState(grid, rng.normal(size=64) + 1j * rng.normal(size=64))
    alpha, beta = 0.3 - 1.1j, 2.0 + 0.4j
    combo = GridState(grid, alpha * a.values + beta * b.values)
    lhs = apply(H, combo).values
    rhs = alpha * apply(H, a).values + beta * apply(H, b).values
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_apply_additivity_over_operators():
    grid = Grid((12.0,), (64,))
    H1 = op_1d({2: "-0.5"})
    H2 = op_1d({0: "q1^2"})
    psi = gaussian(grid, center=[6.0], width=0.7)
    lhs = apply(H1 + H2, psi).values
    rhs = apply(H1, psi).values + apply(H2, psi).values
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_apply_resolution_guard():
    grid = Grid((10.0,), (8,))
    with pytest.raises(GridError):
        apply(op_1d({2: "-0.5"}), GridState(grid, np.ones(8, dtype=complex)))


def test_apply_dimension_guard():
    grid = Grid((10.0, 10.0), (32, 32))
    psi = GridState(grid, np.ones((32, 32), dtype=complex))
    with pytest.raises(DimensionMismatchError):
        apply(op_1d({2: "-0.5"}), psi)


def test_coefficient_condition_agrees_with_grid_inner_product():
    rng = np.random.default_rng(2029)
    grid = Grid((10.0,), (128,))
    center = (5.0,)
    spec = centered_spec(center)
    for case in range(10):
        if case % 2 == 0:
            H = random_hermitian_operator(rng, 1, 4, center)
        else:
            H = visibly_non_hermitian_operator(rng, 1, 4, center)
        symbolic = not hermiticity_violations(H, spec)
        grid_verdict = inner_product_hermitian(H, grid, rng)
        assert symbolic == grid_verdict


def test_adjoint_matches_dense_matrix_conjugate_transpose():
    # independent oracle: realize H as a dense matrix on the grid (uniform
    # quadrature weight cancels), where the adjoint operator must equal the
    # conjugate transpose.  The comparison is restricted to the band-limited
    # subspace: near Nyquist, multiplying by the coefficient aliases, so the
    # two grid realizations of the same continuum operator legitimately
    # differ there.
    #
    # The identity also needs the continuum operator to be periodic: every
    # coefficient and its derivatives up to the operator's order must match
    # across the box edge, because the band-limited modes fill the whole box.
    # The box is 14 wide with the draws centred at 7, so the Gaussian tails
    # (decay 1.0 for the non-Hermitian draws) and their derivatives have
    # fallen below machine precision at q = 0 and q = L.  In a 10-wide box
    # they jump by up to 1.7e-6 there, which alone breaks the 1e-9 bound.
    rng = np.random.default_rng(71)
    grid = Grid((14.0,), (64,))
    center = tuple(grid.center())
    length = grid.lengths[0]
    n_pts = grid.shape[0]
    fourier = np.fft.fft(np.eye(n_pts), axis=0)
    inv_fourier = np.fft.ifft(np.eye(n_pts), axis=0)
    band = np.zeros(n_pts)
    band[np.abs(np.fft.fftfreq(n_pts, 1.0 / n_pts)) <= 8] = 1.0
    projector = (inv_fourier @ np.diag(band) @ fourier).real

    def dense_matrix(op):
        meshes = grid_meshes(grid)
        M = np.zeros((n_pts, n_pts), dtype=complex)
        for n, coef in op.terms.items():
            order = n.entries[0]
            k = grid.wavenumbers(0).copy()
            symbol = (1j * k) ** order
            if order % 2 == 1:
                symbol[n_pts // 2] = 0.0
            D_n = inv_fourier @ np.diag(symbol) @ fourier
            M += np.diag(coef.evaluate_on(meshes, 0.0)) @ D_n
        return M

    def largest_edge_jump(op):
        # max over coefficients and k = 0..max_order of |d^k c(L) - d^k c(0)|
        jumps = [0.0]
        for coef in op.terms.values():
            for k in range(op.max_order + 1):
                derivative = coef.differentiate(MultiIndex((k,)))
                at_edges = [derivative.evaluate((q,), 0.0) for q in (0.0, length)]
                jumps.append(abs(at_edges[1] - at_edges[0]))
        return max(jumps)

    for _ in range(4):
        H = random_hermitian_operator(rng, 1, 3, center, decay=1.2)
        bad = visibly_non_hermitian_operator(rng, 1, 3, center)
        for op, expect_selfadjoint in ((H, True), (bad, False)):
            transposed = projector @ dense_matrix(op).conj().T @ projector
            scale = np.abs(transposed).max()
            adj = adjoint(op)
            jump = max(largest_edge_jump(op), largest_edge_jump(adj))
            assert jump < 1e-12 * scale, (
                f"coefficients are not periodic on the box [0, {length:g}): "
                f"largest edge jump of a coefficient derivative is {jump:.2e}"
            )
            direct = projector @ dense_matrix(adj) @ projector
            assert np.abs(direct - transposed).max() < 1e-9 * scale
            original = projector @ dense_matrix(op) @ projector
            is_selfadjoint = np.abs(original - transposed).max() < 1e-6 * scale
            assert is_selfadjoint == expect_selfadjoint


def test_prunes_zero_coefficients():
    H = DifferentialOperator(
        1, {MultiIndex((3,)): expr.parse("0*q1", 1), MultiIndex((2,)): expr.parse("-0.5", 1)}
    )
    assert set(H.terms) == {MultiIndex((2,))}
    assert H.max_order == 2


def test_time_dependence_flag():
    assert op_1d({0: "cos(t)*q1"}).is_time_dependent()
    assert not op_1d({0: "cos(q1)"}).is_time_dependent()


# ---------------------------------------------------------------------------
# Hamiltonian file format

GOOD_FILE = """
# harmonic oscillator
dim = 1
term [2] = "-0.5"
term [0] = "(q1-5)^2/2"  # potential
"""


def test_load_hamiltonian():
    H = load_hamiltonian(GOOD_FILE)
    assert H.dim == 1
    assert set(H.terms) == {MultiIndex((0,)), MultiIndex((2,))}


# Each malformed Hamiltonian file and the whole message it is refused with.
HAMILTONIAN_REJECTS = {
    'term [2] = "-0.5"': "line 1: 'dim = N' must appear before any term",  # dim missing
    'dim = 1\nterm [2] = -0.5': "line 2: expression must be double-quoted",  # unquoted
    'dim = 1\nterm [2] = "-0.5"\nterm [2] = "1"': "line 3: duplicate term index [2]",
    'dim = 2\nterm [2] = "-0.5"': "line 2: multi-index has 1 entries, expected 2",  # wrong index arity
    'dim = 1\nterm [one] = "-0.5"': "line 2: bad multi-index '[one]'",
    'dim = 1\nterm [-1] = "-0.5"': "line 2: multi-index entries must be non-negative",
    'dim = 1\nterm [1] = "q7"': "line 2: variable q7 out of range for dimension 1 (line 1, column 1)",
    'dim = 0': "line 1: dimension must be >= 1",
    'dim = 1\nwhat = 3': "line 2: unknown key 'what'",
    'dim = 1\ndim = 2': "line 2: duplicate dim declaration",
    'dim = 1\nterm 2 = "-0.5"': "line 2: expected a bracketed multi-index, got '2'",
    'dim = 1\nterm [] = "-0.5"': "line 2: empty multi-index",
    '# neither dim nor a term\n': "missing 'dim = N' declaration",
    'dim = 1\nterm [0] = "q1 $ 2"': "line 2: unexpected character '$' (line 1, column 4)",
}


@pytest.mark.parametrize("text", HAMILTONIAN_REJECTS)
def test_load_hamiltonian_rejects(text):
    with pytest.raises(HamiltonianFormatError, match=f"^{re.escape(HAMILTONIAN_REJECTS[text])}$"):
        load_hamiltonian(text)


@pytest.mark.parametrize("parse, first", [(load_hamiltonian, "dim = 1"), (parse_state_spec, "state = gaussian")],
                         ids=["hamiltonian", "state"])
def test_both_file_formats_refuse_a_line_without_equals_alike(parse, first):
    with pytest.raises(HamiltonianFormatError,
                       match=r"^line 3: expected 'key = value', got 'width 0\.5'$"):
        parse(f"{first}\n# a comment\nwidth 0.5   # no '='\n")


AXIS_OPERATOR = {(2, 0): "-0.5", (0, 2): "-0.5", (1, 0): "0.3*i*sin(q2)",
                 (0, 0): "cos(q1) + 0.5*cos(q1)*sin(3*t) + q1*q2"}


def axis_operator() -> DifferentialOperator:
    return DifferentialOperator(2, {MultiIndex(n): expr.parse(text, 2) for n, text in AXIS_OPERATOR.items()})


def test_applier_evaluates_one_axis_functions_on_axis_vectors(monkeypatch):
    H = axis_operator()  # building an operator evaluates no coefficient; the applier does
    sizes = record_function_argument_sizes(monkeypatch)
    applier = OperatorApplier(H, Grid((10.0, 10.0), (64, 64)))
    # the static sin(q2), and the dynamic coefficient's t-free cos(q1) twice, held
    assert sorted(sizes) == [64, 64, 64]
    sizes.clear()
    for t in (0.25, 0.5):
        applier.coefficient_grids(t)
    assert sizes == [1, 1]  # only the scalar sin(3t), once per t


K20, LATTICE = 2.0 * np.pi / 20.0, 2.0 * np.pi / 5.0
SIM2D_DRIVEN = f"""dim = 2
term [2,0] = "-0.5*(1+0.2*cos({K20!r}*q1))"
term [0,2] = "-0.5*(1+0.2*cos({K20!r}*q2))"
term [1,0] = "0.3*i*sin({K20!r}*q2)"
term [0,1] = "0.3*i*cos({K20!r}*q1)"
term [0,0] = "0.3*(cos({LATTICE!r}*q1)+cos({LATTICE!r}*q2)) + 0.045*(sin({K20!r}*q2)^2+cos({K20!r}*q1)^2) + 0.5*cos({K20!r}*q1)*sin(3*t)"
"""


def test_held_coefficient_evaluates_bitwise_as_the_expression():
    """The driven 2D benchmark operator's hermitized [0,0] and random
    coefficients times a drive: holding the t-free parts on the axis vectors
    changes no bit at a scalar or an array t, nor either printed form."""
    grid = Grid((20.0, 20.0), (64, 64))
    axes = grid.axis_vectors()
    coefs = [hermitize(load_hamiltonian(SIM2D_DRIVEN)).coefficient(MultiIndex((0, 0)))]
    rng = np.random.default_rng(3)
    drive = expr.parse("1 + 0.5*sin(3*t)", 2)
    for _ in range(4):
        coefs += [drive * c for c in random_operator(rng, 2, 2, grid.center()).terms.values()]
    times = [0.0, 0.37, rng.random(grid.shape), rng.random((64, 1))]
    for coef in coefs:
        assert expr.contains_time(coef)
        held = coef.held_on(axes)
        assert held.to_string() == coef.to_string()
        assert held.to_latex() == coef.to_latex()
        for t in times:
            assert held.evaluate_on(axes, t).tobytes() == coef.evaluate_on(axes, t).tobytes()


@pytest.mark.parametrize("text", ["1/(sin(t)*cos(q1))", "1/q1 + sin(t)"], ids=["t-path", "t-free"])
def test_held_coefficient_fault_names_the_same_subexpression(text):
    """A fault on the t-path, or in a t-free part that faults on the grid
    (q1 = 0 is a grid point), raises at each t with the message of the plain
    evaluation; building the applier does not raise."""
    coef = expr.parse(text, 2)
    applier = OperatorApplier(DifferentialOperator(2, {MultiIndex((0, 0)): coef}), Grid((10.0, 10.0), (16, 16)))
    with pytest.raises(EvaluationDomainError) as plain:
        coef.evaluate_on(applier.grid.axis_vectors(), 0.0)
    with pytest.raises(EvaluationDomainError) as held:
        applier.coefficient_grids(0.0)
    assert str(held.value) == str(plain.value)


def test_applier_coefficient_grids_have_full_shape_and_mesh_values():
    grid = Grid((10.0, 10.0), (32, 16))
    H = axis_operator()
    applier = OperatorApplier(H, grid)
    static = [n for n, coef in H.terms.items() if not expr.contains_time(coef)]
    for t in (0.0, 0.4):
        grids = applier.coefficient_grids(t)
        assert list(grids) == static + [MultiIndex((0, 0))]
        for n, values in grids.items():
            assert values.shape == grid.shape
            assert values.tobytes() == H.coefficient(n).evaluate_on(grid_meshes(grid), t).tobytes()
            assert values.flags.writeable == (n not in static)


@pytest.mark.parametrize(
    "dim, order, grid",
    [(1, 4, Grid((16.0,), (32,))), (2, 3, Grid((12.0, 12.0), (16, 16)))],
    ids=["1d", "2d"],
)
def test_spectral_interval_holds_the_hermitian_part_of_the_grid_matrix(dim, order, grid):
    """Every eigenvalue of (M + M^H)/2, M the grid matrix of H, lies in the
    interval, with and without constant-coefficient (folded) kinetic terms."""
    rng = np.random.default_rng(31)
    kinetic = load_hamiltonian(f"dim = {dim}\n" + "".join(
        f'term {[2 * e for e in MultiIndex.unit(a, dim).entries]} = "-0.5"\n' for a in range(1, dim + 1)))
    size = int(np.prod(grid.shape))
    for draw in range(6):
        H = random_hermitian_operator(rng, dim, order, grid.center())
        if draw % 2:
            H = H + kinetic.scaled(1 + draw)
        applier = H.realize(grid)
        columns = [applier(unit.reshape(grid.shape), 0.0).reshape(-1) for unit in np.eye(size)]
        M = np.array(columns).T
        eigenvalues = np.linalg.eigvalsh((M + M.conj().T) / 2)
        low, high = applier.spectral_interval(0.0)
        radius = applier.spectral_radius(0.0)
        assert -radius <= low <= high <= radius
        slack = 1e-12 * radius
        assert low - slack <= eigenvalues[0] and eigenvalues[-1] <= high + slack
