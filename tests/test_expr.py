import cmath
import itertools
import random
import re

import numpy as np
import pytest

import oracles
from pilotwave import expr
from pilotwave.errors import (
    EvaluationDomainError,
    ExpressionSyntaxError,
    SamplingError,
)
from pilotwave.expr import SamplingSpec
from pilotwave.grids import DEFAULT_LENGTH, Grid
from pilotwave.multiindex import MultiIndex


def test_parse_constant():
    e = expr.parse("-0.5", 1)
    assert e.constant_value() == -0.5


def test_parse_wellformed():
    e = expr.parse("i*q1^2 + exp(-t)", 2)
    assert e.evaluate((2.0, 5.0), 0.0) == pytest.approx(4j + 1.0)


def test_parse_out_of_range_variable():
    with pytest.raises(ExpressionSyntaxError):
        expr.parse("q3", 2)
    with pytest.raises(ExpressionSyntaxError):
        expr.parse("q0", 2)


def test_parse_rejects_a_number_that_overflows():
    with pytest.raises(ExpressionSyntaxError, match=r"number 1e400 is out of range \(line 1, column 6\)"):
        expr.parse("2*q1*1e400", 1)


def test_parse_unknown_identifier():
    with pytest.raises(ExpressionSyntaxError) as err:
        expr.parse("q1 + foo", 1)
    assert "foo" in str(err.value)


def test_parse_error_carries_position():
    with pytest.raises(ExpressionSyntaxError) as err:
        expr.parse("q1 +\n  )", 1)
    assert err.value.line == 2
    assert err.value.column == 3


def test_parse_unbalanced():
    with pytest.raises(ExpressionSyntaxError):
        expr.parse("(q1 + 2", 1)
    with pytest.raises(ExpressionSyntaxError):
        expr.parse("q1 2", 1)


def test_precedence():
    # unary minus binds looser than the power
    e = expr.parse("-q1^2", 1)
    assert e.evaluate((3.0,), 0.0) == -9.0
    e2 = expr.parse("2*q1^2", 1)
    assert e2.evaluate((3.0,), 0.0) == 18.0
    e3 = expr.parse("q1^-1", 1)
    assert e3.evaluate((4.0,), 0.0) == 0.25


def test_power_requires_integer_literal():
    with pytest.raises(ExpressionSyntaxError):
        expr.parse("q1^1.5", 1)
    with pytest.raises(ExpressionSyntaxError):
        expr.parse("q1^q1", 1)


def test_whitespace_insensitive():
    a = expr.parse("q1*q2+ sin( t )", 2)
    b = expr.parse("q1 * q2 + sin(t)", 2)
    assert expr.approx_equal(a, b)


def test_differentiate_polynomial():
    e = expr.parse("q1^2", 1).differentiate(MultiIndex((1,)))
    assert expr.approx_equal(e, expr.parse("2*q1", 1))


def test_differentiate_constant():
    for n in [MultiIndex((1,)), MultiIndex((3,))]:
        assert expr.parse("2.5", 1).differentiate(n).is_structural_zero


def test_differentiate_mixed_vs_finite_differences():
    e = expr.parse("exp(i*q1*q2)", 2)
    d = e.differentiate(MultiIndex((1, 1)))
    rng = np.random.default_rng(5)
    h = 1e-5
    for _ in range(10):
        q = rng.uniform(-1.5, 1.5, 2)
        t = rng.uniform(0, 1)
        stencil = 0.0
        for s1 in (-1, 1):
            for s2 in (-1, 1):
                stencil += s1 * s2 * e.evaluate((q[0] + s1 * h, q[1] + s2 * h), t)
        approx = stencil / (4 * h * h)
        exact = d.evaluate(q, t)
        assert abs(approx - exact) < 1e-6 * (1 + abs(exact))


def test_differentiate_matches_expected_form():
    d = expr.parse("exp(i*q1*q2)", 2).differentiate(MultiIndex((1, 1)))
    expected = expr.parse("i*exp(i*q1*q2) + (i*q2)*(i*q1)*exp(i*q1*q2)", 2)
    assert expr.approx_equal(d, expected)


def test_differentiate_is_linear():
    rng = np.random.default_rng(11)
    a = expr.parse("sin(q1)*q2", 2)
    b = expr.parse("exp(q2)*cos(q1)", 2)
    alpha, beta = 1.7, -0.4 + 0.2j
    n = MultiIndex((1, 1))
    lhs = (expr.const(alpha, 2) * a + expr.const(beta, 2) * b).differentiate(n)
    rhs = expr.const(alpha, 2) * a.differentiate(n) + expr.const(beta, 2) * b.differentiate(n)
    assert expr.approx_equal(lhs, rhs, SamplingSpec(seed=int(rng.integers(1 << 30))))


def test_mixed_partials_commute():
    e = expr.parse("exp(sin(q1)*q2) + q1^3*q2^2", 2)
    a, b = MultiIndex((1, 0)), MultiIndex((0, 2))
    lhs = e.differentiate(a).differentiate(b)
    rhs = e.differentiate(a + b)
    assert expr.approx_equal(lhs, rhs)


def test_evaluate_examples():
    assert expr.parse("i", 1).evaluate((0.7,), 0.3) == 1j
    assert expr.parse("q1*q2", 2).evaluate((2.0, 3.0), 0.0) == 6.0
    with pytest.raises(EvaluationDomainError):
        expr.parse("1/q1", 1).evaluate((0.0,), 0.0)
    with pytest.raises(EvaluationDomainError):
        expr.parse("log(q1)", 1).evaluate((0.0,), 0.0)


def test_evaluate_reports_subexpression():
    with pytest.raises(EvaluationDomainError) as err:
        expr.parse("q1 + 1/(q1-1)", 1).evaluate((1.0,), 0.0)
    assert "q1 - 1" in str(err.value)


def test_evaluate_on_matches_scalar():
    e = expr.parse("sin(q1)*exp(i*q2) + t", 2)
    xs = np.linspace(0, 1, 4)
    ys = np.linspace(0, 2, 5)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    field = e.evaluate_on([X, Y], 0.25)
    for i in range(4):
        for j in range(5):
            assert field[i, j] == pytest.approx(e.evaluate((xs[i], ys[j]), 0.25))


def test_evaluate_on_broadcasts_time_with_meshes():
    e = expr.parse("q1*exp(-t)", 1)
    q = np.array([0.5, 1.0, 2.0])
    t = np.array([0.0, 0.3, 0.9])
    field = e.evaluate_on([q], t)
    assert field.shape == (3,)
    for k in range(3):
        assert field[k] == e.evaluate((q[k],), t[k])


def test_approx_equal_basics():
    assert expr.approx_equal(expr.parse("q1+q1", 1), expr.parse("2*q1", 1))
    assert expr.approx_equal(expr.parse("sin(q1)^2", 1), expr.parse("1-cos(q1)^2", 1))
    assert not expr.approx_equal(expr.parse("q1", 1), expr.parse("q1+1e-3", 1), SamplingSpec(tol=1e-9))


def test_approx_equal_redraws_on_faults():
    # log(q1^2) faults only at q1 = 0, which has measure zero; redraws succeed
    a = expr.parse("log(q1^2)", 1)
    b = expr.parse("2*log(sqrt(q1^2))", 1)
    assert expr.approx_equal(a, b)


def test_approx_equal_gives_up_when_always_faulting():
    bad = expr.parse("1/(q1-q1)", 1)
    with pytest.raises(SamplingError):
        expr.approx_equal(bad, bad)


def test_overflow_is_a_fault():
    square = expr.parse("(1e200*q1)*(1e200*q1)", 1)
    with pytest.raises(EvaluationDomainError) as err:
        square.evaluate((1.0,), 0.0)
    assert "overflow" in str(err.value)
    # every sample point overflows, so no point is valid
    with pytest.raises(SamplingError):
        expr.approx_equal(square, square + 1)


@pytest.mark.parametrize(
    "text, faulting",
    [
        ("1e200*1e200*q1", "1e+200*1e+200"),
        ("1e200^2*q1", "1e+200^2"),
        ("1e308+1e308+q1", "1e+308 + 1e+308"),
        ("-1e308-1e308+q1", "-1e+308 - 1e+308"),
        ("1e300/1e-300*q1", "1e+300/1e-300"),
        ("1/0*q1", "1.0/0.0"),
        ("0^-1*q1", "0.0^-1"),
        ("exp(1000)*q1", "exp(1000.0)"),
    ],
)
def test_constants_that_fault_stay_unfolded(text, faulting):
    e = expr.parse(text, 1)
    assert e.to_string() in (f"{faulting}*q1", f"{faulting} + q1")
    with pytest.raises(EvaluationDomainError) as err:
        e.evaluate((1.0,), 0.0)
    assert err.value.subexpression == faulting
    with pytest.raises(SamplingError, match=r"\(first fault: .* in '" + re.escape(faulting) + r"'\)$"):
        expr.approx_equal(e, e)


def test_sampling_error_names_the_first_fault():
    # overflows for q1 > 0.071 in the first term and q1 < -0.071 in the
    # second; the first draw of seed 2024 in the box [0, 40) is q1 = 18.80
    e = expr.parse("exp(10000*q1) + exp(-10000*q1)", 1)
    with pytest.raises(SamplingError, match=r"\(first fault: overflow .* in 'exp\(10000\.0\*q1\)'\)$"):
        expr.approx_equal(e, e, SamplingSpec(seed=2024))


def test_sampling_error_names_bs_fault_when_a_has_none():
    a, b = expr.parse("q1", 1), expr.parse("1/(q1-q1)", 1)
    with pytest.raises(SamplingError, match=r"\(first fault: divide by zero .* in '1\.0/0\.0'\)$"):
        expr.approx_equal(a, b)


def test_held_powers_evaluate_bitwise_as_unheld():
    """Both powers have a base with t, so holding keeps each Pow and holds the
    t-free parts of its base (exp(q2) in the first)."""
    e = expr.parse("(cos(t)*q1 + exp(q2))^3 - (q2 + t + 1)^-2*sin(q1)", 2)
    meshes = Grid((10.0, 20.0), (16, 32)).axis_vectors()
    held = e.held_on(meshes)
    assert isinstance(held.node.left, expr.Pow) and isinstance(held.node.left.base.right, expr._Held)
    for t in (0.0, 0.3, 1.7):
        assert held.evaluate_on(meshes, t).tobytes() == e.evaluate_on(meshes, t).tobytes()


def test_finite_constants_still_fold():
    assert expr.parse("1e200*1e100*2^3/4 - 1 + exp(0)", 1).constant_value() == 2e300
    assert expr.parse("(0.1+0.2*i)*(0.3-i)/(1+i)^3", 1).constant_value() == (
        (0.1 + 0.2j) * (0.3 - 1j) / (1 + 1j) ** 3
    )


def reference_approx_equal(a, b, samples=32, seed=2024, tol=1e-9, lengths=None):
    """approx_equal as a per-point loop: q and t drawn from random.Random(seed)
    per attempt, one evaluate call per side and point, a redraw on a fault."""
    box = np.full(a.dim, DEFAULT_LENGTH) if lengths is None else np.asarray(lengths, dtype=float)
    rng = random.Random(seed)
    valid = attempts = 0
    while valid < samples:
        if attempts >= 10 * samples:
            raise SamplingError(f"only {valid}/{samples} valid sample points")
        attempts += 1
        q = box * np.array([rng.random() for _ in range(a.dim)])
        t = rng.random()
        try:
            va = a.evaluate(q, t)
            vb = b.evaluate(q, t)
        except EvaluationDomainError:
            continue
        valid += 1
        if abs(va - vb) > tol * (1.0 + abs(va) + abs(vb)):
            return False
    return True


def verdict(check, a, b, **kwargs):
    try:
        return check(a, b, **kwargs)
    except SamplingError:
        return "gives up"


def bump_pairs():
    """(a, b, SamplingSpec fields) whose verdicts depend on exactly which points are drawn and kept.

    A narrow bump at c is seen only if a drawn point lands near c.  On the
    box [0, 4), exp(800*(q1-2)) overflows for q1 > 2.89 and
    exp(10000*(q1-0.2)) for q1 > 0.27, so those pairs skip many points or
    run out of them.
    """
    pairs = [
        (expr.parse("log(q1^2)", 1), expr.parse("2*log(sqrt(q1^2))", 1), {}),
        (expr.parse("1/(q1-q1)", 1), expr.parse("1/(q1-q1)", 1), {}),
    ]
    for c in np.linspace(-0.2, 4.2, 23):
        bump = f"1e-3*exp(-5000*(q1 - {float(c)!r})^2)"
        for base, kwargs in (
            ("q1", {"samples": 8}),
            ("exp(800*(q1-2))", {"samples": 8}),
            ("exp(10000*(q1-0.2))", {"samples": 32}),
        ):
            a = expr.parse(base, 1)
            b = expr.parse(f"({base})*(1 + {bump})", 1)
            pairs.append((a, b, {"lengths": (4.0,), **kwargs}))
        shifted = expr.parse(f"q1*q2 + {bump}*exp(-(q2 - 2)^2)", 2)
        pairs.append((expr.parse("q1*q2", 2), shifted, {"samples": 8, "lengths": (4.0, 4.0)}))
    return pairs


def test_batched_approx_equal_matches_per_point_loop():
    seen = []
    for seed in (2024, 5):
        for a, b, kwargs in bump_pairs():
            expected = verdict(reference_approx_equal, a, b, seed=seed, **kwargs)
            assert verdict(expr.approx_equal, a, b, spec=SamplingSpec(seed=seed, **kwargs)) == expected, (a, b)
            seen.append(expected)
    assert {True, False, "gives up"} <= set(seen)


@pytest.mark.parametrize("seed", [0, 1, 2024, 2**32 + 1, 2**130 + 7], ids=["0", "1", "2024", "2^32+1", "2^130+7"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sample_points_are_the_oracles_rows_bit_for_bit(seed, dim):
    """Point k is row k of the numpy-batch oracle's draw, scaled to the box.
    2^32+1 and 2^130+7 are seeds longer than one 32-bit word."""
    spec = SamplingSpec(seed=seed, samples=4, lengths=(3.0, 0.7, 1e-3)[:dim])
    points = list(itertools.islice(spec._points(dim), 10 * spec.samples))
    q, t = oracles._draw(spec, dim, budget=10)
    assert np.array([p for p, _ in points]).tobytes() == q.astype(complex).tobytes()
    assert np.array([when for _, when in points]).tobytes() == t.astype(complex).tobytes()


DEFAULT_POINTS = {
    1: [((18.803628737242825,), 0.7282642914232076),
        ((12.1500543356543,), 0.8872982690000151),
        ((16.40354357874903,), 0.7166143935816427)],
    2: [((18.803628737242825, 29.130571656928304), 0.3037513583913575),
        ((35.4919307600006, 16.40354357874903), 0.7166143935816427),
        ((10.60884551202669, 9.806665967746921), 0.8125816265884215)],
    3: [((18.803628737242825, 29.130571656928304, 12.1500543356543), 0.8872982690000151),
        ((16.40354357874903, 28.664575743265708, 10.60884551202669), 0.24516664919367304),
        ((32.50326506353686, 19.932055280855998, 16.634884037771617), 0.727759134886051)],
}


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_default_sample_points_are_pinned(dim):
    """random.Random(seed).random() keeps its stream for an int seed across
    Python versions, so the default points are the same on every version."""
    points = list(itertools.islice(SamplingSpec()._points(dim), 3))
    assert points == [(tuple(map(complex, q)), complex(t)) for q, t in DEFAULT_POINTS[dim]]


@pytest.mark.parametrize("seed", [np.int64(7), np.uint32(7)], ids=["int64", "uint32"])
def test_numpy_integer_seed_samples_as_its_int(seed):
    spec, plain = SamplingSpec(seed=seed, samples=np.int64(8)), SamplingSpec(seed=7, samples=8)
    assert type(spec.seed) is int and type(spec.samples) is int
    assert list(itertools.islice(spec._points(2), 80)) == list(itertools.islice(plain._points(2), 80))
    x, y = expr.parse("q1*q2", 2), expr.parse("q2*q1 + 1e-3*exp(-(q1 - 20)^2)", 2)
    for other in (expr.parse("q2*q1", 2), y):
        assert expr.approx_equal(x, other, spec) == expr.approx_equal(x, other, plain)


def random_ast(rng, depth):
    """A random expression in q1, q2 and t: sums, differences, products, exp, negation and conjugates."""
    if depth == 0:
        choice = rng.integers(0, 3)
        if choice == 0:
            return expr.const(complex(rng.normal(), rng.normal()), 2)
        if choice == 1:
            return expr.parse(f"q{int(rng.integers(1, 3))}", 2)
        return expr.parse("t", 2)
    a = random_ast(rng, depth - 1)
    b = random_ast(rng, depth - 1)
    op = rng.integers(0, 6)
    if op == 0:
        return a + b
    if op == 1:
        return a - b
    if op == 2:
        return a * b
    if op == 3:
        return expr.call("exp", expr.const(0.1, 2) * a)
    if op == 4:
        return -a
    return a.conjugate() + b


def sampled_verdict(check, a, b, spec):
    try:
        return check(a, b, spec)
    except SamplingError as exc:
        return str(exc)


def test_scalar_verdicts_match_the_numpy_batch_oracle():
    """The point-by-point scalar checks give the verdicts, and the SamplingError
    texts, of the numpy batch over the whole 10x budget."""
    rng = np.random.default_rng(23)
    pairs = bump_pairs()
    for _ in range(60):
        e = random_ast(rng, int(rng.integers(1, 4)))
        pairs.append((e, expr.parse(e.to_string(), 2), {"seed": int(rng.integers(1 << 30))}))
        pairs.append((e, e + expr.parse("1e-6*exp(-(q1 - 20)^2)", 2), {}))
    seen = []
    for a, b, kwargs in pairs:
        spec = SamplingSpec(**kwargs)
        expected = sampled_verdict(oracles.approx_equal, a, b, spec)
        assert sampled_verdict(expr.approx_equal, a, b, spec) == expected, (a, b)
        seen.append(expected if isinstance(expected, bool) else "gives up")
    assert {True, False, "gives up"} <= set(seen)


@pytest.mark.parametrize("text, point", [
    ("1e200*1e200*q1", 1.0), ("1/q1", 0.0), ("log(q1)", 0.0), ("exp(10000*q1)", 1.0),
])
def test_scalar_faults_read_as_numpys(text, point):
    """A fault of the scalar table has numpy's text, at a point and in a SamplingError."""
    e = expr.parse(text, 1)
    with pytest.raises(EvaluationDomainError) as grid:
        e.evaluate((point,), 0.5)
    with pytest.raises(EvaluationDomainError) as scalar:
        expr._walk(e.node, (complex(point),), 0.5 + 0j, expr._SCALAR)
    assert str(scalar.value) == str(grid.value)
    spec = SamplingSpec()
    assert sampled_verdict(expr.approx_equal, e, e, spec) == sampled_verdict(oracles.approx_equal, e, e, spec)


@pytest.mark.parametrize("text, q1, fault", [
    ("exp(q1)^2", 400.0, "overflow encountered in power in 'exp(q1)^2'"),
    ("q1^-1", 0.0, "invalid value encountered in power in 'q1^-1'"),
    ("1e200*1e200*q1", 1.0, "overflow encountered in multiply in '1e+200*1e+200'"),
])
def test_a_grid_fault_is_named_by_its_node(text, q1, fault):
    """A power faults as "power" and a product of constants as "multiply", not
    by the names of numpy's fast paths ("square", "reciprocal", "scalar multiply")."""
    with pytest.raises(EvaluationDomainError) as err:
        expr.parse(text, 1).evaluate_on([np.array([1.0, q1])], 0.5)
    assert str(err.value) == fault


@pytest.mark.parametrize("text, fault", [
    ("exp(360 + 8*q1)^2", "overflow encountered in power in 'exp(360.0 + 8.0*q1)^2'"),
    ("1e200*1e200*q1", "overflow encountered in multiply in '1e+200*1e+200'"),
])
def test_a_sampled_fault_is_named_by_its_node(text, fault):
    """Both fault at every point of [0, 40), so the check names the first fault in
    the words the grid uses."""
    e = expr.parse(text, 1)
    with pytest.raises(SamplingError) as err:
        expr.approx_equal(e, e)
    assert str(err.value) == f"only 0/32 valid sample points after 320 draws (first fault: {fault})"


@pytest.mark.parametrize("func", ["exp", "sin", "cos", "log", "sqrt"])
def test_functions_match_cmath(func):
    z = np.random.default_rng(41).uniform(-3.0, 3.0, (100, 2))
    values = expr.parse(f"{func}(q1 + i*q2)", 2).evaluate_on([z[:, 0], z[:, 1]], 0.0)
    for (x, y), value in zip(z, values):
        exact = getattr(cmath, func)(complex(x, y))
        assert abs(value - exact) <= 1e-15 * abs(exact)


def test_roundtrip_through_printer():
    rng = np.random.default_rng(17)
    texts = [
        "q1^2 - 3*q2 + i",
        "exp(-t)*sin(q1)/(1+q2^2)",
        "-q1^3 + sqrt(q2^2 + 1)",
        "(0.25+0.5*i)*cos(q1*q2) - log(2+q2^2)",
        "1e-09*q1 + 2.5e3",
        "conj(log(q1 + 3))",
    ]
    for text in texts:
        e = expr.parse(text, 2)
        back = expr.parse(e.to_string(), 2)
        assert expr.approx_equal(e, back, SamplingSpec(seed=int(rng.integers(1 << 30))))


def test_roundtrip_random_asts():
    rng = np.random.default_rng(23)
    for _ in range(60):
        e = random_ast(rng, int(rng.integers(1, 4)))
        back = expr.parse(e.to_string(), 2)
        assert expr.approx_equal(e, back, SamplingSpec(seed=int(rng.integers(1 << 30)), tol=1e-9))


def test_conjugate_pointwise():
    rng = np.random.default_rng(31)
    cases = ["exp(i*q1) + sin(q1*q2)", "(2+3*i)*q1^3/(1+q2^2)", "sqrt(q1^2+1)", "log(q1^2+0.5)"]
    for text in cases:
        e = expr.parse(text, 2)
        c = e.conjugate()
        for _ in range(8):
            q = rng.uniform(-2, 2, 2)
            t = rng.uniform(0, 1)
            assert c.evaluate(q, t) == pytest.approx(e.evaluate(q, t).conjugate())


def test_conjugate_involution():
    e = expr.parse("(1+2*i)*exp(i*q1) + log(q1+5)", 1)
    assert expr.approx_equal(e.conjugate().conjugate(), e)


def test_contains_time():
    assert expr.contains_time(expr.parse("exp(-t)*q1", 1))
    assert not expr.contains_time(expr.parse("exp(-q1)", 1))


def test_simplification_keeps_structure_light():
    zero = expr.parse("0*q1", 1)
    assert zero.is_structural_zero
    same = expr.parse("q1+0", 1)
    assert same.to_string() == "q1"
    folded = expr.parse("2*3 + 1", 1)
    assert folded.constant_value() == 7.0
    # a + (-1)*a is the one like-terms fold, in either order
    x, y, minus = expr.parse("exp(q1)*q2", 2), expr.parse("q2", 2), expr.const(-1, 2)
    assert (x + minus * x).is_structural_zero and (minus * x + x).is_structural_zero
    assert expr.parse("q1 + -1*q1", 1).is_structural_zero
    assert (x + expr.const(-2, 2) * x).to_string() == "exp(q1)*q2 + -2.0*exp(q1)*q2"
    assert (x + minus * y).to_string() == "exp(q1)*q2 + -1.0*q2"
    assert (expr.const(2.5, 2) + expr.const(-2.5, 2)).is_structural_zero


def test_latex_smoke():
    e = expr.parse("q1^2/ (1+q2)", 2)
    tex = e.to_latex()
    assert "\\frac" in tex and "q_{1}" in tex
    assert "\\mathrm{i}" in expr.parse("i*q1", 1).to_latex()


def test_dimension_mismatch():
    from pilotwave.errors import DimensionMismatchError

    with pytest.raises(DimensionMismatchError):
        expr.parse("q1", 1) + expr.parse("q1", 2)
    with pytest.raises(DimensionMismatchError):
        expr.parse("q1", 1).evaluate((1.0, 2.0), 0.0)
    with pytest.raises(DimensionMismatchError):
        expr.parse("q1", 1).differentiate(MultiIndex((1, 0)))


# (text, to_string, to_latex, conjugate, d/dq1, d^2/dq1 dq2) in dimension 2.
# The texts cover every node kind and the precedence edges of both spellings;
# a change to how nodes are built, walked or printed must keep every string.
PINNED = [
    ('q1 - (q2 - t)', 'q1 - (q2 - t)', 'q_{1} - \\left(q_{2} - t\\right)', 'q1 - (q2 - t)', '1.0', '0.0'),
    ('q1 - q2 - t', 'q1 - q2 - t', 'q_{1} - q_{2} - t', 'q1 - q2 - t', '1.0', '0.0'),
    ('q1/(q2*t)', 'q1/(q2*t)', '\\frac{q_{1}}{q_{2} \\, t}', 'q1/(q2*t)', 'q2*t/(q2*t)^2', '(t*(q2*t)^2 - q2*t*2.0*q2*t*t)/((q2*t)^2)^2'),
    ('q1/(q2/t)', 'q1/(q2/t)', '\\frac{q_{1}}{\\frac{q_{2}}{t}}', 'q1/(q2/t)', 'q2/t/(q2/t)^2', '(t/t^2*(q2/t)^2 - q2/t*2.0*q2/t*t/t^2)/((q2/t)^2)^2'),
    ('q1*q2/t', 'q1*q2/t', '\\frac{q_{1} \\, q_{2}}{t}', 'q1*q2/t', 'q2*t/t^2', 't*t^2/(t^2)^2'),
    ('(q1 + q2)*(q1 - t)', '(q1 + q2)*(q1 - t)', '\\left(q_{1} + q_{2}\\right) \\, \\left(q_{1} - t\\right)', '(q1 + q2)*(q1 - t)', 'q1 - t + q1 + q2', '1.0'),
    ('(-q1)^2', '(-q1)^2', '\\left(-q_{1}\\right)^{2}', '(-q1)^2', '2.0*-q1*-1.0', '0.0'),
    ('-q1^2', '-q1^2', '-q_{1}^{2}', '-q1^2', '-(2.0*q1)', '-0.0'),
    ('q1^-2', 'q1^-2', 'q_{1}^{-2}', 'q1^-2', '-2.0*q1^-3', '0.0'),
    ('(q1 + t)^3', '(q1 + t)^3', '\\left(q_{1} + t\\right)^{3}', '(q1 + t)^3', '3.0*(q1 + t)^2', '0.0'),
    ('i', 'i', '\\mathrm{i}', '-i', '0.0', '0.0'),
    ('-i', '-i', '-\\mathrm{i}', 'i', '0.0', '0.0'),
    ('2*i', '2.0*i', '2.0\\,\\mathrm{i}', '-2.0*i', '0.0', '0.0'),
    ('(1+2*i)', '(1.0+2.0*i)', '\\left(1.0 + 2.0\\,\\mathrm{i}\\right)', '(1.0-2.0*i)', '0.0', '0.0'),
    ('(1-2*i)*q1', '(1.0-2.0*i)*q1', '\\left(1.0 - 2.0\\,\\mathrm{i}\\right) \\, q_{1}', '(1.0+2.0*i)*q1', '(1.0-2.0*i)', '0.0'),
    ('-2.5*q2', '-2.5*q2', '-2.5 \\, q_{2}', '-2.5*q2', '0.0', '0.0'),
    ('i*q1 - i*q2', 'i*q1 - i*q2', '\\mathrm{i} \\, q_{1} - \\mathrm{i} \\, q_{2}', '-i*q1 - -i*q2', 'i', '0.0'),
    ('exp(sin(q1)*cos(q2))', 'exp(sin(q1)*cos(q2))', '\\exp\\left(\\sin\\left(q_{1}\\right) \\, \\cos\\left(q_{2}\\right)\\right)', 'exp(sin(q1)*cos(q2))', 'exp(sin(q1)*cos(q2))*cos(q1)*cos(q2)', 'exp(sin(q1)*cos(q2))*sin(q1)*-sin(q2)*cos(q1)*cos(q2) + exp(sin(q1)*cos(q2))*cos(q1)*-sin(q2)'),
    ('-(q1 + q2)*t', '-(q1 + q2)*t', '-\\left(q_{1} + q_{2}\\right) \\, t', '-(q1 + q2)*t', '-1.0*t', '0.0'),
    ('conj(log(2 + q1))', 'conj(log(2.0 + q1))', '\\overline{\\log\\left(2.0 + q_{1}\\right)}', 'log(2.0 + q1)', '1.0/(2.0 + q1)', '0.0'),
    ('conj(sqrt(1 + q1^2))', 'conj(sqrt(1.0 + q1^2))', '\\overline{\\sqrt{1.0 + q_{1}^{2}}}', 'sqrt(1.0 + q1^2)', '2.0*q1/(2.0*conj(sqrt(1.0 + q1^2)))', '0.0'),
    ('conj(exp(i*q1)) + conj(conj(log(q2)))', 'exp(-i*q1) + log(q2)', '\\exp\\left(-\\mathrm{i} \\, q_{1}\\right) + \\log\\left(q_{2}\\right)', 'exp(i*q1) + conj(log(q2))', 'exp(-i*q1)*-i', '0.0'),
    ('(q1/q2)^2', '(q1/q2)^2', '\\frac{q_{1}}{q_{2}}^{2}', '(q1/q2)^2', '2.0*q1/q2*q2/q2^2', '2.0*-q1/q2^2*q2/q2^2 + 2.0*q1/q2*(q2^2 - q2*2.0*q2)/(q2^2)^2'),
    ('q1/q2*t', 'q1/q2*t', '\\frac{q_{1}}{q_{2}} \\, t', 'q1/q2*t', 'q2/q2^2*t', '(q2^2 - q2*2.0*q2)/(q2^2)^2*t'),
    ('q1 - -2', 'q1 - -2.0', 'q_{1} - -2.0', 'q1 - -2.0', '1.0', '0.0'),
    ('sqrt(q1)/log(q2)', 'sqrt(q1)/log(q2)', '\\frac{\\sqrt{q_{1}}}{\\log\\left(q_{2}\\right)}', 'conj(sqrt(q1))/conj(log(q2))', '1.0/(2.0*sqrt(q1))*log(q2)/log(q2)^2', '(1.0/(2.0*sqrt(q1))*1.0/q2*log(q2)^2 - 1.0/(2.0*sqrt(q1))*log(q2)*2.0*log(q2)*1.0/q2)/(log(q2)^2)^2'),
]


@pytest.mark.parametrize("row", PINNED, ids=[row[0] for row in PINNED])
def test_printers_and_derivatives_are_pinned(row):
    text, plain, latex, conjugate, d1, d11 = row
    e = expr.parse(text, 2)
    assert e.to_string() == plain
    assert e.to_latex() == latex
    assert e.conjugate().to_string() == conjugate
    assert e.differentiate(MultiIndex((1, 0))).to_string() == d1
    assert e.differentiate(MultiIndex((1, 1))).to_string() == d11


@pytest.mark.parametrize("text", ["log(2 + q1)", "sqrt(q1)*exp(i*q2)", "conj(log(q1))", "(1+2*i)*t"])
def test_call_conj_is_conjugate(text):
    e = expr.parse(text, 2)
    assert expr.call("conj", e) == e.conjugate()
    assert expr.parse(f"conj({text})", 2) == e.conjugate()


@pytest.mark.parametrize("samples", [0, -1])
def test_sampled_checks_refuse_fewer_than_one_sample(samples):
    a, b = expr.parse("q1", 1), expr.parse("q1 + 1", 1)
    with pytest.raises(ValueError, match="samples must be at least 1"):
        expr.approx_equal(a, b, SamplingSpec(samples=samples))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
def test_approx_equal_refuses_a_tolerance_that_is_negative_or_not_finite(tol):
    with pytest.raises(ValueError, match="tol must be non-negative and finite"):
        expr.approx_equal(expr.parse("q1", 1), expr.parse("q1 + 1", 1), SamplingSpec(tol=tol))


def test_approx_equal_with_zero_tolerance_asks_for_exact_agreement():
    e, near = expr.parse("exp(q1)*q2", 2), expr.parse("exp(q1)*q2 + 1e-12", 2)
    assert expr.approx_equal(e, e, SamplingSpec(tol=0.0))
    assert expr.approx_equal(e, near)
    assert not expr.approx_equal(e, near, SamplingSpec(tol=0.0))
