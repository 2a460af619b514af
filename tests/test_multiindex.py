import math

import pytest
from hypothesis import given, strategies as st

from pilotwave.errors import DimensionMismatchError
from pilotwave.multiindex import (
    MultiIndex,
    binom_int,
    binom_multi,
    check_combinatorial_identity,
    check_combinatorial_identity_1d,
    indices_of_max_order,
    indices_up_to,
    multinomial,
)


def test_order():
    assert MultiIndex((0, 0, 0)).order() == 0
    assert MultiIndex((2, 1)).order() == 3
    assert MultiIndex.unit(2, 4).order() == 1


def test_factorial():
    assert MultiIndex((3, 2)).factorial() == 12
    assert MultiIndex((0, 0)).factorial() == 1


def test_multinomial():
    assert multinomial(MultiIndex((2, 1))) == 3
    assert multinomial(MultiIndex((0, 0))) == 1
    assert multinomial(MultiIndex((4,))) == 1
    assert multinomial(MultiIndex((2, 2, 2))) == 90
    for n in indices_of_max_order(3, 6):
        assert multinomial(n) * n.factorial() == math.factorial(n.order())


@pytest.mark.parametrize(
    "a,b,expected",
    [(4, 2, 6), (3, -1, 0), (5, 0, 1), (1, 2, 0), (0, 0, 1), (6, 6, 1), (-1, 2, 1), (-2, 1, -2)],
)
def test_binom_int(a, b, expected):
    assert binom_int(a, b) == expected


@given(st.integers(0, 12), st.integers(0, 12))
def test_binom_matches_factorial_form(n, m):
    if m <= n:
        assert binom_int(n, m) == math.factorial(n) // (math.factorial(m) * math.factorial(n - m))
    else:
        assert binom_int(n, m) == 0


_mi = st.builds(MultiIndex, st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)))


@given(_mi, _mi)
def test_binom_multi_matches_componentwise_factorials(n, m):
    if n.dominates(m):
        assert binom_multi(n, m) == n.factorial() // (m.factorial() * (n - m).factorial())
    if not n.dominates(m):
        assert binom_multi(n, m) == 0


@given(_mi, _mi)
def test_multiindex_addition_laws(n, m):
    assert n + m == m + n
    assert (n + m).order() == n.order() + m.order()
    assert (n + m) - m == n
    assert (n + m).dominates(n)


def test_binom_multi():
    assert binom_multi(MultiIndex((2, 1)), MultiIndex((1, 1))) == 2
    assert binom_multi(MultiIndex((3, 3)), MultiIndex((0, 0))) == 1
    assert binom_multi(MultiIndex((1, 2)), MultiIndex((2, 0))) == 0
    with pytest.raises(DimensionMismatchError):
        binom_multi(MultiIndex((1,)), MultiIndex((1, 0)))


def test_multiindex_algebra():
    n = MultiIndex((2, 0, 1))
    m = MultiIndex((1, 0, 1))
    assert n + m == MultiIndex((3, 0, 2))
    assert n - m == MultiIndex((1, 0, 0))
    assert n.dominates(m)
    assert not m.dominates(n)
    assert m.try_sub(n) is None
    assert (n + m).try_sub(n) == m
    with pytest.raises(ValueError):
        _ = m - n
    with pytest.raises(ValueError):
        MultiIndex((-1, 0))
    with pytest.raises(DimensionMismatchError):
        _ = n + MultiIndex((1,))


def test_sort_key_is_graded_lex():
    indices = sorted(indices_of_max_order(2, 2), key=lambda x: x.sort_key())
    assert indices[0] == MultiIndex((0, 0))
    orders = [x.order() for x in indices]
    assert orders == sorted(orders)


def test_indices_up_to():
    box = list(indices_up_to(MultiIndex((1, 2))))
    assert len(box) == 6
    assert MultiIndex((1, 2)) in box and MultiIndex((0, 0)) in box


def test_identity_1d_examples():
    # single-term case r = n+m+1 reduces both sides to (-1)^r m!/r!
    assert check_combinatorial_identity_1d(3, 1, 1)
    for n in range(0, 3):
        for m in range(0, 3):
            assert check_combinatorial_identity_1d(n + m + 1, n, m)


def test_identity_1d_exhaustive_to_8():
    for r in range(1, 9):
        for n in range(0, r):
            for m in range(0, r - n):
                assert check_combinatorial_identity_1d(r, n, m)


def test_identity_1d_precondition():
    with pytest.raises(ValueError):
        check_combinatorial_identity_1d(2, 1, 1)


def test_identity_nd_example():
    assert check_combinatorial_identity(
        MultiIndex((2, 1)), MultiIndex((0, 0)), MultiIndex((0, 0)), 1
    )


def test_identity_nd_matches_1d():
    for r in range(1, 7):
        for n in range(0, r):
            for m in range(0, r - n):
                nd = check_combinatorial_identity(
                    MultiIndex((r,)), MultiIndex((n,)), MultiIndex((m,)), 1
                )
                assert nd == check_combinatorial_identity_1d(r, n, m)


def test_identity_nd_small_sweep():
    dim = 2
    for r in indices_of_max_order(dim, 4):
        for axis in (1, 2):
            e_i = MultiIndex.unit(axis, dim)
            budget = r.try_sub(e_i)
            if budget is None:
                continue
            for n in indices_up_to(budget):
                for m in indices_up_to(budget - n):
                    assert check_combinatorial_identity(r, n, m, axis)


def test_identity_nd_precondition():
    with pytest.raises(ValueError):
        check_combinatorial_identity(MultiIndex((1, 0)), MultiIndex((0, 0)), MultiIndex((0, 0)), 2)
