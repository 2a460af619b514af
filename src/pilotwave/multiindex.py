"""Exact multi-index arithmetic and the combinatorics built on it.

Multi-indices are tuples in N_0^N; they label mixed partial derivatives and
carry the factorial/binomial algebra used by the operator and current
machinery.  Everything here is exact integer or rational arithmetic — no
floats — so the combinatorial identities can be checked without tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator

from .errors import DimensionMismatchError


@dataclass(frozen=True)
class MultiIndex:
    """Element of N_0^N with componentwise partial order and factorials."""

    entries: tuple[int, ...]

    def __post_init__(self):
        entries = tuple(int(e) for e in self.entries)
        if any(e < 0 for e in entries):
            raise ValueError(f"multi-index entries must be non-negative: {entries}")
        object.__setattr__(self, "entries", entries)

    @staticmethod
    def unit(axis: int, dim: int) -> "MultiIndex":
        """e_axis with 1-based axis numbering."""
        if not 1 <= axis <= dim:
            raise ValueError(f"axis {axis} out of range for dimension {dim}")
        return MultiIndex(tuple(1 if i == axis - 1 else 0 for i in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def order(self) -> int:
        """|n| = sum of entries."""
        return sum(self.entries)

    def factorial(self) -> int:
        """n! = product of componentwise factorials."""
        out = 1
        for e in self.entries:
            out *= math.factorial(e)
        return out

    def _check_dim(self, other: "MultiIndex") -> None:
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"multi-index dimensions differ: {self.dim} vs {other.dim}"
            )

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        self._check_dim(other)
        return MultiIndex(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "MultiIndex") -> "MultiIndex":
        diff = self.try_sub(other)
        if diff is None:
            raise ValueError(f"multi-index subtraction went negative: {self} - {other}")
        return diff

    def try_sub(self, other: "MultiIndex") -> "MultiIndex | None":
        """Componentwise difference, or None if any entry would go negative."""
        self._check_dim(other)
        diff = tuple(a - b for a, b in zip(self.entries, other.entries))
        if any(d < 0 for d in diff):
            return None
        return MultiIndex(diff)

    def dominates(self, other: "MultiIndex") -> bool:
        """True when self >= other componentwise."""
        self._check_dim(other)
        return all(a >= b for a, b in zip(self.entries, other.entries))

    def sort_key(self) -> tuple:
        """Graded lexicographic key for deterministic map iteration."""
        return (self.order(), self.entries)

    def __str__(self) -> str:
        return "[" + ",".join(str(e) for e in self.entries) + "]"


def multinomial(n: MultiIndex) -> int:
    """Multinomial coefficient |n|!/n!, the number of orderings of the
    derivatives in D^n."""
    return math.factorial(n.order()) // n.factorial()


def binom_multi(n: MultiIndex, m: MultiIndex) -> int:
    """Product of componentwise binomials C(n_a, m_a), 0 unless n >= m."""
    n._check_dim(m)
    return math.prod(math.comb(a, b) for a, b in zip(n.entries, m.entries))


def indices_up_to(bound: MultiIndex) -> Iterator[MultiIndex]:
    """All multi-indices 0 <= n <= bound, in graded-lex-stable box order."""
    for combo in product(*(range(b + 1) for b in bound.entries)):
        yield MultiIndex(combo)


def indices_of_max_order(dim: int, max_order: int) -> Iterator[MultiIndex]:
    """All multi-indices with |n| <= max_order in the given dimension."""
    for combo in product(range(max_order + 1), repeat=dim):
        if sum(combo) <= max_order:
            yield MultiIndex(combo)


def check_combinatorial_identity_1d(r: int, n: int, m: int) -> bool:
    """Exact check of the 1D alternating factorial-binomial sum identity.

    sum_{s=n+m+1}^{r} (-1)^s (s-n-1)!/s! C(r-n-m-1, r-s)
        = (-1)^(n+m+1) m! (r-m-1)! / (r! n!)

    Requires r >= n+m+1.
    """
    if min(r, n, m) < 0 or r < n + m + 1:
        raise ValueError(f"need r >= n+m+1 with non-negative entries, got r={r}, n={n}, m={m}")
    lhs = Fraction(0)
    for s in range(n + m + 1, r + 1):
        lhs += (
            Fraction((-1) ** s)
            * Fraction(math.factorial(s - n - 1), math.factorial(s))
            * math.comb(r - n - m - 1, r - s)
        )
    rhs = (
        Fraction((-1) ** (n + m + 1))
        * Fraction(math.factorial(m) * math.factorial(r - m - 1))
        / Fraction(math.factorial(r) * math.factorial(n))
    )
    return lhs == rhs


def check_combinatorial_identity(r: MultiIndex, n: MultiIndex, m: MultiIndex, axis: int) -> bool:
    """Exact check of the N-dimensional alternating sum identity along one axis.

    sum_{n+m+e_i <= s <= r} (-1)^|s| |s-n-e_i|!/|s|! C(r-n-m-e_i, r-s)
        = (-1)^(|n+m|+1) |m|! |r-m-e_i|! / (|r|! |n|!)

    with 1-based axis i; requires r >= n + m + e_i componentwise.
    """
    dim = r.dim
    e_i = MultiIndex.unit(axis, dim)
    low = n + m + e_i
    if not r.dominates(low):
        raise ValueError(f"need r >= n+m+e_i componentwise, got r={r}, n={n}, m={m}, i={axis}")
    lhs = Fraction(0)
    shifted = n + e_i
    for offset in indices_up_to(r - low):
        s = low + offset
        lhs += (
            Fraction((-1) ** s.order())
            * Fraction(math.factorial((s - shifted).order()), math.factorial(s.order()))
            * binom_multi(r - low, r - s)
        )
    rhs = (
        Fraction((-1) ** ((n + m).order() + 1))
        * Fraction(math.factorial(m.order()) * math.factorial((r - m - e_i).order()))
        / Fraction(math.factorial(r.order()) * math.factorial(n.order()))
    )
    return lhs == rhs
