"""Differential-operator Hamiltonians: adjoints, Hermiticity, grid action.

An operator is a finite map from multi-indices to coefficient expressions,
H psi = sum_n h_n(q,t) D^n psi.  The formal adjoint follows from moving all
derivatives off psi (integration by parts with vanishing boundary terms),
which after a Leibniz expansion gives coefficients

    adj(h)_n = sum_{m >= n} (-1)^|m| C(m,n) D^(m-n) conj(h_m),

and Hermiticity is exactly the fixed-point condition h_n = adj(h)_n.  That
condition, and the pruning of exactly-zero terms, are decided by
`expr.approx_equal` and `expr.vanishes` on the points of an
`expr.SamplingSpec`, which is imported here for callers of these checks.
"""

from __future__ import annotations

import numpy as np

from . import expr
from .errors import (
    DimensionMismatchError,
    HamiltonianFormatError,
    NonHermitianError,
)
from .expr import CoefficientExpression, SamplingSpec
from .grids import DerivativeCache, Grid, GridState, _symbol, check_points
from .multiindex import MultiIndex, binom_multi, indices_up_to

MIN_POINTS_PER_AXIS = 16


class DifferentialOperator:
    """Finite sum of coefficient-weighted mixed partials, immutable."""

    def __init__(self, dim: int, terms: dict[MultiIndex, CoefficientExpression]):
        self.dim = int(dim)
        clean: dict[MultiIndex, CoefficientExpression] = {}
        for n, coef in terms.items():
            if n.dim != self.dim or coef.dim != self.dim:
                raise DimensionMismatchError(
                    f"term {n} or its coefficient does not match dimension {self.dim}"
                )
            if not coef.is_structural_zero:
                clean[n] = coef
        self._terms = dict(sorted(clean.items(), key=lambda kv: kv[0].sort_key()))
        self._realizations: dict[Grid, OperatorApplier] = {}

    @property
    def terms(self) -> dict[MultiIndex, CoefficientExpression]:
        return dict(self._terms)

    @property
    def max_order(self) -> int:
        return max((n.order() for n in self._terms), default=0)

    def coefficient(self, n: MultiIndex) -> CoefficientExpression:
        return self._terms.get(n, expr.const(0, self.dim))

    def __add__(self, other: "DifferentialOperator") -> "DifferentialOperator":
        if self.dim != other.dim:
            raise DimensionMismatchError("operator dimensions differ")
        merged = dict(self._terms)
        for n, coef in other._terms.items():
            merged[n] = merged[n] + coef if n in merged else coef
        return DifferentialOperator(self.dim, merged)

    def scaled(self, factor: complex) -> "DifferentialOperator":
        return DifferentialOperator(
            self.dim, {n: expr.const(factor, self.dim) * c for n, c in self._terms.items()}
        )

    def is_time_dependent(self) -> bool:
        return any(expr.contains_time(c) for c in self._terms.values())

    def realize(self, grid: Grid) -> "OperatorApplier":
        """The operator's one applier on `grid`, shared by the solver and every current."""
        if grid not in self._realizations:
            self._realizations[grid] = OperatorApplier(self, grid)
        return self._realizations[grid]

    def __repr__(self) -> str:
        body = ", ".join(f"{n}: {c}" for n, c in self._terms.items())
        return f"DifferentialOperator(dim={self.dim}, {{{body}}})"


def adjoint(H: DifferentialOperator) -> DifferentialOperator:
    """Formal adjoint via the Leibniz expansion of (-1)^|m| D^m(conj(h_m) psi)."""
    out: dict[MultiIndex, CoefficientExpression] = {}
    for m, coef in H.terms.items():
        sign = (-1) ** m.order()
        conj_coef = coef.conjugate()
        for n in indices_up_to(m):
            weight = sign * binom_multi(m, n)
            contrib = expr.const(weight, H.dim) * conj_coef.differentiate(m - n)
            out[n] = out[n] + contrib if n in out else contrib
    return DifferentialOperator(H.dim, out)


def hermiticity_violations(
    H: DifferentialOperator, check: SamplingSpec | None = None
) -> list[MultiIndex]:
    """Multi-index slots where h_n fails to equal its adjoint coefficient."""
    spec = check or SamplingSpec()
    adj = adjoint(H)
    slots = sorted(set(H.terms) | set(adj.terms), key=lambda n: n.sort_key())
    return [n for n in slots if not expr.approx_equal(H.coefficient(n), adj.coefficient(n), spec)]


def is_hermitian(H: DifferentialOperator, check: SamplingSpec | None = None) -> bool:
    return not hermiticity_violations(H, check)


def hermitize(H: DifferentialOperator) -> DifferentialOperator:
    """Symmetric part (H + adjoint(H))/2; a fixed point when H is Hermitian."""
    return (H + adjoint(H)).scaled(0.5)


class HermitianOperator(DifferentialOperator):
    """An operator that passed the sampled Hermiticity check when it was built;
    get one from `require_hermitian`.  `sampling` is the SamplingSpec it was
    verified with.  It keeps the checked operator's terms except those that
    are exactly 0 at every sample point of `sampling`, and its repr is the
    provenance of a derived current table."""

    def __init__(self, H: DifferentialOperator, check: SamplingSpec | None = None):
        bad = hermiticity_violations(H, check)
        if bad:
            slots = ", ".join(str(n) for n in bad)
            raise NonHermitianError(f"Hamiltonian is not Hermitian; violated slots: {slots}")
        self.sampling = check or SamplingSpec()
        super().__init__(H.dim, {n: c for n, c in H._terms.items() if not expr.vanishes(c, self.sampling)})


def require_hermitian(H: DifferentialOperator, check: SamplingSpec | None = None) -> HermitianOperator:
    """H verified, or NonHermitianError naming the violated slots.  Every
    current needs a Hermitian H; a verified H is checked again only under an
    explicit `check`."""
    if isinstance(H, HermitianOperator) and check is None:
        return H
    return HermitianOperator(H, check)


class OperatorApplier:
    """Grid realization of an operator, with coefficient grids cached.

    Coefficients are evaluated on the grid's broadcast axis vectors and
    returned at full grid shape.  Time-independent ones are evaluated once;
    time-dependent ones hold their t-free parts from construction, and only
    the nodes that contain t are evaluated at each requested t.  Derivative
    terms with a constant coefficient are applied together through one
    Fourier multiplier sum_n c_n (i k)^n, so they cost one inverse FFT in all.
    """

    def __init__(self, H: DifferentialOperator, grid: Grid):
        if H.dim != grid.dim:
            raise DimensionMismatchError(f"operator dim {H.dim} != grid dim {grid.dim}")
        for s in grid.shape:
            check_points(s, MIN_POINTS_PER_AXIS)
        self.grid = grid
        self._axes = grid.axis_vectors()
        self._static: dict[MultiIndex, np.ndarray] = {}
        self._dynamic: list[tuple[MultiIndex, CoefficientExpression]] = []
        for n, coef in H.terms.items():
            if expr.contains_time(coef):
                self._dynamic.append((n, coef.held_on(self._axes)))
            else:
                self._static[n] = coef.evaluate_on(self._axes, 0.0)
                self._static[n].setflags(write=False)
        self._folded = {
            n: coef.constant_value() for n, coef in H.terms.items()
            if n.order() > 0 and coef.constant_value() is not None
        }
        self._multiplier = None
        if self._folded:
            self._multiplier = sum(c * _symbol(grid, n) for n, c in self._folded.items())

    def coefficient_grids(self, t: float) -> dict[MultiIndex, np.ndarray]:
        """Each h_n on the grid at time t, static first; the one place coefficients become grids."""
        return self._static | {n: coef.evaluate_on(self._axes, t) for n, coef in self._dynamic}

    def __call__(self, values: np.ndarray, t: float) -> np.ndarray:
        cache = DerivativeCache(values, self.grid)
        if self._multiplier is None:
            out = np.zeros(self.grid.shape, dtype=complex)
        else:
            out = np.fft.ifftn(cache.spectrum() * self._multiplier)
        for n, coef_grid in self.coefficient_grids(t).items():
            if n not in self._folded:
                out += coef_grid * cache.derivative(n)
        return out

    def _term_bound(self, n: MultiIndex, coef_grid: np.ndarray) -> float:
        """max|h_n| prod_a k_max_a^n_a, a bound on the norm of h_n D^n on the grid."""
        factor = 1.0
        for k, power in zip(self.grid.max_wavenumbers(), n.entries):
            factor *= k ** power
        return float(np.max(np.abs(coef_grid))) * factor

    def spectral_radius(self, t: float) -> float:
        """Conservative estimate sum_n max|h_n| prod_a k_max_a^n_a at time t."""
        return sum((self._term_bound(n, g) for n, g in self.coefficient_grids(t).items()), 0.0)

    def spectral_interval(self, t: float) -> tuple[float, float]:
        """An interval [a, b] holding the numerical range of H's Hermitian part at time t.

        It sums the real range of the folded multiplier, the range of Re h_0
        and +- the triangle bound of every other term, max|Im h_0| included.
        The norm bound R = spectral_radius(t) holds for H as well, so the sum
        is clipped to [-R, R] and its half-width never exceeds R.
        """
        radius = self.spectral_radius(t)
        low = high = spread = 0.0
        if self._multiplier is not None:
            low, high = float(np.min(self._multiplier.real)), float(np.max(self._multiplier.real))
        for n, coef_grid in self.coefficient_grids(t).items():
            if n.order() == 0:
                low += float(np.min(coef_grid.real))
                high += float(np.max(coef_grid.real))
                spread += float(np.max(np.abs(coef_grid.imag)))
            elif n not in self._folded:
                spread += self._term_bound(n, coef_grid)
        return max(low - spread, -radius), min(high + spread, radius)


def apply(H: DifferentialOperator, state: GridState) -> GridState:
    """Pointwise sum_n h_n(q,t) (D^n psi)(q) with spectral derivatives, at the state's time t."""
    return GridState(state.grid, H.realize(state.grid)(state.values, state.t), state.t)


# ---------------------------------------------------------------------------
# Hamiltonian file format
#
#   # comment
#   dim = 2
#   term [2,0] = "-0.5"
#   term [0,0] = "(q1-3.5)^2/2"


def read_assignments(text: str):
    """Each `key = value` line of a Hamiltonian or state file as (where, key, value),
    stripped, where `where` is "line N"; `#` starts a comment and blank lines are skipped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"line {lineno}"
        if "=" not in line:
            raise HamiltonianFormatError(f"{where}: expected 'key = value', got '{line}'")
        key, _, value = line.partition("=")
        yield where, key.strip(), value.strip()


def _parse_multiindex_literal(text: str, where: str) -> tuple[int, ...]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise HamiltonianFormatError(f"{where}: expected a bracketed multi-index, got '{text}'")
    body = text[1:-1].strip()
    if not body:
        raise HamiltonianFormatError(f"{where}: empty multi-index")
    try:
        entries = tuple(int(part.strip()) for part in body.split(","))
    except ValueError as exc:
        raise HamiltonianFormatError(f"{where}: bad multi-index '{text}'") from exc
    if any(e < 0 for e in entries):
        raise HamiltonianFormatError(f"{where}: multi-index entries must be non-negative")
    return entries


def load_hamiltonian(text: str) -> DifferentialOperator:
    """Parse the Hamiltonian text format into an operator."""
    dim: int | None = None
    terms: dict[MultiIndex, CoefficientExpression] = {}
    for where, key, value in read_assignments(text):
        if key == "dim":
            if dim is not None:
                raise HamiltonianFormatError(f"{where}: duplicate dim declaration")
            try:
                dim = int(value)
            except ValueError as exc:
                raise HamiltonianFormatError(f"{where}: bad dimension '{value}'") from exc
            if dim < 1:
                raise HamiltonianFormatError(f"{where}: dimension must be >= 1")
        elif key.startswith("term"):
            if dim is None:
                raise HamiltonianFormatError(f"{where}: 'dim = N' must appear before any term")
            entries = _parse_multiindex_literal(key[len("term"):], where)
            if len(entries) != dim:
                raise HamiltonianFormatError(
                    f"{where}: multi-index has {len(entries)} entries, expected {dim}"
                )
            index = MultiIndex(entries)
            if index in terms:
                raise HamiltonianFormatError(f"{where}: duplicate term index {index}")
            if not (value.startswith('"') and value.endswith('"') and len(value) >= 2):
                raise HamiltonianFormatError(f"{where}: expression must be double-quoted")
            try:
                terms[index] = expr.parse(value[1:-1], dim)
            except Exception as exc:
                raise HamiltonianFormatError(f"{where}: {exc}") from exc
        else:
            raise HamiltonianFormatError(f"{where}: unknown key '{key}'")
    if dim is None:
        raise HamiltonianFormatError("missing 'dim = N' declaration")
    return DifferentialOperator(dim, terms)
