"""Comparison currents: the momentum-derivative form and the velocity-operator form.

`born_jordan_current` evaluates the one-dimensional current
< q | d/dp (rho H) | q > for Hamiltonians written as sum_n g_n(q,t) p^n,
where the symbolic momentum derivative acts cyclically,
d/dp (rho g_n p^n) = sum_{k=1..n} p^(n-k) rho g_n p^(k-1).  In the position
representation each summand factorizes through the pure state rho = |psi><psi|:

    [(-i d/dq)^(n-k) psi](q) * [(+i d/dq)^(k-1) (g_n conj(psi))](q).

`second_order_current` evaluates j_i = Re(conj(psi) v_i psi) with the velocity
operator v_i = i [H, q_i], valid only up to second order in the momenta.
Both coincide with the canonical bilinear current in their domains of
validity.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import expr
from .currents import VectorField, _floored_real
from .errors import DimensionMismatchError, PilotwaveError
from .grids import DerivativeCache, GridState, spectral_divergence
from .multiindex import MultiIndex
from .operators import DifferentialOperator, require_hermitian


def momentum_form_coefficients(H: DifferentialOperator) -> dict[MultiIndex, expr.CoefficientExpression]:
    """Convert stored h_n coefficients of D^n into g_n coefficients of p^n.

    p^n = (-i d/dq)^n, so g_n = h_n / (-i)^n = h_n * i^n; the conversion is
    exact on the expression tree.
    """
    out = {}
    for n, coef in H.terms.items():
        out[n] = expr.const(1j ** n.order(), H.dim) * coef
    return out


def born_jordan_current(H: DifferentialOperator, state: GridState) -> VectorField:
    """One-dimensional momentum-derivative current of a Hermitian operator at the state's time."""
    H = require_hermitian(H)
    if H.dim != 1 or state.dim != 1:
        raise DimensionMismatchError("the momentum-derivative current is one-dimensional only")
    grid = state.grid
    dpsi = DerivativeCache(state.values, grid)
    psi_bar = np.conjugate(state.values)
    total = np.zeros(grid.shape, dtype=complex)
    term_scale = 0.0
    h_grids = H.realize(grid).coefficient_grids(state.t)
    for n in H.terms:
        order = n.order()
        if order == 0:
            continue
        weighted = 1j ** order * h_grids[n] * psi_bar
        dweighted = DerivativeCache(weighted, grid)
        for k in range(1, order + 1):
            left = (-1j) ** (order - k) * dpsi.derivative(MultiIndex((order - k,)))
            right = (1j) ** (k - 1) * dweighted.derivative(MultiIndex((k - 1,)))
            term = left * right
            term_scale = max(term_scale, float(np.max(np.abs(term))))
            total += term
    return VectorField(grid, _floored_real([total], term_scale, "born_jordan_current"))


def velocity_operator(H: DifferentialOperator, axis: int) -> DifferentialOperator:
    """v_i = i [H, q_i], computed symbolically: [h_n D^n, q_i] = n_i h_n D^(n-e_i)."""
    e_i = MultiIndex.unit(axis, H.dim)
    terms = {}
    for n, coef in H.terms.items():
        if n.entries[axis - 1] == 0:
            continue
        reduced = n - e_i
        contrib = expr.const(1j * n.entries[axis - 1], H.dim) * coef
        terms[reduced] = terms[reduced] + contrib if reduced in terms else contrib
    return DifferentialOperator(H.dim, terms)


def second_order_current(H: DifferentialOperator, state: GridState) -> VectorField:
    """Velocity-operator current Re(conj(psi) v_i psi) at the state's time, for order <= 2 operators."""
    H = require_hermitian(H)
    if H.dim != state.dim:
        raise DimensionMismatchError(f"operator dim {H.dim} != state dim {state.dim}")
    if H.max_order > 2:
        raise PilotwaveError(
            "the velocity-operator current is not valid beyond second order in the momenta"
        )
    psi_bar = np.conjugate(state.values)
    components = []
    for axis in range(1, H.dim + 1):
        v_op = velocity_operator(H, axis)
        applied = v_op.realize(state.grid)(state.values, state.t)
        components.append(np.real(psi_bar * applied))
    return VectorField(state.grid, components)


@dataclass
class FieldComparison:
    max_abs_diff: float
    max_div_diff: float

    def to_dict(self) -> dict:
        return asdict(self)


def compare_fields(a: VectorField, b: VectorField) -> FieldComparison:
    """Max pointwise component difference and max divergence of the difference."""
    if a.grid != b.grid:
        raise DimensionMismatchError("fields live on different grids")
    max_abs = max(
        float(np.max(np.abs(ca - cb))) for ca, cb in zip(a.components, b.components)
    )
    diff = [ca - cb for ca, cb in zip(a.components, b.components)]
    max_div = float(np.max(np.abs(spectral_divergence(diff, a.grid))))
    return FieldComparison(max_abs_diff=max_abs, max_div_diff=max_div)
