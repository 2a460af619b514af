"""Comparison currents: the momentum-derivative form and the velocity-operator form.

`born_jordan_current` evaluates the one-dimensional current
< q | d/dp (rho H) | q > for Hamiltonians written as sum_n g_n(q,t) p^n,
where the symbolic momentum derivative acts cyclically,
d/dp (rho g_n p^n) = sum_{k=1..n} p^(n-k) rho g_n p^(k-1).  In the position
representation each summand factorizes through the pure state rho = |psi><psi|:

    [(-i d/dq)^(n-k) psi](q) * [(+i d/dq)^(k-1) (g_n conj(psi))](q).

`second_order_current` evaluates j_i = Re(conj(psi) v_i psi) with the velocity
operator v_i = i [H, q_i] = sum_n i n_i h_n D^(n-e_i), valid only up to second
order in the momenta, applied from H's one realization on the state's grid.
Both coincide with the canonical bilinear current in their domains of
validity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .currents import VectorField, _real_sum
from .errors import DimensionMismatchError, PilotwaveError
from .grids import DerivativeCache, GridState, spectral_divergence
from .multiindex import MultiIndex
from .operators import DifferentialOperator, require_hermitian


def born_jordan_current(H: DifferentialOperator, state: GridState) -> VectorField:
    """One-dimensional momentum-derivative current of a Hermitian operator at the state's time."""
    H = require_hermitian(H)
    if H.dim != 1 or state.dim != 1:
        raise DimensionMismatchError("the momentum-derivative current is one-dimensional only")
    grid = state.grid
    dpsi = DerivativeCache(state.values, grid)
    psi_bar = np.conjugate(state.values)
    h_grids = H.realize(grid).coefficient_grids(state.t)

    def terms():
        for n in H.terms:
            order = n.order()
            if order == 0:
                continue
            dweighted = DerivativeCache(1j ** order * h_grids[n] * psi_bar, grid)
            for k in range(1, order + 1):
                left = (-1j) ** (order - k) * dpsi.derivative(MultiIndex((order - k,)))
                right = (1j) ** (k - 1) * dweighted.derivative(MultiIndex((k - 1,)))
                yield left * right

    return _real_sum(grid, [terms()], "born_jordan_current")


def second_order_current(H: DifferentialOperator, state: GridState) -> VectorField:
    """Velocity-operator current Re(conj(psi) v_i psi) at the state's time, for order <= 2 operators."""
    H = require_hermitian(H)
    if H.max_order > 2:
        raise PilotwaveError(
            "the velocity-operator current is not valid beyond second order in the momenta"
        )
    h_grids = H.realize(state.grid).coefficient_grids(state.t)
    dpsi = DerivativeCache(state.values, state.grid)
    psi_bar = np.conjugate(state.values)
    components = []
    for axis in range(1, H.dim + 1):
        e_i = MultiIndex.unit(axis, H.dim)
        applied = np.zeros(state.grid.shape, dtype=complex)
        for n, h in h_grids.items():
            if n.entries[axis - 1]:
                applied += 1j * n.entries[axis - 1] * h * dpsi.derivative(n - e_i)
        components.append(np.real(psi_bar * applied))
    return VectorField(state.grid, components)


@dataclass
class FieldComparison:
    max_abs_diff: float
    max_div_diff: float


def compare_fields(a: VectorField, b: VectorField) -> FieldComparison:
    """Max pointwise component difference and max divergence of the difference."""
    if a.grid != b.grid:
        raise DimensionMismatchError("fields live on different grids")
    diff = [ca - cb for ca, cb in zip(a.components, b.components)]
    max_abs = max(float(np.max(np.abs(d))) for d in diff)
    max_div = float(np.max(np.abs(spectral_divergence(diff, a.grid))))
    return FieldComparison(max_abs_diff=max_abs, max_div_diff=max_div)
