"""The conserved probability current of a Hermitian differential operator.

Two equivalent constructions are provided.  `derive_current_table` builds the
symbolic bilinear-form coefficients

    J_{i,nm} = i sum_{r >= n+m+e_i} (-1)^(|r+n|+1) (r!/|r|!)
               (|r-n-e_i|!/(r-n-e_i)!) (|n|!/n!) C(r-n-e_i, m) D^(r-n-m-e_i) h_r

so that j_i = sum_{n,m} J_{i,nm} D^n(psi) D^m(conj psi), while
`eval_current_direct` evaluates the nested-sum form

    j_i = i sum_{n >= e_i} sum_{0 <= m <= n-e_i} (-1)^|m| (n!/|n|!) (|m|!/m!)
          (|n-m-e_i|!/(n-m-e_i)!) D^m(conj(psi) h_n) D^(n-m-e_i) psi

directly on the grid.  Both satisfy div j = I with the source
I = 2 Re(i conj(psi) H psi) = -d/dt |psi|^2, and both are real because the
table obeys J_{i,nm} = conj(J_{i,mn}) for Hermitian input.

Multinomial weights are computed as exact rationals and embedded as complex
constants only at expression-construction time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import expr
from .errors import DimensionMismatchError, GridError, PilotwaveError
from .expr import CoefficientExpression
from .grids import DerivativeCache, Grid, GridState, spectral_derivative, spectral_divergence
from .multiindex import MultiIndex, binom_multi, indices_up_to, multinomial
from .operators import DifferentialOperator, apply as apply_operator, require_hermitian

IMAG_RESIDUE_REL = 1e-9
# Absolute floor for the residue check, relative to the largest bilinear term:
# exact-zero currents (real psi) would otherwise trip on FFT rounding noise.
IMAG_RESIDUE_TERM_FLOOR = 1e-12


@dataclass
class VectorField:
    """Real N-component field on a grid."""

    grid: Grid
    components: list[np.ndarray]

    def __post_init__(self):
        if len(self.components) != self.grid.dim:
            raise DimensionMismatchError(
                f"{len(self.components)} components for dimension {self.grid.dim}"
            )
        self.components = [np.ascontiguousarray(c, dtype=float) for c in self.components]
        for c in self.components:
            if c.shape != self.grid.shape:
                raise DimensionMismatchError("component shape does not match grid")
            if not np.all(np.isfinite(c)):
                raise GridError("vector field contains non-finite values")

    def divergence(self) -> np.ndarray:
        return spectral_divergence(self.components, self.grid)

    def max_abs(self) -> float:
        return max(float(np.max(np.abs(c))) for c in self.components)


class CurrentTable:
    """Per-axis map (n, m) -> coefficient expression for the bilinear current."""

    def __init__(
        self,
        dim: int,
        axes: list[dict[tuple[MultiIndex, MultiIndex], CoefficientExpression]],
        provenance: str = "",
    ):
        if len(axes) != dim:
            raise DimensionMismatchError(f"{len(axes)} axis tables for dimension {dim}")
        self.dim = dim
        self.provenance = provenance
        self.axes = [
            dict(sorted(table.items(), key=lambda kv: (kv[0][0].sort_key(), kv[0][1].sort_key())))
            for table in axes
        ]

    def entries(self, axis: int) -> dict[tuple[MultiIndex, MultiIndex], CoefficientExpression]:
        """Entries for a 1-based axis."""
        return dict(self.axes[axis - 1])

    # -- serialization ------------------------------------------------------
    def to_json(self) -> str:
        doc = {
            "dimension": self.dim,
            "provenance": self.provenance,
            "axes": [
                {
                    "axis": axis,
                    "entries": [
                        {
                            "n": list(n.entries),
                            "m": list(m.entries),
                            "expression": coef.to_string(),
                        }
                        for (n, m), coef in table.items()
                    ],
                }
                for axis, table in enumerate(self.axes, start=1)
            ],
        }
        return json.dumps(doc, indent=2)

    @staticmethod
    def from_json(text: str) -> "CurrentTable":
        doc = json.loads(text)
        dim = int(doc["dimension"])
        axes: list[dict] = [dict() for _ in range(dim)]
        for axis_doc in doc["axes"]:
            table = axes[int(axis_doc["axis"]) - 1]
            for entry in axis_doc["entries"]:
                key = (MultiIndex(tuple(entry["n"])), MultiIndex(tuple(entry["m"])))
                table[key] = expr.parse(entry["expression"], dim)
        return CurrentTable(dim, axes, provenance=doc.get("provenance", ""))

    def to_latex(self) -> str:
        """Guidance-equation components as display math."""
        lines = []
        for axis, table in enumerate(self.axes, start=1):
            if not table:
                lines.append(rf"j_{{{axis}}} = 0")
                continue
            parts = []
            for (n, m), coef in table.items():
                dn = "".join(
                    rf"\partial_{{q_{a}}}^{{{p}}}" for a, p in enumerate(n.entries, 1) if p
                )
                dm = "".join(
                    rf"\partial_{{q_{a}}}^{{{p}}}" for a, p in enumerate(m.entries, 1) if p
                )
                parts.append(
                    rf"\left[{coef.to_latex()}\right] {dn}\psi \, {dm}\bar\psi"
                )
            lines.append(rf"j_{{{axis}}} = " + " + ".join(parts))
        return "\n".join(lines)


def _weight(r: MultiIndex, n: MultiIndex, m: MultiIndex, e_i: MultiIndex) -> Fraction:
    """Exact multinomial weight of one term of the table formula (without i)."""
    rne = r - n - e_i
    sign = (-1) ** ((r + n).order() + 1)
    return Fraction(sign * multinomial(rne) * multinomial(n) * binom_multi(rne, m), multinomial(r))


def _exchange_weight(n: MultiIndex, m: MultiIndex, e_i: MultiIndex) -> Fraction:
    """Exact weight (-1)^|m| (n!/|n|!) (|m|!/m!) (|n-m-e_i|!/(n-m-e_i)!) of
    one term of the derivative-exchange identity and the nested-sum current."""
    return Fraction((-1) ** m.order() * multinomial(m) * multinomial(n - m - e_i), multinomial(n))


def derive_current_table(H: DifferentialOperator) -> CurrentTable:
    """Symbolic current coefficients, completely determined by the Hamiltonian.

    Entries that are exactly 0 at every point of the SamplingSpec that H was
    verified with are dropped."""
    H = require_hermitian(H)
    dim = H.dim
    axes: list[dict[tuple[MultiIndex, MultiIndex], CoefficientExpression]] = []
    for axis in range(1, dim + 1):
        e_i = MultiIndex.unit(axis, dim)
        table: dict[tuple[MultiIndex, MultiIndex], CoefficientExpression] = {}
        for r, coef in H.terms.items():
            budget = r.try_sub(e_i)
            if budget is None:
                continue
            for n in indices_up_to(budget):
                for m in indices_up_to(budget - n):
                    w = _weight(r, n, m, e_i)
                    if w == 0:
                        continue
                    deriv = coef.differentiate(r - n - m - e_i)
                    contrib = expr.const(1j * complex(w), dim) * deriv
                    key = (n, m)
                    table[key] = table[key] + contrib if key in table else contrib
        axes.append({key: c for key, c in table.items() if not expr.vanishes(c, H.sampling)})
    return CurrentTable(dim, axes, provenance=repr(H))


def eval_current(table: CurrentTable, state: GridState) -> VectorField:
    """Evaluate j_i = sum_{n,m} J_{i,nm} D^n(psi) D^m(conj psi) on the grid at the state's time.

    Each entry J_{i,nm} is evaluated on the grid's broadcast axis vectors and
    comes back at full grid shape."""
    if table.dim != state.dim:
        raise DimensionMismatchError(f"table dim {table.dim} != state dim {state.dim}")
    grid = state.grid
    axes = grid.axis_vectors()
    dpsi = DerivativeCache(state.values, grid)
    dpsi_bar = DerivativeCache(np.conjugate(state.values), grid)
    raw: list[np.ndarray] = []
    term_scale = 0.0
    for table_i in table.axes:
        comp = np.zeros(grid.shape, dtype=complex)
        for (n, m), coef in table_i.items():
            term = coef.evaluate_on(axes, state.t) * dpsi.derivative(n) * dpsi_bar.derivative(m)
            term_scale = max(term_scale, float(np.max(np.abs(term))))
            comp += term
        raw.append(comp)
    return VectorField(grid, _floored_real(raw, term_scale, "eval_current"))


def _floored_real(raw: list[np.ndarray], term_scale: float, what: str) -> list[np.ndarray]:
    scale = max(float(np.max(np.abs(c))) for c in raw) if raw else 0.0
    resid = max(float(np.max(np.abs(c.imag))) for c in raw) if raw else 0.0
    threshold = max(IMAG_RESIDUE_REL * scale, IMAG_RESIDUE_TERM_FLOOR * term_scale)
    if resid > threshold:
        raise PilotwaveError(
            f"{what}: imaginary residue {resid:.3e} exceeds threshold {threshold:.3e}; "
            "table corrupted or Hamiltonian not Hermitian"
        )
    return [c.real.copy() for c in raw]


def eval_current_direct(H: DifferentialOperator, state: GridState) -> VectorField:
    """Evaluate the nested-sum current form at the state's time, without building a table."""
    H = require_hermitian(H)
    if H.dim != state.dim:
        raise DimensionMismatchError(f"operator dim {H.dim} != state dim {state.dim}")
    grid = state.grid
    coef_grids = H.realize(grid).coefficient_grids(state.t)
    dpsi = DerivativeCache(state.values, grid)
    psi_bar = np.conjugate(state.values)
    raw = [np.zeros(grid.shape, dtype=complex) for _ in range(H.dim)]
    term_scale = 0.0
    for n in H.terms:
        dphi = DerivativeCache(psi_bar * coef_grids[n], grid)
        for axis, comp in enumerate(raw, start=1):
            e_i = MultiIndex.unit(axis, H.dim)
            budget = n.try_sub(e_i)
            if budget is None:
                continue
            for m in indices_up_to(budget):
                w = _exchange_weight(n, m, e_i)
                term = 1j * complex(w) * dphi.derivative(m) * dpsi.derivative(n - m - e_i)
                term_scale = max(term_scale, float(np.max(np.abs(term))))
                comp += term
    return VectorField(grid, _floored_real(raw, term_scale, "eval_current_direct"))


def source_term(H: DifferentialOperator, state: GridState) -> np.ndarray:
    """I = 2 Re(i conj(psi) H psi) at the state's time; equals -d/dt |psi|^2 and div j."""
    applied = apply_operator(H, state)
    return (2.0 * np.real(1j * np.conjugate(state.values) * applied.values))


def identity_residual(phi: GridState, chi: GridState, n: MultiIndex) -> float:
    """Max-norm defect of the derivative-exchange identity

    phi D^n chi - (-1)^|n| chi D^n phi
        = sum_i D^(e_i) [ sum_{0<=m<=n-e_i} (-1)^|m| (n!/|n|!) (|m|!/m!)
          (|n-m-e_i|!/(n-m-e_i)!) D^m phi D^(n-m-e_i) chi ].
    """
    if phi.grid != chi.grid:
        raise DimensionMismatchError("states must share one grid")
    if n.dim != phi.dim:
        raise DimensionMismatchError(f"multi-index dim {n.dim} != state dim {phi.dim}")
    grid = phi.grid
    dphi = DerivativeCache(phi.values, grid)
    dchi = DerivativeCache(chi.values, grid)
    lhs = phi.values * dchi.derivative(n) - (-1) ** n.order() * chi.values * dphi.derivative(n)
    rhs = np.zeros(grid.shape, dtype=complex)
    for axis in range(1, grid.dim + 1):
        e_i = MultiIndex.unit(axis, grid.dim)
        budget = n.try_sub(e_i)
        if budget is None:
            continue
        inner = np.zeros(grid.shape, dtype=complex)
        for m in indices_up_to(budget):
            w = _exchange_weight(n, m, e_i)
            inner += complex(w) * dphi.derivative(m) * dchi.derivative(n - m - e_i)
        rhs += spectral_derivative(inner, grid, e_i)
    return float(np.max(np.abs(lhs - rhs)))


def current_1d_integral(before: GridState, after: GridState) -> np.ndarray:
    """The unique decaying 1D current, -int_{left}^{q} d/dt |psi|^2 dq'.

    Takes two snapshots at t -/+ delta; the time derivative is a centered
    difference and the integral a cumulative trapezoid from the left edge.
    The density must have decayed at the left boundary for uniqueness.
    """
    if before.dim != 1 or after.dim != 1:
        raise DimensionMismatchError("integral current is defined for one dimension only")
    if before.grid != after.grid:
        raise DimensionMismatchError("snapshots must share one grid")
    delta = after.t - before.t
    if delta <= 0:
        raise PilotwaveError("snapshots must be time-ordered")
    rho_before = before.density()
    rho_after = after.density()
    edge = max(rho_before[0], rho_after[0])
    peak = max(rho_before.max(), rho_after.max())
    if peak == 0 or edge > 1e-12 * peak:
        raise PilotwaveError(
            f"density at the left boundary ({edge:.3e}) has not decayed below 1e-12 x peak"
        )
    drho_dt = (rho_after - rho_before) / delta
    dx = before.grid.spacings[0]
    cumulative = np.zeros_like(drho_dt)
    cumulative[1:] = np.cumsum(0.5 * (drho_dt[1:] + drho_dt[:-1]) * dx)
    return -cumulative
