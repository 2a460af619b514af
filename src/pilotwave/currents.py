"""The conserved probability current of a Hermitian differential operator.

`derive_current_table` builds the symbolic bilinear-form coefficients

    J_{i,nm} = i sum_{r >= n+m+e_i} (-1)^(|r+n|+1) (r!/|r|!)
               (|r-n-e_i|!/(r-n-e_i)!) (|n|!/n!) C(r-n-e_i, m) D^(r-n-m-e_i) h_r

so that j_i = sum_{n,m} J_{i,nm} D^n(psi) D^m(conj psi), which `eval_current`
evaluates on the grid.  The current satisfies div j = I with the source
I = 2 Re(i conj(psi) H psi) = -d/dt |psi|^2, and it is real because the
table obeys J_{i,nm} = conj(J_{i,mn}) for Hermitian input.  The test suite
checks it against the paper's nested-sum form evaluated directly on the grid,
and checks div j = I at evolved snapshots.  `VectorField` is the one home of
a current's field operations: its spectral `divergence()` and `max_abs()`.

Multinomial weights are computed as exact rationals and embedded as complex
constants only at expression-construction time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from ._numpy import np

from . import expr
from .errors import DimensionMismatchError, GridError, HamiltonianFormatError, PilotwaveError
from .expr import CoefficientExpression
from .grids import DerivativeCache, Grid, GridState, check_integer
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
        """sum_a D_a j_a by trigonometric interpolation, one axis transform per component."""
        return sum(DerivativeCache(c, self.grid).derivative(MultiIndex.unit(axis, self.grid.dim))
                   for axis, c in enumerate(self.components, start=1)).real

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
        """Read the document `to_json` writes: a dimension of at least 1, each
        axis 1..dimension once, and each (n, m) of that dimension once per axis.
        A document that breaks any of these raises HamiltonianFormatError."""
        try:
            doc = json.loads(text)
            dim = check_integer(doc["dimension"], "dimension")
            numbers = [check_integer(axis_doc["axis"], "axis") for axis_doc in doc["axes"]]
            if dim < 1 or sorted(numbers) != list(range(1, dim + 1)):
                raise ValueError(f"axes {numbers} do not list each axis 1..{dim} once")
            axes: list[dict] = [dict() for _ in range(dim)]
            for number, axis_doc in zip(numbers, doc["axes"]):
                for entry in axis_doc["entries"]:
                    key = tuple(MultiIndex(tuple(check_integer(e, k) for e in entry[k])) for k in "nm")
                    if key in axes[number - 1] or (key[0].dim, key[1].dim) != (dim, dim):
                        where = f"axis {number} entry n={entry['n']}, m={entry['m']}"
                        raise ValueError(f"{where} is repeated or not of dimension {dim}")
                    axes[number - 1][key] = expr.parse(entry["expression"], dim)
            return CurrentTable(dim, axes, provenance=doc.get("provenance", ""))
        except (KeyError, ValueError, TypeError, PilotwaveError) as exc:
            raise HamiltonianFormatError(f"bad current table document: {exc}") from exc

    def to_latex(self) -> str:
        """Guidance-equation components as display math."""
        lines = []
        for axis, table in enumerate(self.axes, start=1):
            if not table:
                lines.append(rf"j_{{{axis}}} = 0")
                continue
            parts = [
                rf"\left[{coef.to_latex()}\right] {_partials(n)}\psi \, {_partials(m)}\bar\psi"
                for (n, m), coef in table.items()
            ]
            lines.append(rf"j_{{{axis}}} = " + " + ".join(parts))
        return "\n".join(lines)


def _partials(n: MultiIndex) -> str:
    """D^n in TeX, one \\partial_{q_a}^{p} per axis a with p = n_a > 0."""
    return "".join(rf"\partial_{{q_{a}}}^{{{p}}}" for a, p in enumerate(n.entries, 1) if p)


def _weight(r: MultiIndex, n: MultiIndex, m: MultiIndex, e_i: MultiIndex) -> Fraction:
    """Exact multinomial weight of one term of the table formula (without i)."""
    rne = r - n - e_i
    sign = (-1) ** ((r + n).order() + 1)
    return Fraction(sign * multinomial(rne) * multinomial(n) * binom_multi(rne, m), multinomial(r))


def derive_current_table(H: DifferentialOperator) -> CurrentTable:
    """Symbolic current coefficients, completely determined by the Hamiltonian.

    Only structurally zero entries, the literal 0, are dropped."""
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
                    w = _weight(r, n, m, e_i)  # nonzero: m <= r - n - e_i
                    deriv = coef.differentiate(r - n - m - e_i)
                    contrib = expr.const(1j * complex(w), dim) * deriv
                    key = (n, m)
                    table[key] = table[key] + contrib if key in table else contrib
        axes.append({key: c for key, c in table.items() if not c.is_structural_zero})
    return CurrentTable(dim, axes, provenance=repr(H))


def _real_sum(grid: Grid, axes_terms, what: str) -> VectorField:
    """The real field whose component i sums, in order, the terms of the i-th iterable of
    `axes_terms`; an imaginary residue above both floors raises PilotwaveError naming `what`."""
    raw: list[np.ndarray] = []
    term_scale = 0.0
    for terms in axes_terms:
        comp = np.zeros(grid.shape, dtype=complex)
        for term in terms:
            term_scale = max(term_scale, float(np.max(np.abs(term))))
            comp += term
        raw.append(comp)
    scale = max(float(np.max(np.abs(c))) for c in raw)
    resid = max(float(np.max(np.abs(c.imag))) for c in raw)
    threshold = max(IMAG_RESIDUE_REL * scale, IMAG_RESIDUE_TERM_FLOOR * term_scale)
    if resid > threshold:
        raise PilotwaveError(
            f"{what}: imaginary residue {resid:.3e} exceeds threshold {threshold:.3e}; "
            "table corrupted or Hamiltonian not Hermitian"
        )
    return VectorField(grid, [c.real for c in raw])


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
    return _real_sum(grid, (
        (coef.evaluate_on(axes, state.t) * dpsi.derivative(n) * dpsi_bar.derivative(m)
         for (n, m), coef in table_i.items())
        for table_i in table.axes
    ), "eval_current")


def source_term(H: DifferentialOperator, state: GridState) -> np.ndarray:
    """I = 2 Re(i conj(psi) H psi) at the state's time; equals -d/dt |psi|^2 and div j."""
    applied = apply_operator(H, state)
    return (2.0 * np.real(1j * np.conjugate(state.values) * applied.values))
