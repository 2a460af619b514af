"""Reference oracles: the paper's derivation of the current, as the tests check it.

The package runs none of these. The tests compare its table, currents and
nonlocal construction against the combinatorial identities behind the table,
the derivative-exchange identity, the unique decaying 1D integral current,
the Laplacian's free-space Green's function, the momentum-form coefficients
and the nested-sum form of the current

    j_i = i sum_{n >= e_i} sum_{0 <= m <= n-e_i} (-1)^|m| (n!/|n|!) (|m|!/m!)
          (|n-m-e_i|!/(n-m-e_i)!) D^m(conj(psi) h_n) D^(n-m-e_i) psi,

which `eval_current_direct` evaluates on the grid without building a table.

It also keeps the sampled check as a numpy batch: `approx_equal` draws
every point up front and evaluates each side over all of them in one
grid-table walk, where the package walks the scalar table one point at a
time.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product
from typing import Iterator

import numpy as np

from pilotwave import expr
from pilotwave.currents import VectorField, _real_sum
from pilotwave.errors import DimensionMismatchError, EvaluationDomainError, PilotwaveError, SamplingError
from pilotwave.expr import CoefficientExpression, SamplingSpec, _eval
from pilotwave.grids import DEFAULT_LENGTH, DerivativeCache, GridState, check_length
from pilotwave.multiindex import MultiIndex, binom_multi, indices_up_to, multinomial
from pilotwave.operators import DifferentialOperator, require_hermitian


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
    if r.try_sub(low) is None:
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


def _exchange_weight(n: MultiIndex, m: MultiIndex, e_i: MultiIndex) -> Fraction:
    """Exact weight (-1)^|m| (n!/|n|!) (|m|!/m!) (|n-m-e_i|!/(n-m-e_i)!) of
    one term of the derivative-exchange identity and the nested-sum current."""
    return Fraction((-1) ** m.order() * multinomial(m) * multinomial(n - m - e_i), multinomial(n))


def _exchange_terms(prefactor, dphi: DerivativeCache, dchi: DerivativeCache, n: MultiIndex, axis: int):
    """The terms (prefactor w) D^m phi D^(n-m-e_i) chi, w = _exchange_weight(n, m, e_i),
    of the exchange sum along the 1-based `axis`; none when n_i = 0."""
    e_i = MultiIndex.unit(axis, n.dim)
    for m in indices_up_to(n - e_i) if n.entries[axis - 1] else ():
        w = prefactor * complex(_exchange_weight(n, m, e_i))
        yield w * dphi.derivative(m) * dchi.derivative(n - m - e_i)


def eval_current_direct(H: DifferentialOperator, state: GridState) -> VectorField:
    """Evaluate the nested-sum current form at the state's time, without building a table."""
    H = require_hermitian(H)
    grid = state.grid
    coef_grids = H.realize(grid).coefficient_grids(state.t)
    dpsi = DerivativeCache(state.values, grid)
    psi_bar = np.conjugate(state.values)
    dphis = [(n, DerivativeCache(psi_bar * coef_grids[n], grid)) for n in H.terms]
    return _real_sum(grid, (
        (term for n, dphi in dphis for term in _exchange_terms(1j, dphi, dpsi, n, axis))
        for axis in range(1, H.dim + 1)
    ), "eval_current_direct")


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
    rhs = sum(DerivativeCache(sum(_exchange_terms(1, dphi, dchi, n, axis)), grid)
              .derivative(MultiIndex.unit(axis, grid.dim))
              for axis in range(1, grid.dim + 1) if n.entries[axis - 1])
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


def green_function(dim: int, q) -> float:
    """Fundamental solution of the N-dimensional Laplacian at the point q.

    (1/2pi) log|q| in two dimensions and
    -Gamma(N/2-1) / (4 pi^(N/2) |q|^(N-2)) for N >= 3.
    """
    if dim < 2:
        raise PilotwaveError("the Green's function is defined for dimension >= 2")
    r = float(np.linalg.norm(np.asarray(q, dtype=float)))
    if r == 0.0:
        raise PilotwaveError("Green's function is singular at the origin")
    if dim == 2:
        return math.log(r) / (2.0 * math.pi)
    return -math.gamma(dim / 2.0 - 1.0) / (4.0 * math.pi ** (dim / 2.0) * r ** (dim - 2))


def momentum_form_coefficients(H: DifferentialOperator) -> dict[MultiIndex, expr.CoefficientExpression]:
    """Convert stored h_n coefficients of D^n into g_n coefficients of p^n.

    p^n = (-i d/dq)^n, so g_n = h_n / (-i)^n = h_n * i^n; the conversion is
    exact on the expression tree.
    """
    out = {}
    for n, coef in H.terms.items():
        out[n] = expr.const(1j ** n.order(), H.dim) * coef
    return out


def _draw(spec: SamplingSpec, dim: int, budget: int):
    """`budget * samples` points of the box [0, L_1) x ... x [0, L_N) x [0, 1):
    q as rows and t."""
    lengths = [DEFAULT_LENGTH] * dim if spec.lengths is None else spec.lengths
    box = [check_length(float(L)) for L in lengths]
    if len(box) != dim:
        raise DimensionMismatchError(f"sampling box has {len(box)} lengths for dimension {dim}")
    rng = random.Random(spec.seed)
    u = np.array([[rng.random() for _ in range(dim + 1)] for _ in range(budget * spec.samples)])
    return np.asarray(box) * u[:, :dim], u[:, dim]


def approx_equal(a: CoefficientExpression, b: CoefficientExpression, spec: SamplingSpec = SamplingSpec()) -> bool:
    """Numerical expression equality on reproducible random sample points.

    True iff |a-b| <= tol*(1+|a|+|b|) at `spec.samples` points drawn from
    `spec`'s box.  Points where either side faults are skipped: a divide,
    invalid or overflow error, which `evaluate` reports with the faulting
    subexpression.  A 10x oversampling budget is drawn; fewer than `samples`
    valid points in it raise SamplingError unless they already show a
    mismatch.

    The budget is drawn at once from random.Random(seed), q_1..q_N then t
    per row, each q_a scaled by L_a, so row k holds exactly the q and t that
    drawing the points one at a time would give for the k-th attempt.  Each
    side is evaluated over all rows in one call of the same walker that
    `evaluate` and `evaluate_on` use, and the first `samples` rows where
    neither side faults are compared.
    """
    a._check_dim(b)
    q, t = _draw(spec, a.dim, budget=10)
    va, faults_a, fault_a = _sample(a, q, t)
    vb, faults_b, fault_b = _sample(b, q, t)
    valid = np.flatnonzero(~(faults_a | faults_b))[:spec.samples]
    va, vb = va[valid], vb[valid]
    if np.any(np.abs(va - vb) > spec.tol * (1.0 + np.abs(va) + np.abs(vb))):
        return False
    if valid.size < spec.samples:
        raise SamplingError(
            f"only {valid.size}/{spec.samples} valid sample points after {q.shape[0]} draws "
            f"(first fault: {fault_a or fault_b})"
        )
    return True


def _sample(e: CoefficientExpression, q: np.ndarray, t: np.ndarray):
    """Values of `e` at the points (q[k], t[k]), a mask of the faulting ones
    and the error of the first fault (None without one).

    One walk over all points; only if that faults is each point evaluated
    on its own, to find which ones fault.
    """
    try:
        return np.broadcast_to(_eval(e.node, q.T, t), t.shape), np.zeros(t.shape, dtype=bool), None
    except EvaluationDomainError:
        pass
    values = np.zeros(t.shape, dtype=complex)
    faults = np.zeros(t.shape, dtype=bool)
    first = None
    for k, (point, when) in enumerate(zip(q, t)):
        try:
            values[k] = e.evaluate(point, when)
        except EvaluationDomainError as exc:
            faults[k] = True
            first = first or exc
    return values, faults, first
