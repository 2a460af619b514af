"""Nonlocal current built from the inverse Laplacian of the source term.

On the periodic grid the inverse Laplacian is realized spectrally: the
constant mode is removed (zero-mean convention, the standard solvability
condition on compact domains) and every other mode is divided by -|k|^2.
The continuum picture, convolution with the free-space Green's function of
Laplace's equation, is not used; the test suite keeps that kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._numpy import np

from .currents import VectorField
from .errors import DimensionMismatchError, PilotwaveError
from .grids import DerivativeCache, Grid, GridState, _symbol
from .multiindex import MultiIndex
from .operators import DifferentialOperator, apply as apply_operator, require_hermitian

SOURCE_MEAN_REL = 1e-10
RESIDUAL_REL = 1e-9


@dataclass
class PoissonSolution:
    """Zero-mean grid solution of lap(phi) = source with its residual; `derivatives`
    holds phi's transforms, taken once for the residual and any later gradient."""

    grid: Grid
    values: np.ndarray
    residual: float
    derivatives: DerivativeCache


def poisson_solve(source: np.ndarray, grid: Grid) -> PoissonSolution:
    """Spectral inversion of the Laplacian on the periodic grid."""
    source = np.asarray(source, dtype=float)
    if source.shape != grid.shape:
        raise DimensionMismatchError("source shape does not match grid")
    peak = float(np.max(np.abs(source)))
    mean = float(np.mean(source))
    if peak == 0.0:
        phi = np.zeros(grid.shape)
        return PoissonSolution(grid, phi, 0.0, DerivativeCache(phi, grid))
    if abs(mean) > SOURCE_MEAN_REL * peak:
        raise PilotwaveError(
            f"source mean {mean:.3e} is not negligible against max {peak:.3e}; "
            "no periodic solution exists"
        )
    spectrum = np.fft.fftn(source)
    units = [MultiIndex.unit(axis, grid.dim) for axis in range(1, grid.dim + 1)]
    flat_spectrum = spectrum.reshape(-1)
    flat_symbol = sum(_symbol(grid, e + e) for e in units).real.reshape(-1)
    out = np.zeros_like(flat_spectrum)
    out[1:] = flat_spectrum[1:] / flat_symbol[1:]
    phi = np.fft.ifftn(out.reshape(grid.shape)).real
    dphi = DerivativeCache(phi, grid)
    lap = sum(dphi.derivative(e + e) for e in units).real
    residual = float(np.max(np.abs(lap - (source - mean))))
    if residual > RESIDUAL_REL * peak:
        raise PilotwaveError(f"Poisson residual {residual:.3e} exceeds {RESIDUAL_REL:.0e} x max")
    return PoissonSolution(grid, phi, residual, dphi)


def nonlocal_current(H: DifferentialOperator, state: GridState) -> VectorField:
    """Gradient of the inverse Laplacian of the source term at the state's time.

    Satisfies the same continuity equation as the local bilinear current
    (div j = I), but generally differs from it pointwise: currents are fixed
    by continuity only up to a divergence-free field.
    """
    H = require_hermitian(H)
    if state.dim < 2:
        raise PilotwaveError("the nonlocal construction needs dimension >= 2")
    applied = apply_operator(H, state)
    bilinear = np.conjugate(state.values) * applied.values
    source = 2.0 * np.real(1j * bilinear)
    # conservation makes the mean vanish up to discretization; judge it
    # against the scale of the bilinear form the source cancels out of,
    # so that identically-zero sources (pure rounding noise) pass
    scale = max(float(np.max(np.abs(bilinear))), float(np.max(np.abs(source))))
    mean = float(np.mean(source))
    if scale > 0 and abs(mean) > 1e-8 * scale:
        raise PilotwaveError(
            f"source mean {mean:.3e} too large against scale {scale:.3e}; "
            "the operator does not conserve the norm on this grid"
        )
    source = source - mean
    dphi = poisson_solve(source, state.grid).derivatives
    units = (MultiIndex.unit(axis, state.dim) for axis in range(1, state.dim + 1))
    return VectorField(state.grid, [dphi.derivative(e).real for e in units])
