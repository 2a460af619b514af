"""Uniform periodic grids, wavefunction samples, and spectral calculus.

All derivatives are trigonometric-interpolation (FFT) derivatives, which
gives uniform accuracy at arbitrary order.  The grid engine is capped at
three axes; the symbolic layers above it work in any dimension.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionMismatchError, GridError
from .multiindex import MultiIndex

MAX_GRID_DIM = 3
MAX_POINTS_PER_AXIS = 1024
# One complex field of 2**24 points is 256 MiB, and RK4 holds about seven.
MAX_GRID_POINTS = 2**24
# Box length per axis when none is given: the CLI's default domain, and the
# box [0, 40)^N on which sampled expression checks draw their points.
DEFAULT_LENGTH = 40.0


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def check_integer(value, name: str) -> int:
    """`value` as an int if it is an integer (numpy integers included, bool not), else ValueError
    naming `name`."""
    try:
        if isinstance(value, bool):
            raise TypeError(value)
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def check_length(length: float) -> float:
    """`length` if it is a valid box length for one axis, else GridError."""
    if not (math.isfinite(length) and length > 0):
        raise GridError(f"domain lengths must be positive and finite, got {length}")
    return length


def check_points(points: int, minimum: int = 1) -> int:
    """`points` if it is a valid point count for one axis and at least `minimum`, else GridError."""
    if not _is_power_of_two(points) or points > MAX_POINTS_PER_AXIS:
        raise GridError(f"points per axis must be a power of two <= {MAX_POINTS_PER_AXIS}, got {points}")
    if points < minimum:
        raise GridError(f"need at least {minimum} points per axis to apply operators, got {points}")
    return points


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid over the box [0, L1) x ... x [0, LN)."""

    lengths: tuple[float, ...]
    shape: tuple[int, ...]
    _factors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        lengths = tuple(float(x) for x in self.lengths)
        shape = tuple(check_integer(s, "points per axis") for s in self.shape)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "shape", shape)
        if len(lengths) != len(shape):
            raise DimensionMismatchError("lengths and shape must have equal rank")
        if not 1 <= len(shape) <= MAX_GRID_DIM:
            raise GridError(f"grid engine supports 1..{MAX_GRID_DIM} axes, got {len(shape)}")
        for length in lengths:
            check_length(length)
        for s in shape:
            check_points(s)
        if math.prod(shape) > MAX_GRID_POINTS:
            raise GridError(f"{math.prod(shape)} grid points exceed MAX_GRID_POINTS = {MAX_GRID_POINTS}")

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(L / s for L, s in zip(self.lengths, self.shape))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacings))

    def axis_points(self, axis: int) -> np.ndarray:
        """Coordinates along one axis (0-based axis index)."""
        return np.arange(self.shape[axis]) * self.spacings[axis]

    def axis_vectors(self) -> list[np.ndarray]:
        """Sparse ij coordinate vectors, which broadcast to the full grid: a coefficient
        evaluated on them is computed only along the axes it uses."""
        points = (self.axis_points(a) for a in range(self.dim))
        return list(np.meshgrid(*points, indexing="ij", sparse=True))

    def wavenumbers(self, axis: int) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.shape[axis], d=self.spacings[axis])

    def derivative_factor(self, axis: int, power: int) -> np.ndarray:
        """Read-only (i k)^power on a 0-based axis, broadcastable over the grid, Nyquist
        zeroed for odd powers on an even axis; built once per grid, axis and power."""
        key = (axis, power)
        if key not in self._factors:
            factor = (1j * self.wavenumbers(axis)) ** power
            if power % 2 == 1 and self.shape[axis] % 2 == 0:
                factor[self.shape[axis] // 2] = 0.0
            factor.setflags(write=False)
            self._factors[key] = factor.reshape([-1 if a == axis else 1 for a in range(self.dim)])
        return self._factors[key]

    def max_wavenumbers(self) -> tuple[float, ...]:
        return tuple(np.pi / d for d in self.spacings)

    def center(self) -> np.ndarray:
        return np.asarray(self.lengths) / 2.0


@dataclass
class GridState:
    """Complex wavefunction sampled on a grid, stamped with its time."""

    grid: Grid
    values: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=complex)
        if self.values.shape != self.grid.shape:
            raise DimensionMismatchError(
                f"state shape {self.values.shape} != grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values.view(float))):
            raise GridError("state contains non-finite values")

    @property
    def dim(self) -> int:
        return self.grid.dim

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2) * self.grid.cell_volume)

    def density(self) -> np.ndarray:
        return np.abs(self.values) ** 2

    def normalized(self) -> "GridState":
        n2 = self.norm_sq()
        if n2 == 0:
            raise GridError("cannot normalize the zero state")
        return GridState(self.grid, self.values / np.sqrt(n2), self.t)

    def copy(self, **changes) -> "GridState":
        """A copy with its own values; `copy(t=...)` stamps it with another time."""
        return replace(self, values=self.values.copy(), **changes)


# ---------------------------------------------------------------------------
# Spectral calculus

def _symbol(grid: Grid, n: MultiIndex) -> np.ndarray:
    """Fourier symbol prod_a (i k_a)^{n_a}, Nyquist zeroed for odd powers."""
    out = np.ones(grid.shape, dtype=complex)
    for axis, power in enumerate(n.entries):
        if power:
            out = out * grid.derivative_factor(axis, power)
    return out


class DerivativeCache:
    """Caches one field's transforms and its derivatives per multi-index.

    Derivatives transform along one axis at a time: D^n is the last axis a
    that n uses, applied to the cached D^m where m is n with entry a set to
    0.  The field's spectrum along each axis is kept; the spectra of
    intermediate derivatives are not.
    """

    def __init__(self, values: np.ndarray, grid: Grid):
        self.grid = grid
        self.values = np.asarray(values, dtype=complex)
        self._spectra: dict[tuple[int, ...], np.ndarray] = {}
        self._cache: dict[MultiIndex, np.ndarray] = {}

    def _transform(self, axes: tuple[int, ...]) -> np.ndarray:
        if axes not in self._spectra:
            self._spectra[axes] = np.fft.fftn(self.values, axes=axes)
        return self._spectra[axes]

    def spectrum(self) -> np.ndarray:
        """The field's FFT over all axes, taken once (in 1D, also the derivatives' one)."""
        return self._transform(tuple(range(self.grid.dim)))

    def derivative(self, n: MultiIndex) -> np.ndarray:
        if n.order() == 0:
            return self.values
        hit = self._cache.get(n)
        if hit is None:
            entries = n.entries
            axis = max(a for a, power in enumerate(entries) if power)
            if any(entries[:axis]):
                rest = MultiIndex(entries[:axis] + (0,) * (len(entries) - axis))
                spectrum = np.fft.fftn(self.derivative(rest), axes=(axis,))
            else:
                spectrum = self._transform((axis,))
            hit = np.fft.ifftn(spectrum * self.grid.derivative_factor(axis, entries[axis]), axes=(axis,))
            self._cache[n] = hit
        return hit


def spectral_derivative(values: np.ndarray, grid: Grid, n: MultiIndex) -> np.ndarray:
    """Mixed partial D^n of grid samples by trigonometric interpolation."""
    if n.dim != grid.dim:
        raise DimensionMismatchError(f"multi-index dim {n.dim} != grid dim {grid.dim}")
    if n.order() == 0:
        return np.asarray(values, dtype=complex).copy()
    return DerivativeCache(values, grid).derivative(n)


def spectral_divergence(components, grid: Grid) -> np.ndarray:
    """Divergence of a (real or complex) vector field, returned real."""
    if len(components) != grid.dim:
        raise DimensionMismatchError(f"{len(components)} components for grid dim {grid.dim}")
    total = np.zeros(grid.shape, dtype=complex)
    for axis, comp in enumerate(components, start=1):
        total += spectral_derivative(np.asarray(comp, dtype=complex), grid, MultiIndex.unit(axis, grid.dim))
    return total.real
