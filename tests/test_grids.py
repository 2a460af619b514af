from collections import Counter

import numpy as np
import pytest

from helpers import grid_meshes
from oracles import indices_of_max_order
from pilotwave import expr
from pilotwave.errors import EvaluationDomainError, GridError
from pilotwave.grids import DerivativeCache, Grid, _symbol, check_integer, spectral_derivative
from pilotwave.multiindex import MultiIndex


def symbol_rebuilt_per_call(grid: Grid, n: MultiIndex) -> np.ndarray:
    """Oracle: the symbol as built before the per-axis factors were cached,
    from fresh wavenumbers on every call."""
    out = np.ones(grid.shape, dtype=complex)
    for axis, power in enumerate(n.entries):
        if power == 0:
            continue
        k = grid.wavenumbers(axis)
        factor = (1j * k) ** power
        if power % 2 == 1 and grid.shape[axis] % 2 == 0:
            factor[grid.shape[axis] // 2] = 0.0
        shape = [1] * grid.dim
        shape[axis] = grid.shape[axis]
        out = out * factor.reshape(shape)
    return out


SYMBOL_GRIDS = [
    Grid((40.0,), (32,)),
    Grid((1.0,), (1,)),  # a one-point axis has no Nyquist mode
    Grid((20.0, 7.5), (16, 8)),
    Grid((3.0, 10.0), (1, 16)),
    Grid((2 * np.pi, 5.0, 12.0), (8, 4, 16)),
]


@pytest.mark.parametrize("grid", SYMBOL_GRIDS, ids=lambda g: "x".join(map(str, g.shape)))
def test_symbol_is_bitwise_equal_to_the_per_call_construction(grid):
    indices = list(indices_of_max_order(grid.dim, 6))
    assert any(p % 2 == 1 for n in indices for p in n.entries)
    for n in indices:
        # twice: the first call fills the factor cache, the second reads it
        for _ in range(2):
            got, want = _symbol(grid, n), symbol_rebuilt_per_call(grid, n)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), n


def test_cached_factor_is_read_only_and_shared():
    grid = Grid((10.0, 10.0), (16, 16))
    factor = grid.derivative_factor(1, 3)
    assert factor.shape == (1, 16)
    assert not factor.flags.writeable
    with pytest.raises(ValueError):
        factor[0, 1] = 0.0
    assert grid.derivative_factor(1, 3) is factor
    # equal grids compare and hash as before: the cache is not part of a grid's value
    assert Grid((10.0, 10.0), (16, 16)) == grid
    assert hash(Grid((10.0, 10.0), (16, 16))) == hash(grid)


def test_wavenumbers_are_built_once_per_grid_axis_and_power(monkeypatch):
    calls = Counter()
    original = Grid.wavenumbers

    def counting(self, axis):
        calls[axis] += 1
        return original(self, axis)

    monkeypatch.setattr(Grid, "wavenumbers", counting)
    grid = Grid((10.0, 10.0), (16, 16))
    rng = np.random.default_rng(5)
    for _ in range(3):
        cache = DerivativeCache(rng.normal(size=grid.shape), grid)
        for n in indices_of_max_order(2, 4):
            cache.derivative(n)
            spectral_derivative(cache.values, grid, n)
    # powers 1..4 on each axis, however many fields and derivatives
    assert calls == Counter({0: 4, 1: 4})


@pytest.mark.parametrize(
    "grid", [Grid((40.0,), (32,)), Grid((20.0, 7.5), (16, 8)), Grid((2 * np.pi, 5.0, 12.0), (8, 4, 16))],
    ids=lambda g: "x".join(map(str, g.shape)),
)
def test_axis_wise_derivatives_match_the_full_transform(grid, monkeypatch):
    """D^n taken one axis at a time is within 1e-12 (relative to its largest
    value) of the full-grid ifftn(fftn(psi) * symbol) up to order 6, and
    bitwise that in 1D; every transform it makes runs along one axis."""
    rng = np.random.default_rng(11)
    values = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    indices = [n for n in indices_of_max_order(grid.dim, 6) if n.order() > 0]
    full = np.fft.fftn(values)
    wanted = [np.fft.ifftn(full * _symbol(grid, n)) for n in indices]
    axes = []
    for name in ("fftn", "ifftn"):
        original = getattr(np.fft, name)

        def recording(a, *args, _original=original, **kwargs):
            axes.append(kwargs["axes"])
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, recording)
    cache = DerivativeCache(values, grid)
    for n, want in zip(indices, wanted):
        got = cache.derivative(n)
        if grid.dim == 1:
            assert got.tobytes() == want.tobytes(), n
        else:
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), n
    assert axes and {len(a) for a in axes} == {1}


def test_grid_refuses_more_than_max_grid_points():
    # metadata only: no grid-sized array is allocated either way
    assert Grid((1.0,) * 3, (256,) * 3).shape == (256,) * 3
    with pytest.raises(GridError, match=r"^1073741824 grid points exceed MAX_GRID_POINTS = 16777216$"):
        Grid((1.0,) * 3, (1024,) * 3)
    with pytest.raises(GridError, match="MAX_GRID_POINTS"):
        Grid((1.0,) * 3, (512, 256, 256))


@pytest.mark.parametrize("read, message", [
    (lambda: Grid((40.0,), (64.9,)), "points per axis must be an integer, got 64.9"),
    (lambda: check_integer(True, "dimension"), "dimension must be an integer, got True"),
], ids=["fractional-points", "bool"])
def test_integer_reads_refuse_a_fraction_and_a_bool(read, message):
    """Neither is truncated to an int: 64.9 points is not 64, and True is not 1."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        read()


# Axis-vector evaluation: a coefficient computed on the sparse vectors must be
# the same bytes, at the same full shape, as on the meshes.
AXIS_GRIDS = [Grid((6.0,), (32,)), Grid((6.0, 4.0), (16, 32)), Grid((6.0, 4.0, 5.0), (8, 16, 4))]


def test_axis_vectors_broadcast_to_the_meshes():
    for grid in AXIS_GRIDS:
        vectors = grid.axis_vectors()
        for axis, (vector, mesh) in enumerate(zip(vectors, grid_meshes(grid))):
            assert vector.shape == tuple(n if a == axis else 1 for a, n in enumerate(grid.shape))
            assert np.array_equal(np.broadcast_to(vector, grid.shape), mesh)


@pytest.mark.parametrize(
    "text, t",
    [
        ("exp(-(q1-2)^2)*cos(q{N}) + 0.3", 0.0),          # static
        ("0.5*cos(q1)*sin(3*t) + t*q{N}^2", 0.37),        # time-dependent
        ("q1*q{N} + sqrt(q{N}+1)/(2+sin(q1))", 0.0),      # cross-axis
        ("-0.5", 0.0),                                    # constant
    ],
    ids=["static", "time-dependent", "cross-axis", "constant"],
)
@pytest.mark.parametrize("grid", AXIS_GRIDS, ids=["1d", "2d", "3d"])
def test_axis_vector_evaluation_is_bitwise_the_mesh_evaluation(grid, text, t):
    coef = expr.parse(text.format(N=grid.dim), grid.dim)
    on_axes = coef.evaluate_on(grid.axis_vectors(), t)
    on_meshes = coef.evaluate_on(grid_meshes(grid), t)
    assert on_axes.shape == on_meshes.shape == grid.shape
    assert on_axes.dtype == on_meshes.dtype
    assert on_axes.tobytes() == on_meshes.tobytes()


@pytest.mark.parametrize("grid", AXIS_GRIDS[1:], ids=["2d", "3d"])
def test_axis_vector_fault_names_the_same_subexpression(grid):
    coef = expr.parse(f"cos(q{grid.dim}) + 1/q1", grid.dim)  # q1 = 0 is a grid node
    faults = []
    for coords in (grid.axis_vectors(), grid_meshes(grid)):
        with pytest.raises(EvaluationDomainError) as err:
            coef.evaluate_on(coords, 0.0)
        faults.append(err.value.subexpression)
    assert faults[0] == faults[1] == str(expr.parse("1/q1", grid.dim))
