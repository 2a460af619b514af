import numpy as np
import pytest

from helpers import band_limited_state, centered_spec, grid_meshes, random_hermitian_operator
from oracles import momentum_form_coefficients
from pilotwave import expr
from pilotwave.altcurrents import born_jordan_current, compare_fields, second_order_current
from pilotwave.currents import derive_current_table, eval_current
from pilotwave.errors import DimensionMismatchError, PilotwaveError
from pilotwave.grids import DerivativeCache, Grid
from pilotwave.multiindex import MultiIndex
from pilotwave.operators import DifferentialOperator, hermitize, load_hamiltonian, require_hermitian
from pilotwave.states import gaussian, plane_wave

STANDARD_1D = 'dim = 1\nterm [2] = "-0.5"\n'
P4_1D = 'dim = 1\nterm [4] = "1"\n'
QP_SYM_1D = 'dim = 1\nterm [1] = "-i*q1"\nterm [0] = "-i/2"\n'


def test_momentum_form_conversion():
    H = load_hamiltonian(P4_1D)
    g = momentum_form_coefficients(H)
    assert g[MultiIndex((4,))].constant_value() == 1.0  # h4 * i^4
    Hq = load_hamiltonian(QP_SYM_1D)
    gq = momentum_form_coefficients(Hq)
    assert expr.approx_equal(gq[MultiIndex((1,))], expr.parse("q1", 1))
    assert gq[MultiIndex((0,))].constant_value() == -0.5j


def test_born_jordan_standard_kinetic():
    H = load_hamiltonian(STANDARD_1D)
    grid = Grid((40.0,), (256,))
    psi = gaussian(grid, center=[20.0], width=0.8, wavevector=[1.3])
    j_bj = born_jordan_current(H, psi)
    dpsi = DerivativeCache(psi.values, grid).derivative(MultiIndex((1,)))
    expected = np.imag(np.conjugate(psi.values) * dpsi)
    assert np.max(np.abs(j_bj.components[0] - expected)) < 1e-12
    j_can = eval_current(derive_current_table(H), psi)
    assert compare_fields(j_bj, j_can).max_abs_diff < 1e-10


def test_born_jordan_symmetrized_qp():
    H = load_hamiltonian(QP_SYM_1D)
    grid = Grid((8.0,), (128,))
    psi = gaussian(grid, center=[4.0], width=0.5, wavevector=[1.0])
    j_bj = born_jordan_current(H, psi)
    expected = grid.axis_points(0) * psi.density()
    assert np.max(np.abs(j_bj.components[0] - expected)) < 1e-12
    j_can = eval_current(derive_current_table(H), psi)
    assert compare_fields(j_bj, j_can).max_abs_diff < 1e-10


def test_born_jordan_p4_closed_form():
    H = load_hamiltonian(P4_1D)
    grid = Grid((40.0,), (256,))
    psi = gaussian(grid, center=[20.0], width=1.2, wavevector=[0.5])
    j_bj = born_jordan_current(H, psi)
    dpsi = DerivativeCache(psi.values, grid)
    d = [dpsi.derivative(MultiIndex((k,))) for k in range(4)]
    db = [np.conjugate(x) for x in d]
    closed = np.real(1j * (d[3] * db[0] - d[2] * db[1] + d[1] * db[2] - d[0] * db[3]))
    assert np.max(np.abs(j_bj.components[0] - closed)) < 1e-10
    j_can = eval_current(derive_current_table(H), psi)
    assert compare_fields(j_bj, j_can).max_abs_diff < 1e-10


def test_born_jordan_plane_wave_group_velocity():
    H = load_hamiltonian(P4_1D)
    grid = Grid((8 * np.pi,), (64,))
    for k in (0.25, 0.5, 1.0):
        psi = plane_wave(grid, [k])
        j = born_jordan_current(H, psi)
        assert np.allclose(j.components[0], 4 * k ** 3, atol=1e-10)


def test_born_jordan_matches_dense_matrix_realization():
    # brute force: p as a dense spectral matrix, rho as an outer product,
    # current as the diagonal of sum_k p^(n-k) rho g_n p^(k-1), kernel-scaled
    grid = Grid((16.0,), (128,))
    n_pts = grid.shape[0]
    dx = grid.spacings[0]
    H = hermitize(
        DifferentialOperator(
            1,
            {
                MultiIndex((2,)): expr.parse("-0.5 - 0.25*cos(0.39269908169872414*q1)", 1),
                MultiIndex((1,)): expr.parse("-i*sin(0.39269908169872414*q1)", 1),
            },
        )
    )
    psi = gaussian(grid, center=[8.0], width=0.8, wavevector=[0.8])

    fourier = np.fft.fft(np.eye(n_pts), axis=0)
    inv_fourier = np.fft.ifft(np.eye(n_pts), axis=0)
    k = grid.wavenumbers(0).copy()
    k[n_pts // 2] = 0.0
    P = (inv_fourier @ np.diag(-1j * (1j * k)) @ fourier)  # -i d/dq
    rho = np.outer(psi.values, np.conjugate(psi.values)) * dx
    meshes = grid_meshes(grid)
    M = np.zeros((n_pts, n_pts), dtype=complex)
    for n, g_coef in momentum_form_coefficients(H).items():
        order = n.order()
        G = np.diag(g_coef.evaluate_on(meshes, 0.0))
        for kk in range(1, order + 1):
            M += np.linalg.matrix_power(P, order - kk) @ rho @ G @ np.linalg.matrix_power(P, kk - 1)
    brute = np.real(np.diag(M)) / dx
    j = born_jordan_current(H, psi)
    assert np.max(np.abs(j.components[0] - brute)) < 1e-9


def test_born_jordan_guards():
    grid2 = Grid((8.0, 8.0), (32, 32))
    H2 = load_hamiltonian('dim = 2\nterm [2,0] = "-0.5"\nterm [0,2] = "-0.5"\n')
    psi2 = gaussian(grid2, width=0.8)
    with pytest.raises(DimensionMismatchError):
        born_jordan_current(H2, psi2)
    grid = Grid((8.0,), (64,))
    bad = load_hamiltonian('dim = 1\nterm [1] = "1"\n')
    with pytest.raises(PilotwaveError):
        born_jordan_current(bad, gaussian(grid, width=0.8))


def test_second_order_standard_current():
    H = load_hamiltonian('dim = 2\nterm [2,0] = "-0.5"\nterm [0,2] = "-0.5"\n')
    grid = Grid((20.0, 20.0), (64, 64))
    psi = gaussian(grid, center=[10.0, 10.0], width=1.0, wavevector=[1.0, 2.0])
    j = second_order_current(H, psi)
    for axis in range(2):
        d = DerivativeCache(psi.values, grid).derivative(MultiIndex.unit(axis + 1, 2))
        expected = np.imag(np.conjugate(psi.values) * d)
        assert np.max(np.abs(j.components[axis] - expected)) < 1e-12


def test_second_order_variable_mass_matches_canonical():
    H = hermitize(
        DifferentialOperator(
            1,
            {MultiIndex((2,)): expr.parse("-0.5 - 0.2*cos(0.7853981633974483*q1)", 1)},
        )
    )
    grid = Grid((8.0,), (128,))
    rng = np.random.default_rng(15)
    psi = band_limited_state(grid, rng, max_mode=3, envelope_kappa=10.0)
    j_so = second_order_current(H, psi)
    j_can = eval_current(derive_current_table(H), psi)
    scale = max(j_can.max_abs(), 1e-30)
    assert compare_fields(j_so, j_can).max_abs_diff < 1e-9 * scale


def test_second_order_potential_only_vanishes():
    H = load_hamiltonian('dim = 1\nterm [0] = "cos(q1)"\n')
    grid = Grid((2 * np.pi,), (64,))
    rng = np.random.default_rng(2)
    psi = band_limited_state(grid, rng)
    j = second_order_current(H, psi)
    assert j.max_abs() == 0.0


def test_second_order_rejects_higher_order():
    H = load_hamiltonian(P4_1D)
    grid = Grid((40.0,), (64,))
    psi = gaussian(grid, center=[20.0], width=1.0)
    with pytest.raises(PilotwaveError):
        second_order_current(H, psi)


def test_random_agreement_ensembles():
    rng = np.random.default_rng(606)
    # momentum-derivative current vs canonical, one dimension
    grid = Grid((10.0,), (128,))
    center = grid.center()
    spec = centered_spec(center)
    for _ in range(5):
        H = random_hermitian_operator(rng, 1, 4, center, decay=1.2)
        psi = band_limited_state(grid, rng, envelope_kappa=12.0)
        j_bj = born_jordan_current(require_hermitian(H, spec), psi)
        j_can = eval_current(derive_current_table(require_hermitian(H, spec)), psi)
        scale = max(j_can.max_abs(), 1e-30)
        assert compare_fields(j_bj, j_can).max_abs_diff < 1e-9 * scale
    # velocity-operator current vs canonical, two dimensions
    grid2 = Grid((10.0, 10.0), (64, 64))
    center2 = grid2.center()
    spec2 = centered_spec(center2)
    for _ in range(5):
        H = random_hermitian_operator(rng, 2, 2, center2, decay=1.2)
        psi = band_limited_state(grid2, rng, max_mode=2, envelope_kappa=8.0)
        j_so = second_order_current(require_hermitian(H, spec2), psi)
        j_can = eval_current(derive_current_table(require_hermitian(H, spec2)), psi)
        scale = max(j_can.max_abs(), 1e-30)
        assert compare_fields(j_so, j_can).max_abs_diff < 1e-9 * scale


def test_compare_fields_identical_and_guards():
    grid = Grid((10.0,), (64,))
    H = load_hamiltonian(STANDARD_1D)
    psi = gaussian(grid, center=[5.0], width=0.8, wavevector=[1.0])
    j = eval_current(derive_current_table(H), psi)
    report = compare_fields(j, j)
    assert report.max_abs_diff == 0.0
    assert report.max_div_diff == 0.0
    other = Grid((10.0,), (32,))
    jo = eval_current(derive_current_table(H), gaussian(other, center=[5.0], width=0.8))
    with pytest.raises(DimensionMismatchError):
        compare_fields(j, jo)


def test_compare_fields_refuses_another_box_of_the_same_shape():
    H = load_hamiltonian(STANDARD_1D)
    table = derive_current_table(H)
    j = eval_current(table, gaussian(Grid((10.0,), (64,)), center=[5.0], width=0.8, wavevector=[1.0]))
    wider = eval_current(table, gaussian(Grid((12.0,), (64,)), center=[5.0], width=0.8, wavevector=[1.0]))
    with pytest.raises(DimensionMismatchError, match="different grids"):
        compare_fields(j, wider)


def test_compare_fields_pins_the_divergence_of_the_difference():
    """On a 2D box of unequal sides, max_div_diff is the full-grid divergence
    sum_a ifftn(fftn(d_a) i k_a) of the difference d, within 1e-12 of its peak."""
    H = load_hamiltonian('dim = 2\nterm [2,0] = "-0.5"\nterm [0,2] = "-0.5"\n')
    grid = Grid((20.0, 10.0), (64, 32))
    table = derive_current_table(H)
    a = eval_current(table, gaussian(grid, center=[9.0, 5.0], width=1.0, wavevector=[1.0, -0.5]))
    b = eval_current(table, gaussian(grid, center=[11.0, 4.0], width=1.3, wavevector=[0.2, 1.5]))
    diff = [ca - cb for ca, cb in zip(a.components, b.components)]
    k = np.meshgrid(*(2 * np.pi * np.fft.fftfreq(n, d=L / n) for L, n in zip(grid.lengths, grid.shape)),
                    indexing="ij")
    divergence = sum(np.fft.ifftn(np.fft.fftn(d) * 1j * k_a) for d, k_a in zip(diff, k)).real
    report = compare_fields(a, b)
    assert report.max_abs_diff == max(np.max(np.abs(d)) for d in diff)
    peak = np.max(np.abs(divergence))
    assert peak > 1e-2
    assert abs(report.max_div_diff - peak) <= 1e-12 * peak
