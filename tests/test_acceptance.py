"""End-to-end acceptance suite.

Each test pins one acceptance criterion at its stated tolerance and prints a
single PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s` to
see the lines as they appear).
"""

import math

import numpy as np

from helpers import (
    band_limited_state,
    centered_spec,
    continuity_identity_defect,
    inner_product_hermitian,
    random_hermitian_operator,
    visibly_non_hermitian_operator,
)
from oracles import (
    check_combinatorial_identity,
    check_combinatorial_identity_1d,
    current_1d_integral,
    eval_current_direct,
    identity_residual,
    indices_of_max_order,
)
from pilotwave import expr
from pilotwave.altcurrents import born_jordan_current, compare_fields, second_order_current
from pilotwave.currents import VectorField, derive_current_table, eval_current, source_term
from pilotwave.epstein import nonlocal_current
from pilotwave.grids import Grid
from pilotwave.multiindex import MultiIndex, indices_up_to
from pilotwave.operators import hermiticity_violations, load_hamiltonian, require_hermitian
from pilotwave.solver import EvolutionSpec, evolve, norm_drift
from pilotwave.states import gaussian, plane_wave
from pilotwave.trajectories import equivariance_test, velocity

FREE_1D = 'dim = 1\nterm [2] = "-0.5"\n'
P4_1D = 'dim = 1\nterm [4] = "1"\n'
HO_1D = 'dim = 1\nterm [2] = "-0.5"\nterm [0] = "(q1-20)^2/2"\n'
STANDARD_2D = 'dim = 2\nterm [2,0] = "-0.5"\nterm [0,2] = "-0.5"\n'


def report(number: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {verdict} ({detail})", flush=True)
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def sampled_deviation(a, b, dim, samples=16, seed=11):
    """Max |a - b| over reproducible sample points in [-2,2]^N x [0,1].

    Row k of the draw holds the q and t of point k, scaled as
    Generator.uniform scales, so the points are those of drawing
    `uniform(-2, 2, dim)` and `uniform(0, 1)` in turn.
    """
    u = np.random.default_rng(seed).random((samples, dim + 1))
    q = -2.0 + 4.0 * u[:, :dim]
    t = u[:, dim]
    return float(np.max(np.abs(a.evaluate_on(list(q.T), t) - b.evaluate_on(list(q.T), t))))


def test_criterion_01_standard_reduction():
    text = (
        "dim = 3\n"
        'term [2,0,0] = "-0.5"\n'
        'term [0,2,0] = "-0.25"\n'
        'term [0,0,2] = "-0.125"\n'
        'term [0,0,0] = "q1^2 + q2*q3"\n'
    )
    masses = [1.0, 2.0, 4.0]
    table = derive_current_table(load_hamiltonian(text))
    zero = MultiIndex((0,) * 3)
    ok = True
    for axis in (1, 2, 3):
        e_i = MultiIndex.unit(axis, 3)
        entries = {k: v.constant_value() for k, v in table.axes[axis - 1].items()}
        expected = {
            (e_i, zero): -0.5j / masses[axis - 1],
            (zero, e_i): +0.5j / masses[axis - 1],
        }
        ok = ok and entries == expected
    report(1, "standard-reduction", ok, "J_(i,e_i 0) = -i/2m_i, J_(i,0 e_i) = +i/2m_i, exact")


def test_criterion_02_hermiticity_criterion():
    rng = np.random.default_rng(20250809)
    agreements = 0
    for case in range(30):
        dim = 1 if case % 2 == 0 else 2
        grid = Grid((10.0,) * dim, (128,) * dim)
        center = tuple(grid.center())
        if case % 2 == 0:
            H = random_hermitian_operator(rng, dim, 4, center, decay=1.2)
        else:
            H = visibly_non_hermitian_operator(rng, dim, 4, center)
        symbolic = not hermiticity_violations(H, centered_spec(center))
        grid_verdict = inner_product_hermitian(H, grid, rng)
        agreements += int(symbolic == grid_verdict)
    qp = load_hamiltonian('dim = 1\nterm [1] = "-i*q1"\n')
    qp_sym = load_hamiltonian('dim = 1\nterm [1] = "-i*q1"\nterm [0] = "-i/2"\n')
    pair_ok = (not hermiticity_violations(qp), not hermiticity_violations(qp_sym)) == (False, True)
    report(
        2,
        "hermiticity-criterion",
        agreements == 30 and pair_ok,
        f"{agreements}/30 coefficient-vs-inner-product agreements; qp pair -> (False, True)",
    )


def test_criterion_03_reality_lemma():
    rng = np.random.default_rng(3001)
    worst = 0.0
    for k in range(200):
        dim = k % 3 + 1
        H = random_hermitian_operator(rng, dim, 4, (0.0,) * dim, max_terms=3)
        table = derive_current_table(H)
        for axis in range(1, dim + 1):
            entries = table.axes[axis - 1]
            for (n, m), coef in entries.items():
                partner = entries.get((m, n), expr.const(0, dim))
                worst = max(
                    worst,
                    sampled_deviation(coef, partner.conjugate(), dim, seed=17 + k),
                )
    report(3, "reality-lemma", worst < 1e-9, f"200 operators, max |J_inm - conj(J_imn)| = {worst:.2e}")


def test_criterion_04_identities():
    # grid identities, every |n| <= 6 in one to three dimensions; small
    # grids keep the sixth-derivative symbol k_max^6 from amplifying the
    # spectral noise floor above the tolerance
    worst_grid = 0.0
    rng = np.random.default_rng(44)
    for dim, pts, max_mode in ((1, 16, 2), (2, 16, 2), (3, 16, 1)):
        grid = Grid((2 * np.pi,) * dim, (pts,) * dim)
        phi = band_limited_state(grid, rng, max_mode=max_mode)
        chi = band_limited_state(grid, rng, max_mode=max_mode)
        for n in indices_of_max_order(dim, 6):
            worst_grid = max(worst_grid, identity_residual(phi, chi, n))
    # combinatorial identities, exact rational arithmetic
    exact_count = 0
    exact_ok = True
    for r in range(1, 9):
        for n in range(0, r):
            for m in range(0, r - n):
                exact_ok = exact_ok and check_combinatorial_identity_1d(r, n, m)
                exact_count += 1
    for dim in (1, 2, 3):
        for r in indices_of_max_order(dim, 6):
            for axis in range(1, dim + 1):
                e_i = MultiIndex.unit(axis, dim)
                budget = r.try_sub(e_i)
                if budget is None:
                    continue
                for n in indices_up_to(budget):
                    for m in indices_up_to(budget - n):
                        exact_ok = exact_ok and check_combinatorial_identity(r, n, m, axis)
                        exact_count += 1
    report(
        4,
        "identities",
        worst_grid < 1e-8 and exact_ok,
        f"grid residual max {worst_grid:.2e}; {exact_count} exact index triples all hold",
    )


def test_criterion_05_form_equivalence():
    rng = np.random.default_rng(505)
    worst = 0.0
    for k in range(50):
        dim = 1 if k % 2 == 0 else 2
        grid = Grid((10.0,) * dim, (128,) * dim)
        center = grid.center()
        spec = centered_spec(center)
        H = random_hermitian_operator(rng, dim, 3, center, decay=1.2)
        psi = band_limited_state(grid, rng, envelope_kappa=12.0)
        a = eval_current(derive_current_table(require_hermitian(H, spec)), psi)
        b = eval_current_direct(require_hermitian(H, spec), psi)
        scale = max(a.max_abs(), 1e-30)
        diff = max(np.max(np.abs(x - y)) for x, y in zip(a.components, b.components))
        worst = max(worst, diff / scale)
    report(5, "form-equivalence", worst < 1e-9, f"50 pairs, max rel diff {worst:.2e}")


def test_criterion_06_continuity():
    # spectral: div j recovers the source exactly on resolved states
    rng = np.random.default_rng(66)
    worst_spectral = 0.0
    for k in range(10):
        dim = 1 if k % 2 == 0 else 2
        grid = Grid((10.0,) * dim, (128,) * dim)
        center = grid.center()
        spec = centered_spec(center)
        H = random_hermitian_operator(rng, dim, 3, center, decay=1.2)
        psi = band_limited_state(grid, rng, envelope_kappa=12.0)
        I = source_term(H, psi)
        j = eval_current(derive_current_table(require_hermitian(H, spec)), psi)
        worst_spectral = max(
            worst_spectral,
            np.max(np.abs(j.divergence() - I)) / max(np.max(np.abs(I)), 1e-30),
        )
    # evolve-based: the same identity at the evolved snapshots
    H_free = load_hamiltonian(FREE_1D)
    grid = Grid((40.0,), (512,))
    psi0 = gaussian(grid, center=[19.0], width=0.6, wavevector=[1.0])
    res_std = continuity_identity_defect(H_free, evolve(H_free, psi0, EvolutionSpec(dt=1e-3, steps=20, stride=10)))
    H4 = load_hamiltonian(P4_1D)
    grid4 = Grid((40.0,), (128,))
    psi4 = gaussian(grid4, center=[20.0], width=1.5, wavevector=[0.5])
    res_p4 = continuity_identity_defect(H4, evolve(H4, psi4, EvolutionSpec(dt=1e-4, steps=20, stride=10)))
    report(
        6,
        "continuity",
        worst_spectral < 1e-8 and res_std < 1e-8 and res_p4 < 1e-8,
        f"spectral {worst_spectral:.2e}; evolve standard {res_std:.2e}, quartic {res_p4:.2e}",
    )


def test_criterion_07_1d_uniqueness():
    H = load_hamiltonian(FREE_1D)
    grid = Grid((40.0,), (1024,))
    psi0 = gaussian(grid, center=[20.0], width=0.5, wavevector=[1.0])
    snaps = evolve(H, psi0, EvolutionSpec(dt=5e-4, steps=2, stride=1))
    j_int = current_1d_integral(snaps[0], snaps[2])
    j_tab = eval_current(derive_current_table(H), snaps[1]).components[0]
    diff_std = float(np.max(np.abs(j_int - j_tab)))

    H4 = load_hamiltonian(P4_1D)
    grid4 = Grid((40.0,), (256,))
    psi4 = gaussian(grid4, center=[20.0], width=1.5, wavevector=[0.5])
    snaps4 = evolve(H4, psi4, EvolutionSpec(dt=1e-5, steps=2, stride=1))
    j_int4 = current_1d_integral(snaps4[0], snaps4[2])
    j_tab4 = eval_current(derive_current_table(H4), snaps4[1]).components[0]
    diff_p4 = float(np.max(np.abs(j_int4 - j_tab4)))
    report(
        7,
        "1d-uniqueness",
        diff_std < 1e-3 and diff_p4 < 1e-3,
        f"integral vs bilinear current: standard {diff_std:.2e}, quartic {diff_p4:.2e}",
    )


def test_criterion_08_epstein_construction():
    details = []
    ok = True
    # two dimensions: drifting Gaussian under the standard Hamiltonian
    H2 = load_hamiltonian(STANDARD_2D)
    grid2 = Grid((20.0, 20.0), (64, 64))
    psi2 = gaussian(grid2, center=[10.0, 10.0], width=1.0, wavevector=[1.0, 2.0])
    I2 = source_term(H2, psi2)
    j_ep2 = nonlocal_current(H2, psi2)
    j_loc2 = eval_current(derive_current_table(H2), psi2)
    peak2 = np.max(np.abs(I2))
    cont2 = np.max(np.abs(j_ep2.divergence() - I2)) / peak2
    diff2 = [a - b for a, b in zip(j_ep2.components, j_loc2.components)]
    div_diff2 = np.max(np.abs(VectorField(grid2, diff2).divergence())) / peak2
    pointwise2 = max(np.max(np.abs(d)) for d in diff2)
    ok = ok and cont2 < 1e-8 and div_diff2 < 1e-8 and pointwise2 > 1e-3
    details.append(
        f"N=2 continuity {cont2:.1e}, div(j_ep - j_loc) {div_diff2:.1e}, pointwise gap {pointwise2:.2f}"
    )
    # three dimensions: random Hermitian operator
    rng = np.random.default_rng(9)
    grid3 = Grid((10.0,) * 3, (64,) * 3)
    center3 = grid3.center()
    H3 = random_hermitian_operator(rng, 3, 2, center3, decay=1.2)
    psi3 = band_limited_state(grid3, rng, max_mode=1, envelope_kappa=6.0)
    I3 = source_term(H3, psi3)
    peak3 = np.max(np.abs(I3))
    spec3 = centered_spec(center3)
    j_ep3 = nonlocal_current(require_hermitian(H3, spec3), psi3)
    j_loc3 = eval_current(derive_current_table(require_hermitian(H3, spec3)), psi3)
    cont3 = np.max(np.abs(j_ep3.divergence() - I3)) / peak3
    diff3 = [a - b for a, b in zip(j_ep3.components, j_loc3.components)]
    div_diff3 = np.max(np.abs(VectorField(grid3, diff3).divergence())) / peak3
    ok = ok and cont3 < 1e-8 and div_diff3 < 1e-8
    details.append(f"N=3 continuity {cont3:.1e}, div diff {div_diff3:.1e}")
    report(8, "epstein-construction", ok, "; ".join(details))


def test_criterion_09_comparison_currents():
    rng = np.random.default_rng(606)
    worst_bj = 0.0
    grid = Grid((10.0,), (128,))
    center = grid.center()
    spec = centered_spec(center)
    for _ in range(20):
        H = random_hermitian_operator(rng, 1, 4, center, decay=1.2)
        psi = band_limited_state(grid, rng, envelope_kappa=12.0)
        j_bj = born_jordan_current(require_hermitian(H, spec), psi)
        j_can = eval_current(derive_current_table(require_hermitian(H, spec)), psi)
        scale = max(j_can.max_abs(), 1e-30)
        worst_bj = max(worst_bj, compare_fields(j_bj, j_can).max_abs_diff / scale)

    # closed forms: quartic kinetic term on a plane wave and symmetrized q p
    gridc = Grid((8 * np.pi,), (64,))
    H4 = load_hamiltonian(P4_1D)
    k = 0.5
    pw = plane_wave(gridc, [k])
    j4 = born_jordan_current(H4, pw)
    closed_p4 = np.max(np.abs(j4.components[0] - 4 * k ** 3 * pw.density()))
    Hqp = load_hamiltonian('dim = 1\nterm [1] = "-i*q1"\nterm [0] = "-i/2"\n')
    gridq = Grid((8.0,), (128,))
    psi_q = gaussian(gridq, center=[4.0], width=0.5, wavevector=[1.0])
    jqp = born_jordan_current(Hqp, psi_q)
    closed_qp = np.max(np.abs(jqp.components[0] - gridq.axis_points(0) * psi_q.density()))

    worst_so = 0.0
    for k_case in range(20):
        dim = k_case % 3 + 1
        pts = {1: 128, 2: 64, 3: 32}[dim]
        grid_n = Grid((10.0,) * dim, (pts,) * dim)
        center_n = grid_n.center()
        spec_n = centered_spec(center_n)
        H = random_hermitian_operator(rng, dim, 2, center_n, decay=1.2)
        psi = band_limited_state(grid_n, rng, max_mode=2, envelope_kappa=8.0)
        j_so = second_order_current(require_hermitian(H, spec_n), psi)
        j_can = eval_current(derive_current_table(require_hermitian(H, spec_n)), psi)
        scale = max(j_can.max_abs(), 1e-30)
        worst_so = max(worst_so, compare_fields(j_so, j_can).max_abs_diff / scale)
    ok = worst_bj < 1e-9 and worst_so < 1e-9 and closed_p4 < 1e-10 and closed_qp < 1e-10
    report(
        9,
        "comparison-currents",
        ok,
        f"momentum-derivative {worst_bj:.1e}, velocity-operator {worst_so:.1e}, "
        f"closed forms {closed_p4:.1e}/{closed_qp:.1e}",
    )


def test_criterion_10_solver_oracles():
    H = load_hamiltonian(FREE_1D)
    grid = Grid((40.0,), (512,))
    sigma0 = 0.5
    psi0 = gaussian(grid, center=[20.0], width=sigma0)
    snaps = evolve(H, psi0, EvolutionSpec(dt=1e-3, steps=1000, stride=100))
    x = grid.axis_points(0)
    worst_var = 0.0
    for snap in snaps[1:]:
        rho = snap.density()
        rho = rho / (rho.sum() * grid.cell_volume)
        mean = (x * rho).sum() * grid.cell_volume
        var = ((x - mean) ** 2 * rho).sum() * grid.cell_volume
        expected = sigma0 ** 2 * (1 + (snap.t / (2 * sigma0 ** 2)) ** 2)
        worst_var = max(worst_var, abs(var - expected) / expected)
    drift_free = max(norm_drift(snaps))

    Hho = load_hamiltonian(HO_1D)
    q0 = 2.0
    psi_c = gaussian(grid, center=[20.0 + q0], width=math.sqrt(0.5))
    snaps_c = evolve(Hho, psi_c, EvolutionSpec(dt=1e-3, steps=2000, stride=200))
    worst_center = 0.0
    for snap in snaps_c:
        rho = snap.density()
        rho = rho / (rho.sum() * grid.cell_volume)
        mean = (x * rho).sum() * grid.cell_volume
        worst_center = max(worst_center, abs(mean - (20.0 + q0 * math.cos(snap.t))))
    drift = max(drift_free, max(norm_drift(snaps_c)))
    ok = worst_var < 1e-3 and worst_center < 1e-3 and drift < 1e-6
    report(
        10,
        "solver-oracles",
        ok,
        f"variance law {worst_var:.1e}, coherent center {worst_center:.1e}, norm drift {drift:.1e}",
    )


def test_criterion_11_equivariance():
    H = load_hamiltonian(FREE_1D)
    grid = Grid((40.0,), (512,))
    psi0 = gaussian(grid, center=[18.0], width=0.5, wavevector=[1.0])
    spec = EvolutionSpec(dt=1e-3, steps=1000, stride=10)
    free = equivariance_test(
        H, psi0, count=5000, horizon=1.0, seed=11, evolution_spec=spec, substeps=2
    )
    H4 = load_hamiltonian(P4_1D)
    grid4 = Grid((40.0,), (128,))
    psi4 = gaussian(grid4, center=[20.0], width=1.5, wavevector=[0.5])
    spec4 = EvolutionSpec(dt=1e-4, steps=500, stride=10)
    quartic = equivariance_test(
        H4, psi4, count=5000, horizon=0.05, seed=7, evolution_spec=spec4, substeps=2
    )
    ok = (
        free.ks_distance < 0.03
        and free.truncated_fraction < 0.01
        and quartic.ks_distance < 0.05
        and quartic.valid
    )
    report(
        11,
        "equivariance",
        ok,
        f"free KS {free.ks_distance:.4f} (trunc {free.truncated_fraction:.3f}); "
        f"quartic KS {quartic.ks_distance:.4f}",
    )


def test_criterion_12_group_velocity():
    H4 = load_hamiltonian(P4_1D)
    grid = Grid((8 * np.pi,), (64,))
    table = derive_current_table(H4)
    worst = 0.0
    for k in (0.25, 0.5, 1.0):
        psi = plane_wave(grid, [k])
        j = eval_current(table, psi)
        for q in (1.0, 12.0, 20.0):
            v = velocity(psi, j, [q])[0]
            worst = max(worst, abs(v - 4 * k ** 3))
    report(12, "group-velocity", worst < 1e-6, f"max |v - 4k^3| = {worst:.2e} over k in {{0.25, 0.5, 1.0}}")
