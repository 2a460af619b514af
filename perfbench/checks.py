"""Correctness checks on what the `pilotwave` CLI returns and writes.

Each check returns a list of problems; an empty list means the call passed.
The oracles here use numpy only and rebuild operators and states from the
generator's numbers in `inputs`, never from pilotwave objects.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import inputs

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SIM2D_REFERENCE = REFERENCE_DIR / "sim2d_final.npy"

SIM2D_SNAPSHOTS = 51
SIM2D_TRAJECTORIES = 1000
NORM_DRIFT_LIMIT = 1e-6
MAX_TRUNCATED_FRACTION = 0.10
# Final sim2d snapshot against the stored one, relative max-norm.  RK4 at
# dt = 1e-3 differs from dt = 5e-4 by 9e-13 here; the bound leaves room for
# another integrator or FFT library of similar accuracy.
FINAL_SNAPSHOT_TOL = 1e-9
# psi(T) from evolve against exp(-iHT) psi0 of the same spatial
# discretization, relative max-norm.  The seed commit is near 1e-11.
EVOLVE_EXACT_TOL = 1e-9
# Canonical vs Epstein divergence difference, relative to max |div j|.
DIV_DIFF_REL_TOL = 1e-8


# 99% one-sample Kolmogorov-Smirnov critical value of sqrt(M) * KS distance.
KS_CRITICAL_99 = 1.63


# ---------------------------------------------------------------------------
# Per-call checks


def verdict(stdout: str, code: int, hermitian: bool) -> list[str]:
    """`check` answers yes with exit 0, or no with exit 1 and its slots."""
    if hermitian:
        if code != 0 or "Hermitian: yes" not in stdout:
            return [f"check: expected 'Hermitian: yes' and exit 0, got exit {code}"]
        return []
    slots = [line for line in stdout.splitlines() if "violated coefficient slot" in line]
    if code != 1 or "Hermitian: no" not in stdout or not slots:
        return [f"check: expected 'Hermitian: no' with violated slots and exit 1, got exit {code}"]
    return []


def current_table(code: int, path: Path, dim: int) -> list[str]:
    if code != 0:
        return [f"derive: exit {code}"]
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"derive: unreadable table: {exc}"]
    if doc.get("dimension") != dim or len(doc.get("axes", [])) != dim:
        return [f"derive: table is not {dim}-dimensional"]
    if not all(axis["entries"] for axis in doc["axes"]):
        return ["derive: an axis of the current table is empty"]
    return []


def snapshot_values(path: Path) -> np.ndarray:
    doc = json.loads(path.read_text(encoding="utf-8"))
    pairs = np.asarray(doc["values"], dtype=float)
    return (pairs[:, 0] + 1j * pairs[:, 1]).reshape(doc["shape"])


def simulate_outputs(code: int, out_dir: Path) -> list[str]:
    if code != 0:
        return [f"simulate: exit {code}"]
    problems = []
    jsons = sorted(out_dir.glob("snapshot_*.json"))
    csvs = sorted(out_dir.glob("snapshot_*.csv"))
    if len(jsons) != SIM2D_SNAPSHOTS or len(csvs) != SIM2D_SNAPSHOTS:
        problems.append(f"simulate: {len(jsons)} JSON and {len(csvs)} CSV snapshots, expected {SIM2D_SNAPSHOTS}")
    with open(out_dir / "trajectories.csv", encoding="utf-8") as handle:
        rows = sum(1 for _ in handle) - 1
    if rows != SIM2D_TRAJECTORIES * SIM2D_SNAPSHOTS:
        problems.append(f"simulate: {rows} trajectory rows, expected {SIM2D_TRAJECTORIES * SIM2D_SNAPSHOTS}")
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    drift = max(summary["norm_drift"])
    if drift > NORM_DRIFT_LIMIT:
        problems.append(f"simulate: norm drift {drift:.3e} above {NORM_DRIFT_LIMIT:.0e}")
    if summary["truncated_fraction"] > MAX_TRUNCATED_FRACTION:
        problems.append(f"simulate: truncated fraction {summary['truncated_fraction']:.3f}")
    if jsons:
        final = snapshot_values(jsons[-1])
        reference = np.load(SIM2D_REFERENCE)
        err = float(np.max(np.abs(final - reference)) / np.max(np.abs(reference)))
        if not err <= FINAL_SNAPSHOT_TOL:
            problems.append(f"simulate: final snapshot off the reference by {err:.3e} (tol {FINAL_SNAPSHOT_TOL:.0e})")
    return problems


def equivariance_report(code: int, stdout: str) -> list[str]:
    """Exit 0 and a valid report.  The KS bound is applied by run.py to the
    median over a run's sessions, so that the 1% false-alarm rate of a single
    99% test does not fail whole runs."""
    if code != 0:
        return [f"equivariance: exit {code}"]
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return [f"equivariance: unreadable report: {exc}"]
    return [] if report.get("valid") else ["equivariance: report is not valid"]


def compare_report(code: int, path: Path, operator: list[dict]) -> list[str]:
    if code != 0:
        return [f"compare: exit {code}"]
    report = json.loads(path.read_text(encoding="utf-8"))
    problems = [
        f"compare: method {name} is {report['methods'].get(name, {}).get('status')}"
        for name in ("canonical", "epstein")
        if report["methods"].get(name, {}).get("status") != "ok"
    ]
    pair = report["pairs"].get("canonical vs epstein")
    if pair is None:
        return problems + ["compare: no canonical vs epstein comparison"]
    scale = symbolic_source_max(operator)
    if not pair["max_div_diff"] <= DIV_DIFF_REL_TOL * scale:
        problems.append(
            f"compare: max_div_diff {pair['max_div_diff']:.3e} above "
            f"{DIV_DIFF_REL_TOL:.0e} x max|div j| = {scale:.3e}"
        )
    return problems


# ---------------------------------------------------------------------------
# numpy oracles


def _wavenumbers(points: int, length: float) -> np.ndarray:
    return 2.0 * np.pi * np.fft.fftfreq(points, d=length / points)


def spectral_derivative(values: np.ndarray, lengths, index) -> np.ndarray:
    """Trigonometric-interpolation derivative; Nyquist zeroed for odd powers."""
    symbol = np.ones(values.shape, dtype=complex)
    for axis, power in enumerate(index):
        if power == 0:
            continue
        factor = (1j * _wavenumbers(values.shape[axis], lengths[axis])) ** power
        if power % 2 == 1:
            factor[values.shape[axis] // 2] = 0.0
        shape = [1] * values.ndim
        shape[axis] = values.shape[axis]
        symbol = symbol * factor.reshape(shape)
    return np.fft.ifftn(np.fft.fftn(values) * symbol)


def gaussian(points, lengths, center, width, wavevector) -> np.ndarray:
    """Normalized exp(-(q-c)^2 / (4 w^2) + i k q) on the periodic grid."""
    axes = [np.arange(n) * (L / n) for n, L in zip(points, lengths)]
    meshes = np.meshgrid(*axes, indexing="ij")
    exponent = sum(
        -((m - c) ** 2) / (4.0 * width**2) + 1j * k * m
        for m, c, k in zip(meshes, center, wavevector)
    )
    psi = np.exp(exponent)
    cell = float(np.prod([L / n for n, L in zip(points, lengths)]))
    return psi / math.sqrt(float(np.sum(np.abs(psi) ** 2)) * cell)


def symbolic_source_max(operator: list[dict]) -> float:
    """max |div j| = max |2 Re(i conj(psi) Hs psi)| for Hs = (H + adj H)/2.

    adj(H) psi = sum_n (-1)^|n| D^n(conj(h_n) psi) is applied directly on the
    grid, so no symbolic adjoint is needed.
    """
    length = inputs.SYMBOLIC_LENGTH
    points = (inputs.SYMBOLIC_POINTS,) * 2
    lengths = (length, length)
    state = inputs.SYMBOLIC_STATE
    psi = gaussian(points, lengths, state["center"], state["width"], state["wavevector"])
    axes = [np.arange(n) * (L / n) for n, L in zip(points, lengths)]
    meshes = np.meshgrid(*axes, indexing="ij")
    h_psi = np.zeros(points, dtype=complex)
    for record in operator:
        coef = complex(*record["c0"]) + complex(*record["c1"]) * np.prod(
            [
                getattr(np, func)(2.0 * math.pi * harmonic / length * mesh)
                for (func, harmonic), mesh in zip(record["factors"], meshes)
            ],
            axis=0,
        )
        index = record["index"]
        h_psi += 0.5 * coef * spectral_derivative(psi, lengths, index)
        h_psi += 0.5 * (-1) ** sum(index) * spectral_derivative(np.conjugate(coef) * psi, lengths, index)
    source = 2.0 * np.real(1j * np.conjugate(psi) * h_psi)
    return float(np.max(np.abs(source)))


def equiv1d_exact(psi0: np.ndarray, horizon: float) -> np.ndarray:
    """exp(-i H T) psi0 for the equiv1d operator 0.05 D^4 - 0.5 D^2 +
    (q-20)^2/8 (inputs.EQUIV1D_HAMILTONIAN), by a dense eigendecomposition of
    its spectral discretization on the 256-point grid."""
    points, length = inputs.EQUIV1D_POINTS, inputs.EQUIV1D_LENGTH
    k = _wavenumbers(points, length)
    dft = np.fft.fft(np.eye(points), axis=0)
    kinetic = np.fft.ifft((0.05 * k**4 + 0.5 * k**2)[:, None] * dft, axis=0).real
    q = np.arange(points) * (length / points)
    matrix = kinetic + np.diag((q - 20.0) ** 2 / 8.0)
    energies, vectors = np.linalg.eigh(0.5 * (matrix + matrix.T))
    return vectors @ (np.exp(-1j * energies * horizon) * (vectors.T @ psi0))
