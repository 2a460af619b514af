"""Seeded input files for the benchmark workloads.

This module writes Hamiltonian and state files as plain text and imports
nothing from `pilotwave`, so a change to the program's parser or printer
cannot change what the benchmark feeds it.  The same seed always gives
byte-identical files.

    python3 perfbench/inputs.py --workload symbolic2d-order6 --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("sim2d-driven", "equiv1d-quartic", "symbolic2d-order6")

SIM2D_LENGTH = 20.0
SIM2D_POINTS = 64
EQUIV1D_LENGTH = 40.0
EQUIV1D_POINTS = 256
SYMBOLIC_LENGTH = 20.0
SYMBOLIC_POINTS = 128
SYMBOLIC_BATCH = 2

# Fixed structure of every symbolic operator: the seed draws the complex
# constants and the box harmonics m of the factors sin/cos(2 pi m q / L),
# never which slots exist or which functions appear, so the symbolic work per
# operator (expression nodes, table entries) does not depend on the seed.
# Each slot: (multi-index, amplitude scale, trig factor in q1, in q2).
SYMBOLIC_SLOTS = (
    ((6, 0), 0.02, ("cos", "sin")),
    ((0, 6), 0.02, ("sin", "cos")),
    ((3, 3), 0.02, ("sin", "sin")),
    ((4, 0), 0.05, ("cos", "cos")),
    ((2, 2), 0.05, ("sin", "cos")),
    ((2, 0), 0.5, ("cos", "sin")),
    ((0, 2), 0.5, ("sin", "cos")),
    ((1, 1), 0.2, ("sin", "sin")),
    ((1, 0), 0.3, ("cos", "sin")),
    ((0, 0), 1.0, ("sin", "cos")),
)

# sim2d-driven: q-dependent inverse mass, periodic vector potential, lattice
# potential and a time-periodic drive; every coefficient is periodic on the
# 20-wide box.  As written the q1-dependent mass makes it non-Hermitian.
_K = 2.0 * math.pi / SIM2D_LENGTH
_LATTICE = 2.0 * math.pi / 5.0
SIM2D_HAMILTONIAN = f"""\
# sim2d-driven benchmark operator (box 20 x 20)
dim = 2
term [2,0] = "-0.5*(1+0.2*cos({_K!r}*q1))"
term [0,2] = "-0.5*(1+0.2*cos({_K!r}*q2))"
term [1,0] = "0.3*i*sin({_K!r}*q2)"
term [0,1] = "0.3*i*cos({_K!r}*q1)"
term [0,0] = "0.3*(cos({_LATTICE!r}*q1)+cos({_LATTICE!r}*q2)) + 0.045*(sin({_K!r}*q2)^2+cos({_K!r}*q1)^2) + 0.5*cos({_K!r}*q1)*sin(3*t)"
"""
SIM2D_STATE = {"center": [9.0, 10.0], "width": 0.8, "wavevector": [1.0, 0.5]}

EQUIV1D_HAMILTONIAN = """\
# equiv1d-quartic benchmark operator: 0.05 p^4 + p^2/2 + (q-20)^2/8
dim = 1
term [4] = "0.05"
term [2] = "-0.5"
term [0] = "(q1-20)^2/8"
"""
EQUIV1D_STATE = {"center": [18.0], "width": 0.5, "wavevector": [1.0]}

SYMBOLIC_STATE = {"center": [10.0, 10.0], "width": 0.8, "wavevector": [0.5, -0.3]}


def gaussian_state_text(params: dict) -> str:
    return (
        "state = gaussian\n"
        f"center = {params['center']}\n"
        f"width = {params['width']}\n"
        f"wavevector = {params['wavevector']}\n"
    )


def _complex_text(z: complex) -> str:
    return f"({z.real:.6f}{z.imag:+.6f}*i)"


def draw_symbolic_operator(rng: np.random.Generator) -> list[dict]:
    """One operator as slot records h_n = c0 + c1 f(q1) g(q2).  Constants are
    rounded to six decimals, so the text and the numeric model agree exactly."""

    def amplitude(scale: float) -> list[float]:
        return [round(scale * rng.normal(), 6), round(scale * rng.normal(), 6)]

    return [
        {
            "index": list(index),
            "c0": amplitude(scale),
            "c1": amplitude(scale),
            "factors": [[func, int(rng.integers(1, 3))] for func in funcs],
        }
        for index, scale, funcs in SYMBOLIC_SLOTS
    ]


def symbolic_coefficient_text(record: dict, length: float) -> str:
    factors = "*".join(
        f"{func}({2.0 * math.pi * harmonic / length!r}*q{axis})"
        for axis, (func, harmonic) in enumerate(record["factors"], start=1)
    )
    return f"{_complex_text(complex(*record['c0']))} + {_complex_text(complex(*record['c1']))}*{factors}"


def symbolic_hamiltonian_text(terms: list[dict], length: float) -> str:
    lines = ["# symbolic2d-order6 benchmark operator (non-Hermitian as drawn)", "dim = 2"]
    for record in terms:
        index = ",".join(str(n) for n in record["index"])
        lines.append(f'term [{index}] = "{symbolic_coefficient_text(record, length)}"')
    return "\n".join(lines) + "\n"


def write_inputs(workload: str, seed: int, out: Path) -> dict[str, str]:
    """Write the workload's input files into `out`; return {name: text}."""
    out.mkdir(parents=True, exist_ok=True)
    files: dict[str, str] = {}

    def put(name: str, text: str) -> None:
        (out / name).write_text(text, encoding="utf-8")
        files[name] = text

    if workload == "sim2d-driven":
        put("H.ham", SIM2D_HAMILTONIAN)
        put("S.st", gaussian_state_text(SIM2D_STATE))
    elif workload == "equiv1d-quartic":
        put("H.ham", EQUIV1D_HAMILTONIAN)
        put("S.st", gaussian_state_text(EQUIV1D_STATE))
    elif workload == "symbolic2d-order6":
        rng = np.random.default_rng([seed, 6])
        operators = [draw_symbolic_operator(rng) for _ in range(SYMBOLIC_BATCH)]
        for k, terms in enumerate(operators):
            put(f"H{k}.ham", symbolic_hamiltonian_text(terms, SYMBOLIC_LENGTH))
        put("S.st", gaussian_state_text(SYMBOLIC_STATE))
        put("operators.json", json.dumps(operators, indent=1) + "\n")
    else:
        raise ValueError(f"unknown workload '{workload}' (choose from {', '.join(WORKLOADS)})")
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    files = write_inputs(args.workload, args.seed, Path(args.out))
    print(f"wrote {len(files)} files to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
