"""Regenerate perfbench/reference/sim2d_final.npy, the final sim2d-driven snapshot.

    python3 perfbench/make_reference.py

Runs the sim2d-driven `simulate` call of the benchmark once through the CLI
of the checkout's `src/` and stores the last snapshot as a complex128 array.
Only rerun this when a change is meant to alter the solution; the benchmark
compares every run's final snapshot against the stored one.
"""

from __future__ import annotations

import shutil
import subprocess
import sys

import numpy as np

import checks
import inputs
import run


def main() -> int:
    work = run.WORK_ROOT / "reference"
    shutil.rmtree(work, ignore_errors=True)
    inputs.write_inputs("sim2d-driven", 0, work)
    argv = run.sim2d_simulate_argv(work, work / "out", seed=0)
    subprocess.run([sys.executable, "-m", "pilotwave.cli", *argv], env=run.child_env(), check=True)
    final = sorted((work / "out").glob("snapshot_*.json"))[-1]
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    np.save(checks.SIM2D_REFERENCE, checks.snapshot_values(final))
    shutil.rmtree(work)
    print(f"wrote {checks.SIM2D_REFERENCE} from {final.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
