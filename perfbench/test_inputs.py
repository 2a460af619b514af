"""The input generator is deterministic and independent of pilotwave.

    python3 -m pytest perfbench/test_inputs.py
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402


def _generate(workload: str, seed: int, out: Path, hash_seed: str) -> dict[str, bytes]:
    """Run the generator in a fresh process; return {file name: bytes}."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    subprocess.run(
        [sys.executable, str(HERE / "inputs.py"), "--workload", workload, "--seed", str(seed), "--out", str(out)],
        env=env, check=True, capture_output=True,
    )
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_byte_identical_files(tmp_path, workload):
    first = _generate(workload, 7, tmp_path / "a", hash_seed="1")
    second = _generate(workload, 7, tmp_path / "b", hash_seed="2")
    assert first and first == second


def test_symbolic_seed_changes_constants_but_not_structure(tmp_path):
    one = inputs.write_inputs("symbolic2d-order6", 1, tmp_path / "one")
    two = inputs.write_inputs("symbolic2d-order6", 2, tmp_path / "two")
    assert one["H0.ham"] != two["H0.ham"]

    def slots(text: str) -> list[str]:
        return [line.split("=")[0] for line in text.splitlines() if line.startswith("term")]

    assert slots(one["H0.ham"]) == slots(two["H0.ham"])


def test_generator_imports_no_pilotwave():
    code = "import sys, inputs; sys.exit(any(m.split('.')[0] == 'pilotwave' for m in sys.modules))"
    subprocess.run([sys.executable, "-c", code], cwd=HERE, check=True)
