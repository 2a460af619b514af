"""End-to-end benchmark of the `pilotwave` CLI pipeline.

    python3 perfbench/run.py --workload sim2d-driven --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Each session is a closed loop with one
client: fresh `python -m pilotwave.cli` processes run one after another
(`check` -> `derive` -> the main command), each starting only after the
previous one exits.  Sessions repeat while the next one still ends within `--seconds`; the
report gives medians over sessions.  Every call's exit code and outputs are
checked (checks.py).

With `--trace 1` untraced sessions alternate with the same sessions run with
each call under perfbench/tracing.py, which gives the per-layer metrics, the
span file and the tracing overhead.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Artifacts go to
.perfbench-work/<workload>-seed<seed>/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs
import tracing

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
TRACING_SCRIPT = Path(__file__).resolve().parent / "tracing.py"
CALL_TIMEOUT_S = 150.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "output_mb": "MB",
}
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "operators.parse_s": "s",
    "states.build_state_s": "s",
    "operators.hermiticity_s": "s",
    "operators.hermitize_s": "s",
    "expr.h_nodes": "count",
    "expr.table_nodes": "count",
    "expr.evaluate_on_s": "s",
    "expr.evaluate_on_calls": "count",
    "currents.derive_s": "s",
    "currents.table_entries": "count",
    "currents.eval_current_s": "s",
    "currents.eval_current_calls": "count",
    "epstein.nonlocal_current_s": "s",
    "altcurrents.compare_fields_s": "s",
    "operators.apply_s": "s",
    "operators.apply_calls": "count",
    "grids.fft_calls": "count",
    "grids.fft_mb_computed": "MB",
    "solver.evolve_s": "s",
    "solver.rk4_steps": "count",
    "solver.step_ms": "ms",
    "trajectories.sample_s": "s",
    "trajectories.integrate_self_s": "s",
    "trajectories.particle_stages": "count",
    "trajectories.truncated_fraction": "fraction",
    "trajectories.ks_s": "s",
    "serialize.snapshot_json_s": "s",
    "serialize.snapshot_csv_s": "s",
    "serialize.trajectory_csv_s": "s",
    "serialize.written_mb": "MB",
    "svgplot.line_plot_s": "s",
    "trace.overhead_s": "s",
}


def child_env() -> dict[str, str]:
    """Environment of every CLI process: the checkout's sources, one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[name] = "1"
    return env


# ---------------------------------------------------------------------------
# Sessions


@dataclass
class Call:
    """One CLI call and how to judge it: `check(code, stdout)` -> problems."""

    argv: list[str]
    setup: bool
    check: Callable[[int, str], list[str]]
    traced_flags: tuple[str, ...] = ()


@dataclass
class Session:
    wall_s: float = 0.0
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    output_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    ks_scaled: list[float] = field(default_factory=list)  # KS distance * sqrt(M)
    traced: list[dict] = field(default_factory=list)


def sim2d_simulate_argv(inp: Path, out: Path, seed: int) -> list[str]:
    return [
        "simulate", "--hermitize", str(inp / "H.ham"), "--state", str(inp / "S.st"),
        "--grid", str(inputs.SIM2D_POINTS), "--domain", str(inputs.SIM2D_LENGTH),
        "--dt", "1e-3", "--steps", "400", "--stride", "8",
        "--trajectories", "1000", "--seed", str(seed), "--out", str(out),
    ]


def session_calls(workload: str, inp: Path, out: Path, seed: int) -> list[Call]:
    """The calls of one session; `seed` is the CLI's sampling seed."""
    if workload == "sim2d-driven":
        table = out / "table.json"
        return [
            Call(["check", str(inp / "H.ham")], True,
                 lambda code, stdout: checks.verdict(stdout, code, hermitian=False)),
            Call(["derive", "--hermitize", str(inp / "H.ham"), "--out", str(table)], True,
                 lambda code, stdout: checks.current_table(code, table, 2)),
            Call(sim2d_simulate_argv(inp, out / "run", seed), False,
                 lambda code, stdout: checks.simulate_outputs(code, out / "run")),
        ]
    if workload == "equiv1d-quartic":
        table = out / "table.json"
        return [
            Call(["check", str(inp / "H.ham")], True,
                 lambda code, stdout: checks.verdict(stdout, code, hermitian=True)),
            Call(["derive", str(inp / "H.ham"), "--out", str(table)], True,
                 lambda code, stdout: checks.current_table(code, table, 1)),
            Call(["equivariance", str(inp / "H.ham"), "--state", str(inp / "S.st"),
                  "--grid", str(inputs.EQUIV1D_POINTS), "--domain", str(inputs.EQUIV1D_LENGTH),
                  "--seed", str(seed)], False,
                 checks.equivariance_report, ("--check-evolve-1d",)),
        ]
    operators = json.loads((inp / "operators.json").read_text(encoding="utf-8"))
    calls = []
    for k, operator in enumerate(operators):
        ham, table, report = inp / f"H{k}.ham", out / f"table{k}.json", out / f"compare{k}.json"
        calls += [
            Call(["check", str(ham)], True,
                 lambda code, stdout: checks.verdict(stdout, code, hermitian=False)),
            Call(["derive", "--hermitize", str(ham), "--out", str(table)], True,
                 lambda code, stdout, table=table: checks.current_table(code, table, 2)),
            Call(["compare", "--hermitize", str(ham), "--state", str(inp / "S.st"),
                  "--grid", str(inputs.SYMBOLIC_POINTS), "--domain", str(inputs.SYMBOLIC_LENGTH),
                  "--methods", "canonical,epstein", "--out", str(report)], False,
                 lambda code, stdout, report=report, operator=operator:
                     checks.compare_report(code, report, operator)),
        ]
    return calls


def spawn(cmd: list[str], log: Path) -> tuple[float, float, int, str]:
    """Run one process to completion; (wall s, max RSS MB, exit code, stdout).

    Its stdout and stderr go to `log` with suffixes .out and .err.  The child
    is reaped with wait4 so its own rusage is read; a watchdog kills it after
    CALL_TIMEOUT_S.
    """
    with open(log.with_suffix(".out"), "w+", encoding="utf-8") as handle, \
            open(log.with_suffix(".err"), "w", encoding="utf-8") as errors:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=handle, stderr=errors, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        handle.seek(0)
        stdout = handle.read()
    return wall, usage.ru_maxrss * 1024 / 1e6, proc.returncode, stdout


def run_session(workload: str, inp: Path, work: Path, seed: int, traced: bool) -> Session:
    """One session in `work`: CLI outputs go to work/out, logs and spans to
    work/log.  The directory is kept only when a call failed."""
    out, log = work / "out", work / "log"
    out.mkdir(parents=True)
    log.mkdir()
    calls = session_calls(workload, inp, out, seed)
    session = Session()
    results = []
    for index, call in enumerate(calls):
        if traced:
            spans = log / f"spans{index}.json"
            cmd = [sys.executable, str(TRACING_SCRIPT), "--spans", str(spans), *call.traced_flags, "--", *call.argv]
        else:
            cmd = [sys.executable, "-m", "pilotwave.cli", *call.argv]
        wall, rss, code, stdout = spawn(cmd, log / f"call{index}")
        session.wall_s += wall
        if call.setup:
            session.setup_s += wall
        session.peak_rss_mb = max(session.peak_rss_mb, rss)
        results.append((call, code, stdout))
    # outputs are judged after the closed loop, outside the timed calls
    session.output_mb = sum(p.stat().st_size for p in out.rglob("*") if p.is_file()) / 1e6
    for index, (call, code, stdout) in enumerate(results):
        try:
            found = call.check(code, stdout)
            if call.argv[0] == "equivariance" and not found:
                report = json.loads(stdout)
                session.ks_scaled.append(report["ks_distance"] * report["count"] ** 0.5)
            if traced:
                record = json.loads((log / f"spans{index}.json").read_text(encoding="utf-8"))
                for err in record["checks"].get("evolve_exact_rel_err", []):
                    if not err <= checks.EVOLVE_EXACT_TOL:
                        found = found + [f"evolve: psi(T) off the dense-matrix solution by {err:.3e}"]
                session.traced.append(record)
        except (OSError, ValueError, KeyError) as exc:
            found = [f"{call.argv[0]}: missing or malformed output: {exc!r}"]
        session.attempted += 1
        if found:
            session.failed += 1
            session.problems += [f"{problem} (session files in {work})" for problem in found]
    if not session.failed:
        shutil.rmtree(work)
    return session


def run_sessions(workload, inp: Path, work: Path, seed: int, budget_s: float, modes: list[bool]):
    """Closed loop: sessions back to back, cycling through `modes` (traced or
    not), while the next one, taking as long as the last, still ends within
    `budget_s`; at least one session per mode.  Returns (plain, traced)."""
    sessions: list[tuple[bool, Session]] = []
    started = time.perf_counter()
    while len(sessions) < len(modes) or time.perf_counter() - started + sessions[-1][1].wall_s <= budget_s:
        index = len(sessions)
        traced = modes[index % len(modes)]
        sessions.append((traced, run_session(workload, inp, work / f"session{index}", seed * 1000 + index, traced)))
    return [s for t, s in sessions if not t], [s for t, s in sessions if t]


# ---------------------------------------------------------------------------
# Reporting


def context(workload: str, seed: int) -> dict:
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))
    return {
        "workload": workload,
        "seed": seed,
        "src_lines": src_lines,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "symbolic_batch": inputs.SYMBOLIC_BATCH if workload == "symbolic2d-order6" else 0,
        "loop": "closed, 1 client, one process per CLI call",
    }


def median(values) -> float:
    return float(statistics.median(values))


def write_spans(path: Path, workload: str, seed: int, sessions: list[Session]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for k, session in enumerate(sessions):
            session_id = f"{workload}-seed{seed}-traced{k}"
            for call_index, record in enumerate(session.traced):
                for span in record["spans"]:
                    handle.write(json.dumps({"session": session_id, "call": call_index, **span}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pilotwave CLI pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pilotwave" / "cli.py").is_file():
        print(f"error: no pilotwave sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    work = WORK_ROOT / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    inp = work / "inputs"
    inputs.write_inputs(args.workload, args.seed, inp)
    # compile and page in the sources once; every timed call still pays
    # interpreter start and import, as a user does
    subprocess.run([sys.executable, "-c", "import pilotwave.cli"], env=child_env(), cwd=ROOT, check=True)

    # traced and untraced sessions alternate, so both see the same host load
    modes = [False, True] if args.trace else [False]
    plain, traced = run_sessions(args.workload, inp, work, args.seed, args.seconds, modes)
    sessions = plain + traced

    attempted = sum(s.attempted for s in sessions)
    failed = sum(s.failed for s in sessions)
    problems = [p for s in sessions for p in s.problems]
    ks_scaled = [v for s in sessions for v in s.ks_scaled]
    if ks_scaled and median(ks_scaled) > checks.KS_CRITICAL_99:
        # the KS bound holds for the median over sessions (checks.py)
        problems.append(f"equivariance: median sqrt(M) * KS = {median(ks_scaled):.3f} above {checks.KS_CRITICAL_99}")
        failed += len(ks_scaled)

    ctx = context(args.workload, args.seed)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(plain)} untraced + {len(traced)} traced sessions; {ctx['loop']}")
    if args.trace:
        layers = [tracing.session_layers(s.traced) for s in traced]
        values = {name: median(layer[name] for layer in layers) for name in layers[0]}
        values["trace.overhead_s"] = median(s.wall_s for s in traced) - median(s.wall_s for s in plain)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
        write_spans(work / "spans.jsonl", args.workload, args.seed, traced)
        (work / "layers.json").write_text(
            json.dumps({"context": ctx, "sessions": layers, "median": values}, indent=1), encoding="utf-8"
        )
        print(f"  spans: {work / 'spans.jsonl'}; self times exclude wrapped child layers")
        print("  waiting: not reported; the pipeline has no queues or threads, so no layer waits")
    else:
        values = {
            name: median(getattr(s, name) for s in plain) for name in END_TO_END
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        print("  session wall_s: " + " ".join(f"{s.wall_s:.3f}" for s in plain)
              + f" (median of {len(plain)} sessions)")
    for name, entry in metrics.items():
        print(f"  {name:34s} {entry['value']:.6g} {entry['unit']}")
    print(f"  {'failed_fraction':34s} {failed / attempted:.6g} ({failed} of {attempted} CLI calls)")
    for problem in problems:
        print(f"  FAILED {problem}")
    print("context " + json.dumps(ctx))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
