"""Traced execution of one `pilotwave` CLI call, and per-layer metrics.

    python3 perfbench/tracing.py --spans OUT.json [--check-evolve-1d] -- <cli args>

runs `pilotwave.cli.main(<cli args>)` in this process after wrapping the
public functions of each pilotwave module (module attributes only; no source
is edited).  Every wrapped call becomes a span (name, start, end, parent)
kept in memory; counters are taken at the same boundaries.  When the call
returns, the spans, counters and the fresh-process import time are written to
OUT.json and the process exits with the CLI's exit code.

`session_layers` turns the span files of one session into per-layer numbers.
A layer's self time is its span durations minus the time covered by its
direct child spans.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

# (module, attribute) -> span name.  An attribute "Class.method" wraps the
# method on the class.  Functions are also replaced wherever another
# pilotwave module imported them by name (cli, trajectories, currents, ...).
SPANS = {
    ("pilotwave.operators", "load_hamiltonian"): "operators.parse",
    ("pilotwave.operators", "hermiticity_violations"): "operators.hermiticity",
    ("pilotwave.operators", "hermitize"): "operators.hermitize",
    ("pilotwave.operators", "OperatorApplier.__call__"): "operators.apply",
    ("pilotwave.states", "parse_state_spec"): "states.build_state",
    ("pilotwave.states", "build_state"): "states.build_state",
    ("pilotwave.expr", "CoefficientExpression.evaluate_on"): "expr.evaluate_on",
    ("pilotwave.currents", "derive_current_table"): "currents.derive",
    ("pilotwave.currents", "eval_current"): "currents.eval_current",
    ("pilotwave.epstein", "nonlocal_current"): "epstein.nonlocal_current",
    ("pilotwave.altcurrents", "compare_fields"): "altcurrents.compare_fields",
    ("pilotwave.solver", "evolve"): "solver.evolve",
    ("pilotwave.trajectories", "sample_density"): "trajectories.sample",
    ("pilotwave.trajectories", "integrate_trajectories"): "trajectories.integrate",
    ("pilotwave.trajectories", "ks_distance_to_density"): "trajectories.ks",
    ("pilotwave.serialize", "snapshot_to_json"): "serialize.snapshot_json",
    ("pilotwave.serialize", "snapshot_to_csv"): "serialize.snapshot_csv",
    ("pilotwave.serialize", "trajectory_csv"): "serialize.trajectory_csv",
    ("pilotwave.svgplot", "line_plot"): "svgplot.line_plot",
}


def count_nodes(roots) -> int:
    """Distinct expression nodes reachable from the given `.node` roots."""
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        for f in dataclasses.fields(node):
            child = getattr(node, f.name)
            if dataclasses.is_dataclass(child):
                stack.append(child)
    return len(seen)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.derived: list[tuple] = []  # (operator, table) per derive call
        self.evolved: list[tuple] = []  # (psi0, spec, final state) per evolve call

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            self._observe(name, args, result)
            return result

        return traced

    def _observe(self, name: str, args, result) -> None:
        """Counters taken at the span boundary (cheap; no tree walks)."""
        self.counts[name + ".calls"] += 1
        if name.startswith("serialize."):
            self.counts["serialize.written_bytes"] += len(result)
        elif name == "currents.derive":
            self.derived.append((args[0], result))
        elif name == "solver.evolve":
            self.counts["solver.rk4_steps"] += args[2].steps
            self.evolved.append((args[1], args[2], result[-1]))
        elif name == "trajectories.integrate":
            self.counts["trajectories.truncated"] += int(result.truncated.sum())
            self.counts["trajectories.particles"] += result.count

    def install(self) -> None:
        import numpy as np

        for (module_name, attr), name in SPANS.items():
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self.wrap(name, getattr(cls, method)))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original)
            for other_name, other in list(sys.modules.items()):
                if other_name.split(".")[0] != "pilotwave":
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapped)

        # FFTs are counted, not spanned: one call is microseconds.
        for fft_name in ("fftn", "ifftn"):
            original = getattr(np.fft, fft_name)

            def counted(a, *args, _original=original, **kwargs):
                out = _original(a, *args, **kwargs)
                self.counts["grids.fft_calls"] += 1
                self.counts["grids.fft_bytes"] += np.asarray(a).nbytes + out.nbytes
                return out

            setattr(np.fft, fft_name, counted)

        flow = sys.modules["pilotwave.trajectories"]._FlowField
        velocities = flow.velocities

        def counted_velocities(flow_self, points, t, active):
            self.counts["trajectories.particle_stages"] += int(active.sum())
            return velocities(flow_self, points, t, active)

        flow.velocities = counted_velocities


def _exact_1d_error(psi0, spec, final) -> float:
    """Relative max-norm error of psi(T) against the dense-matrix solution."""
    import numpy as np

    import checks

    exact = checks.equiv1d_exact(psi0.values, spec.steps * spec.dt)
    return float(np.max(np.abs(final.values - exact)) / np.max(np.abs(exact)))


def run_traced(argv: list[str], spans_path: Path, check_evolve_1d: bool) -> int:
    started = time.perf_counter()
    import pilotwave.cli

    import_s = time.perf_counter() - started
    tracer = Tracer()
    tracer.install()
    root = tracer.open(f"cli.{argv[0]}")
    try:
        code = pilotwave.cli.main(argv)
    finally:
        tracer.close(root)

    record = {
        "argv": argv,
        "import_s": import_s,
        "spans": tracer.spans,
        "counts": dict(tracer.counts),
        "checks": {},
    }
    if argv[0] == "derive":
        # walked after the root span closed, so the walk is not timed as work
        record["h_nodes"] = sum(count_nodes(c.node for c in H.terms.values()) for H, _ in tracer.derived)
        record["table_nodes"] = sum(
            count_nodes(c.node for axis in table.axes for c in axis.values())
            for _, table in tracer.derived
        )
        record["table_entries"] = sum(
            sum(len(axis) for axis in table.axes) for _, table in tracer.derived
        )
    if check_evolve_1d:
        record["checks"]["evolve_exact_rel_err"] = [
            _exact_1d_error(psi0, spec, final) for psi0, spec, final in tracer.evolved
        ]
    spans_path.write_text(json.dumps(record), encoding="utf-8")
    return code


# ---------------------------------------------------------------------------
# Per-layer metrics from the span files of one session


def self_times(spans: list[dict]) -> Counter:
    """Total self time per span name: duration minus direct children."""
    child_time: Counter = Counter()
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    out: Counter = Counter()
    for span in spans:
        out[span["name"]] += span["end"] - span["start"] - child_time[span["id"]]
    return out


def inclusive_times(spans: list[dict]) -> Counter:
    out: Counter = Counter()
    for span in spans:
        out[span["name"]] += span["end"] - span["start"]
    return out


# Per-layer metric -> the span name whose self time it sums over a session.
SELF_TIME_METRICS = {
    "operators.parse_s": "operators.parse",
    "states.build_state_s": "states.build_state",
    "operators.hermiticity_s": "operators.hermiticity",
    "operators.hermitize_s": "operators.hermitize",
    "expr.evaluate_on_s": "expr.evaluate_on",
    "currents.derive_s": "currents.derive",
    "currents.eval_current_s": "currents.eval_current",
    "epstein.nonlocal_current_s": "epstein.nonlocal_current",
    "altcurrents.compare_fields_s": "altcurrents.compare_fields",
    "operators.apply_s": "operators.apply",
    "solver.evolve_s": "solver.evolve",
    "trajectories.sample_s": "trajectories.sample",
    "trajectories.integrate_self_s": "trajectories.integrate",
    "trajectories.ks_s": "trajectories.ks",
    "serialize.snapshot_json_s": "serialize.snapshot_json",
    "serialize.snapshot_csv_s": "serialize.snapshot_csv",
    "serialize.trajectory_csv_s": "serialize.trajectory_csv",
    "svgplot.line_plot_s": "svgplot.line_plot",
}
# Per-layer metric -> the counter it sums over a session.
COUNT_METRICS = {
    "expr.evaluate_on_calls": "expr.evaluate_on.calls",
    "currents.eval_current_calls": "currents.eval_current.calls",
    "operators.apply_calls": "operators.apply.calls",
    "grids.fft_calls": "grids.fft_calls",
    "solver.rk4_steps": "solver.rk4_steps",
    "trajectories.particle_stages": "trajectories.particle_stages",
}


def session_layers(calls: list[dict]) -> dict[str, float]:
    """Per-layer numbers of one traced session (all its CLI calls).

    Node and table counts come from the session's `derive` calls, one table
    per operator; every other number sums over all calls of the session.
    """
    derive_calls = [call for call in calls if call["argv"][0] == "derive"]
    selfs: Counter = Counter()
    incl: Counter = Counter()
    counts: Counter = Counter()
    for call in calls:
        selfs.update(self_times(call["spans"]))
        incl.update(inclusive_times(call["spans"]))
        counts.update(call["counts"])
    out = {metric: selfs[name] for metric, name in SELF_TIME_METRICS.items()}
    out.update({metric: float(counts[name]) for metric, name in COUNT_METRICS.items()})
    out["cli.import_s"] = statistics.median(call["import_s"] for call in calls)
    out["expr.h_nodes"] = float(sum(call["h_nodes"] for call in derive_calls))
    out["expr.table_nodes"] = float(sum(call["table_nodes"] for call in derive_calls))
    out["currents.table_entries"] = float(sum(call["table_entries"] for call in derive_calls))
    out["grids.fft_mb_computed"] = counts["grids.fft_bytes"] / 1e6
    steps = counts["solver.rk4_steps"]
    out["solver.step_ms"] = 1e3 * incl["solver.evolve"] / steps if steps else 0.0
    particles = counts["trajectories.particles"]
    out["trajectories.truncated_fraction"] = (
        counts["trajectories.truncated"] / particles if particles else 0.0
    )
    out["serialize.written_mb"] = counts["serialize.written_bytes"] / 1e6
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one pilotwave CLI call under tracing")
    parser.add_argument("--spans", required=True, help="output JSON file for spans and counters")
    parser.add_argument("--check-evolve-1d", action="store_true",
                        help="compare each evolve result with the dense 1D oracle")
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
    return run_traced(cli, Path(args.spans), args.check_evolve_1d)


if __name__ == "__main__":
    sys.exit(main())
