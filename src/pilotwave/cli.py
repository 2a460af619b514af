"""Command-line entry point.

Subcommands: check, derive, simulate, compare, equivariance.  Exit codes:
0 success, 1 domain verdict (non-Hermitian input, or an equivariance run
that truncated more than 10% of its trajectories; the KS distance is
reported but does not set the exit code), 2 usage or parse error (including
a numeric flag out of range, such as --seed -1, a --grid or --domain value
that no grid axis accepts, and an equivariance --dt, --steps or --stride
without both --dt and --steps, all refused before any work; and a state
file's grid or domain line, a preset value out of its range, such as
levels = [-1] or mass = 0, or a state that is 0 at every grid point,
refused before any file is written), 3 numerical failure (including a grid
above grids.MAX_GRID_POINTS, a step-by-step run above solver.MAX_RK4_STEPS
or RK4's dt limit, a dense run whose phases keep no digits, or a particle
count above trajectories.MAX_PARTICLES, refused at setup).  A closed standard output, as in `pilotwave derive H.ham
| head`, ends the command quietly with its own code.  An output that cannot
be written, such as a simulate --out that names a file or a derive --out in
a missing directory, is a usage error (exit 2) naming the path; simulate
checks its directory before it evolves.  simulate's snapshot files are written by a second process as they
are taken, so a run stopped with exit 3 keeps the snapshots it reached, and
only a finished run writes summary.json.  A snapshot that process cannot
write ends the run with exit 2 at the next snapshot, or once evolve returns,
before density.svg, the trajectories and their files are made.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import struct
import sys
from dataclasses import asdict
from pathlib import Path

from ._numpy import np

from . import altcurrents, serialize, svgplot
from .currents import derive_current_table, eval_current
from .epstein import nonlocal_current
from .errors import (
    ExpressionSyntaxError,
    GridError,
    HamiltonianFormatError,
    NonHermitianError,
    PilotwaveError,
)
from .grids import DEFAULT_LENGTH, Grid, GridState, check_length, check_points
from .operators import (
    MIN_POINTS_PER_AXIS,
    DifferentialOperator,
    SamplingSpec,
    hermiticity_violations,
    hermitize,
    load_hamiltonian,
    require_hermitian,
)
from .solver import evolve, norm_drift, schedule
from .states import parse_state_spec, build_state
from .trajectories import (
    DEFAULT_SUBSTEPS,
    check_count,
    equivariance_test,
    integrate_trajectories,
    sample_density,
)

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

DEFAULT_POINTS = 256
# compare --methods: each name and the current it builds from (H, psi).  The
# lambdas look the functions up at call time, so a wrapper installed on the
# module's names (perfbench/tracing.py) sees the calls.
METHODS = {
    "canonical": lambda H, psi: eval_current(derive_current_table(H), psi),
    "epstein": lambda H, psi: nonlocal_current(H, psi),
    "born-jordan": lambda H, psi: altcurrents.born_jordan_current(H, psi),
    "second-order": lambda H, psi: altcurrents.second_order_current(H, psi),
}


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise HamiltonianFormatError(f"cannot read {path}: {exc}") from exc


def _write(path, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise HamiltonianFormatError(f"cannot write {path}: {exc}") from exc


def _write_snapshot(out_dir: Path, index: int, state: GridState) -> None:
    _write(out_dir / f"snapshot_{index:04d}.json", serialize.snapshot_to_json(state))
    if math.prod(state.grid.shape) <= serialize.CSV_POINT_LIMIT:
        _write(out_dir / f"snapshot_{index:04d}.csv", serialize.snapshot_to_csv(state))


def _writer_process(data, errors: int, out_dir: Path, grid: Grid) -> None:
    """The forked writer: write each state read from the socket `data` until
    its end, then leave through os._exit, never returning into the caller's
    stack.  A write error's message goes to the pipe `errors` first."""
    code = 1
    try:
        size = 8 + 16 * math.prod(grid.shape)
        with data.makefile("rb") as records:
            for index, record in enumerate(iter(lambda: records.read(size), b"")):
                values = np.frombuffer(record, complex, offset=8).reshape(grid.shape)
                _write_snapshot(out_dir, index, GridState(grid, values, struct.unpack_from("d", record)[0]))
        code = 0
    except HamiltonianFormatError as exc:
        os.write(errors, str(exc).encode())
    finally:
        os._exit(code)


class _WriterStopped(Exception):
    """The snapshot writer ended before the run did."""


@contextlib.contextmanager
def _snapshot_writer(out_dir: Path, grid: Grid):
    """Yield `(send, check)`: `send(state)` writes the run's next
    snapshot_NNNN.json (and .csv up to serialize.CSV_POINT_LIMIT points) in
    `out_dir`, and `check()` raises the writer's error if it has already failed.

    Where os.fork exists, a forked process formats and writes the files while
    this one keeps working, fed through a socket whose send buffer holds
    several states: `send` waits only when the writer is a full buffer behind.
    `send` and `check` look at the writer's error pipe without blocking; it
    turns readable only when the writer stops early, with its message or at
    its end.  Leaving the block waits until every state sent is written and
    reaps the writer; if the block raised nothing or the writer stopped, the
    writer's error is raised here.  Elsewhere `send` writes the files itself
    and `check` has nothing to do.
    """
    if not hasattr(os, "fork"):
        indices = itertools.count()
        yield lambda state: _write_snapshot(out_dir, next(indices), state), lambda: None
        return
    # Here, so the other commands import nothing more at startup.
    import select
    import socket

    ours, theirs = socket.socketpair()
    # Linux doubles the request up to net.core.wmem_max; its default cap still holds six 64^2 records.
    ours.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1 << 20)
    errors_read, errors_write = os.pipe()
    pid = os.fork()
    if pid == 0:
        ours.close()
        os.close(errors_read)
        _writer_process(theirs, errors_write, out_dir, grid)
    theirs.close()
    os.close(errors_write)

    def check() -> None:
        if select.select([errors_read], [], [], 0)[0]:
            raise _WriterStopped

    def send(state: GridState) -> None:
        check()
        try:
            ours.sendall(struct.pack("d", state.t))
            ours.sendall(state.values)
        except OSError as exc:  # the writer has exited, so its error pipe tells why
            raise _WriterStopped from exc

    try:
        yield send, check
    except _WriterStopped:
        pass  # a writer that stopped early exits non-zero, so its error is raised below
    finally:
        ours.close()
        with open(errors_read, "rb") as errors:
            message = errors.read().decode()
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if message:
        raise HamiltonianFormatError(message)
    if status:
        raise PilotwaveError(f"the snapshot writer ended with status {status}")


def _load_operator(args) -> DifferentialOperator:
    """The Hamiltonian file, not yet verified, or on --hermitize its symmetric
    part, Hermitian by construction and never sampled."""
    H = load_hamiltonian(_read(args.hamiltonian))
    return hermitize(H) if args.hermitize else H


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a positive number, got {text}")
    return value


def _int_at_least(minimum: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {text}")
        return value

    return integer


def _emit(text: str) -> None:
    """Print one piece of a command's output.  A reader that closed stdout
    early (`| head`) changes no result: the rest goes to devnull and the
    command still returns its own exit code."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _output(path, text: str) -> None:
    """Write a command's document to `path` and say so, or print it when there is no path."""
    if path:
        _write(path, text + "\n")
        _emit(f"wrote {path}")
    else:
        _emit(text)


def _axis_list(convert, check):
    """Type of a per-axis flag: a comma list, each value valid for one grid axis."""
    def values(text: str) -> list:
        try:
            return [check(convert(part)) for part in text.split(",") if part.strip()]
        except (ValueError, GridError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return values


def _resolve_grid(args, dim: int) -> Grid:
    points = args.grid or [DEFAULT_POINTS]
    lengths = args.domain or [DEFAULT_LENGTH]
    if len(points) == 1:
        points = points * dim
    if len(lengths) == 1:
        lengths = lengths * dim
    if len(points) != dim or len(lengths) != dim:
        raise HamiltonianFormatError(
            f"grid/domain need {dim} entries (or one shared value)"
        )
    return Grid(tuple(lengths), tuple(points))


def _load_problem(args):
    """(H, psi, grid): the state and grid are resolved first.  An H read from
    a file is then sampled once, on the grid's box [0, L_1) x ... x [0, L_N);
    a --hermitize H is Hermitian by construction and never sampled.  H is
    realized on the grid, whose numerical gate refuses a grid where H's
    derivative factors overflow.  A grid too coarse to apply H (which
    `compare`'s canonical method does not need) is not realized."""
    H = _load_operator(args)
    if not args.state:
        raise HamiltonianFormatError("this command needs --state <file>")
    spec = parse_state_spec(_read(args.state))
    grid = _resolve_grid(args, H.dim)
    psi = build_state(spec, grid)
    H = require_hermitian(H, SamplingSpec(lengths=grid.lengths))
    if min(grid.shape) >= MIN_POINTS_PER_AXIS:
        H.realize(grid)
    return H, psi, grid


# ---------------------------------------------------------------------------
# Subcommands

def cmd_check(args) -> int:
    H = load_hamiltonian(_read(args.hamiltonian))
    violations = hermiticity_violations(H)
    if not violations:
        _emit("Hermitian: yes")
        return EXIT_OK
    _emit("Hermitian: no")
    for slot in violations:
        _emit(f"  violated coefficient slot n = {slot}")
    _emit("hint: rerun derive/simulate with --hermitize to symmetrize the operator")
    return EXIT_VERDICT


def cmd_derive(args) -> int:
    table = derive_current_table(_load_operator(args))
    _output(args.out, table.to_latex() if args.format == "latex" else table.to_json())
    return EXIT_OK


def cmd_simulate(args) -> int:
    H, psi0, grid = _load_problem(args)
    if args.trajectories:
        check_count(args.trajectories)
    spec = schedule(H, psi0, steps=args.steps, dt=args.dt, stride=args.stride)
    out_dir = Path(args.out or "pilotwave-out")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise HamiltonianFormatError(f"cannot write {out_dir}: {exc}") from exc

    with _snapshot_writer(out_dir, grid) as (send, check):
        snapshots = evolve(H, psi0, spec, on_snapshot=send)
        check()
        drifts = norm_drift(snapshots)
        summary = {
            "times": [s.t for s in snapshots],
            "norm_drift": drifts,
            "dt": spec.dt,
            "steps": spec.steps,
            "stride": spec.stride,
        }

        # The density in 1D, the axis-1 marginal density otherwise.
        other = tuple(range(1, grid.dim))
        ends = (snapshots[0], snapshots[-1])
        curves = [s.density() for s in ends]
        if other:
            curves = [rho.sum(axis=other) * grid.cell_volume / grid.spacings[0] for rho in curves]
        _write(out_dir / "density.svg", svgplot.line_plot(
            [(grid.axis_points(0), curve) for curve in curves],
            title="axis-1 marginal density" if other else "density",
            xlabel="q1",
            ylabel="rho" if other else "|psi|^2",
            labels=[f"t = {s.t:.4g}" for s in ends],
        ))

        if args.trajectories > 0:
            table = derive_current_table(H)
            ensemble = sample_density(psi0.density(), grid, args.trajectories, args.seed)
            final = integrate_trajectories(snapshots, table, ensemble, substeps=args.substeps)
            _write(out_dir / "trajectories.csv", serialize.trajectory_csv(final))
            summary["truncated_fraction"] = final.truncated_fraction()
            shown = min(final.count, 200)
            fan = [
                (final.times, [positions[pid][0] for positions in final.history])
                for pid in range(shown)
            ]
            _write(out_dir / "trajectories.svg", svgplot.line_plot(
                fan,
                title=f"trajectory fan ({shown} of {final.count})",
                xlabel="t",
                ylabel="q1",
            ))

    _write(out_dir / "summary.json", json.dumps(summary, indent=2))
    _emit(f"wrote {out_dir}/ ({len(snapshots)} snapshots; max norm drift {max(drifts):.3e})")
    if "truncated_fraction" in summary:
        _emit(f"truncated fraction: {summary['truncated_fraction']:.4f}")
    return EXIT_OK


def cmd_compare(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise HamiltonianFormatError("--methods must list at least one method")
    for k, m in enumerate(methods):
        if m not in METHODS:
            raise HamiltonianFormatError(f"unknown method '{m}' (choose from {', '.join(METHODS)})")
        if m in methods[:k]:
            raise HamiltonianFormatError(f"--methods lists '{m}' twice")
    H, psi, _ = _load_problem(args)

    fields = {}
    report = {"methods": {}}
    for method in methods:
        try:
            fields[method] = METHODS[method](H, psi)
            report["methods"][method] = {"status": "ok"}
        except PilotwaveError as exc:
            report["methods"][method] = {"status": "inapplicable", "reason": str(exc)}

    names = [m for m in methods if m in fields]
    report["pairs"] = {}
    for a, b in itertools.combinations(names, 2):
        report["pairs"][f"{a} vs {b}"] = asdict(altcurrents.compare_fields(fields[a], fields[b]))

    _output(args.out, json.dumps(report, indent=2))
    return EXIT_OK


def cmd_equivariance(args) -> int:
    given = [f"--{name}" for name in ("dt", "steps", "stride") if getattr(args, name) is not None]
    missing = [flag for flag in ("--dt", "--steps") if flag not in given]
    if given and missing:
        raise HamiltonianFormatError(
            f"{', '.join(given)} given without {' and '.join(missing)}; a fixed schedule needs "
            "both --dt and --steps, or neither to let the program choose"
        )
    H, psi0, _ = _load_problem(args)
    report = equivariance_test(
        H,
        psi0,
        count=args.count,
        horizon=args.horizon,
        seed=args.seed,
        evolution_spec=schedule(H, psi0, steps=args.steps, dt=args.dt, stride=args.stride) if given else None,
        substeps=args.substeps,
    )
    _emit(json.dumps(asdict(report), indent=2))
    return EXIT_OK if report.valid else EXIT_VERDICT


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pilotwave",
        description="Conserved currents and guided trajectories for differential-operator Hamiltonians",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    positive_int = _int_at_least(1)

    def add_schedule(p):
        """The fixed schedule and the trajectory flags of simulate and equivariance."""
        p.add_argument("--dt", type=_positive_float)
        p.add_argument("--steps", type=positive_int)
        p.add_argument("--stride", type=positive_int)
        p.add_argument("--substeps", type=positive_int, default=DEFAULT_SUBSTEPS)
        p.add_argument("--seed", type=_int_at_least(0), default=0)

    def add_common(p, min_points=1):
        """The operator, state and grid arguments; commands that apply H need min_points."""
        p.add_argument("hamiltonian", help="Hamiltonian file")
        p.add_argument("--state", help="state-spec file")
        p.add_argument("--grid", type=_axis_list(int, lambda points: check_points(points, min_points)),
                       help="points per axis, e.g. 512 or 64,64")
        p.add_argument("--domain", type=_axis_list(float, check_length),
                       help="box lengths per axis, e.g. 40 or 20,20")
        p.add_argument("--hermitize", action="store_true", help="symmetrize the operator first")

    p_check = sub.add_parser("check", help="report Hermiticity and violated slots")
    p_check.add_argument("hamiltonian")
    p_check.set_defaults(func=cmd_check)

    p_derive = sub.add_parser("derive", help="derive the symbolic current table")
    p_derive.add_argument("hamiltonian")
    p_derive.add_argument("--format", choices=("json", "latex"), default="json")
    p_derive.add_argument("--hermitize", action="store_true")
    p_derive.add_argument("--out")
    p_derive.set_defaults(func=cmd_derive)

    p_sim = sub.add_parser("simulate", help="evolve a state and integrate trajectories")
    add_common(p_sim, MIN_POINTS_PER_AXIS)
    add_schedule(p_sim)
    p_sim.add_argument("--trajectories", type=_int_at_least(0), default=0, metavar="M")
    p_sim.add_argument("--out")
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser("compare", help="compare current constructions on one snapshot")
    add_common(p_cmp)
    p_cmp.add_argument("--methods", default="canonical", help="comma list: " + ",".join(METHODS))
    p_cmp.add_argument("--out")
    p_cmp.set_defaults(func=cmd_compare)

    p_eq = sub.add_parser("equivariance", help="sample, integrate, and KS-compare against |psi(T)|^2")
    add_common(p_eq, MIN_POINTS_PER_AXIS)
    add_schedule(p_eq)
    p_eq.add_argument("--count", type=positive_int, default=5000, metavar="M")
    p_eq.add_argument("--horizon", type=_positive_float, default=1.0, metavar="T")
    p_eq.set_defaults(func=cmd_equivariance)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (HamiltonianFormatError, ExpressionSyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonHermitianError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: pass --hermitize to symmetrize the operator", file=sys.stderr)
        return EXIT_VERDICT
    except PilotwaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
