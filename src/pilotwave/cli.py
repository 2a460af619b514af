"""Command-line entry point.

Subcommands: check, derive, simulate, compare, equivariance.  Exit codes:
0 success, 1 domain verdict (non-Hermitian input, or an equivariance run
that truncated more than 10% of its trajectories; the KS distance is
reported but does not set the exit code), 2 usage or parse error (including
a numeric flag out of range, such as --seed -1, a --grid or --domain value
that no grid axis accepts, and an equivariance --dt, --steps or --stride
without both --dt and --steps, all refused before any work; and a state
file's grid or domain entry that no grid axis accepts, or a preset value out
of its range, such as levels = [-1] or mass = 0, refused before any file is
written), 3 numerical failure (including a grid above grids.MAX_GRID_POINTS
or a run above solver.MAX_RK4_STEPS, refused at setup).  A closed standard
output, as in `pilotwave derive H.ham | head`, ends the command quietly with
its own code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

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
from .grids import DEFAULT_LENGTH, Grid, check_length, check_points
from .operators import (
    MIN_POINTS_PER_AXIS,
    DifferentialOperator,
    SamplingSpec,
    hermiticity_violations,
    hermitize,
    load_hamiltonian,
    require_hermitian,
)
from .solver import EvolutionSpec, evolve, norm_drift
from .states import parse_state_spec, build_state
from .trajectories import (
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


def _load_operator(args) -> DifferentialOperator:
    """The Hamiltonian file, symmetrized on --hermitize; not yet verified."""
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


def _axis_list(convert, check):
    """Type of a per-axis flag: a comma list, each value valid for one grid axis."""
    def values(text: str) -> list:
        try:
            return [check(convert(part)) for part in text.split(",") if part.strip()]
        except (ValueError, GridError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return values


def _resolve_grid(args, dim: int, spec) -> Grid:
    points = args.grid or (spec.grid_points if spec else None)
    lengths = args.domain or (spec.domain_lengths if spec else None)
    points = points or [DEFAULT_POINTS]
    lengths = lengths or [DEFAULT_LENGTH]
    if len(points) == 1:
        points = points * dim
    if len(lengths) == 1:
        lengths = lengths * dim
    if len(points) != dim or len(lengths) != dim:
        raise HamiltonianFormatError(
            f"grid/domain need {dim} entries (or one shared value)"
        )
    return Grid(tuple(lengths), tuple(points))


def _load_problem(args, min_points: int = 1):
    """(H, psi, grid): the state and grid are resolved first, then H is
    verified once, on the grid's box [0, L_1) x ... x [0, L_N)."""
    H = _load_operator(args)
    if not args.state:
        raise HamiltonianFormatError("this command needs --state <file>")
    spec = parse_state_spec(_read(args.state), min_points)
    grid = _resolve_grid(args, H.dim, spec)
    psi = build_state(spec, grid)
    return require_hermitian(H, SamplingSpec(lengths=grid.lengths)), psi, grid


def _auto_spec(args, H: DifferentialOperator, grid: Grid) -> EvolutionSpec:
    steps = args.steps if args.steps is not None else 1000
    if args.dt is not None:
        dt = args.dt
    else:
        radius = H.realize(grid).spectral_radius(0.0)
        dt = min(1e-3, 1.0 / radius) if radius > 0 else 1e-3
    stride = args.stride if args.stride is not None else max(1, steps // 100)
    return EvolutionSpec(dt=dt, steps=steps, stride=stride)


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
    text = table.to_latex() if args.format == "latex" else table.to_json()
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        _emit(f"wrote {args.out}")
    else:
        _emit(text)
    return EXIT_OK


def cmd_simulate(args) -> int:
    H, psi0, grid = _load_problem(args, MIN_POINTS_PER_AXIS)
    spec = _auto_spec(args, H, grid)
    out_dir = Path(args.out or "pilotwave-out")
    out_dir.mkdir(parents=True, exist_ok=True)

    snapshots = evolve(H, psi0, spec)
    drifts = norm_drift(snapshots)
    small = math.prod(grid.shape) <= serialize.CSV_POINT_LIMIT
    for idx, snap in enumerate(snapshots):
        (out_dir / f"snapshot_{idx:04d}.json").write_text(
            serialize.snapshot_to_json(snap), encoding="utf-8"
        )
        if small:
            (out_dir / f"snapshot_{idx:04d}.csv").write_text(
                serialize.snapshot_to_csv(snap), encoding="utf-8"
            )

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
    svgplot.line_plot(
        out_dir / "density.svg",
        [(grid.axis_points(0), curve) for curve in curves],
        title="axis-1 marginal density" if other else "density",
        xlabel="q1",
        ylabel="rho" if other else "|psi|^2",
        labels=[f"t = {s.t:.4g}" for s in ends],
    )

    if args.trajectories > 0:
        table = derive_current_table(H)
        ensemble = sample_density(psi0.density(), grid, args.trajectories, args.seed)
        final = integrate_trajectories(snapshots, table, ensemble, substeps=args.substeps)
        (out_dir / "trajectories.csv").write_text(
            serialize.trajectory_csv(final), encoding="utf-8"
        )
        summary["truncated_fraction"] = final.truncated_fraction()
        shown = min(final.count, 200)
        fan = [
            (final.times, [positions[pid][0] for positions in final.history])
            for pid in range(shown)
        ]
        svgplot.line_plot(
            out_dir / "trajectories.svg",
            fan,
            title=f"trajectory fan ({shown} of {final.count})",
            xlabel="t",
            ylabel="q1",
        )

    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2), encoding="utf-8")
    _emit(f"wrote {out_dir}/ ({len(snapshots)} snapshots; max norm drift {max(drifts):.3e})")
    if "truncated_fraction" in summary:
        _emit(f"truncated fraction: {summary['truncated_fraction']:.4f}")
    return EXIT_OK


def cmd_compare(args) -> int:
    methods = [m.strip() for m in (args.methods or "").split(",") if m.strip()]
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
    for a_idx in range(len(names)):
        for b_idx in range(a_idx + 1, len(names)):
            a, b = names[a_idx], names[b_idx]
            cmp = altcurrents.compare_fields(fields[a], fields[b])
            report["pairs"][f"{a} vs {b}"] = cmp.to_dict()

    text = json.dumps(report, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        _emit(f"wrote {args.out}")
    else:
        _emit(text)
    return EXIT_OK


def cmd_equivariance(args) -> int:
    given = [f"--{name}" for name in ("dt", "steps", "stride") if getattr(args, name) is not None]
    missing = [flag for flag in ("--dt", "--steps") if flag not in given]
    if given and missing:
        raise HamiltonianFormatError(
            f"{', '.join(given)} given without {' and '.join(missing)}; a fixed schedule needs "
            "both --dt and --steps, or neither to let the program choose"
        )
    H, psi0, _ = _load_problem(args, MIN_POINTS_PER_AXIS)
    spec = None
    if given:
        stride = args.stride if args.stride is not None else max(1, args.steps // 100)
        spec = EvolutionSpec(dt=args.dt, steps=args.steps, stride=stride)
    report = equivariance_test(
        H,
        psi0,
        count=args.count,
        horizon=args.horizon,
        seed=args.seed,
        evolution_spec=spec,
        substeps=args.substeps,
    )
    _emit(json.dumps(report.to_dict(), indent=2))
    return EXIT_OK if report.valid else EXIT_VERDICT


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pilotwave",
        description="Conserved currents and guided trajectories for differential-operator Hamiltonians",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    positive_int = _int_at_least(1)

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
    p_sim.add_argument("--dt", type=_positive_float)
    p_sim.add_argument("--steps", type=positive_int)
    p_sim.add_argument("--stride", type=positive_int)
    p_sim.add_argument("--trajectories", type=_int_at_least(0), default=0, metavar="M")
    p_sim.add_argument("--substeps", type=positive_int, default=4)
    p_sim.add_argument("--seed", type=_int_at_least(0), default=0)
    p_sim.add_argument("--out")
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser("compare", help="compare current constructions on one snapshot")
    add_common(p_cmp)
    p_cmp.add_argument("--methods", default="canonical", help="comma list: " + ",".join(METHODS))
    p_cmp.add_argument("--out")
    p_cmp.set_defaults(func=cmd_compare)

    p_eq = sub.add_parser("equivariance", help="sample, integrate, and KS-compare against |psi(T)|^2")
    add_common(p_eq, MIN_POINTS_PER_AXIS)
    p_eq.add_argument("--count", type=positive_int, default=5000, metavar="M")
    p_eq.add_argument("--horizon", type=_positive_float, default=1.0, metavar="T")
    p_eq.add_argument("--seed", type=_int_at_least(0), default=0)
    p_eq.add_argument("--dt", type=_positive_float)
    p_eq.add_argument("--steps", type=positive_int)
    p_eq.add_argument("--stride", type=positive_int)
    p_eq.add_argument("--substeps", type=positive_int, default=4)
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
