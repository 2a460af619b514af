"""Textual wire formats: snapshot JSON/CSV and trajectory CSV."""

from __future__ import annotations

import itertools
import json
import math

from ._numpy import np

from .errors import HamiltonianFormatError, PilotwaveError
from .grids import Grid, GridState, check_integer
from .trajectories import Ensemble

CSV_POINT_LIMIT = 4096  # snapshots above this size get JSON only


def snapshot_to_json(state: GridState) -> str:
    return json.dumps(
        {
            "dimension": state.dim,
            "lengths": list(state.grid.lengths),
            "shape": list(state.grid.shape),
            "time": state.t,
            "values": state.values.reshape(-1).view(float).reshape(-1, 2).tolist(),
        }
    )


def snapshot_from_json(text: str) -> GridState:
    try:
        doc = json.loads(text)
        grid = Grid(tuple(doc["lengths"]), tuple(doc["shape"]))
        time = float(doc["time"])
        if check_integer(doc["dimension"], "dimension") != grid.dim or not math.isfinite(time):
            raise ValueError(f"need dimension {grid.dim} and a finite time, got {doc['dimension']} and {time}")
        pairs = np.asarray(doc["values"], dtype=float)
        if pairs.shape != (math.prod(grid.shape), 2):
            raise ValueError(f"values of shape {pairs.shape} are not {math.prod(grid.shape)} [re, im] pairs")
        values = (pairs[:, 0] + 1j * pairs[:, 1]).reshape(grid.shape)
        return GridState(grid, values, time)
    except (KeyError, ValueError, TypeError, PilotwaveError) as exc:
        raise HamiltonianFormatError(f"bad snapshot document: {exc}") from exc


def snapshot_to_csv(state: GridState) -> str:
    header = ",".join(f"q{a}" for a in range(1, state.dim + 1)) + ",re,im"
    axes = [["%.12g" % x for x in state.grid.axis_points(a).tolist()] for a in range(state.dim)]
    positions = map(",".join, itertools.product(*axes))
    flat = state.values.reshape(-1)
    rows = zip(positions, flat.real.tolist(), flat.imag.tolist())
    lines = [header] + ["%s,%.15g,%.15g" % row for row in rows]
    return "\n".join(lines) + "\n"


def trajectory_csv(ensemble: Ensemble) -> str:
    """One row per particle per recorded time, built one time block at a time.

    The `truncated` flag marks particles whose trajectory hit a node at some
    point of the run (they are frozen from there on).
    """
    axes = ",".join(f"q{a}" for a in range(1, ensemble.dim + 1))
    blocks = [f"t,particle_id,{axes},truncated\n"]
    row = "%s,%d," + ",".join(["%.12g"] * ensemble.dim) + ",%d\n"
    flags = ensemble.truncated.astype(bool).tolist()
    for t, positions in zip(ensemble.times, ensemble.history):
        stamp = "%.12g" % t
        rows = enumerate(zip(positions.tolist(), flags))
        blocks.append("".join(row % (stamp, pid, *coords, flag) for pid, (coords, flag) in rows))
    return "".join(blocks)
