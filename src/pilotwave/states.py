"""Named wavefunction presets and the state-spec text format.

State files use the same key = value syntax as Hamiltonian files::

    state = gaussian
    center = [20.0]
    width = 0.5
    wavevector = [1.0]

Superpositions list weighted components on repeated lines::

    state = superposition
    component = 0.7071 | ho-eigenstate levels=[0] center=[20]
    component = (0.5+0.5*i) | gaussian center=[22] width=0.5

A state file may also carry optional `grid = [512]` and `domain = [40.0]`
entries; command-line flags take precedence over them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import expr
from .errors import GridError, HamiltonianFormatError
from .grids import Grid, GridState, check_length, check_points
from .operators import read_assignments


def _per_axis(value, dim: int, name: str) -> list[float]:
    """`value` as `dim` finite floats: one number for every axis, or a list of `dim`."""
    if isinstance(value, (int, float)):
        values = [float(value)] * dim
    else:
        values = [float(v) for v in value]
    if len(values) != dim:
        raise HamiltonianFormatError(f"{name} needs {dim} entries, got {len(values)}")
    if not all(map(math.isfinite, values)):
        raise HamiltonianFormatError(f"{name} must be finite, got {value}")
    return values


def _positive(value, name: str):
    """`value` if it is a positive finite number; a format error naming `name` otherwise."""
    if isinstance(value, numbers.Real) and math.isfinite(value) and value > 0:
        return value
    raise HamiltonianFormatError(f"{name} must be positive and finite, got {value}")


def gaussian(grid: Grid, center=None, width=1.0, wavevector=None) -> GridState:
    """Normalized Gaussian packet; `width` is the density standard deviation."""
    dim = grid.dim
    center = grid.center() if center is None else _per_axis(center, dim, "center")
    widths = [_positive(w, "width") for w in _per_axis(width, dim, "width")]
    ks = [0.0] * dim if wavevector is None else _per_axis(wavevector, dim, "wavevector")
    phase = np.zeros(grid.shape)
    envelope = np.zeros(grid.shape)
    for q, c, sigma, k in zip(grid.axis_vectors(), center, widths, ks):
        envelope = envelope - (q - c) ** 2 / (4.0 * sigma ** 2)
        phase = phase + k * q
    return GridState(grid, np.exp(envelope + 1j * phase)).normalized()


def plane_wave(grid: Grid, wavevector=None) -> GridState:
    """Unit-amplitude plane wave, wavevector snapped to the grid lattice."""
    if wavevector is None:
        raise HamiltonianFormatError("plane-wave state needs a wavevector")
    ks = _per_axis(wavevector, grid.dim, "wavevector")
    phase = np.zeros(grid.shape)
    for q, L, k in zip(grid.axis_vectors(), grid.lengths, ks):
        unit = 2.0 * np.pi / L
        phase = phase + unit * round(k / unit) * q
    return GridState(grid, np.exp(1j * phase))


def ho_eigenstate(grid: Grid, levels=0, center=None, frequency=1.0, mass=1.0) -> GridState:
    """Harmonic-oscillator eigenstate product over axes.

    Eigenstate of -(1/2m) lap + m w^2 |q - c|^2 / 2 with per-axis quantum
    numbers `levels`, non-negative integers.  Each axis factor comes from the
    normalized Hermite-function recurrence in u = sqrt(m w) (q - c), which
    never forms 2^n n! or H_n(u), so no level overflows; e^(-u^2/2) underflows
    beyond |u| = 38, which the factor of a level above about 700 reaches.
    """
    dim = grid.dim
    levels = _per_axis(levels, dim, "levels")
    if not all(n.is_integer() and n >= 0 for n in levels):
        raise HamiltonianFormatError(f"levels must be non-negative integers, got {levels}")
    center = grid.center() if center is None else _per_axis(center, dim, "center")
    scale = math.sqrt(_positive(mass, "mass") * _positive(frequency, "frequency"))
    values = np.ones(grid.shape, dtype=complex)
    for q, c, n in zip(grid.axis_vectors(), center, map(int, levels)):
        u = scale * (q - c)
        # pi^(1/4) psi_k: psi_0 = pi^(-1/4) e^(-u^2/2) and
        # psi_k+1 = sqrt(2/(k+1)) u psi_k - sqrt(k/(k+1)) psi_k-1
        previous, current = 0.0, np.exp(-0.5 * u ** 2)
        for k in range(n):
            previous, current = current, math.sqrt(2 / (k + 1)) * u * current - math.sqrt(k / (k + 1)) * previous
        values = values * ((mass * frequency / math.pi) ** 0.25 * current)
    return GridState(grid, values).normalized()


def superposition(components: list[tuple[complex, GridState]]) -> GridState:
    if not components:
        raise HamiltonianFormatError("superposition needs at least one component")
    grid = components[0][1].grid
    total = np.zeros(grid.shape, dtype=complex)
    for coef, state in components:
        if state.grid != grid:
            raise HamiltonianFormatError("superposition components must share one grid")
        total = total + complex(coef) * state.values
    return GridState(grid, total).normalized()


# ---------------------------------------------------------------------------
# State-spec files

# Each state kind, its preset function and the keys it takes, beside a file's
# state, component, grid and domain lines; any other key is refused.  A
# preset is called with the file's keys, so its signature holds the defaults.
_KINDS = {
    "gaussian": (gaussian, ("center", "width", "wavevector")),
    "plane-wave": (plane_wave, ("wavevector",)),
    "ho-eigenstate": (ho_eigenstate, ("levels", "center", "frequency", "mass")),
    "superposition": (None, ()),
}


@dataclass
class StateSpec:
    kind: str
    params: dict = field(default_factory=dict)
    components: list = field(default_factory=list)  # (complex, kind, params)
    grid_points: list[int] | None = None
    domain_lengths: list[float] | None = None


def _parse_value(text: str, where: str):
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise HamiltonianFormatError(f"{where}: unterminated list '{text}'")
        body = text[1:-1].strip()
        if not body:
            return []
        try:
            return [float(part) for part in body.split(",")]
        except ValueError as exc:
            raise HamiltonianFormatError(f"{where}: bad list '{text}'") from exc
    try:
        return float(text)
    except ValueError as exc:
        raise HamiltonianFormatError(f"{where}: bad numeric value '{text}'") from exc


def _check_key(kind: str, key: str, where: str) -> None:
    keys = _KINDS[kind][1]
    if key not in keys:
        takes = ", ".join(keys) or "only component lines"
        raise HamiltonianFormatError(f"{where}: unknown key '{key}' for {kind} (it takes {takes})")


def _parse_component(text: str, where: str):
    if "|" not in text:
        raise HamiltonianFormatError(f"{where}: component must be 'coeff | kind key=value ...'")
    coef_text, _, rest = text.partition("|")
    coef_expr = expr.parse(coef_text.strip(), 1)
    coef = coef_expr.constant_value()
    if coef is None:
        raise HamiltonianFormatError(f"{where}: component coefficient must be a constant")
    parts = rest.split()
    if not parts:
        raise HamiltonianFormatError(f"{where}: missing component kind")
    kind = parts[0]
    if kind not in _KINDS or kind == "superposition":
        raise HamiltonianFormatError(f"{where}: unknown component kind '{kind}'")
    params = {}
    for item in parts[1:]:
        if "=" not in item:
            raise HamiltonianFormatError(f"{where}: expected key=value, got '{item}'")
        key, _, value = item.partition("=")
        key = key.strip()
        _check_key(kind, key, where)
        if key in params:
            raise HamiltonianFormatError(f"{where}: duplicate '{key}' in one component")
        params[key] = _parse_value(value, where)
    return coef, kind, params


def _axis_values(value: str, where: str, key: str, convert, check) -> list:
    """The per-axis `grid` or `domain` entries, each valid for one grid axis."""
    parsed = _parse_value(value, where)
    try:
        return [check(convert(v)) for v in (parsed if isinstance(parsed, list) else [parsed])]
    except (ValueError, OverflowError, GridError) as exc:
        raise HamiltonianFormatError(f"{where}: {key}: {exc}") from exc


def _whole(value: float) -> int:
    if value != int(value):
        raise ValueError(f"points per axis must be an integer, got {value}")
    return int(value)


def parse_state_spec(text: str, min_points: int = 1) -> StateSpec:
    """The state spec in `text`; a key other than `component` may appear only once, and a
    `grid` entry must have at least `min_points` per axis."""
    kind = None
    params: dict = {}
    components: list = []
    grid_points = None
    domain_lengths = None
    key_lines: dict[str, str] = {}
    seen: set[str] = set()
    for where, key, value in read_assignments(text):
        if key != "component" and key in seen:
            raise HamiltonianFormatError(f"{where}: duplicate '{key}' line")
        seen.add(key)
        if key == "state":
            if value not in _KINDS:
                raise HamiltonianFormatError(f"{where}: unknown state kind '{value}'")
            kind = value
        elif key == "component":
            components.append(_parse_component(value, where))
        elif key == "grid":
            grid_points = _axis_values(
                value, where, key, _whole, lambda points: check_points(points, min_points)
            )
        elif key == "domain":
            domain_lengths = _axis_values(value, where, key, float, check_length)
        else:
            params[key] = _parse_value(value, where)
            key_lines[key] = where
    if kind is None:
        raise HamiltonianFormatError("missing 'state = <kind>' declaration")
    for key, where in key_lines.items():
        _check_key(kind, key, where)
    if kind == "superposition" and not components:
        raise HamiltonianFormatError("superposition state lists no components")
    if kind != "superposition" and components:
        raise HamiltonianFormatError("component lines are only valid for superposition states")
    return StateSpec(kind, params, components, grid_points, domain_lengths)


def build_state(spec: StateSpec, grid: Grid) -> GridState:
    def preset(kind: str, params: dict) -> GridState:
        return _KINDS[kind][0](grid, **params)

    if spec.kind == "superposition":
        return superposition([(coef, preset(kind, params)) for coef, kind, params in spec.components])
    return preset(spec.kind, spec.params)
