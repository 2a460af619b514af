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

The grid and box come from --grid and --domain; a state file sets neither.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from dataclasses import dataclass, field

from ._numpy import np

from . import expr
from .errors import HamiltonianFormatError
from .grids import Grid, GridState
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


@contextlib.contextmanager
def _in_range(value: str, formula: str):
    """Run the block under errstate(raise): a division by zero, overflow or
    invalid value in it, or a Python float's OverflowError, is a format error
    naming `value`, the input at fault, and the `formula` that overflowed."""
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            yield
    except (FloatingPointError, OverflowError):
        raise HamiltonianFormatError(f"{value} is out of range: {formula} overflows") from None


def _center(grid: Grid, center) -> list[float]:
    """The per-axis center, the grid's own by default; a center whose squared
    distance (q - c)^2 from a grid point overflows is refused."""
    if center is None:
        return grid.center()
    center = _per_axis(center, grid.dim, "center")
    for q, c in zip(grid.axis_vectors(), center):
        with _in_range(f"center {c}", "(q - c)^2"):
            (q - c) ** 2
    return center


def _normalized(kind: str, state: GridState, center=None) -> GridState:
    """`state.normalized()`, where a state that is 0 at every grid point is a format error."""
    if state.norm_sq() == 0:
        at = "" if center is None else f" with center {list(map(float, center))}"
        raise HamiltonianFormatError(f"{kind}{at} is 0 at every grid point and cannot be normalized")
    return state.normalized()


def gaussian(grid: Grid, center=None, width=1.0, wavevector=None) -> GridState:
    """Normalized Gaussian packet; `width` is the density standard deviation."""
    dim = grid.dim
    center = _center(grid, center)
    widths = [_positive(w, "width") for w in _per_axis(width, dim, "width")]
    ks = [0.0] * dim if wavevector is None else _per_axis(wavevector, dim, "wavevector")
    phase = np.zeros(grid.shape)
    envelope = np.zeros(grid.shape)
    for q, c, sigma, k in zip(grid.axis_vectors(), center, widths, ks):
        square = (q - c) ** 2
        with _in_range(f"width {sigma}", "(q - c)^2/(4 width^2)"):
            envelope = envelope - square / (4.0 * sigma ** 2)
        with _in_range(f"wavevector {k}", "k q"):
            phase = phase + k * q
    return _normalized("gaussian", GridState(grid, np.exp(envelope + 1j * phase)), center)


def plane_wave(grid: Grid, wavevector=None) -> GridState:
    """Unit-amplitude plane wave, wavevector snapped to the grid lattice."""
    if wavevector is None:
        raise HamiltonianFormatError("plane-wave state needs a wavevector")
    ks = _per_axis(wavevector, grid.dim, "wavevector")
    phase = np.zeros(grid.shape)
    for q, L, k in zip(grid.axis_vectors(), grid.lengths, ks):
        unit = 2.0 * np.pi / L
        with _in_range(f"wavevector {k}", "k q"):
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
    center = _center(grid, center)
    mw = _positive(_positive(mass, "mass") * _positive(frequency, "frequency"), "mass * frequency")
    scale = math.sqrt(mw)
    values = np.ones(grid.shape, dtype=complex)
    for q, c, n in zip(grid.axis_vectors(), center, map(int, levels)):
        u = scale * (q - c)
        # pi^(1/4) psi_k: psi_0 = pi^(-1/4) e^(-u^2/2) and
        # psi_k+1 = sqrt(2/(k+1)) u psi_k - sqrt(k/(k+1)) psi_k-1
        with np.errstate(over="ignore"):  # e^(-u^2/2) is 0 where u^2 overflows
            previous, current = 0.0, np.exp(-0.5 * u ** 2)
        for k in range(n):
            previous, current = current, math.sqrt(2 / (k + 1)) * u * current - math.sqrt(k / (k + 1)) * previous
        values = values * ((mw / math.pi) ** 0.25 * current)
    return _normalized("ho-eigenstate", GridState(grid, values), center)


def superposition(components: list[tuple[complex, GridState]]) -> GridState:
    if not components:
        raise HamiltonianFormatError("superposition needs at least one component")
    grid = components[0][1].grid
    total = np.zeros(grid.shape, dtype=complex)
    for coef, state in components:
        if state.grid != grid:
            raise HamiltonianFormatError("superposition components must share one grid")
        total = total + complex(coef) * state.values
    return _normalized("superposition", GridState(grid, total))


# ---------------------------------------------------------------------------
# State-spec files

# Each state kind, its preset function and the keys it takes, beside a file's
# state and component lines; any other key is refused.  A preset is called
# with the file's keys, so its signature holds the defaults.
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


def parse_state_spec(text: str) -> StateSpec:
    """The state spec in `text`; a key other than `component` may appear only once."""
    kind = None
    params: dict = {}
    components: list = []
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
        elif key in ("grid", "domain"):
            raise HamiltonianFormatError(f"{where}: {key} is set with --{key}, not in a state file")
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
    return StateSpec(kind, params, components)


def build_state(spec: StateSpec, grid: Grid) -> GridState:
    def preset(kind: str, params: dict) -> GridState:
        return _KINDS[kind][0](grid, **params)

    if spec.kind == "superposition":
        return superposition([(coef, preset(kind, params)) for coef, kind, params in spec.components])
    return preset(spec.kind, spec.params)
