"""Symbolic coefficient expressions: parsing, differentiation, evaluation.

Coefficient functions of the configuration variables q1..qN and time t are
held as small immutable ASTs of seven node kinds: Const, Coord (q_a),
TimeVar (t), Binary (+ - * /), Pow (integer exponent), Neg and Call (exp,
sin, cos, log, sqrt and conj).  Two tables drive every walker: `_BINARY`
maps an operator to its arithmetic and `_FUNCTIONS` a function name to its
numpy ufunc, for evaluation and constant folding alike.  One printer,
`_print`, writes a tree in either of two spellings: plain text
(`to_string` and error messages, which `parse` reads back) and TeX
(`to_latex`).  The algebra deliberately stops far short of a CAS: smart
constructors (`_BUILD` maps an operator to its own) fold constants and
drop additive/multiplicative zeros so Leibniz expansions stay compact,
and expression equality is decided numerically on random sample points
rather than by canonicalization.

One tree walker, `_eval`, computes values: over grid meshes, at a single
point and over a batch of sample points alike, always on complex numpy
arrays.  A fault is a divide-by-zero, invalid or overflow floating-point
error; it raises EvaluationDomainError naming the innermost subexpression
whose operation faulted.

The sampled checks, `approx_equal` and the exact-zero test `vanishes`, take
their settings from one `SamplingSpec`: they draw q uniformly from the
periodic box [0, L_1) x ... x [0, L_N) of a grid (by default
[0, DEFAULT_LENGTH) per axis, the CLI's default domain) and t from [0, 1).
They draw all their points in one call to the random generator,
bit-identical to drawing them point by point.  The spec refuses fewer than
one sample, and a tolerance that is negative or not finite, when it is built.

Grammar (whitespace-insensitive, ^ binds tightest, then unary minus, then
* and /, then + and -)::

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := "-" factor | base ("^" ("-")? digits)?
    base   := number | "i" | "t" | "q" digits | func "(" expr ")" | "(" expr ")"
    func   := "exp" | "sin" | "cos" | "log" | "sqrt" | "conj"

`conj` is accepted on input so that serialized adjoint/hermitized output
round-trips; it is never required in hand-written Hamiltonian files.
`call("conj", e)` is `e.conjugate()`.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .errors import (
    DimensionMismatchError,
    EvaluationDomainError,
    ExpressionSyntaxError,
    SamplingError,
)
from .grids import DEFAULT_LENGTH, check_integer, check_length
from .multiindex import MultiIndex

# ---------------------------------------------------------------------------
# AST nodes

@dataclass(frozen=True)
class Const:
    value: complex


@dataclass(frozen=True)
class Coord:
    axis: int  # 1-based


@dataclass(frozen=True)
class TimeVar:
    pass


@dataclass(frozen=True)
class Binary:
    op: str  # a key of _BINARY
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class Call:
    func: str  # a key of _FUNCTIONS
    arg: "Node"


Node = Union[Const, Coord, TimeVar, Binary, Pow, Neg, Call]

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_FUNCTIONS = {
    "exp": np.exp, "sin": np.sin, "cos": np.cos, "log": np.log, "sqrt": np.sqrt, "conj": np.conjugate,
}

_ZERO = Const(0j)
_ONE = Const(1 + 0j)


def _is_const(node, value=None):
    if not isinstance(node, Const):
        return False
    return value is None or node.value == value


# ---------------------------------------------------------------------------
# Smart constructors (light simplification only: constant folding, identity
# and annihilator elimination)

def _fold(node: Node, compute) -> Node:
    """Const(compute()), or `node` itself if computing it faults or gives
    inf/nan, so that evaluating the node names the fault.  The operators fold
    in Python complex arithmetic: numpy's differs in the last bit for some
    products and quotients, which would change derived tables."""
    try:
        value = complex(compute())
    except ArithmeticError:
        return node
    return Const(value) if np.isfinite(value) else node


def _binary(op: str, a: Node, b: Node) -> Node:
    """Binary(op, a, b), folded to a constant when both sides are constants."""
    if isinstance(a, Const) and isinstance(b, Const):
        return _fold(Binary(op, a, b), lambda: _BINARY[op](a.value, b.value))
    return Binary(op, a, b)


def _add(a: Node, b: Node) -> Node:
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    return _binary("+", a, b)


def _sub(a: Node, b: Node) -> Node:
    if _is_const(b, 0):
        return a
    if _is_const(a, 0):
        return _neg(b)
    if a == b and not isinstance(a, Const):
        return _ZERO
    return _binary("-", a, b)


def _mul(a: Node, b: Node) -> Node:
    if _is_const(a, 0) or _is_const(b, 0):
        return _ZERO
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    return _binary("*", a, b)


def _div(a: Node, b: Node) -> Node:
    if _is_const(a, 0):
        return _ZERO
    if _is_const(b, 1):
        return a
    return _binary("/", a, b)


_BUILD = {"+": _add, "-": _sub, "*": _mul, "/": _div}


def _neg(a: Node) -> Node:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _pow(base: Node, exponent: int) -> Node:
    if exponent == 0:
        return _ONE
    if exponent == 1:
        return base
    if isinstance(base, Const):
        return _fold(Pow(base, exponent), lambda: base.value ** exponent)
    return Pow(base, exponent)


def _call(func: str, arg: Node) -> Node:
    if func == "conj":
        return _conj(arg)
    if isinstance(arg, Const):
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            return _fold(Call(func, arg), lambda: _FUNCTIONS[func](arg.value))
    return Call(func, arg)


def _conj(a: Node) -> Node:
    """Pointwise complex conjugate; q and t are real so conjugation commutes
    with every operation except log/sqrt on their branch cut, which stay
    wrapped in an explicit conj call."""
    if isinstance(a, Const):
        return Const(a.value.conjugate())
    if isinstance(a, (Coord, TimeVar)):
        return a
    if isinstance(a, Binary):
        return _BUILD[a.op](_conj(a.left), _conj(a.right))
    if isinstance(a, Neg):
        return _neg(_conj(a.arg))
    if isinstance(a, Pow):
        return _pow(_conj(a.base), a.exponent)
    if a.func == "conj":
        return a.arg
    if a.func in ("exp", "sin", "cos"):
        return _call(a.func, _conj(a.arg))
    return Call("conj", a)


# ---------------------------------------------------------------------------
# Differentiation (single axis; q variables only, t is a parameter)

def _diff(node: Node, axis: int) -> Node:
    if isinstance(node, (Const, TimeVar)):
        return _ZERO
    if isinstance(node, Coord):
        return _ONE if node.axis == axis else _ZERO
    if isinstance(node, Binary):
        left, right = node.left, node.right
        if node.op in ("+", "-"):
            return _BUILD[node.op](_diff(left, axis), _diff(right, axis))
        if node.op == "*":
            return _add(_mul(_diff(left, axis), right), _mul(left, _diff(right, axis)))
        num = _sub(_mul(_diff(left, axis), right), _mul(left, _diff(right, axis)))
        return _div(num, _pow(right, 2))
    if isinstance(node, Neg):
        return _neg(_diff(node.arg, axis))
    if isinstance(node, Pow):
        inner = _diff(node.base, axis)
        return _mul(_mul(Const(complex(node.exponent)), _pow(node.base, node.exponent - 1)), inner)
    inner = _diff(node.arg, axis)
    if node.func == "conj":
        return _conj(inner)
    if node.func == "exp":
        return _mul(_call("exp", node.arg), inner)
    if node.func == "sin":
        return _mul(_call("cos", node.arg), inner)
    if node.func == "cos":
        return _neg(_mul(_call("sin", node.arg), inner))
    if node.func == "log":
        return _div(inner, node.arg)
    return _div(inner, _mul(Const(2 + 0j), _call("sqrt", node.arg)))  # sqrt


# ---------------------------------------------------------------------------
# Evaluation

def _eval(node: Node, coords, t):
    """Value of `node` at the points given by one coordinate array per axis
    and a time `t` (a float or an array); all of them broadcast together.

    Returns a complex array, or a scalar when `node` uses neither q nor an
    array t.  Floating-point faults raise EvaluationDomainError.
    """
    coords = [np.asarray(c, dtype=complex) for c in coords]
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        return _walk(node, coords, np.asarray(t, dtype=complex))


def _walk(node: Node, coords, t):
    if isinstance(node, Const):
        return np.complex128(node.value)  # so that unfolded constants fault too
    if isinstance(node, Coord):
        return coords[node.axis - 1]
    if isinstance(node, TimeVar):
        return t
    # A fault in a child is converted by the child, so this names the
    # innermost node whose own operation faulted.
    try:
        if isinstance(node, Binary):
            return _BINARY[node.op](_walk(node.left, coords, t), _walk(node.right, coords, t))
        if isinstance(node, Neg):
            return -_walk(node.arg, coords, t)
        if isinstance(node, Pow):
            return _walk(node.base, coords, t) ** node.exponent
        if isinstance(node, Call):
            return _FUNCTIONS[node.func](_walk(node.arg, coords, t))
    except ArithmeticError as exc:
        raise EvaluationDomainError(str(exc), _print(node, _PLAIN)[0]) from exc
    return node.value  # _Held


@dataclass(frozen=True, eq=False)
class _Held:
    """A t-free subtree evaluated once on one set of coordinates, printed as the subtree."""

    node: Node
    value: object


def _has_time(node) -> bool:
    if isinstance(node, TimeVar):
        return True
    if isinstance(node, Binary):
        return _has_time(node.left) or _has_time(node.right)
    if isinstance(node, (Neg, Call)):
        return _has_time(node.arg)
    if isinstance(node, Pow):
        return _has_time(node.base)
    return False


def _hold(node: Node, coords):
    """`node` with each maximal t-free non-leaf subtree held at its value on
    `coords`; a subtree that faults there stays, so that it faults as before."""
    if isinstance(node, (Const, Coord, TimeVar)):
        return node
    if not _has_time(node):
        try:
            return _Held(node, _eval(node, coords, 0.0))
        except EvaluationDomainError:
            return node
    if isinstance(node, Binary):
        return Binary(node.op, _hold(node.left, coords), _hold(node.right, coords))
    if isinstance(node, Pow):
        return Pow(_hold(node.base, coords), node.exponent)
    return replace(node, arg=_hold(node.arg, coords))  # Neg, Call


# ---------------------------------------------------------------------------
# Serialization

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5

# op -> (precedence, least precedence of an unwrapped right operand); the
# left operand is unwrapped down to the operator's own precedence.
_INFIX = {"+": (_PREC_ADD, _PREC_ADD), "-": (_PREC_ADD, _PREC_ADD + 1),
          "*": (_PREC_MUL, _PREC_MUL), "/": (_PREC_MUL, _PREC_MUL + 1)}

# The two spellings of `_print`.  A form is an (open, close) pair: "wrap" goes
# around a parenthesized child, "coord" an axis number, "power" an exponent and
# a "functions" entry an argument.  "i_suffix" follows a real multiple of i,
# "signs" join the parts of a complex constant, and an op with no "infix"
# separator prints as a \frac.
_PLAIN = {
    "wrap": ("(", ")"), "coord": ("q", ""), "i": "i", "i_suffix": "*i", "signs": ("+", "-"),
    "infix": {"+": " + ", "-": " - ", "*": "*", "/": "/"}, "power": ("^", ""),
    "functions": {func: (func + "(", ")") for func in _FUNCTIONS},
}
_TEX = {
    "wrap": (r"\left(", r"\right)"), "coord": ("q_{", "}"), "i": r"\mathrm{i}", "i_suffix": r"\,\mathrm{i}",
    "signs": (" + ", " - "), "infix": {"+": " + ", "-": " - ", "*": r" \, "}, "power": ("^{", "}"),
    "functions": {
        **{func: (rf"\{func}\left(", r"\right)") for func in ("exp", "sin", "cos", "log")},
        "sqrt": (r"\sqrt{", "}"), "conj": (r"\overline{", "}"),
    },
}


def _print_const(value: complex, spelling: dict) -> tuple[str, int]:
    re_, im = value.real, value.imag
    if im == 0:
        return repr(float(re_)), (_PREC_UNARY if re_ < 0 else _PREC_ATOM)
    if re_ == 0:
        if im == 1:
            return spelling["i"], _PREC_ATOM
        if im == -1:
            return "-" + spelling["i"], _PREC_UNARY
        return repr(float(im)) + spelling["i_suffix"], _PREC_MUL
    (open_, close), sign = spelling["wrap"], spelling["signs"][im < 0]
    return f"{open_}{float(re_)!r}{sign}{float(abs(im))!r}{spelling['i_suffix']}{close}", _PREC_ATOM


def _wrap(spelling: dict, child: Node, min_prec: int) -> str:
    text, prec = _print(child, spelling)
    if prec < min_prec:
        return f"{spelling['wrap'][0]}{text}{spelling['wrap'][1]}"
    return text


def _print(node: Node, spelling: dict) -> tuple[str, int]:
    """`node`'s text in one spelling, `_PLAIN` or `_TEX`, and its precedence."""
    if isinstance(node, Const):
        return _print_const(node.value, spelling)
    if isinstance(node, Coord):
        return f"{spelling['coord'][0]}{node.axis}{spelling['coord'][1]}", _PREC_ATOM
    if isinstance(node, TimeVar):
        return "t", _PREC_ATOM
    if isinstance(node, Binary):
        prec, right_prec = _INFIX[node.op]
        separator = spelling["infix"].get(node.op)
        if separator is None:  # TeX's quotient
            left, right = _print(node.left, spelling)[0], _print(node.right, spelling)[0]
            return rf"\frac{{{left}}}{{{right}}}", _PREC_ATOM
        left, right = _wrap(spelling, node.left, prec), _wrap(spelling, node.right, right_prec)
        return f"{left}{separator}{right}", prec
    if isinstance(node, Neg):
        return f"-{_wrap(spelling, node.arg, _PREC_UNARY)}", _PREC_UNARY
    if isinstance(node, Pow):
        open_, close = spelling["power"]
        return f"{_wrap(spelling, node.base, _PREC_ATOM)}{open_}{node.exponent}{close}", _PREC_POW
    if isinstance(node, _Held):
        return _print(node.node, spelling)
    open_, close = spelling["functions"][node.func]
    return f"{open_}{_print(node.arg, spelling)[0]}{close}", _PREC_ATOM


# ---------------------------------------------------------------------------
# Tokenizer / parser

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)|(?P<ident>[A-Za-z]+\d*)|(?P<op>[-+*/^()])"
    r"|(?P<newline>\n)|(?P<space>[ \t\r]+)|(?P<bad>.)"
)


class _Parser:
    def __init__(self, text: str, dim: int):
        self.dim = dim
        self.tokens = self._tokenize(text)
        self.pos = 0

    @staticmethod
    def _tokenize(text):
        tokens = []
        line, line_start = 1, 0
        for match in _TOKEN_RE.finditer(text):
            kind, col = match.lastgroup, match.start() - line_start + 1
            if kind == "newline":
                line, line_start = line + 1, match.end()
            elif kind == "bad":
                raise ExpressionSyntaxError(f"unexpected character '{match.group()}'", line, col)
            elif kind != "space":
                tokens.append((kind, match.group(), line, col))
        tokens.append(("eof", "", line, len(text) - line_start + 1))
        return tokens

    def _peek(self):
        return self.tokens[self.pos]

    def _advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _expect_op(self, op):
        kind, value, line, col = self._peek()
        if kind != "op" or value != op:
            raise ExpressionSyntaxError(f"expected '{op}', found '{value or 'end of input'}'", line, col)
        return self._advance()

    def parse(self) -> Node:
        node = self._expr()
        kind, value, line, col = self._peek()
        if kind != "eof":
            raise ExpressionSyntaxError(f"unexpected trailing input '{value}'", line, col)
        return node

    def _chain(self, ops: str, operand) -> Node:
        """operand (op operand)* for op in `ops`, folded left-associatively."""
        node = operand()
        while True:
            kind, value, _, _ = self._peek()
            if kind != "op" or value not in ops:
                return node
            self._advance()
            node = _BUILD[value](node, operand())

    def _expr(self) -> Node:
        return self._chain("+-", self._term)

    def _term(self) -> Node:
        return self._chain("*/", self._factor)

    def _factor(self) -> Node:
        kind, value, _, _ = self._peek()
        if kind == "op" and value == "-":
            self._advance()
            return _neg(self._factor())
        node = self._base()
        kind, value, _, _ = self._peek()
        if kind == "op" and value == "^":
            self._advance()
            node = _pow(node, self._int_literal())
        return node

    def _int_literal(self) -> int:
        sign = 1
        kind, value, _, _ = self._peek()
        if kind == "op" and value == "-":
            self._advance()
            sign = -1
        kind, value, line, col = self._peek()
        if kind != "num" or not re.fullmatch(r"\d+", value):
            raise ExpressionSyntaxError("power exponent must be an integer literal", line, col)
        self._advance()
        return sign * int(value)

    def _base(self) -> Node:
        kind, value, line, col = self._advance()
        if kind == "num":
            number = float(value)
            if np.isinf(number):
                raise ExpressionSyntaxError(f"number {value} is out of range", line, col)
            return Const(complex(number))
        if kind == "op" and value == "(":
            node = self._expr()
            self._expect_op(")")
            return node
        if kind == "ident":
            if value == "i":
                return Const(1j)
            if value == "t":
                return TimeVar()
            if value[0] == "q" and value[1:].isdigit():
                axis = int(value[1:])
                if not 1 <= axis <= self.dim:
                    raise ExpressionSyntaxError(
                        f"variable q{axis} out of range for dimension {self.dim}", line, col
                    )
                return Coord(axis)
            if value in _FUNCTIONS:
                self._expect_op("(")
                arg = self._expr()
                self._expect_op(")")
                return _call(value, arg)
            raise ExpressionSyntaxError(f"unknown identifier '{value}'", line, col)
        raise ExpressionSyntaxError(f"unexpected token '{value or 'end of input'}'", line, col)


# ---------------------------------------------------------------------------
# Public wrapper

@dataclass(frozen=True)
class CoefficientExpression:
    """Immutable expression in q1..qN and t with complex constants."""

    node: Node
    dim: int

    def _check_dim(self, other: "CoefficientExpression"):
        if self.dim != other.dim:
            raise DimensionMismatchError(f"expression dimensions differ: {self.dim} vs {other.dim}")

    # -- algebra ------------------------------------------------------------
    def _combine(self, op: str, other) -> "CoefficientExpression":
        other = _coerce(other, self.dim)
        self._check_dim(other)
        return CoefficientExpression(_BUILD[op](self.node, other.node), self.dim)

    def __add__(self, other):
        return self._combine("+", other)

    def __sub__(self, other):
        return self._combine("-", other)

    def __mul__(self, other):
        return self._combine("*", other)

    def __rmul__(self, other):
        return _coerce(other, self.dim) * self

    def __truediv__(self, other):
        return self._combine("/", other)

    def __neg__(self):
        return CoefficientExpression(_neg(self.node), self.dim)

    def conjugate(self) -> "CoefficientExpression":
        return CoefficientExpression(_conj(self.node), self.dim)

    # -- calculus -----------------------------------------------------------
    def differentiate(self, n: MultiIndex) -> "CoefficientExpression":
        if n.dim != self.dim:
            raise DimensionMismatchError(f"multi-index dimension {n.dim} != expression dimension {self.dim}")
        node = self.node
        for axis0, count in enumerate(n.entries):
            for _ in range(count):
                node = _diff(node, axis0 + 1)
        return CoefficientExpression(node, self.dim)

    def evaluate(self, q, t: float) -> complex:
        """Value at one point q (N coordinates) and time t."""
        if len(q) != self.dim:
            raise DimensionMismatchError(f"point dimension {len(q)} != expression dimension {self.dim}")
        return complex(np.ravel(_eval(self.node, np.reshape(q, (self.dim, 1)), t))[0])

    def held_on(self, meshes) -> "CoefficientExpression":
        """This expression with every maximal t-free subtree evaluated once on
        `meshes`.  Its `evaluate_on(meshes, t)` is bitwise this one's and walks
        only the nodes that contain t; it is valid on those meshes only."""
        return CoefficientExpression(_hold(self.node, meshes), self.dim)

    def evaluate_on(self, meshes, t) -> np.ndarray:
        """Evaluate over coordinate meshes (list of N broadcastable arrays).

        `t` is a float, or an array that broadcasts with the meshes to give
        each point its own time.
        """
        if len(meshes) != self.dim:
            raise DimensionMismatchError(f"{len(meshes)} meshes for dimension {self.dim}")
        shape = np.broadcast_shapes(*(np.shape(m) for m in meshes), np.shape(t))
        return np.broadcast_to(_eval(self.node, meshes, t), shape).copy()

    # -- predicates ---------------------------------------------------------
    @property
    def is_structural_zero(self) -> bool:
        return _is_const(self.node, 0)

    def constant_value(self) -> complex | None:
        """The folded constant if the expression is a literal, else None."""
        return self.node.value if isinstance(self.node, Const) else None

    # -- rendering ----------------------------------------------------------
    def to_string(self) -> str:
        return _print(self.node, _PLAIN)[0]

    def to_latex(self) -> str:
        return _print(self.node, _TEX)[0]

    def __str__(self) -> str:
        return self.to_string()


def _coerce(value, dim: int) -> CoefficientExpression:
    if isinstance(value, CoefficientExpression):
        return value
    if isinstance(value, (int, float, complex)):
        return CoefficientExpression(Const(complex(value)), dim)
    raise TypeError(f"cannot use {value!r} as an expression")


# ---------------------------------------------------------------------------
# Public constructors and operations

def parse(text: str, dim: int) -> CoefficientExpression:
    """Parse expression text in dimension `dim`."""
    return CoefficientExpression(_Parser(text, dim).parse(), dim)


def const(value: complex, dim: int) -> CoefficientExpression:
    return CoefficientExpression(Const(complex(value)), dim)


def call(func: str, arg: CoefficientExpression) -> CoefficientExpression:
    if func not in _FUNCTIONS:
        raise ValueError(f"unknown function '{func}'")
    return CoefficientExpression(_call(func, arg.node), arg.dim)


@dataclass(frozen=True)
class SamplingSpec:
    """The settings of the sampled checks: `samples` points per verdict, drawn
    with `seed` from the box [0, L_1) x ... x [0, L_N) that a grid with these
    `lengths` covers (default DEFAULT_LENGTH per axis) and t from [0, 1), and
    the relative tolerance `tol`.  A `samples` that is not an integer or is
    below 1, a `seed` that is not a non-negative integer, or a `tol` that is
    negative or not finite is refused here; lengths that are not positive and
    finite, or whose count is not the expression's dimension, are refused
    before a check draws.
    """

    samples: int = 32
    seed: int = 2024
    tol: float = 1e-9
    lengths: tuple[float, ...] | None = None

    def __post_init__(self):
        if check_integer(self.samples, "samples") < 1:
            raise ValueError(f"samples must be at least 1, got {self.samples}")
        if check_integer(self.seed, "seed") < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not (np.isfinite(self.tol) and self.tol >= 0):
            raise ValueError(f"tol must be non-negative and finite, got {self.tol}")

    def _draw(self, dim: int, budget: int = 1):
        """`budget * samples` points of the box [0, L_1) x ... x [0, L_N) x [0, 1):
        q as rows and t."""
        lengths = [DEFAULT_LENGTH] * dim if self.lengths is None else self.lengths
        box = [check_length(float(L)) for L in lengths]
        if len(box) != dim:
            raise DimensionMismatchError(f"sampling box has {len(box)} lengths for dimension {dim}")
        u = np.random.default_rng(self.seed).random((budget * self.samples, dim + 1))
        return np.asarray(box) * u[:, :dim], u[:, dim]


def approx_equal(a: CoefficientExpression, b: CoefficientExpression, spec: SamplingSpec = SamplingSpec()) -> bool:
    """Numerical expression equality on reproducible random sample points.

    True iff |a-b| <= tol*(1+|a|+|b|) at `spec.samples` points drawn from
    `spec`'s box.  Points where either side faults are skipped: a divide,
    invalid or overflow error, which `evaluate` reports with the faulting
    subexpression.  A 10x oversampling budget is drawn; fewer than `samples`
    valid points in it raise SamplingError unless they already show a
    mismatch.

    The budget is drawn at once and scaled as Generator.uniform scales, so
    row k holds exactly the q and t that drawing the points one at a time
    would give for the k-th attempt.  Each side is evaluated over all rows
    in one call of the same walker that `evaluate` and `evaluate_on` use,
    and the first `samples` rows where neither side faults are compared.
    """
    a._check_dim(b)
    q, t = spec._draw(a.dim, budget=10)
    va, faults_a, fault_a = _sample(a, q, t)
    vb, faults_b, fault_b = _sample(b, q, t)
    valid = np.flatnonzero(~(faults_a | faults_b))[:spec.samples]
    va, vb = va[valid], vb[valid]
    if np.any(np.abs(va - vb) > spec.tol * (1.0 + np.abs(va) + np.abs(vb))):
        return False
    if valid.size < spec.samples:
        raise SamplingError(
            f"only {valid.size}/{spec.samples} valid sample points after {q.shape[0]} draws "
            f"(first fault: {fault_a or fault_b})"
        )
    return True


def vanishes(e: CoefficientExpression, spec: SamplingSpec = SamplingSpec()) -> bool:
    """True iff `e` is exactly 0 at the first `spec.samples` points that
    `approx_equal` draws with the same spec.  A point where `e` faults
    counts as nonzero, so pruning by this test drops only genuine zeros."""
    values, faults, _ = _sample(e, *spec._draw(e.dim))
    return not (faults.any() or values.any())


def _sample(e: CoefficientExpression, q: np.ndarray, t: np.ndarray):
    """Values of `e` at the points (q[k], t[k]), a mask of the faulting ones
    and the error of the first fault (None without one).

    One walk over all points; only if that faults is each point evaluated
    on its own, to find which ones fault.
    """
    try:
        return np.broadcast_to(_eval(e.node, q.T, t), t.shape), np.zeros(t.shape, dtype=bool), None
    except EvaluationDomainError:
        pass
    values = np.zeros(t.shape, dtype=complex)
    faults = np.zeros(t.shape, dtype=bool)
    first = None
    for k, (point, when) in enumerate(zip(q, t)):
        try:
            values[k] = e.evaluate(point, when)
        except EvaluationDomainError as exc:
            faults[k] = True
            first = first or exc
    return values, faults, first


def contains_time(e: CoefficientExpression) -> bool:
    """True when the expression references t anywhere."""
    return _has_time(e.node)
