"""Symbolic coefficient expressions: parsing, differentiation, evaluation.

Coefficient functions of the configuration variables q1..qN and time t are
held as small immutable ASTs of seven node kinds: Const, Coord (q_a),
TimeVar (t), Binary (+ - * /), Pow (integer exponent), Neg and Call (exp,
sin, cos, log, sqrt and conj).  `_BINARY` maps an operator to its
arithmetic and `_FUNCTIONS` a function name to its cmath function; the
parser and the printer take their names from them.  One printer,
`_print`, writes a tree in either of two spellings: plain text
(`to_string` and error messages, which `parse` reads back) and TeX
(`to_latex`).  The algebra deliberately stops far short of a CAS: smart
constructors (`_BUILD` maps an operator to its own) fold constants, drop
additive/multiplicative zeros and fold a - a and a + (-1)*a to 0 so Leibniz
expansions stay compact, and expression equality is decided numerically on
random sample points rather than by canonicalization.  Zero is structural:
an expression is 0 only when it folded to the literal 0.

One tree walker, `_walk`, computes values with one of two tables.  The
grid table applies numpy's ufuncs to complex arrays under errstate(raise):
it serves `evaluate`, `evaluate_on` and `held_on`, over grid meshes and at
a single point alike.  The scalar table applies Python complex arithmetic
and cmath to one point: it serves the sampled checks and constant folding,
and it refuses the inf and nan that Python's arithmetic returns silently on
overflow.  A fault is a divide-by-zero, invalid or overflow error; in either
table it raises EvaluationDomainError naming the innermost subexpression
whose operation faulted, in the one wording of `_fault`: the kind of fault and
the node's function, "power" or operator ("overflow encountered in multiply"),
not the names of numpy's fast paths.  numpy is imported on first grid use.

The sampled check, `approx_equal`, takes its settings from one
`SamplingSpec`: it draws q uniformly from the periodic box
[0, L_1) x ... x [0, L_N) of a grid (by default [0, DEFAULT_LENGTH) per
axis, the CLI's default domain) and t from [0, 1).  The points are
`random.Random(seed).random` draws, a stream Python keeps the same for an
int seed on every version.  The check walks them one at a time in the scalar
table and stops at the first point that decides its verdict.
The spec refuses fewer than one sample, and a tolerance that is negative or
not finite, when it is built.

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

import cmath
import functools
import itertools
import math
import operator
import random
import re
from dataclasses import dataclass, replace
from typing import Union

from ._numpy import np
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


def _log(z: complex) -> complex:
    if z:
        return cmath.log(z)
    raise FloatingPointError("divide by zero")  # numpy's fault for log(0), where cmath raises ValueError


# Each function in Python complex arithmetic: the scalar table's functions,
# and the names that the parser, the printer and `call` accept.
_FUNCTIONS = {
    "exp": cmath.exp, "sin": cmath.sin, "cos": cmath.cos, "log": _log, "sqrt": cmath.sqrt,
    "conj": complex.conjugate,
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

def _fold(node: Node) -> Node:
    """Const(value of `node`, a tree of constants), or `node` itself if
    computing it faults, so that evaluating the node names the fault.  Folds
    compute in the scalar table: numpy's arithmetic differs in the last bit
    for some products and quotients, which would change derived tables."""
    try:
        return Const(_walk(node, (), None, _SCALAR))
    except EvaluationDomainError:
        return node


def _binary(op: str, a: Node, b: Node) -> Node:
    """Binary(op, a, b), folded to a constant when both sides are constants."""
    if isinstance(a, Const) and isinstance(b, Const):
        return _fold(Binary(op, a, b))
    return Binary(op, a, b)


def _add(a: Node, b: Node) -> Node:
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    if _is_negation(a, b) or _is_negation(b, a):
        return _ZERO
    return _binary("+", a, b)


def _is_negation(a: Node, b: Node) -> bool:
    """True when b is (-1)*a for a non-constant a, the one like-terms rule."""
    return (isinstance(b, Binary) and b.op == "*" and _is_const(b.left, -1) and b.right == a
            and not isinstance(a, Const))


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
        return _fold(Pow(base, exponent))
    return Pow(base, exponent)


def _call(func: str, arg: Node) -> Node:
    if func == "conj":
        return _conj(arg)
    if isinstance(arg, Const):
        return _fold(Call(func, arg))
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

def _walk(node: Node, coords, t, table: dict):
    """Value of `node` at `coords` (one value or array per axis) and time `t`,
    computed with `table`: `_SCALAR` or `_grid_table()`."""
    kind = type(node)
    if kind is Const:
        return table["const"](node.value)
    if kind is Coord:
        return coords[node.axis - 1]
    if kind is TimeVar:
        return t
    if kind is _Held:
        return node.value
    # A fault in a child is converted by the child, so this names the
    # innermost node whose own operation faulted.
    try:
        if kind is Binary:
            return table["binary"][node.op](_walk(node.left, coords, t, table), _walk(node.right, coords, t, table))
        if kind is Call:
            return table["functions"][node.func](_walk(node.arg, coords, t, table))
        if kind is Neg:
            return -_walk(node.arg, coords, t, table)
        return table["power"](_walk(node.base, coords, t, table), node.exponent)
    except ArithmeticError as exc:
        raise EvaluationDomainError(_fault(exc, node), _print(node, _PLAIN)[0]) from exc


# The name of each operator's ufunc, which names its faults in both tables
_UFUNCS = {"+": "add", "-": "subtract", "*": "multiply", "/": "divide"}


def _fault(exc: ArithmeticError, node: Node) -> str:
    """The text of the fault `exc` at `node`, the same in both tables: its kind
    is numpy's errstate text up to " encountered", or "overflow" for a Python
    OverflowError and "invalid value" for the ZeroDivisionError of 0 to a
    negative power; its name is the node's function, "power", or the
    operator's ufunc name."""
    kind = {OverflowError: "overflow", ZeroDivisionError: "invalid value"}.get(type(exc), str(exc))
    name = node.func if isinstance(node, Call) else "power" if isinstance(node, Pow) else _UFUNCS[node.op]
    return f"{kind.split(' encountered')[0]} encountered in {name}"


def _finite(op):
    """`op`, refusing a result that is inf or nan, which Python complex arithmetic returns
    silently on overflow."""
    def checked(a, b):
        value = op(a, b)
        if cmath.isfinite(value):
            return value
        raise OverflowError

    return checked


def _divide(a: complex, b: complex) -> complex:
    if b:
        return a / b
    raise FloatingPointError("divide by zero" if a else "invalid value")  # numpy's faults for x/0 and 0/0


# The scalar table: Python complex numbers at one point, for the sampled
# checks and for constant folding.
_SCALAR = {
    "const": complex,
    "binary": {op: _finite(_divide if op == "/" else f) for op, f in _BINARY.items()},
    "power": _finite(operator.pow),
    "functions": _FUNCTIONS,
}


@functools.cache
def _grid_table() -> dict:
    """The grid table: numpy ufuncs on complex arrays, run under errstate(raise)
    by `_eval`.  Built on first use, so that importing this module does not import numpy."""
    return {
        "const": np.complex128,  # so that unfolded constants fault too
        "binary": _BINARY,
        "power": operator.pow,
        "functions": {func: getattr(np, "conjugate" if func == "conj" else func) for func in _FUNCTIONS},
    }


def _eval(node: Node, coords, t):
    """Value of `node` at the points given by one coordinate array per axis
    and a time `t` (a float or an array); all of them broadcast together.

    Returns a complex array, or a scalar when `node` uses neither q nor an
    array t.  Floating-point faults raise EvaluationDomainError.
    """
    coords = [np.asarray(c, dtype=complex) for c in coords]
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        return _walk(node, coords, np.asarray(t, dtype=complex), _grid_table())


@dataclass(frozen=True, eq=False)
class _Held:
    """A t-free subtree evaluated once on one set of coordinates, printed as the subtree."""

    node: Node
    value: object


def _contains(node: Node, leaf: type) -> bool:
    """True when `node` has a leaf of type `leaf` (Coord or TimeVar)."""
    if isinstance(node, leaf):
        return True
    if isinstance(node, Binary):
        return _contains(node.left, leaf) or _contains(node.right, leaf)
    if isinstance(node, (Neg, Call)):
        return _contains(node.arg, leaf)
    if isinstance(node, Pow):
        return _contains(node.base, leaf)
    return False


def _hold(node: Node, coords):
    """`node` with each maximal t-free non-leaf subtree held at its value on
    `coords`; a subtree that faults there stays, so that it faults as before."""
    if isinstance(node, (Const, Coord, TimeVar)):
        return node
    if not _contains(node, TimeVar):
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
            if math.isinf(number):
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
        object.__setattr__(self, "samples", check_integer(self.samples, "samples"))
        if self.samples < 1:
            raise ValueError(f"samples must be at least 1, got {self.samples}")
        object.__setattr__(self, "seed", check_integer(self.seed, "seed"))
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValueError(f"tol must be non-negative and finite, got {self.tol}")

    def _points(self, dim: int):
        """The sample points without end, each as (q, t) in complex numbers:
        `random.Random(seed).random()` draws dim + 1 doubles per point, in
        order q_1..q_N then t, with q_a = L_a * draw.  Python guarantees that
        stream for an int seed on every version."""
        lengths = [DEFAULT_LENGTH] * dim if self.lengths is None else self.lengths
        box = [check_length(float(L)) for L in lengths]
        if len(box) != dim:
            raise DimensionMismatchError(f"sampling box has {len(box)} lengths for dimension {dim}")
        draw = random.Random(self.seed).random
        return ((tuple(complex(L * draw()) for L in box), complex(draw())) for _ in itertools.count())


def approx_equal(a: CoefficientExpression, b: CoefficientExpression, spec: SamplingSpec = SamplingSpec()) -> bool:
    """Numerical expression equality on reproducible random sample points.

    True iff |a-b| <= tol*(1+|a|+|b|) at the first `spec.samples` points of
    `spec` where neither side faults.  A fault is a divide, invalid or
    overflow error, named with its subexpression as `evaluate` names it.  The
    points are walked one at a time in the scalar table, and the first
    mismatch ends the check.  Fewer than `samples` valid points among the
    first 10 x `samples` raise SamplingError naming a's first fault, or b's
    if a has none.
    """
    a._check_dim(b)
    budget, valid = 10 * spec.samples, 0
    fault_a = fault_b = None
    for q, t in itertools.islice(spec._points(a.dim), budget):
        try:
            va = _walk(a.node, q, t, _SCALAR)
        except EvaluationDomainError as exc:
            fault_a = fault_a or exc
            continue
        try:
            vb = _walk(b.node, q, t, _SCALAR)
        except EvaluationDomainError as exc:
            fault_b = fault_b or exc
            continue
        if _modulus(va - vb) > spec.tol * (1.0 + _modulus(va) + _modulus(vb)):
            return False
        valid += 1
        if valid == spec.samples:
            return True
    raise SamplingError(
        f"only {valid}/{spec.samples} valid sample points after {budget} draws (first fault: {fault_a or fault_b})"
    )


def _modulus(z: complex) -> float:
    """|z|, inf where it exceeds the float range (numpy's abs), where abs() raises."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def contains_time(e: CoefficientExpression) -> bool:
    """True when the expression references t anywhere."""
    return _contains(e.node, TimeVar)
