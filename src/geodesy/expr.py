"""Coefficient functions h and their exact first/second derivatives.

The grammar is conventional infix over a single variable ("x" in real mode,
"z" in complex mode): ``+ - * /``, right-associative ``^`` with a numeric
literal exponent, unary minus (binding looser than ``^``), the functions
exp, log, sin, cos, sinh, cosh, sqrt, and the constants pi, e and (complex
mode only) i.

Evaluation propagates order-2 jets (value, first, second derivative)
structurally through the tree, so derivatives are exact to roundoff.
sqrt and log take the principal branch at the evaluation point; branch
continuity along curves is the caller's concern.

There is one evaluator: the tree is compiled once into nested closures, and
the same closures run on a real number (with math), a complex one (cmath)
or an ndarray of points (numpy). Each function's derivatives are stated once,
in ``DERIVATIVES``. One domain rule holds for all three: a log, sqrt or
power guard that fails, an overflow, division by zero or invalid operation
in the library, or a value, d1 or d2 that is not finite at any point raises
DomainError.

``Jet2`` is a plain slotted class, not a dataclass: the geodesic solver
builds several per right-hand side call, and a frozen dataclass pays for
``object.__setattr__`` on each field. It has no ``__eq__``, so a jet equals
no number.

Each expression memoises its last scalar evaluation: the solver's stop
margin and the last stage of a Runge-Kutta step evaluate h where the call
before did. A hit needs a point of the same type that compares equal. A
failed evaluation is never stored, so a point that raised raises again;
arrays bypass the memo. Zeros are never stored: -0.0 == 0.0 and
-1-0j == -1+0j, yet h = x, or a branch cut of log or sqrt, tells them
apart, so a complex point needs both parts nonzero.
"""

from __future__ import annotations

import cmath
import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .errors import (
    DomainError,
    NonHolomorphicPrimitiveError,
    ParseError,
    UnknownIdentifierError,
)

Scalar = Union[float, complex]

#: (f', f'') of each function at v, given f0 = f(v), in the library m
#: (math, cmath or numpy)
DERIVATIVES = {
    "exp": lambda m, v, f0: (f0, f0),
    "log": lambda m, v, f0: (1.0 / v, -1.0 / (v * v)),
    "sin": lambda m, v, f0: (m.cos(v), -f0),
    "cos": lambda m, v, f0: (-m.sin(v), -f0),
    "sinh": lambda m, v, f0: (m.cosh(v), f0),
    "cosh": lambda m, v, f0: (m.sinh(v), f0),
    "sqrt": lambda m, v, f0: (0.5 / f0, -0.25 / (f0 * v)),
}
FUNCTIONS = tuple(DERIVATIVES)
#: recognized but rejected in complex mode: they break holomorphy
NON_HOLOMORPHIC = ("abs", "re", "im", "conj", "arg")
CONSTANTS = {"pi": math.pi, "e": math.e}


# --- AST ---------------------------------------------------------------------

@dataclass(frozen=True)
class Literal:
    value: Union[int, float]


@dataclass(frozen=True)
class Constant:
    name: str


@dataclass(frozen=True)
class Variable:
    name: str


@dataclass(frozen=True)
class Unary:
    operand: "Node"


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"


Node = Union[Literal, Constant, Variable, Unary, Binary, Call]


@dataclass(frozen=True)
class Expression:
    """A parsed coefficient function, immutable and safe to share."""

    root: Node
    mode: str  # "real" | "complex"
    source: str
    #: (point, Jet2) of the last scalar :func:`eval_jet2` memoised; not a field
    _last = None

    @cached_property
    def compiled(self):
        """The tree as one closure f(var, m, is_complex) -> Jet2 (``_compile``)."""
        return _compile(self.root)

    def render(self) -> str:
        return _render(self.root, 0)

    def __call__(self, at: Scalar) -> Scalar:
        return eval_jet2(self, at).value


# --- tokenizer ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<float>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)"
    r"|(?P<int>\d+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[+\-*/^()]))"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "ident" | one of "+-*/^()" | "end"
    text: str
    pos: int
    value: Union[int, float, None] = None


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None or m.end() == pos:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(source) - len(stripped)
            raise ParseError(f"unexpected character {source[bad_at]!r}", bad_at)
        if m.group("float") is not None:
            tokens.append(_Token("num", m.group("float"), m.start("float"), float(m.group("float"))))
        elif m.group("int") is not None:
            tokens.append(_Token("num", m.group("int"), m.start("int"), int(m.group("int"))))
        elif m.group("ident") is not None:
            tokens.append(_Token("ident", m.group("ident"), m.start("ident")))
        else:
            op = m.group("op")
            tokens.append(_Token(op, op, m.start("op")))
        pos = m.end()
    tokens.append(_Token("end", "", len(source)))
    return tokens


# --- parser (recursive descent) ---------------------------------------------

class _Parser:
    def __init__(self, source: str, mode: str):
        self.source = source
        self.mode = mode
        self.tokens = _tokenize(source)
        self.i = 0

    @property
    def tok(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        t = self.tok
        self.i += 1
        return t

    def expect(self, kind: str) -> _Token:
        if self.tok.kind != kind:
            raise ParseError(f"expected {kind!r}", self.tok.pos, {kind})
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        if self.tok.kind != "end":
            raise ParseError(f"unexpected trailing {self.tok.text!r}", self.tok.pos, {"end of input"})
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.tok.kind in ("+", "-"):
            op = self.advance().kind
            node = Binary(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.tok.kind in ("*", "/"):
            op = self.advance().kind
            node = Binary(op, node, self.unary())
        return node

    def unary(self) -> Node:
        if self.tok.kind == "-":
            self.advance()
            return Unary(self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        if self.tok.kind == "^":
            self.advance()
            return Binary("^", base, self.exponent())
        return base

    def exponent(self) -> Node:
        # the exponent must be a numeric literal, optionally signed,
        # optionally itself a right-associated literal power
        if self.tok.kind == "-":
            self.advance()
            return Unary(self.exponent())
        if self.tok.kind == "(":
            self.advance()
            inner = self.exponent()
            self.expect(")")
            node: Node = inner
        elif self.tok.kind == "num":
            node = Literal(self.advance().value)
        else:
            raise ParseError("exponent must be a numeric literal", self.tok.pos, {"number"})
        if self.tok.kind == "^":
            self.advance()
            return Binary("^", node, self.exponent())
        return node

    def atom(self) -> Node:
        t = self.tok
        if t.kind == "num":
            self.advance()
            return Literal(t.value)
        if t.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        if t.kind == "ident":
            self.advance()
            name = t.text
            if self.tok.kind == "(":
                if name in NON_HOLOMORPHIC:
                    if self.mode == "complex":
                        raise NonHolomorphicPrimitiveError(
                            f"{name!r} is not holomorphic", t.pos)
                    raise UnknownIdentifierError(f"unknown function {name!r}", t.pos)
                if name not in FUNCTIONS:
                    raise UnknownIdentifierError(f"unknown function {name!r}", t.pos)
                self.advance()
                arg = self.expr()
                self.expect(")")
                return Call(name, arg)
            if name == ("x" if self.mode == "real" else "z"):
                return Variable(name)
            if name in CONSTANTS:
                return Constant(name)
            if name == "i":
                if self.mode == "complex":
                    return Constant("i")
                raise UnknownIdentifierError("'i' requires complex mode", t.pos)
            if name in ("x", "z"):
                raise UnknownIdentifierError(
                    f"variable {name!r} not available in {self.mode} mode", t.pos)
            raise UnknownIdentifierError(f"unknown identifier {name!r}", t.pos)
        raise ParseError("expected a number, identifier or '('", t.pos,
                         {"number", "identifier", "("})


def parse(source: str, mode: str = "real") -> Expression:
    """Parse ``source`` into an :class:`Expression` over x (real) or z (complex)."""
    if mode not in ("real", "complex"):
        raise ValueError(f"mode must be 'real' or 'complex', got {mode!r}")
    if not source or not source.strip():
        raise ParseError("empty source", 0)
    return Expression(_Parser(source, mode).parse(), mode, source)


# --- rendering ---------------------------------------------------------------

# precedence levels: +- = 1, */ = 2, unary - = 2 (renders between * and ^), ^ = 3
def _render(node: Node, parent_level: int) -> str:
    if isinstance(node, Literal):
        return repr(node.value)
    if isinstance(node, (Constant, Variable)):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({_render(node.arg, 0)})"
    if isinstance(node, Unary):
        text = "-" + _render(node.operand, 3)
        return f"({text})" if parent_level >= 2 else text
    assert isinstance(node, Binary)
    if node.op == "^":
        base = _render(node.left, 4)
        exp = _render(node.right, 4)
        text = f"{base}^{exp}"
        return f"({text})" if parent_level >= 4 else text
    level = 1 if node.op in "+-" else 2
    left = _render(node.left, level - 1)
    # +,-,*,/ are left-associative: parenthesize an equal-level right child
    right = _render(node.right, level)
    text = f"{left}{node.op}{right}"
    return f"({text})" if parent_level >= level else text


# --- order-2 jets ------------------------------------------------------------

def _any(flags) -> bool:
    """``flags`` for a number; whether any entry is set for an array."""
    try:
        return bool(flags)
    except ValueError:
        # an array has no single truth value; the try costs a number nothing
        return bool(np.any(flags))


class Jet2:
    """Value with exact first and second derivative (forward-mode, order 2)."""

    __slots__ = ("value", "d1", "d2")

    def __init__(self, value: Scalar, d1: Scalar, d2: Scalar):
        self.value = value
        self.d1 = d1
        self.d2 = d2

    def __repr__(self) -> str:
        return f"Jet2(value={self.value!r}, d1={self.d1!r}, d2={self.d2!r})"

    @staticmethod
    def variable(at: Scalar) -> "Jet2":
        return Jet2(at, 1.0, 0.0)

    @staticmethod
    def constant(c: Scalar) -> "Jet2":
        return Jet2(c, 0.0, 0.0)

    @staticmethod
    def _coerce(other) -> "Jet2":
        if isinstance(other, Jet2):
            return other
        return Jet2(other, 0.0, 0.0)

    def __add__(self, other) -> "Jet2":
        o = self._coerce(other)
        return Jet2(self.value + o.value, self.d1 + o.d1, self.d2 + o.d2)

    __radd__ = __add__

    def __sub__(self, other) -> "Jet2":
        o = self._coerce(other)
        return Jet2(self.value - o.value, self.d1 - o.d1, self.d2 - o.d2)

    def __rsub__(self, other) -> "Jet2":
        return self._coerce(other) - self

    def __neg__(self) -> "Jet2":
        return Jet2(-self.value, -self.d1, -self.d2)

    def __mul__(self, other) -> "Jet2":
        o = self._coerce(other)
        return Jet2(
            self.value * o.value,
            self.d1 * o.value + self.value * o.d1,
            self.d2 * o.value + 2 * self.d1 * o.d1 + self.value * o.d2,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet2":
        o = self._coerce(other)
        if _any(o.value == 0):
            raise DomainError("division by zero")
        v = self.value / o.value
        d1 = (self.d1 - v * o.d1) / o.value
        d2 = (self.d2 - 2 * d1 * o.d1 - v * o.d2) / o.value
        return Jet2(v, d1, d2)

    def __rtruediv__(self, other) -> "Jet2":
        return self._coerce(other) / self


def _compose(f0: Scalar, f1: Scalar, f2: Scalar, g: Jet2) -> Jet2:
    """Chain rule for f(g) given outer derivatives f0, f1, f2 at g.value."""
    return Jet2(f0, f1 * g.d1, f2 * g.d1 * g.d1 + f1 * g.d2)


def _finite(jet: Jet2) -> bool:
    """Whether value, d1 and d2 are finite at every point: x * 0 is 0 for a
    finite x, and nan (numpy: an error) for inf or nan."""
    return not _any(jet.value * 0 + jet.d1 * 0 + jet.d2 * 0 != 0)


def _power(base: Jet2, p: Union[int, float], m, is_complex: bool) -> Jet2:
    v = base.value
    if isinstance(p, int):
        if p == 0:
            # the only node that drops its operand, so the only one that must
            # test it: an overflow there would vanish for numbers alone
            if not _finite(base):
                raise DomainError("zeroth power of a non-finite base")
            return Jet2.constant(1.0)
        if p == 1:
            return base
        if p < 0 and _any(v == 0):
            raise DomainError("zero base with negative exponent")
        # p >= 2 keeps v**(p-2) finite at v == 0
        return _compose(v ** p, p * v ** (p - 1), p * (p - 1) * v ** (p - 2), base)
    if _any(v == 0) or (not is_complex and _any(v < 0)):
        raise DomainError("negative or zero base with non-integer exponent")
    f0 = m.exp(p * m.log(v))
    return _compose(f0, p * f0 / v, p * (p - 1) * f0 / (v * v), base)


def _apply_function(name: str, arg: Jet2, m, is_complex: bool) -> Jet2:
    v = arg.value
    if name in ("log", "sqrt") and (_any(v == 0) or (not is_complex and _any(v < 0))):
        raise DomainError(f"{name} at a zero or negative point")
    f0 = getattr(m, name)(v)
    return _compose(f0, *DERIVATIVES[name](m, v, f0), arg)


def _literal_value(node: Node) -> Union[int, float]:
    if isinstance(node, Literal):
        return node.value
    if isinstance(node, Unary):
        return -_literal_value(node.operand)
    if isinstance(node, Binary) and node.op == "^":
        base = _literal_value(node.left)
        p = _literal_value(node.right)
        return base ** p
    raise AssertionError("exponent is not a literal")  # pragma: no cover


_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _compile(node: Node):
    """``node`` as a closure f(var, m, is_complex) -> Jet2, where ``var`` is
    the jet of the variable and ``m`` the library (math, cmath or numpy)."""
    if isinstance(node, (Literal, Constant)):
        if isinstance(node, Literal):
            jet = Jet2.constant(node.value)
        else:
            jet = Jet2.constant(1j if node.name == "i" else CONSTANTS[node.name])
        return lambda var, m, is_complex: jet
    if isinstance(node, Variable):
        return lambda var, m, is_complex: var
    if isinstance(node, Unary):
        operand = _compile(node.operand)
        return lambda var, m, is_complex: -operand(var, m, is_complex)
    if isinstance(node, Call):
        name, arg = node.func, _compile(node.arg)
        return lambda var, m, is_complex: _apply_function(
            name, arg(var, m, is_complex), m, is_complex)
    left = _compile(node.left)
    if node.op == "^":
        p = _literal_value(node.right)
        if isinstance(p, float) and p.is_integer():
            p = int(p)
        return lambda var, m, is_complex: _power(left(var, m, is_complex), p, m, is_complex)
    right, op = _compile(node.right), _OPERATORS[node.op]
    return lambda var, m, is_complex: op(left(var, m, is_complex), right(var, m, is_complex))


def _evaluate(expr: Expression, at, m, is_complex: bool) -> Jet2:
    """The one domain rule: a failed guard, an error of the library, or a
    non-finite value, d1 or d2 at any point is a DomainError."""
    try:
        jet = expr.compiled(Jet2.variable(at), m, is_complex)
        finite = _finite(jet)
    except (ValueError, ArithmeticError) as exc:
        raise DomainError(f"{expr.source}: {exc}") from exc
    if not finite:
        raise DomainError(f"{expr.source} is not finite at some point")
    return jet


def eval_jet2(expr: Expression, at: Scalar) -> Jet2:
    """Evaluate ``expr`` with its first two derivatives at a point.

    Real-mode expressions evaluated at a complex point are promoted to the
    complex branch (used when restricting real families to complex charts is
    never needed, but harmless); complex-mode expressions always use the
    principal branches of cmath.

    ``at`` may be an ndarray of points: the jet parts are then arrays of its
    shape, and DomainError is raised if the expression is bad at any point.
    """
    if isinstance(at, np.ndarray):
        is_complex = expr.mode == "complex" or np.iscomplexobj(at)
        at = at.astype(complex if is_complex else float)
        # numpy raises where math and cmath do; an underflow to 0 is no error there
        with np.errstate(all="raise", under="ignore"):
            jet = _evaluate(expr, at, np, is_complex)
        # constant subtrees stay scalars; every part gets the shape of ``at``
        return Jet2(*(part if np.shape(part) == at.shape else np.full(at.shape, part)
                      for part in (jet.value, jet.d1, jet.d2)))
    last = expr._last
    if last is not None and type(last[0]) is type(at) and last[0] == at:
        return last[1]
    if expr.mode == "complex" or isinstance(at, complex):
        jet = _evaluate(expr, complex(at), cmath, True)
    else:
        jet = _evaluate(expr, at, math, False)
    if (at.real and at.imag) if isinstance(at, complex) else at:  # no zeros: see above
        expr.__dict__["_last"] = (at, jet)  # one assignment: readers see a whole entry
    return jet
