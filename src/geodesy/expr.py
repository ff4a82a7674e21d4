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
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (
    DomainError,
    NonHolomorphicPrimitiveError,
    ParseError,
    UnknownIdentifierError,
)

Scalar = Union[float, complex]

FUNCTIONS = ("exp", "log", "sin", "cos", "sinh", "cosh", "sqrt")
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

    @property
    def var(self) -> str:
        return "x" if self.mode == "real" else "z"

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

@dataclass(frozen=True)
class Jet2:
    """Value with exact first and second derivative (forward-mode, order 2)."""

    value: Scalar
    d1: Scalar
    d2: Scalar

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
        try:
            if o.value == 0:
                raise DomainError("division by zero")
        except ValueError:
            # an array of denominators has no single truth value; the try
            # costs the scalar path nothing
            if np.any(o.value == 0):
                raise DomainError("division by zero") from None
        v = self.value / o.value
        d1 = (self.d1 - v * o.d1) / o.value
        d2 = (self.d2 - 2 * d1 * o.d1 - v * o.d2) / o.value
        return Jet2(v, d1, d2)

    def __rtruediv__(self, other) -> "Jet2":
        return self._coerce(other) / self


def _compose(f0: Scalar, f1: Scalar, f2: Scalar, g: Jet2) -> Jet2:
    """Chain rule for f(g) given outer derivatives f0, f1, f2 at g.value."""
    return Jet2(f0, f1 * g.d1, f2 * g.d1 * g.d1 + f1 * g.d2)


def _power(base: Jet2, p: Union[int, float], is_complex: bool) -> Jet2:
    v = base.value
    if isinstance(p, float) and p == int(p):
        p = int(p)
    if isinstance(p, int):
        if p == 0:
            return Jet2.constant(1.0)
        if p == 1:
            return base
        if v == 0 and p < 0:
            raise DomainError("zero base with negative exponent")
        # p >= 2 keeps v**(p-2) finite at v == 0
        return _compose(v ** p, p * v ** (p - 1), p * (p - 1) * v ** (p - 2), base)
    if is_complex:
        if v == 0:
            raise DomainError("0^p with non-integer exponent")
        f0 = cmath.exp(p * cmath.log(v))
    else:
        if v <= 0:
            raise DomainError(f"negative or zero base {v!r} with non-integer exponent")
        f0 = math.exp(p * math.log(v))
    return _compose(f0, p * f0 / v, p * (p - 1) * f0 / (v * v), base)


def _apply_function(name: str, arg: Jet2, is_complex: bool) -> Jet2:
    m = cmath if is_complex else math
    v = arg.value
    try:
        if name == "exp":
            f0 = m.exp(v)
            return _compose(f0, f0, f0, arg)
        if name == "log":
            if v == 0 or (not is_complex and v < 0):
                raise DomainError(f"log at {v!r}")
            return _compose(m.log(v), 1.0 / v, -1.0 / (v * v), arg)
        if name == "sqrt":
            if v == 0 or (not is_complex and v < 0):
                raise DomainError(f"sqrt at {v!r}")
            f0 = m.sqrt(v)
            return _compose(f0, 0.5 / f0, -0.25 / (f0 * v), arg)
        if name == "sin":
            return _compose(m.sin(v), m.cos(v), -m.sin(v), arg)
        if name == "cos":
            return _compose(m.cos(v), -m.sin(v), -m.cos(v), arg)
        if name == "sinh":
            return _compose(m.sinh(v), m.cosh(v), m.sinh(v), arg)
        if name == "cosh":
            return _compose(m.cosh(v), m.sinh(v), m.cosh(v), arg)
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"{name} at {v!r}: {exc}") from exc
    raise AssertionError(f"unhandled function {name}")  # pragma: no cover


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


def _eval(node: Node, var: Jet2, is_complex: bool) -> Jet2:
    if isinstance(node, Literal):
        return Jet2.constant(node.value)
    if isinstance(node, Constant):
        return Jet2.constant(1j if node.name == "i" else CONSTANTS[node.name])
    if isinstance(node, Variable):
        return var
    if isinstance(node, Unary):
        return -_eval(node.operand, var, is_complex)
    if isinstance(node, Call):
        return _apply_function(node.func, _eval(node.arg, var, is_complex), is_complex)
    assert isinstance(node, Binary)
    if node.op == "^":
        return _power(_eval(node.left, var, is_complex), _literal_value(node.right), is_complex)
    left = _eval(node.left, var, is_complex)
    right = _eval(node.right, var, is_complex)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    return left / right


# --- the same tree over arrays of points ---------------------------------------
#
# numpy ufuncs return inf or nan where math/cmath raise, so every function
# value is checked: one bad element raises DomainError for the whole array.

def _checked(values, what: str):
    if not np.all(np.isfinite(values)):
        raise DomainError(f"{what} is not finite at some point")
    return values


def _power_array(base: Jet2, p: Union[int, float], is_complex: bool) -> Jet2:
    v = base.value
    if isinstance(p, float) and p == int(p):
        p = int(p)
    if isinstance(p, int):
        if p == 0:
            return Jet2.constant(1.0)
        if p == 1:
            return base
        if p < 0 and np.any(v == 0):
            raise DomainError("zero base with negative exponent")
        return _compose(_checked(v ** p, "power"), p * v ** (p - 1),
                        p * (p - 1) * v ** (p - 2), base)
    if np.any(v == 0) or (not is_complex and np.any(v < 0)):
        raise DomainError("negative or zero base with non-integer exponent")
    f0 = _checked(np.exp(p * np.log(v)), "power")
    return _compose(f0, p * f0 / v, p * (p - 1) * f0 / (v * v), base)


def _apply_function_array(name: str, arg: Jet2, is_complex: bool) -> Jet2:
    v = arg.value
    if name in ("log", "sqrt") and (np.any(v == 0) or (not is_complex and np.any(v < 0))):
        raise DomainError(f"{name} at a nonpositive point")
    f0 = _checked(getattr(np, name)(v), name)
    if name == "exp":
        return _compose(f0, f0, f0, arg)
    if name == "log":
        return _compose(f0, 1.0 / v, -1.0 / (v * v), arg)
    if name == "sqrt":
        return _compose(f0, 0.5 / f0, -0.25 / (f0 * v), arg)
    if name == "sin":
        return _compose(f0, np.cos(v), -f0, arg)
    if name == "cos":
        return _compose(f0, -np.sin(v), -f0, arg)
    if name == "sinh":
        return _compose(f0, np.cosh(v), f0, arg)
    if name == "cosh":
        return _compose(f0, np.sinh(v), f0, arg)
    raise AssertionError(f"unhandled function {name}")  # pragma: no cover


def _eval_array(node: Node, var: Jet2, is_complex: bool) -> Jet2:
    """``_eval`` with ndarray jet parts; +, -, *, / are Jet2's own operators."""
    if isinstance(node, (Literal, Constant, Variable)):
        return _eval(node, var, is_complex)
    if isinstance(node, Unary):
        return -_eval_array(node.operand, var, is_complex)
    if isinstance(node, Call):
        return _apply_function_array(node.func, _eval_array(node.arg, var, is_complex),
                                     is_complex)
    if node.op == "^":
        return _power_array(_eval_array(node.left, var, is_complex),
                            _literal_value(node.right), is_complex)
    left = _eval_array(node.left, var, is_complex)
    right = _eval_array(node.right, var, is_complex)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    return left / right


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
        with np.errstate(all="ignore"):
            jet = _eval_array(expr.root, Jet2.variable(at), is_complex)
        # constant subtrees stay scalars; every part gets the shape of ``at``
        return Jet2(*(part if np.shape(part) == at.shape else np.full(at.shape, part)
                      for part in (jet.value, jet.d1, jet.d2)))
    is_complex = expr.mode == "complex" or isinstance(at, complex)
    if is_complex:
        at = complex(at)
    return _eval(expr.root, Jet2.variable(at), is_complex)
