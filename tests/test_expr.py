"""Parser and order-2 jet evaluation."""

import cmath
import contextlib
import math
import operator

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geodesy import expr
from geodesy.errors import (
    DomainError,
    NonHolomorphicPrimitiveError,
    ParseError,
    UnknownIdentifierError,
)
from geodesy.expr import Binary, Call, Constant, Literal, Unary, Variable, eval_jet2, parse


def test_grammar_smoke_power_plus_one():
    tree = parse("x^2 + 1").root
    assert tree == Binary("+", Binary("^", Variable("x"), Literal(2)), Literal(1))


def test_malformed_input_reports_position():
    with pytest.raises(ParseError) as err:
        parse("2*")
    assert err.value.position == 2


def test_complex_mode_accepts_holomorphic_primitives():
    e = parse("sin(z)*exp(z)", "complex")
    assert e.root == Binary("*", Call("sin", Variable("z")), Call("exp", Variable("z")))


@pytest.mark.parametrize("source, at, expected", [
    ("x^2", 2.0, (4.0, 4.0, 2.0)),
    ("sin(x)", 0.0, (0.0, 1.0, 0.0)),
    ("x^2+1", 3.0, (10.0, 6.0, 2.0)),
    ("sinh(x)", 0.0, (0.0, 1.0, 0.0)),
    ("cosh(x)", 0.0, (1.0, 0.0, 1.0)),
])
def test_known_jets(source, at, expected):
    jet = eval_jet2(parse(source), at)
    assert jet.value == pytest.approx(expected[0], abs=1e-14)
    assert jet.d1 == pytest.approx(expected[1], abs=1e-14)
    assert jet.d2 == pytest.approx(expected[2], abs=1e-14)


def test_euler_identity_jet():
    jet = eval_jet2(parse("exp(z)", "complex"), 1j * math.pi)
    for part in (jet.value, jet.d1, jet.d2):
        assert part == pytest.approx(-1.0, abs=1e-14)


def test_precedence_and_unary_minus():
    assert parse("2+3*4^2")(0.0) == 50.0
    assert parse("-x^2")(3.0) == -9.0
    assert parse("x^2^3")(2.0) == 256.0  # right-associative exponent
    assert parse("x^-2")(2.0) == 0.25
    assert parse("(1+x)^2.5")(1.0) == pytest.approx(2.0 ** 2.5)


def test_constants():
    assert parse("pi")(0.0) == math.pi
    assert parse("e")(0.0) == math.e
    assert parse("i*z", "complex")(2.0 + 0j) == 2j


@pytest.mark.parametrize("source, mode, exc", [
    ("foo(x)", "real", UnknownIdentifierError),
    ("y+1", "real", UnknownIdentifierError),
    ("i*x", "real", UnknownIdentifierError),
    ("z", "real", UnknownIdentifierError),
    ("abs(z)", "complex", NonHolomorphicPrimitiveError),
    ("x^x", "real", ParseError),
    ("", "real", ParseError),
    ("(x+1", "real", ParseError),
])
def test_rejections(source, mode, exc):
    with pytest.raises(exc):
        parse(source, mode)


@pytest.mark.parametrize("source, at", [
    ("log(x)", -1.0),
    ("sqrt(x)", -4.0),
    ("1/(x-1)", 1.0),
    ("x^0.5", -2.0),
    ("log(z)", 0j),
    ("x^400", 10.0),
    ("log(x^4^4)", 0.1),
    # overflows that ^0 would hide: in numpy's exp, in float division
    ("exp(exp(exp(x)))^0", 2.0),
    ("(1/x)^0", 1e-120),
])
def test_domain_errors(source, at):
    """At the number and at an array holding it: one domain rule for both."""
    mode = "complex" if "z" in source else "real"
    for point in (at, np.array([at, 1.0])):
        with pytest.raises(DomainError):
            eval_jet2(parse(source, mode), point)


def test_render_round_trip_fixed_cases():
    for source in ["x^2 + 1", "-x^2", "2*-3+x", "sin(x)*exp(x)/(1+x)",
                   "x^-2", "(x+1)^2", "1-(2-x)", "x/(x*x)", "-(x+1)"]:
        e = parse(source)
        again = parse(e.render())
        assert again.root == e.root, source


# --- randomized trees ---------------------------------------------------------

_literals = st.one_of(
    st.integers(min_value=0, max_value=9).map(Literal),
    st.floats(min_value=0.001, max_value=50.0, allow_nan=False,
              allow_infinity=False).map(Literal),
)

_exponents = st.one_of(
    st.integers(min_value=0, max_value=4).map(Literal),
    st.integers(min_value=1, max_value=3).map(lambda k: Unary(Literal(k))),
)


def _trees(leaf):
    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from("+-*/"), children, children)
            .map(lambda t: Binary(*t)),
            st.tuples(children, _exponents).map(lambda t: Binary("^", *t)),
            children.map(Unary),
            st.tuples(st.sampled_from(expr.FUNCTIONS), children)
            .map(lambda t: Call(*t)),
        )
    return st.recursive(leaf, extend, max_leaves=12)


@settings(max_examples=120, deadline=None)
@given(_trees(st.one_of(_literals, st.just(Variable("x")))))
def test_render_reparse_identity(tree):
    rendered = expr._render(tree, 0)
    assert parse(rendered).root == tree


def _subtrees(node):
    yield node
    for child in (getattr(node, "operand", None), getattr(node, "arg", None),
                  getattr(node, "left", None), getattr(node, "right", None)):
        if child is not None:
            yield from _subtrees(child)


def _jet_scale(tree, x):
    """Largest jet part over every subtree at x: rounding differences
    between math and numpy grow with it."""
    parts = []
    for node in _subtrees(tree):
        jet = eval_jet2(expr.Expression(node, "real", ""), x)
        parts += [abs(jet.value), abs(jet.d1), abs(jet.d2)]
    return max(parts)


@settings(max_examples=120, deadline=None)
@given(_trees(st.one_of(_literals, st.just(Variable("x")))),
       st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=6))
def test_array_jets_equal_scalar_jets(tree, xs):
    """eval_jet2 over an ndarray equals eval_jet2 point by point; a DomainError
    at any point is a DomainError for the whole array."""
    e = expr.Expression(tree, "real", expr._render(tree, 0))
    at = np.array(xs)
    scalar, bad = [], False
    for x in xs:
        try:
            scalar.append(eval_jet2(e, x))
        except DomainError:
            bad = True
    if bad:
        with pytest.raises(DomainError):
            eval_jet2(e, at)
        return
    parts = np.array([[j.value, j.d1, j.d2] for j in scalar])
    scale = max(_jet_scale(tree, x) for x in xs)
    assume(scale < 1e8)
    jet = eval_jet2(e, at)
    for k, got in enumerate((jet.value, jet.d1, jet.d2)):
        assert got.shape == at.shape
        assert np.allclose(got, parts[:, k], rtol=1e-9, atol=1e-9 * scale)


COMPLEX_STEP = 1e-20


@settings(max_examples=200, deadline=None)
@given(_trees(st.one_of(_literals, st.just(Variable("x")))), st.floats(-2.0, 2.0))
def test_jet_first_derivative_equals_the_complex_step(tree, x):
    """d1 of a real jet against the complex step Im f(x + i*1e-20)/1e-20,
    which subtracts nothing and so is good to rounding (Squire and Trapp).
    Trees whose complex extension leaves the real branch are skipped: the real
    evaluation raises there (log or sqrt of a negative, a fractional power of
    one), and so does a domain error of the stepped evaluation."""
    e = expr.Expression(tree, "real", expr._render(tree, 0))
    try:
        jet = eval_jet2(e, x)
        stepped = eval_jet2(e, complex(x, COMPLEX_STEP)).value
    except DomainError:
        assume(False)
    scale = _jet_scale(tree, x)
    assume(scale < 1e8)
    # the real part is the value, to rounding: the stepped point stays on the branch
    assert abs(stepped.real - jet.value) <= 1e-12 * scale
    assert abs(stepped.imag / COMPLEX_STEP - jet.d1) <= 1e-10 * scale


@pytest.mark.parametrize("source, bad", [
    ("log(x)", 0.0), ("log(x)", -0.5), ("sqrt(x)", 0.0), ("sqrt(x)", -2.0),
    ("sqrt(x-1)", 1.0),
])
def test_array_jets_reject_a_nonpositive_entry(source, bad):
    e = parse(source)
    assert eval_jet2(e, np.array([2.0, 3.0])).value.shape == (2,)
    with pytest.raises(DomainError):
        eval_jet2(e, np.array([2.0, bad, 3.0]))


@settings(max_examples=80, deadline=None)
@given(st.tuples(
    st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3),
    st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3)),
    st.floats(-2, 2), st.floats(-2, 2))
def test_jet_product_rule(coeffs, a, b):
    """(f*g)' and (f*g)'' from jet arithmetic equal the Leibniz expansions."""
    f = expr.Jet2(coeffs[0], coeffs[1], coeffs[2])
    g = expr.Jet2(coeffs[3], coeffs[4], coeffs[5])
    prod = f * g
    assert prod.d1 == pytest.approx(f.d1 * g.value + f.value * g.d1, rel=1e-12, abs=1e-12)
    assert prod.d2 == pytest.approx(
        f.d2 * g.value + 2 * f.d1 * g.d1 + f.value * g.d2, rel=1e-12, abs=1e-12)
    shifted = (f + expr.Jet2.constant(a)) * (g + expr.Jet2.constant(b))
    assert shifted.value == pytest.approx((f.value + a) * (g.value + b), rel=1e-12, abs=1e-12)


def _random_polynomial(rng, degree):
    coeffs = [float(c) for c in rng.uniform(-3, 3, size=degree + 1)]
    terms = [f"{c!r}*x^{k}" if k else repr(c) for k, c in enumerate(coeffs)]
    return parse("+".join(terms))


def test_polynomial_jets_match_finite_differences():
    """First derivative against central differences with step 1e-5; the
    second derivative against a Richardson-extrapolated central difference
    (a bare quotient trades truncation against 1e-16/step^2 roundoff and
    cannot reach 1e-6 on degree-6 polynomials)."""
    rng = np.random.default_rng(42)
    h1, h2 = 1e-5, 1e-3

    def fd2(e, x, h):
        return (e(x + h) - 2 * e(x) + e(x - h)) / h ** 2

    for _ in range(20):
        e = _random_polynomial(rng, rng.integers(1, 7))
        for x in rng.uniform(-1.0, 1.0, size=5):
            jet = eval_jet2(e, float(x))
            fd1 = (e(x + h1) - e(x - h1)) / (2 * h1)
            assert abs(fd1 - jet.d1) / max(1.0, abs(jet.d1)) < 1e-6
            rich = (4.0 * fd2(e, x, h2 / 2) - fd2(e, x, h2)) / 3.0
            assert abs(rich - jet.d2) / max(1.0, abs(jet.d2)) < 1e-6


def test_complex_directional_derivative_consistency():
    """Difference quotients along the real and imaginary axes both approach
    the holomorphic derivative (Cauchy-Riemann consistency)."""
    rng = np.random.default_rng(11)
    e = parse("sin(z)*exp(z)+z^3", "complex")
    t = 1e-6
    for _ in range(100):
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        jet = eval_jet2(e, z)
        along_re = (e(z + t) - e(z - t)) / (2 * t)
        along_im = (e(z + 1j * t) - e(z - 1j * t)) / (2j * t)
        assert abs(along_re - jet.d1) < 1e-6
        assert abs(along_im - jet.d1) < 1e-6


def test_evaluation_is_pure():
    e = parse("x^2+sin(x)")
    first = eval_jet2(e, 0.7)
    for _ in range(3):
        again = eval_jet2(e, 0.7)
        assert (again.value, again.d1, again.d2) == (first.value, first.d1, first.d2)


def test_jet_division_by_an_array_with_a_zero_raises():
    num = expr.Jet2(np.array([1.0, 2.0, 3.0]), np.ones(3), np.zeros(3))
    with pytest.raises(DomainError):
        num / expr.Jet2(np.array([1.0, 0.0, 2.0]), np.ones(3), np.ones(3))
    with pytest.raises(DomainError):
        num / np.array([2.0, 0.0, 1.0])
    # without a zero the quotient is the scalar quotient entry by entry
    den = expr.Jet2(np.array([0.5, -2.0, 4.0]), np.array([1.0, 0.3, -1.0]), np.ones(3))
    got = num / den
    for i in range(3):
        one = expr.Jet2(num.value[i], num.d1[i], num.d2[i]) / expr.Jet2(
            den.value[i], den.d1[i], den.d2[i])
        assert (got.value[i], got.d1[i], got.d2[i]) == (one.value, one.d1, one.d2)


def _bits(x) -> str:
    return float(x).hex() if not isinstance(x, complex) else f"{x.real.hex()},{x.imag.hex()}"


def test_memo_keeps_the_sign_of_zero():
    """h = x at -0.0 right after 0.0 (and the reverse) gives its own zero."""
    e = parse("x")
    assert _bits(eval_jet2(e, 0.0).value) == "0x0.0p+0"
    assert _bits(eval_jet2(e, -0.0).value) == "-0x0.0p+0"
    assert _bits(eval_jet2(e, 0.0).value) == "0x0.0p+0"
    z = parse("sqrt(z)", "complex")
    # -1+0j == -1-0j, on either side of the branch cut of sqrt
    assert eval_jet2(z, complex(-1.0, 0.0)).value == 1j
    assert eval_jet2(z, complex(-1.0, -0.0)).value == -1j


def test_memo_does_not_share_between_equal_points_of_other_types():
    """1, 1.0, numpy's 1.0 and 1+0j compare equal, yet each gets a jet of its own type."""
    e = parse("x")
    for at, kind in [(1, int), (1.0, float), (np.float64(1.0), np.float64),
                     (1 + 0j, complex), (1.0, float), (1, int)]:
        assert type(eval_jet2(e, at).value) is kind


def test_memo_belongs_to_one_expression():
    """A repeated point returns the memoised jet; an equal expression parsed
    from the same source keeps its own."""
    a, b = parse("sin(x)+3"), parse("sin(x)+3")
    assert a == b
    first = eval_jet2(a, 0.5)
    assert eval_jet2(a, 0.5) is first
    other = eval_jet2(b, 0.5)
    assert other is not first
    assert (other.value, other.d1, other.d2) == (first.value, first.d1, first.d2)


def test_memo_never_stores_a_raise_and_arrays_bypass_it():
    e = parse("log(x)")
    good = eval_jet2(e, 2.0)
    for _ in range(2):
        with pytest.raises(DomainError):
            eval_jet2(e, -1.0)
    assert eval_jet2(e, 2.0) is good
    arr = eval_jet2(e, np.array([2.0]))
    assert arr is not good and arr.value.shape == (1,)
    assert eval_jet2(e, 2.0) is good
    with pytest.raises(DomainError):
        eval_jet2(e, np.array([2.0, -1.0]))
    assert eval_jet2(e, 2.0) is good


# --- the generated kernel against a tree walk over Jet2 ------------------------

#: (f', f'') of each function by the chain rule over Jet2, stated independently
#: of the kernel's source templates
_REFERENCE_DERIVATIVES = {
    "exp": lambda m, v, f0: (f0, f0),
    "log": lambda m, v, f0: (1.0 / v, -1.0 / (v * v)),
    "sin": lambda m, v, f0: (m.cos(v), -f0),
    "cos": lambda m, v, f0: (-m.sin(v), -f0),
    "sinh": lambda m, v, f0: (m.cosh(v), f0),
    "cosh": lambda m, v, f0: (m.sinh(v), f0),
    "sqrt": lambda m, v, f0: (0.5 / f0, -0.25 / (f0 * v)),
}
_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _chain(f0, f1, f2, g):
    return expr.Jet2(f0, f1 * g.d1, f2 * g.d1 * g.d1 + f1 * g.d2)


def _not_finite(jet):
    return expr._any(jet.value * 0 + jet.d1 * 0 + jet.d2 * 0 != 0)


def _nonpositive(v, is_complex):
    return expr._any(v == 0) or (not is_complex and expr._any(v < 0))


def _walk(node, x, m, is_complex):
    """``node``'s jet at x, one node at a time over Jet2's arithmetic."""
    if isinstance(node, Variable):
        return expr.Jet2(x, 1.0, 0.0)
    if isinstance(node, Literal):
        return expr.Jet2.constant(node.value)
    if isinstance(node, Constant):
        return expr.Jet2.constant(1j if node.name == "i" else expr.CONSTANTS[node.name])
    if isinstance(node, Unary):
        return -_walk(node.operand, x, m, is_complex)
    if isinstance(node, Call):
        g = _walk(node.arg, x, m, is_complex)
        if node.func in ("log", "sqrt") and _nonpositive(g.value, is_complex):
            raise DomainError(f"{node.func} at a zero or negative point")
        f0 = getattr(m, node.func)(g.value)
        return _chain(f0, *_REFERENCE_DERIVATIVES[node.func](m, g.value, f0), g)
    a = _walk(node.left, x, m, is_complex)
    if node.op != "^":
        return _OPERATORS[node.op](a, _walk(node.right, x, m, is_complex))
    p, v = expr._literal_value(node.right), a.value
    if isinstance(p, float) and p.is_integer():
        p = int(p)
    if not isinstance(p, int):
        if _nonpositive(v, is_complex):
            raise DomainError("negative or zero base with non-integer exponent")
        f0 = m.exp(p * m.log(v))
        return _chain(f0, p * f0 / v, p * (p - 1) * f0 / (v * v), a)
    if p == 0:
        if _not_finite(a):
            raise DomainError("zeroth power of a non-finite base")
        return expr.Jet2.constant(1.0)
    if p == 1:
        return a
    if p < 0 and expr._any(v == 0):
        raise DomainError("zero base with negative exponent")
    return _chain(v ** p, p * v ** (p - 1), p * (p - 1) * v ** (p - 2), a)


def _reference(e, at):
    """eval_jet2's dispatch and domain rule around the tree walk."""
    m, is_complex = math, False
    if isinstance(at, np.ndarray):
        m, is_complex = np, e.mode == "complex" or np.iscomplexobj(at)
        at = at.astype(complex if is_complex else float)
    elif e.mode == "complex" or isinstance(at, complex):
        m, is_complex, at = cmath, True, complex(at)
    # numpy raises where math and cmath do; an underflow to 0 is no error there
    with np.errstate(all="raise", under="ignore") if m is np else contextlib.nullcontext():
        try:
            jet = _walk(e.root, at, m, is_complex)
            bad = _not_finite(jet)
        except (ValueError, ArithmeticError) as exc:
            raise DomainError(f"{e.source}: {exc}") from exc
    if bad:
        raise DomainError(f"{e.source} is not finite at some point")
    if m is np:
        return expr.Jet2(*(part if np.shape(part) == at.shape else np.full(at.shape, part)
                           for part in (jet.value, jet.d1, jet.d2)))
    return jet


def _outcome(evaluate, e, at):
    """The parts' exact text (an array's dtype, shape and bytes), or the
    exception's type and message."""
    try:
        jet = evaluate(e, at)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc), str(exc)
    return tuple((p.dtype.str, p.shape, p.tobytes()) if isinstance(p, np.ndarray) else repr(p)
                 for p in (jet.value, jet.d1, jet.d2))


_EDGES = [0.0, -0.0, 1.0, -1.0, 2.0, 1e300, -1e300, 1e-300, 710.0, 1e-8]
_REALS = st.one_of(st.floats(-5.0, 5.0), st.sampled_from(_EDGES))
_COMPLEXES = st.builds(complex, _REALS, _REALS)
_HUGE_LEAVES = st.sampled_from([Literal(1e300), Literal(1e-300), Literal(math.inf)])


def _oracle_trees(variable, *constants):
    """The trees of ``_trees`` with the variable as every other leaf, with
    huge and infinite literals and with constants."""
    var = st.just(Variable(variable))
    return _trees(st.one_of(var, _literals, var, _HUGE_LEAVES,
                            *(st.just(Constant(c)) for c in ("pi", *constants))))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(st.just("real"), _oracle_trees("x")),
                 st.tuples(st.just("complex"), _oracle_trees("z", "i"))),
       st.one_of(_REALS, _COMPLEXES, st.lists(_REALS, min_size=1, max_size=4).map(np.array),
                 st.lists(_COMPLEXES, min_size=1, max_size=4).map(np.array)))
def test_the_kernel_equals_a_tree_walk_over_jet_arithmetic_bit_for_bit(mode_tree, at):
    """Value, d1 and d2 of eval_jet2 (their repr, or an array's bytes), or
    the type and message of what it raises, equal a node-by-node walk over
    Jet2's arithmetic, at real and complex points and arrays, signed zeros,
    huge and out-of-domain points included, and again from the memo."""
    mode, tree = mode_tree
    e = expr.Expression(tree, mode, expr._render(tree, 0))
    want = _outcome(_reference, e, at)
    assert _outcome(eval_jet2, e, at) == want
    assert _outcome(eval_jet2, e, at) == want


_ORACLE_SOURCES = [
    ("x/(x+1)", "real"), ("(x^2+1)/(x-0.5)", "real"), ("sin(x)/x", "real"),
    ("x^2.5", "real"), ("(x+3)^-1.5", "real"), ("sqrt(x)*log(x)", "real"),
    ("exp(x)^3-x^-2", "real"), ("cosh(x)/sinh(x)", "real"), ("cos(x)*x^0", "real"),
    ("(1/x)^0", "real"), ("-x^3/7", "real"), ("2*x-3*x^2", "real"), ("exp(exp(x))", "real"),
    ("log(x^4^4)", "real"), ("x^400", "real"), ("1e999*x", "real"), ("pi*e/x", "real"),
    ("(x-1)^2^2", "real"), ("sin(x)^2+cos(x)^2", "real"), ("sqrt(1/x-x)", "real"),
    ("z^2+1", "complex"), ("exp(z)/z", "complex"), ("i*z^3-z", "complex"),
    ("sqrt(z)*log(z)", "complex"), ("z^-2+sin(z)", "complex"), ("cosh(z)^0.5", "complex"),
    ("(z+i)^2.5", "complex"), ("1/(z-i)", "complex"), ("log(z)^0", "complex"),
]
_ORACLE_REALS = [-3.7, -1.0, -0.5, -0.0, 0.0, 1e-300, 1e-8, 0.3, 0.5, 1.0, 1.7, 2.0, 3.3,
                 700.0, 710.0, 1e300, -1e300, math.inf, math.nan]
_ORACLE_POINTS = [*_ORACLE_REALS, 3,
                  *(complex(a, b) for a in (-2.0, -0.0, 0.0, 0.4, 1.5)
                    for b in (-1.0, -0.0, 0.0, 1e-300, 0.7)),
                  np.array(_ORACLE_REALS), np.array([-3.7, 0.3, 0.5, 1.7, 2.0, 3.3]),
                  np.array([0.3 + 0.7j, -2.0 - 1.0j, 1.5 + 0j, -0.5 - 0j])]


@pytest.mark.parametrize("source, mode", _ORACLE_SOURCES)
def test_the_kernel_equals_the_tree_walk_on_a_fixed_battery(source, mode):
    """The same oracle on every operation at fixed points: signed zeros, a
    subnormal-sized one, huge, inf and NaN points, an int, the branch cut of
    log and sqrt, and arrays with and without bad entries."""
    e = parse(source, mode)
    for at in _ORACLE_POINTS:
        want = _outcome(_reference, e, at)
        assert _outcome(eval_jet2, e, at) == want, at
        assert _outcome(eval_jet2, e, at) == want, at
