"""Geodesic integration: affine-parameter form and explicit form.

Every run, affine, explicit, along a path or of the Riccati equation, is
stepped by one Dormand-Prince 5(4) loop, :func:`_run`. It gives the nodes of
scipy's ``RK45`` bit for bit without scipy's solver objects: the same
tableau, initial step, step-size controller and interpolant of the step that
leaves. The sums over stages and the dot products under the error norm stay
the numpy routines scipy calls, because Python's sequential sums round
differently; everything elementwise on a real state runs in Python floats.
The loop steps each chart in its own numbers: complex on the complex chart,
where it measures a component's error by its modulus.

Affine form solves d2q^i/ds2 + Gamma^i_jk dq^j/ds dq^k/ds = 0. Its dense
output is one Hermite curve per coordinate through the coordinate, the
velocity and the closed-form Christoffel acceleration at every node.

Explicit form eliminates the affine parameter: a geodesic becomes a function
of the first chart coordinate (Phi(x), Psi(x)) or, for the complex family, a
function X tracked along a user-supplied path in the z-plane with a real
parameter. Every run ends on its last node inside one stop margin (the
open-domain boundaries and the onset of escape); conversions stop at turning
points of the first coordinate.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .dense import CurveDense
from .errors import (
    StartOnSingularSetError,
    StepSizeUnderflowError,
    TurningPointAtStartError,
)
from .expr import Jet2, eval_jet2
from .geometry import (
    Family,
    GeometrySpec,
    add_signed,
    chart_pair,
    chart_points,
    christoffel_table,
    den_at,
    domain_violation,
    metric_at,
    require_in_domain,
    signed,
)

#: width of the stop band in front of the domain boundary
BOUNDARY_GUARD = 1e-6
#: fraction of its largest modulus below which the first coordinate's velocity
#: counts as a turning point
TURNING_CUT = 1e-8


class Termination(enum.Enum):
    RANGE_END = "range_end"
    DOMAIN_BOUNDARY = "domain_boundary"
    TURNING_POINT = "turning_point"


def _complex_out(value, s):
    if isinstance(s, float) or np.ndim(s) == 0:  # the first test is the cheap one
        return complex(value)
    return np.asarray(value, dtype=complex)


# --- complex paths -------------------------------------------------------------

class ComplexPath:
    """Piecewise-smooth curve s in [0, 1] -> zeta(s) in the z-plane.

    ``point_fn`` and ``velocity_fn`` take one parameter or an array of them.
    """

    def __init__(self, point_fn, velocity_fn, breaks=(0.0, 1.0)):
        self._point = point_fn
        self._velocity = velocity_fn
        self.breaks = tuple(float(b) for b in breaks)
        if self.breaks[0] != 0.0 or self.breaks[-1] != 1.0 or len(self.breaks) < 2:
            raise ValueError("breaks must run from 0.0 to 1.0")

    @classmethod
    def polyline(cls, vertices) -> "ComplexPath":
        """Vertex list, parametrized proportionally to arc length."""
        verts = [complex(v) for v in vertices]
        if len(verts) < 2:
            raise ValueError("polyline needs at least two vertices")
        lengths = np.array([abs(b - a) for a, b in zip(verts, verts[1:])])
        if np.any(lengths == 0):
            raise ValueError("zero-length polyline segment")
        breaks = np.concatenate([[0.0], np.cumsum(lengths) / lengths.sum()])
        breaks[-1] = 1.0
        starts = np.array(verts[:-1])
        chords = np.diff(verts)
        widths = np.diff(breaks)
        inner = breaks[1:-1]
        inner_list = inner.tolist()
        # each segment's numpy scalars, which the array formula indexes
        constants = list(zip(starts, breaks, widths, chords))

        def segment(s):
            # a vertex belongs to the segment that starts there
            return np.searchsorted(inner, s, side="right")

        def point(s):
            if isinstance(s, float):  # the solver's case: bisect, no array calls
                start, left, width, chord = constants[bisect_right(inner_list, s)]
                return start + (s - left) / width * chord
            i = segment(s)
            return starts[i] + (s - breaks[i]) / widths[i] * chords[i]

        def velocity(s):
            i = segment(s)
            return chords[i] / widths[i]

        return cls(point, velocity, breaks)

    @classmethod
    def from_text(cls, text: str) -> "ComplexPath":
        """Parse a vertex list "re,im;re,im;..." into a polyline."""
        verts = []
        for part in text.strip().split(";"):
            re_s, im_s = part.split(",")
            verts.append(complex(float(re_s), float(im_s)))
        return cls.polyline(verts)

    def point(self, s):
        """zeta(s); ``s`` may be an array of parameters."""
        return _complex_out(self._point(s), s)

    def velocity(self, s):
        """dzeta/ds; ``s`` may be an array of parameters."""
        return _complex_out(self._velocity(s), s)

    @property
    def start(self) -> complex:
        return self.point(0.0)

    @property
    def end(self) -> complex:
        return self.point(1.0)

    def segments(self) -> list[tuple[float, float]]:
        return list(zip(self.breaks, self.breaks[1:]))


# --- solver runs: one stop margin, one stepping loop -------------------------

def _stop_margin(spec: GeometrySpec, pair, start, cap: float | None):
    """``margin(param, y)``, positive inside the chart, for a run from ``start``.

    ``pair(param, y)`` maps a solver state to the chart pair (t, v). The
    margin is the smallest of v and of den signed by its side at ``start =
    (param, y)``, each less ``BOUNDARY_GUARD``, and of an escape term:
    explicit-form geodesics reach infinity at finite x where a reconstructed
    solution vanishes, and the Theta pair is ill-conditioned on the way there.
    A number ``cap`` gives the absolute term cap - max|y| (affine runs pass
    inf). With no cap, the term is the onset of escape of an explicit state
    y = (v, v'), 10 (1 + |v| + sqrt|h|) - |v'|, with the h that den is
    computed from: one evaluation of h per node. A signed den turns negative
    where the run crosses the singular set (|den| could dip and come back).
    The complex sets have real codimension two, so complex charts take |v|
    and |den| instead. den comes first in each min: it is NaN wherever v or h
    is, and min keeps a NaN that comes first.
    """
    sign, h = spec.facts.sign, spec.h
    t0, v0 = pair(*start)
    if isinstance(v0, complex):
        def inside(den, v):
            return min(abs(den), abs(v))
    else:
        side = np.sign(den_at(spec, t0, v0)) or 1.0

        def inside(den, v):
            return min(side * den, v)

    def margin(p, y):
        t, v = pair(p, y)
        ht = eval_jet2(h, t).value
        m = inside(add_signed(ht, -sign, v * v), v) - BOUNDARY_GUARD  # den as den_at has it
        if cap is not None:
            return min(m, cap - max(abs(c) for c in y))
        return min(m, 10 * (1 + abs(v) + abs(ht) ** 0.5) - abs(y[1]))
    return margin


@dataclass(frozen=True)
class SolverStats:
    """What the stepping loop did over one or more runs: its right-hand-side
    calls and its rejected step attempts."""

    rhs_calls: int
    rejected_steps: int

    def __add__(self, other: "SolverStats") -> "SolverStats":
        return SolverStats(self.rhs_calls + other.rhs_calls,
                           self.rejected_steps + other.rejected_steps)


class _StepInterpolant:
    """The interpolant of the step from ``t_old`` to ``t`` at one parameter:
    y_old + h Q (x, x^2, x^3, x^4) with x = (param - t_old)/h and Q = K^T P,
    as scipy's ``RkDenseOutput`` computes it."""

    def __init__(self, t_old: float, t: float, y_old, Q: np.ndarray):
        self.t_old, self.t, self.h = t_old, t, t - t_old
        self.y_old, self.Q = np.asarray(y_old), Q

    def __call__(self, param) -> np.ndarray:
        x = (np.asarray(param) - self.t_old) / self.h
        y = self.h * np.dot(self.Q, np.cumprod(np.tile(x, self.Q.shape[1])))
        y += self.y_old
        return y


#: the step-size controller's safety factor and its bounds on the step ratio
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10


def _rms(x: np.ndarray) -> float:
    """np.linalg.norm(x) / sqrt(n) of a vector by the reduction that norm
    makes: sqrt(x.dot(x)), over the real and the imaginary part of a complex x."""
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im)) / x.size ** 0.5
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _initial_step(rhs, t0: float, y0: np.ndarray, f0: np.ndarray, t_bound: float,
                  max_step: float, rtol: float, atol: float) -> float:
    """The first step size for an error estimator of order 4, by the rule of
    Hairer, Norsett and Wanner (Solving ODEs I, II.4) as scipy 1.17.1 clamps
    it: two RHS-based scales of the step, the second from one trial Euler
    step, neither longer than the span or ``max_step``."""
    interval = abs(t_bound - t0)
    direction = 1.0 if t_bound > t0 else -1.0
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    y1 = y0 + h0 * direction * f0
    f1 = np.asarray(rhs(t0 + h0 * direction, y1 if np.iscomplexobj(y1) else y1.tolist()))
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval, max_step)


def _run(rhs, span, y0, margin, tol: float, max_step: float):
    """Step Dormand-Prince 5(4) over ``span``, ending on the last node whose
    margin is positive.

    The nodes and states are scipy 1.17.1's ``RK45`` with rtol = tol and
    atol = tol/100, bit for bit, without its ``OdeSolver`` wrappers: the
    tableau (read from ``RK45``), the initial-step rule, the step-size
    controller and the interpolant of the step that leaves. Every reduction is
    the numpy routine scipy calls on the same stage array K: the five stage
    sums and the B and E sums (called as ``KT.dot(a)``, the C routine of
    ``np.dot`` without its dispatch) and the dot products under the RMS
    error norm, :func:`_rms`, which are those ``np.linalg.norm`` reduces
    with: x.dot(x) for a real vector, re.dot(re) + im.dot(im) for a complex
    one. numpy's sums round differently from sequential Python sums and from
    a sum of moduli, so these calls stay. Everything elementwise on a real
    state runs in Python floats, which round as float64 does: a real state is
    a list, and ``rhs(t, y)`` takes and returns a list. A complex state stays
    a numpy array, with numpy's complex arithmetic, which Python's complex
    numbers do not reproduce.

    A NaN margin stops the run too; a start whose margin is not positive
    raises StartOnSingularSetError. Returns the nodes, the states (one row per
    component), the interpolant of the step that left (None if the run
    reached the end of the span) and the run's :class:`SolverStats`.
    """
    from scipy.integrate import RK45  # the tableau only: importing geodesy loads no scipy
    t, t_bound, max_step, tol = float(span[0]), float(span[1]), float(max_step), float(tol)
    y = np.asarray(y0)
    complex_state = np.iscomplexobj(y)
    y = y.astype(complex) if complex_state else y.astype(float).tolist()
    if not margin(t, y) > 0:
        raise StartOnSingularSetError(f"the stop margin at the start {t} is not > 0")
    if not np.all(np.isfinite(y)):
        raise ValueError("the initial state must be finite")
    if not max_step > 0 or t == t_bound:
        raise ValueError("a run needs a positive max_step and a nonempty span")
    rtol, atol = max(tol, 100 * np.finfo(float).eps), tol * 1e-2
    K = np.empty((RK45.n_stages + 1, len(y)), dtype=complex if complex_state else float)
    stages = [(s, K[:s].T, RK45.A[s, :s], c) for s, c in enumerate(RK45.C.tolist()[1:], 1)]
    KB, KE, B, E = K[:-1].T, K.T, RK45.B, RK45.E
    exponent = -1 / (RK45.error_estimator_order + 1)

    if complex_state:
        def error_norm_of(h, y, y_new):
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            return _rms(KE.dot(E) * h / scale)
    else:
        def error_norm_of(h, y, y_new):
            # where a state is NaN the error is too, so max's NaN rule differs
            # to no effect
            return _rms(np.array([e * h / (atol + max(abs(a), abs(b)) * rtol)
                                  for e, a, b in zip(KE.dot(E).tolist(), y, y_new)]))

    K[0] = rhs(t, y)
    h_abs = _initial_step(rhs, t, np.asarray(y), K[0].copy(), t_bound, max_step, rtol, atol)
    direction = 1.0 if t_bound > t else -1.0
    attempts = rejected = 0
    ts, ys, exit_step = [t], [y], None
    while exit_step is None and direction * (t - t_bound) < 0:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = min(max(h_abs, min_step), max_step)
        step_rejected = False
        while True:
            if h_abs < min_step:
                raise StepSizeUnderflowError(
                    "Required step size is less than spacing between numbers.")
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            if complex_state:
                for s, KT, a, c in stages:
                    K[s] = rhs(t + c * h, y + KT.dot(a) * h)
                y_new = y + KB.dot(B) * h
            else:
                for s, KT, a, c in stages:
                    K[s] = rhs(t + c * h, [u + d * h for u, d in zip(y, KT.dot(a).tolist())])
                y_new = [u + d * h for u, d in zip(y, KB.dot(B).tolist())]
            K[-1] = rhs(t + h, y_new)
            attempts += 1
            error_norm = error_norm_of(h, y, y_new)
            if error_norm < 1:
                factor = MAX_FACTOR if error_norm == 0 else min(
                    MAX_FACTOR, SAFETY * error_norm ** exponent)
                h_abs *= min(1, factor) if step_rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** exponent)
            step_rejected = True
            rejected += 1
        t_old, y_old, t, y = t, y, t_new, y_new
        if margin(t, y) > 0:
            K[0] = K[-1]
            ts.append(t)
            ys.append(y)
        else:
            exit_step = _StepInterpolant(t_old, t, y_old, K.T.dot(RK45.P))
    # scipy's count: the start, the trial step of the initial-step rule, 6 per attempt
    return np.array(ts), np.array(ys).T, exit_step, SolverStats(2 + 6 * attempts, rejected)


# --- affine-parameter geodesics --------------------------------------------------

@dataclass(frozen=True)
class GeodesicState:
    coords: tuple
    velocity: tuple


@dataclass
class GeodesicTrajectory:
    """Nodes of an affine-parameter geodesic and its dense output.

    The dense output is one :class:`CurveDense` per coordinate through the
    coordinate, its velocity and its acceleration at every node.
    """

    spec: GeometrySpec
    s: np.ndarray
    coords: np.ndarray  # (m, dim), complex for the complex chart
    velocities: np.ndarray
    accelerations: np.ndarray  # the solver's right-hand side at the nodes
    termination: Termination
    stats: SolverStats
    _curves: list = field(init=False, repr=False)

    def __post_init__(self):
        self._curves = [CurveDense(self.s, data) for data in
                        zip(self.coords.T, self.velocities.T, self.accelerations.T)]

    def state_at(self, s) -> tuple[np.ndarray, np.ndarray]:
        """(coords, velocity) at ``s``; for an array ``s`` each has one column
        per entry. Outside the run's span raises OutsideSupportError."""
        # one row per entry (scipy's layout): a batch's speed_squared rounds as one point's
        c = np.stack([getattr(f, d)(s) for d in ("value", "d1") for f in self._curves], axis=-1)
        n = self.spec.dim
        return c[..., :n].T, c[..., n:].T

    def speed_squared(self, s):
        """g(velocity, velocity) at ``s`` (a number or an array); conserved
        along Levi-Civita geodesics."""
        q, v = self.state_at(s)
        g, v = metric_at(self.spec, q.T).components, v.T
        return (v[..., None, :] @ g @ v[..., :, None])[..., 0, 0][()]


def accelerations(spec: GeometrySpec, coords, velocities) -> np.ndarray:
    """-Gamma^i_jk v^j v^k at each sample (one row of coords and velocities each)."""
    return np.array([-np.einsum("ijk,j,k->i", christoffel_table(spec, q), v, v)
                     for q, v in zip(coords, velocities)])


def _affine_rhs(spec: GeometrySpec):
    """The solver's right-hand side (v, -Gamma v v); a list of the state's numbers."""
    n = spec.dim

    def rhs(_s, y):
        v = y[n:]
        acc = -np.einsum("ijk,j,k->i", christoffel_table(spec, y[:n]), v, v)
        return [*v, *acc.tolist()]
    return rhs


def integrate_geodesic(spec: GeometrySpec, initial: GeodesicState, s_span,
                       tol: float = 1e-10) -> GeodesicTrajectory:
    """Integrate the affine geodesic equation over ``s_span``.

    Stops early with DOMAIN_BOUNDARY when a node leaves the stop margin; the
    run then ends where the margin vanishes on the step that left.
    """
    require_in_domain(spec, initial.coords)
    s0, s1 = float(s_span[0]), float(s_span[1])
    if not s1 > s0:
        raise ValueError("s_span must be increasing")
    n = spec.dim
    # the chart's numbers: a real start on the complex chart is complex too,
    # or the solver would drop the imaginary part of every step
    y0 = np.array([*initial.coords, *initial.velocity], dtype=spec.scalar)
    margin = _stop_margin(spec, lambda _s, y: chart_pair(spec, y[:n]), (s0, y0), np.inf)
    ss, ys, exit_step, stats = _run(_affine_rhs(spec), (s0, s1), y0, margin, tol, np.inf)
    if exit_step is not None:
        from scipy.optimize import brentq
        eps = 4 * np.finfo(float).eps
        end = brentq(lambda s: margin(s, exit_step(s)), exit_step.t_old, exit_step.t,
                     xtol=eps, rtol=eps)
        ss, ys = np.append(ss, end), np.vstack([*ys.T, exit_step(end)]).T
    termination = Termination.RANGE_END if exit_step is None else Termination.DOMAIN_BOUNDARY
    coords, velocities = ys[:n].T, ys[n:].T
    return GeodesicTrajectory(spec, ss, coords, velocities,
                              accelerations(spec, coords, velocities), termination, stats)


# --- explicit form ----------------------------------------------------------------

def _explicit_rhs(s: int, h, hp, value, slope):
    """The right-hand side of :func:`explicit_second` over floats, complex or
    Jet2; arrays, or Jet2 with array parts, hold one point per entry.

    An exact zero slope (a number, or an entry of an array of numbers)
    resolves the v^2 = s h indeterminacy to the last term: constant
    Riccati-induced curves live on that set.
    """
    v2 = value * value
    tail = signed(s, v2 * v2 - h * h) / value
    den = add_signed(v2, -s, h)
    # no isinstance dispatch: this runs inside the solver's RHS
    try:
        if slope == 0:  # never true for a Jet2, which equals no number
            return tail
    except ValueError:  # an array of slopes has no single truth value
        # where a slope is zero the slope terms vanish and only the tail is
        # left; a unit den there keeps points with v^2 = s h from 0/0
        den = np.where(slope == 0, 1.0, den)
    head = add_signed(3 * v2, s, h) / den * slope * slope / value
    return add_signed(head, -s, hp * slope / den) + tail


def explicit_second(spec: GeometrySpec, point, value, slope):
    """Second derivative prescribed by the explicit-form geodesic equation.

        v'' = (3v^2 + s h)/(v^2 - s h) * v'^2/v - s h' v'/(v^2 - s h) + s (v^4 - h^2)/v

    with s = +1 (hyperbolic, complex) or -1 (ads, both signs). ``point``,
    ``value`` and ``slope`` may be arrays of one shape (one entry per point).
    """
    if spec.dim != 2:
        raise ValueError("no 2D explicit form for the 4D family; use the complex chart")
    hj = eval_jet2(spec.h, point)
    return _explicit_rhs(spec.facts.sign, hj.value, hj.d1, value, slope)


def explicit_second_and_third(spec: GeometrySpec, point, value, slope):
    """(v'', v''') along a solution of the explicit-form equation.

    The third derivative is the total derivative of the right-hand side along
    the solution. Running the RHS through order-1 jets seeded with
    (point, value, slope)' = (1, slope, v'') computes it without hand algebra;
    the jets' own second-order slots are unused. Arrays of points, values and
    slopes give arrays of both.
    """
    if spec.dim != 2:
        raise ValueError("no 2D explicit form for the 4D family; use the complex chart")
    s = spec.facts.sign
    hj = eval_jet2(spec.h, point)
    second = _explicit_rhs(s, hj.value, hj.d1, value, slope)
    f = _explicit_rhs(s, Jet2(hj.value, hj.d1, 0.0), Jet2(hj.d1, hj.d2, 0.0),
                      Jet2(value, slope, 0.0), Jet2(slope, second, 0.0))
    return second, f.d1


def _real_explicit_rhs(spec: GeometrySpec):
    """The solver's right-hand side (v', :func:`explicit_second`) of a real
    family, on a list of Python floats. A float division by zero raises where
    float64 gives inf or nan, so such a call is redone over float64."""
    s, h = spec.facts.sign, spec.h

    def rhs(x, y):
        v, w = y
        hj = eval_jet2(h, x)
        try:
            return [w, _explicit_rhs(s, hj.value, hj.d1, v, w)]
        except ZeroDivisionError:
            return [w, _explicit_rhs(s, hj.value, hj.d1, np.float64(v), np.float64(w))]
    return rhs


@dataclass
class ExplicitGeodesic:
    """A geodesic as a function of the first chart coordinate.

    Real families: the parameter is x itself and value/slope/second are
    Phi(x), Phi'(x), Phi''(x) (resp. Psi). Complex family: the parameter is
    the path parameter s in [0, 1], ``point(s)`` is zeta(s), and
    value/slope/second are X, dX/dz, d2X/dz2 at zeta(s).
    """

    spec: GeometrySpec
    base: complex  # x0 or z0
    termination: Termination
    _values: CurveDense  # over the parameter; joined at path vertices
    path: ComplexPath | None = None
    _zslopes: CurveDense | None = None  # dX/dz dense (complex family only)
    stats: SolverStats | None = None  # of the runs that made it; None if none did

    @property
    def support(self) -> tuple[float, float]:
        return self._values.support

    @property
    def base_param(self) -> float:
        if self.path is not None:
            return 0.0
        return float(np.real(self.base))

    @property
    def nodes(self) -> np.ndarray:
        return self._values.nodes

    def point(self, t):
        if self.path is not None:
            return self.path.point(t)
        return t

    def value(self, t):
        return self._values.value(t)

    def slope(self, t):
        if self.path is not None:
            return self._zslopes.value(t)
        return self._values.d1(t)

    def second(self, t):
        if self.path is not None:
            return self._zslopes.d1(t) / self.path.velocity(t)
        return self._values.d2(t)

    @classmethod
    def from_function(cls, spec, fn, support, dfn, d2fn) -> "ExplicitGeodesic":
        """Sample an arbitrary curve (not necessarily a geodesic) densely.

        Used for negative controls and hand-built inputs: ``fn``, ``dfn`` and
        ``d2fn`` give the curve and its first two derivatives, and nothing
        assumes the curve satisfies any equation.
        """
        if spec.dim != 2 or spec.is_complex_chart:
            raise ValueError("from_function builds real-family curves only")
        ts = np.linspace(support[0], support[1], 129)
        vals = np.array([fn(t) for t in ts], dtype=float)
        d1 = np.array([dfn(t) for t in ts], dtype=float)
        d2 = np.array([d2fn(t) for t in ts], dtype=float)
        curve = CurveDense(ts, [vals, d1, d2])
        return cls(spec, complex(support[0]).real, Termination.RANGE_END, curve)


def solve_from_inside(rhs, x0, y0, support, margin, tol: float, max_step: float):
    """Solve from ``x0`` toward each end of ``support`` and merge the two runs.

    Returns the increasing nodes, the states (one row per component),
    whether the margin stopped a run and the two runs' summed
    :class:`SolverStats`. Each run ends on its last node inside (see
    :func:`_run`); a merge left with a single node raises
    StartOnSingularSetError.
    """
    a, b = support
    if not (a <= x0 <= b and a < b):
        raise ValueError("support must be an interval containing x0")
    runs = []
    stopped = False
    stats = SolverStats(0, 0)
    for target in support:
        if target == x0:
            continue
        ts, ys, exit_step, run_stats = _run(rhs, (x0, target), y0, margin, tol, max_step)
        stopped = stopped or exit_step is not None
        stats += run_stats
        order = np.argsort(ts)
        runs.append((ts[order], ys[:, order]))
    (xs, ys), *rest = runs
    if rest:
        # both runs start at x0: keep it once
        (xb, yb), = rest
        xs, ys = np.concatenate([xs[:-1], xb]), np.concatenate([ys[:, :-1], yb], axis=1)
    if len(xs) < 2:
        raise StartOnSingularSetError("no progress from the starting point")
    return xs, ys, stopped, stats


def integrate_explicit(spec: GeometrySpec, x0, value0, slope0, support=None,
                       tol: float = 1e-10, path: ComplexPath | None = None,
                       value_cap: float | None = None,
                       max_step: float | None = None) -> ExplicitGeodesic:
    """Integrate the explicit-form geodesic equation.

    Real families: ``support`` is an interval (a, b) containing x0; the two
    sides are integrated separately from (value0, slope0). Complex family:
    supply ``path`` with path.point(0) == z0; the equation is integrated in
    the real path parameter, the solver stepping the complex state (X, dX/dz).

    A real run's state is a list of Python floats, and its right-hand side
    computes :func:`explicit_second` over them, which gives the same bits as
    numpy's float64 scalars at a lower cost. A complex run keeps numpy's
    complex128 numbers: Python's complex multiply and divide round
    differently from numpy's. Its right-hand side reads h at a polyline's
    own point (a numpy complex scalar) and calls the explicit equation
    directly, not through :meth:`ComplexPath.point` and
    :func:`explicit_second`; the values are the same. The stop margin takes
    den and the escape term from one evaluation of h per node.

    A run that leaves the stop margin ends on its last node inside, with
    DOMAIN_BOUNDARY. The margin holds it off v = 0 and the singular set, and
    off the escape: explicit geodesics blow up at finite x exactly where a
    reconstructed solution vanishes. By default a run ends at the onset of
    escape, where |slope| exceeds 10 (1 + |value| + sqrt|h|) (moduli on the
    complex chart), before the Theta pair turns ill-conditioned. A
    ``value_cap`` replaces that term with an absolute rule: the run ends where
    |value| or |slope| reaches the cap.
    """
    if spec.dim != 2:
        raise ValueError("use the complex chart for the 4D family")
    if spec.is_complex_chart:
        if path is None:
            raise ValueError("complex-family explicit integration needs a path")
        if abs(path.start - complex(x0)) > 1e-12:
            raise ValueError("path must start at z0")
        return _integrate_explicit_path(spec, complex(value0), complex(slope0),
                                        path, tol, value_cap, max_step)
    if support is None:
        raise ValueError("real-family explicit integration needs a support interval")
    a, b = float(support[0]), float(support[1])
    x0 = float(x0)
    start_violation = domain_violation(spec, (x0, value0), BOUNDARY_GUARD)
    if start_violation is not None:
        raise StartOnSingularSetError(
            f"initial data violates {start_violation}")
    if max_step is None:
        max_step = (b - a) / 64.0

    y0 = [float(value0), float(slope0)]
    # x is the float the rhs got, so den_at reuses the h of the step's last stage
    margin = _stop_margin(spec, lambda x, y: (x, y[0]), (x0, y0), value_cap)
    xs, (vals, slopes), hit_boundary, stats = solve_from_inside(
        _real_explicit_rhs(spec), x0, y0, (a, b), margin, tol, max_step)
    seconds, thirds = explicit_second_and_third(spec, xs, vals, slopes)
    curve = CurveDense(xs, [vals, slopes, seconds, thirds])
    termination = Termination.DOMAIN_BOUNDARY if hit_boundary else Termination.RANGE_END
    return ExplicitGeodesic(spec, x0, termination, curve, stats=stats)


def _integrate_explicit_path(spec, value0, slope0, path, tol, cap, max_step):
    state = np.array([value0, slope0], dtype=complex)
    sign, h = spec.facts.sign, spec.h
    # a polyline's own point is a complex number for one parameter already
    point = path._point if isinstance(path._point(0.0), complex) else path.point
    margin = _stop_margin(spec, lambda s, y: (point(s), y[0]), (0.0, state), cap)
    pieces_v, pieces_w = [], []
    hit_boundary = False
    stats = SolverStats(0, 0)
    for s_lo, s_hi in path.segments():
        vel = path.velocity(0.5 * (s_lo + s_hi))

        def rhs(s, y):
            X, W = y
            hj = eval_jet2(h, point(s))
            return [W * vel, _explicit_rhs(sign, hj.value, hj.d1, X, W) * vel]

        step = max_step if max_step is not None else (s_hi - s_lo) / 32.0
        ss, ys, exit_step, run_stats = _run(rhs, (s_lo, s_hi), state, margin, tol, step)
        stats += run_stats
        Xs, Ws = ys
        if len(ss) >= 2:
            sec, thr = explicit_second_and_third(spec, path.point(ss), Xs, Ws)
            pieces_v.append(CurveDense(ss, [Xs, Ws * vel, sec * vel ** 2, thr * vel ** 3]))
            pieces_w.append(CurveDense(ss, [Ws, sec * vel, thr * vel ** 2]))
        if exit_step is not None:
            hit_boundary = True
            break
        state = ys[:, -1]
    if not pieces_v:
        raise StartOnSingularSetError("no progress from the starting point")
    values = CurveDense.joined(pieces_v)
    zslopes = CurveDense.joined(pieces_w)
    termination = Termination.DOMAIN_BOUNDARY if hit_boundary else Termination.RANGE_END
    return ExplicitGeodesic(spec, path.start, termination, values, path, zslopes, stats)


def _before_turning(vt: np.ndarray) -> int:
    """Samples before the first turning point: the first coordinate's velocity
    ``vt`` falls to ``TURNING_CUT`` of its largest modulus or, if real, changes sign."""
    scale = float(np.max(np.abs(vt))) or 1.0
    if abs(vt[0]) <= TURNING_CUT * scale:
        raise TurningPointAtStartError("first coordinate velocity vanishes at s=0")
    real = np.isrealobj(vt)
    keep = len(vt)
    for i in range(1, len(vt)):
        if (real and np.sign(vt[i]) != np.sign(vt[0])) or abs(vt[i]) <= TURNING_CUT * scale:
            keep = i
            break
    if keep < 2:
        raise TurningPointAtStartError("turning point immediately after start")
    return keep


def explicit_from_trajectory(traj: GeodesicTrajectory) -> ExplicitGeodesic:
    """Re-express an affine trajectory as a function of its first coordinate.

    A real chart gives Phi(x) (resp. Psi(x)). A complex-chart or 4D trajectory
    gives X along its own z-projection, with z = x + iy and X = Phi + i Psi
    (:func:`chart_points`): the path is the Hermite curve of z over the affine
    parameter mapped to [0, 1]. Both read the stored node coordinates,
    velocities and accelerations. Requires a nonzero first-coordinate
    velocity at s=0; samples past the first turning point are dropped and the
    result is marked TURNING_POINT.
    """
    spec = traj.spec
    if spec.dim == 4 or spec.is_complex_chart:
        return _explicit_along_path(traj)
    vx = traj.velocities[:, 0]
    keep = _before_turning(vx)
    truncated = keep < len(vx)
    xs = traj.coords[:keep, 0]
    vals = traj.coords[:keep, 1]
    slopes = traj.velocities[:keep, 1] / vx[:keep]
    acc = traj.accelerations[:keep]
    # u**3 by scalar pow: numpy's array power rounds differently in the last bit
    cubes = np.array([u ** 3 for u in vx[:keep].tolist()])
    seconds = (acc[:, 1] * vx[:keep] - traj.velocities[:keep, 1] * acc[:, 0]) / cubes
    if vx[0] < 0:
        xs, vals, slopes, seconds = xs[::-1], vals[::-1], slopes[::-1], seconds[::-1]
    curve = CurveDense(xs, [vals, slopes, seconds])
    termination = Termination.TURNING_POINT if truncated else traj.termination
    return ExplicitGeodesic(spec, float(traj.coords[0, 0]), termination, curve,
                            stats=traj.stats)


def _explicit_along_path(traj: GeodesicTrajectory) -> ExplicitGeodesic:
    spec = traj.spec
    (zs, Xs), (vzs, vXs), (azs, aXs) = (
        chart_points(spec, a) for a in (traj.coords, traj.velocities, traj.accelerations))
    keep = _before_turning(vzs)
    termination = Termination.TURNING_POINT if keep < len(vzs) else traj.termination
    zs, Xs, vzs, vXs, azs, aXs = (a[:keep] for a in (zs, Xs, vzs, vXs, azs, aXs))
    span = traj.s[keep - 1] - traj.s[0]
    ss = (traj.s[:keep] - traj.s[0]) / span
    z_curve = CurveDense(ss, [zs, vzs * span, azs * span ** 2])
    values = CurveDense(ss, [Xs, vXs * span, aXs * span ** 2])
    dWs = (aXs * vzs - vXs * azs) / vzs ** 2 * span
    zslopes = CurveDense(ss, [vXs / vzs, dWs])
    spec_c = GeometrySpec(Family.COMPLEX_SPHERE, spec.h)
    return ExplicitGeodesic(spec_c, zs[0], termination, values,
                            ComplexPath(z_curve.value, z_curve.d1), zslopes, traj.stats)


def geodesic_residual(spec: GeometrySpec, g: ExplicitGeodesic, t):
    """Defect of the explicit-form geodesic equation at parameter ``t``.

    Zero (to tolerance) exactly when the sampled curve satisfies the
    equation; the classic obstruction factor of the reconstruction theorems
    is this residual rescaled by value/(h - value^2). The curve's dense
    output raises OutsideSupportError outside its support.
    """
    secs, prescribed = sampled_and_prescribed(spec, g, np.atleast_1d(np.asarray(t, dtype=float)))
    out = secs - prescribed
    return out[0] if np.ndim(t) == 0 else out


def sampled_and_prescribed(spec: GeometrySpec, g: ExplicitGeodesic, ts: np.ndarray):
    """The curve's own second derivative at ``ts`` and the one the equation prescribes."""
    prescribed = explicit_second(spec, g.point(ts), g.value(ts), g.slope(ts))
    return np.atleast_1d(g.second(ts)), np.atleast_1d(prescribed)
