"""Geodesic integration: affine-parameter form and explicit form.

Affine form solves d2q^i/ds2 + Gamma^i_jk dq^j/ds dq^k/ds = 0 with an
embedded adaptive Runge-Kutta 5(4) scheme (dense output, event location).
The solver steps each chart in its own numbers: complex on the complex chart,
where it measures a component's error by its modulus.

Explicit form eliminates the affine parameter: a geodesic becomes a function
of the first chart coordinate (Phi(x), Psi(x)) or, for the complex family, a
function X tracked along a user-supplied path in the z-plane with a real
parameter. Integrations stop cleanly at the open-domain boundaries (guarded
event functions) or, for conversions, at turning points of the first
coordinate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .dense import CurveDense
from .errors import (
    OutsideSupportError,
    StartOnSingularSetError,
    StepSizeUnderflowError,
    TurningPointAtStartError,
)
from .expr import Jet2, eval_jet2
from .geometry import (
    GeometrySpec,
    add_signed,
    chart_pair,
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
    return complex(value) if np.ndim(s) == 0 else np.asarray(value, dtype=complex)


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

        def segment(s):
            # a vertex belongs to the segment that starts there
            return np.searchsorted(breaks[1:-1], s, side="right")

        def point(s):
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


# --- affine-parameter geodesics --------------------------------------------------

@dataclass(frozen=True)
class GeodesicState:
    coords: tuple
    velocity: tuple
    s: float = 0.0


@dataclass
class GeodesicTrajectory:
    """Samples of an affine-parameter geodesic plus its dense interpolant."""

    spec: GeometrySpec
    s: np.ndarray
    coords: np.ndarray  # (m, dim), complex for the complex chart
    velocities: np.ndarray
    termination: Termination
    _dense: object = field(repr=False, default=None)

    @property
    def s_span(self) -> tuple[float, float]:
        return float(self.s[0]), float(self.s[-1])

    def state_at(self, s) -> tuple[np.ndarray, np.ndarray]:
        """(coords, velocity) at ``s``; for an array ``s`` each has one column per entry."""
        lo, hi = self.s_span
        if np.any(np.asarray(s) < lo - 1e-12) or np.any(np.asarray(s) > hi + 1e-12):
            raise OutsideSupportError(f"s={s} outside [{lo}, {hi}]")
        c = self._dense(np.clip(s, lo, hi))
        n = self.spec.dim
        return c[:n], c[n:]

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
    n = spec.dim

    def rhs(_s, y):
        q, v = y[:n], y[n:]
        acc = -np.einsum("ijk,j,k->i", christoffel_table(spec, q), v, v)
        return np.concatenate([v, acc])
    return rhs


def guard_events(spec: GeometrySpec, guard: float, pair, start,
                 cap: float | None = None) -> list:
    """Terminal events for the domain rule, v > 0 (|v| > 0 if complex) and den != 0.

    ``pair(param, y)`` maps a solver state to the chart pair (t, v). Real
    charts track den signed relative to its side at ``start = (param, y)``,
    so that a transversal crossing of the singular set is a sign change the
    root finder can see (a |.| - guard shape would dip and come back without
    one). The complex sets have real codimension two; proximity in modulus
    is the best detectable surrogate there. With ``cap`` an escape event
    stops the run where |value| or |slope| of the state y = (value, slope)
    reaches it: explicit-form geodesics can reach infinity at finite x, e.g.
    where a reconstructed solution has a zero.
    """
    def den(p, y):
        t, v = pair(p, y)
        return den_at(spec, t, v)

    if isinstance(pair(*start)[1], complex):
        def positive(p, y):
            return abs(pair(p, y)[1]) - guard

        def regular(p, y):
            return abs(den(p, y)) - guard
    else:
        side = np.sign(den(*start)) or 1.0

        def positive(p, y):
            return pair(p, y)[1] - guard

        def regular(p, y):
            return side * den(p, y) - guard
    events = [positive, regular]
    if cap is not None:
        def escape(_p, y):
            return cap - max(abs(c) for c in y)
        events.append(escape)
    for ev in events:
        ev.terminal = True
        ev.direction = -1
    return events


def integrate_geodesic(spec: GeometrySpec, initial: GeodesicState, s_span,
                       tol: float = 1e-10) -> GeodesicTrajectory:
    """Integrate the affine geodesic equation over ``s_span``.

    Stops early with DOMAIN_BOUNDARY when a guarded domain quantity crosses
    ``BOUNDARY_GUARD`` (event located by the solver's root finder).
    """
    require_in_domain(spec, initial.coords)
    s0, s1 = float(s_span[0]), float(s_span[1])
    if not s1 > s0:
        raise ValueError("s_span must be increasing")
    n = spec.dim
    # the chart's numbers: a real start on the complex chart is complex too,
    # or the solver would drop the imaginary part of every step
    y0 = np.array([*initial.coords, *initial.velocity], dtype=spec.scalar)
    events = guard_events(spec, BOUNDARY_GUARD,
                          lambda _s, y: chart_pair(spec, y[:n]), (s0, y0))
    from scipy.integrate import solve_ivp  # imported here: importing geodesy loads no scipy
    sol = solve_ivp(_affine_rhs(spec), (s0, s1), y0, method="RK45",
                    rtol=tol, atol=tol * 1e-2, dense_output=True, events=events)
    if sol.status == -1:
        raise StepSizeUnderflowError(sol.message)
    termination = Termination.RANGE_END if sol.status == 0 else Termination.DOMAIN_BOUNDARY
    return GeodesicTrajectory(spec, sol.t, sol.y[:n].T, sol.y[n:].T, termination, sol.sol)


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


def _solve_run(rhs, span, y0, events, tol: float, max_step: float,
               drop_event_sample: bool = True):
    """One RK45 run: (nodes, states, whether an event stopped it)."""
    from scipy.integrate import solve_ivp  # imported here: importing geodesy loads no scipy
    sol = solve_ivp(rhs, span, y0, method="RK45", rtol=tol, atol=tol * 1e-2,
                    events=events, max_step=max_step)
    if sol.status == -1:
        raise StepSizeUnderflowError(sol.message)
    if sol.status == 1 and drop_event_sample and len(sol.t) > 2:
        return sol.t[:-1], sol.y[:, :-1], True
    return sol.t, sol.y, sol.status == 1


def solve_from_inside(rhs, x0, y0, support, events, tol: float, max_step: float,
                      drop_event_sample: bool):
    """Solve from ``x0`` toward each end of ``support`` and merge the two runs.

    Returns the increasing nodes, the states (one row per component) and
    whether an event stopped a run. With ``drop_event_sample`` such a run
    ends on its last full-accuracy node: the located event sample comes from
    the solver's one-order-lower dense interpolant.
    """
    runs = []
    hit_event = False
    for target in support:
        if target == x0:
            continue
        ts, ys, stopped = _solve_run(rhs, (x0, target), y0, events, tol, max_step,
                                     drop_event_sample)
        hit_event = hit_event or stopped
        order = np.argsort(ts)
        runs.append((ts[order], ys[:, order]))
    if len(runs) == 2:
        # both runs start at x0: keep it once
        (xa, ya), (xb, yb) = runs
        return (np.concatenate([xa[:-1], xb]), np.concatenate([ya[:, :-1], yb], axis=1),
                hit_event)
    return runs[0][0], runs[0][1], hit_event


def integrate_explicit(spec: GeometrySpec, x0, value0, slope0, support=None,
                       tol: float = 1e-10, path: ComplexPath | None = None,
                       value_cap: float = 1e6,
                       max_step: float | None = None) -> ExplicitGeodesic:
    """Integrate the explicit-form geodesic equation.

    Real families: ``support`` is an interval (a, b) containing x0; the two
    sides are integrated separately from (value0, slope0). Complex family:
    supply ``path`` with path.point(0) == z0; the equation is integrated in
    the real path parameter, the solver stepping the complex state (X, dX/dz).

    Termination is DOMAIN_BOUNDARY when a guard quantity crosses
    ``BOUNDARY_GUARD`` or when the value escapes past ``value_cap`` (explicit
    geodesics blow up at finite x exactly where a reconstructed solution
    vanishes, so the cap is a chart boundary, not an error).
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
    if not (a <= x0 <= b and a < b):
        raise ValueError("support must be an interval containing x0")
    start_violation = domain_violation(spec, (x0, value0), BOUNDARY_GUARD)
    if start_violation is not None:
        raise StartOnSingularSetError(
            f"initial data violates {start_violation}")
    if max_step is None:
        max_step = (b - a) / 64.0

    def rhs(x, y):
        return [y[1], explicit_second(spec, x, y[0], y[1])]

    y0 = [float(value0), float(slope0)]
    events = guard_events(spec, BOUNDARY_GUARD, lambda x, y: (x, y[0]), (x0, y0),
                          value_cap)
    xs, (vals, slopes), hit_boundary = solve_from_inside(
        rhs, x0, y0, (a, b), events, tol, max_step, drop_event_sample=True)
    seconds, thirds = explicit_second_and_third(spec, xs, vals, slopes)
    curve = CurveDense(xs, [vals, slopes, seconds, thirds])
    termination = Termination.DOMAIN_BOUNDARY if hit_boundary else Termination.RANGE_END
    return ExplicitGeodesic(spec, x0, termination, curve)


def _integrate_explicit_path(spec, value0, slope0, path, tol, cap, max_step):
    state = np.array([value0, slope0], dtype=complex)
    events = guard_events(spec, BOUNDARY_GUARD, lambda s, y: (path.point(s), y[0]),
                          (0.0, state), cap)
    pieces_v, pieces_w = [], []
    hit_boundary = False
    for s_lo, s_hi in path.segments():
        vel = path.velocity(0.5 * (s_lo + s_hi))

        def rhs(s, y):
            X, W = y
            return [W * vel, explicit_second(spec, path.point(s), X, W) * vel]

        step = max_step if max_step is not None else (s_hi - s_lo) / 32.0
        ss, ys, stopped = _solve_run(rhs, (s_lo, s_hi), state, events, tol, step)
        Xs, Ws = ys
        if len(ss) >= 2:
            sec, thr = explicit_second_and_third(spec, path.point(ss), Xs, Ws)
            pieces_v.append(CurveDense(ss, [Xs, Ws * vel, sec * vel ** 2, thr * vel ** 3]))
            pieces_w.append(CurveDense(ss, [Ws, sec * vel, thr * vel ** 2]))
        if stopped:
            hit_boundary = True
            break
        state = ys[:, -1]
    if not pieces_v:
        raise StartOnSingularSetError("no progress from the starting point")
    values = CurveDense.joined(pieces_v)
    zslopes = CurveDense.joined(pieces_w)
    termination = Termination.DOMAIN_BOUNDARY if hit_boundary else Termination.RANGE_END
    return ExplicitGeodesic(spec, path.start, termination, values, path, zslopes)


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

    Requires a nonzero first-coordinate velocity at s=0; samples past the
    first sign change (turning point) are dropped and the result is marked
    TURNING_POINT.
    """
    spec = traj.spec
    if spec.dim != 2:
        raise ValueError("use the complex chart for the 4D family")
    if spec.is_complex_chart:
        acc = accelerations(spec, traj.coords, traj.velocities)
        return path_explicit_from_samples(
            spec, traj.s, traj.coords[:, 0], traj.coords[:, 1],
            traj.velocities[:, 0], traj.velocities[:, 1], acc[:, 0], acc[:, 1],
            lambda s: traj.state_at(s)[0][0], lambda s: traj.state_at(s)[1][0],
            traj.termination)
    vx = traj.velocities[:, 0]
    keep = _before_turning(vx)
    truncated = keep < len(vx)
    xs = traj.coords[:keep, 0]
    vals = traj.coords[:keep, 1]
    slopes = traj.velocities[:keep, 1] / vx[:keep]
    acc = accelerations(spec, traj.coords[:keep], traj.velocities[:keep])
    # u**3 by scalar pow: numpy's array power rounds differently in the last bit
    cubes = np.array([u ** 3 for u in vx[:keep].tolist()])
    seconds = (acc[:, 1] * vx[:keep] - traj.velocities[:keep, 1] * acc[:, 0]) / cubes
    if vx[0] < 0:
        xs, vals, slopes, seconds = xs[::-1], vals[::-1], slopes[::-1], seconds[::-1]
    curve = CurveDense(xs, [vals, slopes, seconds])
    termination = Termination.TURNING_POINT if truncated else traj.termination
    return ExplicitGeodesic(spec, float(traj.coords[0, 0]), termination, curve)


def path_explicit_from_samples(spec, s_nodes, zs, Xs, vzs, vXs, azs, aXs,
                               point_at, velocity_at, termination) -> ExplicitGeodesic:
    """Explicit-form geodesic along its own z-projection from sampled data.

    ``point_at``/``velocity_at`` give the smooth z-curve as functions of the
    raw parameter; samples past the first |dz/ds| ~ 0 are dropped. Shared by
    the complex-chart and 4D-chart trajectory conversions.
    """
    keep = _before_turning(np.asarray(vzs, dtype=complex))
    truncated = keep < len(vzs)
    s_lo, s_hi = s_nodes[0], s_nodes[keep - 1]
    span = s_hi - s_lo
    path = ComplexPath(lambda s: point_at(s_lo + s * span),
                       lambda s: velocity_at(s_lo + s * span) * span)
    ss = (np.asarray(s_nodes[:keep]) - s_lo) / span
    Ws = vXs[:keep] / vzs[:keep]
    dWs = (aXs[:keep] * vzs[:keep] - vXs[:keep] * azs[:keep]) / vzs[:keep] ** 2 * span
    values = CurveDense(ss, [Xs[:keep], vXs[:keep] * span, aXs[:keep] * span ** 2])
    zslopes = CurveDense(ss, [Ws, dWs])
    if truncated:
        termination = Termination.TURNING_POINT
    return ExplicitGeodesic(spec, zs[0], termination, values, path, zslopes)


def geodesic_residual(spec: GeometrySpec, g: ExplicitGeodesic, t):
    """Defect of the explicit-form geodesic equation at parameter ``t``.

    Zero (to tolerance) exactly when the sampled curve satisfies the
    equation; the classic obstruction factor of the reconstruction theorems
    is this residual rescaled by value/(h - value^2).
    """
    lo, hi = g.support
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr < lo - 1e-12) or np.any(t_arr > hi + 1e-12):
        raise OutsideSupportError(f"{t} outside support [{lo}, {hi}]")
    secs, prescribed = sampled_and_prescribed(spec, g, t_arr)
    out = secs - prescribed
    return out[0] if np.ndim(t) == 0 else out


def sampled_and_prescribed(spec: GeometrySpec, g: ExplicitGeodesic, ts: np.ndarray):
    """The curve's own second derivative at ``ts`` and the one the equation prescribes."""
    prescribed = explicit_second(spec, g.point(ts), g.value(ts), g.slope(ts))
    return np.atleast_1d(g.second(ts)), np.atleast_1d(prescribed)
