"""From explicit-form geodesics to solution bases of u'' + h u = 0 and back.

The logarithmic derivatives of the two reconstructed solutions are

  hyperbolic:  Theta_{top,bot} = Phi (Phi' -+ L) / (h - Phi^2),
               L = sqrt((h - Phi^2)^2 + Phi'^2)
  ads:         Theta_{top,bot} = -Psi (Psi' +- i M) / (h + Psi^2),
               M = sqrt((h + Psi^2)^2 - Psi'^2)
  complex:     as hyperbolic with (z, X) and a path integral for u

or, with the family sign s (+1 hyperbolic and complex, -1 ads) and
den = h - s v^2, Theta = s v (v' + unit * sqrt(den^2 + s v'^2)) / den with
the unit -1 (s = +1) or +i (s = -1) for top and its negative for bot; see
geometry.FAMILY_FACTS. u_{top,bot} = exp(integral of Theta from the base
point). The square root is continued from its base value (principal branch
there, nonnegative real part) along the support, never re-chosen pointwise.
Both Theta's solve the Riccati equation Theta' + Theta^2 + h = 0 exactly when
the input curve is a geodesic, and the pair inverts back through
value^2 = -s top*bot.

The two branches share every term but the sign of the unit, so each query
evaluates both in one pass: one read of the geodesic and of h, one den, one
tracked root, and one Gauss rule for both exponents. One evaluation,
SolutionBasis.jets, serves every solution and every check of the basis: one
values call and one Theta read give its jet matrix, rows u, u', u'' and
columns u_top, u_bot, whose first two rows are the fundamental matrix F. A
solution is weights over the columns (A u_top + B u_bot is (A, B)), the
Wronskian is det F, and transition gives M = F_a^-1 F_b, constant for two
bases of one equation. A one-point query (jets, transition, values, a Theta
read) is the length-1 case of an array query and returns its entry, so it
equals the same point of a batch bit for bit: numpy may round a scalar
operation unlike the same operation in an array loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dense import CurveDense
from .errors import (
    DenominatorVanishesError,
    NegativeRadicandError,
    OutsideSupportError,
    PathLeavesSupportError,
    ResidualTooLargeError,
    StartOnSingularSetError,
    StepSizeUnderflowError,
    ZeroCrossingOfUError,
)
from .expr import Expression, eval_jet2
from .geodesics import (
    ComplexPath,
    ExplicitGeodesic,
    Termination,
    explicit_second,
    integrate_explicit,
    sampled_and_prescribed,
    solve_from_inside,
)
from .geometry import GeometrySpec, add_signed

#: sup-norm below which the radicand counts as identically zero (degenerate pair)
DEGENERACY_TOL = 1e-10
#: geodesic-residual bound for the auto-check in reconstruct_basis
RESIDUAL_GATE = 1e-4
#: sample points inside every node interval of the curve invert_to_geodesic recovers
INVERSION_REFINE = 3
#: |Theta| at which integrate_riccati stops (the solution blows up there)
RICCATI_CAP = 1e6


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| entry by entry, with the bits of numpy's scalar ``abs``; numpy's
    complex ``abs`` loop over an array may round differently."""
    return np.hypot(z.real, z.imag)


def _continued_signs(keep: np.ndarray, switch: np.ndarray) -> np.ndarray:
    """The signs (+-1) of the roots after successive steps, from each step's
    distances to the previous root with the sign kept and switched: the
    parity of the switches since the last tie (which restarts at +1, as the
    nearer-root rule takes +p there) or NaN (which restarts at -1)."""
    parity = np.where(np.cumsum(switch < keep) % 2 == 1, -1, 1)
    restart = ~((keep < switch) | (switch < keep))
    anchors = np.where(keep == switch, 1, -1) * parity
    last = np.maximum.accumulate(np.where(restart, np.arange(len(keep)), -1))
    return np.where(last >= 0, anchors[last], 1) * parity


class _TrackedSqrt:
    """Square root continued from the base node along a sampled radicand.

    From the principal root at the base node outward both ways, each node
    takes the root +-p_i nearer its neighbour's. Whether it keeps the
    neighbour's sign depends only on |p_i - p_j| against |p_i + p_j|, so the
    signs are a cumulative product, computed in array operations.
    """

    def __init__(self, ts: np.ndarray, radicands: np.ndarray, base_index: int):
        self.ts = ts
        p = np.sqrt(np.asarray(radicands, dtype=complex))
        # step k joins nodes k and k+1: the distances to +p_j and to -p_j
        keep, switch = _modulus(p[1:] - p[:-1]), _modulus(p[1:] + p[:-1])
        up = np.arange(base_index + 1, len(p))  # node i reached by step i - 1
        down = np.arange(base_index - 1, -1, -1)  # node i reached by step i
        signs = np.ones(len(p), dtype=int)
        for nodes, steps in ((up, up - 1), (down, down)):
            signs[nodes] = _continued_signs(keep[steps], switch[steps])
        self.values = np.where(signs > 0, p, -p)

    def __call__(self, t, radicand):
        """The root of ``radicand`` nearest the tracked root at the node at or after ``t``."""
        cand = np.sqrt(np.asarray(radicand, dtype=complex))
        i = np.minimum(np.searchsorted(self.ts, t), len(self.ts) - 1)
        anchor = self.values[i]
        return np.where(np.abs(cand - anchor) <= np.abs(-cand - anchor), cand, -cand)


@dataclass
class ThetaPair:
    """Branch-tracked logarithmic derivatives of the two solutions."""

    spec: GeometrySpec
    geodesic: ExplicitGeodesic
    coincident: bool
    _sqrt: _TrackedSqrt = field(repr=False, default=None)

    @property
    def support(self):
        return self.geodesic.support

    @property
    def is_real_output(self) -> bool:
        """Theta is real: a real chart and a real unit (the hyperbolic family)."""
        return not self.spec.is_complex_chart and np.isrealobj(self.spec.facts.theta_unit)

    def _data(self, t):
        g = self.geodesic
        hj = eval_jet2(self.spec.h, g.point(t))
        return g.value(t), g.slope(t), g.second(t), hj.value, hj.d1

    def _theta(self, t):
        """(top, top', bot, bot') at parameter t (a number or an array);
        derivatives are in x or z.

        Theta = s V (W + q) / den with q = unit * L, L the tracked root of
        den^2 + s W^2 and den = h - s V^2 (unit -1 or +i for top, its
        negative for bot). The geodesic data, den and L are computed once
        for both branches. Near a blow-up W + q nearly cancels for one
        branch; there the conjugate form Theta = -V den / (W - q) (exact
        identity via (W+q)(W-q) = -s den^2) is used instead.
        """
        if np.ndim(t) == 0:
            return tuple(part[0] for part in self._theta(np.array([t], dtype=float)))
        t = np.asarray(t, dtype=float)
        v, w, sec, h, hp = self._data(t)
        s = self.spec.facts.sign
        den, radicand = _den_and_radicand(s, h, v, w)
        dden = add_signed(hp, -s, 2 * v * w)
        if not self.coincident:
            ell = self._sqrt(t, radicand)
            dell = add_signed(den * dden, s, w * sec) / ell
        unit = self.spec.facts.theta_unit
        front = 1.0 if s > 0 else -1.0
        out = []
        with np.errstate(divide="ignore", invalid="ignore"):
            for u in (unit, -unit):
                q, dq = (0.0, 0.0) if self.coincident else (u * ell, u * dell)
                # both forms are computed; each point keeps the well-conditioned one
                theta_direct = front * v * (w + q) / den
                dtheta_direct = (front * (w * (w + q) + v * (sec + dq))
                                 - theta_direct * dden) / den
                # conjugate form: W^2 - q^2 = -s den^2, so s V (W + q) / den
                # reduces to -V den / (W - q) for either sign
                theta_conj = -v * den / (w - q)
                dtheta_conj = (-(w * den + v * dden) - theta_conj * (sec - dq)) / (w - q)
                direct = np.abs(w + q) >= 0.5 * (np.abs(w) + np.abs(q))
                theta = np.where(direct, theta_direct, theta_conj)[()]
                dtheta = np.where(direct, dtheta_direct, dtheta_conj)[()]
                if self.is_real_output:
                    theta, dtheta = np.real(theta), np.real(dtheta)
                out += [theta, dtheta]
        return tuple(out)

    def top(self, t):
        return self._theta(t)[0]

    def bot(self, t):
        return self._theta(t)[2]

    def product(self, t):
        """top*bot; equals -s value^2: -value^2 (hyperbolic, complex), +value^2 (ads)."""
        top, _, bot, _ = self._theta(t)
        return top * bot


def _params(t):
    """A parameter as a float, or parameters as a float array."""
    return float(t) if np.ndim(t) == 0 else np.asarray(t, dtype=float)


def _den_and_radicand(s: int, h, v, w):
    """den = h - s v^2 and the radicand den^2 + s w^2, the square of the speed
    L of the explicit-form geodesic (value v, slope w)."""
    den = add_signed(h, -s, v * v)
    return den, add_signed(den ** 2, s, w * w)


def theta_from_geodesic(spec: GeometrySpec, g: ExplicitGeodesic) -> ThetaPair:
    """Build the branch-tracked Theta pair of an explicit-form geodesic."""
    if spec.dim != 2:
        raise ValueError("use the complex chart for the 4D family")
    grid = g._values.refined(1)
    data = (eval_jet2(spec.h, g.point(grid)).value, g.value(grid), g.slope(grid))
    dens, rads = _den_and_radicand(spec.facts.sign,
                                   *(np.asarray(d, dtype=complex) for d in data))
    den_scale = float(np.max(np.abs(dens))) or 1.0
    if np.min(np.abs(dens)) <= 1e-12 * den_scale:
        worst = grid[int(np.argmin(np.abs(dens)))]
        raise DenominatorVanishesError(
            f"h -+ value^2 vanishes near parameter {worst}")
    coincident = bool(np.max(np.abs(rads)) < DEGENERACY_TOL)
    base_index = int(np.argmin(np.abs(grid - g.base_param)))
    tracked = _TrackedSqrt(grid, rads, base_index)
    return ThetaPair(spec, g, coincident, tracked)


# --- solution bases -------------------------------------------------------------

#: 4-point Gauss-Legendre rule on [-1, 1], exact for polynomials of degree 7
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(4)


def _weigh(weights, top, bot):
    """a top + b bot for weights (a, b). A weight of 0 drops its term (a
    non-finite partner does not turn the sum into NaN) and a weight of 1
    takes it as it is, so (1, 0) and (0, 1) are the solutions themselves."""
    a, b = weights
    if a == 0 or b == 0:
        w, u = (a, top) if b == 0 else (b, bot)
        return u if w == 1 else w * u
    return a * top + b * bot


@dataclass
class BasisJets:
    """u, u' and u'' of both solutions at the same parameters.

    ``matrix[r, c]`` is row r (u, u', u'') of column c (u_top, u_bot), the
    parameter axes last, so its first two rows are the fundamental matrix F.
    ``theta`` is the Theta read it was built from, (top, top', bot, bot') as
    ThetaPair._theta returns it: u' = Theta u and u'' = (Theta' + Theta^2) u.
    """

    theta: tuple
    matrix: np.ndarray

    def __getitem__(self, i) -> "BasisJets":
        """The jets at entry ``i`` of an array query, as computed there."""
        return BasisJets(tuple(part[i] for part in self.theta), self.matrix[..., i])

    def combination(self, a, b) -> tuple:
        """(u, u', u'') of a u_top + b u_bot."""
        return tuple(_weigh((a, b), top, bot) for top, bot in self.matrix)

    @property
    def wronskian(self):
        """u_top u_bot' - u_top' u_bot."""
        (top, bot), (d1_top, d1_bot) = self.matrix[:2]
        return top * d1_bot - d1_top * bot


class _Solution:
    """a u_top + b u_bot as a dense function with two derivatives.

    The weights apply to one evaluation of both solutions (see _weigh). For
    path reconstructions u', u'' are z-derivatives.
    """

    def __init__(self, basis: "SolutionBasis", a, b):
        self.basis = basis
        self.weights = (a, b)

    @property
    def support(self):
        return self.basis.support

    @property
    def _pair(self):
        return self.basis.theta

    def value(self, t):
        return _weigh(self.weights, *self.basis.values(t))

    def d1(self, t):
        return self.basis.jets(t).combination(*self.weights)[1]

    def d2(self, t):
        return self.basis.jets(t).combination(*self.weights)[2]

    __call__ = value


class SolutionBasis:
    """u_top/u_bot with u(base) = 1; general solution is A u_top + B u_bot.

    u = exp(integral of Theta). The integral is a fixed 4-point
    Gauss-Legendre rule on every interval between knots: the geodesic's
    nodes, the base point and the path vertices. One pass of the rule over
    the knots gives the exponents of both solutions there (cumulative sums);
    a query adds one more rule from the knot at or below it, again for both
    at once, so u(t) depends on t alone. For path reconstructions the
    integral runs in the path parameter with the path velocity as Jacobian.
    """

    def __init__(self, theta: ThetaPair, base_param: float):
        self.spec = theta.spec
        self.theta = theta
        self.base_param = base_param
        self._path = theta.geodesic.path
        lo, hi = theta.support
        knots = [theta.geodesic.nodes, [lo, hi, base_param]]
        if self._path is not None:
            knots.append([b for b in self._path.breaks if lo < b < hi])
        self._knots = np.unique(np.clip(np.concatenate(knots), lo, hi))
        base_knot = np.searchsorted(self._knots, min(max(base_param, lo), hi))
        self._at_knots = []
        for steps in self._rule(self._knots[:-1], self._knots[1:]):
            cumulative = np.concatenate([[0.0], np.cumsum(steps)])
            self._at_knots.append(cumulative - cumulative[base_knot])

    @property
    def support(self):
        return self.theta.support

    # made on each access: a solution stored on the basis would form a
    # reference cycle, which leaves every basis to the cyclic collector
    @property
    def u_top(self) -> _Solution:
        return _Solution(self, 1, 0)

    @property
    def u_bot(self) -> _Solution:
        return _Solution(self, 0, 1)

    def _rule(self, a: np.ndarray, b: np.ndarray) -> list[np.ndarray]:
        """Integrals of Theta_top and Theta_bot (times dzeta/ds on paths) over
        each [a_i, b_i]."""
        half = 0.5 * (b - a)
        s = (0.5 * (a + b))[:, None] + half[:, None] * _GL_NODES
        # keep _theta's arrays: the hyperbolic ones are strided real-part views,
        # and @ over a contiguous copy moves the last bit of the Gauss sums
        top, _, bot, _ = self.theta._theta(s.ravel())
        if self._path is not None:
            velocity = self._path.velocity(s.ravel())
            top, bot = top * velocity, bot * velocity
        return [half * (f.reshape(s.shape) @ _GL_WEIGHTS) for f in (top, bot)]

    def exponents(self, t):
        """Integrals of Theta_top and Theta_bot from the base point to t (a
        number or an array)."""
        t = _params(t)
        i = np.clip(np.searchsorted(self._knots, t, side="right") - 1, 0, len(self._knots) - 2)
        tails = self._rule(np.ravel(self._knots[i]), np.ravel(t))
        return tuple((at[i] + tail.reshape(np.shape(t)))[()]
                     for at, tail in zip(self._at_knots, tails))

    def values(self, t):
        """(u_top, u_bot) at t (a number or an array)."""
        if np.ndim(t) == 0:
            return tuple(u[0] for u in self.values(np.array([t], dtype=float)))
        out = tuple(np.exp(e) for e in self.exponents(t))
        return tuple(u.real for u in out) if self.theta.is_real_output else out

    def jets(self, t) -> BasisJets:
        """u, u' and u'' of both solutions at t (a number or an array)."""
        if np.ndim(t) == 0:
            return self.jets(np.array([t], dtype=float))[0]
        values, theta = self.values(t), self.theta._theta(t)
        return BasisJets(theta, np.stack([(u, th * u, (dth + th * th) * u) for u, th, dth
                                          in zip(values, theta[0::2], theta[1::2])], axis=1))

    def wronskian(self, t):
        return self.jets(t).wronskian

    def combination(self, a: float, b: float) -> _Solution:
        """A u_top + B u_bot as a dense function."""
        return _Solution(self, a, b)


def transition(a: SolutionBasis, b: SolutionBasis, t):
    """M = F_a^-1 F_b at t, one point of both bases (M's 2x2 axes first), from
    F_a^-1 as the adjugate of F_a over W_a, so det M = W_b / W_a."""
    if np.ndim(t) == 0:
        return transition(a, b, np.array([t], dtype=float))[..., 0]
    jets_a, jets_b = a.jets(t), b.jets(t)
    (u, v), (du, dv) = jets_a.matrix[:2]
    return np.einsum("ij...,jk...->ik...", np.array([[dv, -v], [-du, u]]),
                     jets_b.matrix[:2]) / jets_a.wronskian


def reconstruct_basis(spec: GeometrySpec, g: ExplicitGeodesic, base=None,
                      tol: float | None = None,
                      check_residual: bool = True) -> SolutionBasis:
    """Reconstruct the solution basis of u'' + h u = 0 from a geodesic.

    ``base`` is the parameter value where both solutions equal 1 (defaults to
    the geodesic's anchor). With ``check_residual`` the geodesic equation's
    defect is verified first: curves that are not geodesics do not produce
    solutions, and are rejected rather than silently reconstructed. A NaN
    defect counts as too large. ``tol`` is ignored: the basis integrals use a
    fixed rule with no tolerance to set. Along a complex path the integrals
    run along the geodesic's own path; path_independence_check compares
    alternative paths.
    """
    if base is None:
        base = g.base_param
    lo, hi = g.support
    if not (lo - 1e-12 <= base <= hi + 1e-12):
        raise OutsideSupportError(f"base {base} outside support [{lo}, {hi}]")
    if check_residual:
        grid = g._values.refined(1)
        if g.termination is Termination.DOMAIN_BOUNDARY and len(g.nodes) > 6:
            # the outermost intervals of a boundary-terminated support are
            # interpolation-limited (the equation itself degenerates there)
            inner = (grid > g.nodes[1]) & (grid < g.nodes[-2])
            grid = grid[inner] if np.count_nonzero(inner) > 4 else grid
        secs, f = sampled_and_prescribed(spec, g, grid)
        # relative to the local equation scale: explicit geodesics blow up
        # at finite x, where any absolute gate would misfire
        worst = np.max(np.abs(secs - f) / (1.0 + np.abs(f)))
        if not worst <= RESIDUAL_GATE:
            raise ResidualTooLargeError(
                f"relative geodesic residual {worst:.3e} exceeds "
                f"{RESIDUAL_GATE:.0e}; input curve does not solve the "
                "explicit-form equation")
    return SolutionBasis(theta_from_geodesic(spec, g), float(base))


# --- residuals -------------------------------------------------------------------

def _points_in_support(f, t):
    """The chart points of parameters ``t`` of a dense function ``f``."""
    lo, hi = f.support
    ts = _params(t)
    if np.any(ts < lo - 1e-9) or np.any(ts > hi + 1e-9):
        raise OutsideSupportError(f"{t} outside [{lo}, {hi}]")
    pair = getattr(f, "_pair", None)
    if pair is not None and pair.geodesic.path is not None:
        return pair.geodesic.path.point(ts)
    return ts


def ode_residual(h: Expression, u, t):
    """u'' + h u evaluated from dense-output derivatives at parameter t (or an array)."""
    point = _points_in_support(u, t)
    return u.d2(t) + eval_jet2(h, point).value * u.value(t)


def riccati_residual(h: Expression, theta, t):
    """Theta' + Theta^2 + h evaluated from dense-output derivatives."""
    point = _points_in_support(theta, t)
    val = theta.value(t)
    return theta.d1(t) + val * val + eval_jet2(h, point).value


# --- inversion -------------------------------------------------------------------

def _velocity_inside(path: ComplexPath, ts: np.ndarray) -> np.ndarray:
    """dzeta/ds at the nodes of one path segment, its ends taken from inside it."""
    inner = ts.copy()
    inner[0] = np.nextafter(ts[0], ts[-1])
    inner[-1] = np.nextafter(ts[-1], ts[0])
    return path.velocity(inner)


def invert_to_geodesic(source) -> ExplicitGeodesic:
    """Recover the explicit-form geodesic from a basis or a Theta pair.

    value = sqrt(-s top*bot): sqrt(-top*bot) for the hyperbolic and complex
    families, sqrt(+top*bot) for ads; the root is continued from the base
    (positive real part there), matching the uniqueness statement of the
    inversion formulas. The recovered curve is sampled at INVERSION_REFINE
    points inside every interval between the source's nodes. Along a path
    it is joined from one piece per path segment, so that the jump of the
    path velocity at a vertex is not smeared, and the slope curve takes its
    derivative from the Riccati equation.
    """
    if isinstance(source, SolutionBasis):
        pair = source.theta
        top, bot = source.values(np.linspace(*pair.support, 33))
        if np.min(np.abs(top)) == 0.0 or np.min(np.abs(bot)) == 0.0:
            raise ZeroCrossingOfUError("a basis solution vanishes on the support")
    elif isinstance(source, ThetaPair):
        pair = source
    else:
        raise TypeError("source must be a SolutionBasis or ThetaPair")
    g0 = pair.geodesic
    grid = g0._values.refined(INVERSION_REFINE)
    spec = pair.spec
    sign = -float(spec.facts.sign)
    top, dtop, bot, dbot = pair._theta(grid)
    # broadcast: a pair that is constant may answer with scalars
    prods = np.broadcast_to(sign * top * bot, grid.shape).astype(complex)
    dprods = np.broadcast_to(sign * (dtop * bot + top * dbot), grid.shape).astype(complex)
    real_family = not spec.is_complex_chart
    if real_family and np.min(prods.real) < -1e-9 * max(1.0, np.max(np.abs(prods))):
        raise NegativeRadicandError(
            "top*bot has the wrong sign; the pair did not come from this "
            "family's geodesic")
    base_index = int(np.argmin(np.abs(grid - g0.base_param)))
    vals = _TrackedSqrt(grid, prods, base_index).values
    # value' = (sign * top*bot)' / (2 value)
    slopes = dprods / (2 * vals)
    if real_family:
        vals, slopes = vals.real, slopes.real
    if g0.path is None:
        curve = CurveDense(grid, [vals, slopes])
        return ExplicitGeodesic(spec, g0.base, g0.termination, curve)
    # value'' = ((sign top*bot)''/2 - value'^2) / value, with Theta'' = -2 Theta Theta' - h'
    dh = eval_jet2(spec.h, g0.point(grid)).d1
    d2top, d2bot = (-2 * th * dth - dh for th, dth in ((top, dtop), (bot, dbot)))
    d2prods = sign * (d2top * bot + 2 * dtop * dbot + top * d2bot)
    seconds = (d2prods / 2 - slopes ** 2) / vals
    # each segment run of the source starts and ends on its path break, so
    # the breaks inside the support are grid points: the joins
    lo, hi = g0.support
    joins = np.searchsorted(grid, [b for b in g0.path.breaks if lo < b < hi])
    ends = [0, *joins.tolist(), len(grid) - 1]
    value_pieces, slope_pieces = [], []
    for start, stop in zip(ends, ends[1:]):
        part = slice(start, stop + 1)
        ts = grid[part]
        velocity = _velocity_inside(g0.path, ts)
        value_pieces.append(CurveDense(ts, [vals[part], slopes[part] * velocity]))
        slope_pieces.append(CurveDense(ts, [slopes[part], seconds[part] * velocity]))
    return ExplicitGeodesic(spec, g0.base, g0.termination, CurveDense.joined(value_pieces),
                            g0.path, CurveDense.joined(slope_pieces))


# --- Riccati solutions as geodesics ----------------------------------------------

def integrate_riccati(h: Expression, theta0, x0: float, support,
                      tol: float = 1e-12) -> CurveDense:
    """Direct RK integration of Theta' = -Theta^2 - h as a dense function.

    Works for real h/theta0 and for complex-mode h along the real axis. The
    solver steps Theta in its own numbers: complex for a complex-mode h, also
    from a real theta0. Theta blows up where the solution u = exp(int Theta)
    vanishes; each run ends on its last node with |Theta| below
    ``RICCATI_CAP``.
    """
    a, b = float(support[0]), float(support[1])
    y0 = np.array([theta0], dtype=complex if h.mode == "complex" else None)
    if np.iscomplexobj(y0):
        def rhs(x, y):
            # numpy's complex arithmetic on the array state (see integrate_explicit)
            return -y * y - eval_jet2(h, x).value
    else:
        def rhs(x, y):
            theta, = y
            return [-theta * theta - eval_jet2(h, x).value]

    xs, (ths,), _, _ = solve_from_inside(rhs, x0, y0, (a, b),
                                         lambda _x, y: RICCATI_CAP - abs(y[0]), tol,
                                         abs(b - a) / 64.0)
    hj = eval_jet2(h, xs)
    d1 = -ths * ths - hj.value
    d2 = -2 * ths * d1 - hj.d1
    return CurveDense(xs, [ths, d1, d2])


@dataclass(frozen=True)
class RiccatiGeodesicReport:
    riccati: np.ndarray  # |Theta' + Theta^2 + h| at 257 points spanning the support
    geodesic: np.ndarray  # |explicit-equation residual| of the induced curve there
    tolerance: float
    sign: complex  # the factor mapping Theta to the induced geodesic value


def riccati_solution_is_geodesic(spec: GeometrySpec, theta,
                                 sign_mode: str = "real",
                                 tol: float = 1e-6) -> RiccatiGeodesicReport:
    """The deviations of a Riccati solution from the Riccati equation and of
    its induced curve from the explicit-form geodesic equation.

    real mode (ads): the induced curve is Psi = +-Theta, whichever is
    positive. imaginary mode (complex sphere): X = -i Theta (equivalently
    +i Theta; the explicit equation is odd in X). Neither deviation is
    judged here; ``tol`` is carried as the report's tolerance.
    """
    lo, hi = theta.support
    grid = np.linspace(lo, hi, 257)
    ric = np.abs(riccati_residual(spec.h, theta, grid))
    if sign_mode == "real":
        if spec.dim != 2 or spec.facts.sign > 0:
            raise ValueError("real mode checks the ads explicit equation")
        th0 = theta.value(0.5 * (lo + hi))
        factor = 1.0 if np.real(th0) > 0 else -1.0
    elif sign_mode == "imaginary":
        if not spec.is_complex_chart:
            raise ValueError("imaginary mode checks the complex explicit equation")
        factor = -1j
    else:
        raise ValueError("sign_mode must be 'real' or 'imaginary'")
    # v = 0 (the ads boundary) makes a deviation inf or NaN, which fails the check
    with np.errstate(divide="ignore", invalid="ignore"):
        devs = np.abs(factor * theta.d2(grid) - explicit_second(
            spec, grid, factor * theta.value(grid), factor * theta.d1(grid)))
    return RiccatiGeodesicReport(ric, devs, tol, factor)


# --- path independence -----------------------------------------------------------

@dataclass(frozen=True)
class PathIndependenceReport:
    diff_top: float
    diff_bot: float
    tolerance: float

    @property
    def passes(self) -> bool:
        # np.max keeps a NaN (the builtin max drops it unless it comes first)
        return bool(np.max([self.diff_top, self.diff_bot]) <= self.tolerance)


def path_independence_check(spec: GeometrySpec, g: ExplicitGeodesic,
                            z0: complex, z1: complex,
                            path_a: ComplexPath, path_b: ComplexPath,
                            tol: float = 1e-8) -> PathIndependenceReport:
    """Compare the Theta integrals along two paths from z0 to z1.

    The geodesic is re-integrated from its initial data along each path (the
    holomorphic continuation is path independent while the paths stay in the
    support region); leaving the region raises PathLeavesSupportError.
    """
    if not spec.is_complex_chart:
        raise ValueError("path independence applies to the complex family")
    if g.path is None or abs(g.path.start - complex(z0)) > 1e-12:
        raise ValueError("geodesic must be anchored at z0")
    for name, path in (("A", path_a), ("B", path_b)):
        if abs(path.start - complex(z0)) > 1e-10 or abs(path.end - complex(z1)) > 1e-10:
            raise ValueError(f"path {name} does not run from z0 to z1")
    x0, w0 = g.value(0.0), g.slope(0.0)
    integrals = []
    for path in (path_a, path_b):
        try:
            gp = integrate_explicit(spec, z0, x0, w0, path=path, tol=1e-12)
        except (StepSizeUnderflowError, StartOnSingularSetError) as exc:
            raise PathLeavesSupportError(str(exc)) from exc
        if gp.termination is not Termination.RANGE_END:
            raise PathLeavesSupportError(
                f"path hits the domain boundary at s={gp.support[1]:.6g}")
        basis = reconstruct_basis(spec, gp, check_residual=False)
        integrals.append(basis.exponents(1.0))
    (ta, ba), (tb, bb) = integrals
    return PathIndependenceReport(abs(ta - tb), abs(ba - bb), tol)
