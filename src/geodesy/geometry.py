"""The four metric families tied to u'' + h*u = 0 and their curvature.

Chart conventions
-----------------
hyperbolic      coords (x, Phi),   Phi > 0, Phi^2 != h(x)
                g = [ (h - Phi^2)^2 dx^2 + dPhi^2 ] / Phi^2
ads+ / ads-     coords (x, Psi),   Psi > 0, Psi^2 != -h(x)
                g~ = [ -(h + Psi^2)^2 dx^2 + dPsi^2 ] / Psi^2, ads- carries -g~
complex         coords (z, X) complex, X != 0, X^2 != h(z), h holomorphic
                G = [ (h - X^2)^2 dz^2 + dX^2 ] / X^2
kn              coords (x, Phi, y, Psi) real 4D; the real part of G under
                z = x + iy, X = Phi + i Psi (scaling constant alpha = 1)

On a 2D chart (t, v) the families differ only by the sign s (+1 hyperbolic
and complex, -1 ads) in den = h - s v^2, the signature signs (e0, e1) and a
real or complex chart, all stated once in FAMILY_FACTS: g = diag(e0 den^2,
e1) / v^2; the domain is |den| > 0 and v > 0 (|v| > 0 if complex); Gamma^t_tt
= h'/den, Gamma^t_tv = -(h + s v^2)/(v den), Gamma^v_tt = s (h^2 - v^4)/v,
Gamma^v_vv = -1/v. The explicit-form equation and the Theta pair follow
from s, with the unit -1 (s = +1) or +i (s = -1) on the root in Theta_top.
kn has the complex family's domain and symbols at z = x + iy, X = Phi + i Psi
and its own 4D metric. signed and add_signed apply s by choosing x or -x: a
float +-1 factor would flip signed zeros of complex numbers.

Christoffel symbols come either from the closed-form table above or
generically from order-2 jets of the metric components; the two routes serve
as mutual oracles. Curvature is always computed from jets.

The jet route works on a leading point axis: metric_at, christoffel_at
(from_jets), curvature_at and require_in_domain take one point or a (..., n)
array of points, evaluate h once over the array and build every metric jet,
symbol and Riemann tensor with a fixed number of array operations; one point
is the shape-() case of the same code. The closed-form table stays per point.
A metric counts as singular when the determinant of its row-equilibrated
matrix (each row divided by its largest modulus) is below 1e-14 in modulus,
a test without the overflow of a max|g|^n scale. The curvature command checks
Ric = K g relative to the metric's size, max|Ric - K g| / max(1, max|g|) per
point, since the absolute gap of a metric near 1e260 is rounding times 1e260.

A constant rescaling beta*G of the holomorphic metric would leave every
geodesic unchanged and rescale the holomorphic sectional curvature to
-1/beta; nothing qualitative depends on it, so no scaling knob is exposed
(the 4D construction fixes the real scaling constant to 1 likewise, which is
what pins the Einstein constant at -2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .errors import DomainError, OutOfDomainError, SingularMetricError
from .expr import Expression, Jet2, eval_jet2
from .jets import Taylor2, compose_jet

#: guard band around the singular sets Phi^2 = h etc.
EPS_DOM = 1e-9


class Family(enum.Enum):
    HYPERBOLIC = "hyperbolic"
    ADS_PLUS = "ads+"
    ADS_MINUS = "ads-"
    COMPLEX_SPHERE = "complex"
    KAHLER_NORDEN = "kn"

    @staticmethod
    def from_name(name: str) -> "Family":
        key = name.strip().lower().replace("_", "-")
        aliases = {"ads": "ads+", "ads-plus": "ads+", "ads-minus": "ads-",
                   "complex-sphere": "complex", "kahler-norden": "kn"}
        try:
            return Family(aliases.get(key, key))
        except ValueError:
            raise ValueError(f"unknown family {name!r}") from None


@dataclass(frozen=True)
class FamilyFacts:
    """Everything that tells one family from another."""

    sign: int  # s in den = h - s*v^2
    complex_chart: bool
    h_mode: str  # parse mode of h
    coord_names: tuple[str, ...]
    signature: tuple[int, ...]  # signs of the diagonal metric terms
    expected: float  # sectional K (2D) or Einstein eta in Ric = eta*g (kn)
    theta_unit: complex | None  # factor of the root in Theta_top (bot: its negative)

    @property
    def signature_text(self) -> str:
        if self.complex_chart:
            return "holomorphic"
        return "(" + ",".join("+" if e > 0 else "-" for e in self.signature) + ")"


FAMILY_FACTS = {
    Family.HYPERBOLIC: FamilyFacts(1, False, "real", ("x", "Phi"), (1, 1), -1.0, -1.0),
    Family.ADS_PLUS: FamilyFacts(-1, False, "real", ("x", "Psi"), (-1, 1), -1.0, 1j),
    Family.ADS_MINUS: FamilyFacts(-1, False, "real", ("x", "Psi"), (1, -1), 1.0, 1j),
    Family.COMPLEX_SPHERE: FamilyFacts(1, True, "complex", ("z", "X"), (1, 1), -1.0, -1.0),
    Family.KAHLER_NORDEN: FamilyFacts(1, False, "complex", ("x", "Phi", "y", "Psi"),
                                      (-1, -1, 1, 1), -2.0, None),
}

REAL_FAMILIES = tuple(f for f in Family if FAMILY_FACTS[f].h_mode == "real")


def signed(s: int, x):
    """s*x for s = +-1, by choosing x or -x."""
    return x if s > 0 else -x


def add_signed(a, s: int, b):
    """a + s*b for s = +-1, by choosing + or -."""
    return a + b if s > 0 else a - b


@dataclass(frozen=True)
class GeometrySpec:
    """One of the four metric families bound to a coefficient function h."""

    family: Family
    h: Expression

    def __post_init__(self):
        needs = self.facts.h_mode
        if self.h.mode != needs:
            raise ValueError(
                f"{self.family.value} requires an h parsed in {needs} mode, "
                f"got {self.h.mode}")

    @cached_property
    def facts(self) -> FamilyFacts:
        return FAMILY_FACTS[self.family]

    @property
    def dim(self) -> int:
        return len(self.facts.coord_names)

    @property
    def is_complex_chart(self) -> bool:
        return self.facts.complex_chart

    @cached_property
    def scalar(self) -> type:
        """The type of the chart coordinates: complex on the complex chart, else float."""
        return complex if self.is_complex_chart else float

    @property
    def coord_names(self) -> tuple[str, ...]:
        return self.facts.coord_names


@dataclass(frozen=True)
class MetricValue:
    components: np.ndarray  # (..., n, n), symmetric; (n, n) at one point
    signature: str


@dataclass(frozen=True)
class ChristoffelValue:
    symbols: np.ndarray  # (..., n, n, n), symbols[..., i, j, k] = Gamma^i_{jk}
    coord_names: tuple[str, ...]


@dataclass(frozen=True)
class CurvatureReport:
    """Curvature at one point (scalar fields) or at a (..., n) array of points
    (every field with the leading shape (...))."""

    point: np.ndarray  # (..., n)
    metric: np.ndarray  # (..., n, n), real for kn
    ricci: np.ndarray  # (..., n, n)
    ricci_scalar: complex
    sectional_k: complex | None = None  # sectional / holomorphic sectional (2D)
    einstein_eta: float | None = None  # least-squares eta in Ric = eta*g (kn)
    einstein_fit_residual: float | None = None


# --- domain sets --------------------------------------------------------------

def chart_pair(spec: GeometrySpec, coords):
    """(t, v): the point where h is evaluated and the fibre coordinate.

    Real charts give floats, the complex chart complex numbers, and the kn
    chart the complex pair z = x + iy, X = Phi + i Psi.
    """
    if spec.dim == 4:
        x, phi, y, psi = (float(c) for c in coords)
        return complex(x, y), complex(phi, psi)
    return spec.scalar(coords[0]), spec.scalar(coords[1])


def chart_points(spec: GeometrySpec, points):
    """:func:`chart_pair` of a (..., n) array of points, as two (...) arrays."""
    p = np.asarray(points)
    if spec.dim == 4:
        p = p.astype(float)
        return p[..., 0] + 1j * p[..., 2], p[..., 1] + 1j * p[..., 3]
    p = p.astype(spec.scalar)
    return p[..., 0], p[..., 1]


def den_at(spec: GeometrySpec, t, v):
    """den = h(t) - s*v^2; the singular set of the chart is den = 0."""
    return add_signed(eval_jet2(spec.h, t).value, -spec.facts.sign, v * v)


def _domain_masks(spec: GeometrySpec, points, guard: float):
    """Per point of a (..., n) array: (v within guard of 0, or not positive on a
    real chart; |den| within guard of 0)."""
    t, v = chart_points(spec, points)
    den = den_at(spec, t, v)
    v_bad = ~(np.abs(v) > guard) if np.iscomplexobj(v) else ~(v > guard)
    return v_bad, np.abs(den) <= guard


def _violation_text(spec: GeometrySpec, v_bad: bool) -> str:
    names = spec.coord_names
    if spec.dim == 4:
        t_name, v_name = f"{names[0]} + i*{names[2]}", f"{names[1]} + i*{names[3]}"
    else:
        t_name, v_name = names
    if v_bad:
        return f"{v_name} != 0" if spec.facts.h_mode == "complex" else f"{v_name} > 0"
    square = f"({v_name})^2" if spec.dim == 4 else f"{v_name}^2"
    return f"{square} != {'-' if spec.facts.sign < 0 else ''}h({t_name})"


def domain_violation(spec: GeometrySpec, coords, guard: float = EPS_DOM) -> str | None:
    """Name of the violated domain condition, or None if ``coords`` is interior."""
    v_bad, den_bad = _domain_masks(spec, coords, guard)
    return _violation_text(spec, v_bad) if v_bad or den_bad else None


def require_in_domain(spec: GeometrySpec, coords) -> None:
    """Raise OutOfDomainError at the first point of ``coords`` (one point or a
    (..., n) array) outside the domain with guard EPS_DOM, naming its condition."""
    points = np.asarray(coords)
    v_bad, den_bad = _domain_masks(spec, points, EPS_DOM)
    bad = np.flatnonzero(v_bad | den_bad)
    if bad.size:
        first = bad[0]
        point = tuple(points.reshape(-1, points.shape[-1])[first].tolist())
        raise OutOfDomainError(
            f"point {point} violates {_violation_text(spec, v_bad.ravel()[first])} "
            f"for {spec.family.value}")


# --- metric components as order-2 jets ----------------------------------------

def _stack(components: dict, n: int):
    """Value, gradient and Hessian arrays of a metric given as {(j, k): Taylor2}
    (zero elsewhere): g0 (..., n, n), dg (..., l, j, k) = d_l g_jk and
    d2g (..., l, m, j, k) = d_l d_m g_jk."""
    first = next(iter(components.values()))
    shape, dtype = np.shape(first.value), first.grad.dtype
    g0 = np.zeros(shape + (n, n), dtype)
    dg = np.zeros(shape + (n, n, n), dtype)
    d2g = np.zeros(shape + (n, n, n, n), dtype)
    for (j, k), c in components.items():
        g0[..., j, k] = c.value
        dg[..., :, j, k] = c.grad
        d2g[..., :, :, j, k] = c.hess
    return g0, dg, d2g


def _metric_taylor(spec: GeometrySpec, points):
    """(g0, dg, d2g) of the metric at a (..., n) array of chart points, with
    one array evaluation of h; see :func:`_stack` for the shapes. A single
    point takes the same numpy evaluation of h as a batch (not math/cmath),
    so its jets equal the batch's entry bit for bit."""
    t, v = chart_points(spec, points)
    h = eval_jet2(spec.h, np.asarray(t))
    if spec.dim == 2:
        tt = Taylor2.coordinate(t, 0, 2, v.dtype)
        vt = Taylor2.coordinate(v, 1, 2, v.dtype)
        v2 = vt * vt
        den = add_signed(compose_jet(h, tt), -spec.facts.sign, v2)
        e0, e1 = spec.facts.signature
        return _stack({(0, 0): signed(e0, den * den) / v2, (1, 1): signed(e1, 1.0) / v2}, 2)
    # Kähler-Norden: explicit 4D components in terms of h_Re, h_Im, Delta+-
    xt, pt, yt, st = (Taylor2.coordinate(c, k, 4, np.complex128)
                      for k, c in enumerate((t.real, v.real, t.imag, v.imag)))
    ht = compose_jet(h, xt + 1j * yt)
    h_re, h_im = ht.real(), ht.imag()
    d_plus = pt * pt + st * st
    d_minus = pt * pt - st * st
    dp2 = d_plus * d_plus
    a = (d_minus * (dp2 + h_re * h_re - h_im * h_im)
         + 4.0 * pt * st * h_re * h_im - 2.0 * dp2 * h_re) / dp2
    b = (-2.0 * (pt * h_im - st * (d_plus + h_re)) * (st * h_im - pt * (d_plus - h_re))
         / dp2).real()
    g_pp = d_minus / dp2
    g_ps = (2.0 * pt * st / dp2).real()
    return _stack({(0, 0): a.real(), (2, 2): (-a).real(), (0, 2): b, (2, 0): b,
                   (1, 1): g_pp.real(), (3, 3): (-g_pp).real(), (1, 3): g_ps, (3, 1): g_ps},
                  4)


def metric_at(spec: GeometrySpec, coords) -> MetricValue:
    """Metric components at a chart point, or at each point of a (..., n) array."""
    require_in_domain(spec, coords)
    g0, _, _ = _metric_taylor(spec, coords)
    return MetricValue(g0, spec.facts.signature_text)


# --- Christoffel symbols --------------------------------------------------------

def _symbol_table(s: int, h: Jet2, v) -> np.ndarray:
    """Closed-form Gamma^i_jk of a 2D chart (t, v) (module docstring), complex if v is.

    The two ads signs share them: their metrics differ by a constant factor.
    """
    v2 = v * v
    gam = np.zeros((2, 2, 2), dtype=complex if isinstance(v, complex) else float)
    gam[0, 0, 0] = h.d1 / add_signed(h.value, -s, v2)
    # -(h + s v^2)/(v den), written as (v^2 + s h)/(v (v^2 - s h))
    gam[0, 0, 1] = gam[0, 1, 0] = add_signed(v2, s, h.value) / (v * add_signed(v2, -s, h.value))
    gam[1, 0, 0] = signed(s, h.value * h.value - v ** 4) / v
    gam[1, 1, 1] = -1.0 / v
    return gam


def complexify_christoffel(ups: np.ndarray) -> np.ndarray:
    """4D real symbols (..., 4, 4, 4) induced by holomorphic ones (..., 2, 2, 2).

    Real coordinates are ordered (x, Phi, y, Psi): holomorphic index a maps to
    real part a and imaginary part a + 2. Matching Re/Im of
    Upsilon^c_ab zdot^a zdot^b termwise gives, for U = A + iB:

        real upper index:  (re,re) -> A, (re,im) -> -B, (im,im) -> -A
        imag upper index:  (re,re) -> B, (re,im) ->  A, (im,im) -> -B
    """
    out = np.zeros(ups.shape[:-3] + (4, 4, 4))
    for c, a, b in product(range(2), repeat=3):
        u = ups[..., c, a, b]
        re_c, im_c = c, c + 2
        re_a, im_a = a, a + 2
        re_b, im_b = b, b + 2
        out[..., re_c, re_a, re_b] = u.real
        out[..., re_c, re_a, im_b] = -u.imag
        out[..., re_c, im_a, re_b] = -u.imag
        out[..., re_c, im_a, im_b] = -u.real
        out[..., im_c, re_a, re_b] = u.imag
        out[..., im_c, re_a, im_b] = u.real
        out[..., im_c, im_a, re_b] = u.real
        out[..., im_c, im_a, im_b] = -u.imag
    return out


def christoffel_table(spec: GeometrySpec, coords) -> np.ndarray:
    """Closed-form Gamma^i_{jk} at one point as a bare array, without domain validation.

    Integrator right-hand sides call this on every step; boundary handling is
    the event machinery's job there, so no checks are repeated here. The kn
    symbols are the complexification of the holomorphic ones.
    """
    t, v = chart_pair(spec, coords)
    gam = _symbol_table(spec.facts.sign, eval_jet2(spec.h, t), v)
    return complexify_christoffel(gam) if spec.dim == 4 else gam


def _invert_metric(g0: np.ndarray) -> np.ndarray:
    """g^-1 of a (..., n, n) stack of metrics.

    A metric is singular when its determinant, with each row divided by its
    largest modulus, is below 1e-14 in modulus: the test is scale-free, so a
    regular metric with entries near 1e260 passes and a nearly singular one
    fails at any scale.
    """
    rows = np.max(np.abs(g0), axis=-1, keepdims=True)
    det = np.linalg.det(g0 / np.where(rows > 0, rows, 1.0))
    singular = np.flatnonzero(np.abs(det) < 1e-14)
    if singular.size:
        raise SingularMetricError(
            f"row-equilibrated metric determinant {det.ravel()[singular[0]]} "
            f"too close to zero")
    return np.linalg.inv(g0)


def _christoffel_from_jets(g0: np.ndarray, dg: np.ndarray, d2g: np.ndarray):
    """g^-1, Gamma and its first derivatives from the metric jets of :func:`_stack`."""
    ginv = _invert_metric(g0)
    # T[l, j, k] = d_k g_lj + d_j g_lk - d_l g_jk
    T = np.einsum("...klj->...ljk", dg) + np.einsum("...jlk->...ljk", dg) - dg
    gamma = 0.5 * np.einsum("...il,...ljk->...ijk", ginv, T)
    dginv = -np.einsum("...ip,...mpq,...ql->...mil", ginv, dg, ginv)
    Tm = (np.einsum("...kmlj->...mljk", d2g) + np.einsum("...jmlk->...mljk", d2g)
          - np.einsum("...lmjk->...mljk", d2g))
    dgamma = 0.5 * (np.einsum("...mil,...ljk->...mijk", dginv, T)
                    + np.einsum("...il,...mljk->...mijk", ginv, Tm))
    return ginv, gamma, dgamma


def christoffel_at(spec: GeometrySpec, coords, method: str = "closed_form") -> ChristoffelValue:
    """Christoffel symbols Gamma^i_{jk} at a point.

    ``closed_form`` uses the per-family tables at one point; ``from_jets``
    differentiates the metric components via order-2 jets and applies
    Gamma^i_jk = (1/2) g^{il} (g_{lj,k} + g_{lk,j} - g_{jk,l}), at one point
    or at each point of a (..., n) array (symbols of shape (..., n, n, n)).
    """
    require_in_domain(spec, coords)
    if method == "closed_form":
        return ChristoffelValue(christoffel_table(spec, coords), spec.coord_names)
    if method == "from_jets":
        _, gamma, _ = _christoffel_from_jets(*_metric_taylor(spec, coords))
        return ChristoffelValue(gamma, spec.coord_names)
    raise ValueError(f"unknown method {method!r}")


# --- curvature -----------------------------------------------------------------

def _riemann(gamma: np.ndarray, dgamma: np.ndarray) -> np.ndarray:
    """R^i_jkl = Gamma^i_jl,k - Gamma^i_jk,l + Gamma^i_mk Gamma^m_jl - Gamma^i_ml Gamma^m_jk."""
    return (np.einsum("...kijl->...ijkl", dgamma) - np.einsum("...lijk->...ijkl", dgamma)
            + np.einsum("...imk,...mjl->...ijkl", gamma, gamma)
            - np.einsum("...iml,...mjk->...ijkl", gamma, gamma))


def _riemann_at(spec: GeometrySpec, coords):
    """(g, g^-1, R^i_jkl) at domain points, from jets of the metric."""
    require_in_domain(spec, coords)
    g0, dg, d2g = _metric_taylor(spec, coords)
    ginv, gamma, dgamma = _christoffel_from_jets(g0, dg, d2g)
    return g0, ginv, _riemann(gamma, dgamma)


def curvature_at(spec: GeometrySpec, coords) -> CurvatureReport:
    """Curvature quantities from jet-differentiated Christoffel symbols.

    ``coords`` is one point or a (..., n) array of points; every field of the
    report then carries the leading shape (...), so a whole sample costs a
    fixed number of array operations. 2D families report the sectional
    curvature (holomorphic sectional for the complex family, where the same
    quotient of complex quantities applies); the 4D family reports the
    least-squares Einstein constant with its fit residual instead.
    """
    points = np.asarray(coords)
    g0, ginv, riem = _riemann_at(spec, points)
    ricci = np.einsum("...kjkl->...jl", riem)
    scalar = np.einsum("...jl,...jl->...", ginv, ricci)
    if spec.dim == 2:
        r0101 = np.einsum("...m,...m->...", g0[..., 0, :], riem[..., :, 1, 0, 1])
        k = r0101 / (g0[..., 0, 0] * g0[..., 1, 1] - g0[..., 0, 1] * g0[..., 1, 0])
        return CurvatureReport(points, g0, ricci, scalar[()], sectional_k=k[()])
    ricci, scalar, g0 = ricci.real, scalar.real, g0.real
    iu = np.triu_indices(4)
    r_up, g_up = ricci[..., iu[0], iu[1]], g0[..., iu[0], iu[1]]
    eta = np.einsum("...k,...k->...", r_up, g_up) / np.einsum("...k,...k->...", g_up, g_up)
    residual = np.max(np.abs(ricci - eta[..., None, None] * g0), axis=(-2, -1))
    return CurvatureReport(points, g0, ricci, scalar[()],
                           einstein_eta=eta[()], einstein_fit_residual=residual[()])


def plane_sectional_curvature(spec: GeometrySpec, coords, u, v) -> float:
    """Sectional curvature of the plane spanned by tangent vectors u, v at one point."""
    g0, _, riem = _riemann_at(spec, coords)
    r_low = np.einsum("im,mjkl->ijkl", g0, riem)
    u = np.asarray(u, dtype=g0.dtype)
    v = np.asarray(v, dtype=g0.dtype)
    num = np.einsum("ijkl,i,j,k,l->", r_low, u, v, u, v)
    guu = u @ g0 @ u
    gvv = v @ g0 @ v
    guv = u @ g0 @ v
    den = guu * gvv - guv * guv
    if abs(den) < 1e-12:
        raise ValueError("degenerate (null) plane")
    return num / den


# --- sampling -------------------------------------------------------------------

#: lower bound on |den| at sampled points
SAMPLE_MARGIN = 0.05


def _draw(spec: GeometrySpec, rng: np.random.Generator) -> tuple:
    """One uniform chart point from the family's sampling box."""
    if spec.dim == 4:
        x, y = rng.uniform(-1.0, 1.0, size=2)
        phi, psi = rng.uniform(-1.5, 1.5, size=2)
        return x, phi, y, psi
    if spec.is_complex_chart:
        z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        return z, complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
    return rng.uniform(-2.0, 2.0), rng.uniform(0.2, 3.0)


def sample_domain_points(spec: GeometrySpec, rng: np.random.Generator,
                         count: int) -> np.ndarray:
    """Random chart points, rejection-sampled away from the singular sets.

    Keeping |den| > SAMPLE_MARGIN makes curvature checks run on
    well-conditioned points; complex pairs also keep |v| > 0.3 (real charts
    draw v >= 0.2). A draw where h is undefined (log(x) at x <= 0) is
    rejected like any other: every draw takes the same random numbers, so a
    rejection shifts no later draw.
    """
    pts = []
    attempts = 0
    while len(pts) < count:
        attempts += 1
        if attempts > 200 * (count + 10):
            raise OutOfDomainError(
                f"rejection sampling kept {len(pts)} of {count} points after "
                f"{attempts - 1} draws; domain too thin for {spec.family.value}?")
        point = _draw(spec, rng)
        t, v = chart_pair(spec, point)
        try:
            den = den_at(spec, t, v)
        except DomainError:
            continue
        if (not isinstance(v, complex) or abs(v) > 0.3) and abs(den) > SAMPLE_MARGIN:
            pts.append(point)
    return np.array(pts, dtype=spec.scalar)
