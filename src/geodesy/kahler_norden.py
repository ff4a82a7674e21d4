"""The 4D real picture and its correspondence with the complex chart.

Coordinates (x, Phi, y, Psi) with z = x + iy, X = Phi + i Psi. The 4D metric
is the real part of the holomorphic metric (scaling constant 1), its
Christoffel symbols are the complexification of the holomorphic ones, and 4D
geodesics project onto complex-chart geodesics run with a real parameter.
Every operation here verifies one leg of that correspondence numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import Expression, eval_jet2
from .geodesics import (
    GeodesicState,
    accelerations,
    explicit_from_trajectory,
    integrate_geodesic,
    path_explicit_from_samples,
)
from .geometry import (
    Family,
    GeometrySpec,
    chart_pair,
    chart_points,
    christoffel_at,
    christoffel_table,
    complexify_christoffel,
    metric_at,
    require_in_domain,
)
from .reconstruct import reconstruct_basis

#: imaginary step of the central difference in cauchy_riemann_residual
CR_STEP = 1e-5
#: solver tolerance of both integrations in kn_geodesic_split
KN_RK_TOL = 1e-12


def _require_kn(spec: GeometrySpec) -> GeometrySpec:
    """The complex-chart spec sharing the h of a 4D spec."""
    if spec.family is not Family.KAHLER_NORDEN:
        raise ValueError("expected the 4D family")
    return GeometrySpec(Family.COMPLEX_SPHERE, spec.h)


def cauchy_riemann_residual(h: Expression, x, y) -> tuple:
    """Residuals of the two Cauchy-Riemann equations for Re h, Im h.

    The x-partials come exactly from the holomorphic jet; the y-partials from
    a central difference along the imaginary direction with step CR_STEP,
    so the identity is probed across two genuinely different evaluations.
    ``x`` and ``y`` may be arrays of points; each residual then has their shape.
    """
    z = np.asarray(x) + 1j * np.asarray(y)
    dx = eval_jet2(h, z).d1
    step = CR_STEP
    dy = (eval_jet2(h, z + 1j * step).value - eval_jet2(h, z - 1j * step).value) / (2 * step)
    return np.abs(dx.real - dy.imag), np.abs(dy.real + dx.imag)


# Re[G_ab dZ^a dZ^b] = Re[G_zz dz dz + G_XX dX dX] over (x, Phi, y, Psi)
_DZ = np.array([1.0, 0.0, 1.0j, 0.0])
_DX = np.array([0.0, 1.0, 0.0, 1.0j])
_DZ_DZ, _DX_DX = np.outer(_DZ, _DZ), np.outer(_DX, _DX)


def kn_metric_from_correspondence(spec: GeometrySpec, p) -> np.ndarray:
    """Re[G_ab dZ^a dZ^b] written out over (x, Phi, y, Psi), at one point or
    at each point of a (..., 4) array."""
    _require_kn(spec)
    z, X = chart_points(spec, np.asarray(p, dtype=float))
    h = eval_jet2(spec.h, z).value
    g_zz = (h - X * X) ** 2 / (X * X)
    g_xx = 1.0 / (X * X)
    return (g_zz[..., None, None] * _DZ_DZ + g_xx[..., None, None] * _DX_DX).real


def kn_metric_consistency(spec: GeometrySpec, p):
    """Sup-norm gap between the explicit 4D components and Re[G dZ dZ]: a
    float at one point, an array of gaps over a (..., 4) array of points."""
    coords = np.asarray(p, dtype=float)
    explicit = metric_at(spec, coords).components
    built = kn_metric_from_correspondence(spec, coords)
    return np.max(np.abs(explicit - built), axis=(-2, -1))


_UPS_NAMES = {(0, 0, 0): "U^z_zz", (0, 0, 1): "U^z_zX",
              (1, 0, 0): "U^X_zz", (1, 1, 1): "U^X_XX"}


@dataclass(frozen=True)
class KNChristoffelReport:
    # floats at one point, arrays over the points of a (..., 4) array
    max_violation: float  # |4D jets symbols - complexified holomorphic ones|
    off_pattern_max: float  # largest symbol where the pattern says zero
    identities: dict[str, float]  # per displayed identity group

    @property
    def worst(self) -> float:
        """The largest deviation over every point; np.max keeps a NaN (the
        builtin max drops it unless it comes first)."""
        return float(np.max([self.max_violation, self.off_pattern_max,
                             *self.identities.values()]))


def kn_christoffel_correspondence(spec: GeometrySpec, p) -> KNChristoffelReport:
    """Check the 4D Christoffel symbols against the holomorphic ones.

    The 4D symbols are differentiated out of the explicit metric components,
    for all points in one array pass; the holomorphic table is evaluated point
    by point, an independent oracle, and complexified. Reported are the
    all-slot mismatch, the largest symbol outside the correspondence pattern,
    and each displayed Re/Im identity group separately.
    """
    coords = np.asarray(p, dtype=float)
    hat = christoffel_at(spec, coords, "from_jets").symbols
    spec_c = _require_kn(spec)
    ups = np.array([christoffel_table(spec_c, chart_pair(spec, q))
                    for q in coords.reshape(-1, 4)]).reshape(coords.shape[:-1] + (2, 2, 2))
    expected = complexify_christoffel(ups)
    every = (-3, -2, -1)
    max_violation = np.max(np.abs(hat - expected), axis=every)
    off_pattern_max = np.max(np.where(np.abs(expected) > 0, 0.0, np.abs(hat)), axis=every)
    identities = {}
    for (c, a, b), name in _UPS_NAMES.items():
        u = ups[..., c, a, b]
        re_c, im_c, re_a, im_a, re_b, im_b = c, c + 2, a, a + 2, b, b + 2
        re_dev = np.max(np.abs([hat[..., re_c, re_a, re_b] - u.real,
                                hat[..., im_c, re_a, im_b] - u.real,
                                hat[..., re_c, im_a, im_b] + u.real]), axis=0)
        im_dev = np.max(np.abs([hat[..., im_c, re_a, re_b] - u.imag,
                                hat[..., re_c, re_a, im_b] + u.imag,
                                hat[..., im_c, im_a, im_b] + u.imag]), axis=0)
        identities[f"Re[{name}]"] = re_dev
        identities[f"Im[{name}]"] = im_dev
    return KNChristoffelReport(max_violation, off_pattern_max, identities)


@dataclass
class KNSplitReport:
    s_grid: np.ndarray
    coord_sup: float  # 4D coordinates vs Re/Im of the complex trajectory
    basis_sup: float  # reconstructed u's, 4D split data vs complex chart
    tolerance: float

    @property
    def passes(self) -> bool:
        return bool(np.max([self.coord_sup, self.basis_sup]) <= self.tolerance)


def kn_geodesic_split(spec: GeometrySpec, initial: GeodesicState, s_span,
                      tol: float = 1e-8) -> KNSplitReport:
    """Integrate the same geodesic in the 4D and the complex chart.

    The two trajectories are matched componentwise (x, y, Phi, Psi against
    the real and imaginary parts of z, X), and the solution basis built from
    the 4D split data (Phi + i Psi along s -> z(s)) is compared against the
    basis reconstructed in the complex chart.
    """
    spec_c = _require_kn(spec)
    coords = tuple(np.asarray(initial.coords, dtype=float).tolist())
    require_in_domain(spec, coords)
    vel = tuple(float(v) for v in initial.velocity)
    traj4 = integrate_geodesic(spec, GeodesicState(coords, vel), s_span, tol=KN_RK_TOL)
    trajc = integrate_geodesic(
        spec_c, GeodesicState(chart_pair(spec, coords), chart_pair(spec, vel)), s_span,
        tol=KN_RK_TOL)
    s_hi = min(traj4.s[-1], trajc.s[-1])
    grid = np.linspace(traj4.s[0], s_hi, 65)
    q4, _ = traj4.state_at(grid)
    qc, _ = trajc.state_at(grid)
    # np.max keeps a NaN (the builtin max drops it)
    coord_sup = float(np.max(np.abs([q4[0] - qc[0].real, q4[2] - qc[0].imag,
                                     q4[1] - qc[1].real, q4[3] - qc[1].imag])))
    basis_sup = _split_basis_gap(spec, spec_c, traj4, trajc)
    return KNSplitReport(grid, coord_sup, basis_sup, tol)


def _split_basis_gap(spec, spec_c, traj4, trajc) -> float:
    zs, Xs = chart_points(spec, traj4.coords)
    vzs, vXs = chart_points(spec, traj4.velocities)
    azs, aXs = chart_points(spec, accelerations(spec, traj4.coords, traj4.velocities))

    def z_part(s, which):
        """z (which = 0) or dz/ds (which = 1) of the 4D trajectory at s."""
        q = traj4.state_at(s)[which]
        return q[0] + 1j * q[2]

    g_split = path_explicit_from_samples(
        spec_c, traj4.s, zs, Xs, vzs, vXs, azs, aXs,
        lambda s: z_part(s, 0), lambda s: z_part(s, 1), traj4.termination)
    g_complex = explicit_from_trajectory(trajc)
    basis_split = reconstruct_basis(spec_c, g_split)
    basis_complex = reconstruct_basis(spec_c, g_complex)
    # both runs normalize the same affine range to [0, 1], so equal
    # parameters address the same point of the underlying geodesic
    fs = np.linspace(0.0, min(g_split.support[1], g_complex.support[1]), 17)
    return float(np.max(np.abs(np.concatenate([
        basis_split.u_top.value(fs) - basis_complex.u_top.value(fs),
        basis_split.u_bot.value(fs) - basis_complex.u_bot.value(fs)]))))
