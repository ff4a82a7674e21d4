"""The 4D real picture and its correspondence with the complex chart.

Coordinates (x, Phi, y, Psi) with z = x + iy, X = Phi + i Psi. The 4D metric
is the real part of the holomorphic metric (scaling constant 1), its
Christoffel symbols are the complexification of the holomorphic ones, and 4D
geodesics project onto complex-chart geodesics run with a real parameter.
Every operation here verifies one leg of that correspondence numerically and
returns its deviations, one per sample on the last axis, unreduced; the CLI
reduces each to one check. The geodesic leg integrates both charts and
converts each run to explicit form with the one conversion of
:func:`geodesy.geodesics.explicit_from_trajectory`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import Expression, eval_jet2
from .geodesics import GeodesicState, explicit_from_trajectory, integrate_geodesic
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


def kn_christoffel_correspondence(spec: GeometrySpec, p):
    """The largest |4D symbol - complexified holomorphic symbol| over all
    slots: a float at one point, an array over the points of a (..., 4) array.

    The 4D symbols are differentiated out of the explicit metric components,
    for all points in one array pass; the holomorphic table is evaluated point
    by point, an independent oracle, and complexified. Every slot counts, so
    each displayed Re/Im identity and every symbol the pattern says is zero is
    one of the entries compared.
    """
    coords = np.asarray(p, dtype=float)
    hat = christoffel_at(spec, coords, "from_jets").symbols
    spec_c = _require_kn(spec)
    ups = np.array([christoffel_table(spec_c, chart_pair(spec, q))
                    for q in coords.reshape(-1, 4)]).reshape(coords.shape[:-1] + (2, 2, 2))
    expected = complexify_christoffel(ups)
    return np.max(np.abs(hat - expected), axis=(-3, -2, -1))


@dataclass
class KNSplitReport:
    coords: np.ndarray  # (4, 65): 4D coordinates vs Re/Im of the complex trajectory
    basis: np.ndarray  # (2, 17): u_top, u_bot from the 4D run vs the complex chart's
    tolerance: float


def kn_geodesic_split(spec: GeometrySpec, initial: GeodesicState, s_span,
                      tol: float = 1e-8) -> KNSplitReport:
    """Integrate the same geodesic in the 4D and the complex chart.

    The two trajectories are matched componentwise (x, y, Phi, Psi against
    the real and imaginary parts of z, X) at 65 parameters, and the solution
    basis built from the 4D run (Phi + i Psi along s -> x + iy) is compared
    against the basis built from the complex-chart run at 17. ``tol`` is
    carried as the report's tolerance.
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
    gaps = np.abs([q4[0] - qc[0].real, q4[2] - qc[0].imag,
                   q4[1] - qc[1].real, q4[3] - qc[1].imag])
    return KNSplitReport(gaps, _split_basis_gap(spec_c, traj4, trajc), tol)


def _split_basis_gap(spec_c, traj4, trajc) -> np.ndarray:
    split = reconstruct_basis(spec_c, explicit_from_trajectory(traj4))
    chart = reconstruct_basis(spec_c, explicit_from_trajectory(trajc))
    # both runs normalize the same affine range to [0, 1], so equal
    # parameters address the same point of the underlying geodesic
    fs = np.linspace(0.0, min(split.support[1], chart.support[1]), 17)
    return np.abs([split.u_top.value(fs) - chart.u_top.value(fs),
                   split.u_bot.value(fs) - chart.u_bot.value(fs)])
