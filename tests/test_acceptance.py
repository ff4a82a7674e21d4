"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance here is pinned; the helper prints the measured deviation so
a run with `pytest -s tests/test_acceptance.py` reads as a checklist.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from conftest import COMPLEX_POOL, REAL_POOL, make_spec
from geodesy import geodesics as gd, kahler_norden as kn, reconstruct as rc
from geodesy.dense import CurveDense
from geodesy.expr import parse
from geodesy.geodesics import (
    ComplexPath,
    ExplicitGeodesic,
    GeodesicState,
    integrate_explicit,
    integrate_geodesic,
)
from geodesy.geometry import curvature_at, metric_at, sample_domain_points


def _verdict(num, label, dev, tol):
    status = "PASS" if dev <= tol else "FAIL"
    print(f"ACCEPTANCE {num:02d} {label:<44} {status}  "
          f"(max dev {dev:.3e} <= {tol:.0e})")
    assert dev <= tol, f"criterion {num}: {label}: {dev:.3e} > {tol:.0e}"


def test_criterion_01_real_family_curvature():
    """K = -1 (hyperbolic, ads+), K = +1 (ads-), Ricci = K g, pool of four h."""
    rng = np.random.default_rng(1001)
    dev = 0.0
    for family, expected in (("hyperbolic", -1.0), ("ads+", -1.0), ("ads-", 1.0)):
        for h_src in REAL_POOL:
            spec = make_spec(family, h_src)
            for p in sample_domain_points(spec, rng, 100):
                rep = curvature_at(spec, p)
                g = metric_at(spec, p).components
                dev = max(dev, abs(rep.sectional_k - expected),
                          float(np.max(np.abs(rep.ricci - expected * g))))
    _verdict(1, "real-family curvature and Ricci", dev, 1e-6)


def test_criterion_02_holomorphic_curvature():
    rng = np.random.default_rng(1002)
    dev = 0.0
    for h_src in COMPLEX_POOL:
        spec = make_spec("complex", h_src)
        for p in sample_domain_points(spec, rng, 100):
            dev = max(dev, abs(curvature_at(spec, p).sectional_k + 1.0))
    _verdict(2, "holomorphic sectional curvature = -1", dev, 1e-6)


def test_criterion_03_kahler_norden_einstein():
    rng = np.random.default_rng(1003)
    dev_eta = dev_scalar = dev_cons = 0.0
    for h_src in COMPLEX_POOL:
        spec = make_spec("kn", h_src)
        for p in sample_domain_points(spec, rng, 100):
            rep = curvature_at(spec, p)
            dev_eta = max(dev_eta, abs(rep.einstein_eta + 2.0),
                          rep.einstein_fit_residual)
            dev_scalar = max(dev_scalar, abs(rep.ricci_scalar + 8.0))
            dev_cons = max(dev_cons, kn.kn_metric_consistency(spec, p))
    _verdict(3, "Kahler-Norden eta = -2 and scalar = -8",
             max(dev_eta, dev_scalar), 1e-6)
    _verdict(3, "metric vs real-part construction", dev_cons, 1e-10)


def test_criterion_04_harmonic_oscillator_closed_form(harmonic_basis):
    _, _, basis = harmonic_basis
    xs = np.linspace(0.0, 2.0 * np.pi, 181)
    dev = max(float(np.max(np.abs(basis.u_top.value(xs) - np.exp(-1j * xs)))),
              float(np.max(np.abs(basis.u_bot.value(xs) - np.exp(1j * xs)))))
    _verdict(4, "harmonic oscillator e^{-+ix} basis", dev, 1e-8)


def test_criterion_05_airy_oracle(airy_basis):
    """h(x) = x from (0, 2, 0.3). The explicit geodesic blows up at
    x* = 0.46012344 (independently the first zero of the decreasing
    solution), so the checks run on the maximal support inside [-0.5, 1.5]
    and the blow-up location is itself asserted against the frozen oracle."""
    spec, g, basis = airy_basis
    lo, hi = g.support
    grid = np.linspace(max(lo, -0.5), min(hi, 1.5), 160)
    dev_res = max(float(np.max(np.abs(rc.ode_residual(spec.h, u, grid))))
                  for u in (basis.u_top, basis.u_bot))
    _verdict(5, "Airy: sup |u'' + x u| on support", dev_res, 1e-6)
    pair = basis.theta
    dev_rk = 0.0
    for u, th0 in ((basis.u_top, pair.top(0.0)), (basis.u_bot, pair.bot(0.0))):
        for target in (grid[0], grid[-1]):
            ref = solve_ivp(lambda x, y: [y[1], -x * y[0]], (0.0, target),
                            [1.0, th0], rtol=1e-12, atol=1e-14,
                            dense_output=True)
            xs = grid[(grid >= min(0, target)) & (grid <= max(0, target))]
            dev_rk = max(dev_rk, float(np.max(np.abs(
                [u.value(x) - ref.sol(x)[0] for x in xs]))))
    _verdict(5, "Airy: basis equals independent RK", dev_rk, 1e-6)
    g_full = integrate_explicit(spec, 0.0, 2.0, 0.3, support=(-0.5, 1.5),
                                tol=1e-12, value_cap=1e6)
    _verdict(5, "Airy: blow-up at first zero of u_bot",
             abs(g_full.support[1] - 0.46012344), 5e-4)


@pytest.fixture(scope="module")
def pool_geodesics(airy_basis, harmonic_basis):
    """Geodesics across the three analytic settings for round-trip checks."""
    out = []
    spec_h, g_h, basis_h = airy_basis
    out.append((spec_h, g_h, basis_h))
    spec_a, g_a, basis_a = harmonic_basis
    out.append((spec_a, g_a, basis_a))
    spec_s = make_spec("hyperbolic", "sin(x)+3")
    g_s = integrate_explicit(spec_s, 0.0, 1.2, 0.4, support=(-1.0, 1.0),
                             tol=1e-12)
    out.append((spec_s, g_s, rc.reconstruct_basis(spec_s, g_s)))
    spec_c = make_spec("complex", "exp(z)")
    path = ComplexPath.polyline([0, 1 + 1j])
    g_c = integrate_explicit(spec_c, 0, 1.5j, 0.2, path=path, tol=1e-12)
    out.append((spec_c, g_c, rc.reconstruct_basis(spec_c, g_c)))
    return out


def test_criterion_06_inversion_round_trips(pool_geodesics):
    dev_rt = dev_prod = 0.0
    for spec, g, basis in pool_geodesics:
        rec = rc.invert_to_geodesic(basis)
        lo, hi = g.support
        ts = np.linspace(lo, hi, 70)
        dev_rt = max(dev_rt, float(np.max(np.abs(rec.value(ts) - g.value(ts)))))
        sign = 1.0 if spec.family.value.startswith("ads") else -1.0
        dev_prod = max(dev_prod, max(
            abs(basis.theta.product(t) - sign * g.value(t) ** 2) for t in ts))
    _verdict(6, "invert(reconstruct(g)) = g on the pool", dev_rt, 1e-7)
    _verdict(6, "Theta product identities", dev_prod, 1e-9)


def test_criterion_07_riccati_theorems():
    dev = 0.0
    for h_src, theta0, span in (("x^2", 2.0, (0.0, 0.8)), ("-1", 2.0, (0.0, 2.0))):
        spec = make_spec("ads+", h_src)
        theta = rc.integrate_riccati(parse(h_src), theta0, span[0], span,
                                     tol=1e-12)
        rep = rc.riccati_solution_is_geodesic(spec, theta, "real", tol=1e-6)
        dev = max(dev, rep.geodesic_sup)
    _verdict(7, "real Riccati solutions are ads geodesics", dev, 1e-6)
    spec_c = make_spec("complex", "1+0*z")
    ts = np.linspace(0, 1, 21)
    theta_i = CurveDense(
        ts, [np.full(21, 1j), np.zeros(21), np.zeros(21)])
    rep = rc.riccati_solution_is_geodesic(spec_c, theta_i, "imaginary", tol=1e-9)
    _verdict(7, "complex analogue Theta = i, h = 1", rep.geodesic_sup, 1e-12)


def test_criterion_08_path_independence():
    spec = make_spec("complex", "exp(z)")
    path_a = ComplexPath.polyline([0, 1 + 1j])
    path_b = ComplexPath.polyline([0, 1, 1 + 1j])
    g = integrate_explicit(spec, 0, 1.5j, 0.2, path=path_a, tol=1e-12)
    rep = rc.path_independence_check(spec, g, 0, 1 + 1j, path_a, path_b,
                                     tol=1e-8)
    _verdict(8, "path independence of both Theta integrals",
             max(rep.diff_top, rep.diff_bot), 1e-8)


def test_criterion_09_kahler_norden_split():
    spec = make_spec("kn", "z")
    state = GeodesicState((0.0, 1.6, 0.0, 0.4), (1.0, 0.2, 0.5, -0.1))
    rep = kn.kn_geodesic_split(spec, state, (0.0, 1.0), tol=1e-8)
    _verdict(9, "4D vs complex geodesic, h(z) = z",
             max(rep.coord_sup, rep.basis_sup), 1e-8)
    dev = 0.0
    t_h = integrate_geodesic(spec, GeodesicState((0.1, 1.4, 0.0, 0.0),
                                                 (0.8, 0.3, 0.0, 0.0)),
                             (0.0, 1.0), tol=1e-12)
    dev = max(dev, float(np.max(np.abs(t_h.coords[:, [2, 3]]))))
    t_a = integrate_geodesic(spec, GeodesicState((0.1, 0.0, 0.0, 1.4),
                                                 (0.8, 0.0, 0.0, 0.3)),
                             (0.0, 1.0), tol=1e-12)
    dev = max(dev, float(np.max(np.abs(t_a.coords[:, [1, 2]]))))
    _verdict(9, "real-data submanifold confinement", dev, 1e-9)


def test_criterion_10_negative_control():
    spec = make_spec("hyperbolic", "-1")
    g = ExplicitGeodesic.from_function(spec, lambda x: 2.0, (0.0, 1.0),
                                       dfn=lambda x: 0.0, d2fn=lambda x: 0.0)
    basis = rc.reconstruct_basis(spec, g, check_residual=False)
    res = np.abs(rc.ode_residual(spec.h, basis.u_top, np.linspace(0, 1, 41)))
    worst = float(res.max())
    status = "PASS" if worst > 1e-2 else "FAIL"
    print(f"ACCEPTANCE 10 {'non-geodesic fails reconstruction':<44} {status}  "
          f"(residual reaches {worst:.3e} > 1e-02)")
    assert worst > 1e-2


def test_criterion_11_ads_signs_share_geodesics():
    spec_p = make_spec("ads+", "sin(x)+3")
    spec_m = make_spec("ads-", "sin(x)+3")
    dev = 0.0
    for coords, velocity in (((0.1, 1.2), (0.8, -0.4)),
                             ((0.0, 2.0), (-0.5, 0.7))):
        state = GeodesicState(coords, velocity)
        tp = integrate_geodesic(spec_p, state, (0, 1.5), tol=1e-11)
        tm = integrate_geodesic(spec_m, state, (0, 1.5), tol=1e-11)
        for s in np.linspace(0, min(tp.s[-1], tm.s[-1]), 50):
            dev = max(dev, float(np.max(np.abs(
                np.concatenate(tp.state_at(s)) - np.concatenate(tm.state_at(s))))))
    _verdict(11, "ads+ and ads- share all geodesics", dev, 1e-10)
