"""4D real picture against the complex chart."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import COMPLEX_POOL, make_spec
from geodesy import expr, geodesics as gd, kahler_norden as kn
from geodesy.errors import TurningPointAtStartError
from geodesy.geodesics import GeodesicState, integrate_geodesic
from geodesy.geometry import (
    Family,
    GeometrySpec,
    chart_pair,
    christoffel_at,
    christoffel_table,
    complexify_christoffel,
    sample_domain_points,
)


def test_cauchy_riemann_polynomial_exact():
    h = expr.parse("z^2", "complex")
    r1, r2 = kn.cauchy_riemann_residual(h, 0.3, -0.4)
    assert max(r1, r2) < 1e-10  # central differences of a quadratic are exact


def test_cauchy_riemann_exponential():
    h = expr.parse("exp(z)", "complex")
    r1, r2 = kn.cauchy_riemann_residual(h, 0.0, np.pi)
    assert max(r1, r2) < 1e-9


def test_cauchy_riemann_pool_sweep():
    rng = np.random.default_rng(5)
    for source in COMPLEX_POOL + ["sin(z)*exp(z)", "cosh(z)+z^3"]:
        h = expr.parse(source, "complex")
        for _ in range(25):
            x, y = rng.uniform(-1, 1, size=2)
            r1, r2 = kn.cauchy_riemann_residual(h, x, y)
            assert max(r1, r2) < 1e-8


def test_metric_consistency_submanifold_and_generic():
    spec = make_spec("kn", "z^2+1")
    assert kn.kn_metric_consistency(spec, (0.4, 1.1, 0.0, 0.0)) < 1e-14
    assert kn.kn_metric_consistency(spec, (0.4, 1.1, -0.3, 0.7)) < 1e-10


def test_metric_consistency_random_sweep():
    rng = np.random.default_rng(6)
    for source in COMPLEX_POOL:
        spec = make_spec("kn", source)
        for p in sample_domain_points(spec, rng, 40):
            assert kn.kn_metric_consistency(spec, p) < 1e-10


def test_christoffel_correspondence_constant_h():
    spec = make_spec("kn", "0*z")
    assert kn.kn_christoffel_correspondence(spec, (0.3, 1.2, -0.2, 0.5)) < 1e-10


def _off_pattern_max(spec, p):
    """The largest 4D symbol where the complexified holomorphic table is zero."""
    hat = christoffel_at(spec, p, "from_jets").symbols
    ups = christoffel_table(GeometrySpec(Family.COMPLEX_SPHERE, spec.h), chart_pair(spec, p))
    pattern = complexify_christoffel(ups) != 0
    return np.max(np.where(pattern, 0.0, np.abs(hat)))


def test_christoffel_correspondence_pool():
    rng = np.random.default_rng(12)
    for source in COMPLEX_POOL:
        spec = make_spec("kn", source)
        for p in sample_domain_points(spec, rng, 10):
            assert kn.kn_christoffel_correspondence(spec, p) < 1e-8
            assert _off_pattern_max(spec, p) < 1e-10


def test_christoffel_submanifold_reduction():
    """On {y = 0, Psi = 0} with h real on the axis, the (x, Phi) block of the
    4D symbols is the hyperbolic table."""
    spec_kn = make_spec("kn", "z^2+1")
    spec_h = make_spec("hyperbolic", "x^2+1")
    x, phi = 0.4, 1.3
    full = christoffel_at(spec_kn, (x, phi, 0.0, 0.0), "from_jets").symbols
    flat = christoffel_at(spec_h, (x, phi), "from_jets").symbols
    block = full[np.ix_([0, 1], [0, 1], [0, 1])]
    assert np.max(np.abs(block - flat)) < 1e-10


def test_geodesic_split_generic():
    spec = make_spec("kn", "z")
    state = GeodesicState((0.0, 1.6, 0.0, 0.4), (1.0, 0.2, 0.5, -0.1))
    report = kn.kn_geodesic_split(spec, state, (0.0, 1.0), tol=1e-8)
    assert report.coords.shape == (4, 65) and report.basis.shape == (2, 17)
    assert report.tolerance == 1e-8
    assert np.max(report.coords) <= 1e-8
    assert np.max(report.basis) <= 1e-8


def test_geodesic_split_rejects_vertical_start():
    spec = make_spec("kn", "z")
    state = GeodesicState((0.0, 1.6, 0.0, 0.4), (0.0, 0.4, 0.0, -0.1))
    with pytest.raises(TurningPointAtStartError):
        kn.kn_geodesic_split(spec, state, (0.0, 1.0))


def test_real_data_stays_in_hyperbolic_submanifold():
    """h real on the axis, Psi = y = 0, real velocities: the block structure
    keeps the trajectory in the 2D submanifold; it reproduces the hyperbolic
    geodesic componentwise."""
    spec = make_spec("kn", "z")
    traj = integrate_geodesic(spec, GeodesicState((0.1, 1.4, 0.0, 0.0),
                                                  (0.8, 0.3, 0.0, 0.0)),
                              (0.0, 1.0), tol=1e-12)
    assert np.max(np.abs(traj.coords[:, [2, 3]])) <= 1e-9
    spec_h = make_spec("hyperbolic", "x")
    ref = integrate_geodesic(spec_h, GeodesicState((0.1, 1.4), (0.8, 0.3)),
                             (0.0, 1.0), tol=1e-12)
    for s in np.linspace(0, min(traj.s[-1], ref.s[-1]), 25):
        q4, _ = traj.state_at(s)
        q2, _ = ref.state_at(s)
        assert np.max(np.abs(q4[[0, 1]] - q2)) < 1e-9


def test_imaginary_block_stays_in_ads_submanifold():
    spec = make_spec("kn", "z")
    traj = integrate_geodesic(spec, GeodesicState((0.1, 0.0, 0.0, 1.4),
                                                  (0.8, 0.0, 0.0, 0.3)),
                              (0.0, 1.0), tol=1e-12)
    assert np.max(np.abs(traj.coords[:, [1, 2]])) <= 1e-9
    spec_a = make_spec("ads+", "x")
    ref = integrate_geodesic(spec_a, GeodesicState((0.1, 1.4), (0.8, 0.3)),
                             (0.0, 1.0), tol=1e-12)
    for s in np.linspace(0, min(traj.s[-1], ref.s[-1]), 25):
        q4, _ = traj.state_at(s)
        q2, _ = ref.state_at(s)
        assert np.max(np.abs(q4[[0, 3]] - q2)) < 1e-9


def test_complex_affine_matches_kn_integration():
    """Cross-module oracle: the complex-chart trajectory restricted to a real
    parameter equals the 4D integration componentwise."""
    spec_kn = make_spec("kn", "z")
    spec_c = make_spec("complex", "z")
    state4 = GeodesicState((0.2, 1.5, -0.1, 0.3), (0.9, -0.2, 0.4, 0.1))
    t4 = integrate_geodesic(spec_kn, state4, (0.0, 0.8), tol=1e-12)
    tc = integrate_geodesic(
        spec_c,
        GeodesicState((0.2 - 0.1j, 1.5 + 0.3j), (0.9 + 0.4j, -0.2 + 0.1j)),
        (0.0, 0.8), tol=1e-12)
    for s in np.linspace(0, min(t4.s[-1], tc.s[-1]), 30):
        q4, _ = t4.state_at(s)
        qc, _ = tc.state_at(s)
        assert abs(complex(q4[0], q4[2]) - qc[0]) < 1e-8
        assert abs(complex(q4[1], q4[3]) - qc[1]) < 1e-8


def test_a_kn_run_converts_to_the_explicit_form_of_the_complex_chart_run():
    """explicit_from_trajectory reads a 4D run through z = x + iy, X = Phi + i Psi:
    its path, X and dX/dz equal those of the complex-chart run from the same
    data. d2X/dz2, the derivative of the cubic Hermite curve of dX/dz, agrees
    to its interpolation error, relative to its size (up to about 100 here)."""
    spec_kn = make_spec("kn", "z^2+1")
    spec_c = make_spec("complex", "z^2+1")
    state4 = GeodesicState((0.0, 1.6, 0.1, 0.4), (0.8, 0.2, 0.3, -0.1))
    statec = GeodesicState((0.1j, 1.6 + 0.4j), (0.8 + 0.3j, 0.2 - 0.1j))
    g4 = gd.explicit_from_trajectory(integrate_geodesic(spec_kn, state4, (0, 0.9), tol=1e-12))
    gc = gd.explicit_from_trajectory(integrate_geodesic(spec_c, statec, (0, 0.9), tol=1e-12))
    assert g4.spec == spec_c and g4.termination is gc.termination
    assert g4.support == gc.support == (0.0, 1.0)
    ts = np.linspace(0.0, 1.0, 41)
    for part in ("point", "value", "slope"):
        assert np.max(np.abs(getattr(g4, part)(ts) - getattr(gc, part)(ts))) < 1e-8
    assert np.max(np.abs(g4.second(ts) - gc.second(ts)) / (1 + np.abs(gc.second(ts)))) < 1e-7


def test_batched_kn_checks_equal_one_point_calls():
    """One array call per check equals the one-point calls entry by entry, to
    rounding: numpy's array and 0-d exp may differ in the last bit (which the
    Cauchy-Riemann difference quotient, step 1e-5, scales up to about 1e-11)."""
    spec = make_spec("kn", "exp(z)")
    pts = sample_domain_points(spec, np.random.default_rng(13), 7)
    gaps = kn.kn_metric_consistency(spec, pts)
    symbols = kn.kn_christoffel_correspondence(spec, pts)
    cr = np.array(kn.cauchy_riemann_residual(spec.h, pts[:, 0], pts[:, 2]))
    assert gaps.shape == symbols.shape == (7,) and cr.shape == (2, 7)
    for i, p in enumerate(pts):
        batch = [gaps[i], symbols[i]]
        single = [kn.kn_metric_consistency(spec, p), kn.kn_christoffel_correspondence(spec, p)]
        assert np.allclose(batch, single, rtol=0, atol=1e-13)
        assert np.allclose(cr[:, i], kn.cauchy_riemann_residual(spec.h, p[0], p[2]),
                           rtol=0, atol=1e-10)


def test_a_nan_at_one_point_fails_the_batched_kn_checks(monkeypatch):
    """A NaN metric or symbol at the third point reaches the reduced figure."""
    spec = make_spec("kn", "z^2+1")
    pts = sample_domain_points(spec, np.random.default_rng(3), 5)
    metric_at, christoffel_at_ = kn.metric_at, kn.christoffel_at

    def nan_at_third(values):
        values = values.copy()
        values[2] = np.nan
        return values

    monkeypatch.setattr(kn, "metric_at", lambda spec, p: dataclasses.replace(
        metric_at(spec, p), components=nan_at_third(metric_at(spec, p).components)))
    monkeypatch.setattr(kn, "christoffel_at", lambda spec, p, method: dataclasses.replace(
        christoffel_at_(spec, p, method), symbols=nan_at_third(christoffel_at_(spec, p, method).symbols)))
    gaps = kn.kn_metric_consistency(spec, pts)
    assert np.isnan(gaps[2]) and np.all(np.isfinite(np.delete(gaps, 2)))
    symbols = kn.kn_christoffel_correspondence(spec, pts)
    assert np.isnan(symbols[2]) and math.isnan(np.max(symbols))
