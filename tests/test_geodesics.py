"""Affine and explicit-form geodesic integration."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import REAL_POOL, make_spec
from geodesy import geodesics as gd, geometry, reconstruct as rc
from geodesy.errors import (
    DomainError,
    OutOfDomainError,
    OutsideSupportError,
    StartOnSingularSetError,
    TurningPointAtStartError,
)
from geodesy.geodesics import (
    ComplexPath,
    ExplicitGeodesic,
    GeodesicState,
    Termination,
    explicit_from_trajectory,
    geodesic_residual,
    integrate_explicit,
    integrate_geodesic,
)


def test_flat_direction_keeps_constant_height():
    """h = -1 makes Gamma^Phi_xx vanish at Phi = 1, so (x, 1) slides flat."""
    spec = make_spec("hyperbolic", "-1")
    traj = integrate_geodesic(spec, GeodesicState((0.0, 1.0), (1.0, 0.0)), (0, 2),
                              tol=1e-11)
    assert traj.termination is Termination.RANGE_END
    assert np.max(np.abs(traj.coords[:, 1] - 1.0)) < 1e-12


@pytest.mark.parametrize("family, h, coords, velocity", [
    ("hyperbolic", "sin(x)+3", (0.1, 1.2), (0.7, -0.3)),
    ("ads+", "x^2+2", (0.0, 1.5), (0.5, 0.4)),
    ("ads-", "exp(x)", (0.2, 1.1), (-0.4, 0.3)),
    ("kn", "z^2+1", (0.0, 1.6, 0.1, 0.4), (0.8, 0.2, 0.3, -0.1)),
])
def test_speed_is_conserved(family, h, coords, velocity):
    spec = make_spec(family, h)
    traj = integrate_geodesic(spec, GeodesicState(coords, velocity), (0, 1.2),
                              tol=1e-11)
    grid = np.linspace(0, traj.s[-1], 40)
    speeds = np.array([traj.speed_squared(s) for s in grid])
    assert np.max(np.abs(speeds - speeds[0])) / abs(speeds[0]) < 1e-6
    # one array call gives the per-point values; one point gives a scalar
    assert np.array_equal(traj.speed_squared(grid), speeds)
    assert np.ndim(traj.speed_squared(grid[3])) == 0


def test_complex_speed_is_conserved_as_complex_constant():
    spec = make_spec("complex", "exp(z)")
    state = GeodesicState((0.0 + 0j, 1.5j), (1.0 + 0.5j, 0.2 - 0.1j))
    traj = integrate_geodesic(spec, state, (0, 0.8), tol=1e-11)
    grid = np.linspace(0, traj.s[-1], 30)
    speeds = np.array([traj.speed_squared(s) for s in grid])
    assert np.max(np.abs(speeds - speeds[0])) / abs(speeds[0]) < 1e-6
    # one array call: numpy's array loops may round complex products apart
    # from its scalars, by an ulp or so
    assert np.max(np.abs(traj.speed_squared(grid) - speeds) / np.abs(speeds)) < 1e-14


def test_ads_signs_share_trajectories():
    spec_p = make_spec("ads+", "sin(x)+3")
    spec_m = make_spec("ads-", "sin(x)+3")
    state = GeodesicState((0.1, 1.2), (0.8, -0.4))
    tp = integrate_geodesic(spec_p, state, (0, 1.5), tol=1e-11)
    tm = integrate_geodesic(spec_m, state, (0, 1.5), tol=1e-11)
    hi = min(tp.s[-1], tm.s[-1])
    for s in np.linspace(0, hi, 40):
        assert np.max(np.abs(tp.state_at(s)[0] - tm.state_at(s)[0])) <= 1e-10


def test_out_of_domain_start_rejected():
    spec = make_spec("hyperbolic", "4+0*x")
    with pytest.raises(OutOfDomainError):
        integrate_geodesic(spec, GeodesicState((0.0, 2.0), (1.0, 0.0)), (0, 1))


def test_vertical_geodesic_stops_at_domain_boundary():
    """x = const, Phi = 1.3 e^{-s/2} crosses Phi^2 = h = 1; the event should
    land where |Phi^2 - 1| equals the guard, to the bisection tolerance."""
    guard = gd.BOUNDARY_GUARD
    assert guard == 1e-6
    spec = make_spec("hyperbolic", "1+0*x")
    traj = integrate_geodesic(spec, GeodesicState((0.0, 1.3), (0.0, -0.65)),
                              (0, 5), tol=1e-12)
    assert traj.termination is Termination.DOMAIN_BOUNDARY
    phi_end = traj.coords[-1, 1]
    assert abs(phi_end ** 2 - 1.0) == pytest.approx(guard, rel=1e-6)
    s_star = 2.0 * np.log(1.3 / np.sqrt(1.0 + guard))
    assert traj.s[-1] == pytest.approx(s_star, abs=1e-9)


@pytest.mark.parametrize("family, h, coords, velocity, span", [
    ("hyperbolic", "sin(x)+3", (0.1, 1.2), (0.7, -0.3), (0, 1.2)),
    ("complex", "exp(z)", (0.0 + 0j, 1.5j), (1.0 + 0.5j, 0.2 - 0.1j), (0, 0.8)),
    ("kn", "z^2+1", (0.0, 1.6, 0.1, 0.4), (0.8, 0.2, 0.3, -0.1), (0, 1.2)),
    # ends on the located boundary point, past the last solver node
    ("hyperbolic", "1+0*x", (0.0, 1.3), (0.0, -0.65), (0, 5)),
])
def test_dense_output_goes_through_the_node_data(family, h, coords, velocity, span):
    """Each coordinate's curve takes the stored coordinate at every node bit for
    bit, and its d1 and d2 the stored velocity and the closed-form Christoffel
    acceleration up to the rounding of the Bernstein coefficients' differences
    (an interpolant without the accelerations misses them by far more)."""
    spec = make_spec(family, h)
    traj = integrate_geodesic(spec, GeodesicState(coords, velocity), span, tol=1e-11)
    assert np.array_equal(traj.accelerations,
                          gd.accelerations(spec, traj.coords, traj.velocities))
    q, v = traj.state_at(traj.s)
    assert np.array_equal(q, traj.coords.T)
    assert np.allclose(v, traj.velocities.T, rtol=1e-11, atol=1e-12)
    d2 = np.array([curve.d2(traj.s) for curve in traj._curves])
    assert np.allclose(d2, traj.accelerations.T, rtol=1e-8, atol=1e-8)


def test_state_at_outside_span_rejected():
    spec = make_spec("hyperbolic", "-1")
    traj = integrate_geodesic(spec, GeodesicState((0.0, 1.0), (1.0, 0.0)), (0, 1))
    with pytest.raises(OutsideSupportError):
        traj.state_at(2.0)


# --- explicit form ---------------------------------------------------------------

def test_explicit_constant_solutions():
    spec = make_spec("hyperbolic", "-1")
    g = integrate_explicit(spec, 0.0, 1.0, 0.0, support=(0, 2), tol=1e-12)
    xs = np.linspace(0, 2, 21)
    assert np.max(np.abs(g.value(xs) - 1.0)) < 1e-13
    spec_a = make_spec("ads+", "1")
    ga = integrate_explicit(spec_a, 0.0, 1.0, 0.0, support=(0, 2 * np.pi), tol=1e-12)
    assert np.max(np.abs(ga.value(np.linspace(0, 6.2, 21)) - 1.0)) < 1e-13


def test_replacement_symmetry_constant_case():
    """The Phi <-> i Psi substitution in the constant case: Psi = w solves
    the ads equation for h = w^2 exactly when Phi = w solves the hyperbolic
    one for h = -w^2."""
    w = 1.7
    spec_h = make_spec("hyperbolic", f"-{w}^2")
    spec_a = make_spec("ads+", f"{w}^2")
    flat_h = ExplicitGeodesic.from_function(spec_h, lambda x: w, (0, 2),
                                            dfn=lambda x: 0.0, d2fn=lambda x: 0.0)
    flat_a = ExplicitGeodesic.from_function(spec_a, lambda x: w, (0, 2),
                                            dfn=lambda x: 0.0, d2fn=lambda x: 0.0)
    xs = np.linspace(0, 2, 15)
    assert np.max(np.abs(geodesic_residual(spec_h, flat_h, xs))) < 1e-12
    assert np.max(np.abs(geodesic_residual(spec_a, flat_a, xs))) < 1e-12


def test_explicit_airy_self_convergence(airy_geodesic):
    """Match a tighter-tolerance reference integration where the curve is
    moderate; near the finite-x blow-up only relative accuracy is meaningful."""
    spec, g = airy_geodesic
    ref = integrate_explicit(spec, 0.0, 2.0, 0.3, support=(-0.5, 1.5),
                             tol=1e-13, value_cap=6.0, max_step=0.005)
    lo, hi = g.support
    xs = np.linspace(lo, min(hi, ref.support[1]), 120)
    sel = np.abs(g.value(xs)) < 4.0
    assert np.max(np.abs(g.value(xs[sel]) - ref.value(xs[sel]))) < 1e-8


def test_explicit_airy_blowup_location_matches_u_zero_oracle(airy_geodesic):
    """The support must end where the decreasing reconstructed solution has
    its zero. Frozen from an independent RK run of u'' = -x u with
    u(0) = 1, u'(0) = 2*(0.3 + sqrt(16.09))/(-4): first zero 0.46012344."""
    spec, _ = airy_geodesic
    g = integrate_explicit(spec, 0.0, 2.0, 0.3, support=(-0.5, 1.5),
                           tol=1e-12, value_cap=1e6)
    assert g.termination is Termination.DOMAIN_BOUNDARY
    assert g.support[1] == pytest.approx(0.46012344, abs=5e-4)


def test_an_explicit_run_ends_at_the_onset_of_escape(airy_geodesic):
    """Without a value_cap the Airy geodesic ends before its blow-up at
    0.46012344, where |slope| outgrows 10 (1 + |value| + sqrt|h|), and the
    basis solves u'' + h u = 0 over the whole chart; run on to the escape,
    the vanishing solution's residual is 2.4e-6 at the chart end."""
    spec, _ = airy_geodesic
    g = integrate_explicit(spec, 0.0, 2.0, 0.3, support=(-0.5, 1.5), tol=1e-12)
    assert g.termination is Termination.DOMAIN_BOUNDARY
    lo, hi = g.support
    assert lo == -0.5 and hi < 0.46012344
    xs = np.linspace(lo, hi, 101)
    u, _, d2 = rc.reconstruct_basis(spec, g).jets(xs).combination(1, 0)
    assert np.max(np.abs(d2 + xs * u)) <= 1e-6


@pytest.mark.parametrize("case", ["ads h=1", "hyperbolic h=-1", "complex z path"])
def test_runs_that_do_not_escape_keep_their_nodes_bit_for_bit(case):
    """The escape term only ends runs: where it never binds, the default stop
    gives the nodes and states of a run with no outer term at all."""
    if case == "complex z path":
        spec = make_spec("complex", "z")
        args = (0, 1.5j, 0.2)
        kw = {"path": ComplexPath.polyline([0, 0.4 + 0.1j, 0.8 + 0.7j])}
    else:
        family, h, support = (("ads", "1", (0, 2 * np.pi)) if case == "ads h=1"
                              else ("hyperbolic", "-1", (0, 2)))
        spec = make_spec(family, h)
        args, kw = (0.0, 1.0, 0.0), {"support": support}
    default = integrate_explicit(spec, *args, tol=1e-12, **kw)
    uncapped = integrate_explicit(spec, *args, tol=1e-12, value_cap=np.inf, **kw)
    assert default.termination is uncapped.termination is Termination.RANGE_END
    nodes = default.nodes
    assert np.array_equal(nodes, uncapped.nodes)
    for state in ("value", "slope", "second"):
        assert np.array_equal(getattr(default, state)(nodes), getattr(uncapped, state)(nodes))


def test_explicit_residual_is_small_on_geodesics(airy_geodesic):
    spec, g = airy_geodesic
    lo, hi = g.support
    xs = np.linspace(lo, hi, 300)
    res = np.abs(geodesic_residual(spec, g, xs))
    seconds = np.abs(g.second(xs))
    assert np.max(res / (1.0 + seconds)) < 1e-8
    assert np.max(res[np.abs(g.value(xs)) < 4.0]) < 1e-6


def test_residual_constant_curve_values():
    spec = make_spec("hyperbolic", "-1")
    flat = ExplicitGeodesic.from_function(spec, lambda x: 1.0, (0, 1),
                                          dfn=lambda x: 0.0, d2fn=lambda x: 0.0)
    assert abs(geodesic_residual(spec, flat, 0.5)) < 1e-14
    lifted = ExplicitGeodesic.from_function(spec, lambda x: 2.0, (0, 1),
                                            dfn=lambda x: 0.0, d2fn=lambda x: 0.0)
    # |0 - (Phi^4 - h^2)/Phi| = 15/2
    assert abs(geodesic_residual(spec, lifted, 0.3)) == pytest.approx(7.5, abs=1e-12)
    with pytest.raises(OutsideSupportError):
        geodesic_residual(spec, flat, 2.0)


def test_explicit_rejects_singular_start():
    spec = make_spec("hyperbolic", "1+0*x")
    with pytest.raises(StartOnSingularSetError):
        integrate_explicit(spec, 0.0, 1.0, 0.1, support=(-1, 1))


def test_explicit_from_trajectory_identity_case():
    spec = make_spec("hyperbolic", "-1")
    traj = integrate_geodesic(spec, GeodesicState((0.0, 1.0), (1.0, 0.0)), (0, 1.5),
                              tol=1e-12)
    g = explicit_from_trajectory(traj)
    xs = np.linspace(*g.support, 15)
    assert np.max(np.abs(g.value(xs) - 1.0)) < 1e-12
    assert np.max(np.abs(g.slope(xs))) < 1e-10


def test_explicit_from_trajectory_residual(airy_geodesic):
    spec = make_spec("hyperbolic", "-1")
    traj = integrate_geodesic(spec, GeodesicState((0.0, 1.0), (0.7, 0.2)), (0, 1.5),
                              tol=1e-12)
    g = explicit_from_trajectory(traj)
    xs = np.linspace(*g.support, 60)
    assert np.max(np.abs(geodesic_residual(spec, g, xs))) < 1e-7


def test_explicit_from_trajectory_rejects_vertical_start():
    spec = make_spec("hyperbolic", "-1")
    traj = integrate_geodesic(spec, GeodesicState((0.0, 1.2), (0.0, 0.4)), (0, 1))
    with pytest.raises(TurningPointAtStartError):
        explicit_from_trajectory(traj)


def test_explicit_reparametrization_consistency():
    """Phi(x) from the affine trajectory equals the direct x-integration."""
    spec = make_spec("hyperbolic", "sin(x)+3")
    traj = integrate_geodesic(spec, GeodesicState((0.0, 1.2), (0.8, 0.3)), (0, 1.2),
                              tol=1e-12)
    g1 = explicit_from_trajectory(traj)
    lo, hi = g1.support
    g2 = integrate_explicit(spec, lo, g1.value(lo), g1.slope(lo),
                            support=(lo, hi), tol=1e-12)
    xs = np.linspace(lo, min(hi, g2.support[1]), 40)
    assert np.max(np.abs(g1.value(xs) - g2.value(xs))) < 1e-8


# --- complex paths ----------------------------------------------------------------

def test_polyline_parsing_and_parametrization():
    path = ComplexPath.from_text("0,0;1,0;1,1")
    assert path.start == 0 and path.end == 1 + 1j
    assert path.point(0.5) == pytest.approx(1 + 0j)
    assert path.velocity(0.25) == pytest.approx(2 + 0j)
    assert path.velocity(0.75) == pytest.approx(2j)
    assert path.segments() == [(0.0, 0.5), (0.5, 1.0)]
    with pytest.raises(ValueError):
        ComplexPath.polyline([1 + 1j])
    with pytest.raises(ValueError):
        ComplexPath.polyline([0, 0])


def test_complex_explicit_residual_and_homotopy():
    spec = make_spec("complex", "exp(z)")
    straight = ComplexPath.polyline([0, 1 + 1j])
    bent = ComplexPath.polyline([0, 1, 1 + 1j])
    ga = integrate_explicit(spec, 0, 1.5j, 0.2, path=straight, tol=1e-12)
    gb = integrate_explicit(spec, 0, 1.5j, 0.2, path=bent, tol=1e-12)
    ss = np.linspace(0, 1, 30)
    assert np.max(np.abs(geodesic_residual(spec, ga, ss))) < 1e-8
    assert np.max(np.abs(geodesic_residual(spec, gb, ss))) < 1e-8
    # holomorphic continuation is path independent
    assert abs(ga.value(1.0) - gb.value(1.0)) < 1e-10
    assert abs(ga.slope(1.0) - gb.slope(1.0)) < 1e-10


def test_complex_explicit_requires_matching_path():
    spec = make_spec("complex", "exp(z)")
    path = ComplexPath.polyline([0, 1])
    with pytest.raises(ValueError):
        integrate_explicit(spec, 1 + 1j, 1.5j, 0.0, path=path)
    with pytest.raises(ValueError):
        integrate_explicit(spec, 0.0, 1.5j, 0.0)  # no path at all


def test_complex_blowup_terminates_cleanly():
    """Initial data with a reconstructed-solution zero near the real axis."""
    spec = make_spec("complex", "exp(z)")
    path = ComplexPath.polyline([0, 1, 1 + 1j])
    g = integrate_explicit(spec, 0, 3.0 + 0j, 0.1, path=path, tol=1e-11)
    assert g.termination is Termination.DOMAIN_BOUNDARY
    assert g.support[1] < 0.5


def test_a_real_start_on_the_complex_chart_stays_complex():
    """The solver steps the chart's own numbers: real floats passed on the
    complex chart start the same complex run as the equal complex values. h
    is not real on the real axis, so a dropped imaginary part would show."""
    spec = make_spec("complex", "z^2+i")
    real = integrate_geodesic(spec, GeodesicState((0.1, 1.2), (1.0, 0.3)), (0, 0.5))
    cplx = integrate_geodesic(spec, GeodesicState((0.1 + 0j, 1.2 + 0j), (1.0 + 0j, 0.3 + 0j)),
                              (0, 0.5))
    assert real.coords.dtype == complex and np.any(real.coords.imag != 0)
    assert np.array_equal(real.s, cplx.s)
    assert np.array_equal(real.coords, cplx.coords)
    assert np.array_equal(real.velocities, cplx.velocities)
    path = ComplexPath.polyline([0, 0.5 + 0.2j])
    ga = integrate_explicit(spec, 0, 1.5, 0.2, path=path)
    gb = integrate_explicit(spec, 0, 1.5 + 0j, 0.2 + 0j, path=path)
    ss = np.linspace(*ga.support, 9)
    assert np.iscomplexobj(ga.value(ss)) and np.any(ga.value(ss).imag != 0)
    assert np.array_equal(ga.nodes, gb.nodes)
    assert np.array_equal(ga.value(ss), gb.value(ss))
    h = spec.h
    ta = rc.integrate_riccati(h, 0.5, 0.0, (0.0, 0.8))
    tb = rc.integrate_riccati(h, 0.5 + 0j, 0.0, (0.0, 0.8))
    xs = np.linspace(0.0, 0.8, 9)
    assert np.iscomplexobj(ta.value(xs)) and np.any(ta.value(xs).imag != 0)
    assert np.array_equal(ta.nodes, tb.nodes)
    assert np.array_equal(ta.value(xs), tb.value(xs))


def test_complex_trajectory_to_explicit(airy_geodesic):
    spec = make_spec("complex", "exp(z)")
    state = GeodesicState((0.0 + 0j, 1.5j), (1.0 + 0.5j, 0.2 - 0.1j))
    traj = integrate_geodesic(spec, state, (0, 0.8), tol=1e-12)
    g = explicit_from_trajectory(traj)
    ss = np.linspace(0, 1, 25)
    assert np.max(np.abs(geodesic_residual(spec, g, ss))) < 1e-6
    # the path reproduces the trajectory's z-projection
    q0, _ = traj.state_at(0.4)
    assert abs(g.path.point(0.5) - q0[0]) < 1e-12


# --- the stop rule: one margin, one stepping loop --------------------------------

def _scipy_events(spec, pair, start, cap):
    """The terminal events that once stopped every run: v, den signed by its
    side at the start (moduli on complex charts) and the escape cap."""
    guard = gd.BOUNDARY_GUARD

    def den(p, y):
        return geometry.den_at(spec, *pair(p, y))

    if isinstance(pair(*start)[1], complex):
        events = [lambda p, y: abs(pair(p, y)[1]) - guard,
                  lambda p, y: abs(den(p, y)) - guard]
    else:
        side = np.sign(den(*start)) or 1.0
        events = [lambda p, y: pair(p, y)[1] - guard,
                  lambda p, y: side * den(p, y) - guard]
    events.append(lambda _p, y: cap - max(abs(c) for c in y))
    for ev in events:
        ev.terminal = True
        ev.direction = -1
    return events


@pytest.mark.parametrize("case", ["hyperbolic escape", "polyline segment"])
def test_runs_equal_scipy_event_runs_without_their_event_sample(case):
    """Stepping RK45 and stopping on the first node outside the margin keeps
    the nodes and states of solve_ivp with the three terminal events, bit for
    bit, less the event sample that solve_ivp locates on its interpolant."""
    from scipy.integrate import solve_ivp
    tol, cap = 1e-12, 1e6
    if case == "hyperbolic escape":
        spec = make_spec("hyperbolic", "4")
        y0 = [1.0, 0.5]
        spans, max_step = [(0.0, -2 * np.pi), (0.0, 2 * np.pi)], 4 * np.pi / 64

        def pair(x, y):
            return x, y[0]

        def rhs(x, y):
            return [y[1], gd.explicit_second(spec, x, y[0], y[1])]
    else:
        spec = make_spec("complex", "exp(z)")
        path = ComplexPath.polyline([0, 1])
        vel = path.velocity(0.5)
        y0 = np.array([3.0, 0.1], dtype=complex)
        spans, max_step = [(0.0, 1.0)], 1 / 32

        def pair(s, y):
            return path.point(s), y[0]

        def rhs(s, y):
            return [y[1] * vel, gd.explicit_second(spec, path.point(s), y[0], y[1]) * vel]
    margin = gd._stop_margin(spec, pair, (0.0, y0), cap)
    events = _scipy_events(spec, pair, (0.0, y0), cap)
    stopped = []
    for span in spans:
        ref = solve_ivp(rhs, span, y0, method="RK45", rtol=tol, atol=tol * 1e-2,
                        events=events, max_step=max_step)
        ts, ys, exit_step = gd._run(rhs, span, y0, margin, tol, max_step)
        keep = len(ref.t) - (ref.status == 1)
        assert np.array_equal(ts, ref.t[:keep])
        assert np.array_equal(ys, ref.y[:, :keep])
        assert (exit_step is not None) == (ref.status == 1)
        stopped.append(ref.status == 1)
    assert any(stopped)


def _band_start(run):
    """Start a run where |den| = 5e-7: outside the domain's own 1e-9 band,
    inside the 1e-6 stop margin."""
    value = np.sqrt(1.0 + 5e-7)
    if run == "integrate_geodesic":
        integrate_geodesic(make_spec("hyperbolic", "1"),
                           GeodesicState((0.0, value), (1.0, 0.3)), (0, 1))
    elif run == "integrate_explicit":
        integrate_explicit(make_spec("hyperbolic", "1"), 0.0, value, 0.3, support=(-1, 1))
    else:
        integrate_explicit(make_spec("complex", "1"), 0, value, 0.3,
                           path=ComplexPath.polyline([0, 1]))


@pytest.mark.parametrize("run", ["integrate_geodesic", "integrate_explicit", "path"])
def test_a_start_inside_the_stop_margin_raises(run):
    with pytest.raises(StartOnSingularSetError):
        _band_start(run)


def test_a_nan_margin_stops_a_run():
    """u' = -1 from u = 1 with the margin sqrt(u), NaN once u < 0. RK45 never
    accepts a NaN state (its error estimate rejects the step), so a margin read
    off the state is where a NaN shows. solve_ivp never made a NaN event
    active: an event run went on to the end of the span."""
    def margin(_t, y):
        with np.errstate(invalid="ignore"):
            return np.sqrt(y[0])

    ts, ys, exit_step = gd._run(lambda _t, y: [-1.0], (0.0, 3.0), [1.0], margin,
                                1e-10, 0.1)
    assert exit_step is not None and exit_step(exit_step.t)[0] < 0
    assert np.all(ys[0] > 0) and ts[-1] < 1.0 < exit_step.t


# --- the explicit-form right-hand side, written out per family ------------------

def _hyperbolic_rhs(h, hp, v, w):
    return (3 * v**2 + h) / (v**2 - h) * w**2 / v - hp * w / (v**2 - h) + (v**4 - h**2) / v


def _ads_rhs(h, hp, v, w):
    return (3 * v**2 - h) / (v**2 + h) * w**2 / v + hp * w / (v**2 + h) - (v**4 - h**2) / v


@pytest.mark.parametrize("family, source, x, v, w, hand", [
    ("hyperbolic", "sin(x)+3", 0.4, 1.3, 0.7,
     _hyperbolic_rhs(np.sin(0.4) + 3, np.cos(0.4), 1.3, 0.7)),
    ("ads+", "x^2+2", 0.3, 1.1, -0.4, _ads_rhs(2.09, 0.6, 1.1, -0.4)),
    ("ads-", "exp(x)", -0.2, 0.8, 0.5, _ads_rhs(np.exp(-0.2), np.exp(-0.2), 0.8, 0.5)),
    ("complex", "z^2+1", 0.3 + 0.2j, 1.2 - 0.5j, 0.4 + 0.3j,
     _hyperbolic_rhs((0.3 + 0.2j) ** 2 + 1, 2 * (0.3 + 0.2j), 1.2 - 0.5j, 0.4 + 0.3j)),
])
def test_explicit_second_at_a_point(family, source, x, v, w, hand):
    spec = make_spec(family, source)
    assert abs(gd.explicit_second(spec, x, v, w) - hand) <= 1e-13 * abs(hand)


@pytest.mark.parametrize("family, source, x0, v0, w0", [
    ("hyperbolic", "sin(x)+3", 0.2, 1.4, 0.3),
    ("ads+", "x^2+2", -0.3, 1.1, 0.2),
    ("ads-", "exp(x)", 0.1, 0.9, -0.4),
    ("complex", "z^2+1", 0.3 + 0.2j, 1.2 - 0.5j, 0.4 + 0.3j),
])
def test_third_derivative_is_the_derivative_of_the_rhs_along_the_ode(
        family, source, x0, v0, w0):
    """v''' from the jets against a central difference of v'' = f(x, v, v')
    along the solution through (x0, v0, w0), stepped along the real direction."""
    spec = make_spec(family, source)
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        return [y[1], gd.explicit_second(spec, x0 + t, y[0], y[1])]

    step = 1e-4
    y0 = np.array([v0, w0], dtype=complex if family == "complex" else float)
    f = []
    for t in (step, -step):
        sol = solve_ivp(rhs, (0.0, t), y0, method="DOP853", rtol=1e-13, atol=1e-15)
        v, w = sol.y[:, -1]
        f.append(gd.explicit_second(spec, x0 + t, v, w))
    _, third = gd.explicit_second_and_third(spec, x0, v0, w0)
    # the central difference is good to about 3e-7 here
    assert abs((f[0] - f[1]) / (2 * step) - third) <= 1e-5 * max(1.0, abs(third))


def test_complex_rhs_is_odd_in_the_value():
    """(X, X') -> (-X, -X') maps complex geodesics to geodesics."""
    spec = make_spec("complex", "exp(z)")
    z, v, w = 0.3 - 0.1j, 0.9 + 0.4j, -0.2 + 0.6j
    f = gd.explicit_second(spec, z, v, w)
    assert abs(gd.explicit_second(spec, z, -v, -w) + f) <= 1e-15 * abs(f)
    assert gd.explicit_second(spec, z, -v, 0) == -gd.explicit_second(spec, z, v, 0)


@pytest.mark.parametrize("family, source", [
    ("hyperbolic", "sin(x)+3"), ("ads+", "x^2+2"), ("ads-", "exp(x)"), ("complex", "z^2+1"),
])
def test_array_second_and_third_equal_the_per_node_loop(family, source):
    """One array call of explicit_second_and_third (the node data of every
    explicit integration) equals the call node by node, also at a node of
    exact zero slope. numpy and libm may round elementary functions
    differently in the last bit, so the bound is 1e-14 of the largest jet part
    at the nodes (h, h', h'', value, slope and the results)."""
    spec = make_spec(family, source)
    rng = np.random.default_rng(5)
    n = 40
    points = np.sort(rng.uniform(-1, 1, n))
    values = rng.uniform(0.3, 1.2, n)
    slopes = rng.uniform(-1, 1, n)
    if family == "complex":
        points = points + 1j * rng.uniform(-0.3, 0.3, n)
        values = values + 1j * rng.uniform(-0.3, 0.3, n)
        slopes = slopes + 1j * rng.uniform(-1, 1, n)
    slopes[7] = 0
    loop = np.array([gd.explicit_second_and_third(spec, p, v, w)
                     for p, v, w in zip(points, values, slopes)]).T
    jets = [gd.eval_jet2(spec.h, p) for p in points]
    scale = max(np.max(np.abs([[j.value, j.d1, j.d2] for j in jets])),
                np.max(np.abs(values)), np.max(np.abs(slopes)), np.max(np.abs(loop)))
    seconds, thirds = gd.explicit_second_and_third(spec, points, values, slopes)
    assert seconds.shape == thirds.shape == (n,)
    assert np.max(np.abs(seconds - loop[0])) <= 1e-14 * scale
    assert np.max(np.abs(thirds - loop[1])) <= 1e-14 * scale
    # the zero-slope node takes the same shortcut as the scalar call
    assert seconds[7] == gd.explicit_second(spec, points[7], values[7], 0.0)


def test_array_zero_slope_shortcut_on_the_singular_set():
    """Phi = 2, Phi' = 0 with h = 4 sits on den = 0: the array call returns
    the tail there, like the scalar one, without a division warning."""
    spec = make_spec("hyperbolic", "4+0*x")
    values = np.array([2.0, 1.5, 2.0])
    slopes = np.array([0.0, 0.3, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = gd.explicit_second(spec, np.array([0.1, 0.2, 0.3]), values, slopes)
    scalar = [gd.explicit_second(spec, x, v, w)
              for x, v, w in zip([0.1, 0.2, 0.3], values, slopes)]
    assert got.tolist() == scalar
    assert got[0] == 0.0


_RHS_FLOATS = st.one_of(st.floats(-4.0, 4.0), st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 1e-160]))


@pytest.mark.parametrize("family", ["hyperbolic", "ads+", "ads-"])
@pytest.mark.parametrize("source", [*REAL_POOL, "x", "log(x)", "1/x^2"])
@settings(max_examples=60, deadline=None)
@given(x=_RHS_FLOATS, v=_RHS_FLOATS, w=_RHS_FLOATS)
# zero divisions: by v, and by den = h - s v^2 (h = x at 4, h = -1 in ads)
@example(x=1.0, v=0.0, w=1.0)
@example(x=4.0, v=2.0, w=1.0)
@example(x=2.0, v=1.0, w=1.0)
def test_float_rhs_equals_explicit_second_bit_for_bit(family, source, x, v, w):
    """The real runs' right-hand side, over Python floats, equals
    explicit_second over numpy float64 scalars bit for bit, inf and nan of a
    zero division included; a point where h raises raises in both."""
    spec = make_spec(family, source)
    rhs = gd._real_explicit_rhs(spec)
    x64, v64, w64 = np.float64(x), np.float64(v), np.float64(w)
    with np.errstate(all="ignore"):
        try:
            expected = gd.explicit_second(spec, x64, v64, w64)
        except DomainError:
            with pytest.raises(DomainError):
                rhs(x64, np.array([v, w]))
            return
        slope, second = rhs(x64, np.array([v, w]))
    assert np.float64(slope).tobytes() == w64.tobytes()
    assert np.float64(second).tobytes() == np.float64(expected).tobytes()
