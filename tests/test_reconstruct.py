"""Theta pairs, solution bases, Riccati correspondences, inversions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from conftest import make_spec
from geodesy import expr, geodesics as gd, reconstruct as rc
from geodesy.dense import CurveDense
from geodesy.errors import (
    DenominatorVanishesError,
    NegativeRadicandError,
    OutsideSupportError,
    PathLeavesSupportError,
    ResidualTooLargeError,
)
from geodesy.geodesics import ComplexPath, ExplicitGeodesic, integrate_explicit


def _radicand_and_root(pair, ts):
    """The radicand den^2 + s w^2 at ``ts`` and its root as the pair tracks it
    (the speed L of the explicit-form geodesic)."""
    v, w, _, h, _ = pair._data(ts)
    _, radicand = rc._den_and_radicand(pair.spec.facts.sign, h, v, w)
    return radicand, pair._sqrt(ts, radicand)


def _riccati_residuals(pair, ts):
    """Theta' + Theta^2 + h of top and of bot, from one read of the pair."""
    top, dtop, bot, dbot = pair._theta(ts)
    h = expr.eval_jet2(pair.spec.h, pair.geodesic.point(ts)).value
    return dtop + top * top + h, dbot + bot * bot + h


def test_theta_constant_hyperbolic():
    """h = -1, Phi = 1: (0 - 2)/(-2) = 1 and (0 + 2)/(-2) = -1."""
    spec = make_spec("hyperbolic", "-1")
    g = integrate_explicit(spec, 0.0, 1.0, 0.0, support=(0, 2), tol=1e-12)
    pair = rc.theta_from_geodesic(spec, g)
    assert pair.top(0.7) == pytest.approx(1.0, abs=1e-13)
    assert pair.bot(0.7) == pytest.approx(-1.0, abs=1e-13)
    assert not pair.coincident
    assert _radicand_and_root(pair, 0.7)[1] == pytest.approx(2.0, abs=1e-13)


def test_theta_harmonic_oscillator(harmonic_basis):
    spec, g, basis = harmonic_basis
    pair = basis.theta
    assert pair.top(1.0) == pytest.approx(-1j, abs=1e-13)
    assert pair.bot(1.0) == pytest.approx(1j, abs=1e-13)


def test_exponential_basis():
    spec = make_spec("hyperbolic", "-1")
    g = integrate_explicit(spec, 0.0, 1.0, 0.0, support=(0, 2), tol=1e-12)
    basis = rc.reconstruct_basis(spec, g)
    xs = np.linspace(0, 2, 17)
    assert np.max(np.abs(basis.u_top.value(xs) - np.exp(xs))) < 1e-9
    assert np.max(np.abs(basis.u_bot.value(xs) - np.exp(-xs))) < 1e-9
    assert basis.u_top.value(0.0) == pytest.approx(1.0, abs=1e-14)
    assert basis.u_bot.value(0.0) == pytest.approx(1.0, abs=1e-14)


def test_harmonic_oscillator_basis(harmonic_basis):
    """h = 1, Psi = 1 reproduces e^{-ix}, e^{+ix}."""
    spec, g, basis = harmonic_basis
    xs = np.linspace(0, 2 * np.pi, 33)
    assert np.max(np.abs(basis.u_top.value(xs) - np.exp(-1j * xs))) < 1e-9
    assert np.max(np.abs(basis.u_bot.value(xs) - np.exp(1j * xs))) < 1e-9


def test_harmonic_oscillator_cos_sin_combinations(harmonic_basis):
    spec, g, basis = harmonic_basis
    xs = np.linspace(0, 2 * np.pi, 33)
    cos_u = basis.combination(0.5, 0.5)
    sin_u = basis.combination(0.5j, -0.5j)
    assert np.max(np.abs(cos_u.value(xs) - np.cos(xs))) < 1e-8
    assert np.max(np.abs(sin_u.value(xs) - np.sin(xs))) < 1e-8


def test_product_identities_all_families(airy_geodesic, harmonic_basis):
    spec_h, g_h = airy_geodesic
    pair_h = rc.theta_from_geodesic(spec_h, g_h)
    xs = np.linspace(*g_h.support, 40)
    assert max(abs(pair_h.product(t) + g_h.value(t) ** 2) for t in xs) < 1e-9

    spec_a, g_a, basis_a = harmonic_basis
    xs = np.linspace(*g_a.support, 40)
    assert max(abs(basis_a.theta.product(t) - g_a.value(t) ** 2) for t in xs) < 1e-9

    spec_c = make_spec("complex", "z^2+1")
    path = ComplexPath.polyline([0.2, 1 + 1j])
    g_c = integrate_explicit(spec_c, 0.2, 2.0 + 0.5j, 0.1j, path=path, tol=1e-12)
    pair_c = rc.theta_from_geodesic(spec_c, g_c)
    ss = np.linspace(0, 1, 40)
    assert max(abs(pair_c.product(t) + g_c.value(t) ** 2) for t in ss) < 1e-9


def test_airy_basis_against_independent_rk(airy_basis):
    """sup |u'' + x u| small, and the basis matches a plain RK integration of
    u'' = -x u with matched initial data."""
    spec, g, basis = airy_basis
    lo, hi = g.support
    grid = np.linspace(lo, hi, 160)
    for u in (basis.u_top, basis.u_bot):
        assert np.max(np.abs(rc.ode_residual(spec.h, u, grid))) < 1e-6
    pair = basis.theta
    for u, th0 in ((basis.u_top, pair.top(0.0)), (basis.u_bot, pair.bot(0.0))):
        for target in (lo, hi):
            ref = solve_ivp(lambda x, y: [y[1], -x * y[0]], (0.0, target),
                            [1.0, th0], rtol=1e-12, atol=1e-14, dense_output=True)
            xs = grid[(grid >= min(0, target)) & (grid <= max(0, target))]
            dev = np.max(np.abs([u.value(x) - ref.sol(x)[0] for x in xs]))
            assert dev < 1e-6


def test_general_solution_property(airy_basis):
    """A u_top + B u_bot solves the equation for several (A, B)."""
    spec, g, basis = airy_basis
    grid = np.linspace(*g.support, 80)
    for a, b in ((1, 0), (0, 1), (1, 1), (2, -3)):
        u = basis.combination(a, b)
        assert np.max(np.abs(rc.ode_residual(spec.h, u, grid))) < 1e-6


def test_wronskian_constant_and_nonzero(airy_basis):
    spec, g, basis = airy_basis
    grid = np.linspace(*g.support, 50)
    w = np.array([basis.wronskian(t) for t in grid])
    assert abs(w[0]) > 1e-3
    assert np.max(np.abs(w - w[0])) / abs(w[0]) < 1e-6


def test_riccati_residual_trivial_cases():
    h = expr.parse("-1")
    ts = np.linspace(0, 1, 21)
    theta = CurveDense(ts, [np.ones(21), np.zeros(21), np.zeros(21)])
    assert np.max(np.abs(rc.riccati_residual(h, theta, ts))) == 0.0
    h1 = expr.parse("1")
    u = CurveDense(ts, [np.sin(ts), np.cos(ts), -np.sin(ts)])
    assert np.max(np.abs(rc.ode_residual(h1, u, ts))) < 1e-12


def test_riccati_property_on_geodesic_thetas(airy_basis):
    spec, g, basis = airy_basis
    grid = np.linspace(*g.support, 120)
    for residual in _riccati_residuals(basis.theta, grid):
        assert np.max(np.abs(residual)) < 1e-6


def test_tracked_root_positive_on_hyperbolic_support(airy_basis):
    """(h - Phi^2)^2 and Phi'^2 cannot vanish together on the domain."""
    spec, g, basis = airy_basis
    _, norms = _radicand_and_root(basis.theta, np.linspace(*g.support, 80))
    assert np.all(norms.real > 0)
    assert np.all(norms.imag == 0)


def test_monotonicity_labels_hyperbolic(airy_basis):
    """With Phi^2 > h, u_top is nondecreasing and u_bot nonincreasing."""
    spec, g, basis = airy_basis
    grid = np.linspace(*g.support, 60)
    tops = np.array([basis.theta.top(t) for t in grid])
    bots = np.array([basis.theta.bot(t) for t in grid])
    assert tops.min() >= 0.0
    assert bots.max() <= 0.0


def test_inversion_round_trip(airy_basis):
    spec, g, basis = airy_basis
    rec = rc.invert_to_geodesic(basis)
    grid = np.linspace(*g.support, 90)
    assert np.max(np.abs(rec.value(grid) - g.value(grid))) < 1e-7
    assert np.max(np.abs(rec.slope(grid) - g.slope(grid))) < 1e-7


def test_inversion_from_theta_pair(harmonic_basis):
    spec, g, basis = harmonic_basis
    rec = rc.invert_to_geodesic(basis.theta)
    grid = np.linspace(*g.support, 40)
    assert np.max(np.abs(rec.value(grid) - 1.0)) < 1e-12


def test_inversion_wrong_sign_product_rejected():
    """A pair whose product has the wrong sign for its family did not come
    from that family's geodesic and must be refused."""
    spec = make_spec("hyperbolic", "-1")
    g = integrate_explicit(spec, 0.0, 1.0, 0.0, support=(0, 1), tol=1e-12)

    class _BadPair(rc.ThetaPair):
        def _theta(self, t):
            return 1.0, 0.0, 2.0, 0.0  # (top, top', bot, bot')

    bad = _BadPair(spec, g, False, None)
    with pytest.raises(NegativeRadicandError):
        rc.invert_to_geodesic(bad)


def test_denominator_vanishing_detected():
    spec = make_spec("ads+", "-1")
    g = ExplicitGeodesic.from_function(spec, lambda x: x, (0.5, 1.5),
                                       dfn=lambda x: 1.0, d2fn=lambda x: 0.0)
    with pytest.raises(DenominatorVanishesError):
        rc.theta_from_geodesic(spec, g)


def test_negative_control_rejection_and_iff_direction():
    """Phi = 2 with h = -1 is not a geodesic: the auto-check refuses it, and
    with the check off the reconstructed u fails the equation by a wide
    margin (residual 3 e^{2x})."""
    spec = make_spec("hyperbolic", "-1")
    g = ExplicitGeodesic.from_function(spec, lambda x: 2.0, (0, 1),
                                       dfn=lambda x: 0.0, d2fn=lambda x: 0.0)
    with pytest.raises(ResidualTooLargeError):
        rc.reconstruct_basis(spec, g)
    basis = rc.reconstruct_basis(spec, g, check_residual=False)
    grid = np.linspace(0, 1, 21)
    res = np.abs(rc.ode_residual(spec.h, basis.u_top, grid))
    assert res.max() > 1e-2
    assert res.max() == pytest.approx(3.0 * np.exp(2.0), rel=1e-6)


def test_riccati_solutions_are_ads_geodesics():
    """Direct-RK Riccati solutions induce Psi solving the ads explicit
    equation (the 'singular case' correspondence)."""
    for h_src, span in (("x^2", (0.0, 0.8)), ("-1", (0.0, 2.0))):
        h = expr.parse(h_src)
        spec = make_spec("ads+", h_src)
        theta = rc.integrate_riccati(h, 2.0, 0.0, span, tol=1e-12)
        report = rc.riccati_solution_is_geodesic(spec, theta, "real", tol=1e-6)
        assert np.max(report.geodesic) <= report.tolerance
        assert np.max(report.geodesic) < 1e-6


def test_a_riccati_run_through_a_blow_up_ends_on_a_solver_node():
    """Theta = -tan(x) blows up at pi/2. The run ends on its last node below
    RICCATI_CAP: the nodes are those of solve_ivp with a terminal cap event,
    less the event sample located on the interpolant."""
    theta = rc.integrate_riccati(expr.parse("1"), 0.0, 0.0, (0.0, 2.0), tol=1e-12)

    def escape(_x, y):
        return rc.RICCATI_CAP - abs(y[0])
    escape.terminal = True
    escape.direction = -1
    ref = solve_ivp(lambda _x, y: -y * y - 1.0, (0.0, 2.0), np.array([0.0]), method="RK45",
                    rtol=1e-12, atol=1e-14, events=[escape], max_step=2.0 / 64)
    assert ref.status == 1
    assert np.array_equal(theta.nodes, ref.t[:-1])
    assert theta.support[1] < np.pi / 2
    assert np.max(np.abs(theta.value(theta.nodes))) < rc.RICCATI_CAP


def test_riccati_negative_branch():
    """Theta < 0 induces Psi = -Theta."""
    h = expr.parse("x^2")
    spec = make_spec("ads+", "x^2")
    theta = rc.integrate_riccati(h, -0.5, 0.0, (0.0, 0.8), tol=1e-12)
    report = rc.riccati_solution_is_geodesic(spec, theta, "real", tol=1e-6)
    assert np.max(report.geodesic) <= report.tolerance and report.sign == -1.0


def test_riccati_complex_constant_exact():
    """Theta = i with h = 1: the induced X = 1 sits exactly on X^2 = h and
    the explicit equation holds in the zero-slope limit (exact to roundoff
    of the dense interpolant)."""
    spec = make_spec("complex", "1+0*z")
    ts = np.linspace(0, 1, 21)
    theta = CurveDense(
        ts, [np.full(21, 1j), np.zeros(21), np.zeros(21)])
    report = rc.riccati_solution_is_geodesic(spec, theta, "imaginary", tol=1e-9)
    assert np.max(report.riccati) < 1e-12
    assert np.max(report.geodesic) < 1e-12


def test_riccati_complex_tan_solution():
    """Theta(z) = -tan(z) solves the complex Riccati equation with h = 1;
    X = -i Theta must solve the explicit complex geodesic equation."""
    spec = make_spec("complex", "1+0*z")
    ts = np.linspace(0.3, 1.0, 141)
    vals = -np.tan(ts) + 0j
    d1 = -1.0 / np.cos(ts) ** 2 + 0j
    d2 = -2.0 * np.tan(ts) / np.cos(ts) ** 2 + 0j
    theta = CurveDense(ts, [vals, d1, d2])
    report = rc.riccati_solution_is_geodesic(spec, theta, "imaginary", tol=1e-6)
    assert np.max(report.geodesic) <= report.tolerance


def test_riccati_gate_rejects_non_solutions():
    spec = make_spec("ads+", "1")
    ts = np.linspace(0, 1, 11)
    theta = CurveDense(ts, [np.full(11, 2.0), np.zeros(11),
                            np.zeros(11)])
    report = rc.riccati_solution_is_geodesic(spec, theta, "real", tol=1e-6)
    assert report.riccati.shape == (257,)
    assert np.max(report.riccati) > report.tolerance


def test_tanh_geodesic_gives_a_coincident_pair():
    """Psi = tanh solves the ads equation for h = -1 with
    (h + Psi^2)^2 = Psi'^2 identically: a degenerate (coincident) pair."""
    spec = make_spec("ads+", "-1")
    g = ExplicitGeodesic.from_function(
        spec, np.tanh, (0.5, 2.0),
        dfn=lambda x: 1 / np.cosh(x) ** 2,
        d2fn=lambda x: -2 * np.tanh(x) / np.cosh(x) ** 2)
    pair = rc.theta_from_geodesic(spec, g)
    assert pair.coincident
    # both Thetas collapse onto tanh itself
    assert pair.top(1.0) == pytest.approx(np.tanh(1.0), abs=1e-9)
    assert pair.top(1.0) == pair.bot(1.0)
    basis = rc.reconstruct_basis(spec, g)
    assert abs(basis.wronskian(1.0)) < 1e-12


def test_clear_cases_are_not_coincident(airy_geodesic, harmonic_basis):
    spec_a, g_a, _ = harmonic_basis
    assert not rc.theta_from_geodesic(spec_a, g_a).coincident
    spec_h, g_h = airy_geodesic
    assert not rc.theta_from_geodesic(spec_h, g_h).coincident


def test_path_independence_exp(airy_geodesic):
    spec = make_spec("complex", "exp(z)")
    path_a = ComplexPath.polyline([0, 1 + 1j])
    path_b = ComplexPath.polyline([0, 1, 1 + 1j])
    g = integrate_explicit(spec, 0, 1.5j, 0.2, path=path_a, tol=1e-12)
    report = rc.path_independence_check(spec, g, 0, 1 + 1j, path_a, path_b,
                                        tol=1e-8)
    assert report.passes
    assert max(report.diff_top, report.diff_bot) < 1e-10


def test_path_independence_leaves_support():
    """Initial data whose reconstruction has a zero near the real axis: the
    axis-hugging path runs into the singular set."""
    spec = make_spec("complex", "exp(z)")
    path_a = ComplexPath.polyline([0, 1 + 1j])
    path_b = ComplexPath.polyline([0, 1, 1 + 1j])
    g = integrate_explicit(spec, 0, 3.0 + 0j, 0.1, path=path_a, tol=1e-11)
    with pytest.raises(PathLeavesSupportError):
        rc.path_independence_check(spec, g, 0, 1 + 1j, path_a, path_b)


def test_path_independence_validates_endpoints():
    spec = make_spec("complex", "exp(z)")
    path_a = ComplexPath.polyline([0, 1 + 1j])
    path_c = ComplexPath.polyline([0, 2j])
    g = integrate_explicit(spec, 0, 1.5j, 0.2, path=path_a, tol=1e-11)
    with pytest.raises(ValueError):
        rc.path_independence_check(spec, g, 0, 1 + 1j, path_a, path_c)


def test_ode_residual_outside_support(airy_basis):
    spec, g, basis = airy_basis
    with pytest.raises(OutsideSupportError):
        rc.ode_residual(spec.h, basis.u_top, 3.0)


def test_branch_tracking_through_complex_winding():
    """A complex radicand that winds across the negative real axis: the
    per-point principal root jumps there, the tracked root must not."""
    spec = make_spec("complex", "z^2")
    path = ComplexPath.polyline([0.5, 0.5 + 1.5j])
    g = integrate_explicit(spec, 0.5, 2.0 + 0j, 1.5j, path=path, tol=1e-12)
    pair = rc.theta_from_geodesic(spec, g)
    ts = np.linspace(0, 1, 600)
    rads, tracked = _radicand_and_root(pair, ts)
    crosses = np.any((rads.real[:-1] < 0)
                     & (np.sign(rads.imag[:-1]) != np.sign(rads.imag[1:])))
    assert crosses, "case selection: radicand must cross the branch cut"
    principal = np.sqrt(rads)
    assert np.abs(np.diff(principal)).max() > 0.5  # the cut is really crossed
    assert np.abs(np.diff(tracked)).max() < 0.05
    # the continued branch keeps Theta a Riccati solution; the principal
    # branch could not
    assert np.max(np.abs(_riccati_residuals(pair, ts)[0])) < 1e-6


def test_radicand_grazing_zero_keeps_the_pair_accurate_away_from_the_graze():
    """An ads geodesic flattening into the singular set: the radicand decays
    to ~0 (it cannot cross transversally: the curve would coincide with the
    induced Riccati curve by uniqueness), and the pair stays accurate away
    from the graze."""
    spec = make_spec("ads+", "x")
    g = integrate_explicit(spec, 0.5, 1.0, 0.5, support=(-0.8, 0.5), tol=1e-12)
    from geodesy.geodesics import Termination
    assert g.termination is Termination.DOMAIN_BOUNDARY
    pair = rc.theta_from_geodesic(spec, g)
    lo, hi = g.support
    ts = np.linspace(lo, hi, 400)
    rads, _ = _radicand_and_root(pair, ts)
    assert rads.min() < 1e-10, "case selection: radicand must graze zero"
    away = np.abs(rads) > 0.05
    rr = np.abs(_riccati_residuals(pair, ts[away])[0])
    assert rr.max() < 1e-6


# --- the array query layer ------------------------------------------------------

#: a two-segment polyline case whose inversion once smeared the vertex kink
VERTEX_PATH = ("0,0;0.4799763778850506,0.21155935980849722;"
               "0.8303317417820015,0.6871696494890578")


def _vertex_geodesic():
    spec = make_spec("complex", "z^2+1")
    path = ComplexPath.from_text(VERTEX_PATH)
    g = integrate_explicit(spec, 0, 1.3014680524551971j, 0.08463520948727327,
                           path=path, tol=1e-12)
    return spec, g


@pytest.fixture(scope="module")
def query_bases(airy_basis, harmonic_basis):
    spec_c, g_c = _vertex_geodesic()
    return [airy_basis[2], harmonic_basis[2], rc.reconstruct_basis(spec_c, g_c)]


def test_basis_values_do_not_depend_on_query_order(query_bases):
    rng = np.random.default_rng(3)
    for basis in query_bases:
        ts = np.linspace(*basis.support, 41)
        shuffled = rng.permutation(len(ts))
        for u in (basis.u_top, basis.u_bot):
            forward = u.value(ts)
            backward = u.value(ts[::-1])[::-1]
            mixed = np.empty_like(forward)
            mixed[shuffled] = u.value(ts[shuffled])
            one_by_one = np.array([u.value(t) for t in ts[shuffled]])
            scale = np.abs(forward)
            for other in (backward, mixed):
                assert np.all(np.abs(other - forward) <= 1e-14 * scale)
            assert np.all(np.abs(one_by_one - forward[shuffled]) <= 1e-14 * scale[shuffled])
            assert np.ndim(u.value(ts[3])) == 0 and np.ndim(u.d2(ts[3])) == 0


def test_one_point_jets_equal_their_batch_entry(query_bases):
    """The one evaluation behind every solution: one point is the length-1
    case of an array query, so it equals the batch's entry bit for bit, also
    where numpy's array loops round complex products unlike its scalars (the
    vertex-path basis)."""
    for basis in query_bases:
        ts = np.linspace(*basis.support, 41)
        jets = basis.jets(ts)
        for i, t in enumerate(ts):
            at_one, entry = basis.jets(t), jets[i]
            for point, batch in zip((*at_one.matrix.ravel(), *at_one.theta),
                                    (*entry.matrix.ravel(), *entry.theta)):
                assert np.ndim(point) == 0 and point == batch
            # from the entries' scalars, which numpy may round unlike the array
            wronskian = jets.wronskian[i]
            assert abs(at_one.wronskian - wronskian) <= 1e-14 * abs(wronskian)
            assert basis.values(t) == tuple(entry.matrix[0])
            assert basis.theta._theta(t) == entry.theta


# --- the transition matrix between two bases ---------------------------------------

#: bound on the relative variation of M over the common support of two bases
TRANSITION_TOL = 1e-8


def _basis_from(family, h, value0, slope0=0.0):
    spec = make_spec(family, h)
    g = integrate_explicit(spec, 0.0, value0, slope0, support=(-1.0, 1.0), tol=1e-12)
    return rc.reconstruct_basis(spec, g, base=0.0)


def _transition_on_common_support(a, b):
    lo, hi = max(a.support[0], b.support[0]), min(a.support[1], b.support[1])
    ts = np.linspace(lo, hi, 101)
    return ts, rc.transition(a, b, ts)


def _variation(m):
    """max |M(t) - M(t0)| / max |M(t0)|."""
    return np.max(np.abs(m - m[..., :1])) / np.max(np.abs(m[..., 0]))


def _assert_one_solution_space(a, b):
    """M is constant, b's solutions are a's combinations with M's columns as
    weights, and det M is the ratio of the Wronskians."""
    ts, m = _transition_on_common_support(a, b)
    assert _variation(m) <= TRANSITION_TOL
    jets_a, jets_b = a.jets(ts), b.jets(ts)
    for k in (0, 1):
        combined, u = jets_a.combination(*m[:, k, 0])[0], jets_b.matrix[0, k]
        assert np.max(np.abs(combined - u)) <= TRANSITION_TOL * np.max(np.abs(u))
    ratio = b.wronskian(ts) / a.wronskian(ts)
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    assert np.max(np.abs(det - ratio) / np.abs(ratio)) <= 1e-14


@pytest.mark.parametrize("h", ["sin(x)+3", "x", "x^2+2"])
@pytest.mark.parametrize("second", [("hyperbolic", 1.2, 0.3), ("ads+", 1.5, 0.0)],
                         ids=["hyperbolic", "ads+"])
def test_two_geodesics_give_bases_with_a_constant_transition(h, second):
    """The basis comes from an arbitrary geodesic: another start of the same
    family, or a geodesic of another family, spans the same solutions."""
    family, value0, slope0 = second
    _assert_one_solution_space(_basis_from("hyperbolic", h, 1.0),
                               _basis_from(family, h, value0, slope0))


@pytest.mark.parametrize("h", ["sin(x)+3", "x^2+2"])
@pytest.mark.parametrize("family", ["hyperbolic", "ads+", "ads-"])
def test_the_restart_geodesic_spans_the_same_solutions(family, h):
    """The restart that stitches charts, value sqrt(|h(0)| + 1) and slope 0,
    keeps den = h - s value^2 away from zero and gives the same solution space."""
    a = _basis_from(family, h, 1.0, 0.2)
    h0 = expr.eval_jet2(a.spec.h, 0.0).value
    _assert_one_solution_space(a, _basis_from(family, h, np.sqrt(abs(h0) + 1.0)))


def _constant_curve_basis(a):
    """The basis of a constant curve, which is no geodesic."""
    g = ExplicitGeodesic.from_function(a.spec, lambda x: 1.0, a.support,
                                       dfn=lambda x: 0.0, d2fn=lambda x: 0.0)
    return rc.reconstruct_basis(a.spec, g, base=0.0, check_residual=False)


@pytest.mark.parametrize("other", [
    _constant_curve_basis,
    lambda a: _basis_from("hyperbolic", "sin(x)+3+1e-3", 1.2, 0.3),
], ids=["constant-curve", "h-plus-1e-3"])
def test_a_basis_of_another_equation_has_a_varying_transition(other):
    a = _basis_from("hyperbolic", "sin(x)+3", 1.0)
    assert _variation(_transition_on_common_support(a, other(a))[1]) > TRANSITION_TOL


def test_one_point_transition_equals_its_batch_entry():
    a, b = _basis_from("hyperbolic", "x", 1.0), _basis_from("ads+", "x", 1.5)
    ts, m = _transition_on_common_support(a, b)
    for i in range(0, len(ts), 10):
        at_one = rc.transition(a, b, ts[i])
        assert at_one.shape == (2, 2) and np.array_equal(at_one, m[..., i])


def test_array_theta_matches_scalar_where_the_conjugate_form_is_taken(airy_basis):
    """Near the Airy blow-up W - L cancels for top: the conjugate form runs."""
    spec, g, basis = airy_basis
    pair = basis.theta
    ts = np.linspace(*g.support, 301)
    v, w, _, h, _ = pair._data(ts)
    q = -_radicand_and_root(pair, ts)[1]
    conjugate = np.abs(w + q) < 0.5 * (np.abs(w) + np.abs(q))
    assert conjugate.any() and not conjugate.all(), "case selection"
    both, both_scalar = pair._theta(ts), np.array([pair._theta(t) for t in ts])
    for k in (0, 2):  # top, bot
        theta, dtheta = both[k:k + 2]
        scalar = both_scalar[:, k:k + 2]
        assert np.ndim(pair._theta(ts[0])[k]) == 0
        assert np.allclose(theta, scalar[:, 0], rtol=1e-14, atol=0)
        assert np.allclose(dtheta, scalar[:, 1], rtol=1e-14, atol=0)


def test_nan_in_sampled_second_derivative_fails_the_residual_gate():
    """Phi = 1 solves the h = -1 equation; one NaN second derivative must not
    slip through the gate as a zero defect."""
    spec = make_spec("hyperbolic", "-1")
    g = ExplicitGeodesic.from_function(
        spec, lambda x: 1.0, (0, 2), dfn=lambda x: 0.0,
        d2fn=lambda x: np.nan if x == 1.0 else 0.0)
    with pytest.raises(ResidualTooLargeError):
        rc.reconstruct_basis(spec, g, check_residual=True)


def test_inversion_round_trips_across_a_polyline_vertex():
    spec, g = _vertex_geodesic()
    basis = rc.reconstruct_basis(spec, g)
    rec = rc.invert_to_geodesic(basis)
    ss = np.linspace(*g.support, 101)
    assert np.max(np.abs(rec.value(ss) - g.value(ss))) < 1e-7


@pytest.mark.parametrize("h_src", ["z", "z^2+1", "exp(z)", "4"])
def test_a_path_inversion_takes_its_second_derivative_from_the_riccati_equation(h_src):
    """Along a path the recovered slope curve's derivative comes from
    Theta'' = -2 Theta Theta' - h', not from differences of the slopes: slope
    and second derivative of the recovered curve match the integrated
    geodesic's, relative to their sup, across a vertex of the path."""
    spec = make_spec("complex", h_src)
    path = ComplexPath.polyline([0, 0.6, 0.6 + 0.6j])
    g = integrate_explicit(spec, 0, 1.5j, 0.2, path=path, tol=1e-12)
    rec = rc.invert_to_geodesic(rc.reconstruct_basis(spec, g))
    ss = np.linspace(*g.support, 401)
    for part, bound in (("slope", 1e-10), ("second", 1e-7)):
        want = getattr(g, part)(ss)
        assert np.max(np.abs(getattr(rec, part)(ss) - want)) < bound * np.max(np.abs(want))


def test_a_riccati_start_outside_its_span_is_rejected():
    h = expr.parse("1")
    for x0, span in ((2.0, (0.0, 1.0)), (0.5, (1.0, 0.0))):
        with pytest.raises(ValueError, match="support must be an interval containing x0"):
            rc.integrate_riccati(h, 0.0, x0, span)


class _NanSecondDerivative:
    """A Riccati solution whose second derivative reads NaN at one query point."""

    def __init__(self, curve):
        self.support = curve.support
        self.value = curve.value
        self.d1 = curve.d1
        self._d2 = curve.d2

    def d2(self, t):
        out = np.array(self._d2(t), dtype=float)
        out.flat[out.size // 2] = np.nan
        return out


def test_nan_in_the_induced_geodesic_residual_fails_the_riccati_check():
    h = expr.parse("x^2")
    spec = make_spec("ads+", "x^2")
    theta = rc.integrate_riccati(h, 2.0, 0.0, (0.0, 0.8), tol=1e-12)
    report = rc.riccati_solution_is_geodesic(spec, theta, "real")
    assert np.max(report.geodesic) <= report.tolerance
    report = rc.riccati_solution_is_geodesic(spec, _NanSecondDerivative(theta), "real")
    assert np.isnan(np.max(report.geodesic)) and not np.max(report.geodesic) <= report.tolerance


def test_a_basis_and_its_solutions_are_freed_without_the_cycle_collector(harmonic_basis):
    """Every solve builds a basis; one that only the cycle collector can free
    piles up between collections and raises the peak memory of a run."""
    import gc
    import weakref

    spec, g, _ = harmonic_basis
    gc.disable()
    try:
        basis = rc.reconstruct_basis(spec, g)
        solutions = [basis.u_top, basis.u_bot, basis.combination(0.5, 0.5)]
        assert all(np.isfinite(u.value(1.0)) for u in solutions)
        ref = weakref.ref(basis)
        del basis, solutions
        assert ref() is None
    finally:
        gc.enable()


def _tracked_sqrt_by_loop(radicands, base_index):
    """Reference continuation, one node at a time: each node takes the root
    nearer its neighbour's toward the base (+p on a tie)."""
    p = np.sqrt(np.asarray(radicands, dtype=complex))
    w = np.empty(len(p), dtype=complex)
    w[base_index] = p[base_index]

    def step(prev, cand):
        return cand if abs(cand - prev) <= abs(-cand - prev) else -cand

    for i in range(base_index + 1, len(p)):
        w[i] = step(w[i - 1], p[i])
    for i in range(base_index - 1, -1, -1):
        w[i] = step(w[i + 1], p[i])
    return w


_PARTS = st.one_of(st.floats(-4.0, 4.0), st.floats(-1e-6, 1e-6),
                   st.sampled_from([0.0, -0.0, 1.0, -1.0]))
_RADICAND = st.builds(complex, _PARTS, _PARTS)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_RADICAND, st.booleans(), st.integers(1, 3)), min_size=1,
                max_size=30),
       st.data())
def test_tracked_sqrt_equals_the_node_by_node_loop(runs, data):
    """Values bit for bit over radicands with exact zeros, repeated values
    (runs) and sign flips, from any base node."""
    radicands = np.array([-r if flip else r for r, flip, count in runs for _ in range(count)])
    ts = np.cumsum(np.full(len(radicands), 0.25)) - 1.0
    base_index = data.draw(st.integers(0, len(radicands) - 1))
    tracked = rc._TrackedSqrt(ts, radicands, base_index)
    assert tracked.values.tobytes() == _tracked_sqrt_by_loop(radicands, base_index).tobytes()
