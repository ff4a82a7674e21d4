"""Metric families, Christoffel symbols, curvature identities."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import COMPLEX_POOL, REAL_POOL, make_spec
from geodesy import geometry as geo
from geodesy.errors import OutOfDomainError, SingularMetricError
from geodesy.geometry import Family, christoffel_at, curvature_at, metric_at


def test_metric_hyperbolic_flat_point():
    spec = make_spec("hyperbolic", "0*x")
    m = metric_at(spec, (0.0, 1.0))
    assert np.allclose(m.components, np.eye(2))
    assert m.signature == "(+,+)"


def test_metric_ads_plus_flat_point():
    spec = make_spec("ads+", "0*x")
    m = metric_at(spec, (0.0, 1.0))
    assert np.allclose(m.components, np.diag([-1.0, 1.0]))


def test_metric_ads_minus_is_negated():
    spec_p = make_spec("ads+", "x^2+2")
    spec_m = make_spec("ads-", "x^2+2")
    p = (0.3, 1.4)
    assert np.allclose(metric_at(spec_p, p).components,
                       -metric_at(spec_m, p).components)


def test_kn_metric_real_axis_embeds_hyperbolic_block():
    spec_kn = make_spec("kn", "z^2+1")
    spec_h = make_spec("hyperbolic", "x^2+1")
    x, phi = 0.4, 1.1
    m_kn = metric_at(spec_kn, (x, phi, 0.0, 0.0)).components
    m_h = metric_at(spec_h, (x, phi)).components
    assert np.allclose(m_kn[np.ix_([0, 1], [0, 1])], m_h, atol=1e-14)
    # the complementary block is the negative (anti-Kahler split)
    assert np.allclose(m_kn[np.ix_([2, 3], [2, 3])], -m_h, atol=1e-14)


def test_kn_metric_real_axis_embeds_ads_block():
    spec_kn = make_spec("kn", "z^2+1")
    spec_a = make_spec("ads+", "x^2+1")
    x, psi = 0.4, 0.9
    m_kn = metric_at(spec_kn, (x, 0.0, 0.0, psi)).components
    m_a = metric_at(spec_a, (x, psi)).components
    assert np.allclose(m_kn[np.ix_([0, 3], [0, 3])], m_a, atol=1e-14)


def test_kn_signature_split():
    spec = make_spec("kn", "z^2+1")
    eigs = np.linalg.eigvalsh(metric_at(spec, (0.4, 1.1, -0.3, 0.7)).components)
    assert np.sum(eigs < 0) == 2 and np.sum(eigs > 0) == 2


def test_christoffel_phi_phi_phi_closed_form():
    """Gamma^Phi_PhiPhi = -1/Phi regardless of h."""
    for h in REAL_POOL:
        spec = make_spec("hyperbolic", h)
        gam = christoffel_at(spec, (0.3, 2.0)).symbols
        assert gam[1, 1, 1] == pytest.approx(-0.5, abs=1e-14)


def test_christoffel_ads_mixed_vanishes_on_balance():
    # numerator Psi^2 - h = 0 at Psi = 1, h = 1
    spec = make_spec("ads+", "1")
    gam = christoffel_at(spec, (0.0, 1.0)).symbols
    assert gam[0, 0, 1] == 0.0


@pytest.mark.parametrize("family, h, point", [
    ("hyperbolic", "sin(x)+3", (0.7, 1.3)),
    ("ads+", "x^2+2", (0.3, 1.4)),
    ("ads-", "-1", (0.2, 2.2)),
    ("complex", "z^2", (1.0 + 0.0j, 2.0j)),
    ("complex", "exp(z)", (0.4 + 0.3j, 1.5 - 0.5j)),
    ("kn", "z^2+1", (0.4, 1.1, -0.3, 0.7)),
])
def test_christoffel_closed_form_matches_jets(family, h, point):
    spec = make_spec(family, h)
    closed = christoffel_at(spec, point, "closed_form").symbols
    jets = christoffel_at(spec, point, "from_jets").symbols
    scale = max(1.0, float(np.max(np.abs(closed))))
    assert np.max(np.abs(closed - jets)) / scale < 1e-9


def test_christoffel_lower_index_symmetry():
    spec = make_spec("kn", "exp(z)")
    gam = christoffel_at(spec, (0.2, 0.8, 0.1, -0.6), "from_jets").symbols
    assert np.max(np.abs(gam - np.transpose(gam, (0, 2, 1)))) < 1e-12


def test_ads_signs_share_christoffels():
    spec_p = make_spec("ads+", "sin(x)+3")
    spec_m = make_spec("ads-", "sin(x)+3")
    p = (0.5, 1.7)
    assert np.array_equal(christoffel_at(spec_p, p).symbols,
                          christoffel_at(spec_m, p).symbols)


def test_curvature_point_examples():
    rep = curvature_at(make_spec("hyperbolic", "sin(x)+3"), (0.7, 1.3))
    assert abs(rep.sectional_k + 1.0) < 1e-7
    rep = curvature_at(make_spec("ads-", "x^2+2"), (0.4, 1.2))
    assert abs(rep.sectional_k - 1.0) < 1e-7
    rep = curvature_at(make_spec("kn", "z^2+1"), (0.4, 1.1, -0.3, 0.7))
    assert abs(rep.ricci_scalar + 8.0) < 1e-6


@pytest.mark.parametrize("family, expected_k", [
    ("hyperbolic", -1.0), ("ads+", -1.0), ("ads-", 1.0),
])
def test_real_family_curvature_sweeps(family, expected_k):
    """Constant sectional curvature and Ricci = K g over the h pool."""
    rng = np.random.default_rng(7)
    for h in REAL_POOL:
        spec = make_spec(family, h)
        for p in geo.sample_domain_points(spec, rng, 30):
            rep = curvature_at(spec, p)
            g = metric_at(spec, p).components
            assert abs(rep.sectional_k - expected_k) < 1e-6
            assert np.max(np.abs(rep.ricci - expected_k * g)) < 1e-6


def test_complex_family_holomorphic_curvature_sweep():
    rng = np.random.default_rng(8)
    for h in COMPLEX_POOL:
        spec = make_spec("complex", h)
        for p in geo.sample_domain_points(spec, rng, 30):
            rep = curvature_at(spec, p)
            assert abs(rep.sectional_k + 1.0) < 1e-6
            g = metric_at(spec, p).components
            assert np.max(np.abs(rep.ricci + g)) < 1e-6


def test_kn_einstein_sweep():
    rng = np.random.default_rng(9)
    for h in COMPLEX_POOL:
        spec = make_spec("kn", h)
        for p in geo.sample_domain_points(spec, rng, 30):
            rep = curvature_at(spec, p)
            assert abs(rep.einstein_eta + 2.0) < 1e-6
            assert rep.einstein_fit_residual < 1e-6
            assert abs(rep.ricci_scalar + 8.0) < 1e-6
            g = metric_at(spec, p).components
            assert np.max(np.abs(rep.ricci + 2.0 * g)) < 1e-6


def test_curvature_report_internal_consistency():
    spec = make_spec("hyperbolic", "exp(x)")
    p = (0.2, 1.9)
    rep = curvature_at(spec, p)
    ginv = np.linalg.inv(metric_at(spec, p).components)
    assert rep.ricci_scalar == pytest.approx(np.einsum("ij,ij->", ginv, rep.ricci),
                                             rel=1e-12)


def test_kn_sectional_curvature_is_not_constant():
    """Two planes whose sectional curvatures differ by a solid margin."""
    spec = make_spec("kn", "z^2+1")
    p = (0.4, 1.1, -0.3, 0.7)
    k1 = geo.plane_sectional_curvature(spec, p, (1, 0, 0, 0), (0, 1, 0, 0))
    k2 = geo.plane_sectional_curvature(spec, p, (0, 0, 1, 0), (0, 1, 0, 0.3))
    assert abs(k1 - k2) >= 0.1


@pytest.mark.parametrize("family, point, fragment", [
    ("hyperbolic", (0.0, -1.0), "> 0"),
    ("hyperbolic", (0.0, 2.0), "Phi^2 != h"),   # h = 4 at x = 0
    ("ads+", (0.0, 1.0), "Psi^2 != -h"),        # h = -1
    ("complex", (0.0j, 0.0j), "X != 0"),
    ("complex", (0.0j, 1.0 + 0.0j), "X^2 != h"),
    ("kn", (0.0, 0.0, 0.0, 0.0), "Phi + i*Psi != 0"),
    ("kn", (0.0, 1.0, 0.0, 0.0), "(Phi + i*Psi)^2"),
])
def test_domain_violations(family, point, fragment):
    h_by_family = {"hyperbolic": "4+0*x", "ads+": "-1", "complex": "1+0*z",
                   "kn": "1+0*z"}
    spec = make_spec(family, h_by_family[family])
    assert fragment in geo.domain_violation(spec, point)
    with pytest.raises(OutOfDomainError):
        metric_at(spec, point)


def test_domain_interior_accepts():
    spec = make_spec("hyperbolic", "sin(x)+3")
    assert geo.domain_violation(spec, (0.7, 1.3)) is None


def test_singular_metric_rejected():
    with pytest.raises(SingularMetricError):
        geo._invert_metric(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_spec_mode_validation():
    import geodesy.expr as expr
    with pytest.raises(ValueError):
        geo.GeometrySpec(Family.HYPERBOLIC, expr.parse("z", "complex"))
    with pytest.raises(ValueError):
        geo.GeometrySpec(Family.KAHLER_NORDEN, expr.parse("x", "real"))


def test_family_aliases():
    assert Family.from_name("ads") is Family.ADS_PLUS
    assert Family.from_name("kahler-norden") is Family.KAHLER_NORDEN
    with pytest.raises(ValueError):
        Family.from_name("euclidean")


def test_sampling_respects_domain():
    rng = np.random.default_rng(3)
    for family in ("hyperbolic", "ads+", "complex", "kn"):
        h = "z^2+1" if family in ("complex", "kn") else "x^2+1"
        spec = make_spec(family, h)
        pts = geo.sample_domain_points(spec, rng, 25)
        assert len(pts) == 25
        for p in pts:
            assert geo.domain_violation(spec, p) is None


def test_sampling_rejects_draws_where_h_is_undefined():
    """Each (x, Phi) draw is kept iff h(x) is defined and |Phi^2 - h| > 0.05;
    a rejected draw uses the same random numbers as a kept one."""
    spec = make_spec("hyperbolic", "sqrt(x)")
    pts = geo.sample_domain_points(spec, np.random.default_rng(4), 12)
    rng = np.random.default_rng(4)
    expected = []
    while len(expected) < 12:
        x, phi = rng.uniform(-2.0, 2.0), rng.uniform(0.2, 3.0)
        if x > 0 and abs(phi * phi - math.sqrt(x)) > 0.05:
            expected.append((x, phi))
    assert np.array_equal(pts, np.array(expected))


def test_sampling_gives_up_with_out_of_domain_error():
    spec = make_spec("hyperbolic", "log(x-10)")  # undefined on the whole draw range
    with pytest.raises(OutOfDomainError):
        geo.sample_domain_points(spec, np.random.default_rng(5), 3)


_FAMILY_POOLS = {"hyperbolic": ["sin(x)+3", "x^2+2", "-1", "exp(x)", "x^3-x"],
                 "ads+": ["sin(x)+3", "x^2+2", "-1", "exp(x)", "x^3-x"],
                 "ads-": ["sin(x)+3", "x^2+2", "-1", "exp(x)", "x^3-x"],
                 "complex": ["z^2+1", "exp(z)", "z", "sin(z)"]}


@pytest.mark.parametrize("family", sorted(_FAMILY_POOLS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_closed_form_and_jet_christoffels_agree(family, data):
    h = data.draw(st.sampled_from(_FAMILY_POOLS[family]))
    spec = make_spec(family, h)
    coord = st.floats(-2.0, 2.0)
    if family == "complex":
        point = (complex(data.draw(coord), data.draw(coord)) / 2,
                 complex(data.draw(coord), data.draw(coord)))
        assume(abs(point[1]) > 0.3)
    else:
        point = (data.draw(coord), data.draw(st.floats(0.2, 3.0)))
    assume(geo.domain_violation(spec, point, guard=0.05) is None)
    closed = christoffel_at(spec, point, "closed_form").symbols
    jets = christoffel_at(spec, point, "from_jets").symbols
    scale = max(1.0, float(np.max(np.abs(closed))))
    assert np.max(np.abs(closed - jets)) <= 1e-9 * scale


def test_singular_test_is_scale_free():
    """|det| of the row-equilibrated metric decides, whatever the scale."""
    geo._invert_metric(np.diag([1e250, 1.0]))
    geo._invert_metric(np.array([[2.0, 1.0], [1.0, 3.0]]) * 1e250)
    with pytest.raises(SingularMetricError):
        geo._invert_metric(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]) * 1e200)
    # one singular metric in a stack is enough
    with pytest.raises(SingularMetricError):
        geo._invert_metric(np.array([np.eye(2), [[1.0, 1.0], [1.0, 1.0]], np.eye(2)]))


def test_curvature_of_a_metric_near_1e260():
    """h = exp(150 x) at x = 2: g_xx is about 1e260, K is still -1."""
    spec = make_spec("hyperbolic", "exp(150*x)")
    p = (2.0, 1.3)
    assert np.max(np.abs(metric_at(spec, p).components)) > 1e259
    assert abs(curvature_at(spec, p).sectional_k + 1.0) < 1e-12


def test_a_batch_with_one_point_outside_raises_naming_it():
    spec = make_spec("hyperbolic", "4+0*x")  # den = 0 at Phi = 2
    pts = np.array([[0.1, 1.0], [0.2, 1.5], [0.0, 2.0], [0.3, -1.0]])
    for call in (curvature_at, metric_at):
        with pytest.raises(OutOfDomainError,
                           match=r"^point \(0\.0, 2\.0\) violates Phi\^2 != h\(x\) "
                                 r"for hyperbolic$"):
            call(spec, pts)
    with pytest.raises(OutOfDomainError, match=r"point \(0\.3, -1\.0\) violates Phi > 0"):
        curvature_at(spec, pts[[0, 1, 3]])


_BATCH_POOLS = {**_FAMILY_POOLS, "kn": ["z^2+1", "exp(z)", "z", "sin(z)"]}


def _draw_point(data, family: str) -> tuple:
    coord = st.floats(-2.0, 2.0)
    if family == "kn":
        x, y = data.draw(coord) / 2, data.draw(coord) / 2
        return (x, data.draw(coord), y, data.draw(coord))  # (x, Phi, y, Psi)
    if family == "complex":
        return (complex(data.draw(coord), data.draw(coord)) / 2,
                complex(data.draw(coord), data.draw(coord)))
    return (data.draw(coord), data.draw(st.floats(0.2, 3.0)))


def _well_inside(spec, p) -> bool:
    """The sampling rule: |den| > 0.05, and |v| > 0.3 on complex pairs."""
    _, v = geo.chart_pair(spec, p)
    return (geo.domain_violation(spec, p, guard=0.05) is None
            and (not isinstance(v, complex) or abs(v) > 0.3))


@pytest.mark.parametrize("family", sorted(_BATCH_POOLS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_batched_curvature_equals_one_point_calls(family, data):
    """One array call over the points equals the one-point calls entry by
    entry, meets the family's constant at every point, and its jet symbols
    equal the closed-form table point by point."""
    spec = make_spec(family, data.draw(st.sampled_from(_BATCH_POOLS[family])))
    drawn = [_draw_point(data, family) for _ in range(data.draw(st.integers(1, 8)))]
    pts = [p for p in drawn if _well_inside(spec, p)]
    assume(pts)
    pts = np.array(pts)
    batch = curvature_at(spec, pts)
    fields = (("sectional_k", "ricci", "ricci_scalar") if spec.dim == 2
              else ("einstein_eta", "einstein_fit_residual", "ricci", "ricci_scalar"))
    for i, p in enumerate(pts):
        one = curvature_at(spec, p)
        for name in fields:
            want = np.asarray(getattr(one, name))
            got = np.asarray(getattr(batch, name))[i]
            assert np.all(np.abs(got - want) <= 1e-12 * max(1.0, np.max(np.abs(want)))), name
    constant = batch.sectional_k if spec.dim == 2 else batch.einstein_eta
    assert np.all(np.abs(constant - geo.FAMILY_FACTS[spec.family].expected) < 1e-6)
    jets = christoffel_at(spec, pts, "from_jets").symbols
    for p, jet in zip(pts, jets):
        closed = christoffel_at(spec, p, "closed_form").symbols
        scale = max(1.0, float(np.max(np.abs(closed))))
        assert np.max(np.abs(closed - jet)) <= 1e-9 * scale


def test_one_point_curvature_equals_its_batch_entry_bit_for_bit():
    """A single point evaluates h as a batch does: at this kn point the metric
    is ill-conditioned, and one ulp of difference in h grew to 3e-12 in eta."""
    spec = make_spec("kn", "z^2+1")
    p = np.array([1.3627526066260502 / 2, 1.125, 0.22287379823421682 / 2, 0.0])
    one, batch = curvature_at(spec, p), curvature_at(spec, p[None])
    assert one.einstein_eta == batch.einstein_eta[0]
    assert np.array_equal(one.ricci, batch.ricci[0])
    assert np.array_equal(metric_at(spec, p).components, metric_at(spec, p[None]).components[0])
