"""CLI contract: exit codes, JSON reports, determinism, CSV, scenario pools."""

import configparser
import csv
import dataclasses
import json
import math
from importlib import resources

import numpy as np
import pytest

from geodesy import cli, reconstruct as rc


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_curvature_pass_exit_zero(capsys):
    code, out, err = run_cli(capsys, "curvature", "--family", "hyperbolic",
                             "--h", "sin(x)+3", "--set", "points=15")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert {c["name"] for c in report["checks"]} == {"sectional_k",
                                                     "ricci_proportional"}


def test_syntax_error_exit_two_with_payload(capsys):
    code, out, _ = run_cli(capsys, "curvature", "--family", "hyperbolic",
                           "--h", "2*")
    assert code == 2
    payload = json.loads(out)
    assert payload["error"]["type"] == "ParseError"
    assert payload["error"]["position"] == 2


def test_unknown_family_exit_two(capsys):
    code, out, _ = run_cli(capsys, "curvature", "--family", "euclidean",
                           "--h", "1")
    assert code == 2
    assert "error" in json.loads(out)


def test_missing_scenario_key_exit_two(capsys):
    code, out, _ = run_cli(capsys, "solve", "--family", "hyperbolic",
                           "--h", "-1")
    assert code == 2


def test_check_failure_exit_one(capsys):
    # the non-geodesic constant curve fails the ode_residual check
    code, out, _ = run_cli(capsys, "solve", "--family", "hyperbolic",
                           "--h", "-1", "--set", "curve=constant:2",
                           "--set", "span=0,1")
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False
    failed = {c["name"] for c in report["checks"] if not c["pass"]}
    assert "ode_residual" in failed


def test_a_rounding_remainder_last_step_fails_a_check_instead_of_raising(capsys):
    """The run over this span ends with a step 3.5e-18 wide (the remainder of
    64 steps of max_step). The refined grid drops the points that collapse
    onto its end node, so the inversion builds its curve and the report
    names the failing checks (the short step spoils the dense output's
    second derivative there) instead of a bare ValueError."""
    code, out, _ = run_cli(capsys, "solve", "--family", "hyperbolic", "--h", "4",
                           "--set", "value0=2.5", "--set", "slope0=0",
                           "--set", "span=0,0.011909547738693467")
    assert code == 1
    report = json.loads(out)
    assert "error" not in report
    failed = {c["name"] for c in report["checks"] if not c["pass"]}
    assert "ode_residual" in failed


def test_reports_are_deterministic(capsys):
    argv = ("curvature", "--family", "kn", "--h", "z^2+1",
            "--set", "points=10", "--seed", "7")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("wall_time_s"), r2.pop("wall_time_s")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_pretty_writes_table_to_stderr(capsys):
    code, out, err = run_cli(capsys, "curvature", "--family", "hyperbolic",
                             "--h", "-1", "--set", "points=5", "--pretty")
    assert code == 0
    assert "sectional_k" in err
    json.loads(out)  # stdout stays pure JSON


def test_csv_export(tmp_path, capsys):
    path = tmp_path / "table.csv"
    code, *_ = run_cli(capsys, "solve", "--family", "ads", "--h", "1",
                       "--set", "value0=1", "--set", "span=0,3",
                       "--tol", "1e-8", "--csv", str(path))
    assert code == 0
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 101
    assert {"param", "u_re", "u_im", "ode_residual"} <= set(rows[0])


def test_the_geodesic_table_has_a_termination_column(tmp_path, capsys):
    path = tmp_path / "table.csv"
    code, *_ = run_cli(capsys, "geodesic", "--family", "hyperbolic", "--h", "x",
                       "--set", "coords=0,2", "--set", "velocity=1,0.3",
                       "--set", "span=0,1", "--csv", str(path))
    assert code == 0
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == cli.GRID_POINTS
    assert list(rows[0]) == ["s", "x", "Phi", "dx", "dPhi", "termination"]
    # every row is a sample, each with the run's termination
    assert all(float(row["s"]) >= 0 for row in rows)
    assert {row["termination"] for row in rows} == {"range_end"}


def test_complex_csv_cells_parse_back_bit_for_bit(tmp_path, capsys):
    """Every complex cell reads back through complex(), also with a negative
    imaginary part, and gives the table's own number."""
    path = tmp_path / "table.csv"
    code, *_ = run_cli(capsys, "curvature", "--family", "complex", "--h", "z^2+1",
                       "--set", "points=20", "--csv", str(path))
    assert code == 0
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    _, table = cli.run_curvature(cli.Scenario({"family": "complex", "h": "z^2+1",
                                               "points": "20"}))
    assert list(rows[0]) == list(table) and len(rows) == 20
    negative = 0
    for name, column in table.items():
        cells = np.array([complex(row[name]) for row in rows])
        assert cells.tobytes() == np.asarray(column, dtype=complex).tobytes(), name
        negative += int(np.sum(cells.imag < 0))
    assert negative > 0


def test_the_solve_table_has_a_termination_column(tmp_path, capsys):
    """An Airy chart ends at the onset of escape, inside the requested span,
    and the table says so on every row."""
    path = tmp_path / "table.csv"
    code, *_ = run_cli(capsys, "solve", "--family", "hyperbolic", "--h", "x",
                       "--set", "value0=2", "--set", "slope0=0.3",
                       "--set", "span=-0.5,1.5", "--csv", str(path))
    assert code == 0
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == cli.GRID_POINTS and list(rows[0])[-1] == "termination"
    assert {row["termination"] for row in rows} == {"domain_boundary"}
    assert float(rows[-1]["param"]) < 1.5


def test_a_check_reduces_its_deviations_once_and_fails_on_a_nan():
    """The samples are the last axis; np.max over every entry keeps a NaN."""
    deviations = np.random.default_rng(4).random((3, 9)) * 1e-7
    check = cli._check("probe", deviations, 1e-6)
    assert check["points"] == 9 and check["pass"] is True
    assert check["max_deviation"] == np.max(deviations)
    for k, n in ((0, 0), (1, 4), (2, 8)):
        bad = deviations.copy()
        bad[k, n] = np.nan
        check = cli._check("probe", bad, 1e-6)
        assert math.isnan(check["max_deviation"]) and check["pass"] is False
        assert check["points"] == 9


def test_geodesic_command_kn(capsys):
    code, out, _ = run_cli(capsys, "geodesic", "--family", "kn",
                           "--h", "z^2+1",
                           "--set", "coords=0,1.6,0,0.4",
                           "--set", "velocity=1,0.2,0.5,-0.1",
                           "--set", "span=0,0.6")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_riccati_command(capsys):
    code, out, _ = run_cli(capsys, "riccati", "--set", "mode=real",
                           "--h", "x^2", "--set", "theta0=2",
                           "--set", "span=0,0.8")
    assert code == 0
    report = json.loads(out)
    names = {c["name"] for c in report["checks"]}
    assert names == {"riccati_residual", "induced_geodesic_residual"}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_riccati_through_the_ads_boundary_fails_closed_without_warnings(capsys):
    """Theta = -2 tan 2x is 0 at x = 0, where the induced curve Psi = Theta meets
    the ads boundary v = 0: the deviation there is NaN, so the check fails,
    and no numpy RuntimeWarning reaches stderr."""
    code, out, err = run_cli(capsys, "riccati", "--h", "4", "--set", "theta0=0",
                             "--set", "span=0,0.7")
    assert code == 1 and err == ""
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["riccati_residual"]["pass"] is True
    assert checks["induced_geodesic_residual"]["max_deviation"] == "nan"
    assert checks["induced_geodesic_residual"]["pass"] is False


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_riccati_residual_fails_as_a_check(capsys):
    """Theta = -2 tan 2x has a pole at pi/4: the run ends near it, where the
    dense output misses the Riccati equation. The residual is reported and
    fails its check (exit 1), not raised as invalid input."""
    code, out, err = run_cli(capsys, "riccati", "--h", "4", "--set", "theta0=0",
                             "--set", "span=0,0.8")
    assert code == 1 and err == ""
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["riccati_residual"]["points"] == 257
    assert checks["riccati_residual"]["max_deviation"] > 1e-2
    assert checks["riccati_residual"]["pass"] is False
    assert checks["induced_geodesic_residual"]["max_deviation"] == "nan"
    assert checks["induced_geodesic_residual"]["pass"] is False


def test_a_riccati_start_outside_its_span_names_the_fault(capsys):
    code, out, _ = run_cli(capsys, "riccati", "--h", "1", "--set", "theta0=0",
                           "--set", "span=0,1", "--set", "x0=2")
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "ValueError", "message": "support must be an interval containing x0"}


def test_scenario_file_round_trip(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("[scenario]\nfamily = ads-\nh = x^2+2\npoints = 8\nseed = 3\n")
    code, out, _ = run_cli(capsys, "curvature", "--scenario", str(cfg))
    assert code == 0
    assert json.loads(out)["scenario"]["family"] == "ads-"


def test_verify_all_empty_pool_exit_two(tmp_path, capsys):
    pool = tmp_path / "empty.cfg"
    pool.write_text("# nothing here\n")
    code, out, _ = run_cli(capsys, "verify-all", "--scenario", str(pool))
    assert code == 2
    assert "empty" in json.loads(out)["error"]["message"]


def test_verify_all_small_pool_with_expected_fail(tmp_path, capsys):
    pool = tmp_path / "pool.cfg"
    pool.write_text(
        "[ok-case]\n"
        "kind = curvature\nfamily = hyperbolic\nh = -1\npoints = 5\n"
        "[control]\n"
        "kind = solve\nfamily = hyperbolic\nh = -1\n"
        "curve = constant:2\nspan = 0,1\nexpect = fail\n")
    code, out, _ = run_cli(capsys, "verify-all", "--scenario", str(pool))
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    control = [s for s in report["scenarios"] if s["name"] == "control"][0]
    assert control["pass"] is False and control["expected_fail"] is True


def test_verify_all_unexpected_failure_exit_one(tmp_path, capsys):
    pool = tmp_path / "pool.cfg"
    pool.write_text(
        "[control-not-marked]\n"
        "kind = solve\nfamily = hyperbolic\nh = -1\n"
        "curve = constant:2\nspan = 0,1\n")
    code, out, _ = run_cli(capsys, "verify-all", "--scenario", str(pool))
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_complex_solve_against_brute_force_rk(capsys):
    """u from the CLI complex solve equals a doubled-real RK integration of
    u'' + h u = 0 along the same straight path."""
    import numpy as np
    from scipy.integrate import solve_ivp

    code, out, _ = run_cli(capsys, "solve", "--family", "complex",
                           "--h", "z", "--set", "path=0,0;1,1",
                           "--set", "value0=0,1.5", "--set", "slope0=0.2,0",
                           "--csv", "/dev/null")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True

    # reproduce u_top by brute force: state (u, u') along zeta(s) = (1+i) s
    from geodesy import expr, geodesics, reconstruct
    from conftest import make_spec
    spec = make_spec("complex", "z")
    path = geodesics.ComplexPath.polyline([0, 1 + 1j])
    g = geodesics.integrate_explicit(spec, 0, 1.5j, 0.2, path=path, tol=1e-12)
    basis = reconstruct.reconstruct_basis(spec, g)
    vel = 1 + 1j
    theta0 = basis.theta.top(0.0)

    # state (u, w = du/dz) marched in the path parameter as a real 4-system
    def rhs(s, y):
        u = complex(y[0], y[1])
        w = complex(y[2], y[3])
        du_ds = w * vel
        dw_ds = -path.point(s) * u * vel
        return [du_ds.real, du_ds.imag, dw_ds.real, dw_ds.imag]

    sol = solve_ivp(rhs, (0, 1), [1.0, 0.0, theta0.real, theta0.imag],
                    rtol=1e-12, atol=1e-14, dense_output=True)
    dev = 0.0
    for s in np.linspace(0, 1, 21):
        ref = complex(sol.sol(s)[0], sol.sol(s)[1])
        dev = max(dev, abs(basis.u_top.value(s) - ref))
    assert dev < 1e-6


@pytest.mark.parametrize("argv, field, check", [
    (("curvature", "--family", "hyperbolic", "--h", "sin(x)+3"), "sectional_k", "sectional_k"),
    (("curvature", "--family", "kn", "--h", "z^2+1"), "einstein_eta", "einstein_eta"),
    (("kn-verify", "--h", "z^2+1"), "einstein_eta", "einstein_eta"),
])
def test_a_nan_deviation_fails_its_check(capsys, monkeypatch, argv, field, check):
    """One NaN among the sampled points must fail the check, not vanish in a max."""
    original = cli.curvature_at

    def nan_at_third_point(spec, pts):
        rep = original(spec, pts)  # one call for every point of the case
        values = getattr(rep, field).copy()
        values[2] = math.nan
        return dataclasses.replace(rep, **{field: values})

    monkeypatch.setattr(cli, "curvature_at", nan_at_third_point)
    code, out, _ = run_cli(capsys, *argv, "--set", "points=6")
    assert code == 1
    failed = {c["name"]: c for c in json.loads(out)["checks"] if not c["pass"]}
    assert check in failed and failed[check]["max_deviation"] == "nan"


@pytest.mark.parametrize("h", ["log(x)", "sqrt(x)"])
def test_curvature_with_a_restricted_domain_h_passes(capsys, h):
    code, out, _ = run_cli(capsys, "curvature", "--family", "hyperbolic", "--h", h,
                           "--set", "points=20")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_curvature_on_an_empty_domain_exits_two(capsys):
    code, out, err = run_cli(capsys, "curvature", "--family", "hyperbolic",
                             "--h", "log(x-10)", "--set", "points=3")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "OutOfDomainError"
    assert "Traceback" not in err


SHIPPED_POOL_VERDICTS = {
    "curvature-hyperbolic-sin": True, "curvature-hyperbolic-exp": True,
    "curvature-ads-plus": True, "curvature-ads-minus": True,
    "curvature-complex-sphere": True, "curvature-kahler-norden": True,
    "geodesic-ads-shared": True, "solve-harmonic-oscillator": True,
    "solve-hyperbolic-constant": True, "solve-airy": True, "solve-complex-line": True,
    "riccati-quadratic": True, "riccati-constant": True, "kn-verify-quadratic": True,
    "negative-control-non-geodesic": False,
}


def test_shipped_pool_verifies(capsys):
    """verify-all on the packaged pool: every family end to end."""
    code, out, _ = run_cli(capsys, "verify-all")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert {s["name"]: s["pass"] for s in report["scenarios"]} == SHIPPED_POOL_VERDICTS
    control = [s for s in report["scenarios"] if not s["pass"]]
    assert [s["expected_fail"] for s in control] == [True]


def _shipped_sections(kind):
    parser = configparser.ConfigParser()
    parser.read_string((resources.files("geodesy") / "data" / "default_pool.cfg").read_text())
    for name in parser.sections():
        values = dict(parser.items(name))
        if values.pop("kind") == kind:
            values.pop("expect", None)
            yield pytest.param(values, id=name)


@pytest.mark.parametrize("values", _shipped_sections("solve"))
def test_solve_deviations_equal_separate_queries_of_each_solution(values):
    """run_solve reads one evaluation of the basis; its deviations are exactly
    those that separate queries of each solution give on the same grid."""
    scenario = cli.Scenario(values)
    checks, _ = cli.run_solve(scenario)
    spec = cli._spec_from(scenario)
    g, _ = cli._solve_geodesic(scenario, spec)
    basis = rc.reconstruct_basis(spec, g, check_residual=False)
    grid = np.linspace(*g.support, cli.GRID_POINTS)
    u = basis.combination(scenario.floatval("A", 1.0), scenario.floatval("B", 0.0))

    def sup_residual(f):
        return float(np.max(np.abs(rc.ode_residual(spec.h, f, grid))))

    wr = basis.wronskian(grid)
    sign = -float(spec.facts.sign)
    expected = {
        "ode_residual": sup_residual(u),
        "ode_residual_basis": max(sup_residual(basis.u_top), sup_residual(basis.u_bot)),
        "wronskian_constant": float(np.max(np.abs(wr - wr[0])) / max(abs(wr[0]), 1e-30)),
        "theta_product_identity": float(np.max(np.abs(
            basis.theta.product(grid) - sign * g.value(grid) ** 2))),
    }
    got = {c["name"]: c["max_deviation"] for c in checks if c["name"] in expected}
    assert got == expected


_COMPLEX_START = {"family": "complex", "h": "z", "path": "0,0;0.5,0.2", "slope0": "0.1,0"}


def _complex_solve(value0):
    """The complex run from ``value0`` and the inversion of its basis."""
    scenario = cli.Scenario({**_COMPLEX_START, "value0": value0})
    spec = cli._spec_from(scenario)
    g, _ = cli._solve_geodesic(scenario, spec)
    return g, rc.invert_to_geodesic(rc.reconstruct_basis(spec, g, check_residual=False))


def _complex_solve_cli(capsys, value0):
    argv = [f"--set={key}={val}" for key, val in {**_COMPLEX_START, "value0": value0}.items()]
    code, out, _ = run_cli(capsys, "solve", *argv)
    return code, json.loads(out)


@pytest.mark.parametrize("value0, sign", [("0.5,1.5", 1), ("-0.5,1.5", -1)])
def test_the_complex_round_trip_holds_up_to_the_sign_of_x(capsys, value0, sign):
    """X and -X give one Theta pair on the complex chart: the inversion
    returns -X from a start with Re X < 0, and the round trip passes."""
    g, recovered = _complex_solve(value0)
    grid = np.linspace(*g.support, cli.GRID_POINTS)
    assert np.max(np.abs(recovered.value(grid) - sign * g.value(grid))) < 1e-9
    code, report = _complex_solve_cli(capsys, value0)
    assert code == 0 and report["pass"] is True


@pytest.mark.parametrize("value0", ["0.5,1.5", "-0.5,1.5"])
def test_a_recovered_curve_that_is_neither_x_nor_minus_x_fails(capsys, monkeypatch, value0):
    """The inversion of a run whose start moved by 1e-3 stands in for the real one."""
    moved = cli._complex_scalar(value0) + 1e-3
    _, inverted = _complex_solve(f"{moved.real},{moved.imag}")
    monkeypatch.setattr(rc, "invert_to_geodesic", lambda basis: inverted)
    code, report = _complex_solve_cli(capsys, value0)
    assert code == 1
    assert [c["name"] for c in report["checks"] if not c["pass"]] == ["inversion_round_trip"]


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_a_nan_deviation_is_written_as_strict_json(capsys, monkeypatch):
    """stdout parses under a strict reader: NaN becomes the string "nan"."""
    original = cli.curvature_at

    def nan_everywhere(spec, pts):
        rep = original(spec, pts)
        return dataclasses.replace(rep, sectional_k=np.full_like(rep.sectional_k, math.nan))

    monkeypatch.setattr(cli, "curvature_at", nan_everywhere)
    code, out, _ = run_cli(capsys, "curvature", "--family", "hyperbolic",
                           "--h", "sin(x)+3", "--set", "points=4")
    assert code == 1
    assert "NaN" not in out
    report = json.loads(out, parse_constant=_reject_constant)
    check = {c["name"]: c for c in report["checks"]}["sectional_k"]
    assert check["max_deviation"] == "nan" and check["pass"] is False


def test_a_raising_scenario_does_not_stop_the_pool(tmp_path, capsys):
    pool = tmp_path / "pool.cfg"
    pool.write_text(
        "[raises]\n"
        "kind = curvature\nfamily = hyperbolic\nh = log(x-10)\npoints = 3\n"
        "[after]\n"
        "kind = curvature\nfamily = hyperbolic\nh = -1\npoints = 5\n")
    code, out, err = run_cli(capsys, "verify-all", "--scenario", str(pool), "--pretty")
    assert code == 1
    report = json.loads(out, parse_constant=_reject_constant)
    assert report["pass"] is False
    raised, after = report["scenarios"]
    assert raised["name"] == "raises" and raised["kind"] == "curvature"
    assert raised["pass"] is False
    assert raised["error"].startswith("OutOfDomainError: ")
    assert after["name"] == "after" and after["pass"] is True and "error" not in after
    assert "Traceback" not in err and "ERROR OutOfDomainError" in err


def test_a_raising_negative_control_is_not_a_pass(tmp_path, capsys):
    pool = tmp_path / "pool.cfg"
    pool.write_text(
        "[control]\n"
        "kind = curvature\nfamily = hyperbolic\nh = log(x-10)\npoints = 3\n"
        "expect = fail\n")
    code, out, _ = run_cli(capsys, "verify-all", "--scenario", str(pool))
    assert code == 1
    [control] = json.loads(out)["scenarios"]
    assert control["expected_fail"] is True and control["pass"] is False
    assert "error" in control


def _without_wall_time(obj):
    if isinstance(obj, dict):
        return {k: _without_wall_time(v) for k, v in obj.items() if k != "wall_time_s"}
    if isinstance(obj, list):
        return [_without_wall_time(v) for v in obj]
    return obj


def test_verify_all_is_deterministic_within_one_process(capsys):
    """Two runs of the shipped pool in one process give the same report up
    to wall_time_s: nothing depends on call order or leftover state."""
    first = run_cli(capsys, "verify-all")
    second = run_cli(capsys, "verify-all")
    assert first[0] == second[0] == 0
    assert (_without_wall_time(json.loads(first[1]))
            == _without_wall_time(json.loads(second[1])))


def test_curvature_of_exp_150x_passes(capsys):
    """Metric entries up to about 1e260: no false singular metric, and the
    Ricci check relative to the metric's size."""
    code, out, _ = run_cli(capsys, "curvature", "--family", "hyperbolic",
                           "--h", "exp(150*x)", "--set", "points=40")
    assert code == 0
    assert json.loads(out)["pass"] is True


@pytest.mark.parametrize("h, point", [("x^2+2", (0.0, 1.5)),
                                      ("exp(150*x)", (1.535, 1.0))])
def test_ricci_proportional_is_relative_to_the_metric(capsys, monkeypatch, h, point):
    """Ric off by 1e-5 g fails at a point with |g| < 1 and at one with
    |g| near 1e200; the exact Ricci tensor passes at both."""
    from conftest import make_spec
    from geodesy.geometry import metric_at
    size = np.max(np.abs(metric_at(make_spec("hyperbolic", h), point).components))
    assert size < 1 or 1e199 < size < 1e201
    monkeypatch.setattr(cli, "sample_domain_points", lambda spec, rng, count: np.array([point] * 3))
    argv = ("curvature", "--family", "hyperbolic", "--h", h, "--set", "points=3")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    original = cli.curvature_at

    def off_by_1e5_g(spec, pts):
        rep = original(spec, pts)
        return dataclasses.replace(rep, ricci=rep.ricci + 1e-5 * rep.metric)

    monkeypatch.setattr(cli, "curvature_at", off_by_1e5_g)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert [c["name"] for c in json.loads(out)["checks"] if not c["pass"]] == ["ricci_proportional"]


def _fresh_interpreter(*args: str):
    """Run ``python args...`` in a new process that imports this checkout's geodesy."""
    import os
    import subprocess
    import sys

    import geodesy
    src = os.path.dirname(os.path.dirname(os.path.abspath(geodesy.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def test_curvature_command_loads_no_scipy():
    """Importing geodesy and running the curvature command of every family
    leaves scipy unloaded, in a fresh interpreter."""
    program = (
        "import json, sys\n"
        "import geodesy\n"
        "from geodesy import cli\n"
        "codes = [cli.main(['curvature', '--family', f, '--h', h, '--set', 'points=5'])\n"
        "         for f, h in [('hyperbolic', 'sin(x)+3'), ('ads+', 'x^2+2'), ('ads-', '-1'),\n"
        "                      ('complex', 'z^2+1'), ('kn', 'exp(z)')]]\n"
        "print(json.dumps({'codes': codes, 'scipy': sorted(\n"
        "    m for m in sys.modules if m.split('.')[0] == 'scipy')}))\n")
    done = _fresh_interpreter("-c", program)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result == {"codes": [0, 0, 0, 0, 0], "scipy": []}


def test_setting_up_the_shipped_solve_scenarios_loads_no_scipy():
    """Importing geodesy and building a ``cli.Scenario`` of every ``solve``
    section of the shipped pool, as a benchmark's set-up does before it runs
    a case, leaves scipy unloaded, in a fresh interpreter: the solver and
    the dense output import it when they first run."""
    program = (
        "import configparser, json, sys\n"
        "from importlib import resources\n"
        "import geodesy\n"
        "from geodesy import cli\n"
        "pool = configparser.ConfigParser()\n"
        "pool.read_string((resources.files('geodesy') / 'data' / 'default_pool.cfg').read_text())\n"
        "built = [cli.Scenario(dict(pool.items(name))) for name in pool.sections()\n"
        "         if pool.get(name, 'kind') == 'solve']\n"
        "print(json.dumps({'solve': len(built), 'scipy': sorted(\n"
        "    m for m in sys.modules if m.split('.')[0] == 'scipy')}))\n")
    done = _fresh_interpreter("-c", program)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["solve"] > 0 and result["scipy"] == []


def test_python_dash_m_runs_the_cli():
    """``python -m geodesy`` starts the same command line as the console script."""
    done = _fresh_interpreter("-m", "geodesy", "curvature", "--family", "hyperbolic",
                              "--h", "sin(x)+3")
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["command"] == "curvature" and report["pass"]
