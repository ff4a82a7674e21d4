"""Command-line front end: verification sweeps with machine-readable reports.

One JSON document goes to stdout; ``--pretty`` adds a human-readable table on
stderr; ``--csv`` writes the sample/check table to a file. Exit codes: 0 all
checks pass, 1 a check failed (or, in ``verify-all``, a scenario raised), 2
invalid input. Reports are deterministic for a fixed scenario and seed up to
the wall_time_s field. The JSON is strict: a NaN or infinite deviation is
written as the string "nan", "inf" or "-inf".

A runner returns ``(checks, table)``. Each check is made by :func:`_check`
from the deviations of one identity at every sample (the last axis), and the
table is a dict of equal-length columns, one CSV row per entry.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import sys
import time
from importlib import resources

import numpy as np

from . import kahler_norden as kn
from . import reconstruct as rc
from .errors import GeodesyError, ParseError
from .expr import eval_jet2, parse
from .geodesics import (
    ComplexPath,
    ExplicitGeodesic,
    GeodesicState,
    integrate_explicit,
    integrate_geodesic,
)
from .geometry import (
    FAMILY_FACTS,
    Family,
    GeometrySpec,
    curvature_at,
    sample_domain_points,
)

DEFAULT_TOL = 1e-6
GRID_POINTS = 101  # the check and table grid of a geodesic or solve case
RICCATI_ROWS = 51  # the table of a riccati case; its checks have their own grid


def _check(name: str, deviations, tol: float) -> dict:
    """A check over ``deviations``, whose last axis runs over the samples.

    Their largest is taken by np.max, which keeps a NaN (the builtin max drops
    it), so a NaN or inf anywhere fails the check.
    """
    deviations = np.asarray(deviations)
    max_dev, tol = float(np.max(deviations, initial=0.0)), float(tol)
    return {
        "name": name,
        "points": deviations.shape[-1],
        "max_deviation": max_dev,
        "tolerance": tol,
        "pass": max_dev <= tol,
    }


def _complex_scalar(text: str) -> complex:
    if "," in text:
        re_s, im_s = text.split(",")
        return complex(float(re_s), float(im_s))
    return complex(float(text))


def _chart_numbers(text: str, spec: GeometrySpec) -> tuple:
    """"a,b,..." as chart numbers; pairs (re, im) on the complex chart."""
    raw = [float(v) for v in text.split(",")]
    if spec.is_complex_chart:
        return tuple(complex(re, im) for re, im in zip(raw[0::2], raw[1::2]))
    return tuple(raw)


def _span(text: str) -> tuple[float, float]:
    a, b = (float(v) for v in text.split(","))
    return a, b


class Scenario:
    """Flat key-value bag with typed accessors and a deterministic echo."""

    def __init__(self, values: dict):
        self.values = {k: str(v) for k, v in values.items() if v is not None}

    def get(self, key: str, default=None) -> str | None:
        return self.values.get(key, default)

    def require(self, key: str) -> str:
        if key not in self.values:
            raise ValueError(f"scenario is missing required key {key!r}")
        return self.values[key]

    def floatval(self, key: str, default: float | None = None) -> float:
        raw = self.get(key)
        if raw is None:
            if default is None:
                raise ValueError(f"scenario is missing required key {key!r}")
            return default
        return float(raw)

    def intval(self, key: str, default: int) -> int:
        raw = self.get(key)
        return int(raw) if raw is not None else default

    @property
    def tol(self) -> float:
        return self.floatval("tol", DEFAULT_TOL)

    @property
    def seed(self) -> int:
        return self.intval("seed", 20240917)

    def echo(self) -> dict:
        return dict(sorted(self.values.items()))


def _spec_from(scenario: Scenario) -> GeometrySpec:
    family = Family.from_name(scenario.get("family") or "")
    h = parse(scenario.require("h"), FAMILY_FACTS[family].h_mode)
    return GeometrySpec(family, h)


# --- runners -------------------------------------------------------------------

def run_curvature(scenario: Scenario) -> tuple[list[dict], dict]:
    spec = _spec_from(scenario)
    tol = scenario.tol
    rng = np.random.default_rng(scenario.seed)
    pts = sample_domain_points(spec, rng, scenario.intval("points", 100))
    rep = curvature_at(spec, pts)  # one array pass over every point
    expected = spec.facts.expected
    if spec.dim == 4:
        checks = [
            _check("einstein_eta", np.abs(rep.einstein_eta - expected), tol),
            _check("ricci_scalar", np.abs(rep.ricci_scalar - spec.dim * expected), tol),
            _check("einstein_fit_residual", rep.einstein_fit_residual, tol),
            _check("metric_consistency", kn.kn_metric_consistency(spec, pts), 1e-10),
        ]
        table = {**dict(zip(spec.coord_names, pts.T)),
                 "eta": rep.einstein_eta, "ricci_scalar": rep.ricci_scalar}
        return checks, table
    g = rep.metric
    # relative to the metric's size: where max|g| <= 1 this is the plain gap
    ricci_devs = (np.max(np.abs(rep.ricci - expected * g), axis=(-2, -1))
                  / np.maximum(1.0, np.max(np.abs(g), axis=(-2, -1))))
    checks = [
        _check("sectional_k", np.abs(rep.sectional_k - expected), tol),
        _check("ricci_proportional", ricci_devs, tol),
    ]
    # the 2D table is complex for every family
    columns = np.array([*pts.T, rep.sectional_k], dtype=complex)
    return checks, dict(zip(("coord0", "coord1", "K"), columns))


def run_geodesic(scenario: Scenario) -> tuple[list[dict], dict]:
    spec = _spec_from(scenario)
    tol = scenario.tol
    rk_tol = 1e-11
    span = _span(scenario.require("span"))
    state = GeodesicState(_chart_numbers(scenario.require("coords"), spec),
                          _chart_numbers(scenario.require("velocity"), spec))
    traj = integrate_geodesic(spec, state, span, tol=rk_tol)
    grid = np.linspace(traj.s[0], traj.s[-1], GRID_POINTS)
    speeds = traj.speed_squared(grid)
    drift = np.abs(speeds - speeds[0]) / max(abs(speeds[0]), 1e-30)
    checks = [_check("speed_conservation", drift, tol)]
    if spec.facts.sign < 0:
        # the other ads sign shares every geodesic
        other = GeometrySpec(
            Family.ADS_MINUS if spec.family is Family.ADS_PLUS else Family.ADS_PLUS,
            spec.h)
        traj2 = integrate_geodesic(other, state, span, tol=rk_tol)
        shared = np.linspace(traj.s[0], min(traj.s[-1], traj2.s[-1]), 33)
        dev = np.abs(np.concatenate(traj.state_at(shared))
                     - np.concatenate(traj2.state_at(shared)))
        checks.append(_check("ads_sign_shared_geodesics", dev, 1e-10))
    names = spec.coord_names
    coords, velocities = traj.state_at(grid)
    table = {"s": grid, **dict(zip(names, coords)),
             **dict(zip(["d" + n for n in names], velocities)),
             "termination": [traj.termination.value] * len(grid)}
    return checks, table


def _solve_geodesic(scenario: Scenario, spec: GeometrySpec):
    curve = scenario.get("curve")
    if curve is not None:
        kind, _, arg = curve.partition(":")
        if kind != "constant":
            raise ValueError(f"unknown curve override {curve!r}")
        level = float(arg)
        span = _span(scenario.require("span"))
        g = ExplicitGeodesic.from_function(
            spec, lambda x: level, span,
            dfn=lambda x: 0.0, d2fn=lambda x: 0.0)
        return g, False
    max_step = scenario.get("max_step")
    cap = scenario.floatval("value_cap", 1e6)
    number = _complex_scalar if spec.is_complex_chart else float
    value0 = number(scenario.require("value0"))
    slope0 = number(scenario.get("slope0", "0"))
    options = {"tol": 1e-12, "value_cap": cap,
               "max_step": float(max_step) if max_step else None}
    if spec.is_complex_chart:
        path = ComplexPath.from_text(scenario.require("path"))
        g = integrate_explicit(spec, path.start, value0, slope0, path=path, **options)
    else:
        g = integrate_explicit(spec, scenario.floatval("x0", 0.0), value0, slope0,
                               support=_span(scenario.require("span")), **options)
    return g, True


def run_solve(scenario: Scenario) -> tuple[list[dict], dict]:
    spec = _spec_from(scenario)
    tol = scenario.tol
    g, is_geodesic = _solve_geodesic(scenario, spec)
    basis = rc.reconstruct_basis(spec, g, check_residual=False)
    lo, hi = g.support
    grid = np.linspace(lo, hi, GRID_POINTS)
    z = g.point(grid)
    # one evaluation of the basis serves every solution, check and column;
    # h comes from its own jet, so u'' + h u still tests the pair formula
    jets = basis.jets(grid)
    h = eval_jet2(spec.h, z).value
    solutions = {"u": jets.combination(scenario.floatval("A", 1.0),
                                       scenario.floatval("B", 0.0)),
                 "u_top": jets.combination(1, 0), "u_bot": jets.combination(0, 1)}
    residual, res_top, res_bot = (np.abs(d2 + h * val) for val, _, d2 in solutions.values())
    checks = [
        _check("ode_residual", residual, tol),
        _check("ode_residual_basis", [res_top, res_bot], tol),
    ]
    if not basis.theta.coincident:
        wr = jets.wronskian
        checks.append(_check("wronskian_constant",
                             np.abs(wr - wr[0]) / max(abs(wr[0]), 1e-30), tol))
    sign = -float(spec.facts.sign)  # top*bot = -s value^2
    values = g.value(grid)
    checks.append(_check("theta_product_identity",
                         np.abs(jets.theta[0] * jets.theta[2] - sign * values ** 2),
                         max(tol * 1e-3, 1e-9)))
    if is_geodesic:
        # the complex chart's X and -X give one pair (top*bot = -X^2, and the
        # explicit equation is odd in X): the row with the smaller sup counts,
        # and np.argmin takes a NaN row first
        recovered = rc.invert_to_geodesic(basis).value(grid)
        both = np.abs([recovered - values, recovered + values])
        checks.append(_check("inversion_round_trip", both[np.argmin(np.max(both, axis=-1))],
                             max(tol * 0.1, 1e-7)))
    table = {"param": grid, "point_re": np.real(z), "point_im": np.imag(z)}
    for name, (val, _, _) in solutions.items():
        table[f"{name}_re"] = np.real(val)
        table[f"{name}_im"] = np.imag(val)
    table["ode_residual"] = residual
    return checks, table


def run_riccati(scenario: Scenario) -> tuple[list[dict], dict]:
    # a real Riccati solution is an ads geodesic, a complex one (times -i)
    # a complex-sphere geodesic
    modes = {"real": (Family.ADS_PLUS, float, "real"),
             "complex": (Family.COMPLEX_SPHERE, _complex_scalar, "imaginary")}
    mode = scenario.get("mode", "real")
    if mode not in modes:
        raise ValueError("mode must be 'real' or 'complex'")
    family, number, sign_mode = modes[mode]
    tol = scenario.tol
    h = parse(scenario.require("h"), FAMILY_FACTS[family].h_mode)
    spec = GeometrySpec(family, h)
    theta0 = number(scenario.require("theta0"))
    span = _span(scenario.require("span"))
    x0 = scenario.floatval("x0", span[0])
    theta = rc.integrate_riccati(h, theta0, x0, span)
    report = rc.riccati_solution_is_geodesic(spec, theta, sign_mode, tol=tol)
    checks = [
        _check("riccati_residual", report.riccati, tol),
        _check("induced_geodesic_residual", report.geodesic, tol),
    ]
    xs = np.linspace(*theta.support, RICCATI_ROWS)
    values = theta.value(xs)
    return checks, {"x": xs, "theta_re": np.real(values), "theta_im": np.imag(values)}


def run_kn_verify(scenario: Scenario) -> tuple[list[dict], dict]:
    h = parse(scenario.require("h"), "complex")
    spec = GeometrySpec(Family.KAHLER_NORDEN, h)
    tol = scenario.tol
    rng = np.random.default_rng(scenario.seed)
    pts = sample_domain_points(spec, rng, scenario.intval("points", 60))
    rep = curvature_at(spec, pts)
    eta = spec.facts.expected
    split = kn.kn_geodesic_split(
        spec, GeodesicState((0.0, 1.6, 0.0, 0.4), (1.0, 0.2, 0.5, -0.1)), (0.0, 1.0))
    checks = [
        _check("cauchy_riemann", kn.cauchy_riemann_residual(h, pts[:, 0], pts[:, 2]), 1e-8),
        _check("metric_consistency", kn.kn_metric_consistency(spec, pts), 1e-10),
        _check("einstein_eta", np.abs(rep.einstein_eta - eta), tol),
        _check("ricci_scalar", np.abs(rep.ricci_scalar - spec.dim * eta), tol),
        _check("christoffel_correspondence", kn.kn_christoffel_correspondence(spec, pts), 1e-8),
        _check("geodesic_split_coords", split.coords, split.tolerance),
        _check("geodesic_split_basis", split.basis, split.tolerance),
    ]
    table = {"check": [c["name"] for c in checks],
             "max_deviation": [c["max_deviation"] for c in checks],
             "tolerance": [c["tolerance"] for c in checks]}
    return checks, table


RUNNERS = {
    "curvature": run_curvature,
    "geodesic": run_geodesic,
    "solve": run_solve,
    "riccati": run_riccati,
    "kn-verify": run_kn_verify,
}


# --- report assembly --------------------------------------------------------------

def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.complexfloating, complex)):
        return {"re": float(np.real(obj)), "im": float(np.imag(obj))}
    if isinstance(obj, np.ndarray):
        return _json_safe(obj.tolist())
    return obj


def build_report(command: str, scenario: Scenario, checks: list[dict],
                 started: float) -> dict:
    return {
        "command": command,
        "scenario": scenario.echo(),
        "checks": _json_safe(checks),
        "pass": all(c["pass"] for c in checks),
        "wall_time_s": round(time.time() - started, 6),
    }


def _finite_or_text(obj):
    """``obj`` with every non-finite float replaced by "nan", "inf" or "-inf"."""
    if isinstance(obj, dict):
        return {k: _finite_or_text(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_finite_or_text(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    return obj


def _emit(report: dict, pretty: bool) -> None:
    # JSON has no NaN or Infinity; the report itself keeps floats
    sys.stdout.write(json.dumps(_finite_or_text(report), sort_keys=True,
                                allow_nan=False) + "\n")
    if pretty:
        lines = [f"== {report['command']} : "
                 f"{'PASS' if report.get('pass') else 'FAIL'} =="]
        for c in report.get("checks", []):
            lines.append(f"  {c['name']:<32} {c['max_deviation']:.3e} "
                         f"<= {c['tolerance']:.1e}  "
                         f"{'ok' if c['pass'] else 'FAIL'}")
        for sub in report.get("scenarios", []):
            if "error" in sub:
                status = f"ERROR {sub['error']}"
            else:
                status = "ok" if sub["pass"] else (
                    "expected-fail" if sub.get("expected_fail") else "FAIL")
            lines.append(f"  [{sub['name']}] {status}")
        sys.stderr.write("\n".join(lines) + "\n")


def _write_csv(path: str, table: dict) -> None:
    """One column per table entry, one row per sample."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(table)
        writer.writerows(zip(*([_csv_cell(v) for v in column] for column in table.values())))


def _csv_cell(v):
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, complex):
        return f"{v.real!r}+{v.imag!r}j"
    return v


# --- verify-all --------------------------------------------------------------------

def run_verify_all(pool_path: str | None, pretty: bool) -> int:
    """Run every section of a scenario pool; one JSON report for the pool.

    A scenario that raises is recorded with its error and counts as failed,
    also when it is marked ``expect = fail``; the pool goes on. An empty pool
    or an unknown kind is invalid input and stops the run.
    """
    started = time.time()
    parser = configparser.ConfigParser()
    if pool_path is None:
        text = (resources.files("geodesy") / "data" / "default_pool.cfg").read_text()
        parser.read_string(text)
    else:
        if not parser.read(pool_path):
            raise ValueError(f"cannot read pool file {pool_path!r}")
    sections = parser.sections()
    if not sections:
        raise ValueError("scenario pool is empty")
    results = []
    overall = True
    for name in sections:
        values = dict(parser.items(name))
        kind = values.pop("kind", None)
        expect_fail = values.pop("expect", "pass").lower() == "fail"
        if kind not in RUNNERS:
            raise ValueError(f"scenario {name!r} has unknown kind {kind!r}")
        scenario = Scenario(values)
        sub_start = time.time()
        try:
            checks, _ = RUNNERS[kind](scenario)
        except Exception as exc:  # one bad scenario must not stop the pool
            results.append({"name": name, "kind": kind, "scenario": scenario.echo(),
                            "expected_fail": expect_fail, "pass": False,
                            "error": f"{type(exc).__name__}: {exc}"})
            overall = False
            continue
        sub = build_report(kind, scenario, checks, sub_start)
        sub["name"] = name
        sub["expected_fail"] = expect_fail
        ok = (not sub["pass"]) if expect_fail else sub["pass"]
        overall = overall and ok
        results.append(sub)
    report = {
        "command": "verify-all",
        "scenarios": results,
        "pass": overall,
        "wall_time_s": round(time.time() - started, 6),
    }
    _emit(report, pretty)
    return 0 if overall else 1


# --- entry point --------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", help="INI scenario file ([scenario] section)")
    p.add_argument("--h", dest="h", help="coefficient function source text")
    p.add_argument("--family", help="hyperbolic|ads+|ads-|complex|kn")
    p.add_argument("--tol", type=float, help="main check tolerance")
    p.add_argument("--seed", type=int, help="sampling seed")
    p.add_argument("--pretty", action="store_true",
                   help="human-readable summary on stderr")
    p.add_argument("--csv", help="write the sample table to this path")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="extra scenario keys (repeatable)")


def _scenario_from_args(args) -> Scenario:
    values: dict = {}
    if args.scenario:
        parser = configparser.ConfigParser()
        if not parser.read(args.scenario):
            raise ValueError(f"cannot read scenario file {args.scenario!r}")
        if parser.has_section("scenario"):
            values.update(parser.items("scenario"))
        elif parser.sections():
            values.update(parser.items(parser.sections()[0]))
    for item in args.set:
        key, _, val = item.partition("=")
        if not _:
            raise ValueError(f"--set expects KEY=VALUE, got {item!r}")
        values[key.strip()] = val.strip()
    for key in ("h", "family", "tol", "seed"):
        arg = getattr(args, key)
        if arg is not None:
            values[key] = arg
    return Scenario(values)


def main(argv: list[str] | None = None) -> int:
    top = argparse.ArgumentParser(
        prog="geodesy",
        description="Verify the constant-curvature geometries of u'' + h u = 0.")
    sub = top.add_subparsers(dest="command", required=True)
    for name in (*RUNNERS, "verify-all"):
        p = sub.add_parser(name)
        _add_common(p)
    args = top.parse_args(argv)
    try:
        if args.command == "verify-all":
            return run_verify_all(args.scenario, args.pretty)
        scenario = _scenario_from_args(args)
        started = time.time()
        checks, table = RUNNERS[args.command](scenario)
        report = build_report(args.command, scenario, checks, started)
        if args.csv:
            _write_csv(args.csv, table)
        _emit(report, args.pretty)
        return 0 if report["pass"] else 1
    except ParseError as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc),
                             "position": exc.position}}
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
        return 2
    except (GeodesyError, ValueError, OSError) as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
