"""Per-layer figures on fixed inputs, for the traced run.

Each figure is a median over repeated calls into one public function (a
single call for the four that take seconds at the seed commit), on an
input that does not depend on the workload seed: the shipped pool's Airy
geodesic (h = x), its ads geodesic, its Riccati and 4D scenarios, and points
drawn with ``KERNEL_SEED``. Only ``expr.*`` use the workload's own
coefficients. Calls whose callee caches results between queries get a fresh
object per repetition, built outside the timed region.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import geodesy as gd
from geodesy import cli, dense
from geodesy.geometry import REAL_FAMILIES

from cases import report_json

KERNEL_SEED = 20240917
GRID = 101  # the solve runner's default sample count


def _median_s(fn, reps: int, fresh=None) -> float:
    """Median wall time of ``fn(arg)``, with ``arg = fresh()`` built untimed."""
    times = []
    for _ in range(reps):
        arg = fresh() if fresh else None
        t0 = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _per_call_s(fn, args: list, rounds: int) -> float:
    """Median over ``rounds`` passes of the mean time per call over ``args``."""
    def one_pass(_):
        for a in args:
            fn(*a)
    return _median_s(one_pass, rounds) / len(args)


def us(seconds: float) -> dict:
    return {"value": 1e6 * seconds, "unit": "us"}


def ms(seconds: float) -> dict:
    return {"value": 1e3 * seconds, "unit": "ms"}


def count(n: int) -> dict:
    return {"value": n, "unit": "count"}


def parse_mode(family: str) -> str:
    """The parse mode of ``h`` in a family, as the CLI chooses it."""
    return "real" if gd.Family.from_name(family) in REAL_FAMILIES else "complex"


def _spec(family: str, h: str):
    return gd.GeometrySpec(gd.Family.from_name(family), gd.parse(h, parse_mode(family)))


def _airy():
    spec = _spec("hyperbolic", "x")
    return spec, gd.integrate_explicit(spec, 0.0, 2.0, 0.3, support=(-0.5, 1.5), tol=1e-12,
                                       value_cap=6.0, max_step=0.02)


def _points(spec, n: int) -> np.ndarray:
    return gd.sample_domain_points(spec, np.random.default_rng(KERNEL_SEED), n)


def coefficients_of(wl) -> list[tuple[str, str]]:
    """The distinct (h, parse mode) pairs of a workload's cases."""
    return sorted({(c.params["h"], parse_mode(c.params["family"])) for c in wl.cases})


def expr_figures(wl, seed: int) -> dict:
    """parse and eval_jet2 on the workload's own coefficients and points."""
    coefficients = coefficients_of(wl)
    rng = np.random.default_rng([seed, 9])
    calls = []
    for source, mode in coefficients:
        h = gd.parse(source, mode)
        # positive real parts keep log and sqrt inside their domain
        xs = rng.uniform(0.2, 2.0, 32)
        if mode == "complex":
            xs = xs + 1j * rng.uniform(-1.0, 1.0, 32)
        calls += [(h, x) for x in xs]
    sin3 = gd.parse("sin(x)+3")
    sin3_calls = [(sin3, x) for x in np.linspace(-2.0, 2.0, 200)]
    return {
        "expr.parse_us": us(_per_call_s(gd.parse, coefficients, 20)),
        "expr.eval_jet2_us": us(_per_call_s(gd.eval_jet2, calls, 20)),
        "expr.eval_jet2_sin_us": us(_per_call_s(gd.eval_jet2, sin3_calls, 20)),
    }


def geometry_figures() -> dict:
    out = {}
    for label, family, h in (("hyperbolic", "hyperbolic", "sin(x)+3"),
                             ("ads_plus", "ads+", "x^2+2"), ("ads_minus", "ads-", "-1"),
                             ("complex", "complex", "z^2+1"), ("kn", "kn", "exp(z)")):
        spec = _spec(family, h)
        pts = _points(spec, 24 if family == "kn" else 50)
        out[f"geometry.curvature_at_us.{label}"] = us(
            _per_call_s(gd.curvature_at, [(spec, p) for p in pts], 5))
    spec = _spec("hyperbolic", "sin(x)+3")
    pts = _points(spec, 50)
    for method in ("from_jets", "closed_form"):
        out[f"geometry.christoffel_{method}_us"] = us(
            _per_call_s(gd.christoffel_at, [(spec, p, method) for p in pts], 10))
    out["geometry.sample_ms"] = ms(_median_s(
        lambda _: gd.sample_domain_points(spec, np.random.default_rng(KERNEL_SEED), 100), 10))
    return out


def geodesics_figures() -> dict:
    spec, g = _airy()
    nodes = g.nodes
    args = [(spec, x, v, w) for x, v, w in zip(nodes, g.value(nodes), g.slope(nodes))]
    ads = _spec("ads+", "sin(x)+3")
    state = gd.GeodesicState((0.1, 1.2), (0.8, -0.4))
    traj = gd.integrate_geodesic(ads, state, (0.0, 1.5), tol=1e-11)
    return {
        "geodesics.integrate_explicit_ms": ms(_median_s(lambda _: _airy(), 5)),
        "geodesics.explicit_nodes": count(len(nodes)),
        "geodesics.explicit_second_us": us(_per_call_s(gd.geodesics.explicit_second, args, 5)),
        "geodesics.integrate_geodesic_ms": ms(_median_s(
            lambda _: gd.integrate_geodesic(ads, state, (0.0, 1.5), tol=1e-11), 5)),
        "geodesics.affine_steps": count(len(traj.s)),
    }


def reconstruct_figures() -> dict:
    spec, g = _airy()
    lo, hi = g.support
    grid = np.linspace(lo, hi, GRID)

    def fresh():
        # u_top/u_bot remember the integrals of earlier queries
        return gd.reconstruct_basis(spec, g, tol=1e-10, check_residual=False)

    pair = gd.theta_from_geodesic(spec, g)
    curve = dense.CurveDense(g.nodes, [g.value(g.nodes), g.slope(g.nodes), g.second(g.nodes)])
    zspec = _spec("complex", "z")
    path_a = gd.ComplexPath.polyline([0, 1 + 1j])
    path_b = gd.ComplexPath.polyline([0, 1, 1 + 1j])
    zg = gd.integrate_explicit(zspec, 0, 1.5j, 0.2, path=path_a, tol=1e-12)
    ads = _spec("ads+", "x^2")

    def riccati(_):
        theta = gd.integrate_riccati(ads.h, 2.0, 0.0, (0.0, 0.8), tol=1e-12)
        gd.riccati_solution_is_geodesic(ads, theta, "real", tol=1e-6)

    return {
        "reconstruct.basis_build_ms": ms(_median_s(
            lambda _: gd.reconstruct_basis(spec, g, tol=1e-10, check_residual=True), 5)),
        "reconstruct.first_query_ms": ms(_median_s(lambda b: b.u_top.value(hi), 5, fresh)),
        # one to two seconds per call at the seed commit: one call each keeps
        # a traced solve-query run well inside its time limit
        "reconstruct.ode_residual_ms": ms(_median_s(
            lambda b: gd.ode_residual(spec.h, b.u_top, grid), 1, fresh)),
        "reconstruct.wronskian_ms": ms(_median_s(
            lambda b: [b.wronskian(t) for t in grid], 1, fresh)),
        "reconstruct.invert_ms": ms(_median_s(gd.invert_to_geodesic, 1, fresh)),
        "reconstruct.theta_us": us(_per_call_s(pair.top, [(t,) for t in grid], 5)),
        "dense.query_scalar_us": us(_per_call_s(curve.value, [(t,) for t in grid], 20)),
        "dense.query_vector_us": us(_median_s(lambda _: curve.value(grid), 50) / GRID),
        "reconstruct.path_independence_ms": ms(_median_s(
            lambda _: gd.path_independence_check(zspec, zg, 0, 1 + 1j, path_a, path_b,
                                                 tol=1e-8), 3)),
        "reconstruct.riccati_ms": ms(_median_s(riccati, 5)),
    }


def kahler_norden_figures() -> dict:
    spec = _spec("kn", "z^2+1")
    pts = [(spec, p) for p in _points(spec, 24)]
    state = gd.GeodesicState((0.0, 1.6, 0.0, 0.4), (1.0, 0.2, 0.5, -0.1))
    return {
        "kahler_norden.christoffel_correspondence_us": us(
            _per_call_s(gd.kn_christoffel_correspondence, pts, 5)),
        "kahler_norden.metric_consistency_us": us(
            _per_call_s(gd.kn_metric_consistency, pts, 5)),
        "kahler_norden.geodesic_split_ms": ms(_median_s(
            lambda _: gd.kn_geodesic_split(spec, state, (0.0, 1.0), tol=1e-8), 1)),
    }


def report_figure() -> dict:
    """Report assembly plus JSON encoding of a solve-sized check list."""
    scenario = cli.Scenario({"family": "hyperbolic", "h": "x", "span": "-0.5,1.5"})
    checks = [{"name": f"check_{i}", "points": GRID, "max_deviation": 1e-9 * i,
               "tolerance": 1e-6, "pass": True} for i in range(5)]
    return {"cli.report_ms": ms(_median_s(
        lambda _: report_json("solve", scenario, checks, time.time()), 200))}


def all_figures(wl, seed: int) -> dict:
    out = expr_figures(wl, seed)
    for part in (geometry_figures, geodesics_figures, reconstruct_figures,
                 kahler_norden_figures, report_figure):
        out.update(part())
    return out
