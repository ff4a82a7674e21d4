"""Seeded workload generation: the cases of each workload as pure data.

A case is a scenario for one of the `geodesy` CLI runners. Its parameters are
strings, exactly as a scenario file would carry them. The coefficient list of each workload is
fixed, so every seed runs the same mix; the seed only draws sample-point
seeds, initial data, spans and complex paths. Nothing here imports
``geodesy``: generating cases is a pure function of the seed.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

POOL_FILE = Path(__file__).resolve().parent.parent / "src" / "geodesy" / "data" / "default_pool.cfg"


@dataclass(frozen=True)
class Case:
    name: str
    kind: str  # a cli.RUNNERS key
    params: dict = field(hash=False)
    expect_fail: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple
    # case name -> Defect; the case stays in the workload and counts as
    # unverified whenever it fails
    known_defects: dict


@dataclass(frozen=True)
class Defect:
    reason: str
    symptoms: frozenset  # the exception types or check names it produces


# Defects known at the seed commit (README.md, "Findings"). The two of
# ROADMAP item 4 fail on every seed, the escape-cap one on nearly every seed,
# the others only where the drawn data trigger them.
DOMAIN_ABORT = Defect("sampling aborts on a restricted-domain h (ROADMAP item 4)",
                      frozenset({"DomainError"}))
OVERFLOW_SINGULAR = Defect("overflow gives a false singular metric (ROADMAP item 4)",
                           frozenset({"SingularMetricError"}))
ESCAPE_CAP_END = Defect(
    "a geodesic stopped by the default escape cap, with a near-vertical tangent, "
    "fails its end-point residual",
    frozenset({"ode_residual", "ode_residual_basis"}))
TINY_LAST_STEP = Defect(
    "a tiny last solver step spoils the dense second derivative at a range end",
    frozenset({"ode_residual", "ode_residual_basis"}))
VERTEX_INVERSION = Defect(
    "inversion fits one Hermite curve across a polyline vertex",
    frozenset({"inversion_round_trip"}))


def _f(x: float) -> str:
    return repr(float(x))


def _c(z: complex) -> str:
    return f"{_f(z.real)},{_f(z.imag)}"


def _seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(1, 2**31 - 1)))


def pool_cases(kinds: tuple[str, ...]) -> list[Case]:
    """The shipped verify-all pool's sections of the given kinds, verbatim."""
    parser = configparser.ConfigParser()
    parser.read_string(POOL_FILE.read_text())
    out = []
    for section in parser.sections():
        values = dict(parser.items(section))
        kind = values.pop("kind")
        expect_fail = values.pop("expect", "pass").lower() == "fail"
        if kind in kinds:
            out.append(Case(f"pool:{section}", kind, values, expect_fail))
    return out


# --- solve-query -------------------------------------------------------------

def _solve_real(rng, family: str, h: str, value0, slope0, lo, hi, **extra) -> Case:
    params = {"family": family, "h": h, "x0": "0",
              "value0": _f(rng.uniform(*value0)),
              "slope0": _f(rng.uniform(*slope0)),
              "span": f"{_f(-rng.uniform(*lo))},{_f(rng.uniform(*hi))}",
              **extra}
    return Case(f"solve:{family}:{h}", "solve", params)


def _polyline(rng, segments: int) -> str:
    """A path from 0 into the first quadrant with ``segments`` pieces."""
    end = complex(rng.uniform(0.6, 1.0), rng.uniform(0.6, 1.0))
    vertices = [0j]
    if segments == 2:
        t = rng.uniform(0.35, 0.65)
        vertices.append(complex(end.real * t + rng.uniform(0.1, 0.3),
                                end.imag * t - rng.uniform(0.1, 0.3)))
    vertices.append(end)
    return ";".join(_c(v) for v in vertices)


def _solve_complex(rng, h: str, segments: int) -> Case:
    params = {"family": "complex", "h": h, "path": _polyline(rng, segments),
              "value0": _c(complex(0.0, rng.uniform(1.3, 1.7))),
              "slope0": _c(complex(rng.uniform(0.0, 0.3), 0.0))}
    return Case(f"solve:complex:{h}:{segments}seg", "solve", params)


def solve_query(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 1])
    cases = [
        # all three hyperbolic geodesics escape within their spans (README.md,
        # "Findings"); value0 is drawn at or above the pool Airy's 2, where the
        # end-point residual fails on 36 of seeds 1 to 40, against 7 of 10
        # seeds when drawn from 1.8: a verified set that flips with the seed
        # would widen the spread of verified_per_s
        _solve_real(rng, "hyperbolic", "x", (2.0, 2.2), (0.1, 0.4),
                    (0.4, 0.6), (1.3, 1.6), max_step="0.02"),
        _solve_real(rng, "hyperbolic", "-1", (1.5, 2.5), (-0.2, 0.2),
                    (0.3, 0.8), (1.2, 1.8), max_step="0.02"),
        _solve_real(rng, "hyperbolic", "sin(x)+3", (1.0, 1.2), (-0.1, 0.1),
                    (0.4, 0.8), (0.4, 0.8), max_step="0.02"),
        _solve_real(rng, "ads", "1", (0.8, 1.2), (-0.2, 0.2),
                    (0.0, 0.5), (4.0, 6.0)),
        _solve_real(rng, "ads", "x^2+2", (0.8, 1.4), (-0.2, 0.2),
                    (0.4, 0.8), (0.4, 0.8)),
        _solve_complex(rng, "z", 1),
        _solve_complex(rng, "z^2+1", 2),
    ]
    defects = {case.name: (ESCAPE_CAP_END if case.params["family"] == "hyperbolic"
                           else TINY_LAST_STEP)
               for case in cases if case.params["family"] != "complex"}
    defects["solve:complex:z^2+1:2seg"] = VERTEX_INVERSION
    return Workload("solve-query", tuple(cases + pool_cases(("solve",))), defects)


# --- curvature-sweep -----------------------------------------------------------

CURVATURE_MIX = (
    ("hyperbolic", "sin(x)+3"), ("hyperbolic", "exp(x)"), ("hyperbolic", "x^3-x"),
    ("hyperbolic", "log(x)"), ("hyperbolic", "sqrt(x)"), ("hyperbolic", "exp(150*x)"),
    ("ads+", "x^2+2"), ("ads+", "-1"), ("ads-", "x^2+2"), ("ads-", "-1"),
    ("complex", "z^2+1"), ("complex", "exp(z)"),
    ("kn", "exp(z)"), ("kn", "z^2+1"),
)
# sized so that a 45-second run pools 750 to 1200 verified cases, in the p95
# band of the tail rule in run.py, and 70 to 110 passes for the p90 of a
# case's time over the passes
CURVATURE_POINTS = {"kn": 48}
CURVATURE_POINTS_2D = 128

CURVATURE_DEFECTS = {
    "curvature:hyperbolic:log(x)": DOMAIN_ABORT,
    "curvature:hyperbolic:sqrt(x)": DOMAIN_ABORT,
    "curvature:hyperbolic:exp(150*x)": OVERFLOW_SINGULAR,
}


def curvature_sweep(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 2])
    cases = [
        Case(f"curvature:{family}:{h}", "curvature",
             {"family": family, "h": h, "seed": _seed(rng),
              "points": str(CURVATURE_POINTS.get(family, CURVATURE_POINTS_2D))})
        for family, h in CURVATURE_MIX
    ]
    return Workload("curvature-sweep", tuple(cases), dict(CURVATURE_DEFECTS))


WORKLOADS = {
    "solve-query": solve_query,
    "curvature-sweep": curvature_sweep,
}
