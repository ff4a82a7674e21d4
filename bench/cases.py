"""Run one case through `geodesy` and judge it with a gate that fails closed.

Cases go through ``geodesy.cli.RUNNERS`` plus the CLI's report assembly,
exactly as ``geodesy <kind>`` runs them. Every public function is looked up on
its module at call time, so the tracer in ``tracer.py`` sees these calls too.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

from geodesy import cli

from workloads import Case

HEADROOM_CAP_DEC = 16.0  # headroom of a check whose deviation is exactly 0


@dataclass
class Outcome:
    case: str
    verified: bool
    wall_s: float
    checks: list = field(default_factory=list)  # (name, max_deviation, tolerance)
    # why it is unverified: the exception type raised, the names of the
    # failed checks, or "negative control passed"
    symptoms: tuple = ()

    @property
    def error(self) -> str | None:
        return ",".join(self.symptoms) or None


def run_cli_case(case: Case) -> list[dict]:
    """A runner plus the CLI's report assembly and JSON encoding."""
    scenario = cli.Scenario(case.params)
    started = time.time()
    checks, _rows = cli.RUNNERS[case.kind](scenario)
    report = report_json(case.kind, scenario, checks, started)
    return json.loads(report)["checks"]


def report_json(kind: str, scenario, checks: list, started: float) -> str:
    return json.dumps(cli.build_report(kind, scenario, checks, started), sort_keys=True)


def gate(checks: list[dict]) -> bool:
    """Recompute the verdict from the numbers; NaN and inf fail."""
    return bool(checks) and all(
        math.isfinite(c["max_deviation"]) and c["max_deviation"] <= c["tolerance"]
        for c in checks)


def run_case(case: Case) -> Outcome:
    """Run ``case`` in isolation: a raise is recorded, never propagated."""
    t0 = time.perf_counter()
    try:
        checks = run_cli_case(case)
    except Exception as exc:  # one bad case must not stop the pass
        return Outcome(case.name, False, time.perf_counter() - t0,
                       symptoms=(type(exc).__name__,))
    wall = time.perf_counter() - t0
    record = [(c["name"], c["max_deviation"], c["tolerance"]) for c in checks]
    passed = gate(checks)
    if case.expect_fail:
        return Outcome(case.name, not passed, wall, record,
                       ("negative control passed",) if passed else ())
    return Outcome(case.name, passed, wall, record,
                   tuple(c["name"] for c in checks if not gate([c])))


def headroom_dec(outcomes: list[Outcome], excluded: set[str]) -> float:
    """Min over checks of verified cases of log10(tolerance / deviation)."""
    best = HEADROOM_CAP_DEC
    for out in outcomes:
        if not out.verified or out.case in excluded:
            continue
        for _name, dev, tol in out.checks:
            best = min(best, HEADROOM_CAP_DEC if dev == 0 else math.log10(tol / dev))
    return best
