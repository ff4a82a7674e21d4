"""A seeded sweep of `solve` over random coefficients, families and starts.

The pool and the benchmark run chosen data; this sweep draws it. The draw is
a pure function of the seed, and the families take turns, so a shorter draw
is the start of a longer one. The tier-1 test asserts what must hold on
every draw: no case raises anything but a GeodesyError, none warns (pytest
turns a RuntimeWarning into an error), and every complex draw passes its
inversion round trip. It also asserts that every hyperbolic draw of its seed
verifies: each of those charts ends at the onset of escape, before the Theta
pair turns ill-conditioned. The other verdicts are reported, not asserted.

    python tests/test_sweep.py SEED COUNT

prints the family-by-verdict table of a draw.
"""

import sys
import warnings
from collections import Counter

import numpy as np

from geodesy import cli
from geodesy.errors import GeodesyError

FAMILIES = ("hyperbolic", "ads+", "ads-", "complex")
REAL_H = ("1", "4", "-1", "x", "x^2+2", "sin(x)+3", "exp(x)", "x^3-x")
COMPLEX_H = ("z", "z^2+1", "exp(z)", "4")


def _number(x) -> str:
    return repr(float(x))


def _pair(z) -> str:
    return f"{_number(np.real(z))},{_number(np.imag(z))}"


def draw(seed: int, count: int) -> list[dict]:
    """``count`` solve scenarios, the families in turn."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        family = FAMILIES[i % len(FAMILIES)]
        if family == "complex":
            end = rng.uniform(0.3, 2.0) * np.exp(1j * rng.uniform(0.0, np.pi / 2))
            value0 = rng.uniform(-1.0, 1.0) + 1j * rng.uniform(0.8, 2.0)
            cases.append({"family": family, "h": COMPLEX_H[rng.integers(len(COMPLEX_H))],
                          "path": f"0,0;{_pair(end)}", "value0": _pair(value0),
                          "slope0": _pair(rng.uniform(-0.3, 0.3))})
        else:
            span = (_number(-rng.uniform(0.5, 2.0)), _number(rng.uniform(0.5, 2.0)))
            cases.append({"family": family, "h": REAL_H[rng.integers(len(REAL_H))],
                          "value0": _number(rng.uniform(0.3, 2.5)),
                          "slope0": _number(rng.uniform(-0.5, 0.5)), "span": ",".join(span)})
    return cases


def verdict(case: dict) -> tuple[str, list[str]]:
    """("verified", []), ("failed", the failing checks) or ("raised", [the error])."""
    try:
        checks, _ = cli.run_solve(cli.Scenario(case))
    except GeodesyError as exc:
        return "raised", [type(exc).__name__]
    failed = [c["name"] for c in checks if not c["pass"]]
    return ("failed" if failed else "verified"), failed


def test_a_seeded_sweep_raises_only_geodesy_errors_and_round_trips_complex_draws():
    for case in draw(23, 32):
        outcome, names = verdict(case)
        if case["family"] == "complex":
            assert outcome != "raised" and "inversion_round_trip" not in names, case
        if case["family"] == "hyperbolic":
            assert outcome == "verified", (case, names)


def table(seed: int, count: int) -> str:
    tally = {family: Counter() for family in FAMILIES}
    for case in draw(seed, count):
        outcome, names = verdict(case)
        tally[case["family"]].update([outcome, *names])
    lines = [f"{'family':<12}{'cases':>6}{'verified':>10}{'failed':>8}{'raised':>8}  "
             "failing checks and errors"]
    for family, counts in tally.items():
        outcomes = [counts.pop(key, 0) for key in ("verified", "failed", "raised")]
        detail = ", ".join(f"{name} {n}" for name, n in sorted(counts.items()))
        lines.append(f"{family:<12}{sum(outcomes):>6}{outcomes[0]:>10}{outcomes[1]:>8}"
                     f"{outcomes[2]:>8}  {detail}")
    return "\n".join(lines)


if __name__ == "__main__":
    warnings.simplefilter("error", RuntimeWarning)
    print(table(int(sys.argv[1]), int(sys.argv[2])))
