#!/usr/bin/env python3
"""The geodesy benchmark: one seeded workload, verified, timed, summarised.

    python3 bench/run.py --workload solve-query --seed 1 --seconds 45 --trace 0

Runs the workload's cases back to back in this one process (a closed loop
with one client; BLAS/OpenMP pinned to one thread), checks every output with
a gate that fails closed, and prints a report followed, as the last line, by
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json; with
``--trace 1`` they are the per-layer ones. See bench/README.md.
"""

from __future__ import annotations

import os

# pinned before numpy is first imported, here and in every child process
THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (pure data; imports no geodesy)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 9
WARMUP_S = 1.0
# The machine's speed swings by 20 to 40% within seconds, and the share of a
# run spent in its fast spells varies from run to run. A case's time over
# the passes of a run is therefore taken at this percentile, where the
# common slow state sets it, rather than at its median or mean.
SUSTAINED_PCT = 90.0
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
# Printed in the report but left out of the result: a solve-query pass at the
# seed commit is one measurement each of nine different verified cases, and
# their median jumped by a third from run to run (bench/README.md).
REPORT_ONLY = ("case_p50_s", "case_tail_s")
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)


def import_program() -> None:
    """Import geodesy from this checkout's src/, never from anywhere else."""
    if not (SRC / "geodesy" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no program source at {SRC / 'geodesy'}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import geodesy
    if Path(geodesy.__file__).resolve().parent != SRC / "geodesy":
        sys.stderr.write(f"bench: imported geodesy from {geodesy.__file__}\n")
        sys.exit(2)


# --- set-up time ------------------------------------------------------------------

def setup_probe(workload: str, seed: int) -> None:
    """Child side: import, generate and load the cases, then say ready."""
    import_program()
    from geodesy import cli
    wl = workloads.WORKLOADS[workload](seed)
    [cli.Scenario(case.params) for case in wl.cases]
    sys.stdout.write("ready\n")
    sys.stdout.flush()


class SetupProbes:
    """Set-up time: wall time from spawning a fresh interpreter to its first
    case. The probes are spaced over the measuring window, between cases, so
    that a slow or a fast spell of the machine weighs on few of them.
    """

    def __init__(self, workload: str, seed: int, budget_s: float):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                    "--workload", workload, "--seed", str(seed)]
        self.slots = [budget_s * k / SETUP_PROBES for k in range(SETUP_PROBES)]
        self.times: list[float] = []

    def due(self, elapsed: float) -> None:
        """Run the probes whose slot, in measured seconds, has come."""
        while self.slots and self.slots[0] <= elapsed:
            self.slots.pop(0)
            self.times.append(self._probe())

    def finish(self) -> list[float]:
        self.due(math.inf)
        return self.times

    def _probe(self) -> float:
        t0 = time.perf_counter()
        with subprocess.Popen(self.cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.stdout.read()
                code = proc.wait(timeout=60)
            except BaseException:
                proc.kill()
                raise
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        return elapsed


# --- passes ------------------------------------------------------------------------

def _more(passes: list, elapsed: float, budget_s: float) -> bool:
    """Start another pass if, at the mean pass time so far, it ends within
    the budget. The first pass always runs, so a run measures at least one
    whole pass however long it takes."""
    return not passes or elapsed + elapsed / len(passes) <= budget_s


def run_passes(wl, budget_s: float, probes: SetupProbes):
    """Whole passes over the cases, each ``(wall_s, [Outcome, ...])`` with
    ``wall_s`` the sum of the case times; set-up probes run between cases."""
    from cases import run_case
    passes, elapsed = [], 0.0
    while _more(passes, elapsed, budget_s):
        outcomes = []
        for case in wl.cases:
            probes.due(elapsed + sum(o.wall_s for o in outcomes))
            outcomes.append(run_case(case))
        passes.append((sum(o.wall_s for o in outcomes), outcomes))
        elapsed += passes[-1][0]
    return passes


def run_paired_passes(wl, budget_s: float, tracer):
    """Whole passes in which each case runs untraced and then traced, back to
    back, so that drift in machine speed hits both sides alike.

    Returns the untraced and the traced passes, each ``(wall_s, outcomes)``
    with ``wall_s`` the sum of the case times.
    """
    from cases import run_case
    plain, traced, elapsed = [], [], 0.0
    while _more(plain, elapsed, budget_s):
        plain_out, traced_out = [], []
        for case in wl.cases:
            plain_out.append(run_case(case))
            with tracer.installed(), tracer.case_span(case.name, case.kind):
                traced_out.append(run_case(case))
        for side, out in ((plain, plain_out), (traced, traced_out)):
            side.append((sum(o.wall_s for o in out), out))
        elapsed += plain[-1][0] + traced[-1][0]
    return plain, traced


def warm_up(wl) -> None:
    """Untimed: run cases until lazy imports and first-call costs are paid."""
    from cases import run_case
    t0 = time.perf_counter()
    for case in wl.cases:
        run_case(case)
        if time.perf_counter() - t0 > WARMUP_S:
            break


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with TAIL_BEYOND
    samples beyond it. Below 20 samples no percentile from the median up has
    that many beyond it; the median is reported then, and the report says so.
    """
    n = len(times)
    ranked = sorted(times)
    for pct in TAIL_LADDER:
        index = math.ceil(pct / 100.0 * n) - 1
        if n - 1 - index >= TAIL_BEYOND:
            return pct, ranked[index]
    return 50.0, statistics.median(ranked)


def sustained(times: list[float]) -> float:
    """The nearest-rank SUSTAINED_PCT percentile of ``times``."""
    return sorted(times)[math.ceil(SUSTAINED_PCT / 100.0 * len(times)) - 1]


def non_timing(outcomes) -> list:
    """Everything a pass produced except its timings."""
    return [(o.case, o.verified, o.error, repr(o.checks)) for o in outcomes]


def expected_failure(wl, outcome) -> str | None:
    """The known defect of this case, if it shows only that defect's symptoms."""
    defect = wl.known_defects.get(outcome.case)
    if defect is not None and set(outcome.symptoms) <= defect.symptoms:
        return defect.reason
    return None


def summarise(wl, passes) -> dict:
    from cases import headroom_dec
    outcomes = [o for _, ps in passes for o in ps]
    wall = sum(w for w, _ in passes)
    verified_times = [o.wall_s for o in outcomes if o.verified]
    # each verified case's sustained time over the passes
    case_times = [sustained([ps[i].wall_s for _, ps in passes])
                  for i, o in enumerate(passes[0][1]) if o.verified]
    failures = sorted({(o.case, o.error, expected_failure(wl, o))
                       for o in outcomes if not o.verified})
    n = len(verified_times)
    tail_pct, tail_s = tail(verified_times) if n else (math.nan, math.nan)
    # negative controls fail by design; known-defect cases have seed-dependent
    # accuracy, which would swamp the headroom of everything else
    excluded = {c.name for c in wl.cases if c.expect_fail} | set(wl.known_defects)
    return {
        "passes": len(passes),
        "attempted": len(outcomes),
        "failed": len(outcomes) - n,
        "failures": failures,
        "unexpected": sorted({name for name, _, known in failures if not known}),
        "repeatable": all(non_timing(ps) == non_timing(passes[0][1]) for _, ps in passes),
        "verified_per_s": n / len(passes) / sustained([w for w, _ in passes]),
        "case_p50_s": statistics.median(case_times) if case_times else math.nan,
        "case_tail_s": tail_s,
        "tail_pct": tail_pct,
        "tail_samples": n,
        "headroom": headroom_dec(passes[0][1], excluded),
        "wall_s": wall,
    }


# --- report ------------------------------------------------------------------------

def provenance(args) -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit, dirty = "unknown", None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=30)
        if top.returncode == 0 and Path(top.stdout.strip()).resolve() == ROOT:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
            status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                     "--untracked-files=no"],
                                    capture_output=True, text=True, timeout=30).stdout
            dirty = bool(status.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
        "commit": commit, "dirty": dirty, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "threads": THREAD_PINS,
    }


def print_failures(summary: dict) -> None:
    ratio = summary["failed"] / summary["attempted"]
    names = ", ".join(f"{name} [{err}; {known or 'NOT A KNOWN DEFECT'}]"
                      for name, err, known in summary["failures"]) or "none"
    print(f"fail_ratio            {ratio:.4f} 1   ({summary['failed']}/{summary['attempted']}); "
          f"unverified: {names}")


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, wl) -> tuple[dict, dict]:
    probes = SetupProbes(args.workload, args.seed, args.seconds)
    warm_up(wl)
    passes = run_passes(wl, args.seconds, probes)
    setup = probes.finish()
    s = summarise(wl, passes)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "verified_per_s": metric(s["verified_per_s"], "cases/s"),
        "case_p50_s": metric(s["case_p50_s"], "s"),
        "case_tail_s": metric(s["case_tail_s"], "s"),
        "accuracy_headroom_dec": metric(s["headroom"], "decades"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"workload {args.workload}: {len(wl.cases)} cases per pass, {s['passes']} passes "
          f"in {s['wall_s']:.2f} s; setup probes {[round(t, 3) for t in setup]}")
    for i, case in enumerate(wl.cases):
        times = [ps[i].wall_s for _, ps in passes]
        print(f"  {case.name:<44} median {statistics.median(times):9.4f} s  "
              f"p{SUSTAINED_PCT:.0f} {sustained(times):9.4f} s  "
              f"{'verified' if passes[0][1][i].verified else 'UNVERIFIED'}")
    for name, m in metrics.items():
        note = (f"   (p{s['tail_pct']:.0f} of {s['tail_samples']} verified cases"
                f"{'; too few for a tail' if s['tail_samples'] < 2 * TAIL_BEYOND else ''})"
                if name == "case_tail_s" else "")
        print(f"{name:<21} {m['value']:.6g} {m['unit']}{note}")
    print_failures(s)
    return {name: m for name, m in metrics.items() if name not in REPORT_ONLY}, s


def cli_case_ms(tracer, wl) -> dict:
    """Median traced wall time per runner kind; kinds the workload lacks are
    timed once on the shipped pool's first scenario of that kind."""
    from cases import run_case
    from geodesy import cli
    out = {}
    for kind in cli.RUNNERS:
        times = [end - start for _, k, start, end in tracer.cases if k == kind]
        if not times:
            case = workloads.pool_cases((kind,))[0]
            t0 = time.perf_counter()
            run_case(case)
            times = [time.perf_counter() - t0]
        out[f"cli.case_ms.{kind}"] = metric(1e3 * statistics.median(times), "ms")
    return out


def per_layer(args, wl) -> tuple[dict, dict]:
    import kernels
    from tracer import Tracer
    tracer = Tracer()
    plain_passes, traced_passes = run_paired_passes(wl, args.seconds, tracer)
    plain, traced = summarise(wl, plain_passes), summarise(wl, traced_passes)
    n = len(traced_passes)
    metrics = kernels.all_figures(wl, args.seed)
    metrics.update(cli_case_ms(tracer, wl))
    layers = tracer.layer_totals()
    for layer, t in layers.items():
        metrics[f"{layer}.calls"] = metric(t["calls"] / n, "count")
        metrics[f"{layer}.errors"] = metric(t["errors"] / n, "count")
    metrics["trace.verified_per_s"] = metric(traced["verified_per_s"], "cases/s")
    metrics["trace.overhead_pct"] = metric(
        100.0 * (plain["verified_per_s"] / traced["verified_per_s"] - 1.0), "%")
    print(f"workload {args.workload}: {n} passes, each case untraced then traced")
    # per pass; a layer's total is left out, as its spans nest in each other
    print(f"{'layer or span':<48} {'calls':>10} {'errors':>7} {'self ms':>10} {'total ms':>10}")
    rows = [(layer, t["calls"], t["errors"], t["self_s"], None) for layer, t in layers.items()]
    rows += [(key, st.calls, st.errors, st.self_time, st.total)
             for key, st in tracer.stats.items()]
    for key, calls, errors, self_s, total in sorted(rows, key=lambda r: ("." in r[0], -r[3])):
        if calls:
            total_ms = "" if total is None else f"{1e3 * total / n:10.2f}"
            print(f"{key:<48} {calls / n:>10.1f} {errors / n:>7.1f} {1e3 * self_s / n:>10.2f} "
                  f"{total_ms:>10}")
    for name, m in metrics.items():
        print(f"{name:<48} {m['value']:.6g} {m['unit']}")
    print_failures(traced)
    # tracing must not change a single non-timing output
    return metrics, summarise(wl, traced_passes + plain_passes)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    import_program()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    metrics, summary = (per_layer if args.trace else end_to_end)(args, wl)
    print("provenance " + json.dumps(provenance(args), sort_keys=True))
    correct = not summary["unexpected"] and summary["repeatable"]
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
