"""Self-tests of the benchmark itself, kept out of the repository's test suite.

    python3 bench/selftest.py              # about five minutes on 2 cores
    python3 -m pytest -q bench/selftest.py

They check that the generated cases are a pure function of the seed; that
two passes at one seed, in two fresh interpreters, give identical non-timing
outputs (every max_deviation, explicit_nodes, affine_steps and the verified
set), and that tracing changes none of them; that the gate fails closed; that
a run prints exactly the metrics of BENCHMARK.json; and that a checkout
without the program makes the benchmark fail without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS threads before numpy loads)

run.import_program()

import cases  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SEED = 7


def fingerprint(workload: str, seed: int) -> dict:
    """Every non-timing output of one traced pass, keyed by case."""
    wl = workloads.WORKLOADS[workload](seed)
    tracer = Tracer()
    [(_, plain)], [(_, outcomes)] = run.run_paired_passes(wl, 0.0, tracer)
    assert run.non_timing(plain) == run.non_timing(outcomes), "tracing changed an output"
    return {o.case: {"verified": o.verified, "symptoms": list(o.symptoms),
                     "checks": [[name, repr(dev), repr(tol)] for name, dev, tol in o.checks],
                     **tracer.case_counts[o.case]}
            for o in outcomes}


def _fresh_fingerprint(workload: str, seed: int) -> dict:
    out = subprocess.run([sys.executable, __file__, "--fingerprint", workload, str(seed)],
                         capture_output=True, text=True, timeout=600, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_generation_is_a_pure_function_of_the_seed():
    for make in workloads.WORKLOADS.values():
        a, b, c = make(SEED), make(SEED), make(SEED + 1)
        assert [(x.name, x.kind, x.params) for x in a.cases] == \
               [(x.name, x.kind, x.params) for x in b.cases]
        # another seed keeps the mix and changes the draws
        assert [(x.name, x.kind) for x in a.cases] == [(x.name, x.kind) for x in c.cases]
        assert [x.params for x in a.cases] != [x.params for x in c.cases]


def test_two_passes_at_one_seed_agree():
    for workload in workloads.WORKLOADS:
        first = _fresh_fingerprint(workload, SEED)
        assert first == _fresh_fingerprint(workload, SEED), workload
        wl = workloads.WORKLOADS[workload](SEED)
        for name, fp in first.items():
            defect = wl.known_defects.get(name)
            assert fp["verified"] or (defect and set(fp["symptoms"]) <= defect.symptoms), \
                (workload, name, fp["symptoms"])
        counted = [fp for fp in first.values() if "explicit_nodes" in fp or "affine_steps" in fp]
        assert counted or workload == "curvature-sweep", workload


def test_gate_fails_closed():
    def check(dev):
        return {"name": "c", "max_deviation": dev, "tolerance": 1e-6}
    assert cases.gate([check(1e-7)])
    assert not cases.gate([check(2e-6)])
    assert not cases.gate([check(math.nan)])
    assert not cases.gate([check(math.inf)])
    assert not cases.gate([])


def test_a_raise_is_recorded_and_a_passing_control_fails():
    bad = workloads.Case("bad", "curvature", {"family": "hyperbolic", "h": "log(x)",
                                              "points": "5", "seed": "1"})
    out = cases.run_case(bad)
    assert not out.verified and out.error == "DomainError"
    control = workloads.Case("control", "curvature", {"family": "hyperbolic", "h": "sin(x)+3",
                                                      "points": "5", "seed": "1"},
                             expect_fail=True)
    out = cases.run_case(control)
    assert not out.verified and out.error == "negative control passed"


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", "--workload", "curvature-sweep",
                           "--seed", str(SEED), "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def test_metrics_are_those_of_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        done = _run(HERE.parent, "--trace", trace)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert {name: m["unit"] for name, m in result["metrics"].items()} == \
               {m["name"]: m["unit"] for m in spec[key]}


def test_fails_without_the_program():
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copy(HERE.parent / "BENCHMARK.json", root)
        shutil.copytree(HERE, root / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        done = _run(root, "--trace", "0")
        assert done.returncode != 0
        assert not done.stdout.strip()


if __name__ == "__main__":
    if sys.argv[1:2] == ["--fingerprint"]:
        print(json.dumps(fingerprint(sys.argv[2], int(sys.argv[3])), sort_keys=True))
        sys.exit(0)
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok  {name}")
