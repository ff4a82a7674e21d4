"""Spans around calls into each `geodesy` module, recorded from outside.

``Tracer.installed()`` replaces the public functions of every layer (and the
public query methods of its classes) by timing wrappers, in every `geodesy`
namespace that binds them, and restores the originals on exit. Nothing in
``src/`` is edited. Spans are kept in memory, aggregated per function: calls,
errors, total time, and self time (total minus the time of nested spans).
Root spans, one per case, are added by run.py through ``case_span``.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict

from geodesy import cli, dense, expr, geodesics, geometry, jets, kahler_norden, reconstruct

# layer -> (module, public functions, {class name: public methods}); names a
# later version of the module no longer has are skipped
LAYERS = {
    "expr": (expr, ("parse", "eval_jet2"), {}),
    # jets has no public entry besides the composition geometry uses
    "jets": (jets, ("compose_jet",), {}),
    "geometry": (geometry, ("metric_at", "christoffel_at", "christoffel_table",
                            "curvature_at", "sample_domain_points"), {}),
    "geodesics": (geodesics, ("integrate_explicit", "integrate_geodesic",
                              "explicit_second", "explicit_second_and_third",
                              "explicit_from_trajectory", "geodesic_residual"), {}),
    "dense": (dense, (), {"CurveDense": ("value", "d1", "d2"),
                          "SegmentedCurve": ("value", "d1", "d2")}),
    "reconstruct": (reconstruct, ("theta_from_geodesic", "reconstruct_basis", "ode_residual",
                                  "riccati_residual", "invert_to_geodesic", "integrate_riccati",
                                  "riccati_solution_is_geodesic", "path_independence_check"),
                    {"ThetaPair": ("top", "bot", "product"),
                     "SolutionBasis": ("wronskian",),
                     # the class behind basis.u_top / basis.u_bot
                     "_ExpIntegralSolution": ("value", "d1", "d2")}),
    "kahler_norden": (kahler_norden, ("cauchy_riemann_residual", "kn_metric_consistency",
                                      "kn_christoffel_correspondence", "kn_geodesic_split"), {}),
    "cli": (cli, ("run_curvature", "run_geodesic", "run_solve", "run_riccati",
                  "run_kn_verify", "build_report"), {}),
}

# solver statistics read off results: span name -> (count name, extractor)
RESULT_COUNTS = {
    "geodesics.integrate_explicit": ("explicit_nodes", lambda g: len(g.nodes)),
    "geodesics.integrate_geodesic": ("affine_steps", lambda t: len(t.s)),
}


class Stat:
    __slots__ = ("calls", "errors", "total", "self_time")

    def __init__(self):
        self.calls = self.errors = 0
        self.total = self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.layer_errors: dict[str, int] = defaultdict(int)
        self.cases: list[tuple] = []  # root spans: (case, kind, start, end)
        self.case_counts: dict[str, dict] = defaultdict(lambda: defaultdict(list))
        self._stack: list[list[float]] = []
        self._raised: dict[int, tuple] = {}  # id(exc) -> (exc, layers it left)
        self._case = None
        self._patches = self._plan()

    def _wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        stat = self.stats[key]
        counter = RESULT_COUNTS.get(key)
        stack = self._stack

        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._error(layer, exc)
                stat.errors += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - child[0]
            if counter is not None and self._case is not None:
                self.case_counts[self._case][counter[0]].append(counter[1](result))
            return result

        return traced

    def _error(self, layer: str, exc: Exception) -> None:
        """Count an exception once per layer it propagates out of."""
        _, layers = self._raised.setdefault(id(exc), (exc, set()))
        if layer not in layers:
            layers.add(layer)
            self.layer_errors[layer] += 1

    def _plan(self) -> list[tuple]:
        """(namespace, name, original, wrapper) for every binding to replace."""
        namespaces = [m for n, m in sys.modules.items() if n.split(".")[0] == "geodesy"]
        plan = []
        for layer, (module, functions, methods) in LAYERS.items():
            for name in functions:
                original = getattr(module, name, None)
                if original is None:
                    continue
                wrapper = self._wrap(layer, name, original)
                plan += [(ns, name, original, wrapper) for ns in namespaces
                         if getattr(ns, name, None) is original]
                plan += [(cli.RUNNERS, kind, original, wrapper)
                         for kind, runner in cli.RUNNERS.items() if runner is original]
            for cls_name, names in methods.items():
                cls = getattr(module, cls_name, None)
                for name in names:
                    original = vars(cls).get(name) if cls is not None else None
                    if original is None:
                        continue
                    plan.append((cls, name, original,
                                 self._wrap(layer, f"{cls_name}.{name}", original)))
        return plan

    @staticmethod
    def _bind(target, name, value) -> None:
        if isinstance(target, dict):
            target[name] = value
        else:
            setattr(target, name, value)

    @contextlib.contextmanager
    def installed(self):
        try:
            for target, name, _original, wrapper in self._patches:
                self._bind(target, name, wrapper)
            yield self
        finally:
            for target, name, original, _wrapper in reversed(self._patches):
                self._bind(target, name, original)

    @contextlib.contextmanager
    def case_span(self, case, kind: str):
        self._case = case
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.cases.append((case, kind, t0, time.perf_counter()))
            self._case = None
            self._raised.clear()

    def layer_totals(self) -> dict[str, dict]:
        out = {layer: {"calls": 0, "errors": self.layer_errors.get(layer, 0), "self_s": 0.0}
               for layer in LAYERS}
        for key, stat in self.stats.items():
            layer = key.split(".", 1)[0]
            out[layer]["calls"] += stat.calls
            out[layer]["self_s"] += stat.self_time
        return out
