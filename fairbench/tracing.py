"""Spans around the calls from one fairctl module into another.

The tracer replaces imported names inside the fairctl modules of this
process (for example ``fairctl.solver.project_fair_region``) with timing
wrappers; the package's files are not touched. Calls into ``core`` are hot
leaves (about 84 000 per ``optimize`` pass in the lp-ball root-find), so
they are counted and timed in aggregate per (operation, calling module,
callee) instead of one record each. Every other boundary records a span: name,
start, end, parent span and operation id. Everything stays in memory until
``write`` dumps it as JSON.

Classes imported across modules (``NonNegVector``, ``FairnessSpec``, ...)
are not wrapped, because replacing them would break ``isinstance``, and
neither are core's scalar helpers ``check_exponent`` and
``dispersion_constant``, which cost about half a microsecond, so that a
wrapper would double them. Their time counts to the calling layer.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from pathlib import Path

#: (importing module, imported name, span name). Names from ``core`` are
#: aggregated leaves; the rest are spans.
BOUNDARIES = (
    ("cli", "dispersion_report", "fairness.dispersion_report"),
    ("cli", "project_fair_region", "geometry.project_fair_region"),
    ("cli", "solve", "solver.solve"),
    ("cli", "pareto_sweep", "solver.pareto_sweep"),
    ("cli", "run_suite", "verifier.run_suite"),
    ("fairness", "normalize", "core.normalize"),
    ("fairness", "p_norm", "core.p_norm"),
    ("fairness", "_pnorm_rows", "core.pnorm_rows"),
    ("geometry", "_pnorm_rows", "core.pnorm_rows"),
    ("solver", "eps_max", "fairness.eps_max"),
    ("solver", "coefficient_of_variation", "fairness.coefficient_of_variation"),
    ("solver", "cv_bound", "fairness.cv_bound"),
    ("solver", "project_fair_region", "geometry.project_fair_region"),
    # pareto_sweep calls solve through the solver module's own namespace
    ("solver", "solve", "solver.solve"),
    ("verifier", "_pnorm_rows", "core.pnorm_rows"),
    ("verifier", "_eps_rows", "fairness.eps_rows"),
)

ROOT = "cli.main"


def _iterations(name: str, signature: inspect.Signature, args, kwargs, result) -> tuple[int, int]:
    """Iterations read from a result, and 1 if a projection stopped at its cap."""
    if name == "geometry.project_fair_region":
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        return result.iterations, int(result.iterations >= call.arguments["max_iter"])
    if name == "solver.solve":
        return result.iterations, 0
    return 0, 0


class Tracer:
    """In-memory span recorder; ``install`` wraps the boundaries listed above."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.leaves: list[tuple] = []
        self.op_names: dict[int, str] = {}
        self._stack: list[int] = []
        self._counters: dict[tuple[str, str], list] = {}
        self._op = -1
        self._next_id = 0
        self._restore: list[tuple] = []
        self._root = None

    def install(self, package) -> None:
        self._root = self._span(package.cli.main, ROOT)
        for module_name, attr, name in BOUNDARIES:
            module = getattr(package, module_name)
            original = getattr(module, attr)
            if name.startswith("core."):
                wrapper = self._leaf(original, name, module_name)
            else:
                wrapper = self._span(original, name)
            self._restore.append((module, attr, original))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def call(self, op_id: int, op_name: str, argv: list[str]) -> int:
        """Run ``cli.main(argv)`` as the root span of operation ``op_id``.

        All spans inside share op_id. Leaf counters are read before and
        after, and the difference is stored as this operation's leaf record.
        """
        self._op = op_id
        self.op_names[op_id] = op_name
        before = {key: list(acc) for key, acc in self._counters.items()}
        try:
            return self._root(argv)
        finally:
            for (caller, name), acc in self._counters.items():
                base = before.get((caller, name), [0, 0.0, 0])
                if acc[0] != base[0]:
                    self.leaves.append(
                        (op_id, caller, name, acc[0] - base[0], acc[1] - base[1], acc[2] - base[2])
                    )
            self._op = -1

    def _span(self, fn, name: str):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op < 0:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else 0
            self._next_id += 1
            span_id = self._next_id
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            iterations, at_cap = _iterations(name, signature, args, kwargs, result)
            self.spans.append((self._op, span_id, parent, name, start, end, iterations, at_cap))
            return result

        return wrapper

    def _leaf(self, fn, name: str, caller: str):
        acc = self._counters.setdefault((caller, name), [0, 0.0, 0])
        rows = name == "core.pnorm_rows"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            acc[1] += time.perf_counter() - start
            acc[0] += 1
            if rows:
                acc[2] += args[0].size
            return result

        return wrapper

    def metrics(self, ops: int, suite_ms: dict[str, float]) -> dict[str, float]:
        """Per-operation layer figures from the recorded spans and leaves."""
        total = {}
        count = {}
        iterations = {}
        at_cap = 0
        child_time = {}
        for _, span_id, parent, name, start, end, its, cap in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            count[name] = count.get(name, 0) + 1
            iterations[name] = iterations.get(name, 0) + its
            at_cap += cap
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        cli_self = sum(
            (end - start) - child_time.get(span_id, 0.0)
            for _, span_id, _, name, start, end, _, _ in self.spans
            if name == ROOT
        )
        leaf_calls = {}
        leaf_time = {}
        elems = 0
        geometry_rows = 0
        for _, caller, name, calls, seconds, size in self.leaves:
            leaf_calls[name] = leaf_calls.get(name, 0) + calls
            leaf_time[name] = leaf_time.get(name, 0.0) + seconds
            elems += size
            if name == "core.pnorm_rows" and caller == "geometry":
                geometry_rows += calls
        per = 1.0 / ops
        out = {
            "cli.self_ms": cli_self * 1e3 * per,
            "fairness.dispersion_report.ms": total.get("fairness.dispersion_report", 0.0) * 1e3 * per,
            "fairness.dispersion_report.calls": count.get("fairness.dispersion_report", 0) * per,
            "core.p_norm.calls": leaf_calls.get("core.p_norm", 0) * per,
            "core.pnorm_rows.ms": leaf_time.get("core.pnorm_rows", 0.0) * 1e3 * per,
            "core.pnorm_rows.calls": leaf_calls.get("core.pnorm_rows", 0) * per,
            "core.pnorm_rows.elems": elems * per,
            "fairness.eps_rows.ms": total.get("fairness.eps_rows", 0.0) * 1e3 * per,
        }
        for suite, ms in suite_ms.items():
            out[f"verifier.suite.{suite}.ms"] = ms
        out.update(
            {
                "geometry.project_fair_region.ms": total.get("geometry.project_fair_region", 0.0) * 1e3 * per,
                "geometry.project_fair_region.calls": count.get("geometry.project_fair_region", 0) * per,
                "geometry.project_fair_region.iterations": iterations.get("geometry.project_fair_region", 0) * per,
                "geometry.project_fair_region.at_cap": at_cap * per,
                "geometry.pnorm_rows.calls": geometry_rows * per,
                "solver.solve.ms": total.get("solver.solve", 0.0) * 1e3 * per,
                "solver.solve.calls": count.get("solver.solve", 0) * per,
                "solver.solve.iterations": iterations.get("solver.solve", 0) * per,
                "solver.pareto_sweep.ms": total.get("solver.pareto_sweep", 0.0) * 1e3 * per,
            }
        )
        return out

    def write(self, path: Path, summary: dict) -> None:
        """Dump the run summary, every span and every leaf aggregate as JSON."""
        doc = {
            **summary,
            "operations": {str(k): v for k, v in sorted(self.op_names.items())},
            "span_fields": ["op", "id", "parent", "name", "start", "end", "iterations", "at_cap"],
            "spans": self.spans,
            "leaf_fields": ["op", "caller", "name", "calls", "seconds", "elems"],
            "leaves": self.leaves,
        }
        path.write_text(json.dumps(doc))
