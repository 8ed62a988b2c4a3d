"""Layer tracing from outside the program, for the benchmark's traced run.

:meth:`Tracer.install` replaces each layer function below with a wrapper, in
every ``speedsched`` module namespace that holds it by name (``harness`` and
``partition`` both import ``exact_schedule``, ``solvers`` calls its own
``lpt_schedule`` inside every exact solve, and so on).  A wrapper records a
span (name, start, end, parent) in memory and, for the exact solver and
``ipr``, what the call returned.  :meth:`Tracer.uninstall` puts the original
functions back, so untraced jobs run the program untouched.

Per-draw and per-bag helpers (``gen.mix64``, ``gen.normal_inv_cdf``, the
``model`` module, ``harness.is_binary_speed``) are left alone: they are
called inside the layers' inner loops, and wrapping them would distort the
run.  Their cost shows as their callers' self time.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path
from typing import Callable

LAYERS = {
    "gen": ("gen_synthetic", "gen_prop1_instance", "gen_tradeoff_instance",
            "gen_binary_lb_instance", "synthetic_batch"),
    "partition": ("lpt_partition", "consistent_partition", "ipr", "fluid_ipr",
                  "binary_speed_partition", "lpt_rebalance"),
    "solvers": ("opt_lower_bound", "lpt_schedule", "exact_schedule", "brute_force_makespan",
                "merge_to_fit", "capacity_robust_schedule"),
    "harness": ("evaluate", "make_partition", "oracle_value", "run_experiment",
                "verify_properties", "random_small_instance", "rows_to_csv",
                "theory_curves", "curves_to_csv"),
}

# Per-layer metrics that are counts, or ratios of counts: they must repeat
# exactly for the same code and seed.
COUNT_METRICS = (
    "solvers.exact_schedule.calls",
    "solvers.exact_schedule.nodes",
    "solvers.exact_schedule.budget_failures",
    "solvers.exact_schedule.repeat_share",
    "solvers.lpt_schedule.calls",
    "partition.ipr.calls",
    "partition.ipr.iterations",
    "partition.ipr.stop_alpha_share",
    "partition.consistent_partition.calls",
    "partition.lpt_partition.calls",
    "gen.gen_synthetic.calls",
    "harness.oracle_value.calls",
)

_NAME, _START, _END, _PARENT = range(4)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.exact: list[tuple] = []  # (span, (loads, speeds), nodes, budget exhausted)
        self.ipr: list[tuple] = []  # (span, jobs, rho, IprResult)
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def root(self, name: str, fn: Callable) -> Callable:
        """Wrap the benchmark's own entry call, the parent of every other span."""
        return self._wrap(name, fn, None)

    def _wrap(self, name: str, fn: Callable, observe: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            result = error = None
            span[_START] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                span[_END] = clock()
                stack.pop()
                if observe is not None:
                    observe(index, args, kwargs, result, error)

        return wrapper

    def _observe_exact(self, index, args, kwargs, result, error) -> None:
        loads = args[0] if args else kwargs["loads"]
        speeds = args[1] if len(args) > 1 else kwargs["speeds"]
        if result is not None:
            nodes, exhausted = result.nodes_explored, False
        else:
            nodes = getattr(error, "nodes_explored", 0)
            exhausted = type(error).__name__ == "BudgetExceededError"
        self.exact.append((index, (tuple(loads), tuple(speeds)), nodes, exhausted))

    def _observe_ipr(self, index, args, kwargs, result, error) -> None:
        if result is not None:
            jobs = args[0] if args else kwargs["jobs"]
            config = args[2] if len(args) > 2 else kwargs["config"]
            self.ipr.append((index, tuple(jobs), config.rho, result))

    def install(self) -> None:
        observers = {"solvers.exact_schedule": self._observe_exact, "partition.ipr": self._observe_ipr}
        wrappers: dict[int, tuple[Callable, Callable]] = {}
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"speedsched.{layer}")
            for fname in names:
                fn = getattr(module, fname, None)
                if fn is None:  # a later version may have removed it
                    continue
                name = f"{layer}.{fname}"
                wrappers[id(fn)] = (fn, self._wrap(name, fn, observers.get(name)))
        for modname, module in list(sys.modules.items()):
            if modname != "speedsched" and not modname.startswith("speedsched."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, value = self._patched.pop()
            setattr(module, attr, value)

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _ipr_stopped_on_alpha(jobs: tuple, rho: float, result) -> bool:
    """ipr stops on the rho target once its bags are balanced; otherwise the
    alpha guard refused the next step and the bags stay unbalanced."""
    bags = [bag for coll in result.state.assignment.collections for bag in coll]
    loads = [sum(jobs[j] for j in bag) for bag in bags]
    multi = [load for bag, load in zip(bags, loads) if len(bag) >= 2]
    return bool(multi) and max(multi) > rho * min(loads)


def per_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Aggregate one traced job list into the per-layer metrics (without
    ``trace.overhead_share``, which needs the untraced pass)."""
    spans = tracer.spans
    duration = [s[_END] - s[_START] for s in spans]
    children = [0.0] * len(spans)
    for s, d in zip(spans, duration):
        if s[_PARENT] >= 0:
            children[s[_PARENT]] += d
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for s, d, c in zip(spans, duration, children):
        calls[s[_NAME]] = calls.get(s[_NAME], 0) + 1
        self_s[s[_NAME]] = self_s.get(s[_NAME], 0.0) + (d - c)

    out: dict[str, float] = {}

    def layer(name: str, *fields: str) -> None:
        for field in fields:
            out[f"{name}.{field}"] = calls.get(name, 0) if field == "calls" else self_s.get(name, 0.0)

    # Exact solver: counts, search rate, call latency, repeated subproblems.
    exact_ms = [duration[i] * 1e3 for i, _, _, _ in tracer.exact]
    seen: set = set()
    repeats = 0
    repeat_s = 0.0
    for i, key, _, _ in tracer.exact:
        if key in seen:
            repeats += 1
            repeat_s += duration[i]
        seen.add(key)
    nodes = sum(n for _, _, n, _ in tracer.exact)
    exact_self = self_s.get("solvers.exact_schedule", 0.0)
    layer("solvers.exact_schedule", "calls", "self_s")
    out["solvers.exact_schedule.nodes"] = nodes
    out["solvers.exact_schedule.nodes_per_s"] = nodes / exact_self if exact_self > 0 else 0.0
    out["solvers.exact_schedule.call_p50_ms"] = _percentile(exact_ms, 50)
    out["solvers.exact_schedule.call_p99_ms"] = _percentile(exact_ms, 99)
    out["solvers.exact_schedule.budget_failures"] = sum(1 for *_, e in tracer.exact if e)
    out["solvers.exact_schedule.repeat_share"] = repeats / len(exact_ms) if exact_ms else 0.0
    out["solvers.exact_schedule.repeat_time_share"] = (
        repeat_s * 1e3 / sum(exact_ms) if exact_ms else 0.0
    )
    layer("solvers.lpt_schedule", "calls", "self_s")
    layer("solvers.brute_force_makespan", "self_s")
    layer("solvers.capacity_robust_schedule", "self_s")

    layer("partition.ipr", "calls", "self_s")
    out["partition.ipr.iterations"] = sum(r.state.iterations for *_, r in tracer.ipr)
    alpha_stops = sum(1 for _, jobs, rho, r in tracer.ipr if _ipr_stopped_on_alpha(jobs, rho, r))
    out["partition.ipr.stop_alpha_share"] = alpha_stops / len(tracer.ipr) if tracer.ipr else 0.0
    layer("partition.consistent_partition", "calls", "self_s")
    layer("partition.lpt_partition", "calls", "self_s")
    layer("partition.binary_speed_partition", "self_s")
    layer("partition.fluid_ipr", "self_s")

    layer("gen.gen_synthetic", "calls", "self_s")
    layer("harness.oracle_value", "calls", "self_s")

    # An instance runs from its generation to the next generation under the
    # same root call, or to the end of that call.
    root_of: list[int] = []
    for i, s in enumerate(spans):
        root_of.append(i if s[_PARENT] < 0 else root_of[s[_PARENT]])
    gens = [i for i, s in enumerate(spans) if s[_NAME] == "gen.gen_synthetic"]
    instance_ms = []
    for a, b in zip(gens, gens[1:] + [None]):
        root = root_of[a]
        end = spans[b][_START] if b is not None and root_of[b] == root else spans[root][_END]
        instance_ms.append((end - spans[a][_START]) * 1e3)
    out["harness.instance_p50_ms"] = _percentile(instance_ms, 50)
    out["harness.instance_p99_ms"] = _percentile(instance_ms, 99)
    out["harness.self_s"] = sum(v for k, v in self_s.items() if k.startswith("harness."))
    out["cli.self_s"] = self_s.get("cli.main", 0.0)
    return out
