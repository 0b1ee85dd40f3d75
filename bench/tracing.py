"""Outside-in span tracer for the benchmark's traced run.

:meth:`Tracer.install` wraps each layer's entry points from outside the
program: class methods are replaced on their class, module functions in
every ``repro`` module (and module-level registry dict) that bound them.
Each call becomes a span ``(name, start, end, parent, op_id)``; the
harness opens one root span (``harness``) per op.  A span's self time is
its duration minus the time its child spans cover, so the self times
of all spans of an op sum to the op's root span.  Counters (cache hits,
kernel events, solver backend, ...) are read at the same call
boundaries.  :meth:`Tracer.uninstall` puts every patched attribute
back.

Aggregates (calls, inclusive and self time, counters) are kept exactly
for every span; the raw spans themselves are kept in memory up to
``max_spans`` and written as a Chrome trace by :meth:`Tracer.write_chrome`.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Optional

__all__ = ["Tracer", "METHOD_TARGETS", "FUNCTION_TARGETS", "LAYERS"]

Hook = Optional[Callable[..., Any]]


# ----------------------------------------------------------------------
# Counter hooks: ``before(args, kwargs) -> state`` runs before the call,
# ``after(counts, state, args, kwargs, result)`` after it.
# ----------------------------------------------------------------------
def _cache_hit(counts, _state, _args, _kwargs, result) -> None:
    if result is not None:
        counts["compiler.cache.hits"] += 1


def _resim_before(args, kwargs):
    from repro.compiler.resim import default_resim_cache

    cache = kwargs.get("cache", args[1] if len(args) > 1 else None)
    cache = cache if cache is not None else default_resim_cache()
    return cache, cache.requests, cache.hits


def _resim_after(counts, state, _args, _kwargs, _result) -> None:
    cache, requests, hits = state
    counts["compiler.resim.requests"] += cache.requests - requests
    counts["compiler.resim.hits"] += cache.hits - hits


def _flow(counts, _state, _args, _kwargs, _result) -> None:
    counts["sim.flows"] += 1


def _vector_solve(counts, _state, _args, _kwargs, _result) -> None:
    counts["sim.solve.vector"] += 1


def _events_before(args, _kwargs) -> int:
    return args[0].processed


def _events_after(counts, before, args, _kwargs, _result) -> None:
    counts["runtime.events"] += args[0].processed - before


def _service_report(counts, _state, _args, _kwargs, report) -> None:
    counts["service.requests"] += report.n_requests
    counts["service.shed"] += report.status_counts.get("shed", 0)
    counts["service.invalid"] += report.status_counts.get("invalid", 0)
    counts["service.coalesced"] += report.n_coalesced
    counts["service.retries"] += report.n_retries


#: (module, "Class.method", span name, before, after)
METHOD_TARGETS: tuple[tuple[str, str, str, Hook, Hook], ...] = (
    ("repro.compiler.passes", "LowerPass.run", "compiler.pass.lower", None, None),
    ("repro.compiler.passes", "SelectPass.run", "compiler.pass.select", None, None),
    ("repro.compiler.passes", "SchedulePass.run", "compiler.pass.schedule", None, None),
    ("repro.compiler.passes", "FaultRewritePass.run", "compiler.pass.fault_rewrite",
     None, None),
    ("repro.compiler.passes", "EmitPass.run", "compiler.pass.emit", None, None),
    ("repro.compiler.passes", "ValidatePass.run", "compiler.pass.validate", None, None),
    ("repro.compiler.cache", "PlanCache.lookup", "compiler.cache.lookup",
     None, _cache_hit),
    ("repro.compiler.cache", "PlanCache.store", "compiler.cache.store", None, None),
    ("repro.compiler.edge", "EdgeResharding.time", "compiler.edge.time", None, None),
    ("repro.core.executor", "PlanRunner.run", "core.simulate_plan", None, None),
    # Network.run only hands over to the kernel; the network's own work
    # runs in its event handlers, so those are spans of the layer too.
    ("repro.sim.network", "Network.run", "sim.network", None, None),
    ("repro.sim.network", "Network.start_flow", "sim.network", None, _flow),
    ("repro.sim.network", "Network._activate", "sim.network", None, None),
    ("repro.sim.network", "Network._on_completion", "sim.network", None, None),
    ("repro.sim.solver", "ScalarSolver.solve", "sim.solve", None, None),
    ("repro.sim.solver", "VectorSolver.solve", "sim.solve", None, _vector_solve),
    ("repro.runtime.kernel", "EventLoop.run", "runtime.kernel.run",
     _events_before, _events_after),
    ("repro.service.service", "ReshardingService.try_submit", "service.submit",
     None, None),
)

#: (defining module, function, span name, before, after)
FUNCTION_TARGETS: tuple[tuple[str, str, str, Hook, Hook], ...] = (
    ("repro.compiler.pipeline", "compile_resharding", "compiler.compile", None, None),
    ("repro.compiler.cache", "plan_signature", "compiler.signature", None, None),
    ("repro.compiler.resim", "resimulate", "compiler.resim",
     _resim_before, _resim_after),
    ("repro.scheduling.algorithms", "naive_schedule", "scheduling", None, None),
    ("repro.scheduling.algorithms", "load_balance_schedule", "scheduling", None, None),
    ("repro.scheduling.algorithms", "dfs_schedule", "scheduling", None, None),
    ("repro.scheduling.algorithms", "randomized_greedy_schedule", "scheduling",
     None, None),
    ("repro.scheduling.algorithms", "ensemble_schedule", "scheduling", None, None),
    ("repro.core.data", "apply_plan", "core.apply_plan", None, None),
    ("repro.pipeline.executor", "simulate_pipeline", "pipeline.simulate", None, None),
    ("repro.pipeline.schedules", "schedule_job", "pipeline.schedule_job", None, None),
    ("repro.analysis.plan_checker", "check_plan", "analysis.check_plan", None, None),
    ("repro.service.loadgen", "build_report", "service.report",
     None, _service_report),
)

#: span name of the per-op root span; its self time is the harness's
ROOT = "harness"

#: layer of a span name: its first dotted component
LAYERS = (
    "compiler", "scheduling", "core", "sim", "runtime", "pipeline",
    "analysis", "service", ROOT,
)


def _import_all_repro_modules() -> None:
    """Import every ``repro`` module so every binding exists before patching."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


class Tracer:
    """Spans and counters for one traced run; see the module docstring."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        max_spans: int = 50_000,
    ) -> None:
        self.clock = clock
        self.max_spans = max_spans
        #: kept spans: (index, name, start, end, parent index, op id)
        self.spans: list[tuple[int, str, float, float, int, Optional[str]]] = []
        self.n_spans = 0
        self.calls: Counter[str] = Counter()
        #: wall time of the outermost span of each name (recursion and
        #: same-name nesting are not counted twice)
        self.inclusive: Counter[str] = Counter()
        self.self_time: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.op_id: Optional[str] = None
        # open spans: [name, start, time covered by children, index]
        self._stack: list[list[Any]] = []
        self._open: Counter[str] = Counter()
        # (owner, key, original): owner is a class, a module or a dict
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans -----------------------------------------------------------
    def enter(self, name: str) -> None:
        index = self.n_spans
        self.n_spans += 1
        self._open[name] += 1
        self._stack.append([name, self.clock(), 0.0, index])

    def exit(self) -> None:
        end = self.clock()
        name, start, covered, index = self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_time[name] += duration - covered
        self._open[name] -= 1
        if not self._open[name]:
            self.inclusive[name] += duration
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        if index < self.max_spans:
            self.spans.append(
                (index, name, start, end, -1 if parent is None else parent[3], self.op_id)
            )

    def begin_op(self, op_id: str) -> None:
        self.op_id = op_id
        self.enter(ROOT)

    def end_op(self) -> None:
        self.exit()
        self.op_id = None

    # -- patching --------------------------------------------------------
    def wrap(self, name: str, fn: Callable, before: Hook = None, after: Hook = None):
        """``fn`` recorded as span ``name``, with optional counter hooks."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(tracer.counts, state, args, kwargs, result)
            return result

        return traced

    def _set(self, owner: Any, key: str, original: Any, value: Any) -> None:
        self._patches.append((owner, key, original))
        if isinstance(owner, dict):
            owner[key] = value
        else:
            setattr(owner, key, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        _import_all_repro_modules()
        for module, qualname, name, before, after in METHOD_TARGETS:
            cls_name, method = qualname.split(".")
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[method]
            self._set(cls, method, original, self.wrap(name, original, before, after))
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("repro")]
        for module, fn_name, name, before, after in FUNCTION_TARGETS:
            original = getattr(importlib.import_module(module), fn_name)
            wrapper = self.wrap(name, original, before, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, original, wrapper)
                    elif isinstance(value, dict):
                        for item, entry in list(value.items()):
                            if entry is original:
                                self._set(value, item, original, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- output ----------------------------------------------------------
    def layer_self_ms(self) -> dict[str, float]:
        """Total self time per layer (ms), including the harness."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_time.items():
            out[name.split(".")[0]] += seconds * 1e3
        return out

    def write_chrome(self, path: Path, meta: dict) -> None:
        """Write the kept spans in Chrome trace-event format."""
        spans = sorted(self.spans)
        origin = spans[0][2] if spans else 0.0
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 0,
                "tid": 0,
                "args": {"op": op_id, "span": index, "parent": parent},
            }
            for index, name, start, end, parent, op_id in spans
        ]
        meta = {**meta, "spans_total": self.n_spans, "spans_written": len(events)}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "otherData": meta}))
