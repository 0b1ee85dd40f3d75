"""Work counts of one seed-0 pass over the benchmark's workloads.

:func:`workload_pass` runs every op of one ``bench/workloads.py``
workload (``serve_bursty``: the fixed subset :data:`SERVE_SCENARIOS`)
in universe order, with the process-wide plan and resim caches reset
before each op as the benchmark does, under stdlib spies that count per
op:

* ``events.pushed.<producer>`` / ``events.cancelled.<producer>`` —
  kernel events by their callback's ``__qualname__``, and
  ``events.dispatched``, the events the loop ran;
* ``flows.<primitive>`` — ``Network.start_flow`` calls by the collective
  primitive of :mod:`repro.sim.primitives` that made them;
* ``solves`` and ``fills`` — ``ScalarSolver.solve`` calls and the fills
  they ran;
* ``simulate_plan`` (``PlanRunner.run`` calls) and ``memo_hits``
  (``TimingMemo.lookup`` returning a result);
* ``compiles`` (``compile_resharding``), ``cache_lookups``
  (``PlanCache.lookup``), ``plan_signature`` and ``timing_signature``
  calls;
* ``data_tiles`` and ``data_tile_bytes`` — the destination tiles the
  data plane built (``assemble_tile`` calls) and their bytes;
* ``greedy_schedules`` and ``greedy_draws`` — §3.2's randomized greedy
  (``randomized_greedy_schedule`` calls) and the ``getrandbits`` calls
  its generators made.  The scheduler module's ``random`` is bound to a
  namespace whose ``Random`` has a Python-level ``getrandbits``, which
  ``random.Random`` then also routes ``shuffle`` through, so a shuffle
  and an inline draw are counted alike.

A count that stays zero is left out.  The pass also keeps every memo
hit as a :class:`MemoHit`, for the replay gate in
``tests/test_compiler.py``, and each op's cyclic garbage: the pass runs
with the collector off, and after each op (its result dropped, the
process-wide caches reset) ``gc.collect()`` counts the objects only the
collector could free, for ``tests/test_object_lifetimes.py``.  Each
workload runs at most once per process.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import importlib.util
import random
import sys
import types
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional

from repro.compiler import cache as cache_module
from repro.compiler import pipeline as pipeline_module
from repro.compiler import reset_default_plan_cache, reset_default_resim_cache
from repro.core import data as data_module
from repro.core.executor import PlanRunner, simulate_plan
from repro.runtime.kernel import EventLoop
from repro.scheduling import algorithms as algorithms_module
from repro.sim import primitives
from repro.sim.network import Network
from repro.sim.solver import ScalarSolver

ROOT = Path(__file__).resolve().parent.parent
SEED = 0
WORKLOADS = ("paper_suite", "train_iter", "reshard_zoo", "serve_bursty")
#: the ``serve_bursty`` scenarios the ledger runs (of the benchmark's 64)
SERVE_SCENARIOS = tuple(f"scenario/{s:02d}" for s in range(4))


def build_ops(workload: str, seed: int) -> list:
    """``bench/workloads.py``'s op universe, loaded without editing ``bench/``."""
    module = sys.modules.get("workloads")
    if module is None:
        path = ROOT / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("workloads", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules["workloads"] = module
        spec.loader.exec_module(module)
    return module.build_ops(workload, seed)


#: the state class whose methods start a chained collective's later flows
STATE_CLASSES = {
    "ring_allgather": primitives._RingAllGather,
    "ring_broadcast": primitives._RingBroadcast,
    "switch_multicast": primitives._SwitchMulticast,
}


def _primitive_of_code() -> dict[types.CodeType, str]:
    """Every code object of each collective primitive (nested ones too),
    and of its state class's methods."""
    owner: dict[types.CodeType, str] = {}
    for name in primitives.__all__:
        fn = getattr(primitives, name)
        if not isinstance(fn, types.FunctionType):
            continue
        stack = [fn.__code__]
        state = STATE_CLASSES.get(name)
        if state is not None:
            stack += [
                m.__code__ for m in vars(state).values() if isinstance(m, types.FunctionType)
            ]
        while stack:
            code = stack.pop()
            owner[code] = name
            stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return owner


@dataclass(frozen=True)
class MemoHit:
    """A plan whose timing came from the memo, and what the memo returned."""

    op_id: str
    plan: Any
    faults: Any
    retry_policy: Any
    #: the shared result's :func:`timing_fields`
    fields: dict


def timing_fields(result) -> dict:
    """A result's fields other than ``network``, plus its bus digest."""
    out = {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result)
        if f.name != "network"
    }
    out["digest"] = result.telemetry.digest()
    return out


class _CountingRandom(random.Random):
    """A generator that counts its ``getrandbits`` calls into ``counts``.

    Defined once: a class made per op would be cyclic garbage.
    """

    counts: Counter[str] = Counter()

    def getrandbits(self, k: int) -> int:
        self.counts["greedy_draws"] += 1
        return super().getrandbits(k)


class Spies:
    """Counting wrappers installed on the simulator and compiler."""

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()
        self.hits: list[tuple[Any, Any, Any, Any]] = []
        self._undo: list[Callable[[], None]] = []
        self._signed: Optional[tuple[Any, Any, Any]] = None

    # -- installing -----------------------------------------------------
    def _method(self, cls: type, name: str, make: Callable[[Callable], Callable]) -> None:
        had = name in cls.__dict__
        previous = cls.__dict__.get(name)
        setattr(cls, name, make(getattr(cls, name)))
        self._undo.append(
            lambda: setattr(cls, name, previous) if had else delattr(cls, name)
        )

    def _function(self, original: Callable, make: Callable[[Callable], Callable]) -> None:
        """Replace ``original`` in every ``repro`` module that binds it."""
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append(lambda mod=mod, key=key: setattr(mod, key, original))

    def _counted(self, key: str) -> Callable[[Callable], Callable]:
        counts = self.counts

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def install(self) -> None:
        counts = self.counts
        owner = _primitive_of_code()

        def call_at(fn):
            def wrapper(loop, when, callback, *args):
                counts["events.pushed." + callback.__qualname__] += 1
                return fn(loop, when, callback, *args)

            return wrapper

        def cancel(fn):
            def wrapper(loop, entry):
                if entry[2] is not None:
                    counts["events.cancelled." + entry[2].__qualname__] += 1
                return fn(loop, entry)

            return wrapper

        def run(fn):
            def wrapper(loop, *args, **kwargs):
                before = loop.processed
                try:
                    return fn(loop, *args, **kwargs)
                finally:
                    counts["events.dispatched"] += loop.processed - before

            return wrapper

        def start_flow(fn):
            def wrapper(*args, **kwargs):
                code = sys._getframe(1).f_code
                counts["flows." + owner.get(code, code.co_name)] += 1
                return fn(*args, **kwargs)

            return wrapper

        def signed(fn):
            def wrapper(plan, faults=None, retry_policy=None):
                counts["timing_signature"] += 1
                self._signed = (plan, faults, retry_policy)
                return fn(plan, faults, retry_policy)

            return wrapper

        def memo_lookup(fn):
            def wrapper(memo, key):
                found = fn(memo, key)
                if found is not None:
                    counts["memo_hits"] += 1
                    self.hits.append((*self._signed, found))
                return found

            return wrapper

        def assemble_tile(fn):
            def wrapper(*args, **kwargs):
                tile = fn(*args, **kwargs)
                counts["data_tiles"] += 1
                counts["data_tile_bytes"] += tile.nbytes
                return tile

            return wrapper

        self._method(EventLoop, "call_at", call_at)
        self._method(EventLoop, "cancel", cancel)
        self._method(EventLoop, "run", run)
        self._method(Network, "start_flow", start_flow)
        self._method(ScalarSolver, "solve", self._counted("solves"))
        self._method(ScalarSolver, "_fill", self._counted("fills"))
        self._method(PlanRunner, "run", self._counted("simulate_plan"))
        self._method(cache_module.TimingMemo, "lookup", memo_lookup)
        self._method(cache_module.PlanCache, "lookup", self._counted("cache_lookups"))
        self._function(pipeline_module.compile_resharding, self._counted("compiles"))
        self._function(cache_module.plan_signature, self._counted("plan_signature"))
        self._function(cache_module.timing_signature, signed)
        self._function(data_module.assemble_tile, assemble_tile)
        self._function(
            algorithms_module.randomized_greedy_schedule, self._counted("greedy_schedules")
        )
        _CountingRandom.counts = counts
        bound = algorithms_module.random
        algorithms_module.random = types.SimpleNamespace(Random=_CountingRandom)
        self._undo.append(lambda: setattr(algorithms_module, "random", bound))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


class WorkloadPass(NamedTuple):
    """What one seed-0 pass of a workload measured."""

    #: the ledger's counts, by op id
    counts: dict[str, dict[str, int]]
    memo_hits: tuple[MemoHit, ...]
    #: objects ``gc.collect()`` freed after each op, by op id
    cyclic_garbage: dict[str, int]


@functools.lru_cache(maxsize=None)
def workload_pass(workload: str) -> WorkloadPass:
    """One seed-0 pass of ``workload``: counts, memo hits, cyclic garbage."""
    ops = build_ops(workload, SEED)
    if workload == "serve_bursty":
        ops = [op for op in ops if op.id in SERVE_SCENARIOS]
    counts: dict[str, dict[str, int]] = {}
    hits: list[MemoHit] = []
    garbage: dict[str, int] = {}
    was_enabled = gc.isenabled()
    # Start from no garbage, and freeze what is alive already: no op made
    # it, and each collection below then scans only what the pass made.
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        for op in ops:
            reset_default_plan_cache()
            reset_default_resim_cache()
            spies = Spies()
            spies.install()
            try:
                op.call()
            finally:
                spies.uninstall()
            counts[op.id] = dict(sorted((k, v) for k, v in spies.counts.items() if v))
            hits += [
                MemoHit(op.id, plan, faults, retry, timing_fields(found))
                for plan, faults, retry, found in spies.hits
            ]
            del spies
            reset_default_plan_cache()
            reset_default_resim_cache()
            garbage[op.id] = gc.collect()
    finally:
        gc.unfreeze()
        if was_enabled:
            gc.enable()
    return WorkloadPass(counts, tuple(hits), garbage)


def replay(hit: MemoHit):
    """The hit's plan simulated afresh, with no memo in the way."""
    return simulate_plan(hit.plan, faults=hit.faults, retry_policy=hit.retry_policy)
