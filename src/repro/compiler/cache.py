"""Content-addressed cache for compiled resharding plans.

Every micro-batch, every auto-strategy scoring call, and every service
request resolves the *same* handful of reshardings; recompiling (and
re-simulating) them from scratch each time is pure waste.  The cache
keys a :class:`~repro.compiler.pipeline.CompiledPlan` by a canonical
**content signature** of everything the compile pipeline's output
depends on:

* the tensor: shape and dtype;
* the layouts: source/destination sharding specs and mesh device grids;
* the topology: every :class:`~repro.sim.cluster.ClusterSpec` field
  (bandwidths, latencies, per-host overrides, topology);
* the strategy: its name plus every plan-shaping option
  (:meth:`~repro.strategies.base.CommStrategy.cache_key`);
* the fault scenario: a digest of the :class:`~repro.sim.faults
  .FaultSchedule` and :class:`~repro.sim.faults.RetryPolicy`.

Two tasks on *different* :class:`~repro.sim.cluster.Cluster` objects
with identical content hash identically — the cache is content-
addressed, not identity-addressed.  An entry therefore never goes
stale: a request whose inputs changed has another signature.  Nothing
empties a cache; :func:`reset_default_plan_cache` replaces the
process-wide one with an empty one.  A strategy without a cache key
(custom subclasses) makes the compile uncacheable rather than wrong.

The signature keys the compile *request*, and distinct requests often
compile to plans that simulate alike: two schedulers that agree, an
ablation row that equals the default, or two layouts whose ops differ
only in the regions they name.  So each cache also owns a
:class:`TimingMemo` keyed by what simulating the compiled plan reads
(:func:`timing_signature`): a :class:`~repro.compiler.pipeline
.CompiledPlan` from a cached compile simulates such a plan only once.

A cache also remembers its **rejections**.  A ``validate=True`` compile
through the default pass list that raises
:class:`~repro.core.validate.PlanValidationError` stores the message
under its plan signature (which already folds in the memory budget and
the faults), so a later such compile of that signature re-raises it
without running a pass.  A rejection is never a plan:
:meth:`PlanCache.lookup` never returns one, and no hit, miss, store or
size counter sees it.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Generic, Optional, TypeVar

from .. import checks
from ..sim.cluster import ClusterSpec
from ..sim.faults import FaultSchedule, RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.executor import TimingResult
    from ..core.plan import CommOp, CommPlan
    from ..core.task import ReshardingTask
    from .pipeline import CompiledPlan

__all__ = [
    "task_signature",
    "plan_signature",
    "timing_signature",
    "CacheStats",
    "BoundedLRU",
    "TimingMemo",
    "PlanCache",
    "default_plan_cache",
    "reset_default_plan_cache",
]


def _cluster_key(spec: ClusterSpec) -> tuple[object, ...]:
    key: tuple[object, ...] = (
        spec.n_hosts,
        spec.devices_per_host,
        spec.inter_host_bandwidth,
        spec.intra_host_bandwidth,
        spec.inter_host_latency,
        spec.intra_host_latency,
        tuple(sorted(spec.host_bandwidth_overrides)),
        # the retired spare-host count, always 0: kept so every plan
        # signature stays byte-identical to what it hashed to before
        0,
        # frozen dataclasses: repr is canonical, so domain membership
        # changes re-key cached plans like any other spec change
        repr(spec.failure_domains),
        # the wiring itself: a fat-tree and a torus at identical scalar
        # speeds compile to different plans (multicast eligibility,
        # multi-hop pricing), as do per-pair link overrides
        repr(spec.topology),
        repr(spec.link_overrides),
    )
    # Appended only when set so every signature of a budget-free spec is
    # byte-identical to what it hashed to before budgets existed.
    if spec.memory_budget is not None:
        key += (("memory_budget", spec.memory_budget),)
    return key


def _faults_key(faults: Optional[FaultSchedule]) -> str:
    # FaultSchedule is a frozen dataclass of frozen dataclasses and
    # numbers: its repr is canonical and deterministic.
    return "none" if faults is None else repr(faults)


def _retry_key(policy: Optional[RetryPolicy]) -> str:
    return "none" if policy is None else repr(policy)


def _task_key(task: "ReshardingTask") -> tuple[tuple[object, ...], str]:
    """:func:`task_signature` of ``task`` and its ``repr``, built once per task.

    Memoized on the task like its unit tasks: every input is fixed when
    the task is built (its cluster's spec is a frozen dataclass).
    """
    memo = task._signature
    if memo is None:
        key = (
            task.shape,
            task.dtype.str,
            str(task.src_spec),
            str(task.dst_spec),
            task.src_mesh.grid,
            task.dst_mesh.grid,
            _cluster_key(task.cluster.spec),
        )
        memo = task._signature = (key, repr(key))
    return memo


def task_signature(task: "ReshardingTask") -> tuple[object, ...]:
    """Canonical content key of one resharding task (no strategy/faults)."""
    return _task_key(task)[0]


def plan_signature(
    task: "ReshardingTask",
    strategy_key: tuple[object, ...],
    faults: Optional[FaultSchedule] = None,
    retry_policy: Optional[RetryPolicy] = None,
) -> str:
    """SHA-256 over the canonical signature of one compile request.

    The hashed bytes are the ``repr`` of the 5-tuple ``(task_signature,
    strategy_key, faults key, retry key, 0)``, spelled out from the
    task's memoized ``repr`` so the task part is formatted once per task.
    The trailing ``0`` stands where a retired cache counter was hashed,
    kept so every signature stays byte-identical to what it hashed to
    before.
    """
    text = (
        f"({_task_key(task)[1]}, {strategy_key!r}, {_faults_key(faults)!r}, "
        f"{_retry_key(retry_policy)!r}, 0)"
    )
    return hashlib.sha256(text.encode()).hexdigest()


#: per op class, a getter of the fields a timing run reads as they are:
#: every field but ``region`` (never read) and ``checksum`` (read only
#: as a truth value)
_TIMED_FIELDS: "dict[type[CommOp], attrgetter[tuple[object, ...]]]" = {}


def _timed_op(op: "CommOp") -> tuple[object, ...]:
    """What a :class:`~repro.core.executor.PlanRunner` run reads of ``op``."""
    cls = type(op)
    getter = _TIMED_FIELDS.get(cls)
    if getter is None:
        getter = _TIMED_FIELDS[cls] = attrgetter(*(
            f.name for f in dataclasses.fields(cls) if f.name not in ("region", "checksum")
        ))
    return (cls.__qualname__, bool(op.checksum), getter(op))


def timing_signature(
    plan: "CommPlan",
    faults: Optional[FaultSchedule] = None,
    retry_policy: Optional[RetryPolicy] = None,
) -> str:
    """SHA-256 over what a :class:`~repro.core.executor.PlanRunner` run
    of ``plan`` reads.

    Those are each op (its type, whether it carries a checksum, and
    every other field but its region), the schedule order and the hosts
    each gated task occupies (together the Eq. 3 gating), the cluster,
    and the fault scenario.  A run sizes every transfer from ``nbytes``
    and its endpoints, never from the region, and reads a checksum only
    to tell a detected corruption from an unverified one.  So two
    requests whose plans differ only in regions or checksum strings
    share one key, as do two that compile to the same plan: the
    strategy, the assignment and the task's layouts enter only through
    the parts above.
    """
    schedule = plan.schedule
    gating = (
        None
        if schedule is None
        else (
            schedule.order,
            tuple((tid, sorted(hosts)) for tid, hosts in plan.gating_hosts().items()),
        )
    )
    h = hashlib.sha256()
    h.update(
        repr(
            (
                [_timed_op(op) for op in plan.ops],
                gating,
                _cluster_key(plan.task.cluster.spec),
                _faults_key(faults),
                _retry_key(retry_policy),
            )
        ).encode()
    )
    return h.hexdigest()


K = TypeVar("K")
V = TypeVar("V")


class BoundedLRU(Generic[K, V]):
    """A map of at most ``max_entries`` entries that evicts the least
    recently looked-up or stored one.  It keeps no counters."""

    def __init__(self, max_entries: int) -> None:
        self.max_entries = max_entries
        self._entries: OrderedDict[K, V] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    def lookup(self, key: K) -> Optional[V]:
        found = self._entries.get(key)
        if found is not None:
            self._entries.move_to_end(key)
        return found

    def peek(self, key: K) -> Optional[V]:
        """The value under ``key``, leaving its recency alone."""
        return self._entries.get(key)

    def store(self, key: K, value: V) -> bool:
        """Insert or refresh ``key``; True when that evicted another entry."""
        entries = self._entries
        evicted = key not in entries and len(entries) >= self.max_entries
        if evicted:
            entries.popitem(last=False)
        entries[key] = value
        entries.move_to_end(key)
        return evicted


class TimingMemo(BoundedLRU[str, "TimingResult"]):
    """LRU of simulation results keyed by :func:`timing_signature`.

    Owned by one :class:`PlanCache` and bounded by its ``max_entries``.
    It keeps no counters, so the plan cache's hit/miss statistics count
    compile requests only.
    """


@dataclass(frozen=True)
class CacheStats:
    """A snapshot of one cache's counters."""

    requests: int
    hits: int
    misses: int
    size: int
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def __repr__(self) -> str:
        return (
            f"CacheStats(requests={self.requests}, hits={self.hits}, "
            f"misses={self.misses}, hit_rate={self.hit_rate:.1%}, "
            f"size={self.size}, evictions={self.evictions})"
        )


class PlanCache:
    """Content-addressed store of :class:`CompiledPlan` objects.

    Its plans live in a :class:`BoundedLRU`: a hit refreshes recency,
    and an insert beyond ``max_entries`` evicts the least-recently-used
    entry.  Hit, miss and eviction counters are exposed through
    :meth:`stats`.

    ``timings`` is the cache's :class:`TimingMemo`, the simulation
    results of the plans its compiles produced.  ``rejections`` maps the
    signature of a rejected ``validate=True`` compile to its
    :class:`~repro.core.validate.PlanValidationError` message (see
    :meth:`reject`); it is bounded by ``max_entries`` too, and
    :meth:`lookup` never returns one of its entries.
    """

    def __init__(self, max_entries: int = 1024) -> None:
        checks.integer("max_entries", max_entries, 1)
        self.max_entries = max_entries
        self._entries: BoundedLRU[str, "CompiledPlan"] = BoundedLRU(max_entries)
        self.timings = TimingMemo(max_entries)
        self.rejections: BoundedLRU[str, str] = BoundedLRU(max_entries)
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, signature: str) -> bool:
        return signature in self._entries

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    def lookup(self, signature: str) -> "Optional[CompiledPlan]":
        found = self._entries.lookup(signature)
        if found is None:
            self.misses += 1
        else:
            self.hits += 1
        return found

    def peek(self, signature: str) -> "Optional[CompiledPlan]":
        """The plan stored under ``signature``, without counting a lookup
        or refreshing its recency."""
        return self._entries.peek(signature)

    def store(self, signature: str, compiled: "CompiledPlan") -> None:
        """Insert ``compiled`` under ``signature``."""
        if self._entries.store(signature, compiled):
            self.evictions += 1

    def reject(self, signature: str, message: str) -> None:
        """Remember that the compile of ``signature`` was rejected.

        No counter moves.
        """
        self.rejections.store(signature, message)

    def stats(self) -> CacheStats:
        return CacheStats(
            requests=self.requests,
            hits=self.hits,
            misses=self.misses,
            size=len(self),
            evictions=self.evictions,
        )

    def __repr__(self) -> str:
        return f"PlanCache({self.stats()!r})"


_DEFAULT_CACHE: Optional[PlanCache] = None


def default_plan_cache() -> PlanCache:
    """The process-wide cache used when a context names no other."""
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        _DEFAULT_CACHE = PlanCache()
    return _DEFAULT_CACHE


def reset_default_plan_cache() -> PlanCache:
    """Replace the process-wide cache with a fresh one (tests, benches)."""
    global _DEFAULT_CACHE
    _DEFAULT_CACHE = PlanCache()
    return _DEFAULT_CACHE
