"""Content-addressed cache for compiled resharding plans.

Every micro-batch, every auto-strategy scoring call, and every recovery
replan resolves the *same* handful of reshardings; recompiling (and
re-simulating) them from scratch each time is pure waste.  The cache
keys a :class:`~repro.compiler.pipeline.CompiledPlan` by a canonical
**content signature** of everything the compile pipeline's output
depends on:

* the tensor: shape and dtype;
* the layouts: source/destination sharding specs and mesh device grids;
* the topology: every :class:`~repro.sim.cluster.ClusterSpec` field
  (bandwidths, latencies, per-host overrides, spares);
* the strategy: its name plus every plan-shaping option
  (:meth:`~repro.strategies.base.CommStrategy.cache_key`);
* the fault scenario: a digest of the :class:`~repro.sim.faults
  .FaultSchedule` and :class:`~repro.sim.faults.RetryPolicy`;
* the cache **epoch** — a counter bumped by explicit invalidation on
  fault events (e.g. a permanent :class:`~repro.sim.faults.HostFailure`
  detected by the recovery runtime), so plans compiled for the
  pre-failure world can never be served afterwards even if a caller
  forgets to thread the updated fault schedule through.

Two tasks on *different* :class:`~repro.sim.cluster.Cluster` objects
with identical content hash identically — the cache is content-
addressed, not identity-addressed.  A strategy without a cache key
(custom subclasses) makes the compile uncacheable rather than wrong.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..sim.cluster import ClusterSpec
from ..sim.faults import FaultSchedule, RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.task import ReshardingTask
    from .pipeline import CompiledPlan

__all__ = [
    "task_signature",
    "plan_signature",
    "CacheStats",
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
        spec.n_spare_hosts,
        # frozen dataclasses: repr is canonical, so domain membership
        # changes invalidate cached plans like any other spec change
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


def task_signature(task: "ReshardingTask") -> tuple[object, ...]:
    """Canonical content key of one resharding task (no strategy/faults)."""
    return (
        task.shape,
        task.dtype.str,
        str(task.src_spec),
        str(task.dst_spec),
        task.src_mesh.grid,
        task.dst_mesh.grid,
        _cluster_key(task.cluster.spec),
    )


def plan_signature(
    task: "ReshardingTask",
    strategy_key: tuple[object, ...],
    faults: Optional[FaultSchedule] = None,
    retry_policy: Optional[RetryPolicy] = None,
    epoch: int = 0,
) -> str:
    """SHA-256 over the canonical signature of one compile request."""
    h = hashlib.sha256()
    h.update(
        repr(
            (
                task_signature(task),
                strategy_key,
                _faults_key(faults),
                _retry_key(retry_policy),
                epoch,
            )
        ).encode()
    )
    return h.hexdigest()


@dataclass(frozen=True)
class CacheStats:
    """A snapshot of one cache's counters."""

    requests: int
    hits: int
    misses: int
    size: int
    epoch: int
    n_invalidations: int
    evictions: int = 0
    stale_stores: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    @property
    def compile_call_reduction(self) -> float:
        """Fraction of compile requests served without compiling."""
        return self.hit_rate

    def __repr__(self) -> str:
        return (
            f"CacheStats(requests={self.requests}, hits={self.hits}, "
            f"misses={self.misses}, hit_rate={self.hit_rate:.1%}, "
            f"size={self.size}, evictions={self.evictions}, "
            f"epoch={self.epoch})"
        )


class PlanCache:
    """Content-addressed store of :class:`CompiledPlan` objects.

    One LRU: a hit refreshes recency, and an insert beyond
    ``max_entries`` evicts the least-recently-used entry.  Hit, miss and
    eviction counters are exposed through :meth:`stats`.

    :meth:`invalidate` drops everything *and* bumps the epoch that is
    folded into every signature — explicit invalidation on fault events.
    It is safe to call concurrently with in-flight compiles: a compile
    that computed its signature (and captured the epoch) before the bump
    may still call :meth:`store`, but the write is detected as stale and
    dropped (counted in ``stale_stores``) rather than resurrecting a
    pre-invalidation plan — the epoch bump is never lost.
    """

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: OrderedDict[str, "CompiledPlan"] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.epoch = 0
        self.n_invalidations = 0
        self.stale_stores = 0
        self.last_invalidation_reason = ""

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, signature: str) -> bool:
        return signature in self._entries

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def lookup(self, signature: str) -> "Optional[CompiledPlan]":
        found = self._entries.get(signature)
        if found is None:
            self.misses += 1
        else:
            self.hits += 1
            self._entries.move_to_end(signature)
        return found

    def store(
        self,
        signature: str,
        compiled: "CompiledPlan",
        epoch: Optional[int] = None,
    ) -> bool:
        """Insert ``compiled`` under ``signature``; returns True if stored.

        ``epoch`` is the cache epoch captured when the signature was
        computed.  A store whose epoch no longer matches (an
        :meth:`invalidate` ran while the compile was in flight) is
        dropped so stale plans cannot leak into the new epoch.
        """
        if epoch is not None and epoch != self.epoch:
            self.stale_stores += 1
            return False
        entries = self._entries
        if signature in entries:
            entries.move_to_end(signature)
        elif len(entries) >= self.max_entries:
            entries.popitem(last=False)
            self.evictions += 1
        entries[signature] = compiled
        return True

    def invalidate(self, reason: str = "") -> None:
        """Drop every entry and open a new epoch (fault-event hook)."""
        # Bump the epoch *before* clearing: any in-flight store that
        # captured the old epoch is already stale the instant callers
        # can observe the invalidation.
        self.epoch += 1
        self._entries.clear()
        self.n_invalidations += 1
        self.last_invalidation_reason = reason

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.stale_stores = 0

    def stats(self) -> CacheStats:
        return CacheStats(
            requests=self.requests,
            hits=self.hits,
            misses=self.misses,
            size=len(self),
            epoch=self.epoch,
            n_invalidations=self.n_invalidations,
            evictions=self.evictions,
            stale_stores=self.stale_stores,
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
