"""Admission control: bounded queues, fair sharing, rate limits.

The service's first line of overload defense is refusing work *at the
door*, cheaply and deterministically, before it can occupy memory or a
worker.  Three independent checks gate every submission, evaluated in
order of increasing specificity:

1. a **global queue bound** — total backlog may never exceed
   ``max_queue_depth``, so memory and tail latency stay bounded;
2. a **per-tenant queue bound** — one bursty tenant may only occupy
   ``per_tenant_depth`` slots of that backlog, so it can saturate its
   own share but never starve the others;
3. a **per-tenant token bucket** — sustained arrival rate above
   ``rate`` requests/second (with ``burst`` tokens of headroom) is
   rate-limited even while the queue has room.

Rejections return a structured :class:`~repro.service.request
.Overloaded` with a deterministic ``retry_after`` estimate, so clients
back off with information instead of guessing.

Dequeue order is deficit-free round-robin over tenants in sorted name
order (:class:`FairQueue`): each turn serves one request from the next
tenant that has any queued, so a tenant's worst-case wait is bounded by
the number of active tenants, not by the depth of anyone else's burst.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Any, Deque, Generic, Optional, TypeVar

from .. import checks
from .request import Overloaded

__all__ = ["AdmissionConfig", "TokenBucket", "FairQueue", "AdmissionController"]

T = TypeVar("T")


@dataclass(frozen=True)
class AdmissionConfig:
    """Static admission-control policy knobs."""

    #: global backlog bound across all tenants
    max_queue_depth: int = 64
    #: per-tenant share of the backlog
    per_tenant_depth: int = 16
    #: sustained per-tenant admission rate (requests / service second);
    #: ``0`` disables rate limiting
    rate: float = 0.0
    #: token-bucket burst headroom (full bucket size)
    burst: float = 8.0

    def __post_init__(self) -> None:
        checks.integer("max_queue_depth", self.max_queue_depth, 1)
        checks.integer("per_tenant_depth", self.per_tenant_depth, 1)
        checks.real("rate", self.rate, "[0, inf)")
        if self.rate > 0:
            checks.real("burst", self.burst, "[1, inf)")


class TokenBucket:
    """Classic token bucket over the service clock (time passed in).

    The caller supplies ``now`` on every call — the bucket never reads a
    clock itself, so it works identically under the virtual-time loop
    and in unit tests that pass literal instants.
    """

    __slots__ = ("rate", "burst", "tokens", "updated_at")

    def __init__(self, rate: float, burst: float, now: float = 0.0) -> None:
        checks.real("rate", rate, "(0, inf)")
        checks.real("burst", burst, "[1, inf)")
        checks.real("now", now, "(-inf, inf)")
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.updated_at = now

    def _refill(self, now: float) -> None:
        if now > self.updated_at:
            self.tokens = min(self.burst, self.tokens + (now - self.updated_at) * self.rate)
            self.updated_at = now

    def take(self, now: float) -> bool:
        """Consume one token if available; refills lazily from ``now``."""
        self._refill(now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False

    def time_until_token(self, now: float) -> float:
        """Service seconds until one whole token will exist (0 if it does)."""
        self._refill(now)
        if self.tokens >= 1.0:
            return 0.0
        return (1.0 - self.tokens) / self.rate


class FairQueue(Generic[T]):
    """Round-robin multi-tenant FIFO with per-tenant depth accounting.

    ``push`` appends to the tenant's FIFO; ``pop`` serves one item from
    the next non-empty tenant after the previously served one, cycling
    in sorted-tenant-name order (an :class:`OrderedDict` keyed by first
    appearance would make dequeue order depend on arrival interleaving;
    sorted order keeps it a pure function of queue *content*).
    """

    def __init__(self) -> None:
        self._queues: "OrderedDict[str, Deque[T]]" = OrderedDict()
        self._last_served: Optional[str] = None

    def push(self, tenant: str, item: T) -> None:
        self._queues.setdefault(tenant, deque()).append(item)

    def pop(self) -> Optional[tuple[str, T]]:
        """Serve one item round-robin; ``None`` when everything is empty."""
        active = sorted(t for t, q in self._queues.items() if q)
        if not active:
            return None
        if self._last_served is None:
            tenant = active[0]
        else:
            # first active tenant strictly after the last served, wrapping
            after = [t for t in active if t > self._last_served]
            tenant = after[0] if after else active[0]
        self._last_served = tenant
        return tenant, self._queues[tenant].popleft()

    def depth(self, tenant: Optional[str] = None) -> int:
        if tenant is not None:
            q = self._queues.get(tenant)
            return len(q) if q else 0
        return sum(len(q) for q in self._queues.values())

    def __len__(self) -> int:
        return self.depth()


class AdmissionController:
    """Evaluate the three admission gates for one prospective request."""

    def __init__(self, config: AdmissionConfig) -> None:
        self.config = config
        self._buckets: dict[str, TokenBucket] = {}

    def _bucket(self, tenant: str, now: float) -> Optional[TokenBucket]:
        if self.config.rate <= 0:
            return None
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(self.config.rate, self.config.burst, now)
            self._buckets[tenant] = bucket
        return bucket

    def decide(
        self,
        tenant: str,
        now: float,
        queue: FairQueue[Any],
        drain_rate: float,
    ) -> Optional[Overloaded]:
        """``None`` to admit, else the structured rejection.

        ``drain_rate`` is the service's deterministic estimate of queue
        drain throughput (requests / service second), used to compute
        ``retry_after`` for queue-bound rejections.
        """
        depth = queue.depth()
        cfg = self.config
        if depth >= cfg.max_queue_depth:
            return Overloaded(
                reason="queue-full",
                retry_after=self._drain_eta(1, drain_rate),
                tenant=tenant,
                queue_depth=depth,
            )
        tenant_depth = queue.depth(tenant)
        if tenant_depth >= cfg.per_tenant_depth:
            return Overloaded(
                reason="tenant-queue-full",
                retry_after=self._drain_eta(1, drain_rate),
                tenant=tenant,
                queue_depth=depth,
            )
        bucket = self._bucket(tenant, now)
        if bucket is not None and not bucket.take(now):
            return Overloaded(
                reason="rate-limited",
                retry_after=bucket.time_until_token(now),
                tenant=tenant,
                queue_depth=depth,
            )
        return None

    @staticmethod
    def _drain_eta(slots_needed: int, drain_rate: float) -> float:
        if drain_rate <= 0:
            return 1.0
        return slots_needed / drain_rate
