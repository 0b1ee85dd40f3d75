"""Resharding-as-a-service: an overload-safe async planning frontend.

The :class:`ReshardingService` wraps the staged plan compiler
(:mod:`repro.compiler`) in a multi-tenant asyncio frontend that degrades
gracefully under overload instead of collapsing:

* **admission control** — bounded global and per-tenant queues, token-
  bucket rate limits, round-robin fair dequeue
  (:mod:`repro.service.admission`);
* **single-flight coalescing** — identical in-flight compiles are
  shared, not repeated;
* **circuit breaking + degraded mode** — a persistently failing
  compiler is isolated, stale-but-valid cached plans are served with
  ``degraded=True`` (:mod:`repro.service.breaker`);
* **deterministic execution** — asyncio's tasks run on a virtual-time
  scheduler with no selector (:mod:`repro.service.clock`) and seeded
  chaos (:mod:`repro.service.chaos`), so a scenario replays byte-identically.

See ``docs/service.md`` for the request lifecycle and the overload /
degraded-mode contracts.
"""

from .admission import AdmissionConfig, AdmissionController, FairQueue, TokenBucket
from .breaker import BreakerConfig, CircuitBreaker
from .chaos import PoisonPass, ServiceChaos
from .clock import VirtualTimeLoop, VirtualTimeStall, run_virtual
from .loadgen import (
    PROFILES,
    Arrival,
    LoadProfile,
    LoadReport,
    build_task_pool,
    generate_arrivals,
    run_load,
)
from .request import (
    STATUSES,
    CompileRequest,
    CompileResponse,
    Overloaded,
    TransientCompileFault,
)
from .service import RequestHandle, ReshardingService, ServiceConfig

__all__ = [
    "ReshardingService",
    "ServiceConfig",
    "RequestHandle",
    "CompileRequest",
    "CompileResponse",
    "Overloaded",
    "TransientCompileFault",
    "STATUSES",
    "AdmissionConfig",
    "AdmissionController",
    "FairQueue",
    "TokenBucket",
    "BreakerConfig",
    "CircuitBreaker",
    "ServiceChaos",
    "PoisonPass",
    "VirtualTimeLoop",
    "VirtualTimeStall",
    "run_virtual",
    "LoadProfile",
    "LoadReport",
    "Arrival",
    "PROFILES",
    "generate_arrivals",
    "build_task_pool",
    "run_load",
]
