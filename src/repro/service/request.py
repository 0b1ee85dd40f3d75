"""Request/response vocabulary of the resharding service.

Every submission ends in exactly one :class:`CompileResponse`, whatever
happened along the way — admission rejection, coalesced cache share,
degraded stale plan, retry exhaustion, client cancellation, or a clean
compile.  Clients branch on :attr:`CompileResponse.status` (one of
:data:`STATUSES`); overload rejections additionally carry a structured
:class:`Overloaded` telling the client *why* it was shed and when to
come back, so backoff is informed rather than guessed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..checks import real

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.task import ReshardingTask

__all__ = [
    "STATUSES",
    "TransientCompileFault",
    "CompileRequest",
    "Overloaded",
    "CompileResponse",
]


#: terminal request states, in rough order of desirability:
#:
#: ``ok``         compiled (possibly coalesced onto another request's
#:                compile, possibly ``degraded`` — a stale cached plan
#:                served while the circuit breaker is open);
#: ``shed``       rejected by admission control or the open breaker
#:                without a usable stale plan — carries ``overloaded``;
#: ``expired``    per-request timeout elapsed before a worker finished;
#: ``cancelled``  the client cancelled while queued or in flight;
#: ``invalid``    the request itself is bad (its plan fails static
#:                validation) — a client error, never a service fault;
#: ``failed``     compilation kept faulting transiently past the retry
#:                budget, or hit its deterministic compile deadline.
STATUSES = ("ok", "shed", "expired", "cancelled", "invalid", "failed")


class TransientCompileFault(Exception):
    """A compile attempt failed for a retryable, non-deterministic-input
    reason (injected via :class:`~repro.service.chaos.ServiceChaos` in
    tests; stands in for OOM-killed workers, flaky pass dependencies).

    Counts against the request's retry budget; whether it also counts
    against the circuit breaker's consecutive-failure window depends on
    ``cause``: ``"compile"`` (the default — the worker itself faulted)
    does, ``"partition"`` (the worker was unreachable: a network
    partition between frontend and worker, not a sick compiler) is
    tallied separately and never trips the breaker.  Unlike either,
    :class:`~repro.core.validate.PlanValidationError` is the *request's*
    fault and must never trip the breaker at all.
    """

    def __init__(self, message: str, cause: str = "compile") -> None:
        super().__init__(message)
        if cause not in ("compile", "partition"):
            raise ValueError(f"unknown fault cause {cause!r}")
        self.cause = cause


@dataclass
class CompileRequest:
    """One tenant's ask: compile a resharding task into a plan.

    ``deadline`` bounds the compile itself in deterministic budget
    seconds (see :mod:`repro.compiler.budget`); ``timeout`` bounds the
    whole admission-to-response interval in service (virtual) seconds —
    a request still queued when it elapses is answered ``expired``
    instead of occupying a worker.
    """

    request_id: str
    tenant: str
    task: "ReshardingTask"
    deadline: Optional[float] = None
    timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.request_id:
            raise ValueError("request_id must be non-empty")
        if not self.tenant:
            raise ValueError("tenant must be non-empty")
        if self.deadline is not None:
            real("deadline", self.deadline, "(0, inf)")
        if self.timeout is not None:
            real("timeout", self.timeout, "(0, inf)")


@dataclass(frozen=True)
class Overloaded:
    """Structured overload rejection: why, and when to retry.

    ``reason`` is one of ``"queue-full"`` (global queue bound),
    ``"tenant-queue-full"`` (per-tenant fairness bound),
    ``"rate-limited"`` (token bucket empty), or ``"breaker-open"``
    (compiler circuit open and no stale plan available).
    ``retry_after`` is the service's deterministic estimate, in service
    seconds, of when capacity will exist again.
    """

    reason: str
    retry_after: float
    tenant: str
    queue_depth: int

    def __post_init__(self) -> None:
        if self.retry_after < 0:
            raise ValueError(f"retry_after must be >= 0, got {self.retry_after}")


@dataclass
class CompileResponse:
    """The single terminal answer to one :class:`CompileRequest`."""

    request_id: str
    tenant: str
    status: str
    #: content-addressed signature of the compiled plan (``ok`` only)
    plan_signature: Optional[str] = None
    n_ops: int = 0
    #: plan is a stale cached artifact served during breaker-open
    degraded: bool = False
    #: this response rode another identical in-flight compile
    coalesced: bool = False
    #: compile attempts actually spent (0 when never reached a worker)
    attempts: int = 0
    overloaded: Optional[Overloaded] = None
    submitted_at: float = 0.0
    completed_at: float = 0.0
    detail: str = ""

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}")

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def latency(self) -> float:
        """Admission-to-response service time (0 for instant rejections)."""
        return max(0.0, self.completed_at - self.submitted_at)
