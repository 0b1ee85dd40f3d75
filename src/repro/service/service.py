"""The resharding service: an overload-safe async planning frontend.

:class:`ReshardingService` accepts concurrent compile requests from many
tenants and guarantees that *overload degrades answers, never the
service*:

* every submission is answered — admitted, coalesced, served stale, or
  shed with a structured :class:`~repro.service.request.Overloaded`;
* backlog is bounded (global + per-tenant) and drained round-robin, so
  no tenant starves behind another's burst;
* identical in-flight compiles are **coalesced**: requests whose plan
  signature matches a compile already running attach to it and share
  the one result (single-flight);
* a :class:`~repro.service.breaker.CircuitBreaker` guards the compiler;
  while it is open, requests with a stale-but-valid cached plan get it
  with ``degraded=True`` and the rest are shed with a retry-after;
* transient compile faults are retried with the repo's deterministic
  backoff policy; poison requests (plans that fail static validation)
  fail their own request only — never the worker, never the breaker.

The service is plain asyncio and normally runs on the deterministic
:class:`~repro.service.clock.VirtualTimeLoop`: all timestamps come from
``loop.time()`` and all chaos decisions from seeded hashes, so a run's
telemetry stream is byte-identical across replays.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Optional, Union

from .. import checks
from ..compiler import (
    CompiledPlan,
    CompileContext,
    CompileTimeout,
    PlanCache,
    compile_resharding,
    plan_signature,
)
from ..compiler.passes import DEFAULT_PASSES
from ..core.validate import PlanValidationError
from ..runtime.telemetry import TelemetryBus
from ..sim.faults import RetryPolicy
from ..strategies import BroadcastStrategy
from .admission import AdmissionConfig, AdmissionController, FairQueue
from .breaker import BreakerConfig, CircuitBreaker
from .chaos import PoisonPass, ServiceChaos
from .request import (
    CompileRequest,
    CompileResponse,
    Overloaded,
    TransientCompileFault,
)

__all__ = ["ServiceConfig", "RequestHandle", "ReshardingService"]

#: service seconds a compile occupies its worker per emitted op
PER_OP_SERVICE_TIME = 0.0005


@dataclass(frozen=True)
class ServiceConfig:
    """Static policy for one service instance."""

    n_workers: int = 2
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    #: retry policy for transient compile faults (deterministic backoff)
    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            max_attempts=3, backoff_base=0.005, backoff_factor=2.0, jitter=0.25
        )
    )
    #: service seconds one compile occupies a worker (plus
    #: ``PER_OP_SERVICE_TIME`` per emitted op)
    base_service_time: float = 0.01

    def __post_init__(self) -> None:
        checks.integer("n_workers", self.n_workers, 1)
        checks.real("base_service_time", self.base_service_time, "(0, inf)")

    @property
    def drain_rate(self) -> float:
        """Nominal queue drain throughput (requests / service second)."""
        return self.n_workers / self.base_service_time


class RequestHandle:
    """One submission's ticket: await the response, or cancel it."""

    def __init__(
        self,
        request: CompileRequest,
        submitted_at: float,
        future: "asyncio.Future[CompileResponse]",
        service: "ReshardingService",
    ) -> None:
        self.request = request
        self.submitted_at = submitted_at
        self.future = future
        self._service = service

    @property
    def done(self) -> bool:
        return self.future.done()

    async def wait(self) -> CompileResponse:
        return await self.future

    def cancel(self) -> bool:
        """Client hangs up: resolve this handle ``cancelled`` (idempotent).

        Only this waiter is cancelled — a coalesced compile keeps running
        for the other requests attached to it.
        """
        return self._service._cancel_handle(self)

    def deadline_at(self) -> Optional[float]:
        """Absolute service time at which this request expires."""
        if self.request.timeout is None:
            return None
        return self.submitted_at + self.request.timeout


class _InFlight:
    """One physical compile plus every request coalesced onto it."""

    __slots__ = ("signature", "handles", "poison")

    def __init__(
        self, signature: Optional[str], leader: RequestHandle, poison: bool
    ) -> None:
        self.signature = signature
        self.handles: list[RequestHandle] = [leader]
        self.poison = poison

    @property
    def leader(self) -> RequestHandle:
        return self.handles[0]


class ReshardingService:
    """Admission-controlled, breaker-guarded compile frontend.

    Construct inside a running event loop (all timestamps come from
    ``loop.time()``), call :meth:`start`, submit requests, then
    :meth:`shutdown` — which drains the queue before returning.  Every
    request compiles with the paper's broadcast strategy into the
    service's own :class:`~repro.compiler.PlanCache`, the one store of
    its plans: while the breaker is open, a request is served the plan
    that cache holds for its signature.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        *,
        chaos: Optional[ServiceChaos] = None,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.cache = PlanCache()
        loop = asyncio.get_running_loop()
        self._loop = loop
        self.bus = TelemetryBus(clock=loop.time)
        self.strategy = BroadcastStrategy()
        self._strategy_key = self.strategy.cache_key()
        self.chaos = chaos
        self.admission = AdmissionController(self.config.admission)
        self.breaker = CircuitBreaker(self.config.breaker)
        self._queue: FairQueue[_InFlight] = FairQueue()
        self._inflight: dict[str, _InFlight] = {}
        self._cond = asyncio.Condition()
        self._workers: list[asyncio.Task[None]] = []
        self._running = False
        self.worker_crashes = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._workers = [
            self._loop.create_task(self._worker_loop(i), name=f"reshard-worker-{i}")
            for i in range(self.config.n_workers)
        ]

    async def shutdown(self) -> None:
        """Stop accepting work, drain the backlog, join the workers."""
        self._running = False
        async with self._cond:
            self._cond.notify_all()
        if self._workers:
            await asyncio.gather(*self._workers)
        self._workers = []

    def _now(self) -> float:
        return self._loop.time()

    # ------------------------------------------------------------------
    # Submission path
    # ------------------------------------------------------------------
    def try_submit(
        self, request: CompileRequest
    ) -> Union[RequestHandle, CompileResponse]:
        """Admission-or-rejection, synchronously.

        Returns a :class:`RequestHandle` when admitted (or coalesced, or
        answered from cache — the handle is already resolved then), or a
        terminal ``shed`` :class:`CompileResponse` when refused.
        """
        if not self._running:
            raise RuntimeError("service is not running (call start() first)")
        now = self._now()
        overloaded = self.admission.decide(
            request.tenant, now, self._queue, self.config.drain_rate
        )
        if overloaded is not None:
            self._count("service.shed", now)
            self._count(f"service.shed.{overloaded.reason}", now)
            self._request_span(request, now, now, "shed")
            return CompileResponse(
                request_id=request.request_id,
                tenant=request.tenant,
                status="shed",
                overloaded=overloaded,
                submitted_at=now,
                completed_at=now,
                detail=overloaded.reason,
            )

        self._count("service.admitted", now)
        future: "asyncio.Future[CompileResponse]" = self._loop.create_future()
        handle = RequestHandle(request, now, future, self)

        signature: Optional[str] = None
        poison = self.chaos is not None and self.chaos.is_poison(request.request_id)
        if not poison:
            signature = plan_signature(request.task, self._strategy_key)
            cached = self.cache.lookup(signature)
            if cached is not None:
                self._count("service.cache_hit", now)
                self._resolve(
                    handle,
                    self._ok_response(handle, cached, now, attempts=0),
                    "ok",
                )
                return handle

            running = self._inflight.get(signature)
            if running is not None:
                running.handles.append(handle)
                self._count("service.coalesced", now)
                return handle

        entry = _InFlight(signature, handle, poison)
        if signature is not None:
            self._inflight[signature] = entry
        self._queue.push(request.tenant, entry)
        self._gauge_depth(now)
        self._notify()
        return handle

    def _notify(self) -> None:
        async def _kick() -> None:
            async with self._cond:
                self._cond.notify_all()

        self._loop.create_task(_kick())

    # ------------------------------------------------------------------
    # Worker
    # ------------------------------------------------------------------
    async def _worker_loop(self, idx: int) -> None:
        track = f"worker:{idx}"
        while True:
            async with self._cond:
                while self._running and self._queue.depth() == 0:
                    await self._cond.wait()
                popped = self._queue.pop()
                if popped is None:
                    if not self._running:
                        return
                    continue
            self._gauge_depth(self._now())
            _tenant, entry = popped
            try:
                await self._process(entry, track)
            except asyncio.CancelledError:  # pragma: no cover - shutdown path
                raise
            except Exception as exc:
                # The contract under test: a bad request may fail itself,
                # never the worker.  Anything reaching here is a service
                # bug — count it loudly and keep serving.
                self.worker_crashes += 1
                self._count("service.worker_crash", self._now())
                self._fail_all(entry, f"internal error: {exc!r}")

    async def _process(self, entry: _InFlight, track: str) -> None:
        now = self._now()
        if entry.signature is not None:
            # from here on, new identical requests start a fresh compile
            self._inflight.pop(entry.signature, None)
        self._expire_handles(entry, now)
        if not self._live_handles(entry):
            return

        verdict = self.breaker.allow(now)
        if verdict == "reject":
            self._serve_degraded_or_shed(entry, now)
            return
        if verdict == "probe":
            self._count("service.breaker_probe", now)

        leader_id = entry.leader.request.request_id
        attempt = 0
        while True:
            attempt += 1
            try:
                compiled = await self._attempt(entry, attempt, track)
            except TransientCompileFault as fault:
                if fault.cause == "partition":
                    self._count("service.partition_fault", self._now())
                else:
                    self._count("service.transient_fault", self._now())
                if not self.config.retry.exhausted(attempt):
                    self._count("service.retries", self._now())
                    await asyncio.sleep(
                        self.config.retry.backoff(attempt, "service", leader_id)
                    )
                    self._expire_handles(entry, self._now())
                    if not self._live_handles(entry):
                        self.breaker.record_failure(self._now(), kind=fault.cause)
                        return
                    continue
                self.breaker.record_failure(self._now(), kind=fault.cause)
                self._count("service.failed", self._now())
                self._fail_all(entry, f"retries exhausted: {fault}", attempts=attempt)
                return
            except CompileTimeout as timeout:
                self.breaker.record_failure(self._now())
                self._count("service.deadline_exceeded", self._now())
                self._count("service.failed", self._now())
                self._fail_all(entry, str(timeout), attempts=attempt)
                return
            except PlanValidationError as invalid:
                # The request's own fault: resolve it invalid, leave the
                # breaker alone (the compiler worked correctly).
                self.breaker.record_success(self._now())
                self._count("service.invalid", self._now())
                if "M0" in str(invalid):
                    # Budget rejections get their own counter so capacity
                    # dashboards can tell "bad plan" from "plan too big".
                    self._count("service.invalid.memory_budget", self._now())
                done_at = self._now()
                for handle in self._live_handles(entry):
                    self._resolve(
                        handle,
                        CompileResponse(
                            request_id=handle.request.request_id,
                            tenant=handle.request.tenant,
                            status="invalid",
                            attempts=attempt,
                            submitted_at=handle.submitted_at,
                            completed_at=done_at,
                            detail=f"plan validation failed: {invalid}",
                        ),
                        "invalid",
                    )
                return
            break

        self.breaker.record_success(self._now())
        done_at = self._now()
        self._expire_handles(entry, done_at)
        live = self._live_handles(entry)
        if not live:
            self._count("service.wasted_compile", done_at)
            return
        self._count("service.completed", done_at)
        for handle in live:
            self._resolve(
                handle,
                self._ok_response(
                    handle,
                    compiled,
                    done_at,
                    attempts=attempt,
                    coalesced=handle is not entry.handles[0],
                ),
                "ok",
            )

    async def _attempt(
        self, entry: _InFlight, attempt: int, track: str
    ) -> CompiledPlan:
        """One compile attempt, occupying the worker for its service time."""
        leader_id = entry.leader.request.request_id
        start = self._now()
        service_time = self.config.base_service_time
        if self.chaos is not None:
            extra = self.chaos.slow_extra_time(leader_id)
            if extra > 0:
                self._count("service.slow_compile", start)
                service_time += extra
        await asyncio.sleep(service_time)
        try:
            if self.chaos is not None and self.chaos.attempt_partitioned(
                leader_id, attempt
            ):
                raise TransientCompileFault(
                    f"worker unreachable on attempt {attempt} of {leader_id}",
                    cause="partition",
                )
            if self.chaos is not None and self.chaos.attempt_faults(leader_id, attempt):
                raise TransientCompileFault(
                    f"injected fault on attempt {attempt} of {leader_id}"
                )
            request = entry.leader.request
            if entry.poison:
                passes = DEFAULT_PASSES()
                passes.insert(len(passes) - 1, PoisonPass())
                ctx = CompileContext(
                    strategy=self.strategy,
                    deadline=request.deadline,
                    cache=None,
                    validate=True,
                    passes=passes,
                )
            else:
                ctx = CompileContext(
                    strategy=self.strategy,
                    deadline=request.deadline,
                    cache=self.cache,
                    # A budget-carrying task must be admission-checked:
                    # validate so an over-budget plan surfaces as a
                    # structured "invalid" (M001/M003), never as a
                    # breaker-counted failure.
                    validate=request.task.cluster.spec.memory_budget is not None,
                )
            compiled = compile_resharding(request.task, ctx)
        finally:
            self.bus.span(
                "compile",
                cat="service",
                track=track,
                start=start,
                end=self._now(),
                attrs={"request": leader_id, "attempt": attempt},
            )
        if compiled.plan.ops:
            await asyncio.sleep(PER_OP_SERVICE_TIME * len(compiled.plan.ops))
        return compiled

    # ------------------------------------------------------------------
    # Degraded / terminal paths
    # ------------------------------------------------------------------
    def _serve_degraded_or_shed(self, entry: _InFlight, now: float) -> None:
        stale = self.cache.peek(entry.signature) if entry.signature is not None else None
        if stale is not None:
            self._count("service.degraded", now)
            for handle in self._live_handles(entry):
                response = self._ok_response(
                    handle,
                    stale,
                    now,
                    attempts=0,
                    coalesced=handle is not entry.handles[0],
                )
                response.degraded = True
                response.detail = "stale plan served while circuit breaker open"
                self._resolve(handle, response, "ok")
            return
        retry_after = self.breaker.retry_after(now)
        self._count("service.shed", now)
        self._count("service.shed.breaker-open", now)
        for handle in self._live_handles(entry):
            self._resolve(
                handle,
                CompileResponse(
                    request_id=handle.request.request_id,
                    tenant=handle.request.tenant,
                    status="shed",
                    overloaded=Overloaded(
                        reason="breaker-open",
                        retry_after=retry_after,
                        tenant=handle.request.tenant,
                        queue_depth=self._queue.depth(),
                    ),
                    submitted_at=handle.submitted_at,
                    completed_at=now,
                    detail="circuit breaker open, no stale plan available",
                ),
                "shed",
            )

    def _fail_all(self, entry: _InFlight, detail: str, attempts: int = 0) -> None:
        now = self._now()
        for handle in self._live_handles(entry):
            self._resolve(
                handle,
                CompileResponse(
                    request_id=handle.request.request_id,
                    tenant=handle.request.tenant,
                    status="failed",
                    attempts=attempts,
                    submitted_at=handle.submitted_at,
                    completed_at=now,
                    detail=detail,
                ),
                "failed",
            )

    def _expire_handles(self, entry: _InFlight, now: float) -> None:
        for handle in entry.handles:
            if handle.future.done():
                continue
            deadline_at = handle.deadline_at()
            if deadline_at is not None and now > deadline_at:
                self._count("service.expired", now)
                self._resolve(
                    handle,
                    CompileResponse(
                        request_id=handle.request.request_id,
                        tenant=handle.request.tenant,
                        status="expired",
                        submitted_at=handle.submitted_at,
                        completed_at=now,
                        detail=f"timeout {handle.request.timeout:g}s elapsed",
                    ),
                    "expired",
                )

    def _cancel_handle(self, handle: RequestHandle) -> bool:
        if handle.future.done():
            return False
        now = self._now()
        self._count("service.cancelled", now)
        self._resolve(
            handle,
            CompileResponse(
                request_id=handle.request.request_id,
                tenant=handle.request.tenant,
                status="cancelled",
                submitted_at=handle.submitted_at,
                completed_at=now,
                detail="client cancelled",
            ),
            "cancelled",
        )
        return True

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _live_handles(self, entry: _InFlight) -> list[RequestHandle]:
        return [h for h in entry.handles if not h.future.done()]

    def _ok_response(
        self,
        handle: RequestHandle,
        compiled: CompiledPlan,
        now: float,
        attempts: int,
        coalesced: bool = False,
    ) -> CompileResponse:
        return CompileResponse(
            request_id=handle.request.request_id,
            tenant=handle.request.tenant,
            status="ok",
            plan_signature=compiled.signature,
            n_ops=len(compiled.plan.ops),
            coalesced=coalesced,
            attempts=attempts,
            submitted_at=handle.submitted_at,
            completed_at=now,
        )

    def _resolve(
        self, handle: RequestHandle, response: CompileResponse, status: str
    ) -> None:
        if handle.future.done():  # pragma: no cover - defensive
            return
        handle.future.set_result(response)
        self._request_span(
            handle.request, handle.submitted_at, response.completed_at, status
        )

    def _request_span(
        self, request: CompileRequest, start: float, end: float, status: str
    ) -> None:
        self.bus.span(
            "request",
            cat="service",
            track=f"tenant:{request.tenant}",
            start=start,
            end=end,
            attrs={"request": request.request_id, "status": status},
        )

    def _count(self, name: str, now: float) -> None:
        self.bus.counter(name, track="service").add(1, at=now)

    def _gauge_depth(self, now: float) -> None:
        gauge = self.bus.gauge("service.queue_depth", track="service")
        gauge.add(self._queue.depth() - gauge.value, at=now)
