"""Seeded load generator + report for exercising the service.

Drives a :class:`~repro.service.service.ReshardingService` on the
virtual-time loop with a deterministic multi-tenant arrival process —
steady Poisson or bursty (rate switches to ``burst_rate`` during
periodic burst windows) — over a small pool of distinct resharding
tasks, so identical requests recur and the cache/coalescing paths get
real traffic.  The whole run is a pure function of
``(profile, seed, config, chaos)``: arrivals, tenants, task choices,
cancellations, and every service decision replay byte-identically.

:func:`run_load` returns a :class:`LoadReport` with the overload-safety
evidence the ``serve --check`` gates and :func:`scenario_payload` assert
on: latency percentiles, per-status counts, cache hit rate,
shed/coalesce rates, peak queue depth, and the telemetry digest.
"""

from __future__ import annotations

import asyncio
import math
import random
from dataclasses import dataclass, field
from typing import Optional

from ..core.task import ReshardingTask
from ..experiments.common import make_microbench_meshes
from .admission import AdmissionConfig
from .chaos import ServiceChaos
from .clock import run_virtual
from .request import CompileRequest, CompileResponse
from .service import ReshardingService, ServiceConfig

__all__ = [
    "LoadProfile",
    "Arrival",
    "PROFILES",
    "generate_arrivals",
    "build_task_pool",
    "percentile",
    "LoadReport",
    "run_load",
    "scenario_payload",
    "TIGHT",
]


@dataclass(frozen=True)
class LoadProfile:
    """A deterministic arrival process over a pool of distinct tasks."""

    name: str
    n_requests: int = 120
    n_tenants: int = 4
    n_distinct_tasks: int = 6
    #: mean arrival rate outside bursts (requests / service second)
    base_rate: float = 60.0
    #: arrival rate inside a burst window
    burst_rate: float = 600.0
    #: a burst starts every ``burst_every`` seconds and lasts ``burst_len``
    burst_every: float = 1.0
    burst_len: float = 0.25
    bursty: bool = True

    def rate_at(self, t: float) -> float:
        if self.bursty and (t % self.burst_every) < self.burst_len:
            return self.burst_rate
        return self.base_rate


PROFILES: dict[str, LoadProfile] = {
    "steady": LoadProfile(name="steady", bursty=False),
    "bursty": LoadProfile(name="bursty"),
}


@dataclass(frozen=True)
class Arrival:
    """One scheduled submission."""

    time: float
    request_id: str
    tenant: str
    task_idx: int


def generate_arrivals(profile: LoadProfile, seed: int) -> list[Arrival]:
    """Seeded arrival schedule: exponential gaps at the profile's rate."""
    rng = random.Random(f"loadgen:{seed}:{profile.name}")
    arrivals: list[Arrival] = []
    t = 0.0
    for i in range(profile.n_requests):
        t += rng.expovariate(profile.rate_at(t))
        arrivals.append(
            Arrival(
                time=t,
                request_id=f"req-{i:04d}",
                tenant=f"tenant-{rng.randrange(profile.n_tenants)}",
                task_idx=rng.randrange(profile.n_distinct_tasks),
            )
        )
    return arrivals


def build_task_pool(n_distinct_tasks: int) -> list[ReshardingTask]:
    """``n`` small distinct reshardings (varying shape/specs), cycled."""
    combos = [
        ((2, 2), (2, 2), "S0R", "RS0"),
        ((1, 2), (2, 2), "RS0", "S0R"),
        ((2, 2), (1, 4), "S0R", "S1R"),
        ((2, 1), (2, 2), "RR", "S0R"),
    ]
    tasks: list[ReshardingTask] = []
    for i in range(n_distinct_tasks):
        send, recv, src_spec, dst_spec = combos[i % len(combos)]
        _cluster, src_mesh, dst_mesh = make_microbench_meshes(send, recv)
        shape = (64 + 32 * (i // len(combos)), 128)
        tasks.append(ReshardingTask(shape, src_mesh, src_spec, dst_mesh, dst_spec))
    return tasks


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in [0, 100]); 0.0 on empty input."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    rank = min(max(rank, 1), len(ordered))
    return ordered[rank - 1]


@dataclass
class LoadReport:
    """Everything a benchmark or CI gate asserts about one load run."""

    profile: str
    seed: int
    n_requests: int
    status_counts: dict[str, int] = field(default_factory=dict)
    p50_latency: float = 0.0
    p95_latency: float = 0.0
    p99_latency: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_hit_rate: float = 0.0
    n_coalesced: int = 0
    n_shed: int = 0
    n_degraded: int = 0
    n_retries: int = 0
    max_queue_depth: int = 0
    worker_crashes: int = 0
    counter_totals: dict[str, float] = field(default_factory=dict)
    telemetry_digest: str = ""

    @property
    def shed_rate(self) -> float:
        return self.n_shed / self.n_requests if self.n_requests else 0.0

    @property
    def coalesce_rate(self) -> float:
        return self.n_coalesced / self.n_requests if self.n_requests else 0.0

    def to_json(self) -> dict[str, object]:
        return {
            "profile": self.profile,
            "seed": self.seed,
            "n_requests": self.n_requests,
            "status_counts": dict(sorted(self.status_counts.items())),
            "latency": {
                "p50": self.p50_latency,
                "p95": self.p95_latency,
                "p99": self.p99_latency,
            },
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "hit_rate": self.cache_hit_rate,
            },
            "n_coalesced": self.n_coalesced,
            "n_shed": self.n_shed,
            "shed_rate": self.shed_rate,
            "n_degraded": self.n_degraded,
            "n_retries": self.n_retries,
            "max_queue_depth": self.max_queue_depth,
            "worker_crashes": self.worker_crashes,
            "telemetry_digest": self.telemetry_digest,
        }

    def format_summary(self) -> str:
        lines = [
            f"profile={self.profile} seed={self.seed} "
            f"requests={self.n_requests} crashes={self.worker_crashes}",
            "status: "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.status_counts.items())),
            f"latency: p50={self.p50_latency * 1e3:.2f}ms "
            f"p95={self.p95_latency * 1e3:.2f}ms "
            f"p99={self.p99_latency * 1e3:.2f}ms",
            f"cache: hits={self.cache_hits} misses={self.cache_misses} "
            f"hit_rate={self.cache_hit_rate:.2%}",
            f"coalesced={self.n_coalesced} shed={self.n_shed} "
            f"degraded={self.n_degraded} retries={self.n_retries} "
            f"max_queue_depth={self.max_queue_depth}",
        ]
        return "\n".join(lines)


async def drive(
    service: ReshardingService,
    arrivals: list[Arrival],
    tasks: list[ReshardingTask],
    chaos: Optional[ServiceChaos] = None,
    *,
    timeout: Optional[float] = None,
    deadline: Optional[float] = None,
) -> list[CompileResponse]:
    """Submit every arrival at its scheduled virtual time; await all.

    ``chaos`` client-side behavior (hang-ups) is applied here: a client
    chosen to cancel arms a timer for ``cancel_delay`` after admission.
    """
    loop = asyncio.get_event_loop()

    async def one(arrival: Arrival) -> CompileResponse:
        delay = arrival.time - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        request = CompileRequest(
            request_id=arrival.request_id,
            tenant=arrival.tenant,
            task=tasks[arrival.task_idx % len(tasks)],
            timeout=timeout,
            deadline=deadline,
        )
        outcome = service.try_submit(request)
        if isinstance(outcome, CompileResponse):
            return outcome
        if chaos is not None and chaos.cancels(arrival.request_id):
            loop.call_later(chaos.cancel_delay(arrival.request_id), outcome.cancel)
        return await outcome.wait()

    return list(await asyncio.gather(*(one(a) for a in arrivals)))


def run_load(
    profile: LoadProfile,
    *,
    seed: int = 0,
    config: Optional[ServiceConfig] = None,
    chaos: Optional[ServiceChaos] = None,
    timeout: Optional[float] = None,
    deadline: Optional[float] = None,
) -> LoadReport:
    """One complete, replayable load run on a fresh virtual-time loop."""
    arrivals = generate_arrivals(profile, seed)
    tasks = build_task_pool(profile.n_distinct_tasks)

    async def main() -> tuple[ReshardingService, list[CompileResponse]]:
        service = ReshardingService(config, chaos=chaos)
        await service.start()
        responses = await drive(
            service, arrivals, tasks, chaos, timeout=timeout, deadline=deadline
        )
        await service.shutdown()
        return service, responses

    service, responses = run_virtual(main())
    return build_report(profile, seed, service, responses)


def build_report(
    profile: LoadProfile,
    seed: int,
    service: ReshardingService,
    responses: list[CompileResponse],
) -> LoadReport:
    status_counts: dict[str, int] = {}
    for r in responses:
        status_counts[r.status] = status_counts.get(r.status, 0) + 1
    ok_latencies = [r.latency for r in responses if r.ok]
    totals = service.bus.counter_totals()
    stats = service.cache.stats()
    max_depth = 0
    for name, _track, _time, value in service.bus.counter_rows:
        if name == "service.queue_depth":
            max_depth = max(max_depth, int(value))
    return LoadReport(
        profile=profile.name,
        seed=seed,
        n_requests=len(responses),
        status_counts=status_counts,
        p50_latency=percentile(ok_latencies, 50),
        p95_latency=percentile(ok_latencies, 95),
        p99_latency=percentile(ok_latencies, 99),
        cache_hits=stats.hits,
        cache_misses=stats.misses,
        cache_hit_rate=stats.hit_rate,
        n_coalesced=int(totals.get("service/service.coalesced", 0)),
        n_shed=int(totals.get("service/service.shed", 0)),
        n_degraded=int(totals.get("service/service.degraded", 0)),
        n_retries=int(totals.get("service/service.retries", 0)),
        max_queue_depth=max_depth,
        worker_crashes=service.worker_crashes,
        counter_totals=totals,
        telemetry_digest=service.bus.digest(),
    )


#: tight admission policy that forces overload behavior under bursts
TIGHT = ServiceConfig(
    n_workers=2,
    admission=AdmissionConfig(max_queue_depth=12, per_tenant_depth=5, rate=45.0),
)


def scenario_payload() -> dict[str, object]:
    """Deterministic ``BENCH_service.json`` payload: two load scenarios.

    ``steady`` is sustained arrivals within capacity; ``bursty`` is
    periodic spikes against :data:`TIGHT`.  Raises unless every run is
    crash-free and the bursty one sheds or coalesces instead of growing
    its queue past the bound, with p99 under 2 virtual seconds.
    """
    bursty = run_load(PROFILES["bursty"], seed=0, config=TIGHT, timeout=2.0)
    steady = run_load(PROFILES["steady"], seed=0, config=ServiceConfig(n_workers=2), timeout=2.0)
    for report in (bursty, steady):
        if report.worker_crashes:
            raise RuntimeError(f"{report.profile}: {report.worker_crashes} worker crash(es)")
    if bursty.max_queue_depth > TIGHT.admission.max_queue_depth:
        raise RuntimeError(f"bursty queue depth {bursty.max_queue_depth} over its bound")
    if not (bursty.n_shed or bursty.n_coalesced):
        raise RuntimeError("bursty load neither shed nor coalesced")
    if not bursty.p99_latency < 2.0:
        raise RuntimeError(f"bursty p99 {bursty.p99_latency} s is not under 2 s")
    return {"bursty": bursty.to_json(), "steady": steady.to_json()}
