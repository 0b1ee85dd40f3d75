"""Unit tests for the resharding service: clock, cache, admission,
breaker, coalescing, fairness, deadlines, and degraded mode."""

import asyncio
import re

import pytest

from repro.compiler import (
    CompileContext,
    CompileTimeout,
    PlanCache,
    compile_resharding,
)
from repro.core.mesh import DeviceMesh
from repro.core.task import ReshardingTask
from repro.service import (
    AdmissionConfig,
    AdmissionController,
    BreakerConfig,
    CircuitBreaker,
    CompileRequest,
    CompileResponse,
    FairQueue,
    ReshardingService,
    ServiceConfig,
    TokenBucket,
    VirtualTimeStall,
    build_task_pool,
    run_virtual,
)
from repro.sim.cluster import Cluster, ClusterSpec
from repro.sim.faults import RetryPolicy, seeded_uniform


def make_task(shape=(64, 64), src_spec="S0R", dst_spec="RS0"):
    c = Cluster(ClusterSpec(n_hosts=4, devices_per_host=2))
    src = DeviceMesh.from_hosts(c, [0, 1])
    dst = DeviceMesh.from_hosts(c, [2, 3])
    return ReshardingTask(shape, src, src_spec, dst, dst_spec)


async def submit(service, request):
    """Submit and wait for the terminal response, as the load generator does."""
    outcome = service.try_submit(request)
    if isinstance(outcome, CompileResponse):
        return outcome
    return await outcome.wait()


# ----------------------------------------------------------------------
# Virtual-time loop
# ----------------------------------------------------------------------
def test_virtual_clock_advances_without_wall_time():
    async def main():
        loop = asyncio.get_event_loop()
        t0 = loop.time()
        await asyncio.sleep(123.5)
        return loop.time() - t0

    assert run_virtual(main()) == pytest.approx(123.5)


def test_virtual_clock_interleaves_timers_deterministically():
    async def main():
        loop = asyncio.get_event_loop()
        order = []

        async def tick(name, delay):
            await asyncio.sleep(delay)
            order.append((name, loop.time()))

        await asyncio.gather(tick("b", 0.2), tick("a", 0.1), tick("c", 0.3))
        return order

    assert run_virtual(main()) == [("a", 0.1), ("b", 0.2), ("c", 0.3)]


def test_virtual_clock_stall_raises_instead_of_hanging():
    async def main():
        await asyncio.get_event_loop().create_future()  # never resolves

    with pytest.raises(VirtualTimeStall):
        run_virtual(main())


# ----------------------------------------------------------------------
# LRU plan cache
# ----------------------------------------------------------------------
def test_cache_lru_evicts_least_recently_used():
    cache = PlanCache(max_entries=2)
    task = make_task()
    sigs = []
    for shape in [(32, 32), (48, 48), (64, 64)]:
        t = make_task(shape=shape)
        ctx = CompileContext(strategy="send_recv", cache=cache)
        compiled = compile_resharding(t, ctx)
        sigs.append(compiled.signature)
    del task
    # the first signature was least recently used and must be gone
    assert cache.lookup(sigs[0]) is None
    assert cache.lookup(sigs[2]) is not None
    assert cache.stats().evictions == 1


def test_cache_lru_touch_on_hit_protects_entry():
    cache = PlanCache(max_entries=2)
    a = compile_resharding(make_task(shape=(32, 32)),
                           CompileContext(strategy="send_recv", cache=cache))
    compile_resharding(make_task(shape=(48, 48)),
                       CompileContext(strategy="send_recv", cache=cache))
    assert cache.lookup(a.signature) is not None  # touch: a is now MRU
    compile_resharding(make_task(shape=(64, 64)),
                       CompileContext(strategy="send_recv", cache=cache))
    assert cache.lookup(a.signature) is not None  # survived the eviction


# ----------------------------------------------------------------------
# Compile deadline (satellite 2)
# ----------------------------------------------------------------------
def test_compile_deadline_times_out_deterministically():
    task = make_task()
    with pytest.raises(CompileTimeout) as exc1:
        compile_resharding(task, CompileContext(
            strategy="broadcast", cache=None, deadline=1e-4))
    with pytest.raises(CompileTimeout) as exc2:
        compile_resharding(task, CompileContext(
            strategy="broadcast", cache=None, deadline=1e-4))
    # identical inputs -> identical spend and phase, on any machine
    assert exc1.value.spent == exc2.value.spent
    assert exc1.value.phase == exc2.value.phase
    assert "deadline" in str(exc1.value)


def test_compile_deadline_generous_budget_completes():
    compiled = compile_resharding(make_task(), CompileContext(
        strategy="broadcast", cache=None, deadline=5.0))
    assert compiled.plan.ops


def test_compile_deadline_not_part_of_signature():
    task = make_task()
    a = compile_resharding(task, CompileContext(
        strategy="send_recv", cache=None, deadline=5.0))
    b = compile_resharding(task, CompileContext(strategy="send_recv", cache=None))
    assert a.signature == b.signature is None  # uncached: no signature
    cache = PlanCache()
    c = compile_resharding(task, CompileContext(
        strategy="send_recv", cache=cache, deadline=5.0))
    d = compile_resharding(task, CompileContext(strategy="send_recv", cache=cache))
    assert c.signature == d.signature
    assert d is c  # second call was a cache hit


# ----------------------------------------------------------------------
# Admission primitives
# ----------------------------------------------------------------------
def test_token_bucket_refills_at_rate():
    bucket = TokenBucket(rate=10.0, burst=2.0, now=0.0)
    assert bucket.take(0.0) and bucket.take(0.0)
    assert not bucket.take(0.0)
    assert bucket.time_until_token(0.0) == pytest.approx(0.1)
    assert bucket.take(0.1)


def test_fair_queue_round_robin_across_tenants():
    q = FairQueue()
    for i in range(3):
        q.push("a", f"a{i}")
    q.push("b", "b0")
    q.push("c", "c0")
    order = []
    while True:
        popped = q.pop()
        if popped is None:
            break
        order.append(popped[1])
    # one per tenant per cycle: a, b, c, then a's backlog drains
    assert order == ["a0", "b0", "c0", "a1", "a2"]


def test_admission_controller_reasons():
    config = AdmissionConfig(max_queue_depth=4, per_tenant_depth=2,
                             rate=10.0, burst=1.0)
    ctrl = AdmissionController(config)
    q = FairQueue()
    # rate limit: burst of 1, second request inside the same instant
    assert ctrl.decide("t1", 0.0, q, drain_rate=100.0) is None
    over = ctrl.decide("t1", 0.0, q, drain_rate=100.0)
    assert over is not None and over.reason == "rate-limited"
    assert over.retry_after > 0
    # per-tenant bound
    q.push("t2", 1)
    q.push("t2", 2)
    over = ctrl.decide("t2", 10.0, q, drain_rate=100.0)
    assert over is not None and over.reason == "tenant-queue-full"
    # global bound
    q.push("t3", 3)
    q.push("t4", 4)
    over = ctrl.decide("t5", 20.0, q, drain_rate=100.0)
    assert over is not None and over.reason == "queue-full"
    assert over.queue_depth == 4


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
def test_breaker_full_cycle_open_half_open_closed():
    b = CircuitBreaker(BreakerConfig(failure_threshold=3, cooldown=1.0,
                                     half_open_probes=2))
    for _ in range(2):
        b.record_failure(0.0)
    assert b.state == "closed"
    b.record_failure(0.0)
    assert b.state == "open"
    assert b.allow(0.5) == "reject"
    assert b.retry_after(0.5) == pytest.approx(0.5)
    # cooldown elapsed -> half-open, limited probes
    assert b.allow(1.0) == "probe"
    assert b.allow(1.0) == "probe"
    assert b.allow(1.0) == "reject"  # probe slots exhausted
    b.record_success(1.1)
    b.record_success(1.2)
    assert b.state == "closed"
    assert [(f, t) for _, f, t in b.transitions] == [
        ("closed", "open"), ("open", "half_open"), ("half_open", "closed")]


def test_breaker_probe_failure_reopens():
    b = CircuitBreaker(BreakerConfig(failure_threshold=1, cooldown=1.0,
                                     half_open_probes=1))
    b.record_failure(0.0)
    assert b.allow(1.5) == "probe"
    b.record_failure(1.6)
    assert b.state == "open"
    assert b.allow(2.0) == "reject"  # cooldown restarted at 1.6
    assert b.allow(2.7) == "probe"
    b.record_success(2.8)
    assert b.state == "closed"


# ----------------------------------------------------------------------
# Service behavior
# ----------------------------------------------------------------------
def service_config(**kw):
    defaults = dict(
        n_workers=1,
        base_service_time=0.05,
        admission=AdmissionConfig(max_queue_depth=8, per_tenant_depth=4),
    )
    defaults.update(kw)
    return ServiceConfig(**defaults)


def test_single_flight_coalesces_identical_requests():
    task = make_task()

    async def main():
        service = ReshardingService(service_config())
        await service.start()
        requests = [
            CompileRequest(request_id=f"r{i}", tenant="t", task=task)
            for i in range(4)
        ]
        responses = await asyncio.gather(*(submit(service, r) for r in requests))
        await service.shutdown()
        return service, responses

    service, responses = run_virtual(main())
    assert all(r.ok for r in responses)
    assert sum(r.coalesced for r in responses) == 3
    assert service.cache.stats().size == 1  # exactly one physical compile
    totals = service.bus.counter_totals()
    assert totals["service/service.coalesced"] == 3
    assert totals["service/service.completed"] == 1


def test_identical_request_after_completion_hits_cache():
    task = make_task()

    async def main():
        service = ReshardingService(service_config())
        await service.start()
        first = await submit(
            service, CompileRequest(request_id="r0", tenant="t", task=task))
        second = await submit(
            service, CompileRequest(request_id="r1", tenant="t", task=task))
        await service.shutdown()
        return first, second

    first, second = run_virtual(main())
    assert first.ok and second.ok
    assert not second.coalesced
    assert second.latency == 0.0  # answered at admission from the cache
    assert second.plan_signature == first.plan_signature


def test_fairness_bursty_tenant_cannot_starve_others():
    tasks = build_task_pool(12)

    async def main():
        service = ReshardingService(service_config(
            admission=AdmissionConfig(max_queue_depth=32, per_tenant_depth=16)))
        await service.start()
        flood = [
            CompileRequest(request_id=f"flood-{i}", tenant="bursty",
                           task=tasks[i % 6])
            for i in range(10)
        ]
        polite = [
            CompileRequest(request_id=f"polite-{i}", tenant="polite",
                           task=tasks[6 + i])
            for i in range(2)
        ]

        async def run_flood():
            return await asyncio.gather(*(submit(service, r) for r in flood))

        async def run_polite():
            await asyncio.sleep(0.001)  # arrive just after the flood
            return await asyncio.gather(*(submit(service, r) for r in polite))

        flood_rs, polite_rs = await asyncio.gather(run_flood(), run_polite())
        await service.shutdown()
        return flood_rs, polite_rs

    flood_rs, polite_rs = run_virtual(main())
    assert all(r.ok for r in polite_rs)
    # round-robin dequeue: each polite request waits at most ~one compile
    # per tenant cycle, not behind the whole 10-deep flood
    flood_ok = [r for r in flood_rs if r.ok]
    assert max(r.latency for r in polite_rs) < max(r.latency for r in flood_ok)
    assert max(r.latency for r in polite_rs) < 4 * 0.05 + 0.01


def test_overload_sheds_with_structured_response():
    tasks = build_task_pool(12)

    async def main():
        service = ReshardingService(service_config(
            admission=AdmissionConfig(max_queue_depth=3, per_tenant_depth=3)))
        await service.start()
        requests = [
            CompileRequest(request_id=f"r{i}", tenant="t", task=tasks[i])
            for i in range(8)
        ]
        responses = await asyncio.gather(*(submit(service, r) for r in requests))
        await service.shutdown()
        return responses

    responses = run_virtual(main())
    shed = [r for r in responses if r.status == "shed"]
    assert shed, "tight queue bound must shed some of the burst"
    for r in shed:
        assert r.overloaded is not None
        assert r.overloaded.reason in ("queue-full", "tenant-queue-full")
        assert r.overloaded.retry_after > 0
        assert r.overloaded.queue_depth >= 3
    assert all(r.ok for r in responses if r.status == "ok")


def test_request_timeout_expires_in_queue():
    tasks = build_task_pool(3)

    async def main():
        service = ReshardingService(service_config(base_service_time=0.1))
        await service.start()
        slow = service.try_submit(
            CompileRequest(request_id="slow", tenant="t", task=tasks[0]))
        hasty = service.try_submit(
            CompileRequest(request_id="hasty", tenant="t", task=tasks[1],
                           timeout=0.05))
        responses = await asyncio.gather(slow.wait(), hasty.wait())
        await service.shutdown()
        return responses

    slow_r, hasty_r = run_virtual(main())
    assert slow_r.ok
    assert hasty_r.status == "expired"
    assert hasty_r.completed_at > 0.05


def test_client_cancellation_resolves_only_that_waiter():
    task = make_task()

    async def main():
        service = ReshardingService(service_config())
        await service.start()
        keep = service.try_submit(
            CompileRequest(request_id="keep", tenant="t", task=task))
        drop = service.try_submit(
            CompileRequest(request_id="drop", tenant="t", task=task))
        assert not isinstance(drop, type(None))
        drop.cancel()
        responses = await asyncio.gather(keep.wait(), drop.wait())
        await service.shutdown()
        return responses

    keep_r, drop_r = run_virtual(main())
    assert drop_r.status == "cancelled"
    assert keep_r.ok  # the coalesced compile still served the survivor


def test_breaker_open_serves_stale_plan_degraded():
    task = make_task()
    other = make_task(shape=(80, 80))

    async def main():
        service = ReshardingService(service_config(
            breaker=BreakerConfig(failure_threshold=2, cooldown=100.0)))
        await service.start()
        warm = service.try_submit(
            CompileRequest(request_id="warm", tenant="t", task=task))
        await asyncio.sleep(0.01)  # the one worker is compiling "warm"
        # a duplicate no longer coalesces: it queues behind the compile
        stale_ok = service.try_submit(
            CompileRequest(request_id="stale-ok", tenant="t", task=task))
        no_stale = service.try_submit(
            CompileRequest(request_id="no-stale", tenant="t", task=other))
        # the compiler starts failing hard and the breaker trips
        service.breaker.record_failure(service._now())
        service.breaker.record_failure(service._now())
        assert service.breaker.is_open
        responses = await asyncio.gather(warm.wait(), stale_ok.wait(), no_stale.wait())
        await service.shutdown()
        return service, responses

    service, (fresh, degraded, shed) = run_virtual(main())
    assert fresh.ok and not fresh.degraded
    assert degraded.ok and degraded.degraded
    assert "stale" in degraded.detail
    assert degraded.plan_signature == fresh.plan_signature
    assert shed.status == "shed"
    assert shed.overloaded is not None
    assert shed.overloaded.reason == "breaker-open"
    assert shed.overloaded.retry_after > 0
    # three submissions and the one compile looked up; serving stale did not
    assert service.cache.stats().requests == 4


def test_transient_faults_retried_with_deterministic_backoff():
    task = make_task()
    from repro.service import ServiceChaos

    # fault on attempt 1 for this request id, succeed later (verified by
    # the seeded hash below, so the test can't rot silently)
    chaos = None
    for seed in range(100):
        candidate = ServiceChaos(seed=seed, fault_rate=0.5)
        if candidate.attempt_faults("r0", 1) and not candidate.attempt_faults("r0", 2):
            chaos = candidate
            break
    assert chaos is not None

    async def main():
        service = ReshardingService(
            service_config(retry=RetryPolicy(max_attempts=3, backoff_base=0.01)),
            chaos=chaos,
        )
        await service.start()
        response = await submit(
            service, CompileRequest(request_id="r0", tenant="t", task=task))
        await service.shutdown()
        return service, response

    service, response = run_virtual(main())
    assert response.ok
    assert response.attempts == 2
    totals = service.bus.counter_totals()
    assert totals["service/service.retries"] == 1
    assert totals["service/service.transient_fault"] == 1
    assert service.breaker.state == "closed"


def test_seeded_uniform_is_deterministic():
    assert seeded_uniform(1, "x", 2) == seeded_uniform(1, "x", 2)
    assert seeded_uniform(1, "x", 2) != seeded_uniform(1, "x", 3)
    assert 0.0 <= seeded_uniform("anything") < 1.0


# ----------------------------------------------------------------------
# Partition-induced faults vs. compile overload (failure-domain PR)
# ----------------------------------------------------------------------
def test_breaker_partition_failures_never_trip():
    b = CircuitBreaker(BreakerConfig(failure_threshold=2, cooldown=1.0,
                                     half_open_probes=1))
    for i in range(10):
        b.record_failure(float(i), kind="partition")
    # A network partition says nothing about compiler health: the
    # breaker stays closed no matter how many timeouts it explains.
    assert b.state == "closed"
    assert b.partition_failures == 10
    # Genuine compile failures still trip at the configured threshold.
    b.record_failure(20.0)
    b.record_failure(20.1)
    assert b.state == "open"


def test_breaker_partition_failure_during_probe_keeps_half_open():
    b = CircuitBreaker(BreakerConfig(failure_threshold=1, cooldown=1.0,
                                     half_open_probes=1))
    b.record_failure(0.0)
    assert b.allow(1.5) == "probe"
    # The probe's failure is attributed to a partition: don't re-open —
    # release the probe slot so the next request can probe again.
    b.record_failure(1.6, kind="partition")
    assert b.state == "half_open"
    assert b.allow(1.7) == "probe"
    b.record_success(1.8)
    assert b.state == "closed"


def test_breaker_rejects_unknown_failure_kind():
    b = CircuitBreaker(BreakerConfig(failure_threshold=2, cooldown=1.0,
                                     half_open_probes=1))
    with pytest.raises(ValueError, match="kind"):
        b.record_failure(0.0, kind="gremlins")


def test_partition_faults_retried_and_counted_separately():
    task = make_task()
    from repro.service import ServiceChaos

    chaos = None
    for seed in range(200):
        candidate = ServiceChaos(seed=seed, partition_rate=0.5)
        if candidate.attempt_partitioned("r0", 1) and not (
            candidate.attempt_partitioned("r0", 2)
        ):
            chaos = candidate
            break
    assert chaos is not None
    assert chaos.attempt_partitioned("r0", 1)  # seeded -> replayable

    async def main():
        service = ReshardingService(
            service_config(retry=RetryPolicy(max_attempts=3, backoff_base=0.01)),
            chaos=chaos,
        )
        await service.start()
        response = await submit(
            service, CompileRequest(request_id="r0", tenant="t", task=task))
        await service.shutdown()
        return service, response

    service, response = run_virtual(main())
    assert response.ok
    assert response.attempts == 2
    totals = service.bus.counter_totals()
    assert totals["service/service.partition_fault"] == 1
    assert "service/service.transient_fault" not in totals
    # Partition-induced retries must not push the breaker toward open.
    assert service.breaker.state == "closed"


def test_service_chaos_validates_partition_rate():
    from repro.service import ServiceChaos

    with pytest.raises(ValueError, match="partition_rate"):
        ServiceChaos(partition_rate=-0.1)
    with pytest.raises(ValueError, match="partition_rate"):
        ServiceChaos(partition_rate=1.0)
    assert not ServiceChaos(partition_rate=0.0).attempt_partitioned("r", 1)


def test_admission_rate_takes_only_numbers():
    # a string rate failed with a bare TypeError inside math.isfinite
    with pytest.raises(ValueError, match="rate"):
        AdmissionConfig(rate="1")


def test_load_profile_takes_numpy_integers():
    # schedule_job took np.int64 counts while the service's rule refused them
    import numpy as np

    from repro.service import LoadProfile

    assert LoadProfile(name="np", n_requests=np.int64(5)).n_requests == 5


def test_load_profile_rejects_no_tenants(capsys):
    # serve --tenants 0 fails on its input, not inside randrange()
    from repro.__main__ import main
    from repro.service import LoadProfile

    with pytest.raises(ValueError, match="n_tenants"):
        LoadProfile(name="none", n_tenants=0)
    assert main(["serve", "--tenants", "0"]) == 2
    assert re.search("n_tenants", capsys.readouterr().err)


def test_load_profile_rejects_negative_requests(capsys):
    # serve --requests -3 must not exit 0 with an empty report
    from repro.__main__ import main
    from repro.service import LoadProfile

    assert LoadProfile(name="idle", n_requests=0).n_requests == 0
    with pytest.raises(ValueError, match="n_requests"):
        LoadProfile(name="negative", n_requests=-3)
    assert main(["serve", "--requests", "-3"]) == 2
    assert re.search("n_requests", capsys.readouterr().err)


NAN, INF = float("nan"), float("inf")


def _load_run(**kw):
    from repro.service import PROFILES, run_load

    return run_load(PROFILES["steady"], seed=0, **kw)


def _profile(**kw):
    from repro.service import LoadProfile

    return LoadProfile(name="bad", **kw)


def _chaos(**kw):
    from repro.service import ServiceChaos

    return ServiceChaos(**kw)


@pytest.mark.parametrize(
    "field, build",
    [
        ("deadline", lambda: CompileRequest("r", "t", make_task(), deadline=NAN)),
        ("deadline", lambda: _load_run(deadline=NAN)),
        ("timeout", lambda: CompileRequest("r", "t", make_task(), timeout=INF)),
        ("timeout", lambda: _load_run(timeout=NAN)),
        ("rate", lambda: AdmissionConfig(rate=NAN)),
        ("rate", lambda: AdmissionConfig(rate=INF)),
        ("burst", lambda: AdmissionConfig(rate=10.0, burst=NAN)),
        ("burst_every", lambda: _profile(burst_every=0.0)),
        ("base_rate", lambda: _profile(base_rate=0.0, bursty=False)),
        ("burst_rate", lambda: _profile(burst_rate=NAN)),
        ("burst_len", lambda: _profile(burst_len=-1.0)),
        ("n_distinct_tasks", lambda: _profile(n_distinct_tasks=0)),
        ("cooldown", lambda: BreakerConfig(cooldown=NAN)),
        ("base_service_time", lambda: ServiceConfig(base_service_time=NAN)),
        ("base_service_time", lambda: ServiceConfig(base_service_time=INF)),
        ("slow_extra", lambda: _chaos(slow_extra=NAN)),
        ("cancel_after", lambda: _chaos(cancel_after=INF)),
    ],
    ids=[
        "request-deadline-nan",
        "run_load-deadline-nan",
        "request-timeout-inf",
        "run_load-timeout-nan",
        "rate-nan",
        "rate-inf",
        "burst-nan",
        "burst_every-0",
        "base_rate-0",
        "burst_rate-nan",
        "burst_len-negative",
        "n_distinct_tasks-0",
        "cooldown-nan",
        "base_service_time-nan",
        "base_service_time-inf",
        "slow_extra-nan",
        "cancel_after-inf",
    ],
)
def test_service_inputs_must_be_finite(field, build):
    """NaN, inf and zero rates fail on their own field with a
    ``ValueError``: never a crash mid-run, a disabled limit or a request
    that cannot expire."""
    with pytest.raises(ValueError, match=field):
        build()


@pytest.mark.parametrize(
    "field, value, build",
    [
        ("n_workers", 2.5, lambda v: ServiceConfig(n_workers=v)),
        ("n_workers", True, lambda v: ServiceConfig(n_workers=v)),
        ("n_requests", 2.5, lambda v: _profile(n_requests=v)),
        ("n_requests", NAN, lambda v: _profile(n_requests=v)),
        ("n_tenants", 1.5, lambda v: _profile(n_tenants=v)),
        ("n_tenants", NAN, lambda v: _profile(n_tenants=v)),
        ("n_distinct_tasks", 1.5, lambda v: _profile(n_distinct_tasks=v)),
        ("max_queue_depth", 2.5, lambda v: AdmissionConfig(max_queue_depth=v)),
        ("per_tenant_depth", 1.5, lambda v: AdmissionConfig(per_tenant_depth=v)),
        ("failure_threshold", 1.5, lambda v: BreakerConfig(failure_threshold=v)),
        ("half_open_probes", True, lambda v: BreakerConfig(half_open_probes=v)),
    ],
)
def test_service_counts_take_only_integers(field, value, build):
    """A count that is a float, NaN or bool fails on its own field, naming
    the value: never a bare ``TypeError`` at ``start()`` or inside
    ``randrange``, and never accepted silently."""
    with pytest.raises(ValueError, match=rf"{field} must be an integer.*{value!r}"):
        build(value)


def test_service_counts_keep_their_bounds():
    assert _profile(n_requests=0).n_requests == 0
    assert ServiceConfig(n_workers=1).n_workers == 1
    for build in (
        lambda: ServiceConfig(n_workers=0),
        lambda: _profile(n_requests=-1),
        lambda: AdmissionConfig(per_tenant_depth=0),
    ):
        with pytest.raises(ValueError, match="must be an integer >= "):
            build()


def test_serve_rejects_a_nan_rate(capsys):
    from repro.__main__ import main

    assert main(["serve", "--rate", "nan"]) == 2
    assert re.search("rate", capsys.readouterr().err)


@pytest.mark.parametrize("chaos", [False, True], ids=["clean", "chaos"])
def test_serve_check_passes_on_bursty_load(chaos, capsys):
    """``serve --check``'s overload-safety gates hold on a 200-request
    bursty load, with and without injected chaos."""
    from repro.__main__ import main

    argv = ["serve", "--profile", "bursty", "--requests", "200", "--check"]
    assert main(argv + ["--chaos"] * chaos) == 0
    assert "service checks: ok" in capsys.readouterr().out
