"""Each distinct compile's work is done once, with identical outputs.

Three memos sit on the service's compile path: a plan cache remembers
its rejections, a task builds its signature key once, and the randomized
greedy scheduler runs on host bitmasks.  Each is checked here against a
test-local copy of the code it replaced, and the service's observable
results (responses, telemetry digest, cache counters) are pinned to the
values the code before the memos produced.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import _golden_reshardings
from repro.compiler import (
    CacheStats,
    CompileContext,
    PassManager,
    PlanCache,
    compile_resharding,
)
from repro.compiler.cache import BoundedLRU, plan_signature, task_signature
from repro.compiler.passes import DEFAULT_PASSES
from repro.core.mesh import DeviceMesh
from repro.core.task import ReshardingTask
from repro.core.validate import PlanValidationError
from repro.experiments.common import make_microbench_meshes
from repro.experiments.fig6 import TABLE2_CASES, TENSOR_SHAPE
from repro.scheduling import SchedTask, SchedulingProblem, randomized_greedy_schedule
from repro.scheduling import algorithms
from repro.scheduling.algorithms import N_TRIALS
from repro.scheduling.problem import evaluate
from repro.service import (
    CompileRequest,
    ReshardingService,
    ServiceChaos,
    build_task_pool,
    run_virtual,
)
from repro.service.loadgen import PROFILES, TIGHT, build_report, drive, generate_arrivals
from repro.sim.cluster import Cluster
from repro.sim.faults import DegradedWindow, FaultSchedule, HostFailure, RetryPolicy


# ----------------------------------------------------------------------
# The randomized greedy: bitmasks == the set algebra it replaced
# ----------------------------------------------------------------------
def set_algebra_greedy(problem, seed=0, rng=None):
    """The set-algebra randomized greedy, verbatim; returns (assignment, order).

    ``rng`` replaces the generator ``random.Random(seed)``.
    """
    rng = random.Random(seed) if rng is None else rng
    remaining = {t.task_id: t for t in problem.tasks}
    assignment: dict[int, int] = {}
    order: list[int] = []
    while remaining:
        best_set: list[tuple[int, int]] = []  # (task_id, host)
        best_score = -1
        ids = sorted(remaining)
        for _ in range(N_TRIALS):
            perm = ids[:]
            rng.shuffle(perm)
            used_hosts: set[int] = set()
            chosen: list[tuple[int, int]] = []
            score = 0
            for tid in perm:
                t = remaining[tid]
                if used_hosts & t.receiver_hosts:
                    continue
                # Prefer the fastest compatible sender host.
                options = [h for h in t.sender_host_options if h not in used_hosts]
                if not options:
                    continue
                h = min(options, key=lambda x: (t.duration(x), x))
                chosen.append((tid, h))
                used_hosts |= t.hosts(h)
                score += t.n_devices
            if score > best_score:
                best_score = score
                best_set = chosen
        for tid, h in sorted(best_set):
            assignment[tid] = h
            order.append(tid)
            del remaining[tid]
    return assignment, tuple(order)


def assert_greedy_matches(problem, seed):
    got = randomized_greedy_schedule(problem, seed=seed)
    assignment, order = set_algebra_greedy(problem, seed)
    assert got.order == order
    assert got.assignment == assignment
    assert got.makespan == evaluate(problem, assignment, order)[0]


@st.composite
def problems(draw):
    n_hosts = draw(st.integers(1, 90))
    hosts = st.integers(0, n_hosts - 1)
    tasks = []
    for tid in range(draw(st.integers(0, 14))):
        options = draw(st.lists(hosts, min_size=1, max_size=4, unique=True))
        receivers = draw(st.frozensets(hosts, max_size=5))
        # few distinct durations, so (duration, host) ties are common
        durations = {h: draw(st.sampled_from([0.5, 1.0, 1.0, 2.5])) for h in options}
        tasks.append(
            SchedTask(
                task_id=draw(st.integers(0, 3)) * 100 + tid,
                sender_host_options=tuple(options),
                receiver_hosts=receivers,
                duration_by_host=durations,
                n_devices=draw(st.integers(1, 9)),
            )
        )
    return SchedulingProblem(tasks)


@settings(max_examples=150, deadline=None)
@given(problems())
def test_bitmask_greedy_equals_set_algebra_on_random_problems(problem):
    for seed in (0, 7):
        assert_greedy_matches(problem, seed)


@st.composite
def dense_problems(draw):
    """Few hosts and many tasks, so trials fill every host and rounds hit
    the score bound; a sender may also be a receiver, and a task may have
    no receiver at all."""
    n_hosts = draw(st.integers(1, 6))
    hosts = st.integers(0, n_hosts - 1)
    tasks = []
    for tid in range(draw(st.integers(0, 40))):
        options = draw(st.lists(hosts, min_size=1, max_size=3, unique=True))
        receivers = draw(st.frozensets(hosts, max_size=3))
        durations = {h: draw(st.sampled_from([0.5, 1.0, 2.5])) for h in options}
        tasks.append(
            SchedTask(tid, tuple(options), receivers, durations, n_devices=draw(st.integers(1, 9)))
        )
    return SchedulingProblem(tasks)


@settings(max_examples=80, deadline=None)
@given(dense_problems())
def test_bitmask_greedy_equals_set_algebra_on_dense_problems(problem):
    for seed in (0, 7):
        assert_greedy_matches(problem, seed)


def test_bitmask_greedy_handles_host_ids_beyond_a_machine_word():
    tasks = [
        SchedTask(i, (80 + i % 3, 5 * i), frozenset({64 + i, 127 - i}),
                  {80 + i % 3: 1.0, 5 * i: 1.0 + i % 2}, n_devices=2 + i % 4)
        for i in range(12)
    ]
    for seed in (0, 7):
        assert_greedy_matches(SchedulingProblem(tasks), seed)


def golden_problems():
    """(label, problem) for every Fig. 5/6/7 and Table-2 task and granularity."""
    seen = set()
    for workload in ("fig5", "fig6", "fig7"):
        for label, task, _strategy in _golden_reshardings(workload):
            label = label.rsplit(":", 1)[0]
            if label in seen:
                continue
            seen.add(label)
            for granularity in ("intersection", "slice"):
                yield (
                    f"{label}:{granularity}",
                    SchedulingProblem.from_resharding(task, granularity=granularity),
                )


#: SHA-256 over every golden problem's label and greedy order at seeds 0, 7
GOLDEN_ORDERS_DIGEST = "e00fbf33a33c180e4ad169c09a6405776a600e167c53bf27687c6f55e39ffddb"
#: 7 Fig. 5 + 9 Table-2 (Fig. 6) + 8 Fig. 7 boundary tasks, two granularities each
N_GOLDEN_PROBLEMS = 48


def test_bitmask_greedy_equals_set_algebra_on_golden_problems():
    h = hashlib.sha256()
    labels = []
    for label, problem in golden_problems():
        labels.append(label)
        for seed in (0, 7):
            assert_greedy_matches(problem, seed)
            schedule = randomized_greedy_schedule(problem, seed=seed)
            h.update(repr((label, seed, schedule.order)).encode())
    assert len(labels) == N_GOLDEN_PROBLEMS
    assert h.hexdigest() == GOLDEN_ORDERS_DIGEST


class CountingRandom(random.Random):
    """A generator that counts its ``getrandbits`` calls; ``shuffle``
    goes through them too."""

    def __init__(self, seed):
        self.draws = 0
        super().__init__(seed)

    def getrandbits(self, k):
        self.draws += 1
        return super().getrandbits(k)


def test_bitmask_greedy_makes_the_draws_of_the_set_algebra(monkeypatch):
    # a greedy that drops or adds a draw fails here even on a problem
    # whose schedule survives it
    made: list[CountingRandom] = []

    def counting_random(seed):
        made.append(CountingRandom(seed))
        return made[-1]

    monkeypatch.setattr(algorithms, "random", types.SimpleNamespace(Random=counting_random))
    total = 0
    for label, problem in golden_problems():
        for seed in (0, 7):
            made.clear()
            randomized_greedy_schedule(problem, seed=seed)
            expected = CountingRandom(seed)
            set_algebra_greedy(problem, rng=expected)
            assert len(made) == 1 and made[0].draws == expected.draws, (label, seed)
            total += expected.draws
    assert total > 0


# ----------------------------------------------------------------------
# plan_signature: the memoized key hashes the bytes it always hashed
# ----------------------------------------------------------------------
def old_cluster_key(spec):
    key = (
        spec.n_hosts,
        spec.devices_per_host,
        spec.inter_host_bandwidth,
        spec.intra_host_bandwidth,
        spec.inter_host_latency,
        spec.intra_host_latency,
        tuple(sorted(spec.host_bandwidth_overrides)),
        0,  # the retired spare-host count
        repr(spec.failure_domains),
        repr(spec.topology),
        repr(spec.link_overrides),
    )
    if spec.memory_budget is not None:
        key += (("memory_budget", spec.memory_budget),)
    return key


def old_plan_signature(task, strategy_key, faults=None, retry_policy=None, epoch=0):
    """The formula before the memo, and before the cache epoch retired:
    a fresh task key per call."""
    task_key = (
        task.shape,
        task.dtype.str,
        str(task.src_spec),
        str(task.dst_spec),
        task.src_mesh.grid,
        task.dst_mesh.grid,
        old_cluster_key(task.cluster.spec),
    )
    return hashlib.sha256(
        repr(
            (
                task_key,
                strategy_key,
                "none" if faults is None else repr(faults),
                "none" if retry_policy is None else repr(retry_policy),
                epoch,
            )
        ).encode()
    ).hexdigest()


def with_budget(task, budget):
    spec = dataclasses.replace(task.cluster.spec, memory_budget=budget)
    cluster = Cluster(spec)
    return ReshardingTask(
        task.shape,
        DeviceMesh(cluster, task.src_mesh.grid), task.src_spec,
        DeviceMesh(cluster, task.dst_mesh.grid), task.dst_spec,
        dtype=task.dtype,
    )


def table2_tasks():
    for case in TABLE2_CASES:
        _cluster, src, dst = make_microbench_meshes(case.send_mesh, case.recv_mesh)
        yield ReshardingTask(
            TENSOR_SHAPE, src, case.send_spec, dst, case.recv_spec, dtype=np.float32
        )


def service_pool_tasks():
    for i, task in enumerate(build_task_pool(24)):
        yield with_budget(task, 1024.0) if i == 5 else (
            with_budget(task, float(1 << 40)) if i % 2 else task
        )


STRATEGY_KEYS = [
    ("broadcast", "intersection", "ensemble", True),
    ("send_recv",),
    "send_recv",
    ("auto", ("broadcast", "allgather"), ("memory_budget", 4096.0)),
]
FAULTS = [
    None,
    FaultSchedule(host_failures=(HostFailure(host=1, time=0.5),)),
    FaultSchedule(
        seed=4,
        degradations=(DegradedWindow(host=0, start=0.0, duration=1.0, factor=0.5),),
        drop_rate=0.01,
    ),
]
RETRIES = [None, RetryPolicy(max_attempts=3, backoff_base=0.005, jitter=0.25)]


def test_plan_signature_hashes_the_bytes_of_the_old_formula():
    n = 0
    for task in [*table2_tasks(), *service_pool_tasks()]:
        for strategy_key in STRATEGY_KEYS:
            for faults in FAULTS:
                for retry in RETRIES:
                    # every cache had epoch 0 on every real path
                    assert plan_signature(
                        task, strategy_key, faults, retry
                    ) == old_plan_signature(task, strategy_key, faults, retry, epoch=0)
                    n += 1
    assert n == (9 + 24) * 4 * 3 * 2


def test_task_signature_is_built_once_per_task():
    task = next(service_pool_tasks())
    assert task._signature is None
    first = task_signature(task)
    assert task._signature is not None and task._signature[1] == repr(first)
    assert task_signature(task) is first
    # content-addressed still: an equal task built separately keys the same
    assert task_signature(next(service_pool_tasks())) == first


# ----------------------------------------------------------------------
# Remembered rejections
# ----------------------------------------------------------------------
def tiny_budget_task():
    return list(service_pool_tasks())[5]


@pytest.fixture
def pass_runs(monkeypatch):
    calls = []
    real = PassManager.run

    def spy(self, state, ctx):
        calls.append(state.task)
        return real(self, state, ctx)

    monkeypatch.setattr(PassManager, "run", spy)
    return calls


def rejected_message(task, **ctx):
    with pytest.raises(PlanValidationError) as excinfo:
        compile_resharding(task, CompileContext(strategy="broadcast", **ctx))
    return str(excinfo.value)


def test_second_rejection_is_served_without_running_a_pass(pass_runs):
    cache = PlanCache()
    task = tiny_budget_task()
    first = rejected_message(task, cache=cache, validate=True)
    assert "M001" in first and len(pass_runs) == 1
    assert len(cache.rejections) == 1
    second = rejected_message(task, cache=cache, validate=True)
    assert second == first
    assert len(pass_runs) == 1
    # the lookups missed as before; no hit, store or size saw the rejection
    stats = cache.stats()
    assert (stats.requests, stats.hits, stats.misses, stats.size) == (2, 0, 2, 0)
    # an equal task built separately shares the verdict (content-addressed)
    assert rejected_message(tiny_budget_task(), cache=cache, validate=True) == first
    assert len(pass_runs) == 1


def test_lookup_never_returns_a_rejection():
    cache = PlanCache()
    task = tiny_budget_task()
    rejected_message(task, cache=cache, validate=True)
    (signature,) = cache.rejections._entries
    assert cache.lookup(signature) is None
    assert signature not in cache


@pytest.mark.parametrize(
    "ctx",
    [
        {"validate": False},
        {"validate": True, "cache": None},
        {"validate": True, "passes": "default"},
        {"validate": True, "deadline": 10.0},
    ],
    ids=["validate-false", "uncached", "custom-passes", "deadline"],
)
def test_rejections_are_consulted_only_by_default_validating_compiles(
    ctx, pass_runs, monkeypatch
):
    cache = PlanCache()
    task = tiny_budget_task()
    rejected_message(task, cache=cache, validate=True)
    assert len(pass_runs) == 1

    def forbidden(*_args):
        raise AssertionError("the rejection store was consulted")

    monkeypatch.setattr(cache.rejections, "lookup", forbidden)
    ctx = dict(ctx)
    ctx.setdefault("cache", cache)
    if ctx.get("passes") == "default":
        ctx["passes"] = DEFAULT_PASSES()  # a custom list, equal to the default
    if ctx["validate"]:
        rejected_message(task, **ctx)
    else:
        compile_resharding(task, CompileContext(strategy="broadcast", **ctx))
    assert len(pass_runs) == 2


def test_a_deadline_compile_still_stores_its_rejection(pass_runs):
    cache = PlanCache()
    task = tiny_budget_task()
    first = rejected_message(task, cache=cache, validate=True, deadline=10.0)
    assert len(cache.rejections) == 1
    assert rejected_message(task, cache=cache, validate=True) == first
    assert len(pass_runs) == 1


def test_rejections_are_lru_bounded_by_max_entries(pass_runs):
    cache = PlanCache(max_entries=2)
    base = tiny_budget_task()
    tasks = [with_budget(base, budget) for budget in (1000.0, 1001.0, 1002.0)]
    for task in tasks:
        rejected_message(task, cache=cache, validate=True)
    assert len(cache.rejections) == 2 and len(pass_runs) == 3
    rejected_message(tasks[2], cache=cache, validate=True)  # remembered
    assert len(pass_runs) == 3
    rejected_message(tasks[0], cache=cache, validate=True)  # evicted: recompiled
    assert len(pass_runs) == 4


def test_bounded_lru_refreshes_on_lookup_and_evicts_the_least_recent():
    lru: BoundedLRU[str, int] = BoundedLRU(2)
    lru.store("a", 1)
    lru.store("b", 2)
    assert lru.lookup("a") == 1
    lru.store("c", 3)
    assert (lru.lookup("a"), lru.lookup("b"), lru.lookup("c")) == (1, None, 3)
    lru.store("a", 4)  # an update does not evict
    assert len(lru) == 2 and lru.lookup("a") == 4
    assert lru.peek("c") == 3  # a peek leaves "c" the least recent
    lru.store("d", 5)
    assert (lru.peek("a"), lru.peek("c"), lru.peek("d")) == (4, None, 5)


def test_try_submit_answers_a_remembered_rejection_invalid_never_ok(pass_runs):
    task = tiny_budget_task()

    async def main():
        service = ReshardingService()
        await service.start()
        responses = []
        for i in range(3):
            request = CompileRequest(request_id=f"r{i}", tenant="t", task=task)
            outcome = service.try_submit(request)
            assert not hasattr(outcome, "status")  # admitted, not answered
            responses.append(await outcome.wait())
        await service.shutdown()
        return service, responses

    service, responses = run_virtual(main())
    assert [r.status for r in responses] == ["invalid"] * 3
    assert len({r.detail for r in responses}) == 1 and "M001" in responses[0].detail
    assert len(pass_runs) == 1
    assert service.cache.stats().size == 0


# ----------------------------------------------------------------------
# A bursty chaotic scenario: every observable equals the pre-memo run's
# ----------------------------------------------------------------------
def scenario():
    profile = dataclasses.replace(PROFILES["bursty"], n_requests=160, n_distinct_tasks=8)
    tasks = list(service_pool_tasks())[:8]
    arrivals = generate_arrivals(profile, 3)
    chaos = ServiceChaos(
        seed=3, slow_rate=0.2, slow_extra=0.05, fault_rate=0.15,
        cancel_rate=0.05, cancel_after=0.01, poison_requests=("req-0080",),
    )

    async def main():
        service = ReshardingService(TIGHT, chaos=chaos)
        await service.start()
        responses = await drive(service, arrivals, tasks, chaos, timeout=2.0)
        await service.shutdown()
        return service, responses

    service, responses = run_virtual(main())
    return service, build_report(profile, 3, service, responses)


def test_scenario_is_unchanged_and_rejects_the_tiny_budget_task_once(pass_runs):
    service, report = scenario()
    # the values the scenario gave before rejections were remembered
    assert report.status_counts == {"invalid": 12, "ok": 82, "shed": 65, "cancelled": 1}
    assert report.telemetry_digest == (
        "68a7581622c21e25ef15fc9908112a9ec386392d7c209e3405b4969b9d0f8967"
    )
    assert service.cache.stats() == CacheStats(
        requests=113, hits=59, misses=54, size=7
    )
    # 16 compiles ran the passes then, 9 of them on the tiny-budget task;
    # now that task is compiled once, and each of the 7 cached plans once
    tiny = [t for t in pass_runs if t.cluster.spec.memory_budget == 1024.0]
    assert len(tiny) == 1 and len(pass_runs) == 8
