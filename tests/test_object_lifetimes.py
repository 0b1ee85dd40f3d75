"""Object lifetimes: a finished simulation is freed by reference counting.

Every simulator builds a kernel, a bus, a network or an executor's
callbacks that refer to one another.  None of those references may form
a cycle that outlives the run: with the collector off, running a
simulation and dropping its result must leave nothing for
``gc.collect()`` to free.  The workload half reuses the count ledger's
seed-0 pass (:func:`tests.workload_counts.workload_pass`); the unit half
covers the paths no benchmark op reaches (the fault path, each
collective on its own).

A result's bus outlives its loop: it keeps answering ``now``, counters
and marks at the loop's final instant.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.core.executor import simulate_plan
from repro.core.mesh import DeviceMesh
from repro.core.task import ReshardingTask
from repro.experiments import fig3
from repro.pipeline.executor import simulate_pipeline
from repro.pipeline.schedules import schedule_job
from repro.pipeline.stage import CommEdge, PipelineJob, StageProfile
from repro.runtime.kernel import EventLoop
from repro.scheduling import SchedTask, SchedulingProblem, dfs_schedule
from repro.sim.cluster import Cluster, ClusterSpec
from repro.sim.collectives import all_reduce
from repro.sim.faults import FaultSchedule, HostFailure, RetryPolicy
from repro.sim.network import Network
from repro.sim.primitives import (
    CollectiveHandle,
    p2p,
    ring_allgather,
    ring_broadcast,
    scatter,
    switch_multicast,
)
from repro.sim.solver import VectorSolver
from repro.sim.topology import FatTreeTopology
from repro.strategies import make_strategy
from tests.workload_counts import WORKLOADS, workload_pass


def leftover(fn) -> int:
    """Objects only the collector frees once ``fn()`` ran with it off."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        fn()
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


def test_leftover_counts_a_cycle():
    def make_cycle():
        a: list = []
        a.append(a)

    assert leftover(make_cycle) == 1
    assert leftover(lambda: [[]]) == 0


# ----------------------------------------------------------------------
# Every benchmark op (the ledger's seed-0 pass)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_benchmark_op_leaves_cyclic_garbage(workload):
    measured = workload_pass(workload)
    assert measured.cyclic_garbage.keys() == measured.counts.keys()
    offenders = {op: n for op, n in measured.cyclic_garbage.items() if n}
    assert not offenders, f"ops leaving cyclic garbage (objects): {offenders}"


# ----------------------------------------------------------------------
# Paths no benchmark op reaches
# ----------------------------------------------------------------------
def _task() -> ReshardingTask:
    c = Cluster(ClusterSpec(n_hosts=4, devices_per_host=4,
                            inter_host_latency=0.0, intra_host_latency=0.0))
    return ReshardingTask((8, 8, 8), DeviceMesh.from_hosts(c, [0, 1]), "S0RR",
                          DeviceMesh.from_hosts(c, [2, 3]), "RRR", dtype=np.float32)


@pytest.mark.parametrize("strategy", ["send_recv", "allgather", "broadcast"])
def test_faulted_run_with_abandoned_flows_leaves_no_cycle(strategy):
    # A receiving host dies at t = 0: its flows exhaust their retries,
    # the plan runner's on_abandon hook aborts their collectives.
    plan = make_strategy(strategy).plan(_task())
    faults = FaultSchedule(host_failures=(HostFailure(host=3, time=0.0),))
    policy = RetryPolicy(max_attempts=2, backoff_base=1e-4, jitter=0.0)
    failed: list[tuple[int, ...]] = []

    def run() -> None:
        failed.append(simulate_plan(plan, faults=faults, retry_policy=policy).failed_ops)

    assert leftover(run) == 0
    assert failed[0]  # not vacuous: collectives were aborted


def _fat_tree() -> Network:
    return Network(Cluster(ClusterSpec(
        n_hosts=4, devices_per_host=2,
        topology=FatTreeTopology(hosts_per_leaf=2, oversubscription=2.0),
    )))


@pytest.mark.parametrize(
    "launch",
    [
        lambda net: p2p(net, 0, 4, 4096.0),
        lambda net: scatter(net, 0, [1, 4, 5, 6], 4096.0),
        lambda net: ring_allgather(net, [0, 1, 2, 3, 4, 5, 6, 7], 512.0),
        lambda net: ring_broadcast(net, 0, [1, 2, 3, 4, 5, 6], 4096.0, n_chunks=5),
        lambda net: switch_multicast(net, 0, [1, 2, 3, 4, 6, 7], 4096.0,
                                     switch="spine", n_chunks=3),
        lambda net: all_reduce(net, [0, 1, 2, 3, 4, 5], 4096.0),
    ],
    ids=["p2p", "scatter", "ring_allgather", "ring_broadcast", "switch_multicast",
         "all_reduce"],
)
@pytest.mark.parametrize("solver", [None, VectorSolver], ids=["scalar", "vector"])
def test_a_finished_collective_leaves_no_cycle(launch, solver):
    done: list[bool] = []

    def run() -> None:
        net = _fat_tree() if solver is None else Network(
            _fat_tree().cluster, solver=solver())
        handle = launch(net)
        net.run()
        done.append(handle.done and not handle.failed and net._next_id > 0)

    assert leftover(run) == 0
    assert done == [True]


def test_a_fired_handle_drops_its_callbacks():
    net = _fat_tree()
    fired: list[CollectiveHandle] = []
    handle = p2p(net, 0, 4, 4096.0)
    handle.add_done_callback(fired.append)
    net.run()
    assert fired == [handle] and handle._callbacks == []
    aborted = p2p(net, 0, 4, 4096.0)
    aborted.add_done_callback(fired.append)
    aborted.abort("test")
    assert fired == [handle, aborted] and aborted._callbacks == []
    # a callback added after the handle fired runs at once, exactly once
    aborted.add_done_callback(fired.append)
    net.run()
    assert fired == [handle, aborted, aborted]


def test_dfs_schedule_leaves_no_cycle():
    def T(tid, options, receivers, dur):
        return SchedTask(tid, tuple(options), frozenset(receivers),
                         {h: dur + h for h in options}, 2)

    problem = SchedulingProblem([T(0, [0, 1], [2], 1.0), T(1, [0, 1], [3], 2.0),
                                 T(2, [1], [2, 3], 1.5), T(3, [0], [3], 0.5)])
    assert leftover(lambda: dfs_schedule(problem, time_budget=0.01)) == 0


@pytest.mark.parametrize("strategy",
                         ["send_recv", "local_allgather", "global_allgather", "broadcast"])
def test_fig3_strategy_leaves_no_cycle(strategy):
    assert leftover(lambda: fig3.simulate_strategy(strategy, 2, 2, n_chunks=4)) == 0


# ----------------------------------------------------------------------
# A bus outlives its loop
# ----------------------------------------------------------------------
def _assert_bus_reads_final_instant(bus, final: float) -> None:
    n_spans, digest = len(bus.spans), bus.digest()
    assert n_spans > 0 and bus.counters is not None
    assert bus.now == final
    bus.counter("late", track="t").add(2.0)
    assert bus.counter_rows[-1] == ("late", "t", final, 2.0)
    assert bus.mark("after").time == final
    assert len(bus.spans) == n_spans and bus.digest() != digest


def test_pipeline_bus_outlives_its_loop(monkeypatch):
    loops: list[weakref.ref[EventLoop]] = []
    init = EventLoop.__init__

    def recording_init(self: EventLoop) -> None:
        init(self)
        loops.append(weakref.ref(self))

    monkeypatch.setattr(EventLoop, "__init__", recording_init)
    job = PipelineJob(
        [StageProfile(s, fwd_time=1.0, bwd_x_time=1.5, bwd_w_time=0.5,
                      activation_bytes=1.0) for s in range(3)],
        [CommEdge(s, s + 1, fwd_time=0.25, bwd_time=0.25) for s in range(2)],
        n_microbatches=4,
    )
    result = simulate_pipeline(job, schedule_job("1f1b", 3, 4))
    bus = result.telemetry
    final = result.iteration_time
    assert len(loops) == 1 and loops[0]() is None  # the loop went with the run
    del result
    _assert_bus_reads_final_instant(bus, final)


def test_plan_bus_outlives_its_loop_and_network():
    result = simulate_plan(make_strategy("broadcast").plan(_task()))
    bus, final = result.telemetry, result.total_time
    loop = weakref.ref(result.network.loop)
    network = weakref.ref(result.network)
    del result
    assert loop() is None and network() is None
    _assert_bus_reads_final_instant(bus, final)


def test_a_loop_clock_reads_now_while_the_loop_lives():
    loop = EventLoop()
    bus = loop.bus
    seen: list[float] = []
    loop.call_at(1.5, lambda: seen.append(bus.now))
    loop.run()
    loop.now = 2.0  # a checkpoint restore sets the clock directly
    assert seen == [1.5] and bus.now == 2.0
    del loop
    assert bus.now == 2.0
