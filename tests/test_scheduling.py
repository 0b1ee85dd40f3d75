"""Tests for the load-balancing / scheduling algorithms (paper §3.2)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mesh import DeviceMesh
from repro.core.task import ReshardingTask
from repro.scheduling import (
    Schedule,
    SchedTask,
    SchedulingProblem,
    brute_force_schedule,
    dfs_schedule,
    ensemble_schedule,
    evaluate,
    load_balance_schedule,
    naive_schedule,
    randomized_greedy_schedule,
    validate_schedule,
)
from repro.scheduling import algorithms
from repro.sim.cluster import Cluster, ClusterSpec


def T(task_id, options, receivers, dur, n_devices=2):
    return SchedTask(
        task_id=task_id,
        sender_host_options=tuple(options),
        receiver_hosts=frozenset(receivers),
        duration_by_host={h: dur for h in options},
        n_devices=n_devices,
    )


ALGOS = [
    naive_schedule,
    load_balance_schedule,
    dfs_schedule,
    randomized_greedy_schedule,
    ensemble_schedule,
]


# ----------------------------------------------------------------------
# problem / evaluate
# ----------------------------------------------------------------------
def test_problem_validation():
    with pytest.raises(ValueError, match="duplicate"):
        SchedulingProblem([T(0, [0], [1], 1.0), T(0, [0], [1], 1.0)])
    with pytest.raises(ValueError, match="sender"):
        SchedulingProblem([T(0, [], [1], 1.0)])
    with pytest.raises(ValueError, match="duration"):
        SchedulingProblem(
            [SchedTask(0, (0, 1), frozenset({2}), {0: 1.0})]
        )


def test_evaluate_serializes_conflicting_tasks():
    # Two tasks with the same receiver host must not overlap (Eq. 3).
    p = SchedulingProblem([T(0, [0], [2], 1.0), T(1, [1], [2], 1.0)])
    makespan, starts = evaluate(p, {0: 0, 1: 1}, [0, 1])
    assert makespan == pytest.approx(2.0)
    assert starts == {0: 0.0, 1: 1.0}


def test_evaluate_parallelizes_disjoint_tasks():
    p = SchedulingProblem([T(0, [0], [2], 1.0), T(1, [1], [3], 1.0)])
    makespan, starts = evaluate(p, {0: 0, 1: 1}, [0, 1])
    assert makespan == pytest.approx(1.0)
    assert starts[0] == starts[1] == 0.0


def test_evaluate_same_sender_serializes():
    p = SchedulingProblem([T(0, [0], [2], 1.0), T(1, [0], [3], 1.0)])
    makespan, _ = evaluate(p, {0: 0, 1: 0}, [0, 1])
    assert makespan == pytest.approx(2.0)


def test_validate_schedule():
    p = SchedulingProblem([T(0, [0], [2], 1.0), T(1, [1], [3], 1.0)])
    good = naive_schedule(p)
    validate_schedule(p, good)
    bad = naive_schedule(p)
    bad.assignment[0] = 9
    with pytest.raises(ValueError, match="Eq. 2"):
        validate_schedule(p, bad)
    bad2 = naive_schedule(p)
    bad2.order = (0,)
    with pytest.raises(ValueError, match="permutation"):
        validate_schedule(p, bad2)


# ----------------------------------------------------------------------
# individual algorithms
# ----------------------------------------------------------------------
def test_naive_uses_lowest_host():
    p = SchedulingProblem([T(0, [3, 1], [5], 1.0)])
    s = naive_schedule(p)
    assert s.assignment[0] == 1
    assert s.order == (0,)


def test_naive_congests_case2_style():
    """All slices from one host: naive sends everything from host 0."""
    tasks = [T(i, [0, 1], [2 + i % 2], 1.0) for i in range(4)]
    p = SchedulingProblem(tasks)
    naive = naive_schedule(p)
    assert all(h == 0 for h in naive.assignment.values())
    ours = ensemble_schedule(p)
    assert ours.makespan < naive.makespan


def test_load_balance_spreads_load():
    tasks = [T(i, [0, 1], [2 + i], 1.0) for i in range(4)]
    p = SchedulingProblem(tasks)
    s = load_balance_schedule(p)
    hosts = list(s.assignment.values())
    assert hosts.count(0) == hosts.count(1) == 2


def test_load_balance_sorts_by_slowest_option_and_picks_the_earliest_finish():
    # task 0 is the longest by its slowest option (4.0 > 3.0) though its
    # fastest (0.5) is the shortest; each goes where it finishes first
    p = SchedulingProblem([
        SchedTask(0, (0, 1), frozenset({2}), {0: 4.0, 1: 0.5}),
        SchedTask(1, (0, 1), frozenset({3}), {0: 3.0, 1: 2.0}),
    ])
    s = load_balance_schedule(p)
    assert s.order == (0, 1)
    assert s.assignment == {0: 1, 1: 1}


@pytest.mark.parametrize("duration", [1.0, 64.0])
def test_brute_force_keeps_the_first_optimum_it_meets(duration):
    # two assignments and both orders tie; at 64.0 the 1e-15 tie margin
    # is below the makespan's float spacing
    p = SchedulingProblem([T(0, [0, 1], [2], duration), T(1, [0, 1], [3], duration)])
    s = brute_force_schedule(p)
    assert (s.order, s.assignment, s.makespan) == ((0, 1), {0: 0, 1: 1}, duration)


def test_load_balance_is_lpt_order():
    tasks = [T(0, [0], [2], 1.0), T(1, [0], [3], 5.0), T(2, [0], [4], 3.0)]
    p = SchedulingProblem(tasks)
    s = load_balance_schedule(p)
    assert s.order == (1, 2, 0)  # descending duration


def test_dfs_finds_optimal_small():
    # case-5 shape: 4 equal tasks, 2 sender options, paired receivers
    tasks = [T(i, [0, 1], [2 + i // 2], 1.0) for i in range(4)]
    p = SchedulingProblem(tasks)
    best = brute_force_schedule(p)
    s = dfs_schedule(p, time_budget=2.0)
    assert s.makespan == pytest.approx(best.makespan)


def test_dfs_respects_budget():
    tasks = [T(i, [0, 1, 2], [3 + i % 3], 1.0 + 0.1 * i) for i in range(10)]
    p = SchedulingProblem(tasks)
    import time

    t0 = time.monotonic()
    s = dfs_schedule(p, time_budget=0.05)
    assert time.monotonic() - t0 < 1.0
    validate_schedule(p, s)


# at 16x the 1e-15 tie margin is below a makespan's float spacing, so a
# subtree whose bound equals the best is pruned by ">=" alone
@pytest.mark.parametrize("scale", [1.0, 16.0])
def test_dfs_expands_exactly_time_budget_times_its_node_rate(scale):
    # the search first reaches its 8.0 schedule at its 26th node, so a
    # budget of 25 nodes returns LPT's 11.0 and one of 26 nodes the 8.0
    p = SchedulingProblem([
        SchedTask(0, (0, 1), frozenset({1, 3}), {0: 4.0 * scale, 1: 3.0 * scale}),
        SchedTask(1, (1,), frozenset({0, 1}), {1: 3.0 * scale}),
        SchedTask(2, (2,), frozenset({0}), {2: 3.0 * scale}),
        SchedTask(3, (0, 1), frozenset({2, 3}), {0: 2.0 * scale, 1: 4.0 * scale}),
    ])
    assert load_balance_schedule(p).makespan == 11.0 * scale
    assert dfs_schedule(p, time_budget=(26 - 1e-5) / 200_000).makespan == 11.0 * scale
    assert dfs_schedule(p, time_budget=(26 + 1e-6) / 200_000).makespan == 8.0 * scale


@pytest.mark.parametrize("d", [1.0, 64.0])
def test_dfs_keeps_an_initial_best_no_leaf_beats(d):
    # three tasks on two sender hosts take 2d however they are placed;
    # the receiver bound (d) lets DFS reach leaves of 2d, and it must keep
    # the equal schedule it was given (at 64.0 the 1e-15 tie margin is
    # below the makespan's float spacing)
    p = SchedulingProblem([T(i, [0, 1], [2 + i], d) for i in range(3)])
    given = Schedule({0: 1, 1: 0, 2: 0}, (1, 0, 2), 2 * d, "given", {1: 0.0, 0: 0.0, 2: d})
    s = dfs_schedule(p, time_budget=1.0, initial_best=given)
    assert (s.order, s.assignment, s.makespan) == ((1, 0, 2), {0: 1, 1: 0, 2: 0}, 2 * d)


def test_dfs_zero_budget_expands_the_root_only():
    p = SchedulingProblem([T(0, [0, 1], [2], 1.0)])
    worse = dataclasses.replace(naive_schedule(p), makespan=5.0)
    assert dfs_schedule(p, time_budget=0.0, initial_best=worse).makespan == 5.0
    assert dfs_schedule(p, time_budget=1e-5, initial_best=worse).makespan == 1.0


def test_randomized_greedy_valid_and_effective():
    tasks = [T(i, [i % 2], [2 + (i // 2) % 2], 1.0) for i in range(8)]
    p = SchedulingProblem(tasks)
    s = randomized_greedy_schedule(p, seed=1)
    validate_schedule(p, s)
    # 8 tasks, pairs can run 2-at-a-time -> makespan 4 is optimal
    assert s.makespan == pytest.approx(4.0)


def test_randomized_greedy_deterministic_per_seed():
    tasks = [T(i, [0, 1], [2 + i % 2], 1.0 + i * 0.01) for i in range(6)]
    p = SchedulingProblem(tasks)
    a = randomized_greedy_schedule(p, seed=7)
    b = randomized_greedy_schedule(p, seed=7)
    assert a.order == b.order and a.assignment == b.assignment


def test_randomized_greedy_seeds_with_zero_by_default():
    tasks = [T(i, [0, 1], [2 + i % 2], 1.0 + i * 0.01) for i in range(6)]
    p = SchedulingProblem(tasks)
    default = randomized_greedy_schedule(p)
    assert default.order == randomized_greedy_schedule(p, seed=0).order
    assert default.order != randomized_greedy_schedule(p, seed=1).order


def test_ensemble_never_worse_than_components():
    tasks = [T(i, [0, 1], [2 + i % 2], 1.0) for i in range(5)]
    p = SchedulingProblem(tasks)
    e = ensemble_schedule(p)
    rg = randomized_greedy_schedule(p)
    df = dfs_schedule(p)
    assert e.makespan <= min(rg.makespan, df.makespan) + 1e-12


def test_ensemble_skips_dfs_on_large_instances():
    tasks = [T(i, [0], [1 + i % 3], 1.0) for i in range(25)]
    p = SchedulingProblem(tasks)
    s = ensemble_schedule(p)
    validate_schedule(p, s)


@pytest.mark.parametrize("n_tasks, runs_dfs", [(20, True), (21, False)])
def test_ensemble_runs_dfs_up_to_twenty_tasks(n_tasks, runs_dfs, monkeypatch):
    calls = []
    dfs = algorithms.dfs_schedule

    def spy(*args, **kwargs):
        calls.append(args)
        return dfs(*args, **kwargs)

    monkeypatch.setattr(algorithms, "dfs_schedule", spy)
    p = SchedulingProblem([T(i, [0], [1 + i % 3], 1.0) for i in range(n_tasks)])
    ensemble_schedule(p)
    assert bool(calls) == runs_dfs


def test_brute_force_guard():
    tasks = [T(i, [0], [1], 1.0) for i in range(9)]
    with pytest.raises(ValueError):
        brute_force_schedule(SchedulingProblem(tasks))
    with pytest.raises(ValueError, match="limited to 7 tasks"):
        brute_force_schedule(SchedulingProblem(tasks[:8]))
    assert brute_force_schedule(SchedulingProblem(tasks[:7])).makespan == 7.0


# ----------------------------------------------------------------------
# optimality comparisons on random small instances
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.integers(0, 2), min_size=1, max_size=2, unique=True),
            st.integers(3, 5),
            st.floats(0.5, 3.0),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_property_algorithms_valid_and_bounded(specs):
    tasks = [
        T(i, opts, [recv], dur) for i, (opts, recv, dur) in enumerate(specs)
    ]
    p = SchedulingProblem(tasks)
    best = brute_force_schedule(p)
    for algo in ALGOS:
        s = algo(p)
        validate_schedule(p, s)
        # every algorithm's claimed makespan is reproducible
        m, _ = evaluate(p, s.assignment, s.order)
        assert m == pytest.approx(s.makespan)
        # and at least as large as optimal
        assert s.makespan >= best.makespan - 1e-9
    assert ensemble_schedule(p).makespan <= best.makespan * 1.5 + 1e-9


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.dictionaries(st.integers(0, 2), st.sampled_from([0.5, 1.0, 2.0, 3.0]),
                            min_size=1, max_size=2),
            st.frozensets(st.integers(2, 4), min_size=1, max_size=2),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_property_dfs_with_ample_budget_is_optimal(specs):
    # a task's durations differ by sender host, so the forced-load bound
    # must count each task at its cheapest option to stay a lower bound
    p = SchedulingProblem([
        SchedTask(i, tuple(sorted(durations)), receivers, durations)
        for i, (durations, receivers) in enumerate(specs)
    ])
    assert dfs_schedule(p, time_budget=10.0).makespan == brute_force_schedule(p).makespan


def test_ensemble_optimal_on_table2_cases():
    """On the paper's microbenchmark shapes the ensemble reaches brute force."""
    cluster = Cluster(ClusterSpec(n_hosts=4, devices_per_host=4))
    src = DeviceMesh.from_hosts(cluster, [0, 1])
    dst = DeviceMesh.from_hosts(cluster, [2, 3])
    for src_spec, dst_spec in [("RS0R", "S0RR"), ("S1RR", "S0RR"), ("RRR", "S0RR")]:
        rt = ReshardingTask((16, 16, 16), src, src_spec, dst, dst_spec, dtype=np.float32)
        p = SchedulingProblem.from_resharding(rt)
        if p.n_tasks > 6:
            continue
        assert ensemble_schedule(p).makespan == pytest.approx(
            brute_force_schedule(p).makespan
        )


def test_from_resharding_durations():
    """Cross-host tasks get NIC-bound durations, local ones NVLink-bound."""
    cluster = Cluster(ClusterSpec(n_hosts=4, devices_per_host=4))
    src = DeviceMesh.from_hosts(cluster, [0, 1])
    dst = DeviceMesh.from_hosts(cluster, [2, 3])
    rt = ReshardingTask((16, 16, 16), src, "S0RR", dst, "S0RR", dtype=np.float32)
    p = SchedulingProblem.from_resharding(rt)
    for t in p.tasks:
        for h in t.sender_host_options:
            expected = (16 ** 3 // 2) * 4 / cluster.spec.inter_host_bandwidth
            assert t.duration(h) == pytest.approx(expected)
