"""Load-balancing and scheduling algorithms from §3.2.

* :func:`naive_schedule` — first (lowest-indexed) sender host, task-id
  order; the paper's baseline.
* :func:`load_balance_schedule` — the classical LPT greedy: sort tasks
  by descending duration, assign each to the currently lightest sender
  host; order is the sorted order.
* :func:`dfs_schedule` — depth-first search over (assignment, order)
  decisions with lower-bound pruning and a deterministic node budget.
* :func:`randomized_greedy_schedule` — iterative rounds; each round
  picks, via random restarts, a conflict-free task set maximizing the
  number of devices involved.  Its draws are ``Random.shuffle``'s,
  one permutation per restart, so a seed fixes every schedule; a
  restart stops walking once every host is held, and once one reaches
  the round's score bound the rest only make their draws.
* :func:`ensemble_schedule` — run DFS and randomized greedy, keep the
  better result (the paper's "ours" in the Fig. 8 ablation).
* :func:`brute_force_schedule` — exact, for optimality tests on tiny
  instances.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from typing import Iterable, Optional

from .. import checks
from .problem import Schedule, SchedulingProblem, evaluate

__all__ = [
    "naive_schedule",
    "load_balance_schedule",
    "dfs_schedule",
    "randomized_greedy_schedule",
    "ensemble_schedule",
    "brute_force_schedule",
]


#: nominal DFS node expansions per "budget second" — fixes the search
#: depth so schedules cannot vary with CPU speed
_DFS_NODES_PER_SECOND = 200_000
#: random restarts per randomized-greedy round
N_TRIALS = 32
#: the ensemble's DFS budget (seconds) and the task count beyond which
#: it skips DFS
DFS_BUDGET = 0.2
DFS_MAX_TASKS = 20


def _finalize(
    problem: SchedulingProblem,
    assignment: dict[int, int],
    order: tuple[int, ...],
    algorithm: str,
) -> Schedule:
    makespan, starts = evaluate(problem, assignment, order)
    return Schedule(
        assignment=dict(assignment),
        order=tuple(order),
        makespan=makespan,
        algorithm=algorithm,
        start_times=starts,
    )


# ----------------------------------------------------------------------
def naive_schedule(problem: SchedulingProblem) -> Schedule:
    """Lowest-indexed sender host; arbitrary (task id) global order."""
    assignment = {t.task_id: min(t.sender_host_options) for t in problem.tasks}
    order = tuple(sorted(t.task_id for t in problem.tasks))
    return _finalize(problem, assignment, order, "naive")


# ----------------------------------------------------------------------
def load_balance_schedule(problem: SchedulingProblem) -> Schedule:
    """LPT greedy solving the minimax sender-load relaxation (Eq. 4)."""
    load: dict[int, float] = {}
    assignment: dict[int, int] = {}
    # Descending duration (use the max over options as the sort key so
    # ties are broken deterministically), then assign to lightest host.
    tasks = sorted(
        problem.tasks,
        key=lambda t: (-max(t.duration_by_host.values()), t.task_id),
    )
    order = []
    for t in tasks:
        best = min(
            t.sender_host_options,
            key=lambda h: (load.get(h, 0.0) + t.duration(h), h),
        )
        assignment[t.task_id] = best
        load[best] = load.get(best, 0.0) + t.duration(best)
        order.append(t.task_id)
    return _finalize(problem, assignment, order, "load_balance")


# ----------------------------------------------------------------------
def dfs_schedule(
    problem: SchedulingProblem,
    time_budget: float = 0.2,
    initial_best: Optional[Schedule] = None,
) -> Schedule:
    """Branch over (next task, sender host) with lower-bound pruning.

    The bound below a partial schedule is the larger of (a) the current
    partial makespan and (b) for each host, its committed busy time plus
    the total duration of remaining tasks *forced* through it (single
    sender option or receiver membership) — the per-device load bound of
    Eq. 4.  ``time_budget`` scales a fixed node-expansion budget
    (``time_budget * 200_000`` branch expansions, roughly seconds on the
    reference machine); a wall-clock deadline would make the chosen
    schedule depend on CPU speed, so identical inputs would produce
    different plans on different machines (repro-lint L001).  Search
    stops at the budget and returns the best complete schedule found
    (falling back to LPT if none completed).
    """
    checks.real("time_budget", time_budget, "[0, inf)")
    # a budget too large to count in nodes is no limit at all
    node_budget = max(1, int(min(time_budget * _DFS_NODES_PER_SECOND, sys.maxsize)))
    nodes = 0
    best = initial_best if initial_best is not None else load_balance_schedule(problem)
    best_makespan = best.makespan
    tasks = {t.task_id: t for t in problem.tasks}
    all_ids = sorted(tasks)
    # Remaining-work lower bound per host is maintained incrementally:
    # forced_load[h] = sum of min-durations of unscheduled tasks that must
    # occupy host h (as a receiver, or as the only sender option).
    forced_load: dict[int, float] = {}

    def forced_hosts(t) -> set[int]:
        hosts = set(t.receiver_hosts)
        if len(t.sender_host_options) == 1:
            hosts.add(t.sender_host_options[0])
        return hosts

    for t in tasks.values():
        d = min(t.duration_by_host.values())
        for h in forced_hosts(t):
            forced_load[h] = forced_load.get(h, 0.0) + d

    host_free: dict[int, float] = {}
    assignment: dict[int, int] = {}
    order: list[int] = []
    remaining = set(all_ids)
    out_of_time = False

    def bound(partial_makespan: float) -> float:
        b = partial_makespan
        for h, extra in forced_load.items():
            b = max(b, host_free.get(h, 0.0) + extra)
        return b

    def recurse(partial_makespan: float) -> None:
        nonlocal best, best_makespan, out_of_time, nodes
        nodes += 1
        if out_of_time or nodes > node_budget:
            out_of_time = True
            return
        if not remaining:
            if partial_makespan < best_makespan - 1e-15:
                best_makespan = partial_makespan
                best = _finalize(problem, assignment, tuple(order), "dfs")
            return
        if bound(partial_makespan) >= best_makespan - 1e-15:
            return
        # Branch on longer tasks first; they constrain the bound most.
        cand = sorted(
            remaining,
            key=lambda tid: (-max(tasks[tid].duration_by_host.values()), tid),
        )
        for tid in cand:
            t = tasks[tid]
            fh = forced_hosts(t)
            dmin = min(t.duration_by_host.values())
            for h in t.sender_host_options:
                dur = t.duration(h)
                hosts = t.hosts(h)
                start = max((host_free.get(x, 0.0) for x in hosts), default=0.0)
                finish = start + dur
                # -- apply
                saved = {x: host_free.get(x, 0.0) for x in hosts}
                for x in hosts:
                    host_free[x] = finish
                for x in fh:
                    forced_load[x] -= dmin
                remaining.discard(tid)
                assignment[tid] = h
                order.append(tid)
                recurse(max(partial_makespan, finish))
                # -- undo
                order.pop()
                del assignment[tid]
                remaining.add(tid)
                for x in fh:
                    forced_load[x] += dmin
                for x, v in saved.items():
                    host_free[x] = v
                if out_of_time:
                    return

    try:
        recurse(0.0)
    finally:
        del recurse  # it calls itself through its own cell: free it now
    return Schedule(
        assignment=best.assignment,
        order=best.order,
        makespan=best.makespan,
        algorithm="dfs",
        start_times=best.start_times,
    )


# ----------------------------------------------------------------------
def randomized_greedy_schedule(problem: SchedulingProblem, seed: int = 0) -> Schedule:
    """Iterative rounds of randomized maximal conflict-free sets.

    Each round repeatedly shuffles the remaining tasks and greedily
    keeps those that can run concurrently with the set built so far
    (no shared sender or receiver host); the trial covering the most
    devices wins the round (the first such trial on a tie).
    Concatenating rounds yields the global order; list scheduling then
    recovers concurrency inside rounds.

    A trial's used hosts are one bitmask.  Each task's receiver hosts
    are a mask, and its sender options are sorted once by ``(duration,
    host)``, so the first option not in use is the fastest compatible
    sender host.  The draws fix every schedule: each trial permutes the
    sorted remaining tasks exactly as ``rng.shuffle`` does, by an inline
    Fisher-Yates making the same ``getrandbits`` calls (for ``i`` from
    ``n - 1`` down to 1, draw ``k = (i + 1).bit_length()`` bits until
    the value is at most ``i``, then swap).  Two cuts skip work that
    cannot change the result:

    * A trial stops walking once every host is held: a later task
      conflicts on its receivers or finds no free sender host.
    * Chosen tasks hold disjoint host sets, and a task holds at least
      ``h = min over its sender options of |receivers | {sender}|``
      hosts, so a trial chooses at most ``fit`` tasks, the most whose
      smallest ``h`` sum to at most the problem's host count; as
      ``n_devices >= 1``, no trial scores more than the ``fit`` largest
      ``n_devices`` together.  A later trial must score strictly more to
      win, so once one reaches that bound the round's remaining trials
      only make their draws (no swap, no walk), and the next round's
      draws are unchanged.
    """
    checks.integer("seed", seed, -math.inf)
    getrandbits = random.Random(int(seed)).getrandbits
    bit: dict[int, int] = {}

    def mask(hosts: Iterable[int]) -> int:
        m = 0
        for h in hosts:
            m |= bit.setdefault(h, 1 << len(bit))
        return m

    # one row per task, in task id order: (task id, receiver mask,
    # [(sender host, its mask)] fastest first, devices, fewest hosts held)
    rows = []
    for t in sorted(problem.tasks, key=lambda t: t.task_id):
        receivers = mask(t.receiver_hosts)
        options = sorted(t.sender_host_options, key=lambda h: (t.duration(h), h))
        senders = [(h, mask((h,))) for h in options]
        least = min((receivers | sender).bit_count() for _, sender in senders)
        rows.append((t.task_id, receivers, senders, t.n_devices, least))
    n_hosts = len(bit)
    every_host = (1 << n_hosts) - 1
    assignment: dict[int, int] = {}
    order: list[int] = []
    while rows:
        held = fit = 0
        for least in sorted(row[4] for row in rows):
            held += least
            if held > n_hosts:
                break
            fit += 1
        bound = sum(sorted((row[3] for row in rows), reverse=True)[:fit])
        steps = [(i, (i + 1).bit_length()) for i in range(len(rows) - 1, 0, -1)]
        best_set: list[tuple[int, int]] = []  # (task_id, host)
        best_score = -1
        trials = N_TRIALS
        while trials:
            trials -= 1
            perm = rows[:]
            for i, k in steps:
                j = getrandbits(k)
                while j > i:
                    j = getrandbits(k)
                perm[i], perm[j] = perm[j], perm[i]
            used = 0
            chosen: list[tuple[int, int]] = []
            score = 0
            for tid, receivers, senders, n_devices, _ in perm:
                if used & receivers:
                    continue
                for h, sender in senders:
                    if not used & sender:
                        break
                else:
                    continue
                chosen.append((tid, h))
                used |= receivers | sender
                score += n_devices
                if used == every_host:
                    break
            if score > best_score:
                best_score = score
                best_set = chosen
                if score >= bound:
                    break
        # the round's leftover trials only draw, so later rounds draw as before
        for _ in range(trials):
            for i, k in steps:
                while getrandbits(k) > i:
                    pass
        best_set.sort()
        for tid, h in best_set:
            assignment[tid] = h
            order.append(tid)
        done = {tid for tid, _ in best_set}
        rows = [row for row in rows if row[0] not in done]
    return _finalize(problem, assignment, tuple(order), "randomized_greedy")


# ----------------------------------------------------------------------
def ensemble_schedule(problem: SchedulingProblem) -> Schedule:
    """The paper's "ours": best of DFS-with-pruning and randomized greedy.

    DFS runs with a ``DFS_BUDGET`` of budget seconds and is skipped
    beyond ``DFS_MAX_TASKS`` tasks, where the paper observes it cannot
    find good schedules within the budget.
    """
    rg = randomized_greedy_schedule(problem)
    if problem.n_tasks > DFS_MAX_TASKS:
        return Schedule(
            assignment=rg.assignment,
            order=rg.order,
            makespan=rg.makespan,
            algorithm="ensemble",
            start_times=rg.start_times,
        )
    df = dfs_schedule(problem, time_budget=DFS_BUDGET, initial_best=rg)
    winner = df if df.makespan <= rg.makespan else rg
    return Schedule(
        assignment=winner.assignment,
        order=winner.order,
        makespan=winner.makespan,
        algorithm="ensemble",
        start_times=winner.start_times,
    )


# ----------------------------------------------------------------------
def brute_force_schedule(problem: SchedulingProblem, max_tasks: int = 7) -> Schedule:
    """Exact minimum over all assignments and orders (test oracle)."""
    if problem.n_tasks > max_tasks:
        raise ValueError(
            f"brute force limited to {max_tasks} tasks, got {problem.n_tasks}"
        )
    ids = [t.task_id for t in problem.tasks]
    best: Optional[Schedule] = None
    option_lists = [problem.by_id(tid).sender_host_options for tid in ids]
    for choices in itertools.product(*option_lists):
        assignment = dict(zip(ids, choices))
        for order in itertools.permutations(ids):
            makespan, starts = evaluate(problem, assignment, order)
            if best is None or makespan < best.makespan - 1e-15:
                best = Schedule(
                    assignment=dict(assignment),
                    order=tuple(order),
                    makespan=makespan,
                    algorithm="brute_force",
                    start_times=starts,
                )
    assert best is not None
    return best
