"""Incremental re-simulation: reuse unchanged schedule prefixes.

A standalone entry point: no compile or simulation path calls it.  The
select pass scores every auto candidate with a cold
:func:`~repro.core.executor.simulate_plan`, because on the real
workloads no captured checkpoint was ever resumed.  The module stays
because the benchmark harness still resets its default cache and wraps
:func:`resimulate`; it can be deleted once that harness no longer names
it.

Repeated simulations of plans that share a schedule prefix re-run every
unit task from time zero even though the prefix is identical.

This module keeps a :class:`ResimCache` of simulator **checkpoints**
taken at quiescent unit-task boundaries, keyed by a rolling content
digest of the op-schedule prefix.  :func:`resimulate` finds the deepest
cached checkpoint whose digest matches the plan's prefix, restores the
simulator there (fresh :class:`~repro.sim.network.Network`, prefix
telemetry rows, executor state), and replays only the suffix — the
result is **byte-identical** to a cold :func:`~repro.core.executor
.simulate_plan` (``tests/test_resim.py`` pins telemetry-digest
equality).

Soundness
=========

A checkpoint is only valid at a **quiescent barrier cut**: an instant
where no flows are active, no events are pending, every released task
has finished, and the finished set is exactly a prefix of
``schedule.order``.  Real schedules are not chain-serial — the
scheduler load-balances tasks across disjoint host sets precisely so
they overlap — so cuts are detected *dynamically* while simulating,
not inferred statically from the gating graph.  At such a cut the
suffix cannot perturb the prefix (max-min fair sharing couples the
rates of concurrent flows, but nothing is concurrent across the cut).

A resume additionally validates the *new* plan against the cut: every
suffix task whose gating predecessors all lie inside the prefix (an
*entry* task) must be gated on the checkpoint's last-finishing task.
That guarantees (a) no suffix flow would have started before the cut
in a cold run, and (b) the cold run releases exactly those entry tasks
in one sorted successor sweep at the cut instant — which the resume
replays verbatim, so the result is byte-identical.

Eligibility is otherwise ``faults=None`` (no timeout events, no
fault-boundary events, no retries), ``respect_schedule=True``, no
caller-supplied network, and no ungated (task id ``-1``) ops.
Anything else falls back to a cold simulation; the fallback is
counted, never wrong.

The digest chain is ``d_i = H(d_{i-1} | task_id | assignment | ops)``
seeded with the full task signature and granularity, so a prefix
digest pins everything the prefix simulation can observe (receiver
hosts, payload shapes, and the cluster all derive from the task).
Checkpoints live alongside the :class:`~repro.compiler.cache
.PlanCache` (which caches whole compiled plans; this caches partial
*simulations*).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from ..core.executor import PlanRunner, TimingResult
from ..core.plan import CommPlan
from ..runtime.telemetry import CounterRow, MarkRecord, SpanRow
from ..sim.faults import FaultSchedule, RetryPolicy
from ..sim.network import Network
from .cache import task_signature

__all__ = [
    "SimCheckpoint",
    "ResimStats",
    "ResimCache",
    "resimulate",
    "schedule_order",
    "prefix_digests",
    "default_resim_cache",
    "reset_default_resim_cache",
]


@dataclass(frozen=True)
class SimCheckpoint:
    """Frozen simulator + executor state at one quiescent barrier cut.

    ``task_index`` is the schedule-order position of the deepest
    finished task (the finished set is ``order[:task_index + 1]``);
    ``last_task`` is the task whose completion produced the cut —
    resume validation requires every entry task of the suffix to be
    gated on it.  Every container is an immutable copy; a restore
    materializes fresh mutable state from it, so one checkpoint can
    seed any number of resumes.
    """

    digest: str
    task_index: int
    last_task: int
    now: float
    last_update: float
    next_flow_id: int
    span_rows: tuple[SpanRow, ...]
    counter_rows: tuple[CounterRow, ...]
    marks: tuple[MarkRecord, ...]
    #: final value of every counter/gauge series: (name, track, is_counter, value)
    series_values: tuple[tuple[str, str, bool, float], ...]
    bytes_cross: float
    bytes_intra: float
    op_finish: tuple[tuple[int, float], ...]
    task_finish: tuple[tuple[int, float], ...]
    op_launch: tuple[tuple[int, float], ...]
    task_release: tuple[tuple[int, float], ...]
    op_done: frozenset[int]
    launched: frozenset[int]
    released: frozenset[int]
    #: buffer-accounting state (see :mod:`repro.core.buffers`); live is
    #: float residue only at a quiescent cut, but it must round-trip so
    #: resumed peaks match a cold run's bit for bit
    host_live: tuple[tuple[int, float], ...] = ()
    host_peak: tuple[tuple[int, float], ...] = ()


@dataclass(frozen=True)
class ResimStats:
    """A snapshot of one resim cache's counters."""

    requests: int
    hits: int
    misses: int
    ineligible: int
    tasks_skipped: int
    tasks_replayed: int
    checkpoints_stored: int
    evictions: int
    size: int

    @property
    def task_reuse_rate(self) -> float:
        """Fraction of unit-task simulations served from checkpoints."""
        total = self.tasks_skipped + self.tasks_replayed
        return self.tasks_skipped / total if total else 0.0


class ResimCache:
    """LRU store of :class:`SimCheckpoint`\\ s keyed by prefix digest."""

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, SimCheckpoint]" = OrderedDict()
        self.requests = 0
        self.hits = 0
        self.misses = 0
        self.ineligible = 0
        self.tasks_skipped = 0
        self.tasks_replayed = 0
        self.checkpoints_stored = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        return digest in self._entries

    def lookup(self, digest: str) -> Optional[SimCheckpoint]:
        found = self._entries.get(digest)
        if found is not None:
            self._entries.move_to_end(digest)
        return found

    def store(self, checkpoint: SimCheckpoint) -> None:
        entries = self._entries
        if checkpoint.digest in entries:
            entries.move_to_end(checkpoint.digest)
            return
        if len(entries) >= self.max_entries:
            entries.popitem(last=False)
            self.evictions += 1
        entries[checkpoint.digest] = checkpoint
        self.checkpoints_stored += 1

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> ResimStats:
        return ResimStats(
            requests=self.requests,
            hits=self.hits,
            misses=self.misses,
            ineligible=self.ineligible,
            tasks_skipped=self.tasks_skipped,
            tasks_replayed=self.tasks_replayed,
            checkpoints_stored=self.checkpoints_stored,
            evictions=self.evictions,
            size=len(self),
        )

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"ResimCache(requests={s.requests}, hits={s.hits}, "
            f"misses={s.misses}, ineligible={s.ineligible}, "
            f"task_reuse={s.task_reuse_rate:.1%}, size={s.size})"
        )


# ----------------------------------------------------------------------
# Eligibility + digests
# ----------------------------------------------------------------------
def schedule_order(plan: CommPlan) -> Optional[list[int]]:
    """The schedule order restricted to tasks that emit ops, or None.

    Returns None when the plan cannot take checkpoints at all: no
    schedule (ungated baseline), schedule-free (``-1``) ops which
    launch at time zero regardless of gating, or ops whose task is
    missing from the schedule (gating undefined).  This is only the
    static pre-gate — whether any boundary is actually a quiescent cut
    is discovered dynamically while simulating.
    """
    schedule = plan.schedule
    if schedule is None:
        return None
    task_ops = plan.ops_by_task()
    if -1 in task_ops or not task_ops:
        return None
    order = [tid for tid in schedule.order if tid in task_ops]
    if len(order) != len(task_ops):
        return None  # ops outside the schedule: gating is undefined
    return order


def prefix_digests(plan: CommPlan, order: list[int]) -> list[str]:
    """Rolling SHA-256 digests of the op-schedule prefix, one per task.

    ``digests[i]`` pins everything the simulation of tasks
    ``order[:i+1]`` can depend on: the full task signature (shapes,
    sharding specs, meshes, cluster — receiver hosts all derive from
    it), the granularity, and each task's id, host assignment, and
    exact ops (reprs include op ids, deps, payloads, and checksums).
    """
    assert plan.schedule is not None
    task_ops = plan.ops_by_task()
    h = hashlib.sha256()
    h.update(
        repr(
            (
                task_signature(plan.task),
                plan.granularity,
                "resim-v2",
            )
        ).encode()
    )
    out: list[str] = []
    for tid in order:
        h.update(repr((tid, plan.schedule.assignment[tid])).encode())
        for op in task_ops[tid]:
            h.update(repr(op).encode())
        out.append(h.hexdigest())
    return out


# ----------------------------------------------------------------------
# Capture / restore
# ----------------------------------------------------------------------
def _capture(
    runner: PlanRunner, digest: str, task_index: int, last_task: int
) -> SimCheckpoint:
    net = runner.net
    bus = net.bus
    return SimCheckpoint(
        digest=digest,
        task_index=task_index,
        last_task=last_task,
        now=net.loop.now,
        last_update=net._last_update,
        next_flow_id=net._next_id,
        span_rows=tuple(bus._span_rows),
        counter_rows=tuple(bus._counter_rows),
        marks=tuple(bus._marks),
        series_values=tuple(
            (name, track, is_counter, series.value)
            for (name, track, is_counter), series in bus._series.items()
        ),
        bytes_cross=net.bytes_cross_host,
        bytes_intra=net.bytes_intra_host,
        op_finish=tuple(runner.op_finish.items()),
        task_finish=tuple(runner.task_finish.items()),
        op_launch=tuple(runner.op_launch.items()),
        task_release=tuple(runner.task_release.items()),
        op_done=frozenset(runner.op_done),
        launched=frozenset(runner.launched),
        released=frozenset(runner.released),
        host_live=tuple(sorted(runner.host_live.items())),
        host_peak=tuple(sorted(runner.host_peak.items())),
    )


def _restore(runner: PlanRunner, ckpt: SimCheckpoint) -> None:
    """Preload ``runner`` (fresh, never run) with the checkpoint state."""
    net = runner.net
    net.loop.now = ckpt.now
    net._last_update = ckpt.last_update
    net._next_id = ckpt.next_flow_id
    bus = net.bus
    bus._span_rows = list(ckpt.span_rows)
    bus._counter_rows = list(ckpt.counter_rows)
    bus._marks = list(ckpt.marks)
    for name, track, is_counter, value in ckpt.series_values:
        series = bus.counter(name, track) if is_counter else bus.gauge(name, track)
        series.value = value
    net.bytes_cross_host = ckpt.bytes_cross
    net.bytes_intra_host = ckpt.bytes_intra
    runner.op_finish.update(ckpt.op_finish)
    runner.task_finish.update(ckpt.task_finish)
    runner.op_launch.update(ckpt.op_launch)
    runner.task_release.update(ckpt.task_release)
    runner.op_done.update(ckpt.op_done)
    runner.launched.update(ckpt.launched)
    runner.released.update(ckpt.released)
    runner.host_live.update(ckpt.host_live)
    runner.host_peak.update(ckpt.host_peak)
    for tid, _finish in ckpt.task_finish:
        runner.tasks_pending_ops[tid] = 0


def _at_barrier_cut(runner: PlanRunner) -> bool:
    """True when the runner sits at a quiescent barrier cut.

    No active flows, no live events, nothing failed, every launched op
    completed (a tied task finishing in the same event whose callback
    has not run yet would leave a drained-but-unfinished op behind),
    and every released task finished.  Whether the finished set is a
    schedule-order prefix is checked by the caller.
    """
    net = runner.net
    return (
        not net._active
        and net.loop.pending == 0
        and not runner.failed_ops
        and runner.launched == runner.op_done
        and runner.released == set(runner.task_finish)
    )


def _resume_entries(
    runner: PlanRunner, order: list[int], ckpt: SimCheckpoint
) -> Optional[list[int]]:
    """Suffix tasks to release at the cut, or None if the cut is invalid.

    An *entry* task has every gating predecessor inside the restored
    prefix.  For the resume to be byte-identical to a cold run, each
    one must be gated on the checkpoint's last-finishing task: then a
    cold run would release exactly these tasks, in one sorted successor
    sweep, at exactly the cut instant — any entry task not gated on
    ``last_task`` would have started *before* the cut and overlapped
    the prefix, so the checkpoint does not apply to this plan.
    """
    k = ckpt.task_index
    prefix = set(order[: k + 1])
    entries: list[int] = []
    for tid in order[k + 1 :]:
        preds = runner.task_preds.get(tid, set())
        if preds <= prefix:
            if ckpt.last_task not in preds:
                return None
            entries.append(tid)
    if not entries:
        return None  # nothing can release at the cut: would deadlock
    return sorted(entries)


# ----------------------------------------------------------------------
# The entry point
# ----------------------------------------------------------------------
def resimulate(
    plan: CommPlan,
    cache: Optional[ResimCache] = None,
    network: Optional[Network] = None,
    respect_schedule: bool = True,
    faults: Optional[FaultSchedule] = None,
    retry_policy: Optional[RetryPolicy] = None,
) -> TimingResult:
    """Simulate ``plan``, reusing any cached matching schedule prefix.

    A drop-in replacement for :func:`~repro.core.executor.simulate_plan`
    that consults ``cache`` (the process default when None).  Ineligible
    calls — fault injection, caller-supplied networks, unscheduled
    plans — fall back to a cold simulation and are counted in the
    cache's ``ineligible`` stat.  Results are byte-identical to the
    cold path either way.
    """
    if cache is None:
        cache = default_resim_cache()
    # retry_policy does not gate eligibility: retries only engage under
    # a fault schedule, so with faults=None the policy cannot influence
    # the simulation (it is still threaded through for parity).
    order = (
        schedule_order(plan)
        if faults is None and network is None and respect_schedule
        else None
    )
    if order is None or len(order) < 2:
        cache.ineligible += 1
        return PlanRunner(
            plan,
            network=network,
            respect_schedule=respect_schedule,
            faults=faults,
            retry_policy=retry_policy,
        ).run()

    cache.requests += 1
    digests = prefix_digests(plan, order)
    n = len(order)

    runner_box: list[PlanRunner] = []

    def on_task_done(tid: int) -> None:
        runner = runner_box[0]
        done = len(runner.task_finish)
        # The boundary after the last task seeds nothing (a full-plan
        # match is the PlanCache's job).
        if done >= n:
            return
        k = done - 1
        if digests[k] in cache:
            cache.lookup(digests[k])  # refresh recency
            return
        if not _at_barrier_cut(runner):
            return  # concurrent tasks still in flight: not a cut
        if set(runner.task_finish) != set(order[:done]):
            return  # finished out of schedule order: digest chain n/a
        cache.store(_capture(runner, digests[k], k, tid))

    runner = PlanRunner(plan, retry_policy=retry_policy, on_task_done=on_task_done)
    runner_box.append(runner)

    # Deepest cached cut, strictly before the last task, that is valid
    # for THIS plan's gating graph (a shallower cut may validate where
    # a deeper one does not).
    entries: Optional[list[int]] = None
    ckpt: Optional[SimCheckpoint] = None
    for i in range(n - 2, -1, -1):
        found = cache.lookup(digests[i])
        if found is not None:
            entries = _resume_entries(runner, order, found)
            if entries is not None:
                ckpt = found
                break

    if ckpt is not None and entries is not None:
        cache.hits += 1
        cache.tasks_skipped += ckpt.task_index + 1
        cache.tasks_replayed += n - (ckpt.task_index + 1)
        _restore(runner, ckpt)
        # Release the cut's entry tasks exactly as the cold run did: one
        # ascending sweep at the restored instant (run()'s own release
        # loop then no-ops for them).
        for tid in entries:
            runner.maybe_release(tid)
    else:
        cache.misses += 1
        cache.tasks_replayed += n
    return runner.run()


_DEFAULT_RESIM: Optional[ResimCache] = None


def default_resim_cache() -> ResimCache:
    """The process-wide checkpoint cache (:func:`resimulate`'s default)."""
    global _DEFAULT_RESIM
    if _DEFAULT_RESIM is None:
        _DEFAULT_RESIM = ResimCache()
    return _DEFAULT_RESIM


def reset_default_resim_cache() -> ResimCache:
    """Replace the process-wide resim cache (tests, benchmarks)."""
    global _DEFAULT_RESIM
    _DEFAULT_RESIM = ResimCache()
    return _DEFAULT_RESIM
