"""Timing interpreter: run a CommPlan on the flow-level network simulator.

Ops map onto the timed primitives of :mod:`repro.sim.primitives`.  When
the plan carries a schedule, unit tasks are *gated*: task ``i`` may only
start once every earlier-ordered task sharing one of its hosts has
finished — the executable form of the paper's Eq. 3 non-overlap
constraint.  Ungated plans (the baselines) launch everything at once and
let max-min fair bandwidth sharing model the resulting congestion.

The interpreter is a :class:`PlanRunner` object (not a closure nest) so
its execution state — which ops finished, which tasks released, where
simulated time stands — is *inspectable and restorable*: a caller can
snapshot a runner at quiescent task boundaries (``on_task_done``) and
preload a fresh runner from the snapshot.  :func:`simulate_plan` is the
one-call façade every production path uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..runtime.telemetry import TelemetryBus
from ..sim.faults import FaultReport, FaultSchedule, RetryPolicy
from ..sim.network import Network
from .buffers import op_host_buffers
from ..sim.primitives import (
    CollectiveHandle,
    p2p,
    ring_allgather,
    ring_broadcast,
    ring_order,
    scatter,
    switch_multicast,
)
from .plan import (
    AllGatherOp,
    BroadcastOp,
    CommOp,
    CommPlan,
    MulticastOp,
    ScatterOp,
    SendOp,
)

__all__ = ["TimingResult", "PlanRunner", "simulate_plan"]


@dataclass
class TimingResult:
    """Outcome of simulating one communication plan.

    Under fault injection ``fault_report`` summarizes what struck and
    whether the plan recovered; ``failed_ops`` lists ops whose transfers
    were abandoned (their data never fully arrived).  ``blocked_tasks``
    lists unit tasks gated (via the schedule's host ordering) behind a
    task whose ops *all* failed: their host queue was wedged, so their
    own apparent completion is vacuous — they are dropped from
    ``task_finish`` and their ops counted as failed.

    Gray corruption splits on detectability: ``corrupted_ops`` are ops
    whose delivery carried bad bytes *and* whose per-slice checksum
    (stamped at emission) caught it — the report escalates to fatal, a
    loud failure.  ``unverified_corruption`` are corrupted ops with no
    checksum (hand-built plans): nothing in-band can see the damage, so
    the report is *not* escalated here — instead
    :func:`repro.core.verify_data.verify_delivery` refuses to certify
    any plan with unverified corruption, which keeps the failure from
    ever being silent.
    """

    total_time: float
    op_finish: dict[int, float]
    task_finish: dict[int, float]
    bytes_cross_host: float
    bytes_intra_host: float
    network: Network = field(repr=False)
    fault_report: Optional[FaultReport] = None
    failed_ops: tuple[int, ...] = ()
    blocked_tasks: tuple[int, ...] = ()
    corrupted_ops: tuple[int, ...] = ()
    unverified_corruption: tuple[int, ...] = ()
    #: per-host transient-buffer high-water marks (bytes), from the
    #: runner's accounting — the ground truth the static analyzer's
    #: bound (:mod:`repro.analysis.memory_analysis`) must dominate
    host_peak_buffers: dict[int, float] = field(default_factory=dict)

    @property
    def makespan(self) -> float:
        return self.total_time

    @property
    def completed(self) -> bool:
        """True when every op delivered its payload intact."""
        return not self.failed_ops and not self.corrupted_ops

    @property
    def telemetry(self) -> "TelemetryBus":
        """The run's span stream (op/task/flow records) on the network's bus."""
        return self.network.bus


def _launch_op(network: Network, op: CommOp) -> CollectiveHandle:
    if isinstance(op, SendOp):
        return p2p(network, op.sender, op.receiver, op.nbytes, tag=f"op{op.op_id}")
    if isinstance(op, BroadcastOp):
        return ring_broadcast(
            network,
            op.sender,
            op.receivers,
            op.nbytes,
            n_chunks=op.n_chunks,
            tag=f"op{op.op_id}",
        )
    if isinstance(op, MulticastOp):
        return switch_multicast(
            network,
            op.sender,
            op.receivers,
            op.nbytes,
            switch=op.switch,
            n_chunks=op.n_chunks,
            tag=f"op{op.op_id}",
        )
    if isinstance(op, ScatterOp):
        return scatter(network, op.sender, op.receivers, op.nbytes, tag=f"op{op.op_id}")
    if isinstance(op, AllGatherOp):
        group = ring_order(network.cluster, op.devices[0], op.devices)
        shard = op.nbytes / len(op.devices)
        return ring_allgather(network, group, shard, tag=f"op{op.op_id}")
    raise TypeError(f"unknown op type {type(op).__name__}")


class PlanRunner:
    """Resumable plan interpreter: gating graph + run state + driver.

    ``on_task_done(tid)`` (when given) fires at the instant unit task
    ``tid`` finishes — after its task span is emitted, *before* any
    successor task is released.  When that instant is a quiescent
    barrier cut (no active flows, no pending events, every released
    task finished), a checkpointing caller may snapshot the runner's
    state there.  All of ``op_finish`` / ``task_finish`` /
    ``op_done`` / ``launched`` / ``released`` / ``task_release`` /
    ``op_launch`` / ``tasks_pending_ops`` are plain containers a
    snapshot can copy and a resume can preload before calling
    :meth:`run`.
    """

    def __init__(
        self,
        plan: CommPlan,
        network: Optional[Network] = None,
        respect_schedule: bool = True,
        faults: Optional[FaultSchedule] = None,
        retry_policy: Optional[RetryPolicy] = None,
        on_task_done: Optional[Callable[[int], None]] = None,
        track_buffers: bool = False,
    ) -> None:
        if network is not None and faults is not None:
            raise ValueError("pass faults via the Network, not alongside one")
        self.plan = plan
        self.net = (
            network
            if network is not None
            else Network(plan.task.cluster, faults=faults, retry_policy=retry_policy)
        )
        self.base_cross = self.net.bytes_cross_host
        self.base_intra = self.net.bytes_intra_host
        self.on_task_done = on_task_done
        #: emit ``buffer_bytes`` gauges per host on the telemetry bus.
        #: Opt-in: gauge samples enter the bus digest, so tracking must
        #: not change the byte-identity of existing runs.  The plain
        #: dict accounting below is always on (it never touches the bus).
        self.track_buffers = track_buffers

        # ---- run state (copyable by checkpoints, preloadable on resume)
        self.op_finish: dict[int, float] = {}
        self.task_finish: dict[int, float] = {}
        self.op_done: set[int] = set()
        self.launched: set[int] = set()
        self.failed_ops: set[int] = set()
        self.op_launch: dict[int, float] = {}
        self.task_release: dict[int, float] = {}
        self.released: set[int] = set()
        #: live transient buffer bytes per host (charged at op launch,
        #: released at op completion — see :mod:`repro.core.buffers`)
        self.host_live: dict[int, float] = {}
        #: per-host high-water mark of ``host_live``
        self.host_peak: dict[int, float] = {}

        # ---- schedule gating ---------------------------------------------
        # For each unit task, `task_preds[tid]` is the set of earlier-ordered
        # tasks that share a host with it; it may start when all preds finish.
        schedule = plan.schedule if respect_schedule else None
        self.task_ops: dict[int, list[CommOp]] = plan.ops_by_task()
        self.tasks_pending_ops = {tid: len(ops) for tid, ops in self.task_ops.items()}

        self.task_preds: dict[int, set[int]] = {tid: set() for tid in self.task_ops}
        self.task_succs: dict[int, set[int]] = {tid: set() for tid in self.task_ops}
        if schedule is not None:
            ut_by_id = {ut.task_id: ut for ut in plan.task.unit_tasks(plan.granularity)}
            last_on_host: dict[int, int] = {}
            for tid in schedule.order:
                if tid not in self.task_ops:
                    continue  # task had no receivers / no ops
                ut = ut_by_id[tid]
                hosts = set(plan.task.receiver_hosts(ut))
                hosts.add(schedule.assignment[tid])
                for h in sorted(hosts):
                    if h in last_on_host:
                        prev = last_on_host[h]
                        if prev != tid:
                            self.task_preds[tid].add(prev)
                            self.task_succs[prev].add(tid)
                    last_on_host[h] = tid

    # ------------------------------------------------------------------
    # Execution machinery
    # ------------------------------------------------------------------
    def op_ready(self, op: CommOp) -> bool:
        return (
            op.op_id not in self.launched
            and all(d in self.op_done for d in op.deps)
            and (op.unit_task_id == -1 or op.unit_task_id in self.released)
        )

    # ------------------------------------------------------------------
    # Buffer accounting (the runtime side of the soundness invariant)
    # ------------------------------------------------------------------
    def _buffer_charge(self, op: CommOp) -> None:
        """Charge the op's transient buffers; called at launch."""
        for host, nbytes in sorted(op_host_buffers(self.net.cluster, op).items()):
            live = self.host_live.get(host, 0.0) + nbytes
            self.host_live[host] = live
            if live > self.host_peak.get(host, 0.0):
                self.host_peak[host] = live
            if self.track_buffers:
                self.net.bus.gauge("buffer_bytes", f"host{host}").add(
                    nbytes, at=self.net.loop.now
                )

    def _buffer_release(self, op: CommOp, at: float) -> None:
        """Release the op's buffers; called when the op completes.

        Runs *before* any dependent op or gated successor task launches,
        so a handoff at one instant never double-counts on the peak.
        """
        for host, nbytes in sorted(op_host_buffers(self.net.cluster, op).items()):
            self.host_live[host] = self.host_live.get(host, 0.0) - nbytes
            if self.track_buffers:
                self.net.bus.gauge("buffer_bytes", f"host{host}").add(
                    -nbytes, at=at
                )

    def on_op_done(self, op: CommOp, handle: CollectiveHandle) -> None:
        self._buffer_release(op, handle.finish_time)
        self.op_done.add(op.op_id)
        self.op_finish[op.op_id] = handle.finish_time
        if handle.failed:
            self.failed_ops.add(op.op_id)
        tid = op.unit_task_id
        bus = self.net.bus
        bus.span(
            f"op{op.op_id}",
            "op",
            "plan" if tid == -1 else f"task:{tid}",
            self.op_launch.get(op.op_id, handle.finish_time),
            handle.finish_time,
            {"op_id": op.op_id, "task": tid, "kind": type(op).__name__,
             "status": "failed" if handle.failed else "ok"},
        )
        if tid in self.tasks_pending_ops:
            self.tasks_pending_ops[tid] -= 1
            if self.tasks_pending_ops[tid] == 0:
                self.task_finish[tid] = handle.finish_time
                bus.span(
                    f"task{tid}",
                    "task",
                    f"task:{tid}",
                    self.task_release.get(tid, 0.0),
                    handle.finish_time,
                    {"task": tid},
                )
                if self.on_task_done is not None:
                    self.on_task_done(tid)
                # Sorted: successor release order decides flow-id and
                # event order when several tasks unblock at once, so it
                # must be reproducible by a checkpoint resume.
                for succ in sorted(self.task_succs.get(tid, ())):
                    self.maybe_release(succ)
        # Same-task ops with deps may now be ready.
        for nxt in self.task_ops.get(tid, ()):
            if self.op_ready(nxt):
                self.launch(nxt)

    def launch(self, op: CommOp) -> None:
        self.launched.add(op.op_id)
        self.op_launch[op.op_id] = self.net.loop.now
        self._buffer_charge(op)
        if isinstance(op, (BroadcastOp, MulticastOp)) and not op.receivers:
            self.on_op_done(op, _immediate(self.net))
            return
        handle = _launch_op(self.net, op)
        handle.add_done_callback(lambda h, op=op: self.on_op_done(op, h))

    def maybe_release(self, tid: int) -> None:
        if tid in self.released:
            return
        if all(p in self.task_finish for p in self.task_preds.get(tid, ())):
            self.released.add(tid)
            self.task_release[tid] = self.net.loop.now
            for op in self.task_ops.get(tid, ()):
                if self.op_ready(op):
                    self.launch(op)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def run(self) -> TimingResult:
        """Release every startable task, drain the loop, build the result.

        On a fresh runner this is the full simulation.  On a runner
        whose state was preloaded from a checkpoint, already-released
        tasks are skipped and the first unfinished task (whose
        predecessors all finished in the restored prefix) launches at
        the restored simulated time — the suffix replays exactly as the
        cold run would have run it.
        """
        net = self.net
        for tid in list(self.task_ops):
            if tid == -1:
                if -1 not in self.released:
                    self.released.add(-1)
                    self.task_release[-1] = net.loop.now
                for op in self.task_ops[-1]:
                    if self.op_ready(op):
                        self.launch(op)
            else:
                self.maybe_release(tid)

        net.run()

        plan = self.plan
        missing = [op.op_id for op in plan.ops if op.op_id not in self.op_done]
        if missing and net.faults is None:
            raise RuntimeError(
                f"plan deadlocked: ops never completed: {missing[:10]}"
                + ("..." if len(missing) > 10 else "")
            )
        # Under faults a missing op means its collective died without even
        # reporting (should not happen — abandonment aborts the handle), or
        # it was gated behind a failed op; treat both as failed, not hung.
        failed_ops = self.failed_ops
        failed_ops.update(missing)

        # A task whose ops ALL failed wedged its host queues: the tasks
        # ordered behind it (transitively) ran against a broken ordering
        # guarantee, so their completion is vacuous.  Mark them blocked,
        # drop their (meaningless) finish times, and fail their ops.
        blocked: set[int] = set()
        if failed_ops:
            fully_failed = {
                tid
                for tid, ops in self.task_ops.items()
                if tid != -1 and ops and all(op.op_id in failed_ops for op in ops)
            }
            frontier = list(fully_failed)
            while frontier:
                tid = frontier.pop()
                for succ in self.task_succs.get(tid, ()):
                    if succ not in blocked and succ not in fully_failed:
                        blocked.add(succ)
                        frontier.append(succ)
            for tid in sorted(blocked):
                self.task_finish.pop(tid, None)
                failed_ops.update(op.op_id for op in self.task_ops.get(tid, ()))

        # Gray corruption: join the network's corrupted deliveries against
        # the plan's ops.  An op with a checksum detects the bad bytes
        # (receiver-side verify) — loud failure.  An op without one cannot;
        # it is recorded separately and verify_data refuses to certify it.
        corrupted_ops: set[int] = set()
        unverified: set[int] = set()
        if net.faults is not None and net.corrupted_flows:
            hit_tags = sorted({tag for tag, _ in net.corrupted_flows})
            for op in plan.ops:
                base = f"op{op.op_id}"
                if base in hit_tags or any(
                    t.startswith(base + ":") for t in hit_tags
                ):
                    (corrupted_ops if op.checksum else unverified).add(op.op_id)

        report = net.fault_report()
        if report is not None and failed_ops:
            detail = f"{len(failed_ops)} op(s) did not deliver: " + ", ".join(
                str(i) for i in sorted(failed_ops)[:10]
            )
            if blocked:
                detail += f"; {len(blocked)} task(s) blocked behind failed tasks"
            report.escalate(detail)
        if report is not None and corrupted_ops:
            report.escalate(
                f"checksum mismatch on {len(corrupted_ops)} op(s): "
                + ", ".join(str(i) for i in sorted(corrupted_ops)[:10])
            )
        total = max(self.op_finish.values(), default=0.0)
        return TimingResult(
            total_time=total,
            op_finish=self.op_finish,
            task_finish=self.task_finish,
            bytes_cross_host=net.bytes_cross_host - self.base_cross,
            bytes_intra_host=net.bytes_intra_host - self.base_intra,
            network=net,
            fault_report=report,
            failed_ops=tuple(sorted(failed_ops)),
            blocked_tasks=tuple(sorted(blocked)),
            corrupted_ops=tuple(sorted(corrupted_ops)),
            unverified_corruption=tuple(sorted(unverified)),
            host_peak_buffers=dict(self.host_peak),
        )


def simulate_plan(
    plan: CommPlan,
    network: Optional[Network] = None,
    respect_schedule: bool = True,
    faults: Optional[FaultSchedule] = None,
    retry_policy: Optional[RetryPolicy] = None,
    track_buffers: bool = False,
) -> TimingResult:
    """Simulate ``plan``; returns latency and traffic statistics.

    Pass ``faults`` (and optionally ``retry_policy``) to run the plan on
    a lossy network; transfers are retried per the policy and the result
    carries a :class:`~repro.sim.faults.FaultReport`.  An op whose
    collective is abandoned is recorded in ``failed_ops`` instead of
    deadlocking the simulation.  ``track_buffers=True`` additionally
    emits per-host ``buffer_bytes`` gauges on the telemetry bus (the
    result's ``host_peak_buffers`` high-water marks are recorded either
    way; only the gauge stream — and hence the bus digest — is opt-in).
    """
    return PlanRunner(
        plan,
        network=network,
        respect_schedule=respect_schedule,
        faults=faults,
        retry_policy=retry_policy,
        track_buffers=track_buffers,
    ).run()


def _immediate(net: Network) -> CollectiveHandle:
    h = CollectiveHandle(net, "noop")
    h._seal()
    return h
