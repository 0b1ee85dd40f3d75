"""Event-driven execution of a pipeline schedule with cross-mesh comm.

This is the one pipeline executor: plain schedules (GPipe, 1F1B,
eager-1F1B, §4) and interleaved ones (several model chunks per device,
:mod:`repro.pipeline.interleaved`) are both instances of the same
discrete-event model.  ``orders`` holds one task list per *device*; a
:class:`~repro.pipeline.schedules.Task` names the job stage it computes,
or leaves it to the device's index (the plain one-stage-per-device
layout).  Each device executes its list strictly in sequence; a task
additionally waits for its cross-mesh inputs:

* ``F(s, mb)`` waits for the forward activation of every in-edge, sent
  when ``F(src, mb)`` finished;
* ``B``/``Bx``\\ ``(s, mb)`` waits for the activation gradient of every
  out-edge, sent when the downstream ``B``/``Bx`` finished.

Dependencies, durations and edges are keyed by job stage; occupancy,
order cursors, ``stage:<d>`` tracks, activation gauges and the FIFO
channels are keyed by device.  The executor runs on the shared runtime
kernel (:class:`~repro.runtime.kernel.EventLoop`) and emits every
compute/transfer interval to the loop's telemetry bus.  The result
object keeps **no private timeline lists** — ``timeline``/``comms`` are
views rebuilt from the span stream, and the scalar statistics
(iteration time, busy time, activation peaks) are folded from the same
records.

Communication is simulated in one of two modes:

``overlap=False`` ("Broadcast" in Fig. 9)
    synchronous sends and receives, like blocking NCCL calls issued in
    program order: after producing, the sender stage is busy for the
    transfer duration; before consuming, the receiver stage executes a
    recv that starts no earlier than the matching send and also busies
    the stage for the transfer duration.  Communication therefore sits
    on both stages' critical paths — the strict-dependency regime of
    Fig. 4(a).  (Real runtimes pair these as combined exchange ops,
    e.g. Megatron's send-forward-recv-backward, which is why modelling
    the two halves independently rather than as a strict rendezvous is
    both simpler and deadlock-free.)  Blocking mode needs the plain
    layout; interleaved placements raise ``ValueError``.

``overlap=True``
    transfers run on a FIFO channel per directed device pair and
    direction, concurrently with compute; only data dependencies
    remain.

Activation memory is tracked per device as a telemetry gauge (+1 at
each ``F``, −1 when the micro-batch's backward — ``B`` or delayed
``Bw`` — completes) so the schedules' peak-memory trade-off (§4,
Table 1) is measurable.

**Fault tolerance** (optional, ``overlap=True``): given a
:class:`~repro.sim.faults.FaultSchedule`, cross-stage messages can be
*lost* — by the per-attempt drop rate, or because a stage's host
(``stage_hosts``) NIC flapped during the transfer.  A watchdog detects
the missing input after a backoff deadline and triggers a re-send on
the same channel; compute stragglers stretch task durations during
their windows.  Instead of hanging (or raising the deadlock error), a
faulted run surfaces a structured :class:`~repro.sim.faults.FaultReport`
on the result — ``recovered`` when every loss was re-sent in time,
``fatal`` when the retry budget ran out and stages stayed stuck.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from ..runtime.kernel import EventLoop
from ..runtime.telemetry import TelemetryBus
from ..sim.faults import FaultIncident, FaultReport, FaultSchedule, RetryPolicy
from .schedules import Task
from .stage import PipelineJob
from .timeline import CommEntry, TimelineEntry, comms_from_spans, timeline_from_spans

__all__ = ["TimelineEntry", "CommEntry", "PipelineResult", "simulate_pipeline"]


@dataclass(frozen=True)
class _Recv:
    """A blocking receive the consumer stage executes in program order."""

    edge_idx: int
    microbatch: int
    direction: str  # "fwd" | "bwd"

    @property
    def key(self) -> tuple[int, int, str]:
        return (self.edge_idx, self.microbatch, self.direction)

    def __repr__(self) -> str:
        return f"recv(e{self.edge_idx},{self.direction},mb{self.microbatch})"


_Item = Union[Task, _Recv]


@dataclass
class PipelineResult:
    """Outcome of simulating one training iteration.

    ``timeline`` and ``comms`` are derived views over the run's
    telemetry spans (``cat="compute"`` / ``cat="comm"``), not stored
    lists.  ``n_devices`` is the number of task lists the iteration ran
    on (``job.n_stages`` in the plain layout); the per-device statistics
    are keyed ``0..n_devices-1``.  ``fault_report`` is ``None`` for
    fault-free runs; under fault injection it records whether the
    iteration recovered from every injected fault or ended fatally (some
    stages never finished).
    """

    telemetry: TelemetryBus = field(repr=False, compare=False)
    job: PipelineJob = field(repr=False)
    n_devices: int
    fault_report: Optional[FaultReport] = None
    _timeline_cache: Optional[tuple[int, list[TimelineEntry]]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _comms_cache: Optional[tuple[int, list[CommEntry]]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _stats_cache: Optional[tuple[float, dict[int, float], dict[int, int]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def _stats(self) -> tuple[float, dict[int, float], dict[int, int]]:
        # One fold over the span stream, on first access — keeping it
        # out of simulate_pipeline itself, whose per-event path every
        # Fig. 7 iteration runs.
        if self._stats_cache is None:
            self._stats_cache = _fold_stats(self.telemetry, self.n_devices)
        return self._stats_cache

    @property
    def iteration_time(self) -> float:
        """Makespan: latest compute/comm span end in the stream."""
        return self._stats()[0]

    @property
    def stage_busy_time(self) -> dict[int, float]:
        """Seconds each device spent computing (plus blocking sends)."""
        return self._stats()[1]

    @property
    def peak_activation_counts(self) -> dict[int, int]:
        """Peak live activations per device, from the gauge samples."""
        return self._stats()[2]

    @property
    def timeline(self) -> list[TimelineEntry]:
        """Compute intervals, rebuilt from the telemetry span stream."""
        spans = self.telemetry.spans
        if self._timeline_cache is None or self._timeline_cache[0] != len(spans):
            self._timeline_cache = (len(spans), timeline_from_spans(spans))
        return self._timeline_cache[1]

    @property
    def comms(self) -> list[CommEntry]:
        """Transfer intervals, rebuilt from the telemetry span stream."""
        spans = self.telemetry.spans
        if self._comms_cache is None or self._comms_cache[0] != len(spans):
            self._comms_cache = (len(spans), comms_from_spans(spans))
        return self._comms_cache[1]

    def peak_memory_bytes(self, stage: int) -> float:
        """Weights/optimizer plus peak live activations of a stage
        (plain layout: the stage's device is its index)."""
        prof = self.job.stages[stage]
        return prof.params_bytes + (
            self.peak_activation_counts.get(stage, 0) * prof.activation_bytes
        )

    def throughput_tflops(self, model_flops: float, n_devices: int) -> float:
        """Aggregate per-GPU TFLOPS given total model FLOPs/iteration."""
        if self.iteration_time <= 0:
            raise ValueError("iteration time must be positive")
        if n_devices <= 0:
            raise ValueError("n_devices must be positive")
        return model_flops / self.iteration_time / n_devices / 1e12


def _validate_orders(job: PipelineJob, orders: list[list[Task]]) -> list[int]:
    """Check the per-device task lists; return each stage's device."""
    n_stages, m = job.n_stages, job.n_microbatches
    device_of = [-1] * n_stages
    stage_tasks: list[list[Task]] = [[] for _ in range(n_stages)]
    for d, order in enumerate(orders):
        for t in order:
            s = d if t.stage is None else t.stage
            if not 0 <= s < n_stages:
                raise ValueError(
                    f"device {d}: task {t!r} names no stage of the "
                    f"{n_stages}-stage job"
                )
            if device_of[s] == -1:
                device_of[s] = d
            elif device_of[s] != d:
                raise ValueError(f"stage {s} placed on devices {device_of[s]} and {d}")
            stage_tasks[s].append(t)
    for s, order in enumerate(stage_tasks):
        fwd = sorted(t.microbatch for t in order if t.kind == "F")
        if fwd != list(range(m)):
            raise ValueError(f"stage {s}: forwards {fwd} != 0..{m - 1}")
        fused = {t.microbatch for t in order if t.kind == "B"}
        bx = {t.microbatch for t in order if t.kind == "Bx"}
        bw = {t.microbatch for t in order if t.kind == "Bw"}
        if fused & (bx | bw):
            raise ValueError(f"stage {s}: mixes fused B and split Bx/Bw")
        forward_only = not (fused | bx | bw)
        if forward_only:
            continue  # inference: no backward pass at all
        if fused != set(range(m)) and (bx != set(range(m)) or bw != set(range(m))):
            raise ValueError(f"stage {s}: backward coverage incomplete")
        # A stage's tasks keep their device's relative order, so list
        # positions compare program order.
        pos: dict[tuple[str, int], int] = {}
        for i, t in enumerate(order):
            if (t.kind, t.microbatch) in pos:
                raise ValueError(f"stage {s}: duplicate task {t}")
            pos[(t.kind, t.microbatch)] = i
        for t in order:
            if t.kind in ("B", "Bx"):
                f = pos.get(("F", t.microbatch))
                if f is None or f > pos[(t.kind, t.microbatch)]:
                    raise ValueError(
                        f"stage {s}: backward of mb {t.microbatch} precedes its forward"
                    )
            if t.kind == "Bw":
                x = pos.get(("Bx", t.microbatch))
                if x is None or x > pos[("Bw", t.microbatch)]:
                    raise ValueError(f"stage {s}: Bw{t.microbatch} precedes Bx")
    return device_of


def _insert_recvs(job: PipelineJob, orders: list[list[Task]]) -> list[list[_Item]]:
    """Blocking mode: put an explicit recv before each consuming task."""
    edge_idx = {id(e): i for i, e in enumerate(job.edges)}
    out: list[list[_Item]] = []
    for s, order in enumerate(orders):
        items: list[_Item] = []
        for t in order:
            if t.kind == "F":
                for e in sorted(job.in_edges(s), key=lambda e: edge_idx[id(e)]):
                    items.append(_Recv(edge_idx[id(e)], t.microbatch, "fwd"))
            elif t.kind in ("B", "Bx"):
                for e in sorted(job.out_edges(s), key=lambda e: edge_idx[id(e)]):
                    items.append(_Recv(edge_idx[id(e)], t.microbatch, "bwd"))
            items.append(t)
        out.append(items)
    return out


def _fold_stats(
    bus: TelemetryBus, n_devices: int
) -> tuple[float, dict[int, float], dict[int, int]]:
    """Fold iteration time, per-device busy time and activation peaks
    out of the telemetry stream (the single source of truth)."""
    iteration_time = 0.0
    busy = dict.fromkeys(range(n_devices), 0.0)
    peak = dict.fromkeys(range(n_devices), 0)
    # Folded over the raw span rows (name, cat, track, start, end,
    # depth, parent, attrs) — this runs once per simulation, right
    # after the event loop drains, so it stays off the per-event path.
    for _name, cat, _track, start, end, _depth, _parent, a in bus.span_rows:
        if cat == "compute":
            if end > iteration_time:
                iteration_time = end
            busy[a["stage"]] += end - start
        elif cat == "comm":
            if end > iteration_time:
                iteration_time = end
            if "busy_stage" in a:  # blocking-mode recv occupies its stage
                busy[a["busy_stage"]] += end - start
        elif cat == "send":
            busy[a["stage"]] += end - start
    for name, track, _time, value in bus.counter_rows:
        if name == "activations" and track.startswith("stage:"):
            device = int(track[6:])
            if value > peak[device]:
                peak[device] = int(value)
    return iteration_time, busy, peak


def simulate_pipeline(
    job: PipelineJob,
    orders: list[list[Task]],
    overlap: bool = True,
    faults: Optional[FaultSchedule] = None,
    retry_policy: Optional[RetryPolicy] = None,
    stage_hosts: Optional[Sequence[int]] = None,
) -> PipelineResult:
    """Simulate one training iteration; see module docstring.

    ``orders[d]`` is device ``d``'s task list.  ``stage_hosts`` maps
    each stage to the host carrying it, so NIC flap windows in
    ``faults`` translate to lost cross-stage messages (a transfer
    overlapping a flap of either endpoint's host is lost).
    """
    device_of = _validate_orders(job, orders)
    if not overlap and device_of != list(range(job.n_stages)):
        raise ValueError(
            "blocking communication (overlap=False) needs stage s on device s; "
            "interleaved placements run overlapped only"
        )
    if stage_hosts is not None and len(stage_hosts) != job.n_stages:
        raise ValueError(
            f"stage_hosts must map all {job.n_stages} stages, got {len(stage_hosts)}"
        )
    if faults is not None and not overlap and (
        faults.drop_rate > 0 or faults.flaps or faults.host_failures
    ):
        raise ValueError(
            "message loss injection needs overlap=True (blocking sends have "
            "no channel to re-send on); stragglers work in both modes"
        )
    policy = retry_policy or RetryPolicy()
    loop = EventLoop()
    bus = loop.bus
    n_stages = job.n_stages
    n_devices = len(orders)

    # -- fault bookkeeping --------------------------------------------
    incidents: list[FaultIncident] = []
    n_msg_retries = 0
    n_msg_abandoned = 0
    added_latency = 0.0
    # first expected arrival per message, to price recovery delay
    first_eta: dict[tuple[int, int, str], float] = {}

    items: list[list[_Item]] = (
        [list(o) for o in orders] if overlap else _insert_recvs(job, orders)
    )

    idx = [0] * n_devices
    busy = [False] * n_devices
    device_track = [f"stage:{d}" for d in range(n_devices)]
    device_free_at = [0.0] * n_devices  # > now while blocked in sends
    act = [bus.gauge("activations", track=device_track[d]) for d in range(n_devices)]
    # FIFO channel per (src device, dst device, direction): its span
    # track, looked up once per (src stage, dst stage, direction) since
    # send_message sits on the hot path, and the time it next goes idle.
    chan_track: dict[tuple[int, int, str], str] = {}
    chan_free_at: dict[str, float] = {}

    # Dependency arrival counters: ("F"|"B", stage, microbatch) -> count.
    arrived: dict[tuple[str, int, int], int] = {}
    need_fwd = [len(job.in_edges(s)) for s in range(n_stages)]
    need_bwd = [len(job.out_edges(s)) for s in range(n_stages)]

    # Blocking mode: when each transfer's data hits the wire.
    send_started: dict[tuple[int, int, str], float] = {}

    def deps_met(stage: int, t: Task) -> bool:
        if t.kind == "F":
            return arrived.get(("F", stage, t.microbatch), 0) >= need_fwd[stage]
        if t.kind in ("B", "Bx"):
            return arrived.get(("B", stage, t.microbatch), 0) >= need_bwd[stage]
        return True  # Bw: local only

    def duration(stage: int, t: Task) -> float:
        nonlocal added_latency
        prof = job.stages[stage]
        if t.kind == "F":
            base = prof.fwd_time
        elif t.kind == "B":
            base = prof.bwd_x_time + prof.bwd_w_time
        elif t.kind == "Bx":
            base = prof.bwd_x_time
        else:
            base = prof.bwd_w_time
        if faults is not None:
            factor = faults.straggler_factor(stage, loop.now)
            if factor > 1.0:
                incidents.append(
                    FaultIncident(
                        kind="straggler",
                        where=f"stage {stage} {t.kind}{t.microbatch}",
                        time=loop.now,
                        resolved=True,
                    )
                )
                added_latency += base * (factor - 1.0)
                return base * factor
        return base

    def arrival(kind: str, stage: int, mb: int) -> None:
        key = (kind, stage, mb)
        arrived[key] = arrived.get(key, 0) + 1
        try_start(device_of[stage])

    def message_lost(
        edge_i: int, mb: int, direction: str, attempt: int, cstart: float, cend: float
    ) -> bool:
        if faults is None:
            return False
        if faults.should_drop("pipe", edge_i, mb, direction, attempt):
            return True
        if stage_hosts is not None:
            e = job.edges[edge_i]
            for st in (e.src_stage, e.dst_stage):
                if faults.host_down_during(stage_hosts[st], cstart, cend):
                    return True
        return False

    def send_message(
        e, edge_i: int, dur: float, direction: str, target: int, mb: int,
        earliest: float, attempt: int,
    ) -> None:
        """One delivery attempt of a cross-stage message (overlap mode).

        A lost message is detected by the consumer's watchdog — the
        input is missing past its deadline — which triggers a re-send
        after the policy's backoff; the retry re-occupies the channel.
        """
        nonlocal n_msg_retries, n_msg_abandoned, added_latency
        src_dev, dst_dev = device_of[e.src_stage], device_of[e.dst_stage]
        ckey = (e.src_stage, e.dst_stage, direction)
        ctrack = chan_track.get(ckey)
        if ctrack is None:
            ctrack = chan_track[ckey] = f"chan:{src_dev}->{dst_dev}:{direction}"
        free = chan_free_at.get(ctrack, 0.0)
        cstart = earliest if earliest > free else free
        cend = cstart + dur
        chan_free_at[ctrack] = cend
        label = e.label if attempt == 1 else f"{e.label}~retry{attempt - 1}"
        bus.span(
            label, "comm", ctrack, cstart, cend,
            {"src_stage": src_dev, "dst_stage": dst_dev,
             "direction": direction, "microbatch": mb, "label": label},
        )
        mkey = (edge_i, mb, direction)
        if attempt == 1:
            first_eta[mkey] = cend
        if not message_lost(edge_i, mb, direction, attempt, cstart, cend):
            if attempt > 1:
                added_latency += cend - first_eta[mkey]
            dep_kind = "F" if direction == "fwd" else "B"
            loop.call_at(cend, lambda: arrival(dep_kind, target, mb))
            return
        final = policy.exhausted(attempt)
        incidents.append(
            FaultIncident(
                kind="message-lost",
                where=f"edge {edge_i} {direction} mb{mb}",
                time=cend,
                attempt=attempt,
                resolved=not final,
            )
        )
        if final:
            n_msg_abandoned += 1
            return  # consumer stays stuck; surfaced as a fatal report
        n_msg_retries += 1
        grace = policy.backoff(attempt, "pipe", edge_i, mb, direction)
        loop.call_at(
            cend + grace,
            lambda: send_message(
                e, edge_i, dur, direction, target, mb, cend + grace, attempt + 1
            ),
        )

    def produced_edges(stage: int, t: Task):
        # comm_time() is called once per produced message: edges backed
        # by a compiled resharding price every micro-batch through the
        # plan cache + simulate_plan (the shared timing path).
        if t.kind == "F":
            return [(e, i, e.comm_time("fwd"), "fwd", e.dst_stage)
                    for i, e in enumerate(job.edges) if e.src_stage == stage]
        if t.kind in ("B", "Bx"):
            return [(e, i, e.comm_time("bwd"), "bwd", e.src_stage)
                    for i, e in enumerate(job.edges) if e.dst_stage == stage]
        return []

    def on_compute_done(device: int, stage: int, t: Task, start: float) -> None:
        finish = loop.now
        attrs = {"stage": device, "kind": t.kind, "microbatch": t.microbatch}
        if t.stage is not None:
            attrs["chunk"] = t.stage
        bus.span(repr(t), "compute", device_track[device], start, finish, attrs)
        if t.kind == "F":
            act[device].add(1)
        elif t.kind in ("B", "Bw"):
            act[device].add(-1)
        busy[device] = False
        idx[device] += 1
        if overlap:
            for e, i, dur, direction, target in produced_edges(stage, t):
                send_message(e, i, dur, direction, target, t.microbatch, finish, 1)
            try_start(device)
        else:
            # Blocking sends in program order (plain layout, so device
            # == stage): the stage stays busy for the sum of its
            # outgoing transfer durations; each transfer hits the wire
            # when its send begins.
            block_until = finish
            for e, i, dur, direction, target in produced_edges(stage, t):
                send_started[(i, t.microbatch, direction)] = block_until
                block_until += dur
                try_start(target)  # its recv may now be startable
            if block_until > finish:
                bus.span(
                    f"send:{t.kind}{t.microbatch}", "send", device_track[device],
                    finish, block_until, {"stage": device},
                )
                device_free_at[device] = block_until
                loop.call_at(block_until, lambda d=device: try_start(d))
            else:
                try_start(device)

    def on_recv_done(stage: int, r: _Recv, start: float) -> None:
        e = job.edges[r.edge_idx]
        end = loop.now
        bus.span(
            e.label, "comm", f"chan:{e.src_stage}->{e.dst_stage}:{r.direction}",
            start, end,
            {"src_stage": e.src_stage, "dst_stage": e.dst_stage,
             "direction": r.direction, "microbatch": r.microbatch,
             "label": e.label, "busy_stage": stage},
        )
        busy[stage] = False
        idx[stage] += 1
        dep_kind = "F" if r.direction == "fwd" else "B"
        arrival(dep_kind, stage, r.microbatch)  # calls try_start(stage)
        try_start(stage)

    def try_start(device: int) -> None:
        if busy[device] or idx[device] >= len(items[device]):
            return
        if loop.now < device_free_at[device] - 1e-15:
            return  # still blocked sending; wake-up event queued
        item = items[device][idx[device]]
        if isinstance(item, _Recv):
            sent_at = send_started.get(item.key)
            if sent_at is None:
                return  # matching send has not started yet
            e = job.edges[item.edge_idx]
            dur = e.comm_time(item.direction)
            end = max(loop.now, sent_at) + dur
            busy[device] = True
            start = loop.now
            loop.call_at(end, lambda s=device, r=item: on_recv_done(s, r, start))
            return
        stage = device if item.stage is None else item.stage
        if not deps_met(stage, item):
            return
        busy[device] = True
        start = loop.now
        loop.call_after(
            duration(stage, item),
            lambda d=device, s=stage, t=item: on_compute_done(d, s, t, start),
        )

    for d in range(n_devices):
        try_start(d)
    loop.run()

    unfinished = [d for d in range(n_devices) if idx[d] < len(items[d])]
    if unfinished and faults is None:
        detail = {d: repr(items[d][idx[d]]) for d in unfinished}
        raise RuntimeError(
            f"pipeline deadlocked; stages stuck at tasks {detail} "
            f"(check warm-up depths and edge directions)"
        )
    report: Optional[FaultReport] = None
    if faults is not None:
        stuck = {d: repr(items[d][idx[d]]) for d in unfinished}
        if unfinished or n_msg_abandoned:
            status = "fatal"
        elif incidents:
            status = "recovered"
        else:
            status = "clean"
        report = FaultReport(
            status=status,
            n_faults=len(incidents),
            n_retries=n_msg_retries,
            n_abandoned=n_msg_abandoned,
            added_latency=added_latency,
            detail=f"stages stuck at tasks {stuck}" if stuck else "",
            incidents=incidents,
        )
    return PipelineResult(telemetry=bus, job=job, n_devices=n_devices, fault_report=report)
