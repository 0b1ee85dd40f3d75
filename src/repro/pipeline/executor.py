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

Every message along an edge takes the edge's ``fwd_time`` or
``bwd_time`` (:class:`~repro.pipeline.stage.CommEdge`), read into the
task table below.

Dependencies, durations and edges are keyed by job stage; occupancy,
order cursors, ``stage:<d>`` tracks, activation gauges and the FIFO
channels are keyed by device.  The executor runs on the shared runtime
kernel (:class:`~repro.runtime.kernel.EventLoop`) and emits every
compute/transfer interval to the loop's telemetry bus.  A run's record
**is** its span stream: the result keeps no list of its own, and the
scalar statistics (iteration time, busy time, activation peaks) are
folded from the same records.  Its spans (``<d>`` is a device, i.e. the
index of a task list):

* compute: ``cat="compute"``, named ``repr(task)``, track ``stage:<d>``;
  attrs ``stage`` (the device), ``kind``, ``microbatch``, plus ``chunk``
  (the job stage) when the task names its stage, as interleaved
  schedules do;
* transfer: ``cat="comm"``, named after the edge's label, track
  ``chan:<src>-><dst>:<direction>`` over the devices of the edge's
  forward endpoints; attrs ``src_stage``/``dst_stage`` (those devices),
  ``direction`` (``"fwd"`` | ``"bwd"``), ``microbatch``, ``label``, plus
  ``busy_stage`` when the recv occupies a stage in blocking mode;
* blocking send: ``cat="send"``, named ``send:<kind><mb>``, track
  ``stage:<d>``; attr ``stage``; it covers the interval the producer
  stage is wedged in program-order sends.

Each device also steps an ``activations`` gauge on its ``stage:<d>``
track.  A reader selects what it needs, e.g.
``[s for s in result.telemetry.spans if s.cat == "comm"]``.

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

Each task's bookkeeping is done once per run: when the run starts, a
task table resolves every device's items to their job stage, duration,
span name and attributes, activation delta, the input key they wait on
and their sends (duration, target, channel track).  Callbacks only read it.
Every event carries its callback's arguments (``call_at(when, fn,
*args)``), so no closure or ``partial`` is built per event, and every
span is appended to the bus as one raw row: the executor opens no
nested spans, so each row is what ``TelemetryBus.span`` would append.

A device is woken, not polled.  While idle, a device records the key
its head item waits on: the ``(kind, stage, mb)`` inputs of a compute
task, or, in blocking mode, the transfer a recv waits on.  An arrival
or a send calls the device's ``try_start`` only when it is for that
key; a finished item always reads the device's next head.  Blocking
mode has one wider rule: a device blocked in its own sends has not read
its head yet, so every send wakes it.  Its send block may end at the
sender's very instant, before its own wake-up event is popped, and then
the sender's callback starts it, exactly as polling would.  Wake-ups
are plain calls, not events, so the event sequence is the same as
calling ``try_start`` on every arrival and send.

The orders are read by :func:`~repro.pipeline.schedules.read_orders`,
the reading the static analyzers certify (``S001``/``S002``/``D002``);
its first problem raises ``ValueError`` before anything runs.
Activation memory is tracked per device as a telemetry gauge stepped by
:data:`~repro.pipeline.schedules.ACTIVATION_DELTA` (+1 at ``F``, −1 at
``B`` or ``Bw``) so the schedules' peak-memory trade-off (§4, Table 1)
is measurable, and equals the analyzer's static peak.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Optional

from ..runtime.kernel import EventLoop
from ..runtime.telemetry import TelemetryBus
from .schedules import ACTIVATION_DELTA, Task, read_orders
from .stage import CommEdge, PipelineJob

__all__ = ["PipelineResult", "simulate_pipeline"]


@dataclass
class PipelineResult:
    """Outcome of simulating one training iteration.

    ``telemetry`` holds the run's spans (see the module docstring); the
    statistics below are folded from them.  ``n_devices`` is the number
    of task lists the iteration ran on (``job.n_stages`` in the plain
    layout); the per-device statistics are keyed ``0..n_devices-1``.
    """

    telemetry: TelemetryBus = field(repr=False, compare=False)
    job: PipelineJob = field(repr=False)
    n_devices: int

    # Each statistic is folded from the stream on first access — keeping
    # the folds out of simulate_pipeline itself, whose per-event path
    # every Fig. 7 iteration runs, and the counter fold out of callers
    # that read only the makespan.
    @cached_property
    def _span_stats(self) -> tuple[float, dict[int, float]]:
        return _fold_spans(self.telemetry, self.n_devices)

    @property
    def iteration_time(self) -> float:
        """Makespan: latest compute/comm span end in the stream."""
        return self._span_stats[0]

    @property
    def stage_busy_time(self) -> dict[int, float]:
        """Seconds each device spent computing (plus blocking sends)."""
        return self._span_stats[1]

    @cached_property
    def peak_activation_counts(self) -> dict[int, int]:
        """Peak live activations per device, from the gauge samples."""
        return _fold_peaks(self.telemetry, self.n_devices)


def _fold_spans(bus: TelemetryBus, n_devices: int) -> tuple[float, dict[int, float]]:
    """Fold the iteration time and per-device busy time out of the
    span stream (the single source of truth)."""
    iteration_time = 0.0
    busy = [0.0] * n_devices
    # Folded over the raw span rows (name, cat, track, start, end,
    # depth, parent, attrs).  Read as Any: the executor's device attrs
    # are ints.
    rows: list[Any] = bus.span_rows
    for _name, cat, _track, start, end, _depth, _parent, a in rows:
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
    return iteration_time, dict(enumerate(busy))


def _fold_peaks(bus: TelemetryBus, n_devices: int) -> dict[int, int]:
    """Fold each device's peak live activations out of its
    ``activations`` gauge samples."""
    peak = [0] * n_devices
    device_of_track = {f"stage:{d}": d for d in range(n_devices)}
    for name, track, _time, value in bus.counter_rows:
        if name == "activations":
            device = device_of_track.get(track)
            if device is not None and value > peak[device]:
                peak[device] = int(value)
    return dict(enumerate(peak))


#: a row of the per-run task table (see :func:`simulate_pipeline`)
Row = tuple[Any, ...]

#: ``waiting[d]`` while device ``d`` runs an item or has none left: no
#: wake-up is for it.
_BUSY = -1
#: ``waiting[d]`` while ``d`` is blocked in its own sends (blocking
#: mode): its head is unread, so every wake-up is for it.
_ANY = -2


def simulate_pipeline(
    job: PipelineJob,
    orders: list[list[Task]],
    overlap: bool = True,
) -> PipelineResult:
    """Simulate one training iteration; see module docstring.

    ``orders[d]`` is device ``d``'s task list.
    """
    reading = read_orders(orders, job.n_microbatches, job)
    if reading.problems:
        raise ValueError(reading.problems[0][1])
    device_of = reading.device_of
    if not overlap and device_of != tuple(range(job.n_stages)):
        raise ValueError(
            "blocking communication (overlap=False) needs stage s on device s; "
            "interleaved placements run overlapped only"
        )
    loop = EventLoop()
    bus = loop.bus
    call_at = loop.call_at
    n_devices = len(orders)
    n_stages, m = job.n_stages, job.n_microbatches
    job_edges = job.edges

    # Arrival slots: stage s's forward inputs of micro-batch mb are
    # counted down in remaining[s*m + mb], its backward inputs in
    # remaining[(n_stages + s)*m + mb]; the last m slots stay 0 (Bw
    # waits on nothing).  sent_base + k, beyond every arrival slot, is
    # the key a blocking-mode recv of transfer k waits on.
    remaining = [0] * ((2 * n_stages + 1) * m)
    for s in range(n_stages):
        remaining[s * m:(s + 1) * m] = [len(reading.upstream[s])] * m
        b = (n_stages + s) * m
        remaining[b:b + m] = [len(reading.downstream[s])] * m
    sent_base = len(remaining)
    # Blocking mode: when transfer pk*m + mb hits the wire, for each
    # (edge index, direction) pair pk = 2*edge + (0 fwd | 1 bwd).
    sent_at: list[Optional[float]] = [None] * (2 * len(job_edges) * m)

    # Each stage's (edge index, edge) lists: F on stage s sends "fwd"
    # along out_edges[s] and waits on in_edges[s]; B/Bx send "bwd" along
    # in_edges[s] and wait on out_edges[s].
    edges = list(enumerate(job_edges))
    in_edges = [[(i, e) for i, e in edges if e.dst_stage == s] for s in range(n_stages)]
    out_edges = [[(i, e) for i, e in edges if e.src_stage == s] for s in range(n_stages)]
    chan_id: dict[str, int] = {}  # FIFO channel track -> index

    def send_list(along: list[tuple[int, CommEdge]], bwd: int) -> tuple[Row, ...]:
        """Each send: (pk, duration, direction, target's arrival slot
        base, target device, channel index, channel track, src device,
        dst device, label).  A channel is one (src device, dst device,
        direction)."""
        direction = "bwd" if bwd else "fwd"
        sends: list[Row] = []
        for i, e in along:
            target = e.src_stage if bwd else e.dst_stage
            src_dev, dst_dev = device_of[e.src_stage], device_of[e.dst_stage]
            ctrack = f"chan:{src_dev}->{dst_dev}:{direction}"
            cid = chan_id.setdefault(ctrack, len(chan_id))
            sends.append((2 * i + bwd, e.bwd_time if bwd else e.fwd_time, direction,
                          (bwd * n_stages + target) * m,
                          device_of[target], cid, ctrack, src_dev, dst_dev, e.label))
        return tuple(sends)

    def recv_list(along: list[tuple[int, CommEdge]], bwd: int) -> tuple[Row, ...]:
        """Blocking mode's recvs before a consuming task: (pk, duration,
        edge index, direction, label, channel track, src stage, dst
        stage)."""
        if overlap:
            return ()
        direction = "bwd" if bwd else "fwd"
        return tuple(
            (2 * i + bwd, e.bwd_time if bwd else e.fwd_time, i, direction, e.label,
             f"chan:{e.src_stage}->{e.dst_stage}:{direction}", e.src_stage, e.dst_stage)
            for i, e in along
        )

    # What each kind of task does on each stage: (arrival slot base,
    # duration, sends, recvs, activation delta).
    per_stage: list[dict[str, Row]] = []
    for s, prof in enumerate(job.stages):
        fwd_base, bwd_base = s * m, (n_stages + s) * m
        fwd_sends, bwd_sends = send_list(out_edges[s], 0), send_list(in_edges[s], 1)
        fwd_recvs, bwd_recvs = recv_list(in_edges[s], 0), recv_list(out_edges[s], 1)
        per_stage.append({
            "F": (fwd_base, prof.fwd_time, fwd_sends, fwd_recvs, ACTIVATION_DELTA["F"]),
            "B": (bwd_base, prof.bwd_x_time + prof.bwd_w_time, bwd_sends, bwd_recvs,
                  ACTIVATION_DELTA["B"]),
            "Bx": (bwd_base, prof.bwd_x_time, bwd_sends, bwd_recvs, ACTIVATION_DELTA["Bx"]),
            "Bw": (2 * n_stages * m, prof.bwd_w_time, (), (), ACTIVATION_DELTA["Bw"]),
        })

    # The per-run task table: rows[d] is device d's program.  A compute
    # row is (-1, arrival slot, duration, span name, span attrs,
    # activation delta, sends, microbatch, kind); a blocking-mode recv
    # row, one before its consuming task per input edge, is (transfer
    # index, duration, edge index, span name, span track, span attrs,
    # arrival slot).  A compute span's name is the text of repr(task)
    # (Task.__repr__), spelled out here: the table builds one per task.
    rows: list[list[Row]] = []
    for d, order in enumerate(orders):
        drows: list[Row] = []
        append = drows.append
        for t in order:
            kind, mb, stage = t.kind, t.microbatch, t.stage
            base, dur, sends, recvs, delta = per_stage[d if stage is None else stage][kind]
            if recvs:
                for pk, dur_in, i, direction, label, track, src, dst in recvs:
                    append((
                        pk * m + mb, dur_in, i, label, track,
                        {"src_stage": src, "dst_stage": dst, "direction": direction,
                         "microbatch": mb, "label": label, "busy_stage": d},
                        base + mb,
                    ))
            if stage is None:
                name, attrs = f"{kind}{mb}", {"stage": d, "kind": kind, "microbatch": mb}
            else:
                name = f"{kind}{mb}c{stage}"
                attrs = {"stage": d, "kind": kind, "microbatch": mb, "chunk": stage}
            append((-1, base + mb, dur, name, attrs, delta, sends, mb, kind))
        rows.append(drows)

    idx = [0] * n_devices
    # The key device d's head item waits on while d is idle (an arrival
    # slot, or sent_base + a transfer index), else _BUSY or _ANY.
    waiting = [_BUSY] * n_devices
    device_track = [f"stage:{d}" for d in range(n_devices)]
    device_free_at = [0.0] * n_devices  # > now while blocked in sends
    act = [bus.gauge("activations", track=device_track[d]) for d in range(n_devices)]
    chan_free_at = [0.0] * len(chan_id)  # when each FIFO channel next goes idle
    # Each span is one raw row at depth 0 (what TelemetryBus.span would
    # append).
    emit = bus.span_rows.append

    def arrival(slot: int, device: int) -> None:
        left = remaining[slot] - 1
        remaining[slot] = left
        if left <= 0 and waiting[device] == slot:
            try_start(device)

    def on_compute_done(device: int, row: Row, start: float) -> None:
        finish = loop.now
        _, _, _, name, attrs, delta, sends, mb, kind = row
        emit((name, "compute", device_track[device], start, finish, 0, "", attrs))
        if delta:
            act[device].add(delta, finish)
        idx[device] += 1
        if overlap:
            for _, dur, direction, base, target, cid, ctrack, src, dst, label in sends:
                free = chan_free_at[cid]
                cstart = finish if finish > free else free
                cend = cstart + dur
                chan_free_at[cid] = cend
                emit((label, "comm", ctrack, cstart, cend, 0, "",
                      {"src_stage": src, "dst_stage": dst, "direction": direction,
                       "microbatch": mb, "label": label}))
                call_at(cend, arrival, base + mb, target)
            try_start(device)
        else:
            # Blocking sends in program order (plain layout, so device
            # == stage): the stage stays busy for the sum of its
            # outgoing transfer durations; each transfer hits the wire
            # when its send begins.
            block_until = finish
            for pk, dur, _, _, target, _, _, _, _, _ in sends:
                k = pk * m + mb
                sent_at[k] = block_until
                block_until += dur
                w = waiting[target]
                if w == sent_base + k or w == _ANY:  # its recv may now be startable
                    try_start(target)
            if block_until > finish:
                emit((f"send:{kind}{mb}", "send", device_track[device],
                      finish, block_until, 0, "", {"stage": device}))
                device_free_at[device] = block_until
                waiting[device] = _ANY
                call_at(block_until, wake, device)
            else:
                try_start(device)

    def wake(device: int) -> None:
        """The device's send block ended: read its head, unless a
        sender's wake-up at the same instant already did."""
        if waiting[device] == _ANY:
            try_start(device)

    def on_recv_done(device: int, row: Row, start: float) -> None:
        _, _, _, label, track, attrs, slot = row
        emit((label, "comm", track, start, loop.now, 0, "", attrs))
        idx[device] += 1
        remaining[slot] -= 1
        try_start(device)

    def try_start(device: int) -> None:
        drows = rows[device]
        i = idx[device]
        if i >= len(drows):
            waiting[device] = _BUSY
            return
        now = loop.now
        if now < device_free_at[device] - 1e-15:
            waiting[device] = _ANY  # still blocked sending; wake-up queued
            return
        row = drows[i]
        k = row[0]
        if k >= 0:  # a blocking recv
            sent = sent_at[k]
            if sent is None:
                waiting[device] = sent_base + k  # matching send has not started
                return
            waiting[device] = _BUSY
            call_at((sent if sent > now else now) + row[1],
                    on_recv_done, device, row, now)
            return
        slot = row[1]
        if remaining[slot] > 0:
            waiting[device] = slot
            return
        waiting[device] = _BUSY
        call_at(now + row[2], on_compute_done, device, row, now)

    try:
        for d in range(n_devices):
            try_start(d)
        loop.run()
    finally:
        # The callbacks reach each other through closure cells, a cycle
        # only the collector would free: empty the cells so the loop,
        # the task table and the callbacks go as soon as the run does.
        del arrival, on_compute_done, wake, on_recv_done, try_start

    unfinished = [d for d in range(n_devices) if idx[d] < len(rows[d])]
    if unfinished:
        detail = {d: _item_name(rows[d][idx[d]]) for d in unfinished}
        raise RuntimeError(
            f"pipeline deadlocked; stages stuck at tasks {detail} "
            f"(check warm-up depths and edge directions)"
        )
    return PipelineResult(telemetry=bus, job=job, n_devices=n_devices)


def _item_name(row: Row) -> str:
    """A task table row as the deadlock message names it."""
    if row[0] < 0:
        return str(row[3])
    attrs = row[5]
    return f"recv(e{row[2]},{attrs['direction']},mb{attrs['microbatch']})"
