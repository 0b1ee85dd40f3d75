"""Synchronous pipeline schedules: GPipe, 1F1B, and eager-1F1B (§4).

A schedule is, per device, an ordered list of compute tasks the device
executes strictly in sequence (the schedules here put stage ``i`` on
device ``i``).  Task kinds:

* ``F``  — forward of one micro-batch;
* ``B``  — full backward (``Bx`` + ``Bw`` fused);
* ``Bx`` — backward w.r.t. activations (produces the gradient that
  crosses meshes);
* ``Bw`` — backward w.r.t. weights (delayable, §4's *backward weight
  delaying*).

1F1B runs ``#stages - i`` warm-up forwards at (0-indexed) stage ``i``;
eager-1F1B runs ``2 * (#stages - i - 1) + 1``, shifting forwards earlier
to open gaps into which cross-mesh communication can be overlapped.
Both reduce to the same steady one-forward-one-backward pattern and have
identical latency when communication is free.

:func:`read_orders` is the one reading of a job's task lists: the
executor, the schedule analyzer (``S001``/``S002``) and the deadlock
analyzer (``D002``) all consume its :class:`OrderReading`.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .stage import PipelineJob

__all__ = [
    "Task",
    "ACTIVATION_DELTA",
    "OrderReading",
    "read_orders",
    "gpipe_order",
    "one_f_one_b_order",
    "eager_warmup",
    "fifo_warmup",
    "stage_order",
    "schedule_job",
    "split_backward",
    "check_count",
    "SCHEDULE_NAMES",
]

#: The known task kinds and the change in a device's live activations
#: when one completes: ``F`` stores its input, which fused ``B`` or, when
#: split, ``Bw`` frees (the weight gradient reads it; ``Bx`` frees nothing).
ACTIVATION_DELTA = {"F": 1, "B": -1, "Bx": 0, "Bw": -1}

SCHEDULE_NAMES = ("gpipe", "1f1b", "eager_1f1b")


@dataclass(frozen=True)
class Task:
    """One compute task in a device's ordered list.

    ``stage`` names the job stage the task computes; ``None`` means the
    stage whose index is the device's (the plain one-stage-per-device
    layout).  Interleaved schedules place several stages (model chunks)
    on one device and name each task's stage explicitly.
    """

    kind: str
    microbatch: int
    stage: Optional[int] = None

    def __repr__(self) -> str:
        if self.stage is None:
            return f"{self.kind}{self.microbatch}"
        return f"{self.kind}{self.microbatch}c{self.stage}"


def check_count(name: str, value) -> None:
    """Reject a stage or micro-batch count that is not an integer >= 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def fifo_warmup(stage: int, n_stages: int) -> int:
    """1F1B warm-up depth at ``stage`` (paper: ``#stages - i + 1``,
    1-indexed; equivalently ``#stages - i`` 0-indexed)."""
    if not 0 <= stage < n_stages:
        raise ValueError(f"stage {stage} outside [0, {n_stages})")
    return n_stages - stage


def eager_warmup(stage: int, n_stages: int) -> int:
    """Eager-1F1B warm-up depth: ``2 * (#stages - i) + 1`` 1-indexed,
    i.e. ``2 * (n_stages - stage - 1) + 1`` 0-indexed."""
    if not 0 <= stage < n_stages:
        raise ValueError(f"stage {stage} outside [0, {n_stages})")
    return 2 * (n_stages - stage - 1) + 1


def gpipe_order(n_microbatches: int) -> list[Task]:
    """All forwards, then all backwards (every stage the same)."""
    fwd = [Task("F", i) for i in range(n_microbatches)]
    bwd = [Task("B", i) for i in range(n_microbatches)]
    return fwd + bwd


def one_f_one_b_order(n_microbatches: int, warmup: int) -> list[Task]:
    """Warm-up forwards, then alternate backward/forward, then drain."""
    if warmup < 1:
        raise ValueError("warmup must be >= 1")
    w = min(warmup, n_microbatches)
    seq = [Task("F", i) for i in range(w)]
    nf, nb = w, 0
    while nb < n_microbatches:
        seq.append(Task("B", nb))
        nb += 1
        if nf < n_microbatches:
            seq.append(Task("F", nf))
            nf += 1
    return seq


def stage_order(
    schedule: str, stage: int, n_stages: int, n_microbatches: int
) -> list[Task]:
    """The ordered task list of one stage under a named schedule."""
    if schedule == "gpipe":
        return gpipe_order(n_microbatches)
    if schedule == "1f1b":
        return one_f_one_b_order(n_microbatches, fifo_warmup(stage, n_stages))
    if schedule == "eager_1f1b":
        return one_f_one_b_order(n_microbatches, eager_warmup(stage, n_stages))
    raise ValueError(f"unknown schedule {schedule!r}; options: {SCHEDULE_NAMES}")


def split_backward(order: list[Task], delay_slots: int = 1) -> list[Task]:
    """Split each ``B`` into ``Bx`` + ``Bw`` and delay ``Bw``.

    ``Bw`` is pushed ``delay_slots`` compute tasks later than its
    natural position (bounded by the end of the list), so the cross-mesh
    gradient communication triggered by ``Bx`` overlaps the weight-
    gradient computation — §4's backward weight delaying.  With
    ``delay_slots=0`` the split is positional only (``Bx`` directly
    followed by ``Bw``), which is behaviourally identical to fused ``B``.
    """
    if delay_slots < 0:
        raise ValueError("delay_slots must be >= 0")
    out: list[Task] = []
    pending: list[tuple[int, Task]] = []  # (remaining slots, Bw task)

    def advance() -> None:
        """One original task was emitted; age pending Bw tasks."""
        nonlocal pending
        pending = [(left - 1, t) for left, t in pending]
        while pending and pending[0][0] <= 0:
            out.append(pending.pop(0)[1])

    for t in order:
        if t.kind == "B":
            out.append(Task("Bx", t.microbatch, t.stage))
            advance()
            pending.append((delay_slots, Task("Bw", t.microbatch, t.stage)))
        else:
            out.append(t)
            advance()
    out.extend(t for _, t in pending)
    return out


def schedule_job(
    schedule: str,
    n_stages: int,
    n_microbatches: int,
    delay_bw_weight: bool = False,
    delay_slots: int = 1,
) -> list[list[Task]]:
    """Per-stage ordered task lists for the whole job."""
    check_count("n_stages", n_stages)
    check_count("n_microbatches", n_microbatches)
    orders = [
        stage_order(schedule, s, n_stages, n_microbatches) for s in range(n_stages)
    ]
    if delay_bw_weight:
        orders = [split_backward(o, delay_slots) for o in orders]
    return orders


@dataclass(frozen=True)
class OrderReading:
    """What a job's per-device task lists mean; see :func:`read_orders`.

    ``device_of[s]`` is stage ``s``'s device (``-1``: no task names it).
    ``position[(s, kind, mb)]`` is that task's ``(device, index)`` in
    the orders.  ``upstream[s]`` / ``downstream[s]`` name the stage at
    the far end of each of ``s``'s input / output edges.  ``problems``
    lists every broken rule as ``(stage, message)``, in check order.
    """

    device_of: tuple[int, ...]
    position: dict[tuple[int, str, int], tuple[int, int]]
    upstream: tuple[tuple[int, ...], ...]
    downstream: tuple[tuple[int, ...], ...]
    problems: tuple[tuple[int, str], ...]

    def in_device_order(self) -> list[tuple[int, str, int]]:
        """Every read task as ``(stage, kind, mb)``, device by device,
        each device's tasks in program order."""
        return sorted(self.position, key=self.position.__getitem__)


def read_orders(
    orders: list[list[Task]],
    n_microbatches: int,
    job: "Optional[PipelineJob]" = None,
) -> OrderReading:
    """Read per-device task lists in one walk and check them.

    ``orders[d]`` is device ``d``'s task list; a task without a stage
    computes stage ``d``.  Stages and edges are ``job``'s, or a
    ``s -> s+1`` chain of ``len(orders)`` stages when ``job`` is None.
    Rules: every task names a real stage, and a stage runs on one
    device; only :data:`ACTIVATION_DELTA`'s kinds, none twice; forwards
    cover ``0..m-1``, and fused ``B`` covers every micro-batch or ``Bx``
    and ``Bw`` both do, never a mix (with no backward task anywhere the
    orders are forward-only, i.e. inference); a backward follows its
    forward, ``Bw`` its ``Bx``.
    """
    if job is None:
        n_stages = len(orders)
        edges = [(s, s + 1) for s in range(n_stages - 1)]
    else:
        n_stages = job.n_stages
        edges = [(e.src_stage, e.dst_stage) for e in job.edges]
    upstream = tuple(tuple(a for a, b in edges if b == s) for s in range(n_stages))
    downstream = tuple(tuple(b for a, b in edges if a == s) for s in range(n_stages))
    device_of = [-1] * n_stages
    position: dict[tuple[int, str, int], tuple[int, int]] = {}
    problems: list[tuple[int, str]] = []
    stage_tasks: list[list[Task]] = [[] for _ in range(n_stages)]
    for d, order in enumerate(orders):
        for i, t in enumerate(order):
            s = d if t.stage is None else t.stage
            if not 0 <= s < n_stages:
                problems.append((s, f"device {d}: task {t!r} names no stage of "
                                    f"the {n_stages}-stage job"))
            elif device_of[s] not in (-1, d):
                where = f"devices {device_of[s]} and {d}"
                problems.append((s, f"stage {s} placed on {where}"))
            elif t.kind not in ACTIVATION_DELTA:
                problems.append((s, f"stage {s}: {t!r} has unknown kind {t.kind!r}"))
            else:
                device_of[s] = d
                stage_tasks[s].append(t)
                position.setdefault((s, t.kind, t.microbatch), (d, i))

    m = n_microbatches
    everything = set(range(m))
    training = any(t.kind != "F" for tasks in stage_tasks for t in tasks)
    for s, tasks in enumerate(stage_tasks):
        mbs: dict[str, list[int]] = {kind: [] for kind in ACTIVATION_DELTA}
        for t in tasks:
            mbs[t.kind].append(t.microbatch)
        fwd = sorted(mbs["F"])
        if fwd != list(range(m)):
            problems.append((s, f"stage {s}: forwards {fwd} != 0..{m - 1}"))
        fused, bx, bw = set(mbs["B"]), set(mbs["Bx"]), set(mbs["Bw"])
        if fused & (bx | bw):
            problems.append((s, f"stage {s}: mixes fused B and split Bx/Bw"))
        elif training and fused != everything and not bx == bw == everything:
            problems.append((s, f"stage {s}: backward coverage incomplete"))
        seen: dict[tuple[str, int], None] = {}  # insertion-ordered set
        for t in tasks:
            if (t.kind, t.microbatch) in seen:
                problems.append((s, f"stage {s}: duplicate task {t!r}"))
            seen[(t.kind, t.microbatch)] = None
        for kind, mb in seen:
            if kind == "F":
                continue
            here = position[(s, kind, mb)]
            if kind != "Bw" and not position.get((s, "F", mb), here) < here:
                problems.append(
                    (s, f"stage {s}: backward of mb {mb} precedes its forward")
                )
            elif kind == "Bw" and not position.get((s, "Bx", mb), here) < here:
                problems.append((s, f"stage {s}: Bw{mb} precedes Bx"))
    return OrderReading(
        tuple(device_of), position, upstream, downstream, tuple(problems)
    )
