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
identical latency when communication is free.  The §4 memory closed
forms, :func:`analytic_peak_inflight` and :func:`eager_memory_increase`,
are functions of those warm-up depths.

:func:`read_orders` is the one reading of a job's task lists: the
executor, the schedule analyzer (``S001``/``S002``) and the deadlock
analyzer (``D002``) all consume its :class:`OrderReading`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import repeat
from operator import lt
from typing import TYPE_CHECKING, Optional

from .. import checks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .stage import PipelineJob

__all__ = [
    "Task",
    "ACTIVATION_DELTA",
    "OrderReading",
    "read_orders",
    "one_f_one_b_order",
    "eager_warmup",
    "fifo_warmup",
    "analytic_peak_inflight",
    "eager_memory_increase",
    "schedule_job",
    "split_backward",
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
        # The pipeline executor spells this text out to name compute
        # spans (tests/test_executor_pins.py pins both forms).
        if self.stage is None:
            return f"{self.kind}{self.microbatch}"
        return f"{self.kind}{self.microbatch}c{self.stage}"


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


def analytic_peak_inflight(
    schedule: str, stage: int, n_stages: int, n_microbatches: int
) -> int:
    """Upper bound on concurrently stored activations at one stage.

    In the steady state of 1F1B-style schedules a stage holds exactly
    its warm-up depth of activations; GPipe holds all micro-batches.
    The executor's ``peak_activation_counts`` measure the same peak.
    """
    if schedule == "gpipe":
        return n_microbatches
    if schedule == "1f1b":
        return min(n_microbatches, fifo_warmup(stage, n_stages))
    if schedule == "eager_1f1b":
        return min(n_microbatches, eager_warmup(stage, n_stages))
    raise ValueError(f"unknown schedule {schedule!r}")


def eager_memory_increase(stage: int, n_stages: int, activation_bytes: float) -> float:
    """Extra bytes eager-1F1B stores at ``stage`` compared to 1F1B.

    ``(2(p - s - 1) + 1) - (p - s) = p - s - 1 <= #stages`` in-flight
    activations — the paper's bound (§4).
    """
    delta = eager_warmup(stage, n_stages) - fifo_warmup(stage, n_stages)
    return max(0, delta) * activation_bytes


def _tasks(n_microbatches: int) -> tuple[list[Task], list[Task]]:
    """``F`` and fused ``B`` of every micro-batch, each built once."""
    return ([Task("F", i) for i in range(n_microbatches)],
            [Task("B", i) for i in range(n_microbatches)])


def one_f_one_b_order(n_microbatches: int, warmup: int) -> list[Task]:
    """Warm-up forwards, then alternate backward/forward, then drain."""
    if warmup < 1:
        raise ValueError("warmup must be >= 1")
    return _one_f_one_b(*_tasks(n_microbatches), warmup)


def _one_f_one_b(fwd: list[Task], bwd: list[Task], warmup: int) -> list[Task]:
    """:func:`one_f_one_b_order` over prebuilt ``F``/``B`` tasks."""
    m = len(fwd)
    w = min(warmup, m)
    seq = fwd[:w]
    for nb in range(m):
        seq.append(bwd[nb])
        if w + nb < m:
            seq.append(fwd[w + nb])
    return seq


def _stage_order(
    schedule: str, stage: int, n_stages: int, fwd: list[Task], bwd: list[Task]
) -> list[Task]:
    """The ordered task list of one stage under a named schedule, over
    prebuilt ``F``/``B`` tasks."""
    if schedule == "gpipe":
        return fwd + bwd
    if schedule == "1f1b":
        return _one_f_one_b(fwd, bwd, fifo_warmup(stage, n_stages))
    if schedule == "eager_1f1b":
        return _one_f_one_b(fwd, bwd, eager_warmup(stage, n_stages))
    raise ValueError(f"unknown schedule {schedule!r}; options: {SCHEDULE_NAMES}")


def split_backward(order: list[Task], delay_slots: int = 1) -> list[Task]:
    """Split each ``B`` into ``Bx`` + ``Bw`` and delay ``Bw``.

    ``Bx`` takes ``B``'s place; ``Bw`` follows the ``delay_slots``-th
    task of ``order`` after that ``B`` (or ends the list, if there are
    fewer), so the cross-mesh gradient communication triggered by ``Bx``
    overlaps the weight-gradient computation — §4's backward weight
    delaying.  ``delay_slots=0`` gives the same list as ``1``: ``Bw``
    still follows the next task, never ``Bx`` directly, so ablation A5's
    delay-0 row repeats its delay-1 row.  ``delay_slots`` must be an
    integer >= 0.
    """
    checks.integer("delay_slots", delay_slots, 0)
    return _split_backward(order, delay_slots, {})


def _split_backward(
    order: list[Task], delay_slots: int, halves: dict[Task, tuple[Task, Task]]
) -> list[Task]:
    """:func:`split_backward`, building each ``B``'s halves once per
    ``halves`` memo."""
    lag = max(delay_slots, 1)
    out: list[Task] = []
    due: deque[tuple[int, Task]] = deque()  # (tasks read when Bw is due, Bw)
    for n, t in enumerate(order, 1):
        if t.kind == "B":
            pair = halves.get(t)
            if pair is None:
                pair = halves[t] = (Task("Bx", t.microbatch, t.stage),
                                    Task("Bw", t.microbatch, t.stage))
            out.append(pair[0])
        else:
            out.append(t)
        while due and due[0][0] <= n:
            out.append(due.popleft()[1])
        if t.kind == "B":
            due.append((n + lag, pair[1]))
    out.extend(bw for _, bw in due)
    return out


def schedule_job(
    schedule: str,
    n_stages: int,
    n_microbatches: int,
    delay_bw_weight: bool = False,
    delay_slots: int = 1,
) -> list[list[Task]]:
    """Per-stage ordered task lists for the whole job.

    Each distinct :class:`Task` is built once and shared by every
    stage's list.
    """
    checks.integer("n_stages", n_stages, 1)
    checks.integer("n_microbatches", n_microbatches, 1)
    fwd, bwd = _tasks(n_microbatches)
    orders = [_stage_order(schedule, s, n_stages, fwd, bwd) for s in range(n_stages)]
    if delay_bw_weight:
        checks.integer("delay_slots", delay_slots, 0)
        halves: dict[Task, tuple[Task, Task]] = {}
        orders = [_split_backward(o, delay_slots, halves) for o in orders]
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
    orders are forward-only); a backward follows its
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
    problems: list[tuple[int, str]] = []
    stage_tasks: list[list[Task]] = [[] for _ in range(n_stages)]
    # Per stage and kind, the micro-batches of its tasks and their
    # indices in the device's order, in program order.
    mbs: list[dict[str, list[int]]] = [
        {kind: [] for kind in ACTIVATION_DELTA} for _ in range(n_stages)
    ]
    where: list[dict[str, list[int]]] = [
        {kind: [] for kind in ACTIVATION_DELTA} for _ in range(n_stages)
    ]
    for d, order in enumerate(orders):
        for i, t in enumerate(order):
            s = d if t.stage is None else t.stage
            kind = t.kind
            if not 0 <= s < n_stages:
                problems.append((s, f"device {d}: task {t!r} names no stage of "
                                    f"the {n_stages}-stage job"))
            elif device_of[s] != d and device_of[s] != -1:
                devices = f"devices {device_of[s]} and {d}"
                problems.append((s, f"stage {s} placed on {devices}"))
            elif kind not in ACTIVATION_DELTA:
                problems.append((s, f"stage {s}: {t!r} has unknown kind {kind!r}"))
            else:
                device_of[s] = d
                stage_tasks[s].append(t)
                mbs[s][kind].append(t.microbatch)
                where[s][kind].append(i)
    # A stage's tasks all sit on its device.  Inserted last to first, so
    # a repeated task keeps its first position.
    position: dict[tuple[int, str, int], tuple[int, int]] = {}
    for s, d in enumerate(device_of):
        for kind, kind_mbs in mbs[s].items():
            position.update(zip(zip(repeat(s), repeat(kind), reversed(kind_mbs)),
                                zip(repeat(d), reversed(where[s][kind]))))

    m = n_microbatches
    everything = set(range(m))
    training = any(k[kind] for k in mbs for kind in ("B", "Bx", "Bw"))
    for s, tasks in enumerate(stage_tasks):
        k, w = mbs[s], where[s]
        fwd = sorted(k["F"])
        if fwd != list(range(m)):
            problems.append((s, f"stage {s}: forwards {fwd} != 0..{m - 1}"))
        fused, bx, bw = set(k["B"]), set(k["Bx"]), set(k["Bw"])
        if fused & (bx | bw):
            problems.append((s, f"stage {s}: mixes fused B and split Bx/Bw"))
        elif training and fused != everything and not bx == bw == everything:
            problems.append((s, f"stage {s}: backward coverage incomplete"))
        # No task twice, and every backward after its forward (Bw after
        # its Bx), checked kind by kind; only a stage that fails is
        # walked task by task, to name its problems in order.
        if (len(set(fwd)) == len(fwd) and len(fused) == len(k["B"])
                and len(bx) == len(k["Bx"]) and len(bw) == len(k["Bw"])):
            fpos, xpos = dict(zip(k["F"], w["F"])), dict(zip(k["Bx"], w["Bx"]))
            if all(all(map(lt, map(first.get, k[kind], w[kind]), w[kind]))
                   for kind, first in (("B", fpos), ("Bx", fpos), ("Bw", xpos))):
                continue
        problems.extend(_order_problems(s, tasks, position))
    return OrderReading(
        tuple(device_of), position, upstream, downstream, tuple(problems)
    )


def _order_problems(
    s: int,
    tasks: list[Task],
    position: dict[tuple[int, str, int], tuple[int, int]],
) -> list[tuple[int, str]]:
    """Stage ``s``'s repeated tasks, and its backwards that do not follow
    their forward (``Bw``: its ``Bx``), in program order."""
    problems: list[tuple[int, str]] = []
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
    return problems
