"""Communication-plan IR for cross-mesh resharding.

A strategy compiles a :class:`~repro.core.task.ReshardingTask` into a
:class:`CommPlan`: a list of communication ops plus (optionally) a unit-
task schedule.  The plan has two interpreters:

* the **timing interpreter** (:mod:`repro.core.executor`) maps ops onto
  the flow simulator's primitives and reports simulated latency;
* the **data interpreter** (:mod:`repro.core.data`) moves real NumPy
  buffers between simulated devices and verifies every destination
  device ends up with exactly its required tile.

Op kinds:

``SendOp``
    sender delivers the exact ``region`` to one receiver.
``BroadcastOp``
    sender delivers the full ``region`` to every receiver (ring
    broadcast with ``n_chunks`` pipeline chunks); receivers crop.
``ScatterOp``
    region's elements (row-major flattened) are split into
    ``len(receivers)`` near-equal flat parts; part ``k`` goes to
    ``receivers[k]``.
``AllGatherOp``
    the group devices, each holding flat part ``k`` of ``region``
    (from a prior ScatterOp, named via ``deps``), exchange parts so all
    of them hold the full region.
``MulticastOp``
    sender delivers the full ``region`` to every receiver via switch
    replication: one upstream traversal of the named ``switch`` per
    chunk, replicated downstream to each receiving host concurrently.
    Requires a topology whose switch spans sender and receivers;
    receivers crop like BroadcastOp.

Every op exposes its endpoints uniformly: ``op.sender`` (None for an
all-gather, whose group already holds its parts) and ``op.receivers``
(the devices it writes ``region``, or a part of it, onto).

What a plan *means* beyond its op list is defined here once: a
scheduled unit task occupies :meth:`CommPlan.gating_hosts`, and
:func:`gating_order` turns the schedule order into the paper's Eq. 3
gating — a task starts only after every earlier-ordered task sharing
one of its hosts finished.  The executor, the deadlock and race
analyses, the memory bound and joint simulation all read it from here.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from ..scheduling.problem import Schedule
from .slices import Region
from .task import ReshardingTask

__all__ = [
    "CommOp",
    "SendOp",
    "BroadcastOp",
    "ScatterOp",
    "AllGatherOp",
    "MulticastOp",
    "FallbackRecord",
    "CommPlan",
    "gating_order",
    "slice_checksum",
]


def gating_order(
    order: Iterable[int], hosts_of: Mapping[int, Iterable[int]]
) -> tuple[dict[int, set[int]], dict[int, set[int]]]:
    """Eq. 3 gating: ``(preds, succs)`` per task of ``hosts_of``.

    Walking ``order``, task ``t`` waits on the last earlier task that
    occupied each of its hosts ``hosts_of[t]``; tasks absent from
    ``hosts_of`` are not gated.  ``preds[t]`` are the tasks ``t`` must
    wait for, ``succs[t]`` the tasks waiting for ``t``.
    """
    preds: dict[int, set[int]] = {tid: set() for tid in hosts_of}
    succs: dict[int, set[int]] = {tid: set() for tid in hosts_of}
    last_on_host: dict[int, int] = {}
    for tid in order:
        hosts = hosts_of.get(tid)
        if hosts is None:
            continue
        for h in sorted(hosts):
            prev = last_on_host.get(h)
            if prev is not None and prev != tid:
                preds[tid].add(prev)
                succs[prev].add(tid)
            last_on_host[h] = tid
    return preds, succs


def slice_checksum(task: ReshardingTask, op: CommOp) -> str:
    """Content fingerprint of the slice ``op`` moves (16 hex chars).

    Derived from stable plan content only — tensor shape/dtype, the op's
    kind, region, and id — never from wall-clock or process state, so
    recompiling the same task yields the identical stamp and replays
    verify byte-identically.  In a real deployment this would be a CRC
    of the payload; in the simulator the *presence* of the stamp is what
    matters: it marks the op as end-to-end verifiable.
    """
    key = repr((
        tuple(task.shape),
        str(task.dtype),
        type(op).__name__,
        op.op_id,
        op.region,
        op.nbytes,
    ))
    return hashlib.sha256(key.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class FallbackRecord:
    """A failure-aware deviation a strategy took while compiling the plan.

    E.g. the scheduler assigned unit task ``unit_task_id`` to sender
    host ``from_host``, but that host's NIC was down at plan time, so
    the broadcast was re-rooted onto surviving replica host ``to_host``.
    """

    unit_task_id: int
    from_host: int
    to_host: int
    reason: str


@dataclass(frozen=True)
class CommOp:
    """Base communication op.

    ``deps`` are op ids that must complete before this op starts (data
    dependencies within a composite, e.g. scatter before all-gather).
    ``unit_task_id`` ties the op to the unit communication task it
    implements, used for schedule gating; ``-1`` means ungated.

    ``checksum`` is a per-slice content fingerprint stamped by the
    compiler's emit pass (:func:`repro.core.plan.slice_checksum`): the
    receiver-side end-to-end check that turns gray corruption
    (:class:`repro.sim.faults.CorruptionWindow`) from silent data loss
    into a detected, reportable fault.  Empty string means "unstamped"
    (hand-built plans); the verifier treats corruption of an unstamped
    op as *undetectable* and refuses to certify the plan.
    """

    op_id: int
    unit_task_id: int
    region: Region
    nbytes: float
    deps: tuple[int, ...] = ()
    checksum: str = ""

    @property
    def sender(self) -> Optional[int]:
        """The source device the op reads ``region`` from, if any."""
        return None

    @property
    def receivers(self) -> tuple[int, ...]:
        """The devices the op writes onto."""
        return ()


@dataclass(frozen=True)
class SendOp(CommOp):
    sender: int = -1
    receiver: int = -1

    @property
    def receivers(self) -> tuple[int, ...]:
        return (self.receiver,)


@dataclass(frozen=True)
class BroadcastOp(CommOp):
    sender: int = -1
    receivers: tuple[int, ...] = ()
    n_chunks: int = 64


@dataclass(frozen=True)
class ScatterOp(CommOp):
    sender: int = -1
    receivers: tuple[int, ...] = ()


@dataclass(frozen=True)
class AllGatherOp(CommOp):
    devices: tuple[int, ...] = ()

    @property
    def receivers(self) -> tuple[int, ...]:
        return self.devices


@dataclass(frozen=True)
class MulticastOp(CommOp):
    sender: int = -1
    receivers: tuple[int, ...] = ()
    #: topology switch carrying the replicated send (must span all hosts)
    switch: str = ""
    n_chunks: int = 16


@dataclass
class CommPlan:
    """A compiled cross-mesh resharding plan."""

    task: ReshardingTask
    strategy: str
    ops: list[CommOp] = field(default_factory=list)
    #: unit-task schedule (assignment + order); None means "launch all"
    schedule: Optional[Schedule] = None
    #: False when the plan does not actually move the tensor (signal)
    data_complete: bool = True
    #: unit-task decomposition the op unit_task_ids refer to
    granularity: str = "intersection"
    #: failure-aware deviations taken at plan time (e.g. re-rooted senders)
    fallbacks: list[FallbackRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._ops_index: Optional[dict[int, list[CommOp]]] = None
        self._indexed: tuple[int, int] = (-1, -1)

    def add(self, op: CommOp) -> CommOp:
        if op.op_id != len(self.ops):
            raise ValueError(
                f"op_id {op.op_id} out of sequence (expected {len(self.ops)})"
            )
        for d in op.deps:
            if not 0 <= d < len(self.ops):
                raise ValueError(f"dep {d} references unknown op")
        self.ops.append(op)
        return op

    @property
    def next_op_id(self) -> int:
        return len(self.ops)

    def ops_by_task(self) -> dict[int, list[CommOp]]:
        """``unit_task_id -> ops`` index, built once per plan revision.

        The index is rebuilt when the ops list was appended to (or
        swapped out) since the last build; both interpreters walk every
        unit task, so a per-call linear scan would be O(n·m) overall.
        """
        key = (len(self.ops), id(self.ops))
        if self._ops_index is None or self._indexed != key:
            index: dict[int, list[CommOp]] = {}
            for op in self.ops:
                index.setdefault(op.unit_task_id, []).append(op)
            self._ops_index = index
            self._indexed = key
        return self._ops_index

    def gating_hosts(self) -> dict[int, frozenset[int]]:
        """Hosts each scheduled unit task occupies, in schedule order.

        Covers the unit tasks that emit ops and that the schedule both
        orders and assigns; see :meth:`ReshardingTask.occupied_hosts`.
        Feed it to :func:`gating_order` with ``schedule.order``.  Empty
        for an unscheduled plan.
        """
        schedule = self.schedule
        if schedule is None:
            return {}
        task_ops = self.ops_by_task()
        ut_by_id = {ut.task_id: ut for ut in self.task.unit_tasks(self.granularity)}
        return {
            tid: self.task.occupied_hosts(ut_by_id[tid], schedule.assignment[tid])
            for tid in schedule.order
            if tid in task_ops and tid in ut_by_id and tid in schedule.assignment
        }

    def __repr__(self) -> str:
        kinds: dict[str, int] = {}
        for op in self.ops:
            kinds[type(op).__name__] = kinds.get(type(op).__name__, 0) + 1
        return f"CommPlan({self.strategy}, ops={kinds})"
