"""Intra-mesh resharding: layout conversion within one device mesh.

The paper's background (§2.1, Figure 1b): when an operator's required
input layout disagrees with a tensor's current layout *on the same
mesh*, a conversion is needed.  Unlike cross-mesh resharding, the
participating devices overlap, so three things change:

* a destination device that already holds (part of) its new tile reuses
  it locally at zero cost;
* the conversion maps onto classic collectives — ``S -> R`` along a mesh
  axis is an all-gather within each replica group, ``R -> S`` is a free
  local slice, and shard-axis swaps become all-to-all-like exchanges;
* NVLink carries most traffic when the mesh axis stays inside a host.

This module compiles the conversion with the same CommPlan IR used for
cross-mesh resharding, choosing, per unit region, the cheapest holder
(same device > same host > remote) and broadcast for multi-receiver
regions.  The plan runs on both interpreters: the flow simulator for
timing and the NumPy data plane for verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..strategies.broadcast import adaptive_chunks
from .data import apply_plan
from .executor import TimingResult, simulate_plan
from .mesh import DeviceMesh
from .plan import BroadcastOp, CommPlan, SendOp
from .task import ReshardingTask
from .tensor import DistributedTensor, array_or_shape

__all__ = ["plan_intra_mesh", "intra_mesh_reshard", "IntraReshardResult"]


def plan_intra_mesh(
    shape,
    mesh: DeviceMesh,
    src_spec,
    dst_spec,
    dtype=np.float32,
) -> CommPlan:
    """Compile the layout conversion ``src_spec -> dst_spec`` on ``mesh``.

    Unit regions come from the overlap grid of the two layouts.  For
    each region, destination devices that already hold it are dropped;
    the remaining receivers are served by one broadcast (or a plain send
    when there is a single receiver) rooted at the closest holder.
    """
    task = ReshardingTask(
        shape, mesh, src_spec, mesh, dst_spec, dtype=dtype, require_disjoint=False
    )
    plan = CommPlan(task=task, strategy="intra_mesh")
    cluster = mesh.cluster
    def emit(ut, sender: int, receivers: tuple[int, ...]) -> None:
        if len(receivers) == 1:
            plan.add(
                SendOp(
                    op_id=plan.next_op_id,
                    unit_task_id=ut.task_id,
                    region=ut.region,
                    nbytes=ut.nbytes,
                    sender=sender,
                    receiver=receivers[0],
                )
            )
        else:
            plan.add(
                BroadcastOp(
                    op_id=plan.next_op_id,
                    unit_task_id=ut.task_id,
                    region=ut.region,
                    nbytes=ut.nbytes,
                    sender=sender,
                    receivers=receivers,
                    n_chunks=adaptive_chunks(ut.nbytes),
                )
            )

    for ut in task.unit_tasks("intersection"):
        receivers = tuple(d for d in ut.receivers if not task.holds(d, ut.region))
        if not receivers:
            continue  # every consumer already holds the region locally
        # Hosts that hold a replica serve their own receivers over NVLink;
        # the rest share one broadcast from a single chosen holder.
        senders_by_host: dict[int, list[int]] = {}
        for s in ut.senders:
            senders_by_host.setdefault(cluster.host_of(s), []).append(s)
        remote: list[int] = []
        for h in sorted({cluster.host_of(d) for d in receivers}):
            local_recv = tuple(d for d in receivers if cluster.host_of(d) == h)
            if h in senders_by_host:
                emit(ut, min(senders_by_host[h]), local_recv)
            else:
                remote.extend(local_recv)
        if remote:
            sender = min(ut.senders, key=lambda s: (cluster.host_of(s), s))
            emit(ut, sender, tuple(remote))
    return plan


@dataclass
class IntraReshardResult:
    """Outcome of one intra-mesh layout conversion."""

    task: ReshardingTask
    plan: CommPlan
    timing: TimingResult
    dst_tensor: Optional[DistributedTensor] = None

    @property
    def latency(self) -> float:
        return self.timing.total_time

    @property
    def is_free(self) -> bool:
        """True when the conversion needed no communication at all."""
        return not self.plan.ops


def intra_mesh_reshard(
    tensor_or_shape: Union[np.ndarray, tuple],
    mesh: DeviceMesh,
    src_spec,
    dst_spec,
    dtype=np.float32,
) -> IntraReshardResult:
    """Convert a tensor's layout on one mesh; time it and optionally
    move real data (when given an array)."""
    array, shape, dtype = array_or_shape(tensor_or_shape, dtype)
    plan = plan_intra_mesh(shape, mesh, src_spec, dst_spec, dtype=dtype)
    timing = simulate_plan(plan)
    dst_tensor = None
    if array is not None:
        src_tensor = DistributedTensor.view_global(mesh, plan.task.src_spec, array)
        dst_tensor = apply_plan(plan, src_tensor)
    return IntraReshardResult(
        task=plan.task, plan=plan, timing=timing, dst_tensor=dst_tensor
    )
