"""Switch-multicast resharding — replicate in the fabric, not the ring.

The ring broadcast (:mod:`repro.strategies.broadcast`) drags every chunk
across ``A`` host boundaries, so on an oversubscribed fat-tree each
chunk pays the contended uplink once per receiving host.  Switch
multicast sends each chunk *upstream once* — root device -> root NIC ->
the nearest switch spanning every endpoint — and the switch replicates
it down all receiving hosts' paths concurrently ("Exploiting Multicast
for Accelerating Collective Communication" is the hardware analogue).

Emission picks, per unit task, the most specific topology switch
spanning the (scheduled) sender host and every receiver host and emits
a :class:`~repro.core.plan.MulticastOp` claiming it; the claim is
statically checkable (analyzer codes T001/T002) and honestly priced by
the flow simulator, which contends the tree's up and down links in the
same max-min fixpoint as everything else.  Unit tasks no switch spans
fall back to a ring broadcast op — the plan stays correct on partially
multicast-capable fabrics.

The strategy only *competes* where it can run at all:
:meth:`MulticastStrategy.supports` is False on switchless topologies
(e.g. a torus), which makes :class:`~repro.compiler.passes.SelectPass`
skip it instead of scoring an impossible plan.

Scheduling, fault re-rooting, and gating reuse the broadcast machinery
unchanged — a multicast is a broadcast with a smarter data path, so the
paper's Eq. 3 ordering model applies as-is.
"""

from __future__ import annotations

from ..core.plan import CommOp, MulticastOp
from ..core.task import ReshardingTask
from .broadcast import BroadcastStrategy

__all__ = ["MulticastStrategy"]


class MulticastStrategy(BroadcastStrategy):
    name = "multicast"

    def __init__(self) -> None:
        """No options: broadcast's default scheduler, chunking and gating."""
        super().__init__()

    def supports(self, task: ReshardingTask) -> bool:
        """Multicast needs a fabric with at least one switch to claim."""
        return bool(task.cluster.topo.has_switches)

    def op(self, task: ReshardingTask, ut, host: int, sender: int,
           n_chunks: int, op_id: int) -> CommOp:
        sw = task.cluster.topo.common_switch(host, task.cluster.hosts_of(ut.receivers))
        if sw is None:
            # No switch spans this unit task (e.g. cross-rail fan-out):
            # ring broadcast keeps the plan complete.
            return super().op(task, ut, host, sender, n_chunks, op_id)
        return MulticastOp(
            op_id=op_id,
            unit_task_id=ut.task_id,
            region=ut.region,
            nbytes=ut.nbytes,
            sender=sender,
            receivers=ut.receivers,
            switch=sw.name,
            n_chunks=n_chunks,
        )
