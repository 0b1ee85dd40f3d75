"""All-gather based strategy — the "Alpa" baseline (paper §5.1).

For each unit task, the chosen sender splits the data slice into as many
flat parts as there are receivers, scatters one part to each receiver,
and the receivers run a ring all-gather among themselves to reconstruct
the slice.  When all receivers share one host, the all-gather runs
entirely over NVLink ("send/recv with local allgather", latency ``A*t``
per §3.1); when they span hosts, the all-gather itself crosses the slow
links ("global allgather", latency ``~2t``).

Two deliberate infidelities of the real system are reproduced:

* **Uneven partitions** are unsupported: when the slice's element count
  does not divide by the receiver count, the unit task degrades to plain
  per-receiver sends of the full slice — the sudden performance drops at
  3 GPUs / 3 nodes in Fig. 5.
* **Execution order**: Alpa emits resharding ops into each mesh's SPMD
  program, so transfers run in program order per host rather than in a
  congestion-aware order; with forced senders "two sender nodes always
  communicate with the same receiver, making one of them idle" (§5.1.2).
  We model this by gating unit tasks on a greedy load-balance-only
  schedule (the paper's baseline scheduler) instead of the full
  search-based one.
"""

from __future__ import annotations

from ..core.plan import AllGatherOp, CommPlan, ScatterOp, SendOp
from ..core.slices import region_size
from ..core.task import ReshardingTask
from ..scheduling import SCHEDULERS
from ..sim.primitives import ring_order
from .base import CommStrategy

__all__ = ["AllGatherStrategy"]


class AllGatherStrategy(CommStrategy):
    name = "allgather"

    gate_on_schedule = True
    scheduler_name = "load_balance"

    def scheduler_fn(self):
        return SCHEDULERS[self.scheduler_name]

    def cache_key(self) -> tuple:
        return (self.name, self.granularity, self.scheduler_name, self.gate_on_schedule)

    def emit(self, task: ReshardingTask, plan: CommPlan, schedule, load) -> None:
        for ut in task.unit_tasks(self.granularity):
            if not ut.receivers:
                continue
            host = schedule.assignment[ut.task_id]
            n_recv = len(ut.receivers)
            if n_recv == 1:
                sender = load.pick_on_host(ut.senders, host, ut.nbytes)
                plan.add(
                    SendOp(
                        op_id=plan.next_op_id,
                        unit_task_id=ut.task_id,
                        region=ut.region,
                        nbytes=ut.nbytes,
                        sender=sender,
                        receiver=ut.receivers[0],
                    )
                )
                continue
            if region_size(ut.region) % n_recv != 0:
                # Uneven partition: Alpa falls back to full-slice sends.
                for receiver in ut.receivers:
                    sender = load.pick(ut.senders, ut.nbytes)
                    plan.add(
                        SendOp(
                            op_id=plan.next_op_id,
                            unit_task_id=ut.task_id,
                            region=ut.region,
                            nbytes=ut.nbytes,
                            sender=sender,
                            receiver=receiver,
                        )
                    )
                continue
            sender = load.pick_on_host(ut.senders, host, ut.nbytes)
            group = tuple(ring_order(task.cluster, sender, ut.receivers))
            sc = plan.add(
                ScatterOp(
                    op_id=plan.next_op_id,
                    unit_task_id=ut.task_id,
                    region=ut.region,
                    nbytes=ut.nbytes,
                    sender=sender,
                    receivers=group,
                )
            )
            plan.add(
                AllGatherOp(
                    op_id=plan.next_op_id,
                    unit_task_id=ut.task_id,
                    region=ut.region,
                    nbytes=ut.nbytes,
                    deps=(sc.op_id,),
                    devices=group,
                )
            )
