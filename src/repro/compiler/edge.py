"""The compiled resharding behind one pipeline stage edge.

:func:`repro.models.parallel.resolve_comm_edges` builds an
:class:`EdgeResharding` per stage boundary and reads each direction's
latency once, as :meth:`EdgeResharding.time`, into the plain
``fwd_time``/``bwd_time`` of a :class:`~repro.pipeline.stage.CommEdge`.
Every micro-batch reshards the same tensor with the same layouts, so
the pipeline executor prices every message of a direction with that one
number: the ``simulate_plan`` latency of the direction's compiled plan
(one shared timing path).
"""

from __future__ import annotations

from typing import Optional

from ..core.task import ReshardingTask
from .pipeline import CompileContext, compile_resharding

__all__ = ["EdgeResharding"]


def _check_routable(task: ReshardingTask) -> None:
    """Fail fast when the edge crosses hosts the topology cannot connect.

    The compile-time mirror of the analyzer's T003: partial topologies
    (a custom zoo entry, a partitioned fabric) should reject the stage
    edge here, with the offending host pair named, rather than surface
    as a wedged flow deep inside the simulator.
    """
    cluster = task.src_mesh.cluster
    topo = cluster.topo
    src_hosts = sorted(set(cluster.hosts_of(task.src_mesh.devices)))
    dst_hosts = sorted(set(cluster.hosts_of(task.dst_mesh.devices)))
    for sh in src_hosts:
        for dh in dst_hosts:
            if sh != dh and not topo.has_route(sh, dh):
                raise ValueError(
                    f"stage edge needs host {sh} -> host {dh} but topology "
                    f"{topo.topology.name!r} defines no route between them"
                )


class EdgeResharding:
    """Both directions of one cross-mesh stage edge.

    Construction checks that the topology routes every host pair the
    edge crosses.  :meth:`time` compiles the direction's task through
    :func:`compile_resharding` under the edge's context on every call;
    the context's plan cache, not the edge, decides whether that is a
    hit, and a ``validate=True`` context never receives an unvalidated
    plan.
    """

    def __init__(
        self,
        fwd_task: ReshardingTask,
        bwd_task: ReshardingTask,
        ctx: Optional[CompileContext] = None,
    ) -> None:
        _check_routable(fwd_task)
        self.fwd_task = fwd_task
        self.bwd_task = bwd_task
        self.ctx = ctx if ctx is not None else CompileContext()

    def task(self, direction: str) -> ReshardingTask:
        if direction == "fwd":
            return self.fwd_task
        if direction == "bwd":
            return self.bwd_task
        raise ValueError(f"direction must be 'fwd' or 'bwd', got {direction!r}")

    def time(self, direction: str) -> float:
        """Simulated resharding latency of one message in ``direction``."""
        return compile_resharding(self.task(direction), self.ctx).total_time

    def __repr__(self) -> str:
        return (
            f"EdgeResharding(shape={self.fwd_task.shape}, "
            f"{self.fwd_task.src_spec}->{self.fwd_task.dst_spec})"
        )
