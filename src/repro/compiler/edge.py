"""Compiled resharding attached to one pipeline stage edge.

:func:`repro.models.parallel.resolve_comm_edges` compiles each stage
boundary's forward/backward resharding through the plan compiler and
hangs an :class:`EdgeResharding` on the :class:`~repro.pipeline.stage
.CommEdge`.  The pipeline executor then prices every cross-stage message
via :meth:`EdgeResharding.time`.  Every micro-batch reshards the same
tensor with the same layouts, so each direction resolves its plan through
:func:`compile_resharding` once per cache epoch — one plan-cache request
per edge direction, not per message — and the pipeline's comm latencies
are, by construction, ``simulate_plan`` latencies of the compiled plans
(one shared timing path).
"""

from __future__ import annotations

from typing import Optional

from ..core.plan import CommPlan
from ..core.task import ReshardingTask
from .cache import PlanCache
from .pipeline import CompileContext, CompiledPlan, compile_resharding

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
    """Both directions of one cross-mesh stage edge, compiled on demand.

    Each direction's :class:`CompiledPlan` is resolved through
    :func:`compile_resharding` and memoized together with the plan cache
    it came from (compared by identity) and that cache's epoch.  The memo
    is served while both still match, so :meth:`PlanCache.invalidate` and
    :func:`~repro.compiler.cache.reset_default_plan_cache` force the next
    call to resolve again — for cacheable and uncacheable strategies
    alike.  The context's other fields are read as fixed once the edge is
    built; ``validate`` is checked on every call, so a ``validate=True``
    context never receives an unvalidated plan.
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
        #: direction -> (plan, the cache it was resolved against, its epoch)
        self._memo: dict[
            str, tuple[CompiledPlan, Optional[PlanCache], Optional[int]]
        ] = {}

    def task(self, direction: str) -> ReshardingTask:
        if direction == "fwd":
            return self.fwd_task
        if direction == "bwd":
            return self.bwd_task
        raise ValueError(f"direction must be 'fwd' or 'bwd', got {direction!r}")

    def compiled(self, direction: str) -> CompiledPlan:
        cache = self.ctx.resolved_cache()
        epoch = None if cache is None else cache.epoch
        memo = self._memo.get(direction)
        if memo is not None and memo[1] is cache and memo[2] == epoch:
            found = memo[0]
            if self.ctx.validate:
                found.ensure_validated()
            return found
        found = compile_resharding(self.task(direction), self.ctx)
        self._memo[direction] = (found, cache, epoch)
        return found

    def plan(self, direction: str) -> CommPlan:
        return self.compiled(direction).plan

    def time(self, direction: str) -> float:
        """Simulated resharding latency of one message in ``direction``."""
        return self.compiled(direction).total_time

    def __repr__(self) -> str:
        return (
            f"EdgeResharding(shape={self.fwd_task.shape}, "
            f"{self.fwd_task.src_spec}->{self.fwd_task.dst_spec})"
        )
