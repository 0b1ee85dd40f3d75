"""Top-level convenience API for cross-mesh resharding.

Typical use::

    from repro import ClusterSpec, Cluster, DeviceMesh, reshard

    cluster = Cluster(ClusterSpec(n_hosts=4, devices_per_host=4))
    src = DeviceMesh.from_hosts(cluster, [0, 1])
    dst = DeviceMesh.from_hosts(cluster, [2, 3])
    result = reshard(
        np.arange(2 ** 20, dtype=np.float32).reshape(1024, 1024),
        src, "S0R", dst, "RS1", strategy="broadcast",
    )
    print(result.latency, result.dst_tensor)
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..strategies import CommStrategy
from .data import apply_plan
from .executor import TimingResult
from .mesh import DeviceMesh
from .plan import CommPlan
from .task import ReshardingTask
from .tensor import DistributedTensor, array_or_shape

__all__ = ["ReshardResult", "reshard"]


@dataclass
class ReshardResult:
    """Everything produced by one resharding run."""

    task: ReshardingTask
    plan: CommPlan
    timing: TimingResult
    dst_tensor: Optional[DistributedTensor] = None

    @property
    def latency(self) -> float:
        """Simulated completion time of the resharding (seconds)."""
        return self.timing.total_time

    @property
    def cross_host_bytes(self) -> float:
        return self.timing.bytes_cross_host


def reshard(
    tensor_or_shape,
    src_mesh: DeviceMesh,
    src_spec,
    dst_mesh: DeviceMesh,
    dst_spec,
    strategy: Union[str, CommStrategy] = "broadcast",
    dtype=np.float32,
    move_data: Optional[bool] = None,
    **strategy_kwargs,
) -> ReshardResult:
    """Plan, simulate, and (optionally) execute one cross-mesh resharding.

    ``tensor_or_shape`` may be a NumPy array — then the data plane runs
    and ``dst_tensor`` holds the destination layout — or a plain shape
    tuple for timing-only studies.  ``move_data`` forces/disables the
    data plane (defaults to "move when given an array and the strategy
    carries data").

    Compiles through the staged plan compiler and the process-wide
    content-addressed plan cache: repeating a resharding with identical
    content (specs, meshes, topology, strategy) reuses the compiled plan
    *and* its memoized timing.  Pass ``cache=None`` to compile fresh, or
    another :class:`~repro.compiler.PlanCache`.

    ``deadline`` bounds the compile in deterministic budget seconds
    (:mod:`repro.compiler.budget`); exceeding it raises
    :class:`~repro.compiler.CompileTimeout` identically on every
    machine.
    """
    from ..compiler.pipeline import USE_DEFAULT_CACHE, CompileContext, compile_resharding

    cache = strategy_kwargs.pop("cache", USE_DEFAULT_CACHE)
    deadline = strategy_kwargs.pop("deadline", None)
    array, shape, dtype = array_or_shape(tensor_or_shape, dtype)
    task = ReshardingTask(shape, src_mesh, src_spec, dst_mesh, dst_spec, dtype=dtype)
    ctx = CompileContext(
        strategy=strategy, strategy_kwargs=strategy_kwargs, cache=cache,
        deadline=deadline,
    )
    compiled = compile_resharding(task, ctx)
    plan = compiled.plan
    if plan.task is not task:
        # A cache hit compiled for a content-equal task on another
        # Cluster object: rebind it so the data plane moves the caller's
        # tensor between the caller's meshes.
        plan = dataclasses.replace(plan, task=task)
    timing = compiled.ensure_timing()

    dst_tensor = None
    do_move = (
        move_data
        if move_data is not None
        else (array is not None and plan.data_complete)
    )
    if do_move:
        if array is None:
            raise ValueError("move_data=True requires an actual array")
        src_tensor = DistributedTensor.view_global(src_mesh, plan.task.src_spec, array)
        dst_tensor = apply_plan(plan, src_tensor)
    return ReshardResult(task=plan.task, plan=plan, timing=timing, dst_tensor=dst_tensor)
