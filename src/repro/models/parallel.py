"""Glue between model cost models, the resharding library, and the
pipeline executor: build a pipeline job whose cross-mesh communication
times come from simulating the actual boundary resharding tasks under a
chosen strategy, then run one training iteration under a chosen
schedule.

The ``METHODS`` table defines the named systems compared in the paper's
end-to-end evaluation (Fig. 7) and overlap ablation (Fig. 9):

=============  ==========  ===========  =======  ============
method         strategy    schedule     overlap  bwd-w delay
=============  ==========  ===========  =======  ============
send_recv      send_recv   1F1B         no       no
alpa           allgather   1F1B         no       no
broadcast      broadcast   1F1B         no       no
overlap        broadcast   1F1B         yes      no
ours           broadcast   eager-1F1B   yes      no
ours_delay     broadcast   eager-1F1B   yes      yes
signal         signal      1F1B         yes      no
=============  ==========  ===========  =======  ============
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..compiler import USE_DEFAULT_CACHE, CompileContext, EdgeResharding
from ..core.mesh import DeviceMesh
from ..core.task import ReshardingTask
from ..pipeline.executor import PipelineResult, simulate_pipeline
from ..pipeline.schedules import schedule_job
from ..pipeline.stage import CommEdge, PipelineJob, StageProfile
from ..sim.cluster import Cluster
from ..strategies import make_strategy

__all__ = [
    "Boundary",
    "ParallelJobSpec",
    "MethodSpec",
    "METHODS",
    "boundary_tasks",
    "resolve_comm_edges",
    "run_iteration",
    "E2EResult",
]


@dataclass(frozen=True)
class Boundary:
    """One tensor crossing between two pipeline stages, per micro-batch."""

    label: str
    src_stage: int
    dst_stage: int
    shape: tuple[int, ...]
    src_spec: str
    dst_spec: str
    dtype: str = "fp32"  # "fp16" | "fp32"

    def nbytes(self) -> float:
        n = 1
        for s in self.shape:
            n *= s
        return n * (2 if self.dtype == "fp16" else 4)


@dataclass
class ParallelJobSpec:
    """A model-parallel training job before communication resolution."""

    name: str
    cluster: Cluster
    stage_meshes: list[DeviceMesh]
    profiles: list[StageProfile]
    boundaries: list[Boundary]
    n_microbatches: int
    model_flops_per_iteration: float
    #: per-iteration epilogue outside the pipeline (dp gradient sync)
    epilogue_time: float = 0.0
    notes: str = ""

    @property
    def n_devices(self) -> int:
        return sum(m.n_devices for m in self.stage_meshes)


@dataclass(frozen=True)
class MethodSpec:
    """One named end-to-end system configuration."""

    strategy: str
    schedule: str
    overlap: bool
    delay_bw_weight: bool


METHODS: dict[str, MethodSpec] = {
    "send_recv": MethodSpec("send_recv", "1f1b", overlap=False, delay_bw_weight=False),
    "alpa": MethodSpec("allgather", "1f1b", overlap=False, delay_bw_weight=False),
    "broadcast": MethodSpec("broadcast", "1f1b", overlap=False, delay_bw_weight=False),
    "overlap": MethodSpec("broadcast", "1f1b", overlap=True, delay_bw_weight=False),
    "ours": MethodSpec("broadcast", "eager_1f1b", overlap=True, delay_bw_weight=False),
    "ours_delay": MethodSpec(
        "broadcast", "eager_1f1b", overlap=True, delay_bw_weight=True
    ),
    "signal": MethodSpec("signal", "1f1b", overlap=True, delay_bw_weight=False),
}


def boundary_tasks(spec: ParallelJobSpec):
    """Yield ``(boundary, fwd_task, bwd_task)`` per stage boundary: its
    activation resharding and the reverse one its gradient takes."""
    for b in spec.boundaries:
        src_mesh = spec.stage_meshes[b.src_stage]
        dst_mesh = spec.stage_meshes[b.dst_stage]
        dtype = np.float16 if b.dtype == "fp16" else np.float32
        fwd = ReshardingTask(b.shape, src_mesh, b.src_spec, dst_mesh, b.dst_spec, dtype=dtype)
        bwd = ReshardingTask(b.shape, dst_mesh, b.dst_spec, src_mesh, b.src_spec, dtype=dtype)
        yield b, fwd, bwd


def resolve_comm_edges(
    spec: ParallelJobSpec,
    strategy_name: str,
    cache: Any = USE_DEFAULT_CACHE,
) -> list[CommEdge]:
    """One :class:`CommEdge` per boundary, timed by its compiled plans.

    Every micro-batch reshards the same tensor with the same layout, so
    each direction is compiled once here, through an
    :class:`~repro.compiler.EdgeResharding` (which also checks the
    topology routes the edge), and its ``simulate_plan`` latency becomes
    the edge's ``fwd_time``/``bwd_time``: the one number the pipeline
    executor prices every message of that direction with.
    ``cache=None`` compiles each edge direction once, uncached — tests
    use it to prove the cache changes compile counts, never results.
    """
    ctx = CompileContext(strategy=make_strategy(strategy_name), cache=cache)
    edges: list[CommEdge] = []
    for b, fwd_task, bwd_task in boundary_tasks(spec):
        resharding = EdgeResharding(fwd_task, bwd_task, ctx)
        edges.append(
            CommEdge(
                src_stage=b.src_stage,
                dst_stage=b.dst_stage,
                fwd_time=resharding.time("fwd"),
                bwd_time=resharding.time("bwd"),
                fwd_bytes=b.nbytes(),
                bwd_bytes=b.nbytes(),
                label=b.label,
            )
        )
    return edges


@dataclass
class E2EResult:
    """One end-to-end training-iteration measurement."""

    method: str
    iteration_time: float
    throughput_tflops: float
    pipeline: PipelineResult = field(repr=False)
    comm_edges: list[CommEdge] = field(repr=False, default_factory=list)


def run_iteration(
    spec: ParallelJobSpec,
    method: str,
    cache: Any = USE_DEFAULT_CACHE,
) -> E2EResult:
    """Simulate one training iteration of ``spec`` under a named method."""
    ms = METHODS[method]
    edges = resolve_comm_edges(spec, ms.strategy, cache=cache)
    job = PipelineJob(
        stages=spec.profiles, edges=edges, n_microbatches=spec.n_microbatches
    )
    orders = schedule_job(
        ms.schedule,
        n_stages=len(spec.profiles),
        n_microbatches=spec.n_microbatches,
        delay_bw_weight=ms.delay_bw_weight,
    )
    result = simulate_pipeline(job, orders, overlap=ms.overlap)
    iter_time = result.iteration_time + spec.epilogue_time
    tflops = spec.model_flops_per_iteration / iter_time / spec.n_devices / 1e12
    return E2EResult(
        method=method,
        iteration_time=iter_time,
        throughput_tflops=tflops,
        pipeline=result,
        comm_edges=edges,
    )
