"""Pipeline-parallel job description: stages and cross-mesh comm edges.

A pipeline job is a DAG of stages.  Each stage has per-micro-batch
compute costs (forward, backward split into the activation-gradient part
``Bx`` and the weight-gradient part ``Bw`` — the split behind *backward
weight delaying*, §4) and memory footprints.  A :class:`CommEdge` is one
cross-mesh resharding dependency between two stages: sequential
activations, or a U-Net long skip connection.  Edge durations are
resolved outside (by simulating the boundary resharding task under a
chosen strategy) so the pipeline executor stays strategy-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import checks

__all__ = ["StageProfile", "CommEdge", "PipelineJob"]


@dataclass(frozen=True)
class StageProfile:
    """Per-micro-batch costs of one pipeline stage."""

    stage_id: int
    fwd_time: float
    bwd_x_time: float
    bwd_w_time: float
    #: bytes of weights + optimizer state resident on the stage's mesh
    params_bytes: float = 0.0
    #: activation bytes stored per in-flight micro-batch (per mesh)
    activation_bytes: float = 0.0
    #: memory budget of the stage's mesh in bytes (0 = unbounded); the
    #: static analyzer flags schedules whose in-flight activations
    #: cannot fit (diagnostic S001)
    memory_capacity: float = 0.0

    def __post_init__(self) -> None:
        checks.integer("stage_id", self.stage_id, 0)
        checks.real("fwd_time", self.fwd_time, "[0, inf)")
        checks.real("bwd_x_time", self.bwd_x_time, "[0, inf)")
        checks.real("bwd_w_time", self.bwd_w_time, "[0, inf)")
        checks.real("params_bytes", self.params_bytes, "[0, inf)")
        checks.real("activation_bytes", self.activation_bytes, "[0, inf)")
        checks.real("memory_capacity", self.memory_capacity, "[0, inf)")


@dataclass(frozen=True)
class CommEdge:
    """One cross-mesh tensor dependency between two stages.

    ``fwd_time`` is the resharding latency of the forward activation per
    micro-batch; ``bwd_time`` of its gradient on the backward pass.
    Every micro-batch repeats the same boundary resharding, so these two
    numbers price every message the executor sends along the edge.
    """

    src_stage: int
    dst_stage: int
    fwd_time: float
    bwd_time: float
    fwd_bytes: float = 0.0
    bwd_bytes: float = 0.0
    label: str = ""

    def __post_init__(self) -> None:
        checks.integer("src_stage", self.src_stage, 0)
        checks.integer("dst_stage", self.dst_stage, 0)
        if self.src_stage == self.dst_stage:
            raise ValueError(
                f"comm edge must cross stages, got src_stage == dst_stage == {self.src_stage}"
            )
        if self.src_stage > self.dst_stage:
            raise ValueError(
                "edges are directed along the forward pass (src_stage < dst_stage); "
                "the backward transfer is implied"
            )
        checks.real("fwd_time", self.fwd_time, "[0, inf)")
        checks.real("bwd_time", self.bwd_time, "[0, inf)")
        checks.real("fwd_bytes", self.fwd_bytes, "[0, inf)")
        checks.real("bwd_bytes", self.bwd_bytes, "[0, inf)")


@dataclass
class PipelineJob:
    """A pipeline-parallel training job to be scheduled and simulated."""

    stages: list[StageProfile]
    edges: list[CommEdge] = field(default_factory=list)
    n_microbatches: int = 1

    def __post_init__(self) -> None:
        ids = [s.stage_id for s in self.stages]
        if ids != list(range(len(self.stages))):
            raise ValueError(f"stage ids must be 0..{len(self.stages) - 1}, got {ids}")
        checks.integer("n_microbatches", self.n_microbatches, 1)
        for e in self.edges:
            if not (0 <= e.src_stage < len(self.stages)):
                raise ValueError(f"edge references unknown stage {e.src_stage}")
            if not (0 <= e.dst_stage < len(self.stages)):
                raise ValueError(f"edge references unknown stage {e.dst_stage}")

    @property
    def n_stages(self) -> int:
        return len(self.stages)
