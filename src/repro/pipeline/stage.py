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

import math
from dataclasses import dataclass, field

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
        times = (self.fwd_time, self.bwd_x_time, self.bwd_w_time)
        if not all(math.isfinite(t) for t in times):
            raise ValueError(f"stage times must be finite, got {times}")
        if min(times) < 0:
            raise ValueError("stage times must be non-negative")
        if self.memory_capacity < 0:
            raise ValueError("memory capacity must be non-negative")

    @property
    def bwd_time(self) -> float:
        return self.bwd_x_time + self.bwd_w_time


@dataclass(frozen=True)
class CommEdge:
    """One cross-mesh tensor dependency between two stages.

    ``fwd_time`` is the resharding latency of the forward activation per
    micro-batch; ``bwd_time`` of its gradient on the backward pass.

    ``resharding`` optionally carries the compiled resharding behind the
    edge (an :class:`~repro.compiler.EdgeResharding`, duck-typed to keep
    this module compiler-agnostic).  When present, :meth:`comm_time`
    prices each message by executing the cached compiled plan through
    ``simulate_plan`` — the one shared timing path; when absent the
    pre-resolved ``fwd_time``/``bwd_time`` scalars are used.
    """

    src_stage: int
    dst_stage: int
    fwd_time: float
    bwd_time: float
    fwd_bytes: float = 0.0
    bwd_bytes: float = 0.0
    label: str = ""
    #: compiled resharding behind this edge (None = scalar times only)
    resharding: object = field(default=None, compare=False, repr=False)

    def comm_time(self, direction: str) -> float:
        """Per-micro-batch transfer duration in ``direction``."""
        if self.resharding is not None:
            return self.resharding.time(direction)
        if direction == "fwd":
            return self.fwd_time
        if direction == "bwd":
            return self.bwd_time
        raise ValueError(f"direction must be 'fwd' or 'bwd', got {direction!r}")

    def __post_init__(self) -> None:
        if self.src_stage == self.dst_stage:
            raise ValueError("comm edge must cross stages")
        if self.src_stage > self.dst_stage:
            raise ValueError(
                "edges are directed along the forward pass (src < dst); "
                "the backward transfer is implied"
            )
        if not (math.isfinite(self.fwd_time) and math.isfinite(self.bwd_time)):
            raise ValueError(
                f"edge times must be finite, got {(self.fwd_time, self.bwd_time)}"
            )
        if self.fwd_time < 0 or self.bwd_time < 0:
            raise ValueError("edge times must be non-negative")


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
        if self.n_microbatches < 1:
            raise ValueError("need at least one micro-batch")
        for e in self.edges:
            if not (0 <= e.src_stage < len(self.stages)):
                raise ValueError(f"edge references unknown stage {e.src_stage}")
            if not (0 <= e.dst_stage < len(self.stages)):
                raise ValueError(f"edge references unknown stage {e.dst_stage}")

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    def in_edges(self, stage: int) -> list[CommEdge]:
        """Edges feeding the forward pass of ``stage``."""
        return [e for e in self.edges if e.dst_stage == stage]

    def out_edges(self, stage: int) -> list[CommEdge]:
        return [e for e in self.edges if e.src_stage == stage]

    def total_compute_time(self) -> float:
        """Lower bound: serial compute of one full iteration, all stages."""
        return self.n_microbatches * max(
            (s.fwd_time + s.bwd_time for s in self.stages), default=0.0
        )
