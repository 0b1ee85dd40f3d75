"""Interleaved 1F1B with virtual pipeline stages (Megatron-style).

An extension beyond the paper: each physical stage (device) hosts ``v``
model *chunks* (virtual stages); chunk ``c`` of ``V = p*v`` lives on
device ``c mod p``.  Interleaving shrinks the pipeline bubble from
``(p-1)/m`` to ``(p-1)/(m*v)`` at the price of ``v`` times as many
cross-mesh transfers — which makes it an interesting stress test for
the paper's communication optimizations: the more chunk boundaries, the
more there is for broadcast + overlap to hide.

The schedule follows Megatron-LM's interleaved 1F1B: warm-up depth
``(p - rank - 1) * 2 + (v - 1) * p`` forward steps, then one-forward-
one-backward, with micro-batches processed in groups of ``p``.

There is no separate executor: :meth:`InterleavedJob.pipeline_job`
turns the job into a :class:`~repro.pipeline.stage.PipelineJob` whose
stages are the ``V`` chunks (edges ``c -> c+1``), and
:func:`interleaved_order` gives each device its task list with every
task naming its chunk, so :func:`~repro.pipeline.executor.simulate_pipeline`
runs it like any other schedule.  Communication is always overlapped
(the executor rejects blocking mode for multi-chunk placements) —
interleaving exists to create overlap opportunities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .schedules import Task
from .stage import CommEdge, PipelineJob, StageProfile

__all__ = ["InterleavedJob", "interleaved_order"]


@dataclass(frozen=True)
class InterleavedJob:
    """A homogeneous interleaved pipeline job.

    Per-chunk compute costs and a uniform boundary transfer cost (the
    homogeneous-transformer case; chunk boundaries all carry the same
    activation tensor).
    """

    n_stages: int
    n_virtual: int
    n_microbatches: int
    fwd_time: float  # per chunk per micro-batch
    bwd_time: float
    comm_fwd: float  # per chunk-boundary transfer
    comm_bwd: float
    activation_bytes: float = 0.0

    def __post_init__(self) -> None:
        if self.n_stages < 1 or self.n_virtual < 1:
            raise ValueError("need at least one stage and one chunk")
        if self.n_microbatches < 1:
            raise ValueError("need at least one micro-batch")
        if self.n_microbatches % self.n_stages != 0:
            raise ValueError(
                "interleaved 1F1B needs micro-batches divisible by the "
                f"number of stages ({self.n_microbatches} % {self.n_stages})"
            )
        times = (self.fwd_time, self.bwd_time, self.comm_fwd, self.comm_bwd)
        if not all(math.isfinite(t) for t in times):
            raise ValueError(f"times must be finite, got {times}")
        if min(times) < 0:
            raise ValueError("times must be non-negative")

    @property
    def n_chunks(self) -> int:
        return self.n_stages * self.n_virtual

    def stage_of(self, chunk: int) -> int:
        return chunk % self.n_stages

    def pipeline_job(self) -> PipelineJob:
        """The job as ``V`` chunk stages chained by ``c -> c+1`` edges."""
        stages = [
            StageProfile(c, self.fwd_time, self.bwd_time, 0.0,
                         activation_bytes=self.activation_bytes)
            for c in range(self.n_chunks)
        ]
        edges = [
            CommEdge(c, c + 1, self.comm_fwd, self.comm_bwd, label=f"c{c}->c{c + 1}")
            for c in range(self.n_chunks - 1)
        ]
        return PipelineJob(stages, edges, self.n_microbatches)

    def orders(self) -> list[list[Task]]:
        """Every device's task list, for ``simulate_pipeline``."""
        return [interleaved_order(self, rank) for rank in range(self.n_stages)]


def interleaved_order(job: InterleavedJob, rank: int) -> list[Task]:
    """Megatron's interleaved 1F1B step order for one physical stage."""
    p, v, m = job.n_stages, job.n_virtual, job.n_microbatches
    if not 0 <= rank < p:
        raise ValueError(f"rank {rank} outside [0, {p})")
    total = m * v

    def f_task(step: int) -> Task:
        chunk_local = (step // p) % v
        mb = (step // (p * v)) * p + step % p
        return Task("F", mb, chunk_local * p + rank)

    def b_task(step: int) -> Task:
        chunk_local = v - 1 - ((step // p) % v)
        mb = (step // (p * v)) * p + step % p
        return Task("B", mb, chunk_local * p + rank)

    warmup = min(total, (p - rank - 1) * 2 + (v - 1) * p)
    order: list[Task] = [f_task(s) for s in range(warmup)]
    fstep, bstep = warmup, 0
    while fstep < total:
        order.append(f_task(fstep))
        fstep += 1
        order.append(b_task(bstep))
        bstep += 1
    while bstep < total:
        order.append(b_task(bstep))
        bstep += 1
    return order
