"""S3 — interleaved 1F1B with virtual pipeline stages (extension).

Sweeps the virtual-stage count ``v`` under increasing communication
cost.  Interleaving shrinks the pipeline bubble but multiplies the
number of cross-mesh transfers by ``v`` — exactly the regime where the
paper's overlap machinery earns its keep.
"""

from __future__ import annotations

from ..pipeline.executor import simulate_pipeline
from ..pipeline.interleaved import InterleavedJob
from .common import ExperimentTable

__all__ = ["run"]

#: total per-stage work per micro-batch, split across chunks
FWD_TOTAL = 0.05
P = 4
M = 16


def run() -> ExperimentTable:
    table = ExperimentTable(
        experiment_id="S3 (extension)",
        title="Interleaved 1F1B: virtual stages vs communication cost (4 stages, 16 micro-batches)",
        columns=[
            "virtual stages",
            "comm/compute",
            "iteration (s)",
            "bubble",
            "peak act stage0",
        ],
        notes=(
            "Total compute per stage is fixed; v chunks mean v times as "
            "many (v times smaller) boundary transfers.  Overlap keeps "
            "the extra transfers off the critical path, so deeper "
            "interleaving still wins under communication."
        ),
    )
    for comm_ratio in (0.0, 0.25, 0.5):
        for v in (1, 2, 4):
            job = InterleavedJob(
                n_stages=P,
                n_virtual=v,
                n_microbatches=M,
                fwd_time=FWD_TOTAL / v,
                bwd_time=2 * FWD_TOTAL / v,
                comm_fwd=comm_ratio * FWD_TOTAL / v,
                comm_bwd=comm_ratio * FWD_TOTAL / v,
            )
            r = simulate_pipeline(job.pipeline_job(), job.orders())
            table.add(
                **{
                    "virtual stages": v,
                    "comm/compute": comm_ratio,
                    "iteration (s)": r.iteration_time,
                    # idle fraction of the busiest device
                    "bubble": 1.0 - max(r.stage_busy_time.values()) / r.iteration_time,
                    "peak act stage0": r.peak_activation_counts[0],
                }
            )
    return table
