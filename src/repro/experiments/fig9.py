"""E6 — Figure 9: ablation of the overlap-friendly schedule.

U-Transformer under two global batch sizes (same micro-batch size), with
three systems: "Broadcast" (broadcast resharding, no overlap),
"Overlap" (communication overlapped, still 1F1B), and "Eager-1F1B"
(ours).  We additionally report eager-1F1B with backward weight
delaying, the §4 refinement.

Expected shape: with very few micro-batches the pipeline has no steady
phase and Overlap is within a few percent of Eager-1F1B; with many
micro-batches Overlap gains ~1.3x over Broadcast and Eager-1F1B adds
~15 % more.
"""

from __future__ import annotations

from dataclasses import replace

from ..models.parallel import run_iteration
from ..models.utransformer import UTransformerConfig, build_utransformer
from .common import ExperimentTable

__all__ = ["run", "OVERLAP_METHODS", "BATCH_SIZES"]

OVERLAP_METHODS = ("broadcast", "overlap", "ours", "ours_delay")

#: (label, global batch) — micro-batch stays at the config default
BATCH_SIZES = (
    ("small batch (4 micro-batches)", 32),
    ("large batch (256 micro-batches)", 2048),
)


def run() -> ExperimentTable:
    table = ExperimentTable(
        experiment_id="E6 (Fig. 9)",
        title="Overlap ablation on U-Transformer (throughput, TFLOPS/GPU)",
        columns=[
            "batch",
            "method",
            "iteration (s)",
            "TFLOPS/GPU",
            "vs broadcast",
        ],
    )
    for label, batch in BATCH_SIZES:
        cfg = replace(UTransformerConfig(), global_batch=batch)
        spec = build_utransformer(cfg)
        # Keep each iteration's two floats, not its result (a bus with
        # every span of the run).
        results = {}
        for m in OVERLAP_METHODS:
            r = run_iteration(spec, m)
            results[m] = (r.iteration_time, r.throughput_tflops)
        base = results["broadcast"][1]
        for m in OVERLAP_METHODS:
            iteration, tflops = results[m]
            table.add(
                batch=label,
                method=m,
                **{
                    "iteration (s)": iteration,
                    "TFLOPS/GPU": tflops,
                    "vs broadcast": tflops / base,
                },
            )
    return table
