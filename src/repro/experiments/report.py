"""Run every experiment and write every committed result.

Usage::

    python -m repro report [--output EXPERIMENTS.md]

writes the report (paper vs measured) and, next to it, the deterministic
artifacts ``benchmarks/results/BENCH_{fuzz,memory,service,topology}.json``.
``tests/test_report.py`` regenerates all of them and fails on any byte
of drift from the committed copies.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Callable

from . import (
    ablations,
    chaos,
    fig3,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    interleaving,
    parallel_sweep,
    scaling,
    table1,
)
from .common import ExperimentTable, format_markdown

__all__ = ["run_all", "write_report", "EXPECTATIONS", "ARTIFACTS_DIR"]

#: where the artifacts land, relative to the report's directory
ARTIFACTS_DIR = Path("benchmarks") / "results"

#: per experiment: the paper's qualitative claims we check against
EXPECTATIONS = {
    "E1": (
        "Send/Recv grows linearly with #GPUs; Alpa and Broadcast stay flat "
        "inside a node; Alpa degrades across nodes and collapses at 3 GPUs / "
        "3 nodes (uneven partition); Broadcast stays flat."
    ),
    "E2": (
        "Cases 1, 2: ours ~ Alpa.  Cases 3, 4, 9: ours substantially faster "
        "(paper: 3-10x; sender-order congestion).  Cases 7, 8: ours up to "
        "~2.5x faster (Alpa's all-gather crosses nodes)."
    ),
    "E3": "Exact Table 1 values: 216M / 432M / 24M, 2.95GB / 48MB.",
    "E4": (
        "GPT: ours ~1.1x over Alpa, both near the Signal bound.  "
        "U-Transformer: ours ~1.5x over Alpa, >=97% of Signal."
    ),
    "E5": (
        "Ties on cases 1 and 8; elsewhere naive and load-balance-only hit "
        "congestion, the DFS+randomized-greedy ensemble does not."
    ),
    "E6": (
        "Few micro-batches: Overlap within a few % of Eager-1F1B.  Many "
        "micro-batches: Overlap ~1.3x over Broadcast, Eager-1F1B ~15% more."
    ),
    "E7": "Simulated strategy latencies track the closed forms of §3.1.",
}


def _ablations() -> list[ExperimentTable]:
    details = ablations.run_all()
    return [ablations.summarize(details), *details]


def run_all(verbose: bool = True) -> list[ExperimentTable]:
    """Execute every experiment; returns the report's tables in order."""
    steps: list[tuple[str, Callable[[], list[ExperimentTable]]]] = [
        ("E1", lambda: [fig5.run()]),
        ("E2", lambda: [fig6.run()]),
        ("E3", lambda: [table1.run()]),
        ("E4", lambda: [fig7.run()]),
        ("E5", lambda: [fig8.run()]),
        ("E6", lambda: [fig9.run()]),
        ("E7", lambda: [fig3.run()]),
        ("A0-A5", _ablations),
        ("S1", lambda: [parallel_sweep.run()]),
        ("S2", lambda: [scaling.run(), scaling.run_scheduler_scaling()]),
        ("S3", lambda: [interleaving.run()]),
        ("chaos", lambda: [chaos.run()]),
    ]
    tables = []
    for eid, step in steps:
        t0 = time.time()  # repro-lint: allow[L001] progress printing only
        tables.extend(step())
        if verbose:
            # repro-lint: allow[L001] progress printing only
            print(f"{eid} done in {time.time() - t0:.1f}s", file=sys.stderr)
    return tables


HEADER = """\
# EXPERIMENTS — paper vs measured

Every table and figure of the paper's evaluation, regenerated on the
simulated cluster (2-4 nodes x 4 V100-class GPUs, NVLink intra-node,
10 Gbps inter-node; see DESIGN.md for the substitution argument).
Absolute numbers are simulator outputs and are not expected to match the
authors' AWS testbed; the *shape* of each result — who wins, by what
factor, where crossovers fall — is the reproduction target.

Regenerate with `python -m repro report` (about ten seconds), which also
rewrites the deterministic artifacts `benchmarks/results/BENCH_*.json`;
`tests/test_report.py` fails if any committed copy drifts by one byte.
"""


DIVERGENCES = """\
## Known divergences from the paper, and why

1. **E2 cases 3/4/9 magnitude.** The paper reports Alpa 3-10x slower than
   ours; we measure 1.5-1.9x.  Our Alpa baseline reproduces the *mechanism*
   the paper names (sender-order congestion: "two sender nodes always
   communicate with the same receiver, making one of them idle", modelled as
   load-balance-only scheduling with per-host program order) but sits on an
   idealized flow-level network.  The remaining real-system factors — Ray
   object-store copies, per-pair NCCL communicator setup, D2H/H2D staging in
   Alpa's send/recv path — are not modelled, so our baseline is more
   charitable than the real one.  Direction and significance reproduce;
   magnitude does not fully.

2. **E2 cases 5/6 parity.** The paper says Alpa ~ ours; we measure Alpa
   ~1.3-1.5x slower.  This follows from taking the paper's own description
   of the baseline scheduler literally (greedy lowest-load sender, which is
   "Load balance only" of Fig. 8) — Fig. 8 itself shows that scheduler
   congesting on case 5, so the paper's Fig. 6 and Fig. 8 are in slight
   tension; we sided with the described algorithm.

3. **E4 GPT margin.** Paper: ours 1.1x over Alpa; we measure ~1.2x.  Our
   blocking baseline pays both send and recv occupancy on the stage, which
   on the 10 Gbps testbed is slightly more pessimistic than Megatron-style
   fused exchange ops.

4. **E6 attribution.** Total broadcast->eager-1F1B gain matches (~1.5x),
   but the paper attributes ~1.3x to Overlap and ~1.15x to eagerness while
   we measure ~1.2x and ~1.26x: how much 1F1B-with-overlap can hide depends
   on the exact stage imbalance, which we could not calibrate from the
   paper (the U-Transformer configuration is not fully specified; ours is
   reconstructed to hit 2.1B parameters and a communication-bound split).

5. **Absolute scales.**  Throughputs use effective V100 GEMM rates
   (50 TFLOPS fp16, 13 TFLOPS fp32); latencies use 10 Gbps NICs and
   100 GB/s NVLink with fixed per-transfer startup latencies.  These set the
   scale, not the shape.
"""


def write_report(path: str = "EXPERIMENTS.md", verbose: bool = True) -> list[ExperimentTable]:
    """Write the report to ``path`` and the artifacts under
    :data:`ARTIFACTS_DIR` next to it; returns the report's tables.

    Everything is built before anything is written, so a builder whose
    acceptance gate fails (it raises) leaves every file untouched.
    """
    # imported here so that importing repro.experiments stays light
    from ..analysis.memory_analysis import soundness_payload
    from ..fuzz import campaign_payload
    from ..service.loadgen import scenario_payload
    from .topology_zoo import payload as topology_payload

    tables = run_all(verbose=verbose)
    parts = [HEADER]
    for table in tables:
        eid = table.experiment_id.split(" ")[0]
        parts.append(format_markdown(table))
        if eid in EXPECTATIONS:
            parts.append(f"**Paper's claim:** {EXPECTATIONS[eid]}\n")
    parts.append(DIVERGENCES)
    artifacts = {
        "fuzz": campaign_payload(),
        "memory": soundness_payload(),
        "service": scenario_payload(),
        "topology": topology_payload(),
    }
    report = Path(path)
    report.write_text("\n".join(parts))
    out = report.parent / ARTIFACTS_DIR
    out.mkdir(parents=True, exist_ok=True)
    for name, payload in artifacts.items():
        (out / f"BENCH_{name}.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
    return tables
