"""Ablations of this implementation's own design choices (DESIGN.md §5).

Beyond the paper's ablations (Fig. 8 and Fig. 9), these isolate the
knobs our reproduction introduces or makes explicit:

* **A1 unit-task granularity** — the paper's prose defines unit tasks
  per source slice (§2.2) while its evaluation counts overlap-grid
  intersections (§5.1.2); we ship both and measure the gap.
* **A2 broadcast chunk count** — the ``t + A t/K`` pipelining law at the
  strategy level.
* **A3 schedule gating** — Eq. 3's non-overlap constraint vs letting the
  max-min-fair network multiplex everything.
* **A4 eagerness depth** — interpolating the warm-up between 1F1B
  (extra = 0) and eager-1F1B (extra = 1) and beyond, measuring both
  iteration time and peak activation memory.
* **A5 backward weight delaying** — §4's refinement, swept over delay
  slots on 1F1B-with-overlap.
"""

from __future__ import annotations

from ..models.parallel import resolve_comm_edges
from ..models.utransformer import UTransformerConfig, build_utransformer
from ..pipeline.executor import simulate_pipeline
from ..pipeline.schedules import one_f_one_b_order, split_backward
from ..pipeline.stage import PipelineJob
from .common import ExperimentTable
from .fig6 import TABLE2_CASES, case_latency

__all__ = [
    "run_granularity",
    "run_chunks",
    "run_gating",
    "run_eagerness",
    "run_weight_delay",
    "run_all",
    "summarize",
    "run",
]


def run_granularity() -> ExperimentTable:
    table = ExperimentTable(
        experiment_id="A1",
        title="Unit-task granularity: overlap-grid intersections vs full source slices",
        columns=["case", "intersection (s)", "slice (s)", "slice/intersection"],
        notes=(
            "Broadcast strategy on the Table 2 cases.  Slice granularity "
            "multicasts whole source slices even to receivers needing a "
            "fraction, inflating traffic exactly where source and "
            "destination tilings are orthogonal (cases 4, 9)."
        ),
    )
    for case in TABLE2_CASES:
        inter = case_latency(case, "broadcast", granularity="intersection")
        slc = case_latency(case, "broadcast", granularity="slice")
        table.add(
            **{
                "case": case.name,
                "intersection (s)": inter,
                "slice (s)": slc,
                "slice/intersection": slc / inter,
            }
        )
    return table


def run_chunks() -> ExperimentTable:
    table = ExperimentTable(
        experiment_id="A2",
        title="Broadcast pipeline chunk count (Table 2 case 8, one broadcast)",
        columns=["K", "latency (s)"],
        notes="T ~ t + A t / K; diminishing returns past K ~ 32.",
    )
    case8 = TABLE2_CASES[7]
    for k in (1, 2, 4, 8, 16, 32, 64, 128):
        table.add(K=k, **{"latency (s)": case_latency(case8, "broadcast", n_chunks=k)})
    return table


def run_gating() -> ExperimentTable:
    table = ExperimentTable(
        experiment_id="A3",
        title="Eq. 3 schedule gating vs free-running max-min fair sharing",
        columns=["case", "gated (s)", "ungated (s)", "ungated/gated"],
        notes=(
            "Gating launches unit tasks in the ensemble schedule's order; "
            "ungated submits everything at t=0 and lets fair sharing "
            "multiplex.  Fair sharing is a good implicit scheduler on "
            "symmetric cases, so gating mostly protects the pathological "
            "orders the baselines produce."
        ),
    )
    for case in TABLE2_CASES:
        gated = case_latency(case, "broadcast", gate_on_schedule=True)
        ungated = case_latency(case, "broadcast", gate_on_schedule=False)
        table.add(
            **{
                "case": case.name,
                "gated (s)": gated,
                "ungated (s)": ungated,
                "ungated/gated": ungated / gated,
            }
        )
    return table


def _utransformer_job() -> PipelineJob:
    """U-Transformer at a 512-sample global batch, broadcast edges."""
    spec = build_utransformer(UTransformerConfig(global_batch=512))
    edges = resolve_comm_edges(spec, "broadcast")
    return PipelineJob(
        stages=spec.profiles, edges=edges, n_microbatches=spec.n_microbatches
    )


def run_eagerness() -> ExperimentTable:
    """Sweep warm-up depth: extra=0 is 1F1B, extra=1 is eager-1F1B."""
    table = ExperimentTable(
        experiment_id="A4",
        title="Eagerness depth on U-Transformer (overlapped communication)",
        columns=["extra warm-up", "iteration (s)", "peak act stage0", "peak act stage1"],
        notes=(
            "Warm-up = (p - s) + extra * (p - s - 1).  extra=1 (the "
            "paper's eager-1F1B) captures the overlap benefit; deeper "
            "eagerness only costs memory."
        ),
    )
    job = _utransformer_job()
    p, m = job.n_stages, job.n_microbatches
    for extra in (0, 1, 2, 3):
        orders = [
            one_f_one_b_order(m, (p - s) + extra * (p - s - 1)) for s in range(p)
        ]
        r = simulate_pipeline(job, orders, overlap=True)
        table.add(
            **{
                "extra warm-up": extra,
                "iteration (s)": r.iteration_time,
                "peak act stage0": r.peak_activation_counts[0],
                "peak act stage1": r.peak_activation_counts[1],
            }
        )
    return table


def run_weight_delay() -> ExperimentTable:
    table = ExperimentTable(
        experiment_id="A5",
        title="Backward weight delaying on U-Transformer (1F1B + overlap)",
        columns=["delay slots", "iteration (s)", "peak act stage0"],
        notes=(
            "Splitting B into Bx/Bw and delaying Bw releases the gradient "
            "transfer earlier; one slot suffices (paper §4)."
        ),
    )
    job = _utransformer_job()
    p, m = job.n_stages, job.n_microbatches
    base = [one_f_one_b_order(m, p - s) for s in range(p)]
    for delay in (0, 1, 2):
        orders = [split_backward(o, delay_slots=delay) for o in base]
        r = simulate_pipeline(job, orders, overlap=True)
        table.add(
            **{
                "delay slots": delay,
                "iteration (s)": r.iteration_time,
                "peak act stage0": r.peak_activation_counts[0],
            }
        )
    return table


def run_all() -> list[ExperimentTable]:
    return [
        run_granularity(),
        run_chunks(),
        run_gating(),
        run_eagerness(),
        run_weight_delay(),
    ]


def summarize(tables: list[ExperimentTable]) -> ExperimentTable:
    """A0: the headline ratio of each of :func:`run_all`'s tables."""
    summary = ExperimentTable(
        experiment_id="A0 (ablation summary)",
        title="Implementation-choice ablations (details in tables A1-A5)",
        columns=["ablation", "headline"],
    )
    a1 = tables[0]
    worst = max(a1.column("slice/intersection"))
    summary.add(
        ablation="A1 granularity",
        headline=f"slice granularity up to {worst:.1f}x slower (case with orthogonal tilings)",
    )
    a2 = tables[1]
    summary.add(
        ablation="A2 chunk count",
        headline=(
            f"K=1 -> {a2.rows[0]['latency (s)']:.2f}s, "
            f"K=128 -> {a2.rows[-1]['latency (s)']:.2f}s"
        ),
    )
    a3 = tables[2]
    ratios = a3.column("ungated/gated")
    summary.add(
        ablation="A3 gating",
        headline=f"ungated/gated across cases: {min(ratios):.2f}-{max(ratios):.2f}",
    )
    a4 = tables[3]
    t0 = a4.rows[0]["iteration (s)"]
    t1 = a4.rows[1]["iteration (s)"]
    summary.add(
        ablation="A4 eagerness",
        headline=f"extra=0 -> {t0:.2f}s, extra=1 -> {t1:.2f}s, extra>1 no further gain",
    )
    a5 = tables[4]
    summary.add(
        ablation="A5 weight delay",
        headline=(
            f"delay 0 -> {a5.rows[0]['iteration (s)']:.2f}s, "
            f"delay 1 -> {a5.rows[1]['iteration (s)']:.2f}s"
        ),
    )
    return summary


def run() -> ExperimentTable:
    """Single-table summary: headline ratio per ablation."""
    return summarize(run_all())
