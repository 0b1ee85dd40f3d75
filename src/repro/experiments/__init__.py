"""Paper experiment reproductions, one module per table/figure.

=======  ==========================  ============================
module   paper reference             what it regenerates
=======  ==========================  ============================
fig5     Figure 5                    single -> multi microbenchmark
fig6     Table 2 + Figure 6          multi -> multi microbenchmark
table1   Table 1                     GPT-3 layer memory sizes
fig7     Table 3 + Figure 7          end-to-end throughput
fig8     Figure 8                    load-balance ablation
fig9     Figure 9                    overlap ablation
fig3     Figure 3 / §3.1             strategy latency vs analysis
report   —                           EXPERIMENTS.md + BENCH_*.json
=======  ==========================  ============================
"""

from . import (
    ablations,
    fig3,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    interleaving,
    parallel_sweep,
    report,
    scaling,
    table1,
)
from .common import ExperimentTable, format_markdown

__all__ = [
    "ablations",
    "parallel_sweep",
    "scaling",
    "interleaving",
    "fig3",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "table1",
    "report",
    "ExperimentTable",
    "format_markdown",
]
