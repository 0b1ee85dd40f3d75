"""S1 — parallel-configuration sweep (beyond the paper's fixed configs).

Table 3 evaluates two hand-picked GPT parallel configs.  Systems like
Alpa *search* this space; with the whole stack simulated we can sweep
every (dp, op, pp) factorization of the 8-GPU cluster and see how the
communication system changes the ranking — communication-heavier
configs (more pipeline stages, cross-host tensor parallelism) gain the
most from broadcast + eager-1F1B.
"""

from __future__ import annotations

from ..models.gpt import GPTConfig, build_gpt
from ..models.parallel import run_iteration
from .common import ExperimentTable

__all__ = ["run", "gpt_config_space"]

#: the cluster's GPU count and GPT-2.6B's layer count
N_DEVICES = 8
N_LAYERS = 32
#: the systems compared
METHODS = ("alpa", "ours")


def gpt_config_space() -> list[GPTConfig]:
    """All (dp, op, pp) factorizations of ``N_DEVICES`` that fit GPT."""
    configs = []
    for pp in (1, 2, 4, 8):
        if N_DEVICES % pp or N_LAYERS % pp:
            continue
        rest = N_DEVICES // pp
        dp = 1
        while dp <= rest:
            if rest % dp == 0:
                op = rest // dp
                try:
                    configs.append(
                        GPTConfig(
                            name=f"GPT ({dp},{op},{pp})", dp=dp, op=op, pp=pp
                        )
                    )
                except ValueError:
                    pass
            dp *= 2
    return configs


def run() -> ExperimentTable:
    table = ExperimentTable(
        experiment_id="S1 (extension)",
        title="GPT-2.6B parallel-config sweep on 8 GPUs (per-GPU TFLOPS)",
        columns=["config", "micro-batches"] + [f"{m} TFLOPS" for m in METHODS]
        + ["ours/alpa"],
        notes=(
            "pp=1 has no cross-mesh resharding, so all systems tie; "
            "deeper pipelines shift more time into communication and "
            "widen the gap."
        ),
    )
    for cfg in gpt_config_space():
        spec = build_gpt(cfg)
        # Only the throughput is read: keep the float, not the iteration
        # result, whose bus holds every span of the run.
        tflops = {m: run_iteration(spec, m).throughput_tflops for m in METHODS}
        row = {
            "config": f"({cfg.dp},{cfg.op},{cfg.pp})",
            "micro-batches": cfg.n_microbatches,
            "ours/alpa": tflops["ours"] / tflops["alpa"],
        }
        for m in METHODS:
            row[f"{m} TFLOPS"] = tflops[m]
        table.add(**row)
    return table
