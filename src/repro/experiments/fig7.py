"""E4 — Table 3 + Figure 7: end-to-end training throughput.

Three workloads (GPT 2.6B under two parallel configs, U-Transformer
2.1B) x five systems (Send/Recv, Alpa, Broadcast, Ours, and the Signal
Send/Recv upper bound).  Throughput is aggregate per-GPU TFLOPS, model
FLOPs / iteration time / #GPUs, as in the paper.

Expected shape: on GPT both Alpa and ours sit close to the bound with
ours ~1.1x over Alpa (overlap); on U-Transformer the cross-mesh skip
connections make communication the bottleneck and ours is ~1.5x over
Alpa, reaching >=97 % of the Signal bound.
"""

from __future__ import annotations

from ..models.gpt import GPT_CASES, build_gpt
from ..models.parallel import ParallelJobSpec, run_iteration
from ..models.utransformer import UTransformerConfig, build_utransformer
from .common import ExperimentTable

__all__ = ["run", "E2E_METHODS", "workloads"]

E2E_METHODS = ("send_recv", "alpa", "broadcast", "ours", "signal")


def workloads() -> dict[str, ParallelJobSpec]:
    """Table 3's three evaluated configurations."""
    specs: dict[str, ParallelJobSpec] = {
        name: build_gpt(cfg) for name, cfg in GPT_CASES.items()
    }
    specs["U-Transformer"] = build_utransformer(UTransformerConfig())
    return specs


def run() -> ExperimentTable:
    table = ExperimentTable(
        experiment_id="E4 (Table 3 + Fig. 7)",
        title="End-to-end training throughput (per-GPU TFLOPS)",
        columns=["model", "method", "iteration (s)", "TFLOPS/GPU", "vs Alpa", "of Signal"],
    )
    for model_name, spec in workloads().items():
        # Keep each iteration's two floats, not its result (a bus with
        # every span of the run).
        results = {}
        for m in E2E_METHODS:
            r = run_iteration(spec, m)
            results[m] = (r.iteration_time, r.throughput_tflops)
        alpa = results["alpa"][1]
        signal = results["signal"][1]
        for m in E2E_METHODS:
            iteration, tflops = results[m]
            table.add(
                model=model_name,
                method=m,
                **{
                    "iteration (s)": iteration,
                    "TFLOPS/GPU": tflops,
                    "vs Alpa": tflops / alpa,
                    "of Signal": tflops / signal,
                },
            )
    return table
