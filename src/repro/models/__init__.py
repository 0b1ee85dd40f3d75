"""Workload cost models for the end-to-end evaluation (paper §5.2)."""

from .costs import (
    BYTES,
    DeviceModel,
    V100,
    conv2d_flops_fwd,
    conv2d_params,
    ring_allreduce_time,
    transformer_layer_flops_fwd,
    transformer_layer_params,
)
from .gpt import GPT_CASES, GPTConfig, build_gpt, gpt_layer_memory_table
from .parallel import (
    Boundary,
    E2EResult,
    METHODS,
    MethodSpec,
    ParallelJobSpec,
    resolve_comm_edges,
    run_iteration,
)
from .utransformer import (
    UTransformerConfig,
    balanced_split,
    build_utransformer,
    utransformer_modules,
    utransformer_params,
)

__all__ = [
    "DeviceModel",
    "V100",
    "BYTES",
    "transformer_layer_flops_fwd",
    "transformer_layer_params",
    "conv2d_flops_fwd",
    "conv2d_params",
    "ring_allreduce_time",
    "GPTConfig",
    "GPT_CASES",
    "build_gpt",
    "gpt_layer_memory_table",
    "UTransformerConfig",
    "build_utransformer",
    "utransformer_modules",
    "utransformer_params",
    "balanced_split",
    "Boundary",
    "ParallelJobSpec",
    "MethodSpec",
    "METHODS",
    "resolve_comm_edges",
    "run_iteration",
    "E2EResult",
]
