"""Tests for the workload cost models (GPT, U-Transformer)."""

import pytest

from repro.models.costs import (
    DeviceModel,
    conv2d_flops_fwd,
    conv2d_params,
    ring_allreduce_time,
    transformer_layer_flops_fwd,
    transformer_layer_params,
)
from repro.models.gpt import GPT_CASES, GPTConfig, build_gpt, gpt_layer_memory_table
from repro.models.utransformer import (
    UTransformerConfig,
    balanced_split,
    build_utransformer,
    utransformer_modules,
    utransformer_params,
)
from repro.sim.cluster import Cluster, ClusterSpec


# ----------------------------------------------------------------------
# costs
# ----------------------------------------------------------------------
def test_device_model_precisions():
    d = DeviceModel(fp16_flops=10.0, fp32_flops=5.0)
    assert d.flops("fp16") == 10.0
    assert d.flops("fp32") == 5.0
    with pytest.raises(ValueError):
        d.flops("int8")


def test_transformer_flops_formula():
    assert transformer_layer_flops_fwd(2, 4, 8) == pytest.approx(
        24 * 2 * 4 * 64 + 4 * 2 * 16 * 8
    )


def test_transformer_params_formula():
    assert transformer_layer_params(10) == 1200


def test_conv_formulas():
    assert conv2d_flops_fwd(2, 3, 8, 16, kernel=3) == 2 * 9 * 3 * 8 * 16 * 2
    assert conv2d_params(3, 8) == 9 * 3 * 8
    assert conv2d_params(3, 8, kernel=2) == 4 * 3 * 8


def test_allreduce_time():
    assert ring_allreduce_time(100.0, 1, 10.0) == 0.0
    assert ring_allreduce_time(100.0, 4, 10.0) == pytest.approx(15.0)
    with pytest.raises(ValueError):
        ring_allreduce_time(1.0, 2, 0.0)


# ----------------------------------------------------------------------
# GPT
# ----------------------------------------------------------------------
def test_gpt_default_is_2_6b():
    cfg = GPTConfig()
    assert cfg.n_params == pytest.approx(2.6e9, rel=0.05)


def test_gpt_table3_cases():
    assert GPT_CASES["GPT case1"].parallel_config == (2, 2, 2)
    assert GPT_CASES["GPT case2"].parallel_config == (4, 1, 2)
    for cfg in GPT_CASES.values():
        assert cfg.n_devices == 8
        assert cfg.global_batch == 1024


def test_gpt_microbatch_count():
    cfg = GPTConfig(dp=2, micro_batch_per_dp=2)
    assert cfg.n_microbatches == 1024 // 4


def test_gpt_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        GPTConfig(n_layers=31, pp=2)
    with pytest.raises(ValueError, match="batch"):
        GPTConfig(global_batch=1000, dp=3)


@pytest.mark.parametrize("field", ["pp", "dp"])
def test_gpt_parallel_degrees_must_be_positive(field):
    # pp=0 and dp=0 used to raise a bare ZeroDivisionError
    with pytest.raises(ValueError, match=rf"{field} must be an integer >= 1"):
        GPTConfig(**{field: 0})


def test_build_gpt_structure():
    spec = build_gpt(GPTConfig())
    assert len(spec.stage_meshes) == 2
    assert len(spec.profiles) == 2
    assert len(spec.boundaries) == 1
    assert spec.n_devices == 8
    b = spec.boundaries[0]
    assert b.src_spec == "S0RR" and b.dst_spec == "S0RR"
    assert b.shape == (4, 1024, 2560)
    # meshes are disjoint and host-aligned on the 2-node testbed
    assert set(spec.stage_meshes[0].devices).isdisjoint(spec.stage_meshes[1].devices)


def test_built_specs_print():
    """A job spec's dataclass repr includes its cluster's repr."""
    assert "Cluster(hosts=2, devices_per_host=4)" in repr(build_gpt(GPTConfig()))
    assert "Cluster(" in repr(build_utransformer(UTransformerConfig()))


def test_build_gpt_stage_times_scale_with_op():
    t1 = build_gpt(GPTConfig(dp=2, op=2, pp=2)).profiles[0].fwd_time
    t2 = build_gpt(GPTConfig(dp=2, op=1, pp=2, micro_batch_per_dp=2)).profiles[0].fwd_time
    # GEMMs halve with op=2; the NVLink op all-reduce adds a few percent
    assert t2 == pytest.approx(2 * t1, rel=0.1)
    assert t2 < 2 * t1  # op=1 pays no all-reduce


def test_build_gpt_op_allreduce_charged():
    """Operator parallelism across hosts is penalized heavily."""
    fast = build_gpt(GPTConfig(dp=2, op=2, pp=2)).profiles[0]
    wide = build_gpt(GPTConfig(dp=1, op=8, pp=1, micro_batch_per_dp=2,
                               n_layers=32)).profiles[0]
    # (1,8,1) spans two hosts -> Ethernet all-reduces dominate
    assert wide.fwd_time > fast.fwd_time
    assert wide.bwd_w_time < wide.fwd_time  # wgrad skips the all-reduce


def test_build_gpt_cluster_too_small():
    tiny = Cluster(ClusterSpec(n_hosts=1, devices_per_host=4))
    with pytest.raises(ValueError, match="cluster"):
        build_gpt(GPTConfig(), cluster=tiny)


def test_gpt_epilogue_allreduce_positive():
    spec = build_gpt(GPTConfig(dp=2, op=2, pp=2))
    assert spec.epilogue_time > 0
    nodp = build_gpt(GPTConfig(dp=1, op=4, pp=2, global_batch=1024,
                               micro_batch_per_dp=4))
    assert nodp.epilogue_time == 0.0


def test_gpt_table1_exact_paper_values():
    row = gpt_layer_memory_table()
    mi, gi = float(1 << 20), float(1 << 30)
    assert row.n_parameters / mi == pytest.approx(216.0)
    assert row.n_optimizer_params / mi == pytest.approx(432.0)
    assert row.n_activation_elements / mi == pytest.approx(24.0)
    assert row.weights_and_optimizer_bytes / gi == pytest.approx(2.95, abs=0.01)
    assert row.activation_bytes / mi == pytest.approx(48.0)


# ----------------------------------------------------------------------
# U-Transformer
# ----------------------------------------------------------------------
def test_utransformer_params_near_2_1b():
    assert utransformer_params(UTransformerConfig()) == pytest.approx(2.1e9, rel=0.05)


def test_utransformer_modules_sequence():
    mods = utransformer_modules(UTransformerConfig())
    names = [m.name for m in mods]
    assert names[0] == "enc0"
    assert "bottleneck_conv" in names
    assert names[-1].startswith("dec0")
    # every encoder level has a matching decoder consumer
    produced = {m.skip_out for m in mods if m.skip_out is not None}
    consumed = {m.skip_in for m in mods if m.skip_in is not None}
    assert produced == consumed


def test_utransformer_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        UTransformerConfig(image_size=30)
    with pytest.raises(ValueError, match="dp"):
        UTransformerConfig(micro_batch=6, dp=4)
    with pytest.raises(ValueError, match="batch"):
        UTransformerConfig(global_batch=100, micro_batch=8)


def test_utransformer_dp_must_be_positive():
    # dp=0 used to raise a bare ZeroDivisionError
    with pytest.raises(ValueError, match="dp must be an integer >= 1"):
        UTransformerConfig(dp=0)


def test_balanced_split_minimizes_gap():
    mods = utransformer_modules(UTransformerConfig())
    k = balanced_split(mods)
    total = sum(m.flops_fwd for m in mods)
    front = sum(m.flops_fwd for m in mods[:k])
    gap = abs(2 * front - total)
    for other in range(1, len(mods)):
        f = sum(m.flops_fwd for m in mods[:other])
        assert gap <= abs(2 * f - total) + 1e-6


def test_build_utransformer_structure():
    spec = build_utransformer(UTransformerConfig())
    assert len(spec.stage_meshes) == 2
    assert spec.n_devices == 8
    # at least one cross-mesh skip plus the sequential boundary
    assert len(spec.boundaries) >= 2
    labels = [b.label for b in spec.boundaries]
    assert any(lbl.startswith("seq") for lbl in labels)
    assert any(lbl.startswith("skip") for lbl in labels)


def test_build_utransformer_stage_balance():
    spec = build_utransformer(UTransformerConfig())
    f0, f1 = spec.profiles[0].fwd_time, spec.profiles[1].fwd_time
    assert max(f0, f1) / min(f0, f1) < 1.6


def test_utransformer_flops_positive_and_consistent():
    cfg = UTransformerConfig()
    spec = build_utransformer(cfg)
    per_mb_fwd = sum(p.fwd_time for p in spec.profiles)
    assert per_mb_fwd > 0
    assert spec.model_flops_per_iteration > 0
    assert spec.n_microbatches == cfg.global_batch // cfg.micro_batch
