"""U-Transformer workload (paper Table 3, Fig. 7, Fig. 9).

A U-shaped convolutional network with attention (Petit et al., 2021):
encoder levels downsample while widening channels, a transformer
bottleneck, then decoder levels upsample, each consuming the *long skip
connection* from its encoder counterpart plus a self/cross-attention
block.  When the network is pipeline-partitioned into two stages, every
skip whose encoder end and decoder end land on different stages becomes
an extra cross-mesh resharding per micro-batch — the property that makes
communication the bottleneck in the paper's end-to-end evaluation.

The module sequence is split into two contiguous stages balanced by
FLOPs (the paper: "we balance pipeline stages with respect to FLOPs"),
and the intra-op plan is data-parallel over each stage's 4-GPU mesh
(standing in for Alpa's "auto" plan, which picks batch sharding for
convolutions at these sizes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .. import checks
from ..core.mesh import DeviceMesh
from ..pipeline.stage import StageProfile
from ..sim.cluster import Cluster, ClusterSpec
from .costs import DeviceModel, V100, conv2d_flops_fwd, conv2d_params, ring_allreduce_time
from .parallel import Boundary, ParallelJobSpec

__all__ = [
    "UTransformerConfig",
    "Module",
    "utransformer_modules",
    "utransformer_params",
    "build_utransformer",
    "balanced_split",
]


@dataclass(frozen=True)
class UTransformerConfig:
    """Defaults sized to roughly the paper's 2.1B-parameter model."""

    name: str = "U-Transformer-2.1B"
    image_size: int = 32
    in_channels: int = 3
    #: encoder channel widths, highest resolution first
    channels: tuple[int, ...] = (2048, 4096)
    bottleneck_channels: int = 4096
    bottleneck_attn_layers: int = 2
    #: self/cross-attention blocks per decoder level (the "Transformer"
    #: part of U-Transformer)
    skip_attn_layers: int = 3
    global_batch: int = 2048
    micro_batch: int = 8
    precision: str = "fp32"
    dp: int = 4

    def __post_init__(self) -> None:
        for name in ("image_size", "in_channels", "bottleneck_channels",
                     "global_batch", "micro_batch", "dp"):
            checks.integer(name, getattr(self, name), 1)
        for name in ("bottleneck_attn_layers", "skip_attn_layers"):
            checks.integer(name, getattr(self, name), 0)
        for c in self.channels:
            checks.integer("channels", c, 1)
        if self.image_size % (2 ** len(self.channels)) != 0:
            raise ValueError("image_size must be divisible by 2**len(channels)")
        if self.micro_batch % self.dp != 0:
            raise ValueError("micro_batch must divide by dp")
        if self.global_batch % self.micro_batch != 0:
            raise ValueError("global_batch must divide into micro_batch")

    @property
    def n_levels(self) -> int:
        return len(self.channels)

    @property
    def n_microbatches(self) -> int:
        return self.global_batch // self.micro_batch

    @property
    def n_devices(self) -> int:
        return 2 * self.dp


@dataclass(frozen=True)
class Module:
    """One sequential block of the network."""

    name: str
    flops_fwd: float  # per micro-batch
    params: float
    #: output feature map (channels, spatial) — the sequential activation
    out_channels: int
    out_spatial: int
    #: encoder level index whose skip this module *produces* (or None)
    skip_out: Optional[int] = None
    #: encoder level index whose skip this module *consumes* (or None)
    skip_in: Optional[int] = None


def _attn_flops(batch: int, tokens: int, hidden: int) -> float:
    """One transformer block: ``24 B T H^2`` GEMMs + ``4 B T^2 H`` scores."""
    return 24.0 * batch * tokens * hidden**2 + 4.0 * batch * tokens**2 * hidden


def utransformer_modules(cfg: UTransformerConfig) -> list[Module]:
    """The sequential module list: encoder, bottleneck, decoder.

    Attention blocks are emitted as separate modules so the FLOP-balanced
    two-way split (the paper's stage partition) has fine-grained cut
    points to choose from.
    """
    b = cfg.micro_batch
    mods: list[Module] = []
    # ---- encoder ------------------------------------------------------
    c_prev = cfg.in_channels
    for lvl, c in enumerate(cfg.channels):
        s = cfg.image_size >> lvl
        hw = s * s
        flops = conv2d_flops_fwd(b, c_prev, c, hw) + conv2d_flops_fwd(b, c, c, hw)
        params = conv2d_params(c_prev, c) + conv2d_params(c, c)
        mods.append(
            Module(
                name=f"enc{lvl}",
                flops_fwd=flops,
                params=params,
                out_channels=c,
                out_spatial=s,
                skip_out=lvl,
            )
        )
        c_prev = c
    # ---- bottleneck ----------------------------------------------------
    cb = cfg.bottleneck_channels
    s = cfg.image_size >> cfg.n_levels
    hw = s * s
    mods.append(
        Module(
            name="bottleneck_conv",
            flops_fwd=conv2d_flops_fwd(b, c_prev, cb, hw),
            params=conv2d_params(c_prev, cb),
            out_channels=cb,
            out_spatial=s,
        )
    )
    for i in range(cfg.bottleneck_attn_layers):
        mods.append(
            Module(
                name=f"bottleneck_attn{i}",
                flops_fwd=_attn_flops(b, hw, cb),
                params=12.0 * cb * cb,
                out_channels=cb,
                out_spatial=s,
            )
        )
    # ---- decoder -------------------------------------------------------
    c_above = cb
    for lvl in reversed(range(cfg.n_levels)):
        c = cfg.channels[lvl]
        s = cfg.image_size >> lvl
        hw = s * s
        # 2x2 transposed conv upsampling, then the concat conv fusing the
        # level's skip with the upsampled features.
        mods.append(
            Module(
                name=f"dec{lvl}",
                flops_fwd=conv2d_flops_fwd(b, c_above, c, hw, kernel=2)
                + conv2d_flops_fwd(b, 2 * c, c, hw),
                params=conv2d_params(c_above, c, kernel=2)
                + conv2d_params(2 * c, c),
                out_channels=c,
                out_spatial=s,
                skip_in=lvl,
            )
        )
        for i in range(cfg.skip_attn_layers):
            mods.append(
                Module(
                    name=f"dec{lvl}_attn{i}",
                    flops_fwd=_attn_flops(b, hw, c),
                    params=12.0 * c * c,
                    out_channels=c,
                    out_spatial=s,
                )
            )
        c_above = c
    return mods


def utransformer_params(cfg: UTransformerConfig) -> float:
    """Total parameter count of the network."""
    return sum(m.params for m in utransformer_modules(cfg))


def balanced_split(mods: list[Module]) -> int:
    """Cut index k (stage0 = mods[:k]) minimizing FLOP imbalance."""
    total = sum(m.flops_fwd for m in mods)
    best_k, best_gap = 1, float("inf")
    acc = 0.0
    for k in range(1, len(mods)):
        acc += mods[k - 1].flops_fwd
        gap = abs(acc - (total - acc))
        if gap < best_gap:
            best_gap, best_k = gap, k
    return best_k


def build_utransformer(
    cfg: UTransformerConfig = UTransformerConfig(),
    device: DeviceModel = V100,
    cluster: Cluster | None = None,
) -> ParallelJobSpec:
    """Instantiate the two-stage pipeline job for the U-Transformer."""
    if cluster is None:
        cluster = Cluster(ClusterSpec(n_hosts=2, devices_per_host=cfg.dp))
    if cluster.n_devices < cfg.n_devices:
        raise ValueError("cluster too small for 2 stages of dp devices")

    meshes = [
        DeviceMesh(
            cluster,
            [[cluster.hosts[h].devices[i].device_id] for i in range(cfg.dp)],
        )
        for h in range(2)
    ]  # (dp, 1) meshes, one host per stage

    mods = utransformer_modules(cfg)
    k = balanced_split(mods)
    stage_mods = [mods[:k], mods[k:]]

    dev_flops = device.flops(cfg.precision)
    itemsize = 4 if cfg.precision == "fp32" else 2
    profiles = []
    for sid, group in enumerate(stage_mods):
        fwd = sum(m.flops_fwd for m in group) / cfg.dp / dev_flops
        params = sum(m.params for m in group)
        # fp32 Adam: param + grad + m + v, replicated across dp ranks
        params_bytes = params * 16.0
        act_bytes = sum(
            # repro-lint: allow[L004] model-card estimate, not a plan byte count
            m.out_channels * m.out_spatial**2 * (cfg.micro_batch // cfg.dp) * itemsize
            for m in group
        )
        profiles.append(
            StageProfile(
                stage_id=sid,
                fwd_time=fwd,
                bwd_x_time=fwd,
                bwd_w_time=fwd,
                params_bytes=params_bytes,
                activation_bytes=act_bytes,
            )
        )

    spec_str = "S0RRR"  # batch-sharded feature maps (B, C, H, W)
    boundaries = []
    # Sequential activation at the cut.
    last = stage_mods[0][-1]
    boundaries.append(
        Boundary(
            label=f"seq:{last.name}",
            src_stage=0,
            dst_stage=1,
            shape=(cfg.micro_batch, last.out_channels, last.out_spatial, last.out_spatial),
            src_spec=spec_str,
            dst_spec=spec_str,
            dtype=cfg.precision,
        )
    )
    # Long skip connections whose producer and consumer straddle the cut.
    producers = {m.skip_out: m for m in stage_mods[0] if m.skip_out is not None}
    for m in stage_mods[1]:
        if m.skip_in is not None and m.skip_in in producers:
            p = producers[m.skip_in]
            boundaries.append(
                Boundary(
                    label=f"skip{m.skip_in}",
                    src_stage=0,
                    dst_stage=1,
                    shape=(cfg.micro_batch, p.out_channels, p.out_spatial, p.out_spatial),
                    src_spec=spec_str,
                    dst_spec=spec_str,
                    dtype=cfg.precision,
                )
            )

    total_fwd = sum(m.flops_fwd for m in mods)
    epilogue = ring_allreduce_time(
        # repro-lint: allow[L004] model-card estimate, not a plan byte count
        sum(m.params for m in mods) / 2 * itemsize,  # per-stage grads, rough
        cfg.dp,
        cluster.spec.intra_host_bandwidth,
    )
    return ParallelJobSpec(
        name=cfg.name,
        cluster=cluster,
        stage_meshes=meshes,
        profiles=profiles,
        boundaries=boundaries,
        n_microbatches=cfg.n_microbatches,
        model_flops_per_iteration=3.0 * total_fwd * cfg.n_microbatches,
        epilogue_time=epilogue,
        notes=f"{utransformer_params(cfg) / 1e9:.2f}B params, "
        f"split after {stage_mods[0][-1].name}, "
        f"{len(boundaries) - 1} cross-mesh skip(s)",
    )
