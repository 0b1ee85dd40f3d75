"""GPT-3-style language model workload (paper Table 1, Table 3, Fig. 7).

A homogeneous stack of transformer layers, partitioned with the
composite (data, operator, pipeline) parallel config of Table 3.  Each
pipeline stage sends the output activation of its last transformer
layer; the tensor is partitioned along data-parallel mesh rows and
replicated across operator-parallel columns (spec ``S0RR`` over a
``(dp, op)`` mesh), exactly the paper's description in §5.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import checks
from ..core.mesh import DeviceMesh
from ..pipeline.stage import StageProfile
from ..sim.cluster import Cluster, ClusterSpec
from .costs import (
    BYTES,
    DeviceModel,
    V100,
    ring_allreduce_time,
    transformer_layer_flops_fwd,
    transformer_layer_params,
)
from .parallel import Boundary, ParallelJobSpec

__all__ = ["GPTConfig", "build_gpt", "gpt_layer_memory_table", "GPT_CASES"]


@dataclass(frozen=True)
class GPTConfig:
    """A GPT training configuration (defaults: the paper's 2.6B model)."""

    name: str = "GPT-2.6B"
    n_layers: int = 32
    hidden: int = 2560
    seq_len: int = 1024
    vocab: int = 51200
    global_batch: int = 1024
    #: micro-batch size per data-parallel rank (Table 1 uses B = 2)
    micro_batch_per_dp: int = 2
    precision: str = "fp16"
    dp: int = 2
    op: int = 2
    pp: int = 2

    def __post_init__(self) -> None:
        for name in ("n_layers", "hidden", "seq_len", "vocab", "global_batch",
                     "micro_batch_per_dp", "dp", "op", "pp"):
            checks.integer(name, getattr(self, name), 1)
        if self.n_layers % self.pp != 0:
            raise ValueError(f"n_layers={self.n_layers} not divisible by pp={self.pp}")
        if self.global_batch % (self.dp * self.micro_batch_per_dp) != 0:
            raise ValueError("global_batch must divide into dp x micro_batch_per_dp")

    # ------------------------------------------------------------------
    @property
    def n_params(self) -> float:
        """Total parameters (layers + embedding)."""
        return self.n_layers * transformer_layer_params(self.hidden) + (
            self.vocab * self.hidden
        )

    @property
    def n_devices(self) -> int:
        return self.dp * self.op * self.pp

    @property
    def n_microbatches(self) -> int:
        return self.global_batch // (self.dp * self.micro_batch_per_dp)

    @property
    def parallel_config(self) -> tuple[int, int, int]:
        return (self.dp, self.op, self.pp)

    def flops_per_iteration(self) -> float:
        """fwd + bwd FLOPs of one whole-batch iteration (3x forward)."""
        return 3.0 * self.n_layers * transformer_layer_flops_fwd(
            self.global_batch, self.seq_len, self.hidden
        )


#: Table 3's two GPT parallel configurations.
GPT_CASES = {
    "GPT case1": GPTConfig(name="GPT case1", dp=2, op=2, pp=2),
    "GPT case2": GPTConfig(name="GPT case2", dp=4, op=1, pp=2),
}


def build_gpt(
    config: GPTConfig = GPTConfig(),
    device: DeviceModel = V100,
    cluster: Cluster | None = None,
) -> ParallelJobSpec:
    """Instantiate the pipeline-parallel job for one GPT config.

    Stages occupy consecutive blocks of devices (host-aligned when the
    stage size equals the host size, as on the paper's 2-node testbed).
    """
    if cluster is None:
        dph = min(4, config.dp * config.op)
        cluster = Cluster(
            ClusterSpec(
                n_hosts=max(1, config.n_devices // dph), devices_per_host=dph
            )
        )
    if cluster.n_devices < config.n_devices:
        raise ValueError(
            f"cluster has {cluster.n_devices} devices, config needs {config.n_devices}"
        )

    per_stage = config.dp * config.op
    meshes = []
    for s in range(config.pp):
        flat = [d.device_id for d in cluster.devices[s * per_stage : (s + 1) * per_stage]]
        grid = [flat[i * config.op : (i + 1) * config.op] for i in range(config.dp)]
        meshes.append(DeviceMesh(cluster, grid))

    layers_per_stage = config.n_layers // config.pp
    b = config.micro_batch_per_dp
    dev_flops = device.flops(config.precision)
    fwd = (
        layers_per_stage
        * transformer_layer_flops_fwd(b, config.seq_len, config.hidden)
        / config.op
        / dev_flops
    )
    # Megatron operator parallelism all-reduces the activation twice per
    # layer (attention output + MLP output) in forward, and the same for
    # the input gradients in backward.  The group is one mesh row; when
    # it stays inside a host this runs over NVLink, across hosts it is
    # expensive (which is what rules out wide cross-host op parallelism).
    op_allreduce = 0.0
    if config.op > 1:
        row_devices = [meshes[0].device_at(0, j) for j in range(config.op)]
        bw = cluster.topo.group_bandwidth(cluster.hosts_of(row_devices))
        act_msg = BYTES[config.precision] * b * config.seq_len * config.hidden
        op_allreduce = layers_per_stage * 2.0 * ring_allreduce_time(
            act_msg, config.op, bw
        )
    fwd += op_allreduce
    layer_bytes_per_param = 14.0  # fp16 param+grad + fp32 master+m+v (Table 1)
    params_dev = (
        layers_per_stage * transformer_layer_params(config.hidden) / config.op
    )
    act_bytes = BYTES[config.precision] * b * config.seq_len * config.hidden

    profiles = [
        StageProfile(
            stage_id=s,
            fwd_time=fwd,
            bwd_x_time=fwd,  # dgrad: same GEMMs + the op all-reduces
            bwd_w_time=fwd - op_allreduce,  # wgrad needs no op all-reduce
            params_bytes=params_dev * layer_bytes_per_param,
            activation_bytes=act_bytes,
        )
        for s in range(config.pp)
    ]

    boundaries = [
        Boundary(
            label=f"act{s}->{s + 1}",
            src_stage=s,
            dst_stage=s + 1,
            shape=(config.dp * b, config.seq_len, config.hidden),
            src_spec="S0RR",
            dst_spec="S0RR",
            dtype=config.precision,
        )
        for s in range(config.pp - 1)
    ]

    # Data-parallel gradient all-reduce at the end of the iteration.
    grad_bytes = params_dev * BYTES[config.precision]
    epilogue = 0.0
    if config.dp > 1:
        mesh0 = meshes[0]
        bw = cluster.topo.group_bandwidth(cluster.hosts_of(mesh0.devices))
        epilogue = ring_allreduce_time(grad_bytes, config.dp, bw)

    return ParallelJobSpec(
        name=config.name,
        cluster=cluster,
        stage_meshes=meshes,
        profiles=profiles,
        boundaries=boundaries,
        n_microbatches=config.n_microbatches,
        model_flops_per_iteration=config.flops_per_iteration(),
        epilogue_time=epilogue,
        notes=f"parallel config {config.parallel_config}, "
        f"{config.n_params / 1e9:.1f}B params",
    )


@dataclass(frozen=True)
class GPTLayerMemory:
    """One row set of the paper's Table 1 (values in binary units)."""

    n_parameters: float
    n_optimizer_params: float
    n_activation_elements: float
    weights_and_optimizer_bytes: float
    activation_bytes: float
    expressions: dict[str, str] = field(
        default_factory=lambda: {
            "n_parameters": "12 H^2 / TMP",
            "n_optimizer_params": "24 H^2 / TMP",
            "n_activation_elements": "B S H",
            "weights_and_optimizer_bytes": "168 H^2 / TMP",
            "activation_bytes": "2 B S H",
        }
    )


def gpt_layer_memory_table(
    seq_len: int = 1024,
    hidden: int = 12288,
    micro_batch: int = 2,
    tmp: int = 8,
) -> GPTLayerMemory:
    """Table 1: per-GPU sizes for one GPT-3 layer in mixed precision.

    Defaults are the paper's (S=1024, H=12288, B=2, TMP=8), giving
    216 Mi parameters, 432 Mi optimizer params, 24 Mi activation
    elements, 2.95 GiB of weights+optimizer and 48 MiB of activations.
    """
    h2 = float(hidden) * hidden
    return GPTLayerMemory(
        n_parameters=12.0 * h2 / tmp,
        n_optimizer_params=24.0 * h2 / tmp,
        n_activation_elements=float(micro_batch) * seq_len * hidden,
        weights_and_optimizer_bytes=168.0 * h2 / tmp,
        activation_bytes=2.0 * micro_batch * seq_len * hidden,
    )
