"""E1 — Figure 5: single device to multiple devices microbenchmark.

The sender mesh has one GPU; the receiver mesh varies.  Group 1: one
node with 1-4 GPUs.  Group 2: 2 GPUs per node, 1-4 nodes.  Both ends use
fully replicated sharding specs; the message is 1 GB.  Strategies:
Send/Recv, Alpa (all-gather based), Broadcast (ours).

Expected shape: Send/Recv grows linearly with #GPUs; Alpa and Broadcast
stay flat within a node; Alpa degrades across nodes and collapses at 3
GPUs / 3 nodes (uneven partition fallback); Broadcast stays ~flat.
"""

from __future__ import annotations

from ..core.api import reshard
from ..core.mesh import DeviceMesh
from .common import ExperimentTable, paper_cluster

__all__ = ["run", "single_to_multi_latency", "single_to_multi_meshes", "STRATEGIES"]

STRATEGIES = ("send_recv", "allgather", "broadcast")

#: 1 GB of fp32 elements
MESSAGE_SHAPE = (1 << 28,)


def single_to_multi_meshes(n_recv_hosts: int, gpus_per_host: int) -> tuple[DeviceMesh, DeviceMesh]:
    """1 sender GPU; ``n_recv_hosts`` receiver hosts of ``gpus_per_host`` GPUs."""
    cluster = paper_cluster(1 + n_recv_hosts, devices_per_host=4)
    src = DeviceMesh(cluster, [[0]])
    dst = DeviceMesh.from_hosts(
        cluster, range(1, 1 + n_recv_hosts), devices_per_host=gpus_per_host
    )
    return src, dst


def single_to_multi_latency(
    n_recv_hosts: int, gpus_per_host: int, strategy: str
) -> float:
    """Latency of 1 GB replicated -> replicated, 1 sender GPU."""
    src, dst = single_to_multi_meshes(n_recv_hosts, gpus_per_host)
    result = reshard(MESSAGE_SHAPE, src, "R", dst, "R", strategy=strategy)
    return result.latency


def run() -> ExperimentTable:
    table = ExperimentTable(
        experiment_id="E1 (Fig. 5)",
        title="Single device to multiple devices, 1 GB message",
        columns=["group", "x", "send_recv (s)", "allgather/Alpa (s)", "broadcast (s)"],
        notes=(
            "Group 1: receiver is 1 node, x = #GPUs. "
            "Group 2: 2 GPUs per node, x = #nodes."
        ),
    )
    for g in range(1, 5):
        lat = {s: single_to_multi_latency(1, g, s) for s in STRATEGIES}
        table.add(
            group="1 node, vary #GPUs",
            x=g,
            **{
                "send_recv (s)": lat["send_recv"],
                "allgather/Alpa (s)": lat["allgather"],
                "broadcast (s)": lat["broadcast"],
            },
        )
    for n in range(1, 5):
        lat = {s: single_to_multi_latency(n, 2, s) for s in STRATEGIES}
        table.add(
            group="2 GPUs/node, vary #nodes",
            x=n,
            **{
                "send_recv (s)": lat["send_recv"],
                "allgather/Alpa (s)": lat["allgather"],
                "broadcast (s)": lat["broadcast"],
            },
        )
    return table
