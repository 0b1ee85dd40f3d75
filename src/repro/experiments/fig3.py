"""E7 — §3.1 / Figure 3: unit-task strategy latency vs the closed forms.

For one sender and ``A`` receiving hosts x ``B`` devices, simulate each
communication strategy as raw primitives and compare against the paper's
analysis: ``T_sr = A B t``, ``T_srla = A t``, ``T_srga ~ 2 t``,
``T_bc = t + A t / K``.
"""

from __future__ import annotations

from ..sim.analysis import (
    latency_broadcast,
    latency_global_allgather,
    latency_local_allgather,
    latency_send_recv,
    t_cross_host,
)
from ..sim.cluster import GB, Cluster, ClusterSpec
from ..sim.network import Network
from ..sim.primitives import p2p, ring_allgather, ring_broadcast, ring_order, scatter
from .common import ExperimentTable

__all__ = ["run", "simulate_strategy"]


def _receivers(cluster: Cluster, a: int, b: int) -> list[int]:
    """Devices of hosts 1..a, b per host (host 0 is the sender's)."""
    out = []
    for h in range(1, a + 1):
        out.extend(d.device_id for d in cluster.hosts[h].devices[:b])
    return out


def simulate_strategy(
    strategy: str, a: int, b: int, nbytes: float = GB, n_chunks: int = 64
) -> float:
    """Simulated latency of sending ``nbytes`` to ``a x b`` devices."""
    cluster = Cluster(
        ClusterSpec(
            n_hosts=a + 1,
            devices_per_host=max(b, 1),
            inter_host_latency=0.0,
            intra_host_latency=0.0,
        )
    )
    net = Network(cluster)
    root = 0
    recv = _receivers(cluster, a, b)
    if strategy == "send_recv":
        handles = [p2p(net, root, d, nbytes) for d in recv]
    elif strategy == "local_allgather":
        # One scatter per receiving host, then a per-host ring all-gather.
        handles = []
        for h in range(1, a + 1):
            devs = [d.device_id for d in cluster.hosts[h].devices[:b]]
            sc = scatter(net, root, devs, nbytes)
            handles.append(sc)
            if len(devs) > 1:
                ag_holder = []

                def start_ag(_h, devs=devs, ag_holder=ag_holder):
                    ag_holder.append(
                        ring_allgather(net, devs, nbytes / len(devs))
                    )

                sc.add_done_callback(start_ag)
                handles.append(ag_holder)  # resolved after run
    elif strategy == "global_allgather":
        sc = scatter(net, root, recv, nbytes)
        holder = []
        if len(recv) > 1:
            sc.add_done_callback(
                lambda _h: holder.append(
                    ring_allgather(
                        net, ring_order(cluster, recv[0], recv), nbytes / len(recv)
                    )
                )
            )
        handles = [sc, holder]
    elif strategy == "broadcast":
        handles = [ring_broadcast(net, root, recv, nbytes, n_chunks=n_chunks)]
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    net.run()
    return max(_finish_time(h) for h in handles)


def _finish_time(h) -> float:
    """A handle's finish time; a list's is its latest member's."""
    if isinstance(h, list):
        return max((_finish_time(x) for x in h), default=0.0)
    return h.finish_time


def run(nbytes: float = GB, n_chunks: int = 64, max_hosts: int = 4) -> ExperimentTable:
    table = ExperimentTable(
        experiment_id="E7 (Fig. 3 / §3.1)",
        title="Unit-task strategy latency: simulation vs closed-form analysis",
        columns=["strategy", "A (hosts)", "B (dev/host)", "simulated (s)", "analytic (s)"],
        notes=(
            "t is one cross-host traversal of the object; the broadcast "
            f"uses K={n_chunks} chunks. Analytic forms from §3.1."
        ),
    )
    for a in range(1, max_hosts + 1):
        b = 2
        t = t_cross_host(nbytes, ClusterSpec().inter_host_bandwidth)
        forms = {
            "send_recv": latency_send_recv(a, b, t),
            "local_allgather": latency_local_allgather(a, b, t),
            "global_allgather": latency_global_allgather(a, b, t),
            "broadcast": latency_broadcast(a, b, t, n_chunks),
        }
        for strat, analytic in forms.items():
            table.add(
                **{
                    "strategy": strat,
                    "A (hosts)": a,
                    "B (dev/host)": b,
                    "simulated (s)": simulate_strategy(strat, a, b, nbytes, n_chunks),
                    "analytic (s)": analytic,
                }
            )
    return table
