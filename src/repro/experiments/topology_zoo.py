"""E8 — strategy x topology heatmap over the topology zoo.

The paper's broadcast-beats-allgather claim is an artifact of one
cluster shape: fast NVLink inside the host, a single flat non-blocking
tier between hosts.  This experiment maps where the claim holds and
where it breaks by running the same resharding (replicated slices on 2
source hosts fanned out to 6 receiving hosts) across the topology zoo:

* ``two_tier`` — the paper's baseline (golden-pinned elsewhere);
* ``fat_tree_1to1`` — 2-host leaves, non-blocking uplinks;
* ``fat_tree_4to1`` — same shape, 4:1 oversubscribed uplinks: the ring
  broadcast pays the contended uplink once per receiving host and
  chunk, switch multicast pays it once per chunk;
* ``torus_2d`` — 2x4 torus, no switches: multicast is unsupported
  (reported as ``n/a``), flows pay per-hop dimension-ordered routing;
* ``rail`` — rail-optimized: same-rail device pairs bypass the
  cross-rail stage;
* ``hetero`` — two-tier with per-pair ``link_overrides`` slowing the
  links into two of the receiving hosts to 1/4 rate.

Makespans come from the flow simulator, which contends switch ports in
the same max-min fixpoint as NICs — oversubscription is *priced*, not
asserted.  The quick mode (the default, also the :func:`payload`
``python -m repro report`` persists as ``BENCH_topology.json``) uses a
16 MB tensor; full mode uses 256 MB.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..core.executor import simulate_plan
from ..core.mesh import DeviceMesh
from ..core.task import ReshardingTask
from ..sim.cluster import Cluster, ClusterSpec, LinkOverride
from ..sim.topology import (
    FatTreeTopology,
    RailOptimizedTopology,
    TorusTopology,
)
from ..strategies import make_strategy
from .common import ExperimentTable

__all__ = ["run", "payload", "zoo_specs", "N_HOSTS", "STRATEGIES"]

N_HOSTS = 8
DEVICES_PER_HOST = 2
SRC_HOSTS = (0, 1)
DST_HOSTS = (2, 3, 4, 5, 6, 7)
STRATEGIES = ("broadcast", "multicast", "allgather")

QUICK_SHAPE = (2048, 2048)  # 16 MB fp32
FULL_SHAPE = (8192, 8192)  # 256 MB fp32


def zoo_specs() -> dict[str, ClusterSpec]:
    """The zoo: name -> 8-host cluster spec, identical scalar speeds."""
    base = dict(n_hosts=N_HOSTS, devices_per_host=DEVICES_PER_HOST)
    default = ClusterSpec()
    return {
        "two_tier": ClusterSpec(**base),
        "fat_tree_1to1": ClusterSpec(
            **base,
            topology=FatTreeTopology(hosts_per_leaf=2, oversubscription=1.0),
        ),
        "fat_tree_4to1": ClusterSpec(
            **base,
            topology=FatTreeTopology(hosts_per_leaf=2, oversubscription=4.0),
        ),
        "torus_2d": ClusterSpec(**base, topology=TorusTopology(rows=2, cols=4)),
        "rail": ClusterSpec(**base, topology=RailOptimizedTopology()),
        "hetero": ClusterSpec(
            **base,
            link_overrides=(
                LinkOverride(0, 6, bandwidth=default.inter_host_bandwidth / 4),
                LinkOverride(0, 7, bandwidth=default.inter_host_bandwidth / 4),
                LinkOverride(1, 6, bandwidth=default.inter_host_bandwidth / 4),
                LinkOverride(1, 7, bandwidth=default.inter_host_bandwidth / 4),
            ),
        ),
    }


def _measure(
    spec: ClusterSpec, strategy_name: str, shape: tuple[int, int]
) -> Optional[float]:
    """Makespan of the fan-out resharding, or None when unsupported."""
    cluster = Cluster(spec)
    src = DeviceMesh.from_hosts(cluster, SRC_HOSTS)
    dst = DeviceMesh.from_hosts(cluster, DST_HOSTS)
    task = ReshardingTask(shape, src, "S0R", dst, "RR", dtype=np.float32)
    strategy = make_strategy(strategy_name)
    if not strategy.supports(task):
        return None
    plan = strategy.plan(task)
    return simulate_plan(plan).total_time


def run(
    quick: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> ExperimentTable:
    shape = QUICK_SHAPE if quick else FULL_SHAPE
    nbytes = float(np.prod(shape)) * 4
    table = ExperimentTable(
        experiment_id="E8 (topology zoo)",
        title="Strategy x topology makespan heatmap",
        columns=["topology", "strategy", "makespan (s)", "vs broadcast"],
        notes=(
            f"Fan-out of a {nbytes / (1 << 20):.0f} MB fp32 tensor from "
            f"{len(SRC_HOSTS)} replica hosts to {len(DST_HOSTS)} receiving "
            "hosts; 'n/a' = strategy unsupported on that fabric (switch "
            "multicast needs switches). Switch ports are contended "
            "resources in the flow simulator's max-min fixpoint."
        ),
    )
    for topo_name, spec in zoo_specs().items():
        base: Optional[float] = None
        for strat in STRATEGIES:
            if progress is not None:
                progress(f"{topo_name} x {strat}")
            makespan = _measure(spec, strat, shape)
            if strat == "broadcast":
                base = makespan
            table.add(
                **{
                    "topology": topo_name,
                    "strategy": strat,
                    "makespan (s)": "n/a" if makespan is None else makespan,
                    "vs broadcast": (
                        "n/a"
                        if makespan is None or not base
                        else f"{makespan / base:.3f}x"
                    ),
                }
            )
    return table


def payload(quick: bool = True) -> dict:
    """Deterministic ``BENCH_topology.json`` payload: the raw heatmap.

    Raises unless switch multicast strictly beats the ring broadcast on
    the 4:1 oversubscribed fat-tree, that fat-tree is strictly slower
    than the non-blocking one of identical shape under both (the max-min
    fixpoint prices oversubscription), and the switchless torus reports
    multicast as unsupported.
    """
    shape = QUICK_SHAPE if quick else FULL_SHAPE
    out: dict = {
        "shape": list(shape),
        "n_hosts": N_HOSTS,
        "devices_per_host": DEVICES_PER_HOST,
        "makespans": {},
    }
    for topo_name, spec in zoo_specs().items():
        row = {}
        for strat in STRATEGIES:
            makespan = _measure(spec, strat, shape)
            # round: byte-stable across platforms, still a drift signal
            row[strat] = None if makespan is None else round(makespan, 9)
        out["makespans"][topo_name] = row
    grid = out["makespans"]
    for topo, row in grid.items():
        if not all(row[s] is not None and row[s] > 0 for s in ("broadcast", "allgather")):
            raise RuntimeError(f"{topo}: broadcast or allgather has no makespan")
    over, flat = grid["fat_tree_4to1"], grid["fat_tree_1to1"]
    if over["multicast"] is None or not over["multicast"] < over["broadcast"]:
        raise RuntimeError(f"multicast does not beat broadcast on fat_tree_4to1: {over}")
    if not (over["broadcast"] > flat["broadcast"] and over["multicast"] > flat["multicast"]):
        raise RuntimeError(f"oversubscription is free: {over} vs {flat}")
    if grid["torus_2d"]["multicast"] is not None:
        raise RuntimeError("the switchless torus reports a multicast makespan")
    return out
