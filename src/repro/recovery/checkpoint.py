"""Iteration-boundary checkpointing with a simulated write cost model.

State is checkpointed at iteration boundaries only (the pipeline is
drained, so a checkpoint is a consistent cut by construction).  Each
host writes the shards it owns to durable storage at
``write_bandwidth``; hosts write in parallel, so the charged wall-clock
cost of one checkpoint is the *maximum* per-host write time.

With ``replicate=True`` (the default) stage ``s``'s checkpoint is also
buddy-replicated onto a peer stage's mesh — by default ``(s+1) % S``,
but when the cluster declares failure domains :func:`buddy_assignment`
prefers the first ring peer whose hosts share *no* domain with the
primary's, so a rack/PDU loss cannot take out a shard and its only
replica together.  That costs extra bytes per host but buys fail-stop
survivability: when a host dies, every shard it held still exists on a
different host, and recovery becomes a genuine cross-mesh resharding
problem (buddy mesh -> rebuilt mesh) solved with the paper's own
machinery.  Without replication the loss of any primary host makes its
stage's state unrecoverable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .. import checks
from ..core.mesh import DeviceMesh

__all__ = [
    "CheckpointConfig",
    "Checkpoint",
    "CheckpointStore",
    "buddy_assignment",
    "optimal_interval",
]


def buddy_assignment(meshes: list[DeviceMesh]) -> list[int]:
    """Pick a buddy stage for each stage, avoiding shared failure domains.

    Returns ``out`` where stage ``s``'s checkpoint is buddy-replicated
    onto ``meshes[out[s]]``.  For each stage the candidates are scanned
    in ring order ``(s+1) % S, (s+2) % S, ...`` and the first whose
    hosts share no :class:`~repro.sim.cluster.FailureDomain` with the
    primary's hosts wins; when every peer shares a domain (or none are
    declared) the classic ring buddy ``(s+1) % S`` is kept, preserving
    the original behavior on domain-free clusters.
    """
    n = len(meshes)
    out: list[int] = []
    for s, primary in enumerate(meshes):
        spec = primary.cluster.spec
        chosen = (s + 1) % n
        if spec.failure_domains:
            for k in range(1, n):
                cand = (s + k) % n
                if not any(
                    spec.shares_domain(hp, hb)
                    for hp in primary.hosts
                    for hb in meshes[cand].hosts
                ):
                    chosen = cand
                    break
        out.append(chosen)
    return out


@dataclass(frozen=True)
class CheckpointConfig:
    """Checkpointing policy and storage cost model.

    ``interval`` is in iterations; ``0`` disables checkpointing (a
    fault-free baseline — any permanent failure is then unrecoverable).
    Bandwidths are per-host, bytes/second, against durable storage.
    ``detection_latency`` is the time between a host dying and the
    runtime learning about it (health-check period + timeout).
    """

    interval: int = 10
    write_bandwidth: float = 2e9
    read_bandwidth: float = 4e9
    replicate: bool = True
    detection_latency: float = 5.0

    def __post_init__(self) -> None:
        checks.integer("interval", self.interval, 0)
        checks.real("write_bandwidth", self.write_bandwidth, "(0, inf)")
        checks.real("read_bandwidth", self.read_bandwidth, "(0, inf)")
        checks.real("detection_latency", self.detection_latency, "[0, inf)")

    @property
    def enabled(self) -> bool:
        return self.interval > 0


@dataclass
class Checkpoint:
    """One consistent snapshot of per-stage training state.

    ``arrays[s]`` is the *global* (unsharded) state of stage ``s`` —
    the logical content; physically it lives sharded over
    ``primary_meshes[s]`` and, when replicated, also over
    ``buddy_meshes[s]`` (the :func:`buddy_assignment` peer mesh at
    snapshot time).
    """

    iteration: int
    time: float
    arrays: dict[int, np.ndarray]
    primary_meshes: list[DeviceMesh]
    buddy_meshes: Optional[list[DeviceMesh]] = None

    @property
    def n_stages(self) -> int:
        return len(self.arrays)

    def replicas_of(self, stage: int) -> list[DeviceMesh]:
        """Meshes holding a full sharded copy of ``stage``'s state."""
        out = [self.primary_meshes[stage]]
        if self.buddy_meshes is not None:
            out.append(self.buddy_meshes[stage])
        return out

    def state_bytes(self, stage: int) -> int:
        return self.arrays[stage].nbytes


class CheckpointStore:
    """Holds the latest checkpoint and prices writes and reads.

    The store keeps only the most recent snapshot (the usual production
    policy for iteration checkpoints) plus counters for reporting.
    """

    def __init__(self, config: CheckpointConfig) -> None:
        self.config = config
        self.latest: Optional[Checkpoint] = None
        self.n_writes = 0
        self.total_write_time = 0.0

    # -- cost model ----------------------------------------------------
    def _bytes_per_host(
        self, arrays: dict[int, np.ndarray], meshes: list[DeviceMesh]
    ) -> dict[int, float]:
        """Bytes each host must persist for one snapshot."""
        per_host: dict[int, float] = {}
        buddies = buddy_assignment(meshes) if self.config.replicate else []
        for s, mesh in enumerate(meshes):
            copies = [mesh]
            if self.config.replicate:
                copies.append(meshes[buddies[s]])
            for m in copies:
                share = arrays[s].nbytes / max(m.n_devices, 1)
                for d in m.devices:
                    h = m.cluster.host_of(d)
                    per_host[h] = per_host.get(h, 0.0) + share
        return per_host

    def write_time(
        self, arrays: dict[int, np.ndarray], meshes: list[DeviceMesh]
    ) -> float:
        """Wall-clock cost of one checkpoint (max over parallel hosts)."""
        per_host = self._bytes_per_host(arrays, meshes)
        if not per_host:
            return 0.0
        return max(per_host.values()) / self.config.write_bandwidth

    def read_time(self, checkpoint: Checkpoint) -> float:
        """Wall-clock cost of loading the snapshot back (max over hosts)."""
        per_host = self._bytes_per_host(
            checkpoint.arrays, checkpoint.primary_meshes
        )
        if not per_host:
            return 0.0
        return max(per_host.values()) / self.config.read_bandwidth

    # -- snapshotting --------------------------------------------------
    def write(
        self,
        iteration: int,
        time: float,
        state: dict[int, np.ndarray],
        meshes: list[DeviceMesh],
    ) -> float:
        """Snapshot ``state`` at ``iteration``; returns the charged cost."""
        if not self.config.enabled:
            return 0.0
        self.latest = Checkpoint(
            iteration=iteration,
            time=time,
            arrays={s: a.copy() for s, a in state.items()},
            primary_meshes=list(meshes),
            buddy_meshes=(
                [meshes[b] for b in buddy_assignment(meshes)]
                if self.config.replicate
                else None
            ),
        )
        cost = self.write_time(state, meshes)
        self.n_writes += 1
        self.total_write_time += cost
        return cost


def optimal_interval(mtbf: float, checkpoint_cost: float) -> float:
    """Young/Daly optimal checkpoint interval, in seconds.

    First-order optimum ``sqrt(2 * delta * MTBF)`` for checkpoint cost
    ``delta`` and exponential failures with the given mean — the
    analytic baseline the recovery experiments sweep against.
    """
    if mtbf <= 0 or checkpoint_cost < 0:
        raise ValueError("mtbf must be positive and checkpoint_cost >= 0")
    return math.sqrt(2.0 * checkpoint_cost * mtbf)
