"""Cross-mesh resharding tasks and their decomposition (paper §2.2).

A :class:`ReshardingTask` sends one tensor, sharded on a source mesh
under a source spec, to a destination mesh under a destination spec.  It
decomposes into :class:`UnitCommTask`\\ s — one per *unique data slice*
on the source mesh — each responsible for delivering its slice to the
subset of destination devices whose tiles overlap it.  This is exactly
the paper's decomposition (Figure 2): receivers that need only part of a
slice receive the slice and crop locally.

For strategies that transfer exact sub-regions instead (plain
send/recv), :meth:`ReshardingTask.intersections` yields the finer
``src tile x dst tile`` pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .. import checks
from .mesh import DeviceMesh
from .slices import Region, TileGrid, region_intersection
from .spec import ShardingSpec, parse_spec
from .tensor import nbytes_of, region_nbytes

__all__ = ["UnitCommTask", "IntersectionTransfer", "ReshardingTask"]


@dataclass(frozen=True)
class UnitCommTask:
    """One multicast unit: a region, its holders, and its requesters.

    ``senders`` are the source devices holding a replica of the region
    (the paper's ``N_i``); ``receivers`` the destination devices that
    must end up with it (``M_i``).  At ``"slice"`` granularity the
    region is a full source tile and ``dst_tile`` is None; at
    ``"intersection"`` granularity (the default, matching the unit-task
    counts of the paper's §5) it is one overlap-grid tile and both
    parent tiles are recorded.
    """

    task_id: int
    src_tile: tuple[int, ...]
    region: Region
    senders: tuple[int, ...]
    receivers: tuple[int, ...]
    nbytes: int
    dst_tile: Optional[tuple[int, ...]] = None


@dataclass(frozen=True)
class IntersectionTransfer:
    """An exact ``src tile ∩ dst tile`` piece for send/recv strategies."""

    src_tile: tuple[int, ...]
    dst_tile: tuple[int, ...]
    region: Region
    senders: tuple[int, ...]
    receivers: tuple[int, ...]
    nbytes: int


class ReshardingTask:
    """Send tensor ``D`` from (src_mesh, src_spec) to (dst_mesh, dst_spec)."""

    def __init__(
        self,
        shape,
        src_mesh: DeviceMesh,
        src_spec: "str | ShardingSpec",
        dst_mesh: DeviceMesh,
        dst_spec: "str | ShardingSpec",
        dtype=np.float32,
        require_disjoint: bool = True,
    ) -> None:
        shape = tuple(shape)
        for s in shape:
            # int() would silently truncate 8.5 and accept "8" or True;
            # a size below 1 fails where the dimension is split
            checks.integer("shape", s, -math.inf)
        self.shape = tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype)
        self.src_mesh = src_mesh
        self.dst_mesh = dst_mesh
        self.src_spec = parse_spec(src_spec)
        self.dst_spec = parse_spec(dst_spec)
        if src_mesh.cluster is not dst_mesh.cluster:
            raise ValueError("meshes must live on the same cluster")
        if require_disjoint and not src_mesh.disjoint_from(dst_mesh):
            raise ValueError(
                "cross-mesh resharding requires disjoint meshes "
                f"(shared: {set(src_mesh.devices) & set(dst_mesh.devices)})"
            )
        self.src_grid = TileGrid(self.shape, self.src_spec, src_mesh)
        self.dst_grid = TileGrid(self.shape, self.dst_spec, dst_mesh)
        self._unit_tasks: dict[str, list[UnitCommTask]] = {}
        self._intersections: Optional[list[IntersectionTransfer]] = None
        #: the plan cache's task signature and its repr, built on first use
        self._signature: Optional[tuple[tuple[object, ...], str]] = None

    # ------------------------------------------------------------------
    @property
    def cluster(self):
        return self.src_mesh.cluster

    @property
    def total_nbytes(self) -> int:
        """Size of D — the lower bound on inter-mesh traffic (§2.2)."""
        n = 1
        for s in self.shape:
            n *= s
        return nbytes_of(n, self.dtype)

    # ------------------------------------------------------------------
    # Decompositions
    # ------------------------------------------------------------------
    def unit_tasks(self, granularity: str = "intersection") -> list[UnitCommTask]:
        """Decompose into unit communication tasks (cached per granularity).

        ``"intersection"`` (default): one task per non-empty overlap-grid
        tile (src tile ∩ dst tile); each receiver gets exactly the bytes
        it needs.  This matches the unit-task counts in the paper's
        evaluation (e.g. 64 tasks in Table 2's case 4, one in case 8).

        ``"slice"``: one task per unique source data slice, sent whole
        to every destination device overlapping it, which then crops
        locally — the coarser decomposition described in §2.2's prose.
        """
        if granularity not in ("intersection", "slice"):
            raise ValueError(
                f"granularity must be 'intersection' or 'slice', got {granularity!r}"
            )
        if granularity not in self._unit_tasks:
            tasks: list[UnitCommTask] = []
            if granularity == "slice":
                for tid, idx in enumerate(self.src_grid.all_tile_indices()):
                    region = self.src_grid.tile_region(idx)
                    senders = self.src_grid.tile_replicas(idx)
                    receivers = tuple(
                        d
                        for d in self.dst_mesh.devices
                        if region_intersection(
                            self.dst_grid.device_region(d), region
                        )
                        is not None
                    )
                    tasks.append(
                        UnitCommTask(
                            task_id=tid,
                            src_tile=idx,
                            region=region,
                            senders=senders,
                            receivers=receivers,
                            nbytes=region_nbytes(region, self.dtype),
                        )
                    )
            else:
                for tid, tr in enumerate(self.intersections()):
                    tasks.append(
                        UnitCommTask(
                            task_id=tid,
                            src_tile=tr.src_tile,
                            region=tr.region,
                            senders=tr.senders,
                            receivers=tr.receivers,
                            nbytes=tr.nbytes,
                            dst_tile=tr.dst_tile,
                        )
                    )
            self._unit_tasks[granularity] = tasks
        return self._unit_tasks[granularity]

    def intersections(self) -> list[IntersectionTransfer]:
        """Exact src-tile x dst-tile pieces (cached)."""
        if self._intersections is None:
            out: list[IntersectionTransfer] = []
            dst_tiles = [
                (didx, self.dst_grid.tile_region(didx), self.dst_grid.tile_replicas(didx))
                for didx in self.dst_grid.all_tile_indices()
            ]
            for sidx in self.src_grid.all_tile_indices():
                sregion = self.src_grid.tile_region(sidx)
                senders = self.src_grid.tile_replicas(sidx)
                for didx, dregion, receivers in dst_tiles:
                    inter = region_intersection(sregion, dregion)
                    if inter is None:
                        continue
                    out.append(
                        IntersectionTransfer(
                            src_tile=sidx,
                            dst_tile=didx,
                            region=inter,
                            senders=senders,
                            receivers=receivers,
                            nbytes=region_nbytes(inter, self.dtype),
                        )
                    )
            self._intersections = out
        return self._intersections

    # ------------------------------------------------------------------
    # Host-level views used by the scheduler (§3.2 works at host level)
    # ------------------------------------------------------------------
    def sender_hosts(self, task: UnitCommTask) -> frozenset[int]:
        """Hosts offering a replica of the task's slice (``n_i``)."""
        return frozenset(self.cluster.host_of(d) for d in task.senders)

    def receiver_hosts(self, task: UnitCommTask) -> frozenset[int]:
        """Hosts that must receive the slice (``m_i``)."""
        return frozenset(self.cluster.host_of(d) for d in task.receivers)

    def occupied_hosts(self, task: UnitCommTask, sender_host: int) -> frozenset[int]:
        """Hosts the task occupies when sent from ``sender_host``.

        Its receiver hosts plus the sender host: two unit tasks sharing
        one of these may not overlap (the paper's Eq. 3).
        """
        return self.receiver_hosts(task) | {sender_host}

    def holds(self, device: int, region: Region) -> bool:
        """True when source device ``device`` holds all of ``region``."""
        if device not in self.src_mesh.devices:
            return False
        own = self.src_grid.device_region(device)
        return len(own) == len(region) and region_intersection(own, region) == region

    def __repr__(self) -> str:
        return (
            f"ReshardingTask({self.src_spec}@{self.src_mesh.shape} -> "
            f"{self.dst_spec}@{self.dst_mesh.shape}, shape={self.shape}, "
            f"dtype={self.dtype.name})"
        )
