"""Logical device meshes over a simulated cluster.

Following GSPMD/Alpa (paper §2.2), a *device mesh* is a 2-D logical view
``(m1, m2)`` of a group of physical devices.  A cluster of 2 nodes with 2
GPUs each can be viewed as a ``(2, 2)`` mesh ``[[0, 1], [2, 3]]`` or as a
``(1, 4)`` mesh ``[[0, 1, 2, 3]]``.  The mesh does not have to align with
host boundaries; host locality is recovered through the cluster.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..sim.cluster import Cluster

__all__ = ["DeviceMesh"]


class DeviceMesh:
    """A 2-D logical arrangement of distinct cluster devices."""

    def __init__(self, cluster: Cluster, device_grid: Sequence[Sequence[int]]) -> None:
        if not device_grid or not device_grid[0]:
            raise ValueError("device grid must be non-empty")
        width = len(device_grid[0])
        if any(len(row) != width for row in device_grid):
            raise ValueError("device grid rows must have equal length")
        flat = [int(d) for row in device_grid for d in row]
        if len(set(flat)) != len(flat):
            raise ValueError(f"duplicate devices in mesh: {flat}")
        for d in flat:
            cluster.device(d)  # raises KeyError on unknown device
        self.cluster = cluster
        self.grid: tuple[tuple[int, ...], ...] = tuple(
            tuple(int(d) for d in row) for row in device_grid
        )
        self.shape: tuple[int, int] = (len(self.grid), width)
        self._coords = {
            self.grid[i][j]: (i, j)
            for i in range(self.shape[0])
            for j in range(self.shape[1])
        }

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_hosts(
        cls,
        cluster: Cluster,
        host_ids: Iterable[int],
        devices_per_host: Optional[int] = None,
    ) -> "DeviceMesh":
        """Mesh with one row per host (the Alpa convention).

        ``devices_per_host`` selects the first N devices of each host;
        defaults to all of them.
        """
        hosts = list(host_ids)
        if not hosts:
            raise ValueError("need at least one host")
        dph = (
            cluster.spec.devices_per_host
            if devices_per_host is None
            else devices_per_host
        )
        if not 1 <= dph <= cluster.spec.devices_per_host:
            raise ValueError(
                f"devices_per_host={dph} outside [1, {cluster.spec.devices_per_host}]"
            )
        n_hosts = cluster.spec.n_hosts
        for h in hosts:
            if not 0 <= h < n_hosts:
                raise ValueError(f"unknown host {h} (valid: 0..{n_hosts - 1})")
        grid = [
            [cluster.hosts[h].devices[i].device_id for i in range(dph)] for h in hosts
        ]
        return cls(cluster, grid)

    def reshaped(self, m1: int, m2: int) -> "DeviceMesh":
        """Reinterpret the same devices (row-major) as an ``(m1, m2)`` mesh."""
        flat = [d for row in self.grid for d in row]
        if m1 * m2 != len(flat):
            raise ValueError(
                f"cannot reshape {len(flat)} devices into ({m1}, {m2})"
            )
        grid = [flat[i * m2 : (i + 1) * m2] for i in range(m1)]
        return DeviceMesh(self.cluster, grid)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def devices(self) -> tuple[int, ...]:
        """All device ids, row-major."""
        return tuple(d for row in self.grid for d in row)

    @property
    def n_devices(self) -> int:
        return self.shape[0] * self.shape[1]

    @property
    def hosts(self) -> tuple[int, ...]:
        """Host ids spanned by the mesh, ascending."""
        return tuple(sorted({self.cluster.host_of(d) for d in self.devices}))

    def device_at(self, i: int, j: int) -> int:
        return self.grid[i][j]

    def coords_of(self, device_id: int) -> tuple[int, int]:
        try:
            return self._coords[device_id]
        except KeyError:
            raise KeyError(f"device {device_id} not in mesh") from None

    def host_of(self, device_id: int) -> int:
        if device_id not in self._coords:
            raise KeyError(f"device {device_id} not in mesh")
        return self.cluster.host_of(device_id)

    def disjoint_from(self, other: "DeviceMesh") -> bool:
        """True when the two meshes share no device (cross-mesh setting)."""
        return not set(self.devices) & set(other.devices)

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DeviceMesh)
            and self.grid == other.grid
            and self.cluster is other.cluster
        )

    def __hash__(self) -> int:
        return hash((id(self.cluster), self.grid))

    def __repr__(self) -> str:
        return f"DeviceMesh{self.shape}{list(map(list, self.grid))}"
