"""Distributed tensors with real NumPy shards on simulated devices.

This is the functional-correctness layer the paper gets for free from
NCCL: a :class:`DistributedTensor` places actual array tiles on each
device of a mesh according to a sharding spec, and the data interpreter
(:mod:`repro.core.data`) moves those bytes following a CommPlan so tests
can verify every destination device ends up with exactly its tile.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .mesh import DeviceMesh
from .slices import Region, TileGrid, region_shape, region_size
from .spec import ShardingSpec, parse_spec

__all__ = ["DistributedTensor", "read_region", "nbytes_of", "region_nbytes"]


def nbytes_of(n_elements: int, dtype: "np.dtype") -> int:
    """Bytes occupied by ``n_elements`` values of ``dtype``.

    The single source of truth for sizeof math: every byte count in the
    repo derives from here (or :func:`region_nbytes`), so dtype handling
    cannot silently diverge between the planner, the analyzers, and the
    fixture loader.  Raw ``count * itemsize`` arithmetic anywhere else
    is rejected by repro-lint rule L004.
    """
    return int(n_elements) * np.dtype(dtype).itemsize


def region_nbytes(region: Region, dtype: "np.dtype") -> int:
    """Bytes occupied by one ``dtype`` tensor region."""
    return nbytes_of(region_size(region), dtype)


def _region_slices(region: Region) -> tuple[slice, ...]:
    return tuple(slice(lo, hi) for lo, hi in region)


def read_region(tile: np.ndarray, tile_region: Region, want: Region) -> np.ndarray:
    """Crop ``want`` (global coordinates) out of a device's tile array."""
    rel = []
    for (t0, t1), (w0, w1) in zip(tile_region, want):
        if not (t0 <= w0 and w1 <= t1):
            raise ValueError(f"region {want} not contained in tile {tile_region}")
        rel.append(slice(w0 - t0, w1 - t0))
    return tile[tuple(rel)]


class DistributedTensor:
    """A tensor sharded over a mesh; each device holds its tile."""

    def __init__(
        self,
        mesh: DeviceMesh,
        spec: "str | ShardingSpec",
        shape,
        shards: Mapping[int, np.ndarray],
        dtype=None,
    ) -> None:
        self.mesh = mesh
        self.spec = parse_spec(spec)
        self.shape = tuple(int(s) for s in shape)
        self.grid = TileGrid(self.shape, self.spec, mesh)
        self.dtype = np.dtype(dtype) if dtype is not None else None
        self.shards: dict[int, np.ndarray] = {}
        missing = set(mesh.devices) - set(shards)
        if missing:
            raise ValueError(f"missing shards for devices {sorted(missing)}")
        for d in mesh.devices:
            arr = np.asarray(shards[d])
            want = region_shape(self.grid.device_region(d))
            if arr.shape != want:
                raise ValueError(
                    f"device {d}: shard shape {arr.shape} != tile shape {want}"
                )
            if self.dtype is None:
                self.dtype = arr.dtype
            elif arr.dtype != self.dtype:
                raise ValueError(
                    f"device {d}: dtype {arr.dtype} != tensor dtype {self.dtype}"
                )
            self.shards[d] = arr

    # ------------------------------------------------------------------
    @classmethod
    def from_global(
        cls,
        mesh: DeviceMesh,
        spec: "str | ShardingSpec",
        array: np.ndarray,
    ) -> "DistributedTensor":
        """Shard a global array over the mesh per the spec."""
        array = np.asarray(array)
        spec = parse_spec(spec)
        grid = TileGrid(array.shape, spec, mesh)
        shards = {
            d: array[_region_slices(grid.device_region(d))].copy()
            for d in mesh.devices
        }
        return cls(mesh, spec, array.shape, shards, dtype=array.dtype)

    # ------------------------------------------------------------------
    def device_region(self, device_id: int) -> Region:
        return self.grid.device_region(device_id)

    def to_global(self) -> np.ndarray:
        """Reassemble the global tensor, verifying replica consistency."""
        out = np.empty(self.shape, dtype=self.dtype)
        covered = np.zeros(self.shape, dtype=bool)
        for d in self.mesh.devices:
            region = self.grid.device_region(d)
            sl = _region_slices(region)
            if covered[sl].any():
                if not np.array_equal(out[sl], self.shards[d]):
                    raise ValueError(
                        f"replica mismatch: device {d} disagrees on {region}"
                    )
            out[sl] = self.shards[d]
            covered[sl] = True
        if not covered.all():
            raise ValueError("mesh tiles do not cover the tensor")  # pragma: no cover
        return out

    def allclose(self, other: "DistributedTensor | np.ndarray", **kw) -> bool:
        if isinstance(other, DistributedTensor):
            other = other.to_global()
        return bool(np.allclose(self.to_global(), np.asarray(other), **kw))

    def __repr__(self) -> str:
        return (
            f"DistributedTensor(shape={self.shape}, dtype={self.dtype}, "
            f"spec={self.spec}, mesh={self.mesh.shape})"
        )
