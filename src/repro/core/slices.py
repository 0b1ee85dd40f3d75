"""Slice algebra: tile grids, regions, and device <-> tile maps.

A sharding spec over a mesh induces a *tile grid* on the tensor: every
tensor dimension is cut into contiguous intervals (one per shard index)
and each device of the mesh holds exactly one tile, possibly replicated
across the mesh axes the spec leaves unused.  A *region* is an axis-
aligned box ``((start, stop), ...)`` in tensor index space.

Uneven dimensions are split with the NumPy ``array_split`` convention
(the first ``size % n`` parts get one extra element), which is how the
paper's system "efficiently handles tiling, padding" (§5.1.1); the Alpa
baseline refuses uneven splits and falls back (see
:mod:`repro.strategies.allgather`).
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import product
from typing import Iterator, Optional, Sequence

from .. import checks
from .mesh import DeviceMesh
from .spec import ShardingSpec

__all__ = [
    "Region",
    "split_offsets",
    "region_intersection",
    "region_size",
    "region_shape",
    "TileGrid",
]

Region = tuple[tuple[int, int], ...]


def split_offsets(size: int, n: int) -> tuple[int, ...]:
    """Offsets cutting ``[0, size)`` into ``n`` near-equal intervals.

    Returns ``n + 1`` ascending offsets; interval ``k`` is
    ``[offsets[k], offsets[k+1])``.  Matches ``numpy.array_split``.
    Both arguments must be integers (:func:`repro.checks.integer`) with
    ``1 <= n <= size``; anything else raises ``ValueError``.
    """
    # One chained test passes a valid call; a call it fails re-runs the
    # checks one at a time, in order, to raise the first error.
    if not (type(size) is int is type(n) and 1 <= n <= size):
        checks.integer("n", n, -math.inf)
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        checks.integer("size", size, -math.inf)
        if size < n:
            raise ValueError(f"cannot split size {size} into {n} non-empty parts")
    q, r = divmod(size, n)
    offsets = [0]
    for k in range(n):
        offsets.append(offsets[-1] + q + (1 if k < r else 0))
    return tuple(offsets)


def region_intersection(a: Region, b: Region) -> Optional[Region]:
    """Intersection box of two regions, or None when empty."""
    if len(a) != len(b):
        raise ValueError(f"rank mismatch: {len(a)} vs {len(b)}")
    out = []
    for (a0, a1), (b0, b1) in zip(a, b):
        lo, hi = max(a0, b0), min(a1, b1)
        if lo >= hi:
            return None
        out.append((lo, hi))
    return tuple(out)


def region_shape(r: Region) -> tuple[int, ...]:
    return tuple(hi - lo for lo, hi in r)


def region_size(r: Region) -> int:
    """Number of elements in the region."""
    return reduce(lambda x, y: x * y, (hi - lo for lo, hi in r), 1)


class TileGrid:
    """The tiling of one tensor induced by (shape, spec, mesh)."""

    def __init__(
        self, shape: Sequence[int], spec: ShardingSpec, mesh: DeviceMesh
    ) -> None:
        spec.validate(shape, mesh)
        self.shape = tuple(int(s) for s in shape)
        self.spec = spec
        self.mesh = mesh
        self.shards = spec.shards_per_dim(mesh)
        self.boundaries: tuple[tuple[int, ...], ...] = tuple(
            split_offsets(size, n) for size, n in zip(self.shape, self.shards)
        )

    # ------------------------------------------------------------------
    # Tiles
    # ------------------------------------------------------------------
    def tile_region(self, idx: Sequence[int]) -> Region:
        """The tensor region of tile ``idx`` (one index per dim)."""
        if len(idx) != len(self.shape):
            raise ValueError(f"tile index rank {len(idx)} != tensor rank")
        out = []
        for k, b in zip(idx, self.boundaries):
            if not 0 <= k < len(b) - 1:
                raise IndexError(f"tile index {k} out of range [0, {len(b) - 1})")
            out.append((b[k], b[k + 1]))
        return tuple(out)

    def all_tile_indices(self) -> Iterator[tuple[int, ...]]:
        """All tile indices, lexicographic."""
        return product(*(range(n) for n in self.shards))

    # ------------------------------------------------------------------
    # Device <-> tile mapping
    # ------------------------------------------------------------------
    def tile_index_of_coords(self, coords: tuple[int, int]) -> tuple[int, ...]:
        """Tile held by the device at mesh coordinates ``coords``.

        A dimension sharded along mesh axes ``(a, b, ...)`` uses the
        mixed-radix number formed by the device's coordinates on those
        axes (most significant first), matching GSPMD's ``S^{01}``.
        """
        idx = []
        for axes in self.spec.dims:
            k = 0
            for a in axes:
                k = k * self.mesh.shape[a] + coords[a]
            idx.append(k)
        return tuple(idx)

    def device_tile_index(self, device_id: int) -> tuple[int, ...]:
        return self.tile_index_of_coords(self.mesh.coords_of(device_id))

    def device_region(self, device_id: int) -> Region:
        """The tensor region device ``device_id`` holds."""
        return self.tile_region(self.device_tile_index(device_id))

    def tile_replicas(self, idx: Sequence[int]) -> tuple[int, ...]:
        """All devices holding tile ``idx`` (the slice's replica set)."""
        idx = tuple(idx)
        out = [
            self.mesh.device_at(i, j)
            for i in range(self.mesh.shape[0])
            for j in range(self.mesh.shape[1])
            if self.tile_index_of_coords((i, j)) == idx
        ]
        if not out:
            raise IndexError(f"no device holds tile {idx}")
        return tuple(out)

    def __repr__(self) -> str:
        return (
            f"TileGrid(shape={self.shape}, spec={self.spec}, "
            f"mesh={self.mesh.shape}, shards={self.shards})"
        )
