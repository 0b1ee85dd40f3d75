"""Distributed tensors with real NumPy shards on simulated devices.

This is the functional-correctness layer the paper gets for free from
NCCL: a :class:`DistributedTensor` places actual array tiles on each
device of a mesh according to a sharding spec, and the data interpreter
(:mod:`repro.core.data`) moves those bytes following a CommPlan so tests
can verify every destination device ends up with exactly its tile.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, Mapping, MutableMapping, Optional, Sequence

import numpy as np

from .mesh import DeviceMesh
from .slices import Region, TileGrid, region_intersection, region_shape, region_size
from .spec import ShardingSpec, parse_spec

__all__ = [
    "DistributedTensor",
    "Shards",
    "read_region",
    "nbytes_of",
    "region_nbytes",
    "same_values",
    "assemble",
    "array_or_shape",
]


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


def _within(box: Region, outer: Region) -> tuple[slice, ...]:
    """Slices selecting ``box`` out of an array that holds ``outer``."""
    return tuple(slice(b0 - o0, b1 - o0) for (b0, b1), (o0, _) in zip(box, outer))


def same_values(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two same-shape arrays hold equal values, NaN matching NaN.

    The one equality of replicas and overlapping pieces, and true of any
    array and itself.  ``-0.0`` matches ``0.0``; a float or complex NaN
    matches any NaN (plain ``np.array_equal`` calls NaN unequal to
    itself); bool and integer arrays compare with ``==``; object arrays
    compare element by element as Python containers do, ``x is y or
    x == y``, so an object matches itself even where it is not equal to
    itself, as a NaN is.
    """
    if a.dtype.kind == "O" or b.dtype.kind == "O":
        return a.shape == b.shape and all(
            x is y or x == y for x, y in zip(a.flat, b.flat)
        )
    return np.array_equal(a, b) or (
        a.dtype.kind in "fc" and np.array_equal(a, b, equal_nan=True)
    )


def assemble(
    want: Region,
    pieces: Sequence[tuple[Region, np.ndarray]],
    dtype: "np.dtype",
) -> tuple[np.ndarray, Optional[int], int]:
    """Assemble the box ``want`` from ``(region, data)`` pieces.

    ``data`` is shaped like its ``region`` (global coordinates); the part
    of a piece outside ``want`` is ignored.  Returns ``(tile, conflict,
    missing)``: ``conflict`` is the index of the first piece, in order,
    whose values (by :func:`same_values`) differ from an earlier piece's
    where the two overlap, or ``None``; ``missing`` counts the elements
    of ``want`` no piece covers.  Where pieces overlap, ``tile`` holds the
    last piece's bytes, as if the pieces were written in order.

    Coverage lives on the grid of the pieces' distinct boundaries along
    each axis, not per element.  Pieces are placed last first: each
    writes only the cells no later piece wrote and is compared with the
    tile on the others, so every element of ``tile`` is written once and
    compared once for each other piece that covers it.  A piece that a
    later piece repeats (the same region of the same buffer object, as
    replicas sharing one stored tile give) is not placed: the repeat
    writes the same bytes, and as :func:`same_values` is true of an array
    and itself, it changes neither the tile, the conflict nor the count.
    """
    last = {(region, id(data)): k for k, (region, data) in enumerate(pieces)}
    clipped = []
    placed = []
    for k, (region, data) in enumerate(pieces):
        inter = region_intersection(region, want)
        if inter is not None:
            clipped.append((k, inter, data[_within(inter, region)]))
            if last[region, id(data)] == k:
                placed.append(clipped[-1])
    bounds = [
        sorted({w0, w1, *(b for _, inter, _ in clipped for b in inter[axis])})
        for axis, (w0, w1) in enumerate(want)
    ]
    index = [{b: i for i, b in enumerate(axis)} for axis in bounds]
    covered = np.zeros([len(axis) - 1 for axis in bounds], dtype=bool)
    tile = np.empty(region_shape(want), dtype=dtype)
    agree = True
    for _, inter, data in reversed(placed):
        cells = tuple(slice(ix[lo], ix[hi]) for ix, (lo, hi) in zip(index, inter))
        done = covered[cells]
        if not done.any():
            tile[_within(inter, want)] = data
        elif done.all():
            agree = agree and same_values(tile[_within(inter, want)], data)
        else:
            for cell in np.ndindex(done.shape):
                box = tuple(
                    (axis[c.start + i], axis[c.start + i + 1])
                    for axis, c, i in zip(bounds, cells, cell)
                )
                if not done[cell]:
                    tile[_within(box, want)] = data[_within(box, inter)]
                elif agree:
                    agree = same_values(tile[_within(box, want)], data[_within(box, inter)])
        covered[cells] = True
    volume = np.ones((), dtype=np.int64)
    for axis in bounds:
        volume = np.multiply.outer(volume, np.diff(axis))
    missing = int(volume[~covered].sum())
    return tile, None if agree else _first_conflict(clipped), missing


def _first_conflict(clipped: list[tuple[int, Region, np.ndarray]]) -> int:
    """Index of the first clipped piece that disagrees with an earlier one.

    Equal values (:func:`same_values`) are an equivalence, so a piece
    disagrees with what in-order writes left in the tile exactly when it
    disagrees with some earlier piece on their common box.
    """
    for n, (k, rk, dk) in enumerate(clipped):
        for _, rj, dj in clipped[:n]:
            box = region_intersection(rk, rj)
            if box is not None and not same_values(dk[_within(box, rk)], dj[_within(box, rj)]):
                return k
    raise AssertionError("pieces disagree but no pair does")  # pragma: no cover


def array_or_shape(tensor_or_shape, dtype) -> tuple[Optional[np.ndarray], tuple, "np.dtype"]:
    """Split a ``tensor_or_shape`` argument into ``(array, shape, dtype)``.

    An array brings its own shape and dtype; anything else must be an
    iterable shape, and ``array`` is ``None``.
    """
    if isinstance(tensor_or_shape, np.ndarray):
        return tensor_or_shape, tensor_or_shape.shape, tensor_or_shape.dtype
    try:
        shape = tuple(tensor_or_shape)
    except TypeError:
        raise ValueError(
            "tensor_or_shape must be a NumPy array or a shape tuple, "
            f"got {type(tensor_or_shape).__name__} {tensor_or_shape!r}"
        ) from None
    return None, shape, dtype


def read_region(tile: np.ndarray, tile_region: Region, want: Region) -> np.ndarray:
    """Crop ``want`` (global coordinates) out of a device's tile array."""
    rel = []
    for (t0, t1), (w0, w1) in zip(tile_region, want):
        if not (t0 <= w0 and w1 <= t1):
            raise ValueError(f"region {want} not contained in tile {tile_region}")
        rel.append(slice(w0 - t0, w1 - t0))
    return tile[tuple(rel)]


class Shards(MutableMapping[int, np.ndarray]):
    """A tensor's shards by device, where replicas may share one stored tile.

    ``stored`` maps each device to its array; the devices in ``shared``
    store one array object with some other device.  Reading a shared
    device's shard through the mapping first gives it its own copy, so
    every shard a caller obtains is writable if its array was and
    independent of every other device's.  ``stored`` is for readers that
    only read, such as :meth:`DistributedTensor.to_global` and the data
    plane: a shared tile is read there without copying.
    """

    __slots__ = ("stored", "shared")

    def __init__(self, stored: dict[int, np.ndarray]) -> None:
        self.stored = stored
        refs = Counter(id(arr) for arr in stored.values())
        self.shared = {d for d, arr in stored.items() if refs[id(arr)] > 1}

    def __getitem__(self, device: int) -> np.ndarray:
        if device in self.shared:
            self.shared.discard(device)
            self.stored[device] = self.stored[device].copy()
        return self.stored[device]

    def __setitem__(self, device: int, shard: np.ndarray) -> None:
        self.shared.discard(device)
        self.stored[device] = shard

    def __delitem__(self, device: int) -> None:
        self.shared.discard(device)
        del self.stored[device]

    def __contains__(self, device: object) -> bool:
        return device in self.stored

    def __iter__(self) -> Iterator[int]:
        return iter(self.stored)

    def __len__(self) -> int:
        return len(self.stored)


class DistributedTensor:
    """A tensor sharded over a mesh; each device holds its tile.

    Devices given the same array object are replicas of one stored tile:
    the tensor keeps that array once, and each device gets its own copy
    the first time its shard is read through :attr:`shards` (a
    :class:`Shards`).  :meth:`to_global` and :meth:`allclose` read the
    stored tiles in place and copy no replica.
    """

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
        missing = set(mesh.devices) - set(shards)
        if missing:
            raise ValueError(f"missing shards for devices {sorted(missing)}")
        stored: dict[int, np.ndarray] = {}
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
            stored[d] = arr
        self.shards = Shards(stored)

    # ------------------------------------------------------------------
    @classmethod
    def from_global(
        cls,
        mesh: DeviceMesh,
        spec: "str | ShardingSpec",
        array: np.ndarray,
    ) -> "DistributedTensor":
        """Shard a global array over the mesh per the spec.

        Each shard is a writable copy of its tile, made now and one per
        device, so a replica costs its tile's bytes.  A tensor that is
        only read, such as the source of a resharding, needs no copy:
        :meth:`view_global` shards the same way with read-only views.
        """
        tensor = cls.view_global(mesh, spec, array)
        tensor.shards = Shards({d: v.copy() for d, v in tensor.shards.stored.items()})
        return tensor

    @classmethod
    def view_global(
        cls,
        mesh: DeviceMesh,
        spec: "str | ShardingSpec",
        array: np.ndarray,
    ) -> "DistributedTensor":
        """Shard a global array over the mesh as read-only views of it.

        No byte is copied: each shard shares memory with ``array``, and
        writing to one raises, so ``array`` cannot change through it.
        """
        array = np.asarray(array)
        spec = parse_spec(spec)
        grid = TileGrid(array.shape, spec, mesh)
        shards = {}
        for d in mesh.devices:
            view = array[_region_slices(grid.device_region(d))]
            view.flags.writeable = False
            shards[d] = view
        return cls(mesh, spec, array.shape, shards, dtype=array.dtype)

    # ------------------------------------------------------------------
    def device_region(self, device_id: int) -> Region:
        return self.grid.device_region(device_id)

    def to_global(self) -> np.ndarray:
        """Reassemble the global tensor, verifying replica consistency.

        Replicas are compared by :func:`same_values`, so NaN matches NaN.
        The stored tiles are read in place: replicas that still share one
        are read once and copy nothing.
        """
        devices = self.mesh.devices
        out, conflict, missing = assemble(
            tuple((0, s) for s in self.shape),
            [(self.grid.device_region(d), self.shards.stored[d]) for d in devices],
            self.dtype,
        )
        if conflict is not None:
            d = devices[conflict]
            raise ValueError(
                f"replica mismatch: device {d} disagrees on {self.grid.device_region(d)}"
            )
        if missing:
            raise ValueError("mesh tiles do not cover the tensor")  # pragma: no cover
        return out

    def allclose(self, other: "DistributedTensor | np.ndarray", **kw) -> bool:
        """Whether ``other`` has this tensor's shape and close values
        (``np.allclose``); nothing is broadcast."""
        if isinstance(other, DistributedTensor):
            other = other.to_global()
        other = np.asarray(other)
        return other.shape == self.shape and bool(np.allclose(self.to_global(), other, **kw))

    def __repr__(self) -> str:
        return (
            f"DistributedTensor(shape={self.shape}, dtype={self.dtype}, "
            f"spec={self.spec}, mesh={self.mesh.shape})"
        )
