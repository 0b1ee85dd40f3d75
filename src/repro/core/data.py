"""Data interpreter: execute a CommPlan on real NumPy shards.

The same plan the timing interpreter simulates is replayed here as
actual byte movement between device buffers, so tests can assert that a
strategy's plan reconstructs the destination layout exactly.  Semantics
per op kind are documented in :mod:`repro.core.plan`.

Receivers stage pieces as they arrive; a staged piece is a view of the
sender's shard, not a copy, and every receiver of one op stages the
same array.  At the end each distinct destination tile is assembled once
from its staged full-region pieces (:func:`repro.core.tensor.assemble`),
which verifies complete coverage and replica consistency: devices that
need the same region from the same pieces in the same order are
replicas of one tile, and the destination tensor stores it once
(:class:`repro.core.tensor.Shards`).  Coverage is kept per box of the
pieces' boundary grid, not per element, so the per-element work that
remains is one copy into each distinct destination tile, plus a compare
wherever pieces overlap.  An all-gather rebuilds its region by the same
routine in one dimension; flattening a scatter's region copies it once
when the region is not contiguous in the sender's shard.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .plan import AllGatherOp, BroadcastOp, CommPlan, MulticastOp, ScatterOp, SendOp
from .slices import Region, region_intersection, region_shape, region_size, split_offsets
from .tensor import DistributedTensor, assemble, read_region

__all__ = ["apply_plan", "assemble_tile", "DataPlaneError"]


class DataPlaneError(RuntimeError):
    """A plan failed to move the data it claimed to move."""


def _read_from_source(src: DistributedTensor, device: int, region: Region) -> np.ndarray:
    if device not in src.shards:
        raise DataPlaneError(f"sender {device} is not a source-mesh device")
    tile_region = src.device_region(device)
    try:
        return read_region(src.shards.stored[device], tile_region, region)
    except ValueError as e:
        raise DataPlaneError(
            f"sender {device} does not hold region {region}: {e}"
        ) from e


def apply_plan(plan: CommPlan, src: DistributedTensor) -> DistributedTensor:
    """Execute the plan's data movement; return the destination tensor.

    ``src`` is only read, in place.  Each distinct destination tile is
    assembled once, when the first device in ``dst_mesh.devices`` order
    needs it, so any :class:`DataPlaneError` names that device.  Its
    replicas share it in the returned tensor until a caller reads their
    shards, each then getting its own copy (see
    :class:`~repro.core.tensor.Shards`).
    """
    task = plan.task
    staged = _staged_pieces(plan, src)
    # Devices that need the same region from the same buffers, in the
    # same order, are replicas of one tile.
    tiles: dict[tuple[object, ...], np.ndarray] = {}
    shards: dict[int, np.ndarray] = {}
    for dev in task.dst_mesh.devices:
        pieces = staged.get(dev, [])
        want = task.dst_grid.device_region(dev)
        key = (want, *((region, id(data)) for region, data in pieces))
        if key not in tiles:
            tiles[key] = assemble_tile(dev, want, pieces, src.dtype, plan.strategy)
        shards[dev] = tiles[key]
    return DistributedTensor(
        task.dst_mesh, task.dst_spec, task.shape, shards, dtype=src.dtype
    )


def _staged_pieces(
    plan: CommPlan, src: DistributedTensor
) -> dict[int, list[tuple[Region, np.ndarray]]]:
    """Run the plan's ops on ``src``: each destination device's staged
    ``(region, data)`` pieces in op order, then its local shard if it is
    also a source device.  Every receiver of one op stages the same
    array."""
    task = plan.task
    if not plan.data_complete:
        raise DataPlaneError(
            f"plan of strategy {plan.strategy!r} does not carry data "
            "(data_complete=False)"
        )
    if src.mesh is not task.src_mesh and src.mesh != task.src_mesh:
        raise DataPlaneError("source tensor mesh does not match the task")
    if src.spec != task.src_spec or src.shape != task.shape:
        raise DataPlaneError("source tensor layout does not match the task")

    #: device -> the (region, data) pieces it received, in op order
    region_pieces: dict[int, list[tuple[Region, np.ndarray]]] = {}
    #: scatter op id -> (op, its region's flat data, part offsets)
    scattered: dict[int, tuple[ScatterOp, np.ndarray, tuple[int, ...]]] = {}

    def stage_region(device: int, region: Region, data: np.ndarray) -> None:
        region_pieces.setdefault(device, []).append((region, data))

    rank = len(task.shape)
    done: set[int] = set()
    for op in plan.ops:
        for d in op.deps:
            if d not in done:
                raise DataPlaneError(
                    f"op {op.op_id} executed before its dependency {d}"
                )
        if len(op.region) != rank:
            raise DataPlaneError(
                f"op {op.op_id}: region rank {len(op.region)} does not match "
                f"tensor rank {rank}"
            )
        if isinstance(op, SendOp):
            data = _read_from_source(src, op.sender, op.region)
            stage_region(op.receiver, op.region, data)
        elif isinstance(op, (BroadcastOp, MulticastOp)):
            data = _read_from_source(src, op.sender, op.region)
            for r in op.receivers:
                stage_region(r, op.region, data)
        elif isinstance(op, ScatterOp):
            data = _read_from_source(src, op.sender, op.region).reshape(-1)
            try:
                offs = split_offsets(region_size(op.region), len(op.receivers))
            except ValueError as e:
                raise DataPlaneError(f"scatter op {op.op_id}: {e}") from e
            scattered[op.op_id] = (op, data, offs)
        elif isinstance(op, AllGatherOp):
            # Rebuild the region only from the parts the scatters named
            # in ``deps`` left on the group, as ``walk_deliveries`` does.
            # Parts that overlap may disagree: the later part's bytes win.
            size = region_size(op.region)
            group = set(op.devices)
            parts = []
            for dep in op.deps:
                if dep not in scattered or scattered[dep][0].region != op.region:
                    continue
                sc, flat, offs = scattered[dep]
                parts += [
                    (((offs[k], offs[k + 1]),), flat[offs[k] : offs[k + 1]])
                    for k, r in enumerate(sc.receivers)
                    if r in group
                ]
            full, _, missing = assemble(((0, size),), parts, src.dtype)
            if missing:
                raise DataPlaneError(
                    f"all-gather op {op.op_id}: the scatters its deps name cover "
                    f"only {size - missing}/{size} elements of {op.region}"
                )
            shaped = full.reshape(region_shape(op.region))
            for dev in op.devices:
                stage_region(dev, op.region, shaped)
        else:
            raise DataPlaneError(f"unknown op type {type(op).__name__}")
        done.add(op.op_id)

    for dev in task.dst_mesh.devices:
        if dev in src.shards:
            # Intra-mesh resharding: the device reuses its local shard.
            stage_region(dev, src.device_region(dev), src.shards.stored[dev])
    return region_pieces


def assemble_tile(
    dev: int,
    want: Region,
    pieces: Sequence[tuple[Region, np.ndarray]],
    dtype: "np.dtype",
    strategy: str,
) -> np.ndarray:
    """Device ``dev``'s tile ``want`` from its staged ``(region, data)``
    pieces; raise :class:`DataPlaneError` on the first piece that
    conflicts with an earlier one, else on any element left uncovered."""
    tile, conflict, missing = assemble(want, pieces, dtype)
    if conflict is not None:
        inter = region_intersection(pieces[conflict][0], want)
        raise DataPlaneError(f"device {dev}: conflicting data for {inter}")
    if missing:
        raise DataPlaneError(
            f"device {dev}: tile {want} missing {missing} elements "
            f"after plan execution (strategy {strategy!r})"
        )
    return tile
