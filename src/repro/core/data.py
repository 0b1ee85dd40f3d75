"""Data interpreter: execute a CommPlan on real NumPy shards.

The same plan the timing interpreter simulates is replayed here as
actual byte movement between device buffers, so tests can assert that a
strategy's plan reconstructs the destination layout exactly.  Semantics
per op kind are documented in :mod:`repro.core.plan`.

Receivers stage pieces as they arrive; at the end each destination
device assembles its required tile from the staged full-region pieces
and the assembly is verified for complete coverage and replica
consistency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .plan import AllGatherOp, BroadcastOp, CommPlan, MulticastOp, ScatterOp, SendOp
from .slices import (
    Region,
    region_intersection,
    region_shape,
    region_size,
    split_offsets,
)
from .tensor import DistributedTensor, read_region

__all__ = ["apply_plan", "DataPlaneError"]


class DataPlaneError(RuntimeError):
    """A plan failed to move the data it claimed to move."""


@dataclass
class _RegionPiece:
    region: Region
    data: np.ndarray  # shaped like the region


def _read_from_source(src: DistributedTensor, device: int, region: Region) -> np.ndarray:
    if device not in src.shards:
        raise DataPlaneError(f"sender {device} is not a source-mesh device")
    tile_region = src.device_region(device)
    try:
        return read_region(src.shards[device], tile_region, region)
    except ValueError as e:
        raise DataPlaneError(
            f"sender {device} does not hold region {region}: {e}"
        ) from e


def apply_plan(plan: CommPlan, src: DistributedTensor) -> DistributedTensor:
    """Execute the plan's data movement; return the destination tensor."""
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

    region_pieces: dict[int, list[_RegionPiece]] = {}
    #: scatter op id -> (op, its region's flat data, part offsets)
    scattered: dict[int, tuple[ScatterOp, np.ndarray, tuple[int, ...]]] = {}

    def stage_region(device: int, region: Region, data: np.ndarray) -> None:
        region_pieces.setdefault(device, []).append(_RegionPiece(region, data))

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
            size = region_size(op.region)
            full = np.empty(size, dtype=src.dtype)
            covered = np.zeros(size, dtype=bool)
            group = set(op.devices)
            for dep in op.deps:
                if dep not in scattered or scattered[dep][0].region != op.region:
                    continue
                sc, flat, offs = scattered[dep]
                for k, r in enumerate(sc.receivers):
                    if r in group:
                        full[offs[k] : offs[k + 1]] = flat[offs[k] : offs[k + 1]]
                        covered[offs[k] : offs[k + 1]] = True
            if not covered.all():
                raise DataPlaneError(
                    f"all-gather op {op.op_id}: the scatters its deps name cover "
                    f"only {int(covered.sum())}/{size} elements of {op.region}"
                )
            shaped = full.reshape(region_shape(op.region))
            for dev in op.devices:
                stage_region(dev, op.region, shaped)
        else:
            raise DataPlaneError(f"unknown op type {type(op).__name__}")
        done.add(op.op_id)

    # ------------------------------------------------------------------
    # Assemble each destination device's tile from its staged pieces.
    # ------------------------------------------------------------------
    shards: dict[int, np.ndarray] = {}
    for dev in task.dst_mesh.devices:
        want = task.dst_grid.device_region(dev)
        tile = np.empty(region_shape(want), dtype=src.dtype)
        covered = np.zeros(region_shape(want), dtype=bool)
        pieces = list(region_pieces.get(dev, []))
        if dev in src.shards:
            # Intra-mesh resharding: the device reuses its local shard.
            pieces.append(_RegionPiece(src.device_region(dev), src.shards[dev]))
        for p in pieces:
            inter = region_intersection(p.region, want)
            if inter is None:
                continue
            dst_sl = tuple(
                slice(i0 - w0, i1 - w0) for (i0, i1), (w0, _) in zip(inter, want)
            )
            src_sl = tuple(
                slice(i0 - p0, i1 - p0) for (i0, i1), (p0, _) in zip(inter, p.region)
            )
            piece = p.data[src_sl]
            if covered[dst_sl].any() and not np.array_equal(tile[dst_sl], piece):
                overlap_ok = np.where(covered[dst_sl], tile[dst_sl] == piece, True)
                if not overlap_ok.all():
                    raise DataPlaneError(
                        f"device {dev}: conflicting data for {inter}"
                    )
            tile[dst_sl] = piece
            covered[dst_sl] = True
        if not covered.all():
            missing = int((~covered).sum())
            raise DataPlaneError(
                f"device {dev}: tile {want} missing {missing} elements "
                f"after plan execution (strategy {plan.strategy!r})"
            )
        shards[dev] = tile
    return DistributedTensor(
        task.dst_mesh, task.dst_spec, task.shape, shards, dtype=src.dtype
    )
