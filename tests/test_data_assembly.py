"""Tile assembly on the box-coverage grid, source views and NaN replicas.

`repro.core.tensor.assemble` builds a destination tile from staged
pieces: coverage is kept per box of the pieces' boundary grid, pieces
are placed newest first and write only what no later piece wrote, and
overlaps are compared.  The oracle here is the per-element mask
assembly it replaced, kept test-local, with NaN equal to NaN as
`same_values` defines it: both must give the same tile bytes or the
same `DataPlaneError` text.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Cluster, ClusterSpec, DeviceMesh, reshard
from repro.core.data import DataPlaneError, apply_plan, assemble_tile
from repro.core.intra import intra_mesh_reshard
from repro.core.plan import AllGatherOp, ScatterOp
from repro.core.slices import region_intersection, region_shape
from repro.core.task import ReshardingTask
from repro.core.tensor import DistributedTensor, assemble, same_values
from repro.strategies import make_strategy


# ----------------------------------------------------------------------
# The oracle: per-element mask assembly, NaN matching NaN
# ----------------------------------------------------------------------
def _equal_elements(a, b):
    same = a == b
    if a.dtype.kind in "fc":
        same |= np.isnan(a) & np.isnan(b)
    return same


def mask_assemble_tile(dev, want, pieces, dtype, strategy):
    tile = np.empty(region_shape(want), dtype=dtype)
    covered = np.zeros(region_shape(want), dtype=bool)
    for region, data in pieces:
        inter = region_intersection(region, want)
        if inter is None:
            continue
        dst_sl = tuple(slice(i0 - w0, i1 - w0) for (i0, i1), (w0, _) in zip(inter, want))
        src_sl = tuple(slice(i0 - p0, i1 - p0) for (i0, i1), (p0, _) in zip(inter, region))
        piece = data[src_sl]
        if covered[dst_sl].any():
            ok = np.where(covered[dst_sl], _equal_elements(tile[dst_sl], piece), True)
            if not ok.all():
                raise DataPlaneError(f"device {dev}: conflicting data for {inter}")
        tile[dst_sl] = piece
        covered[dst_sl] = True
    if not covered.all():
        missing = int((~covered).sum())
        raise DataPlaneError(
            f"device {dev}: tile {want} missing {missing} elements "
            f"after plan execution (strategy {strategy!r})"
        )
    return tile


def _outcome(fn, *args):
    try:
        tile = fn(*args)
    except DataPlaneError as e:
        return ("error", str(e))
    return ("tile", tile.dtype, tile.shape, tile.tobytes())


# ----------------------------------------------------------------------
# Random boxes inside, straddling and outside ``want``
# ----------------------------------------------------------------------
LO, HI = -2, 9  # ``want`` lies in [0, 7) per axis, pieces within 2 of it
NAN_B = np.frombuffer(np.uint32(0x7FC00123).tobytes(), np.float32)[0]  # NaN, other payload


def _interval(draw, lo, hi, min_size):
    a = draw(st.integers(lo, hi - min_size))
    return a, draw(st.integers(a + min_size, min(hi, a + 5)))


@st.composite
def assembly_cases(draw):
    rank = draw(st.integers(1, 3))
    dtype = np.dtype(draw(st.sampled_from(["float32", "float64", "int32", "bool"])))
    want = tuple(_interval(draw, 0, 7, 0) for _ in range(rank))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if dtype.kind == "f":
        pool = np.array([0.0, 1.0, 2.0, np.nan], dtype=dtype)
    else:
        pool = np.array([0, 1], dtype=dtype)
    truth = rng.choice(pool, size=(HI - LO,) * rank)
    pieces = []
    for _ in range(draw(st.integers(0, 6))):
        region = tuple(_interval(draw, w0 - 2, w1 + 2, 1) for w0, w1 in want)
        data = truth[tuple(slice(a - LO, b - LO) for a, b in region)].copy()
        if dtype.kind == "f":
            # equal values in other bytes: -0.0 for 0.0, another NaN payload
            if draw(st.booleans()):
                data[data == 0] = -0.0
            if draw(st.booleans()):
                data[np.isnan(data)] = NAN_B
        # conflicting elements inside ``want``, where earlier pieces overlap if any do
        inter = region_intersection(region, want)
        boxes = [region_intersection(inter, r) for r, _ in pieces] if inter else []
        boxes = [b for b in boxes if b] or [inter] * bool(inter)
        for _ in range(draw(st.sampled_from([0, 0, 1, 2])) if boxes else 0):
            box = boxes[rng.integers(len(boxes))]
            at = tuple(rng.integers(b0, b1) - r0 for (b0, b1), (r0, _) in zip(box, region))
            data[at] = pool[1] if data[at] != pool[1] else pool[0]
        pieces.append((region, data))
    return want, pieces, dtype


@settings(max_examples=400, deadline=None)
@given(case=assembly_cases(), dev=st.integers(0, 15))
def test_assembly_matches_the_mask_oracle(case, dev):
    want, pieces, dtype = case
    assert _outcome(assemble_tile, dev, want, pieces, dtype, "s") == _outcome(
        mask_assemble_tile, dev, want, pieces, dtype, "s"
    )


def test_later_piece_bytes_win_where_values_are_equal():
    want = ((0, 4),)
    zero = np.zeros(4, np.float32)
    pieces = [(((0, 4),), zero), (((2, 6),), -zero), (((0, 1),), -zero[:1])]
    tile = assemble_tile(0, want, pieces, np.float32, "s")
    assert np.signbit(tile).tolist() == [True, False, True, True]


def test_first_conflicting_piece_in_order_is_reported():
    want = ((0, 6),)
    ones = np.ones(6, np.float32)
    pieces = [(((0, 3),), ones[:3]), (((4, 6),), ones[:2]), (((2, 5),), 2 * ones[:3]),
              (((0, 6),), 3 * ones)]
    with pytest.raises(DataPlaneError, match=r"device 7: conflicting data for \(\(2, 5\),\)"):
        assemble_tile(7, want, pieces, np.float32, "s")


def test_a_conflict_outside_want_is_not_compared():
    want = ((0, 2), (0, 2))
    a = np.zeros((4, 4), np.float32)
    b = a.copy()
    b[3, 3] = 1.0
    tile = assemble_tile(0, want, [(((0, 4), (0, 4)), a), (((0, 4), (0, 4)), b)], np.float32, "s")
    assert not tile.any()


def test_missing_count_is_the_uncovered_volume():
    want = ((0, 4), (0, 5))
    pieces = [(((0, 2), (0, 5)), np.ones((2, 5))), (((2, 4), (1, 3)), np.ones((2, 2)))]
    tile, conflict, missing = assemble(want, pieces, np.float64)
    assert (conflict, missing) == (None, 20 - 10 - 4)


def test_partly_covered_piece_writes_its_gaps_and_compares_the_rest():
    want = ((0, 3), (0, 3))
    truth = np.arange(9.0).reshape(3, 3)
    pieces = [(((0, 3), (0, 3)), truth), (((1, 2), (1, 2)), truth[1:2, 1:2])]
    tile, conflict, missing = assemble(want, pieces, np.float64)
    assert (conflict, missing) == (None, 0) and np.array_equal(tile, truth)
    bad = truth.copy()
    bad[1, 1] = -1
    pieces = [(((0, 3), (0, 3)), bad), (((1, 2), (1, 2)), truth[1:2, 1:2])]
    assert assemble(want, pieces, np.float64)[1:] == (1, 0)
    bad = truth.copy()
    bad[0, 0] = -1  # outside the overlap
    tile, conflict, missing = assemble(want, [(((0, 3), (0, 3)), bad), pieces[1]], np.float64)
    assert (conflict, missing) == (None, 0) and np.array_equal(tile, bad)


# ----------------------------------------------------------------------
# NaN-aware equality
# ----------------------------------------------------------------------
def test_same_values():
    nan = np.array([np.nan, 1.0])
    assert same_values(nan, nan.copy())
    assert not same_values(nan, np.array([np.nan, 2.0]))
    assert not same_values(nan, np.array([0.0, 1.0]))
    assert same_values(np.array([0.0]), np.array([-0.0]))
    assert same_values(np.array([complex(np.nan, 1)]), np.array([complex(np.nan, 1)]))
    assert same_values(np.array([True, False]), np.array([True, False]))
    assert not same_values(np.array([True]), np.array([False]))
    obj = np.array(["a", 1], dtype=object)
    assert same_values(obj, obj.copy())
    assert not same_values(obj, np.array(["b", 1], dtype=object))


def _meshes(n_hosts=4, devices_per_host=2):
    c = Cluster(ClusterSpec(n_hosts=n_hosts, devices_per_host=devices_per_host))
    half = n_hosts // 2
    return DeviceMesh.from_hosts(c, range(half)), DeviceMesh.from_hosts(c, range(half, n_hosts))


# ----------------------------------------------------------------------
# The source is viewed, never written; the destination never aliases it
# ----------------------------------------------------------------------
@pytest.mark.parametrize("strategy", ["send_recv", "allgather", "broadcast"])
def test_reshard_leaves_the_array_alone_and_unshared(strategy):
    src, dst = _meshes(4, 4)
    arr = np.arange(16 * 8 * 8, dtype=np.float32).reshape(16, 8, 8)
    before = arr.copy()
    out = reshard(arr, src, "S0RR", dst, "RS1R", strategy=strategy, cache=None).dst_tensor
    assert np.array_equal(arr, before) and arr.flags.writeable
    for tile in out.shards.values():
        assert tile.flags.writeable and not np.shares_memory(tile, arr)
    assert np.array_equal(out.to_global(), arr)


def test_intra_mesh_reshard_tiles_do_not_share_the_array():
    mesh, _ = _meshes(4, 2)
    arr = np.arange(64, dtype=np.float32).reshape(8, 8)
    out = intra_mesh_reshard(arr, mesh, "S0R", "RS1").dst_tensor
    assert arr.flags.writeable
    assert not any(np.shares_memory(t, arr) for t in out.shards.values())
    assert np.array_equal(out.to_global(), arr)


def test_from_global_copies_and_view_global_does_not():
    mesh, _ = _meshes(2, 2)
    arr = np.arange(16.0).reshape(4, 4)
    copies = DistributedTensor.from_global(mesh, "S0S1", arr)
    views = DistributedTensor.view_global(mesh, "S0S1", arr)
    for d in mesh.devices:
        assert copies.shards[d].flags.writeable
        assert not np.shares_memory(copies.shards[d], arr)
        assert np.array_equal(copies.shards[d], views.shards[d])
        assert not views.shards[d].flags.writeable
        assert np.shares_memory(views.shards[d], arr)
        with pytest.raises(ValueError, match="read-only"):
            views.shards[d][0, 0] = -1.0
    assert np.array_equal(arr, np.arange(16.0).reshape(4, 4)) and arr.flags.writeable


# ----------------------------------------------------------------------
# All-gather: coverage is an interval union over the scatter parts
# ----------------------------------------------------------------------
def _allgather_plan():
    src, dst = _meshes(4, 4)
    arr = np.arange(8 * 8 * 8, dtype=np.float32).reshape(8, 8, 8)
    task = ReshardingTask(arr.shape, src, "S0RR", dst, "RS1R")
    plan = make_strategy("allgather").plan(task)
    return plan, DistributedTensor.view_global(src, task.src_spec, arr), arr


def _first(plan, kind):
    return next(i for i, op in enumerate(plan.ops) if isinstance(op, kind))


def test_allgather_reports_the_covered_count():
    plan, src, _ = _allgather_plan()
    i = _first(plan, AllGatherOp)
    op = plan.ops[i]
    plan.ops[i] = dataclasses.replace(op, devices=op.devices[:1])
    with pytest.raises(
        DataPlaneError,
        match=rf"all-gather op {op.op_id}: the scatters its deps name cover only 32/64 elements",
    ):
        apply_plan(plan, src)


def test_allgather_unions_parts_from_several_scatters():
    """Receiver 8 holds part 0 of one scatter and part 1 of its twin."""
    plan, src, arr = _allgather_plan()
    s = _first(plan, ScatterOp)
    scatter, gather = plan.ops[s], plan.ops[s + 1]
    twin = dataclasses.replace(scatter, op_id=10_000, receivers=scatter.receivers[::-1])
    union = dataclasses.replace(gather, deps=(scatter.op_id, twin.op_id), devices=(8,))
    # device 12 still gets the region from the plan's own all-gather
    plan.ops[s + 1 : s + 1] = [twin, union]
    assert np.array_equal(apply_plan(plan, src).to_global(), arr)
    plan.ops[s + 2] = dataclasses.replace(union, deps=(scatter.op_id,))
    with pytest.raises(DataPlaneError, match="cover only 32/64 elements"):
        apply_plan(plan, src)
