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
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import Cluster, ClusterSpec, DeviceMesh, reshard
from repro.core.data import DataPlaneError, _staged_pieces, apply_plan, assemble_tile
from repro.core.intra import intra_mesh_reshard, plan_intra_mesh
from repro.core.plan import AllGatherOp, BroadcastOp, MulticastOp, ScatterOp, SendOp
from repro.core.slices import region_intersection, region_shape
from repro.core.task import ReshardingTask
from repro.core.tensor import DistributedTensor, Shards, assemble, same_values
from repro.strategies import STRATEGIES, make_strategy


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
    # a piece repeated: the same region of the same buffer, as replicas give
    for _ in range(draw(st.sampled_from([0, 0, 1, 2])) if pieces else 0):
        again = pieces[draw(st.integers(0, len(pieces) - 1))]
        pieces.insert(draw(st.integers(0, len(pieces))), again)
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


def test_a_repeated_piece_counts_where_it_comes_last_and_first():
    want = ((0, 4),)
    zero, one = np.zeros(4, np.float32), np.ones(4, np.float32)
    # its last repeat's bytes win, as in-order writes leave them
    tile, conflict, _ = assemble(want, [(want, zero), (want, -zero), (want, zero)], np.float32)
    assert conflict is None and not np.signbit(tile).any()
    # the piece after its first place is the one that disagrees
    assert assemble(want, [(want, one), (want, 2 * one), (want, one)], np.float32)[1] == 1


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


def test_same_values_compares_objects_as_python_containers_do():
    nan = float("nan")
    obj = np.array([nan, 1], dtype=object)
    assert same_values(obj, obj) and same_values(obj, obj.copy())
    # another NaN object is unequal, as in ``[nan] == [float("nan")]``
    assert not same_values(obj, np.array([float("nan"), 1], dtype=object))
    assert not same_values(obj, np.array([nan, 2], dtype=object))
    assert not same_values(obj, obj[:1])
    # so does an object array against another dtype: a float NaN is another object
    floats = np.array([nan, 1.0])
    assert not same_values(obj, floats) and not same_values(floats, obj)
    assert same_values(floats[1:], obj[1:]) and same_values(obj[1:], floats[1:])


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
# Replicas share one stored tile until a caller reads their shards
# ----------------------------------------------------------------------
SHARING = ["allgather", "broadcast", "multicast"]  # send_recv reads a view per receiver


def _replicated(strategy, arr):
    src, dst = _meshes(4, 4)  # S0RR on 8 devices -> RRR on 8 others
    return reshard(arr, src, "S0RR", dst, "RRR", strategy=strategy, cache=None).dst_tensor


def _cube():
    return np.arange(8 * 8 * 8, dtype=np.float32).reshape(8, 8, 8)


@pytest.mark.parametrize("strategy, tiles", [("broadcast", 1), ("multicast", 1), ("allgather", 2)])
def test_an_eight_way_replicated_reshard_allocates_about_one_tile(strategy, tiles):
    """One destination tile for all eight devices; an all-gather also
    holds the regions it rebuilt, one tensor's worth."""
    arr = np.random.default_rng(0).standard_normal((128, 128, 64), dtype=np.float32)
    tracemalloc.start()
    try:
        out = _replicated(strategy, arr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out.shards) == 8 and arr.nbytes == 4 << 20
    assert peak < (tiles + 0.5) * arr.nbytes
    assert np.array_equal(out.to_global(), arr)


@pytest.mark.parametrize("strategy", SHARING)
@pytest.mark.parametrize("written", [0, -1], ids=["first", "last"])
def test_a_write_to_one_replica_reaches_no_other(strategy, written):
    arr = _cube()
    out = _replicated(strategy, arr)
    devices = out.mesh.devices
    out.shards[devices[written]][1, 2, 3] = -1.0
    # the first device, in mesh order, that disagrees with an earlier one
    named = devices[1] if written == 0 else devices[written]
    mismatch = rf"^replica mismatch: device {named} disagrees on \(\(0, 8\), \(0, 8\), \(0, 8\)\)$"
    with pytest.raises(ValueError, match=mismatch):
        out.to_global()
    for d in devices:
        assert np.array_equal(out.shards[d], arr) == (d != devices[written])
    with pytest.raises(ValueError, match=mismatch):
        out.to_global()


@pytest.mark.parametrize("strategy", ["send_recv", *SHARING])
def test_replica_shards_share_memory_with_nothing(strategy):
    arr = _cube()
    out = _replicated(strategy, arr)
    tiles = list(out.shards.values())
    for i, tile in enumerate(tiles):
        assert tile.flags.writeable and not np.shares_memory(tile, arr)
        assert not any(np.shares_memory(tile, other) for other in tiles[:i])
    assert all(out.shards[d] is tile for d, tile in zip(out.mesh.devices, tiles))
    assert np.array_equal(out.to_global(), arr)


def test_shards_copy_a_shared_tile_on_its_first_read_only():
    tile, own = np.arange(4.0), np.zeros(4)
    shards = Shards({0: tile, 1: tile, 2: own})
    assert shards.shared == {0, 1} and list(shards) == [0, 1, 2] and len(shards) == 3
    assert 1 in shards and 3 not in shards and shards.stored[1] is tile
    assert shards[2] is own  # a tile one device holds is handed out as is
    first = shards[0]
    assert first is not tile and np.array_equal(first, tile) and shards[0] is first
    assert shards.shared == {1} and shards.stored[1] is tile
    shards[1] = own
    assert shards.shared == set() and shards[1] is own
    del shards[0]
    assert list(shards) == [1, 2] and dict(shards) == {1: own, 2: own}
    view = Shards({0: tile, 1: tile})
    view.pop(0)
    assert view.shared == {1}
    assert view.get(1) is not tile and view.shared == set()


# ----------------------------------------------------------------------
# Property: one assembly per distinct tile gives the per-device result
# ----------------------------------------------------------------------
DATA_STRATEGIES = [name for name in STRATEGIES if make_strategy(name).data_complete]
SPECS_2D = ["RR", "S0R", "RS0", "S1R", "RS1", "S01R", "RS10", "S0S1", "S1S0"]


def _per_device(plan, src):
    """The destination tensor with each device's tile assembled on its own."""
    task = plan.task
    staged = _staged_pieces(plan, src)
    tiles = {
        d: assemble_tile(
            d, task.dst_grid.device_region(d), staged.get(d, []), src.dtype, plan.strategy
        )
        for d in task.dst_mesh.devices
    }
    return DistributedTensor(task.dst_mesh, task.dst_spec, task.shape, tiles)


def _tensor_outcome(make):
    try:
        tensor = make()
    except DataPlaneError as e:
        return ("error", str(e))
    try:
        whole = tensor.to_global().tobytes()  # before any shard is read
    except ValueError as e:
        whole = str(e)
    return whole, [tensor.shards[d].tobytes() for d in tensor.mesh.devices]


@settings(max_examples=200, deadline=None)
@given(
    intra=st.booleans(),
    src_spec=st.sampled_from(SPECS_2D),
    dst_spec=st.sampled_from(SPECS_2D),
    strategy=st.sampled_from(DATA_STRATEGIES),
    devices_per_host=st.sampled_from([1, 2, 4]),
    shape=st.tuples(st.integers(8, 11), st.integers(8, 11)),
    faults=st.tuples(st.booleans(), st.booleans(), st.booleans()),
    pick=st.integers(0, 2**16),
)
def test_one_assembly_per_tile_matches_per_device_assembly(
    intra, src_spec, dst_spec, strategy, devices_per_host, shape, faults, pick
):
    src_mesh, dst_mesh = _meshes(4, devices_per_host)
    arr = np.arange(np.prod(shape), dtype=np.float32).reshape(shape)
    if intra:
        plan = plan_intra_mesh(shape, src_mesh, src_spec, dst_spec, dtype=arr.dtype)
    else:
        task = ReshardingTask(shape, src_mesh, src_spec, dst_mesh, dst_spec, dtype=arr.dtype)
        assume(make_strategy(strategy).supports(task))
        plan = make_strategy(strategy).plan(task)
    src = DistributedTensor.from_global(src_mesh, plan.task.src_spec, arr)
    drop, repeat, corrupt = faults
    if not any(faults):
        assert np.array_equal(apply_plan(plan, src).to_global(), arr)
    victim, at = src_mesh.devices[pick % len(src_mesh.devices)], None
    if plan.ops and repeat:
        # the op again, from any holder of its region: the one corrupted
        op = plan.ops[pick % len(plan.ops)]
        holders = [d for d in src_mesh.devices if plan.task.holds(d, op.region)]
        if isinstance(op, (SendOp, BroadcastOp, MulticastOp)) and holders:
            victim = holders[pick % len(holders)]
            op = dataclasses.replace(op, sender=victim)
            at = tuple(r0 - t0 for (r0, _), (t0, _) in zip(op.region, src.device_region(victim)))
        plan.ops.append(dataclasses.replace(op, op_id=max(o.op_id for o in plan.ops) + 1))
    if plan.ops and drop:
        plan.ops.pop(pick % len(plan.ops))
    if corrupt:
        shard = src.shards[victim]
        shard[at if at is not None else np.unravel_index(pick % shard.size, shard.shape)] = -1.0
    assert _tensor_outcome(lambda: apply_plan(plan, src)) == _tensor_outcome(
        lambda: _per_device(plan, src)
    )


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
