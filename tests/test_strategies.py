"""Tests for the communication strategies' plan structure."""

import numpy as np
import pytest

from repro.core.mesh import DeviceMesh
from repro.core.plan import AllGatherOp, BroadcastOp, ScatterOp, SendOp
from repro.core.task import ReshardingTask
from repro.sim.cluster import Cluster, ClusterSpec
from repro.strategies import (
    AllGatherStrategy,
    BroadcastStrategy,
    SendRecvStrategy,
    SignalStrategy,
    make_strategy,
)
from repro.strategies.broadcast import MAX_CHUNKS, TARGET_CHUNK_BYTES, adaptive_chunks


def make_task(src_spec="S0RR", dst_spec="S0RR", shape=(8, 8, 8), dtype=np.float32):
    c = Cluster(ClusterSpec(n_hosts=4, devices_per_host=4))
    src = DeviceMesh.from_hosts(c, [0, 1])
    dst = DeviceMesh.from_hosts(c, [2, 3])
    return ReshardingTask(shape, src, src_spec, dst, dst_spec, dtype=dtype)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_make_strategy_by_name():
    assert isinstance(make_strategy("send_recv"), SendRecvStrategy)
    assert isinstance(make_strategy("allgather"), AllGatherStrategy)
    assert isinstance(make_strategy("broadcast"), BroadcastStrategy)
    assert isinstance(make_strategy("signal"), SignalStrategy)


def test_make_strategy_passthrough_and_errors():
    s = BroadcastStrategy()
    assert make_strategy(s) is s
    with pytest.raises(ValueError):
        make_strategy("nope")
    with pytest.raises(ValueError):
        make_strategy(s, n_chunks=4)


def test_make_strategy_kwargs():
    s = make_strategy("broadcast", scheduler="naive", n_chunks=7)
    assert s.scheduler_name == "naive"
    assert s.n_chunks == 7


# ----------------------------------------------------------------------
# send_recv
# ----------------------------------------------------------------------
def test_send_recv_one_op_per_receiver():
    task = make_task("RRR", "S0RR")
    plan = SendRecvStrategy().plan(task)
    assert all(isinstance(op, SendOp) for op in plan.ops)
    # 2 dst tiles x 4 replicas each
    assert len(plan.ops) == 8
    assert plan.schedule is None
    assert plan.data_complete


def test_send_recv_load_balances_senders():
    task = make_task("RRR", "S0RR")
    plan = SendRecvStrategy().plan(task)
    sender_hosts = [task.cluster.host_of(op.sender) for op in plan.ops]
    assert sender_hosts.count(0) == sender_hosts.count(1) == 4


def test_send_recv_exact_regions():
    task = make_task("S0RR", "RS1R")
    plan = SendRecvStrategy().plan(task)
    for op in plan.ops:
        # receiver's tile fully contains the op's region
        want = task.dst_grid.device_region(op.receiver)
        for (lo, hi), (w0, w1) in zip(op.region, want):
            assert w0 <= lo and hi <= w1


# ----------------------------------------------------------------------
# allgather (Alpa)
# ----------------------------------------------------------------------
def test_allgather_scatter_then_gather():
    task = make_task("RRR", "S0RR")
    plan = AllGatherStrategy().plan(task)
    kinds = [type(op).__name__ for op in plan.ops]
    assert kinds == ["ScatterOp", "AllGatherOp", "ScatterOp", "AllGatherOp"]
    ag = plan.ops[1]
    sc = plan.ops[0]
    assert isinstance(ag, AllGatherOp) and isinstance(sc, ScatterOp)
    assert ag.deps == (sc.op_id,)
    assert ag.devices == sc.receivers


def test_allgather_single_receiver_plain_send():
    task = make_task("RRR", "S0S1R")  # no replication on dst
    plan = AllGatherStrategy().plan(task)
    assert all(isinstance(op, SendOp) for op in plan.ops)


def test_allgather_uneven_fallback():
    """Element count not divisible by receivers -> full-slice sends."""
    task = make_task("R", "R", shape=(9,))  # 9 elements to 8 receivers
    plan = AllGatherStrategy().plan(task)
    assert all(isinstance(op, SendOp) for op in plan.ops)
    assert len(plan.ops) == 8  # one full copy per receiver


def test_allgather_attaches_schedule():
    plan = AllGatherStrategy().plan(make_task())
    assert plan.schedule is not None
    assert plan.schedule.algorithm == "load_balance"


# ----------------------------------------------------------------------
# broadcast (ours)
# ----------------------------------------------------------------------
def test_broadcast_one_op_per_unit_task():
    task = make_task("RS0R", "S0RR")
    plan = BroadcastStrategy().plan(task)
    assert all(isinstance(op, BroadcastOp) for op in plan.ops)
    assert len(plan.ops) == len(task.unit_tasks())
    assert plan.schedule is not None
    assert plan.schedule.algorithm == "ensemble"


def test_broadcast_sender_matches_schedule():
    task = make_task("RS0R", "S0RR")
    plan = BroadcastStrategy().plan(task)
    for op in plan.ops:
        assert (
            task.cluster.host_of(op.sender)
            == plan.schedule.assignment[op.unit_task_id]
        )


def test_broadcast_receivers_complete():
    task = make_task("RRR", "S0RR")
    plan = BroadcastStrategy().plan(task)
    for op in plan.ops:
        ut = task.unit_tasks()[op.unit_task_id]
        assert tuple(op.receivers) == ut.receivers


def test_broadcast_explicit_chunks():
    plan = BroadcastStrategy(n_chunks=5).plan(make_task())
    assert all(op.n_chunks == 5 for op in plan.ops)


def test_broadcast_gating_disabled():
    plan = BroadcastStrategy(gate_on_schedule=False).plan(make_task())
    assert plan.schedule is None


def test_broadcast_custom_scheduler_callable():
    from repro.scheduling import naive_schedule

    s = BroadcastStrategy(scheduler=naive_schedule)
    plan = s.plan(make_task())
    assert plan.schedule.algorithm == "naive"


def test_broadcast_invalid_args():
    with pytest.raises(ValueError):
        BroadcastStrategy(scheduler="bogus")
    with pytest.raises(ValueError):
        BroadcastStrategy(n_chunks=0)


def test_adaptive_chunks():
    assert adaptive_chunks(0) == 1
    assert adaptive_chunks(TARGET_CHUNK_BYTES - 1) == 1
    assert adaptive_chunks(10 * TARGET_CHUNK_BYTES) == 10
    assert adaptive_chunks(10_000 * TARGET_CHUNK_BYTES) == MAX_CHUNKS


# ----------------------------------------------------------------------
# signal
# ----------------------------------------------------------------------
def test_signal_one_byte_per_pair():
    task = make_task("RRR", "S0RR")
    plan = SignalStrategy().plan(task)
    assert not plan.data_complete
    assert all(op.nbytes == 1.0 for op in plan.ops)
    n_pairs = sum(len(ut.receivers) for ut in task.unit_tasks())
    assert len(plan.ops) == n_pairs


# ----------------------------------------------------------------------
# cross-strategy invariants
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["send_recv", "allgather", "broadcast"])
def test_plans_reference_valid_devices(name):
    task = make_task("RS0R", "RRS0")
    plan = make_strategy(name).plan(task)
    all_devs = set(task.src_mesh.devices) | set(task.dst_mesh.devices)
    for op in plan.ops:
        if isinstance(op, SendOp):
            assert {op.sender, op.receiver} <= all_devs
        elif isinstance(op, (BroadcastOp, ScatterOp)):
            assert op.sender in all_devs
            assert set(op.receivers) <= all_devs
        elif isinstance(op, AllGatherOp):
            assert set(op.devices) <= all_devs


@pytest.mark.parametrize("name", ["send_recv", "allgather", "broadcast", "signal"])
def test_plan_op_ids_sequential(name):
    plan = make_strategy(name).plan(make_task("RS01R", "S01RR"))
    assert [op.op_id for op in plan.ops] == list(range(len(plan.ops)))
    for op in plan.ops:
        assert all(d < op.op_id for d in op.deps)
