"""Tests for the execution-aware data-plane integrity verifier."""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import check_plan, load_plan_fixture
from repro.compiler import compile_resharding
from repro.core.data import DataPlaneError, apply_plan
from repro.core.executor import simulate_plan
from repro.core.intra import plan_intra_mesh
from repro.core.mesh import DeviceMesh
from repro.core.plan import AllGatherOp
from repro.core.task import ReshardingTask
from repro.core.tensor import DistributedTensor
from repro.core.verify_data import IntegrityError, tile_arrivals, verify_delivery
from repro.experiments.common import make_microbench_meshes, paper_cluster
from repro.experiments.fig6 import TABLE2_CASES
from repro.sim.cluster import Cluster, ClusterSpec
from repro.sim.faults import (
    CorruptionWindow,
    DegradedWindow,
    FaultSchedule,
    FlapWindow,
    RetryPolicy,
)
from repro.strategies import (
    STRATEGIES,
    AllGatherStrategy,
    BroadcastStrategy,
    SendRecvStrategy,
)

FIXTURES = sorted((Path(__file__).parent / "fixtures" / "bad_plans").glob("*.json"))


def make_task(cluster4x4, shape=(64, 64), src_spec="S0R", dst_spec="RS1"):
    src = DeviceMesh.from_hosts(cluster4x4, [0, 1])
    dst = DeviceMesh.from_hosts(cluster4x4, [2, 3])
    return ReshardingTask(shape, src, src_spec, dst, dst_spec)


# ----------------------------------------------------------------------
# exact-once certification on healthy runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(set(STRATEGIES) - {"signal"}))
def test_every_strategy_certifies_exact_once(cluster4x4, name):
    task = make_task(cluster4x4)
    plan = STRATEGIES[name]().plan(task)
    timing = simulate_plan(plan)
    report = verify_delivery(plan, timing, strict=False)
    assert report.certified
    assert not report.gaps and not report.duplicates
    assert report.n_ops_failed == 0


def test_static_check_without_timing(cluster4x4):
    plan = BroadcastStrategy().plan(make_task(cluster4x4))
    report = verify_delivery(plan)
    assert report.certified
    assert report.n_retried_flows == 0


def test_intra_mesh_plans_certify(cluster4x4):
    mesh = DeviceMesh.from_hosts(cluster4x4, [0, 1])
    for src, dst in [("S0R", "RS1"), ("S0S1", "RR"), ("RR", "S0S1")]:
        plan = plan_intra_mesh((64, 64), mesh, src, dst)
        timing = simulate_plan(plan) if plan.ops else None
        assert verify_delivery(plan, timing).certified


# ----------------------------------------------------------------------
# gap and duplicate detection
# ----------------------------------------------------------------------
def test_dropped_op_is_a_gap(cluster4x4):
    task = make_task(cluster4x4)
    plan = BroadcastStrategy().plan(task)
    crippled = dataclasses.replace(plan, ops=plan.ops[1:])
    with pytest.raises(IntegrityError, match="missing data"):
        verify_delivery(crippled)
    report = verify_delivery(crippled, raise_on_error=False)
    assert report.gaps and not report.certified


def test_failed_op_credits_no_delivery(cluster4x4):
    """Ops in timing.failed_ops must count as undelivered."""
    task = make_task(cluster4x4)
    plan = BroadcastStrategy().plan(task)
    timing = simulate_plan(plan)
    fake = dataclasses.replace(timing, failed_ops=(plan.ops[0].op_id,))
    report = verify_delivery(plan, fake, raise_on_error=False)
    assert report.gaps
    assert report.n_ops_failed == 1


def test_duplicated_delivery_detected(cluster4x4):
    task = make_task(cluster4x4)
    plan = BroadcastStrategy().plan(task)
    doubled = dataclasses.replace(
        plan,
        ops=plan.ops
        + [dataclasses.replace(plan.ops[0], op_id=len(plan.ops))],
    )
    with pytest.raises(IntegrityError, match="duplicated"):
        verify_delivery(doubled)
    # non-strict mode reports but does not raise
    report = verify_delivery(doubled, strict=False)
    assert report.duplicates and not report.certified


def test_unauthoritative_sender_discredited(cluster4x4):
    """An op claiming a sender that does not hold the region is void."""
    task = make_task(cluster4x4)
    plan = BroadcastStrategy().plan(task)
    # Device of host 1 does not hold host 0's shard under S0R.
    wrong_sender = task.src_mesh.device_at(1, 0)
    op0 = plan.ops[0]
    holder = task.src_grid.device_region(op0.sender)
    if task.src_grid.device_region(wrong_sender) == holder:
        pytest.skip("grids coincide; cannot construct a non-holder")
    forged = dataclasses.replace(
        plan, ops=[dataclasses.replace(op0, sender=wrong_sender)] + plan.ops[1:]
    )
    report = verify_delivery(forged, raise_on_error=False)
    assert op0.op_id in report.discredited_ops
    assert report.gaps


# ----------------------------------------------------------------------
# retries under drops still certify
# ----------------------------------------------------------------------
def test_retried_flows_still_certify(cluster4x4):
    task = make_task(cluster4x4)
    faults = FaultSchedule(seed=3, drop_rate=0.15)
    plan = compile_resharding(task, cache=None, faults=faults).plan
    timing = simulate_plan(
        plan, faults=faults, retry_policy=RetryPolicy(max_attempts=12)
    )
    assert not timing.failed_ops, "retry policy should recover every drop"
    assert not timing.corrupted_ops
    report = verify_delivery(plan, timing)
    assert report.certified
    assert report.n_retried_flows > 0


def test_retried_count_includes_corrupted_deliveries():
    """A flow delivered after a retry counts as retried even when its
    delivery is corrupted (status ``corrupted``, not ``retried``)."""
    cluster = Cluster(ClusterSpec(n_hosts=2, devices_per_host=2))
    task = ReshardingTask(
        (512, 512),
        DeviceMesh.from_hosts(cluster, [0]),
        "S0R",
        DeviceMesh.from_hosts(cluster, [1]),
        "S0R",
    )
    faults = FaultSchedule(
        seed=0,
        drop_rate=0.5,
        corruptions=(CorruptionWindow(host=1, start=0.0, duration=1e9),),
    )
    plan = SendRecvStrategy().plan(task)
    timing = simulate_plan(plan, faults=faults, retry_policy=RetryPolicy(max_attempts=8))
    delivered = [
        s.attrs
        for s in timing.telemetry.spans
        if s.cat == "flow" and s.attrs["status"] not in ("failed", "abandoned")
    ]
    # both deliveries came after at least one drop, and both are corrupted
    assert [(a["status"], a["attempts"] > 1) for a in delivered] == [
        ("corrupted", True),
        ("corrupted", True),
    ]
    report = verify_delivery(plan, timing, raise_on_error=False)
    assert report.corrupted_ops == (0, 1)
    assert report.n_retried_flows == 2


# ----------------------------------------------------------------------
# satellite: broadcast re-rooting produces byte-identical deliveries
# ----------------------------------------------------------------------
def test_reroot_fallback_delivers_identical_bytes(cluster4x4, rng):
    """Down the scheduled sender host at plan time: the strategy must
    re-root onto a surviving replica (CommPlan.fallbacks non-empty) and
    the delivered slices must be byte-identical to the healthy run."""
    src = DeviceMesh.from_hosts(cluster4x4, [0, 1])
    dst = DeviceMesh.from_hosts(cluster4x4, [2, 3])
    # R along dim 0: every source host holds a full replica of each
    # region, so a re-root always has a surviving sender.
    task = ReshardingTask((32, 32), src, "RS1", dst, "S0R")
    healthy_plan = BroadcastStrategy().plan(task)
    victim = task.cluster.host_of(healthy_plan.ops[0].sender)

    # A short flap covering plan time (t=0) plus a long mild degradation
    # elsewhere: the victim's *mean* NIC factor stays high, so the
    # scheduler still assigns it work — which plan() must then re-root.
    faults = FaultSchedule(
        seed=1,
        flaps=(FlapWindow(host=victim, start=0.0, duration=0.05),),
        degradations=(
            DegradedWindow(host=dst.hosts[0], start=0.0, duration=10.0, factor=0.9),
        ),
    )
    plan = compile_resharding(task, cache=None, faults=faults).plan
    assert plan.fallbacks, "downing the scheduled sender must re-root"
    assert all(f.to_host != victim for f in plan.fallbacks)
    assert all(
        task.cluster.host_of(op.sender) != victim for op in plan.ops
    )

    array = rng.standard_normal((32, 32)).astype(np.float32)
    src_tensor = DistributedTensor.from_global(src, "RS1", array)
    healthy = apply_plan(healthy_plan, src_tensor)
    rerooted = apply_plan(plan, src_tensor)
    for dev in dst.devices:
        np.testing.assert_array_equal(
            healthy.shards[dev], rerooted.shards[dev]
        )

    timing = simulate_plan(plan, faults=faults, retry_policy=RetryPolicy())
    assert not timing.failed_ops and not timing.corrupted_ops
    report = verify_delivery(plan, timing)
    assert report.certified
    assert report.n_fallbacks == len(plan.fallbacks)


# ----------------------------------------------------------------------
# check_plan, verify_delivery and apply_plan agree on what a plan delivers
# ----------------------------------------------------------------------
def assert_checker_agrees(plan):
    """The analyzer's coverage/authority verdict is the verifier's, and
    the NumPy data plane rejects exactly the plans they refuse.

    P002/P005 fire exactly when the verifier finds a gap or refuses an
    op credit; the verifier's one other refusal, a duplicated delivery,
    is what the analyzer reports as an unordered write (P001).
    ``apply_plan`` raises exactly on a gap, a refused op, or a dep that
    does not name an earlier op (P003/P004); replicas that crop make a
    duplicate harmless to it, as to ``verify_delivery(strict=False)``.
    """
    codes = set(check_plan(plan).codes)
    report = verify_delivery(plan, strict=False, raise_on_error=False)
    delivery_codes = codes & {"P002", "P005"}
    assert bool(delivery_codes) == bool(report.gaps or report.discredited_ops)
    assert report.certified == (not codes & {"P001", "P002", "P005"})

    task = plan.task
    arr = np.arange(np.prod(task.shape), dtype=np.float64).reshape(task.shape)
    src = DistributedTensor.from_global(task.src_mesh, task.src_spec, arr)
    rejected = bool(report.gaps or report.discredited_ops or codes & {"P003", "P004"})
    try:
        out = apply_plan(plan, src)
    except DataPlaneError:
        assert rejected, "apply_plan rejected a plan both checkers accept"
    else:
        assert not rejected, "apply_plan accepted a plan the checkers reject"
        assert np.array_equal(out.to_global(), arr)


def golden_layouts():
    """The Fig. 5 and Fig. 6 (Table 2) layouts at test-sized shapes."""
    for n_hosts, gpus in [(1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (3, 2), (4, 2)]:
        c = paper_cluster(1 + n_hosts, devices_per_host=4)
        dst = DeviceMesh.from_hosts(
            c, range(1, 1 + n_hosts), devices_per_host=gpus
        )
        yield f"fig5-{n_hosts}x{gpus}", ((64,), DeviceMesh(c, [[0]]), "R", dst, "R")
    for case in TABLE2_CASES:
        _, src, dst = make_microbench_meshes(case.send_mesh, case.recv_mesh)
        yield case.name, ((16, 16, 8), src, case.send_spec, dst, case.recv_spec)


@pytest.mark.parametrize(
    "args", [a for _, a in golden_layouts()], ids=[n for n, _ in golden_layouts()]
)
def test_checker_and_verifier_agree_on_golden_plans(args):
    task = ReshardingTask(*args)
    for name in sorted(set(STRATEGIES) - {"signal"}):
        plan = STRATEGIES[name]().plan(task)
        assert_checker_agrees(plan)
        assert check_plan(plan).ok, name


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_checker_and_verifier_agree_on_bad_plans(path):
    plan = load_plan_fixture(path).plan
    assert plan.data_complete
    assert_checker_agrees(plan)


def test_allgather_without_scatter_deps_is_rejected_by_both(cluster4x4):
    """An all-gather is fed only by the scatters its deps name: with the
    deps stripped, neither the analyzer, the verifier nor the data plane
    credits it."""
    task = make_task(cluster4x4, shape=(16, 8, 8), src_spec="S0RR",
                     dst_spec="RS0R")
    plan = AllGatherStrategy().plan(task)
    assert any(isinstance(op, AllGatherOp) for op in plan.ops)
    depless = dataclasses.replace(plan, ops=[
        dataclasses.replace(op, deps=()) if isinstance(op, AllGatherOp) else op
        for op in plan.ops
    ])
    assert_checker_agrees(depless)
    assert "P005" in check_plan(depless).codes
    assert not verify_delivery(depless, raise_on_error=False).certified
    src = DistributedTensor.from_global(
        task.src_mesh, task.src_spec, np.zeros(task.shape, dtype=np.float32)
    )
    with pytest.raises(DataPlaneError, match="deps name"):
        apply_plan(depless, src)


def test_tile_arrivals_match_a_dense_count(cluster4x4, rng):
    """Gaps and duplicates counted on the regions' cut grid equal a
    per-element count over the whole tile."""
    task = make_task(cluster4x4, shape=(9, 7), src_spec="S0R", dst_spec="RR")
    tile = ((0, 9), (0, 7))
    regions = {}
    for dev in task.dst_mesh.devices:
        boxes = []
        for _ in range(rng.integers(0, 6)):
            box = tuple(
                tuple(int(x) for x in sorted(rng.choice(hi + 1, 2, replace=False)))
                for _, hi in tile
            )
            boxes.append(box)
        regions[dev] = boxes
    for dev, got_tile, missing, duplicated in tile_arrivals(task, regions):
        assert got_tile == tile
        dense = np.zeros((9, 7), dtype=int)
        for (r0, r1), (c0, c1) in regions[dev]:
            dense[r0:r1, c0:c1] += 1
        assert (missing, duplicated) == (
            int((dense == 0).sum()),
            int((dense > 1).sum()),
        )
