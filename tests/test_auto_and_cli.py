"""Tests for the auto strategy and the command-line interface."""

import numpy as np
import pytest

from repro.__main__ import main
from repro.core.executor import simulate_plan
from repro.core.mesh import DeviceMesh
from repro.core.task import ReshardingTask
from repro.sim.cluster import Cluster, ClusterSpec
from repro.strategies import AutoStrategy, BroadcastStrategy, make_strategy


def make_task(src_spec="RS0R", dst_spec="S0RR", shape=(64, 64, 64)):
    c = Cluster(ClusterSpec(n_hosts=4, devices_per_host=4))
    src = DeviceMesh.from_hosts(c, [0, 1])
    dst = DeviceMesh.from_hosts(c, [2, 3])
    return ReshardingTask(shape, src, src_spec, dst, dst_spec, dtype=np.float32)


# ----------------------------------------------------------------------
# AutoStrategy
# ----------------------------------------------------------------------
def test_auto_picks_fastest_candidate():
    task = make_task()
    auto = AutoStrategy()
    plan = auto.plan(task)
    t_auto = simulate_plan(plan).total_time
    for name in ("send_recv", "allgather", "broadcast"):
        t = simulate_plan(make_strategy(name).plan(task)).total_time
        assert t_auto <= t + 1e-12
    assert len(auto.last_scores) == 3


def test_auto_registered_in_registry():
    assert isinstance(make_strategy("auto"), AutoStrategy)


def test_auto_custom_candidates():
    auto = AutoStrategy(candidates=[BroadcastStrategy(scheduler="naive")])
    plan = auto.plan(make_task())
    assert plan.strategy == "broadcast"
    with pytest.raises(ValueError):
        AutoStrategy(candidates=[])


def test_auto_prefers_broadcast_on_replication_heavy_case():
    """For large replicated messages the §3.1-optimal broadcast wins."""
    task = make_task("RRR", "RRR", shape=(1 << 26, 1, 1))  # 256 MiB
    auto = AutoStrategy()
    plan = auto.plan(task)
    assert plan.strategy == "broadcast"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_reshard(capsys):
    rc = main([
        "reshard", "--shape", "64,64,16", "--src-spec", "RS0R",
        "--dst-spec", "S0RR", "--strategy", "broadcast",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "broadcast" in out and "latency" in out


def test_cli_reshard_all_with_verify(capsys):
    rc = main([
        "reshard", "--shape", "32,32,8", "--src-spec", "S0RR",
        "--dst-spec", "RS1R", "--strategy", "all", "--verify",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verified=True" in out
    # signal carries no data, so it must not print a verification flag
    for line in out.splitlines():
        if line.strip().startswith("signal"):
            assert "verified" not in line


def test_cli_reshard_dump_plan_after_emit(capsys):
    rc = main([
        "reshard", "--shape", "8,8,8", "--src-spec", "S0RR",
        "--dst-spec", "RS1R", "--strategy", "broadcast",
        "--dump-plan-after", "emit",
    ])
    lines = [line.strip() for line in capsys.readouterr().out.splitlines()]
    assert rc == 0
    after = lines.index("-- after emit --")
    assert lines[after + 1].startswith("schedule[")
    assert "assignment=" in lines[after + 1]
    assert lines[after + 2].startswith("BroadcastOp(")


def test_cli_reshard_bad_mesh(capsys):
    rc = main([
        "reshard", "--shape", "8,8", "--src-spec", "S0R", "--dst-spec", "RR",
        "--src-mesh", "2", "--dst-mesh", "2,2",
    ])
    assert rc == 2


def test_cli_e2e_small(capsys):
    rc = main(["e2e", "--model", "gpt1", "--method", "signal"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "TFLOPS/GPU" in out


def test_cli_experiment_table1(capsys):
    rc = main(["experiment", "E3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "216M" in out


def test_cli_bad_shape():
    with pytest.raises(SystemExit):
        main(["reshard", "--shape", "abc", "--src-spec", "R", "--dst-spec", "R"])


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        main([])
