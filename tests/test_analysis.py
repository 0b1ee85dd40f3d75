"""Tests for the static plan verifier (``repro.analysis``).

Three fronts:

* every hand-built known-bad plan under ``tests/fixtures/bad_plans/`` is
  rejected with (at least) the stable diagnostic codes its ``expect``
  field documents;
* every plan the compiler emits for real reshardings — all strategies,
  several spec pairs — is accepted clean, so the analyzer cannot drift
  into rejecting valid plans;
* the individual rules (race ordering, dep direction, schedule
  consistency, re-rooting) behave correctly on minimal inline plans,
  including the ``reroot_schedule`` edge cases (all senders down, a
  single survivor, single-receiver plans).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import (
    CATALOG,
    check_plan,
    check_plan_deadlock,
    load_plan_fixture,
    plan_from_dict,
)
from repro.compiler import CompileContext, compile_resharding
from repro.compiler.passes import reroot_schedule
from repro.core.mesh import DeviceMesh
from repro.core.task import ReshardingTask
from repro.scheduling.problem import SchedulingProblem
from repro.scheduling.algorithms import load_balance_schedule
from repro.sim.cluster import Cluster, ClusterSpec
from repro.sim.faults import FaultSchedule, HostFailure

FIXTURE_DIR = Path(__file__).parent / "fixtures" / "bad_plans"
FIXTURES = sorted(FIXTURE_DIR.glob("*.json"))


def make_cluster(n_hosts=4, devices_per_host=4) -> Cluster:
    return Cluster(ClusterSpec(n_hosts=n_hosts, devices_per_host=devices_per_host))


def make_task(cluster=None, shape=(64, 64, 64), src_spec="RS0R",
              dst_spec="S0RR", src_hosts=(0, 1), dst_hosts=(2, 3)):
    c = cluster if cluster is not None else make_cluster()
    src = DeviceMesh.from_hosts(c, src_hosts)
    dst = DeviceMesh.from_hosts(c, dst_hosts)
    return ReshardingTask(shape, src, src_spec, dst, dst_spec, dtype=np.float32)


# ----------------------------------------------------------------------
# Known-bad fixtures must be rejected with their documented codes
# ----------------------------------------------------------------------
class TestBadPlanFixtures:
    def test_fixture_directory_is_populated(self):
        assert len(FIXTURES) >= 7

    @pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
    def test_fixture_rejected_with_expected_codes(self, path):
        fixture = load_plan_fixture(path)
        assert fixture.expect, f"{path.name} declares no expected codes"
        report = check_plan(fixture.plan)
        assert not report.ok, f"{path.name} was accepted: {fixture.description}"
        missing = set(fixture.expect) - set(report.codes)
        assert not missing, (
            f"{path.name} expected {sorted(fixture.expect)}, analyzer said "
            f"{sorted(report.codes)}"
        )

    @pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
    def test_expected_codes_fire_as_errors(self, path):
        fixture = load_plan_fixture(path)
        report = check_plan(fixture.plan)
        error_codes = {d.code for d in report.errors}
        assert set(fixture.expect) <= error_codes

    @pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
    def test_every_emitted_code_is_documented(self, path):
        report = check_plan(load_plan_fixture(path).plan)
        for diag in report.diagnostics:
            assert diag.code in CATALOG, f"undocumented code {diag.code}"

    @pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
    def test_expected_codes_are_documented(self, path):
        raw = json.loads(path.read_text(encoding="utf-8"))
        for code in raw["expect"]:
            assert code in CATALOG


# ----------------------------------------------------------------------
# A malformed fixture is bad input (exit 2), not a rejected plan (exit 1)
# ----------------------------------------------------------------------
MALFORMED = {
    "cluster-key": (lambda r: r["cluster"].update(n_spare_hosts=1),
                    "cluster: unknown key 'n_spare_hosts'"),
    "topology-kwarg": (lambda r: r["cluster"].update(topology={"name": "torus", "wrap": 1}),
                       r"cluster.topology \(torus\): unknown key 'wrap'"),
    "domain-name": (lambda r: r["cluster"].update(failure_domains=[{"hosts": [0]}]),
                    r"cluster.failure_domains\[0\]: missing key 'name'"),
    "no-src": (lambda r: r.pop("src"), "plan: missing key 'src'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_fixture_exits_2_with_one_error_line(case, tmp_path, capsys):
    from repro.__main__ import main

    edit, message = MALFORMED[case]
    raw = json.loads((FIXTURE_DIR / "uncovered_slice.json").read_text(encoding="utf-8"))
    edit(raw)
    with pytest.raises(ValueError, match=message):
        plan_from_dict(raw)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["analyze", "--plan-json", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"repro analyze: error: {path}: ")


# ----------------------------------------------------------------------
# Every real compiled plan must be accepted (no false positives)
# ----------------------------------------------------------------------
SPEC_PAIRS = [
    ("RS0R", "S0RR"),
    ("S0RR", "RS0R"),
    ("RRR", "S0RR"),
    ("RS1R", "RRR"),
]


class TestGoldenPlansAccepted:
    @pytest.mark.parametrize("strategy", ["send_recv", "broadcast", "allgather"])
    @pytest.mark.parametrize("src_spec,dst_spec", SPEC_PAIRS)
    def test_compiled_plan_is_clean(self, strategy, src_spec, dst_spec):
        task = make_task(shape=(32, 32, 32), src_spec=src_spec, dst_spec=dst_spec)
        compiled = compile_resharding(
            task, CompileContext(strategy=strategy, cache=None)
        )
        report = check_plan(compiled.plan)
        assert report.ok, "\n".join(d.format() for d in report.diagnostics)

    def test_validate_pass_accepts_golden_plans(self):
        task = make_task(shape=(32, 32, 32))
        compiled = compile_resharding(
            task, CompileContext(strategy="broadcast", cache=None, validate=True)
        )
        assert compiled.plan.ops

    def test_uneven_shard_plan_is_clean(self):
        # 3-way split of 10 rows: unequal tiles exercise coverage math.
        c = make_cluster(n_hosts=4, devices_per_host=1)
        src = DeviceMesh.from_hosts(c, (0,))
        dst = DeviceMesh.from_hosts(c, (1, 2, 3))
        task = ReshardingTask((10, 4), src, "RR", dst, "S0R", dtype=np.float32)
        compiled = compile_resharding(
            task, CompileContext(strategy="broadcast", cache=None)
        )
        report = check_plan(compiled.plan)
        assert report.ok, "\n".join(d.format() for d in report.diagnostics)


# ----------------------------------------------------------------------
# Rule units on minimal inline plans
# ----------------------------------------------------------------------
def inline_plan(ops, schedule=None, fallbacks=None, src=None, dst=None):
    raw = {
        "cluster": {"n_hosts": 4, "devices_per_host": 2},
        "shape": [8, 8],
        "src": src or {"hosts": [0], "spec": "RR"},
        "dst": dst or {"hosts": [1], "spec": "RR"},
        "ops": ops,
    }
    if schedule is not None:
        raw["schedule"] = schedule
    if fallbacks is not None:
        raw["fallbacks"] = fallbacks
    return plan_from_dict(raw)


FULL = [[0, 8], [0, 8]]


class TestRuleUnits:
    def test_dep_orders_same_receiver_writes(self):
        # Same two writes as overlapping_writes.json, but op 1 depends on
        # op 0: ordered, so no race.
        plan = inline_plan([
            {"kind": "send", "id": 0, "task": 0, "region": FULL,
             "sender": 0, "receiver": 2},
            {"kind": "send", "id": 1, "task": 0, "region": FULL,
             "sender": 1, "receiver": 2, "deps": [0]},
            {"kind": "send", "id": 2, "task": 0, "region": FULL,
             "sender": 0, "receiver": 3},
        ])
        report = check_plan(plan)
        assert "P001" not in report.codes
        assert report.ok, "\n".join(d.format() for d in report.diagnostics)

    def test_disjoint_writes_do_not_race(self):
        plan = inline_plan([
            {"kind": "send", "id": 0, "task": 0, "region": [[0, 4], [0, 8]],
             "sender": 0, "receiver": 2},
            {"kind": "send", "id": 1, "task": 0, "region": [[4, 8], [0, 8]],
             "sender": 1, "receiver": 2},
            {"kind": "send", "id": 2, "task": 0, "region": FULL,
             "sender": 0, "receiver": 3},
        ])
        assert "P001" not in check_plan(plan).codes

    def test_forward_dep_is_rejected(self):
        plan = inline_plan([
            {"kind": "send", "id": 0, "task": 0, "region": FULL,
             "sender": 0, "receiver": 2, "deps": [1]},
            {"kind": "send", "id": 1, "task": 0, "region": FULL,
             "sender": 0, "receiver": 3},
        ])
        assert "P004" in check_plan(plan).codes

    def test_duplicate_op_id_is_malformed(self):
        plan = inline_plan([
            {"kind": "send", "id": 0, "task": 0, "region": FULL,
             "sender": 0, "receiver": 2},
            {"kind": "send", "id": 0, "task": 0, "region": FULL,
             "sender": 0, "receiver": 3},
        ])
        assert "P008" in check_plan(plan).codes

    def test_region_rank_mismatch_is_malformed(self):
        plan = inline_plan([
            {"kind": "send", "id": 0, "task": 0, "region": [[0, 8]],
             "sender": 0, "receiver": 2},
            {"kind": "send", "id": 1, "task": 0, "region": FULL,
             "sender": 0, "receiver": 2},
            {"kind": "send", "id": 2, "task": 0, "region": FULL,
             "sender": 0, "receiver": 3},
        ])
        assert "P008" in check_plan(plan).codes

    def test_schedule_missing_task_is_inconsistent(self):
        plan = inline_plan(
            [
                {"kind": "send", "id": 0, "task": 0, "region": FULL,
                 "sender": 0, "receiver": 2},
                {"kind": "send", "id": 1, "task": 0, "region": FULL,
                 "sender": 0, "receiver": 3},
            ],
            schedule={"assignment": {}, "order": []},
        )
        assert "P007" in check_plan(plan).codes

    def test_fallback_consistent_reroot_is_clean(self):
        # Re-rooted off host 0 onto host 1 — and the op really does send
        # from host 1 (device 2). The analyzer must accept this.
        plan = inline_plan(
            [
                {"kind": "broadcast", "id": 0, "task": 0, "region": FULL,
                 "sender": 2, "receivers": [4, 5]},
            ],
            src={"hosts": [0, 1], "spec": "RR"},
            dst={"hosts": [2], "spec": "RR"},
            schedule={"assignment": {"0": 1}, "order": [0]},
            fallbacks=[{"task": 0, "from_host": 0, "to_host": 1,
                        "reason": "sender-host-down"}],
        )
        report = check_plan(plan)
        assert "P006" not in report.codes
        assert report.ok, "\n".join(d.format() for d in report.diagnostics)

    def test_deadlock_checker_clean_on_consistent_gating(self):
        # Dep agrees with the gating order: no cycle.
        plan = inline_plan(
            [
                {"kind": "broadcast", "id": 0, "task": 0,
                 "region": [[0, 4], [0, 8]], "sender": 0, "receivers": [2, 3]},
                {"kind": "broadcast", "id": 1, "task": 1,
                 "region": [[4, 8], [0, 8]], "sender": 0, "receivers": [4, 5],
                 "deps": [0]},
            ],
            src={"hosts": [0], "spec": "RR"},
            dst={"hosts": [1, 2], "spec": "S0R"},
            schedule={"assignment": {"0": 0, "1": 0}, "order": [0, 1]},
        )
        assert check_plan_deadlock(plan).ok
        assert check_plan(plan).ok

    def test_deadlock_witness_names_the_cycle(self):
        fixture = load_plan_fixture(FIXTURE_DIR / "gated_dep_deadlock.json")
        report = check_plan(fixture.plan)
        (diag,) = [d for d in report.diagnostics if d.code == "D001"]
        assert diag.witness
        assert diag.witness[0] == diag.witness[-1]


# ----------------------------------------------------------------------
# reroot_schedule edge cases
# ----------------------------------------------------------------------
def dead_hosts(*hosts):
    return FaultSchedule(
        host_failures=tuple(HostFailure(host=h, time=0.0) for h in hosts)
    )


class TestRerootEdgeCases:
    def make_schedule(self, task, granularity="intersection"):
        unit_tasks = task.unit_tasks(granularity)
        problem = SchedulingProblem.from_resharding(task, granularity=granularity)
        return unit_tasks, load_balance_schedule(problem)

    def test_all_senders_down_keeps_assignment(self):
        task = make_task(shape=(32, 32, 32), src_spec="RRR", dst_spec="S0RR")
        unit_tasks, schedule = self.make_schedule(task)
        before = dict(schedule.assignment)
        fallbacks = []
        n = reroot_schedule(task, unit_tasks, schedule, dead_hosts(0, 1), fallbacks)
        assert n == 0
        assert fallbacks == []
        assert schedule.assignment == before

    def test_single_survivor_takes_over(self):
        task = make_task(shape=(32, 32, 32), src_spec="RRR", dst_spec="S0RR")
        unit_tasks, schedule = self.make_schedule(task)
        doomed = [t for t, h in schedule.assignment.items() if h == 0]
        fallbacks = []
        n = reroot_schedule(task, unit_tasks, schedule, dead_hosts(0), fallbacks)
        assert n == len(doomed)
        assert len(fallbacks) == n
        for fb in fallbacks:
            assert fb.from_host == 0
            assert fb.to_host == 1
            assert schedule.assignment[fb.unit_task_id] == 1

    def test_faulty_compile_avoids_dead_host_and_passes_analyzer(self):
        # The fault-aware scheduler steers assignments off the dead host
        # (so FaultRewritePass may have nothing left to re-root); either
        # way no op may send from it and the plan must validate clean.
        task = make_task(shape=(32, 32, 32), src_spec="RRR", dst_spec="S0RR")
        compiled = compile_resharding(
            task,
            CompileContext(strategy="broadcast", cache=None,
                           faults=dead_hosts(0), validate=True),
        )
        cluster = compiled.plan.task.cluster
        for op in compiled.plan.ops:
            sender = getattr(op, "sender", None)
            if sender is not None:
                assert cluster.host_of(sender) != 0
        report = check_plan(compiled.plan)
        assert report.ok, "\n".join(d.format() for d in report.diagnostics)

    def test_single_receiver_plan_reroot_and_analyze(self):
        c = make_cluster(n_hosts=3, devices_per_host=1)
        src = DeviceMesh.from_hosts(c, (0, 1))
        dst = DeviceMesh.from_hosts(c, (2,))
        task = ReshardingTask((16, 16), src, "RR", dst, "RR", dtype=np.float32)
        compiled = compile_resharding(
            task,
            CompileContext(strategy="broadcast", cache=None,
                           faults=dead_hosts(0), validate=True),
        )
        report = check_plan(compiled.plan)
        assert report.ok, "\n".join(d.format() for d in report.diagnostics)

    def test_unreplicated_source_never_reroots(self):
        # Sharded source: each unit task has exactly one sender host, so
        # a dead host has no survivor to re-root onto.
        task = make_task(shape=(32, 32, 32), src_spec="S0RR", dst_spec="RS0R")
        unit_tasks, schedule = self.make_schedule(task)
        fallbacks = []
        n = reroot_schedule(task, unit_tasks, schedule, dead_hosts(0), fallbacks)
        assert n == 0
        assert fallbacks == []
