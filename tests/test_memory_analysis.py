"""Static peak-memory analysis (M-codes) and per-host buffer accounting.

The contract under test, end to end:

* :func:`repro.core.buffers.op_host_buffers` attributes every op's
  transient bytes receiver-side, per host — the one attribution both
  the static analyzer and the runtime accountant consume;
* :func:`repro.analysis.static_host_bounds` is a **sound** upper bound:
  on every workload, strategy, topology, and fault schedule we can
  simulate, ``bound[h] >= TimingResult.host_peak_buffers[h]``;
* ``memory_budget`` lives on :class:`ClusterSpec` only and threads from
  there into validation (M001), auto-strategy selection (M003), and the
  cache signature — and ``memory_budget=None`` leaves every signature and
  telemetry digest byte-identical to a world without budgets.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.analysis import check_plan, plan_from_dict, static_host_bounds
from repro.analysis.memory_analysis import SOUNDNESS_SLACK_BYTES
from repro.compiler import CompileContext, compile_resharding
from repro.compiler.cache import PlanCache, plan_signature, task_signature
from repro.core.buffers import op_host_buffers
from repro.core.executor import simulate_plan
from repro.core.mesh import DeviceMesh
from repro.core.plan import BroadcastOp, ScatterOp, SendOp
from repro.core.task import ReshardingTask
from repro.core.validate import PlanValidationError
from repro.fuzz import LeakyBufferRunner, fuzz_workloads, run_one
from repro.sim.cluster import Cluster, ClusterSpec
from repro.sim.faults import FaultSchedule, HostFailure, RetryPolicy

STRATEGIES = ("send_recv", "allgather", "broadcast")


def make_task(n_hosts=4, devices_per_host=2, shape=(64, 64),
              src_spec="S0R", dst_spec="RS1", memory_budget=None):
    c = Cluster(ClusterSpec(
        n_hosts=n_hosts,
        devices_per_host=devices_per_host,
        memory_budget=memory_budget,
    ))
    src = DeviceMesh.from_hosts(c, tuple(range(n_hosts // 2)))
    dst = DeviceMesh.from_hosts(c, tuple(range(n_hosts // 2, n_hosts)))
    return ReshardingTask(shape, src, src_spec, dst, dst_spec,
                          dtype=np.float32)


# ----------------------------------------------------------------------
# Attribution: op_host_buffers
# ----------------------------------------------------------------------
class TestOpHostBuffers:
    def setup_method(self):
        self.cluster = Cluster(ClusterSpec(n_hosts=3, devices_per_host=2))

    def test_send_charges_receiver_host(self):
        op = SendOp(op_id=0, unit_task_id=0, region=((0, 4),),
                    nbytes=100.0, sender=0, receiver=4)
        assert op_host_buffers(self.cluster, op) == {2: 100.0}

    def test_broadcast_charges_per_receiver_on_host(self):
        op = BroadcastOp(op_id=0, unit_task_id=0, region=((0, 4),),
                         nbytes=100.0, sender=0, receivers=(2, 3, 4))
        # two receivers on host 1, one on host 2
        assert op_host_buffers(self.cluster, op) == {1: 200.0, 2: 100.0}

    def test_scatter_splits_evenly_across_receivers(self):
        op = ScatterOp(op_id=0, unit_task_id=0, region=((0, 4),),
                       nbytes=100.0, sender=0, receivers=(2, 3, 4, 5))
        assert op_host_buffers(self.cluster, op) == {1: 50.0, 2: 50.0}

    def test_devices_outside_cluster_are_skipped(self):
        op = SendOp(op_id=0, unit_task_id=0, region=((0, 4),),
                    nbytes=100.0, sender=0, receiver=99)
        assert op_host_buffers(self.cluster, op) == {}


# ----------------------------------------------------------------------
# static_host_bounds: chain decomposition and schedule gating
# ----------------------------------------------------------------------
def fixture_plan(ops, n_hosts=3, devices_per_host=2, schedule=None,
                 memory_budget=None, shape=(8, 8), dst_spec="RR"):
    raw = {
        "cluster": {"n_hosts": n_hosts, "devices_per_host": devices_per_host},
        "shape": list(shape),
        "src": {"hosts": [0], "spec": "RR"},
        "dst": {"hosts": list(range(1, n_hosts)), "spec": dst_spec},
        "ops": ops,
    }
    if memory_budget is not None:
        raw["cluster"]["memory_budget"] = memory_budget
    if schedule is not None:
        raw["schedule"] = schedule
    return plan_from_dict(raw)


FULL = [[0, 8], [0, 8]]


class TestStaticHostBounds:
    def test_independent_ops_sum_ungated(self):
        plan = fixture_plan([
            {"kind": "send", "id": 0, "task": 0, "region": FULL,
             "sender": 0, "receiver": 2, "nbytes": 100},
            {"kind": "send", "id": 1, "task": 0, "region": FULL,
             "sender": 0, "receiver": 3, "nbytes": 40},
        ])
        mem = static_host_bounds(plan)
        assert not mem.gated
        assert mem.per_host[1] == 140.0

    def test_dependent_ops_serialize_into_a_chain_max(self):
        plan = fixture_plan([
            {"kind": "send", "id": 0, "task": 0, "region": FULL,
             "sender": 0, "receiver": 2, "nbytes": 100},
            {"kind": "send", "id": 1, "task": 0, "region": FULL,
             "sender": 0, "receiver": 3, "nbytes": 40, "deps": [0]},
        ])
        mem = static_host_bounds(plan)
        # one chain: its per-host max, not the sum
        assert mem.per_host[1] == 100.0

    def test_schedule_gating_takes_the_max_over_tasks(self):
        # dst "RS1": unit tasks 0 and 1 both deliver to host 1, so the
        # schedule chains them there and the gated bound is the max.
        ops = [
            {"kind": "send", "id": 0, "task": 0, "region": [[0, 8], [0, 4]],
             "sender": 0, "receiver": 2, "nbytes": 100},
            {"kind": "send", "id": 1, "task": 1, "region": [[0, 8], [4, 8]],
             "sender": 0, "receiver": 3, "nbytes": 60},
        ]
        ungated = static_host_bounds(fixture_plan(ops, dst_spec="RS1"))
        gated = static_host_bounds(fixture_plan(
            ops, dst_spec="RS1",
            schedule={"assignment": {"0": 0, "1": 0}, "order": [0, 1]},
        ))
        assert ungated.per_host[1] == 160.0
        assert gated.gated
        assert not gated.uncovered_ops
        assert gated.per_host[1] == 100.0

    def test_nonfinite_op_is_reported_and_bound_is_inf(self):
        plan = fixture_plan([
            {"kind": "send", "id": 0, "task": 0, "region": FULL,
             "sender": 0, "receiver": 2, "nbytes": 1e400},
        ])
        mem = static_host_bounds(plan)
        assert mem.nonfinite_ops == (0,)
        assert mem.per_host[1] == float("inf")

    def test_empty_plan_has_zero_peak(self):
        mem = static_host_bounds(fixture_plan([]))
        assert mem.peak == 0.0

    def test_dominates_allows_float_residue(self):
        mem = static_host_bounds(fixture_plan([
            {"kind": "send", "id": 0, "task": 0, "region": FULL,
             "sender": 0, "receiver": 2, "nbytes": 100},
        ]))
        assert mem.dominates({1: 100.0 + SOUNDNESS_SLACK_BYTES / 2})
        assert not mem.dominates({1: 200.0})


# ----------------------------------------------------------------------
# Soundness: static bound >= simulated high-water mark
# ----------------------------------------------------------------------
class TestSoundness:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize(
        "workload", fuzz_workloads(), ids=lambda w: w.name
    )
    def test_bound_dominates_simulation(self, workload, strategy):
        compiled = compile_resharding(
            workload.task, CompileContext(strategy=strategy, cache=None)
        )
        timing = simulate_plan(compiled.plan)
        mem = static_host_bounds(compiled.plan)
        assert timing.host_peak_buffers, "accounting must always run"
        assert mem.dominates(timing.host_peak_buffers), (
            f"{workload.name}/{strategy}: observed "
            f"{timing.host_peak_buffers} > bound {mem.per_host}"
        )

    @pytest.mark.parametrize(
        "workload", fuzz_workloads(), ids=lambda w: w.name
    )
    def test_bound_dominates_under_faults(self, workload):
        faults = FaultSchedule(
            seed=7, host_failures=(HostFailure(host=1, time=1e-5),)
        )
        compiled = compile_resharding(
            workload.task,
            CompileContext(strategy=workload.strategy, faults=faults,
                           retry_policy=RetryPolicy(), cache=None),
        )
        timing = simulate_plan(
            compiled.plan, faults=faults, retry_policy=RetryPolicy()
        )
        mem = static_host_bounds(compiled.plan)
        assert mem.dominates(timing.host_peak_buffers)

    def test_leaky_accountant_breaks_the_invariant(self):
        # The self-test sabotage must actually cross the bound somewhere,
        # or the fuzzer's memory-sound invariant proves nothing.
        broken = []
        for workload in fuzz_workloads():
            compiled = compile_resharding(
                workload.task,
                CompileContext(strategy=workload.strategy, cache=None),
            )
            timing = LeakyBufferRunner(compiled.plan).run()
            mem = static_host_bounds(compiled.plan)
            if not mem.dominates(timing.host_peak_buffers):
                broken.append(workload.name)
        assert broken, "LeakyBufferRunner never exceeded the static bound"

    def test_fuzzer_memory_invariant_fires_on_leak(self):
        workload = fuzz_workloads()[1]  # fig6-crossmesh: multi-task
        found, _, _ = run_one(
            workload, FaultSchedule(seed=0), break_memory=True
        )
        assert any(inv == "memory-sound" for inv, _ in found)


# ----------------------------------------------------------------------
# Runtime accounting: off the bus, digests stable
# ----------------------------------------------------------------------
class TestRuntimeAccounting:
    def test_peaks_recorded_without_gauges(self):
        task = make_task()
        compiled = compile_resharding(task, CompileContext(cache=None))
        timing = simulate_plan(compiled.plan)
        assert timing.host_peak_buffers
        assert all(v > 0 for v in timing.host_peak_buffers.values())
        rows = timing.telemetry.counter_rows
        assert not any("buffer_bytes" in repr(r) for r in rows)

    def test_default_digest_is_deterministic(self):
        task = make_task()
        digests = set()
        for _ in range(2):
            compiled = compile_resharding(task, CompileContext(cache=None))
            digests.add(simulate_plan(compiled.plan).telemetry.digest())
        assert len(digests) == 1


# ----------------------------------------------------------------------
# memory_budget threading: spec, select, validate, cache signature
# ----------------------------------------------------------------------
class TestBudgetThreading:
    def test_spec_rejects_nonpositive_and_nonfinite_budgets(self):
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                ClusterSpec(n_hosts=2, memory_budget=bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_budget_overrides_get_the_spec_rule(self, bad):
        # A NaN budget fails every M001 comparison and would certify the
        # plan against no budget at all; 0 and -1 are input errors, not an
        # M001 PlanValidationError.  check_plan's what-if budget is the
        # one override of the cluster's.
        with pytest.raises(ValueError, match="memory_budget must be"):
            make_task(memory_budget=bad)
        plan = compile_resharding(
            make_task(), CompileContext(strategy="send_recv", cache=None)
        ).plan
        with pytest.raises(ValueError, match="memory_budget must be"):
            check_plan(plan, memory_budget=bad)

    @pytest.mark.parametrize("bad", ["nan", "inf", "0", "-1"])
    def test_cli_budget_gets_the_spec_rule(self, bad, capsys):
        from repro.__main__ import main

        shape = ["--shape", "8,8,8", "--src-spec", "S0RR", "--dst-spec", "RS1R"]
        for cmd in ("reshard", "analyze"):
            assert main([cmd, *shape, f"--memory-budget={bad}"]) == 2
            assert re.search("memory_budget must be", capsys.readouterr().err)

    def test_spec_budget_fires_m001_through_check_plan(self):
        task = make_task(memory_budget=64.0)
        compiled = compile_resharding(
            task, CompileContext(strategy="send_recv", cache=None)
        )
        report = check_plan(compiled.plan)
        assert "M001" in report.codes

    def test_validate_pass_rejects_over_budget_compiles(self):
        task = make_task(memory_budget=64.0)
        with pytest.raises(PlanValidationError, match="M001"):
            compile_resharding(
                task,
                CompileContext(strategy="send_recv", cache=None, validate=True),
            )

    def test_warm_validate_raises_m001_like_a_cold_compile(self):
        # The budget is in the signature but validation is not: a plan
        # cached by a validate=False compile must still be held to the
        # cluster's budget when a validate=True compile hits it.
        task = make_task(memory_budget=1.0)
        with pytest.raises(PlanValidationError, match="M001"):
            compile_resharding(
                task,
                CompileContext(strategy="send_recv", cache=PlanCache(),
                               validate=True),
            )
        cache = PlanCache()
        cached = compile_resharding(
            task, CompileContext(strategy="send_recv", cache=cache)
        )
        assert not cached.validated
        with pytest.raises(PlanValidationError, match="M001"):
            compile_resharding(
                task,
                CompileContext(strategy="send_recv", cache=cache, validate=True),
            )
        assert not cached.validated

    def test_generous_budget_is_feasible(self):
        task = make_task(memory_budget=1e12)
        compiled = compile_resharding(
            task,
            CompileContext(strategy="send_recv", cache=None, validate=True),
        )
        assert compiled.validated

    def test_auto_select_raises_m003_when_every_candidate_exceeds(self):
        task = make_task(memory_budget=1.0)
        with pytest.raises(PlanValidationError, match="M003"):
            compile_resharding(task, CompileContext(strategy="auto", cache=None))

    def test_auto_select_prefers_feasible_candidates(self):
        task = make_task()
        unconstrained = compile_resharding(
            task, CompileContext(strategy="auto", cache=None)
        )
        # A budget below the winner's peak but above the best feasible
        # candidate's must flip the choice, not fail the compile.
        peaks = {}
        for name in STRATEGIES:
            sub = compile_resharding(
                task, CompileContext(strategy=name, cache=None)
            )
            peaks[name] = static_host_bounds(sub.plan).peak
        budget = min(peaks.values()) * 1.5
        if all(p > budget for p in peaks.values()):
            pytest.skip("no strategy separation on this workload")
        constrained = compile_resharding(
            make_task(memory_budget=budget),
            CompileContext(strategy="auto", cache=None),
        )
        assert static_host_bounds(constrained.plan).peak <= budget
        assert unconstrained.plan is not constrained.plan

    def test_budget_none_keeps_signatures_byte_identical(self):
        spec = ClusterSpec(n_hosts=4, devices_per_host=2)
        task = make_task()
        assert "memory_budget" not in repr(task_signature(task))
        sig_plain = plan_signature(task, ("broadcast",))
        # a second budget-free task hashes identically
        assert plan_signature(make_task(), ("broadcast",)) == sig_plain
        budgeted = make_task(memory_budget=1024.0)
        assert plan_signature(budgeted, ("broadcast",)) != sig_plain
        assert spec.memory_budget is None


# ----------------------------------------------------------------------
# Incremental re-simulation carries the accounting state
# ----------------------------------------------------------------------
class TestResimAccounting:
    def test_resimulate_matches_cold_peaks(self):
        from repro.compiler.resim import ResimCache, resimulate

        task = make_task(shape=(64, 64))
        compiled = compile_resharding(
            task, CompileContext(strategy="broadcast", cache=None)
        )
        cold = simulate_plan(compiled.plan)
        cache = ResimCache()
        first = resimulate(compiled.plan, cache=cache)
        resumed = resimulate(compiled.plan, cache=cache)
        assert first.host_peak_buffers == cold.host_peak_buffers
        assert resumed.host_peak_buffers == cold.host_peak_buffers
