"""Tests for the staged plan compiler and its content-addressed cache.

Covers cache correctness: hits on identical requests, misses on every
perturbed signature component (tensor, specs, mesh shapes, topology,
fault scenario), and byte-identical ``apply_plan`` output for cached
vs. freshly compiled plans — plus the pass-pipeline instrumentation and
the legacy ``strategy.plan()`` equivalence.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.compiler import (
    CompileContext,
    CompiledPlan,
    EdgeResharding,
    PassManager,
    PlanCache,
    compile_resharding,
    default_plan_cache,
    plan_signature,
    reset_default_plan_cache,
    task_signature,
)
from repro.compiler.cache import TimingMemo, timing_signature
from repro.core.api import reshard
from repro.core.data import apply_plan
from repro.core.executor import PlanRunner, simulate_plan
from repro.core.plan import BroadcastOp
from repro.core.mesh import DeviceMesh
from repro.core.task import ReshardingTask
from repro.core.tensor import DistributedTensor
from repro.core.validate import PlanValidationError
from repro.experiments.common import make_microbench_meshes
from repro.experiments.fig6 import TABLE2_CASES, TENSOR_SHAPE
from repro.sim.cluster import Cluster, ClusterSpec
from repro.sim.faults import CorruptionWindow, FaultSchedule, HostFailure, RetryPolicy
from repro.strategies import (
    AutoStrategy,
    BroadcastStrategy,
    SendRecvStrategy,
    make_strategy,
)
from tests.workload_counts import replay, timing_fields, workload_pass

PASS_NAMES = ["lower", "select", "schedule", "fault_rewrite", "emit", "validate"]


def make_cluster(**overrides) -> Cluster:
    return Cluster(ClusterSpec(n_hosts=4, devices_per_host=4, **overrides))


def make_task(cluster=None, shape=(64, 64, 64), src_spec="RS0R",
              dst_spec="S0RR", src_hosts=(0, 1), dst_hosts=(2, 3)):
    c = cluster if cluster is not None else make_cluster()
    src = DeviceMesh.from_hosts(c, src_hosts)
    dst = DeviceMesh.from_hosts(c, dst_hosts)
    return ReshardingTask(shape, src, src_spec, dst, dst_spec, dtype=np.float32)


def make_edge(ctx=None, cluster=None) -> EdgeResharding:
    fwd = make_task(cluster)
    bwd = make_task(cluster, src_spec="S0RR", dst_spec="RS0R",
                    src_hosts=(2, 3), dst_hosts=(0, 1))
    return EdgeResharding(fwd, bwd, ctx)


# ----------------------------------------------------------------------
# Cache hit / miss semantics
# ----------------------------------------------------------------------
class TestCacheHitMiss:
    def test_identical_request_hits(self):
        cache = PlanCache()
        ctx = CompileContext(strategy="broadcast", cache=cache)
        first = compile_resharding(make_task(), ctx)
        second = compile_resharding(make_task(), ctx)
        assert second is first  # the stored CompiledPlan itself
        stats = cache.stats()
        assert (stats.requests, stats.hits, stats.misses) == (2, 1, 1)
        assert stats.size == 1
        assert stats.hit_rate == 0.5

    def test_content_addressed_not_identity_addressed(self):
        """Two distinct Cluster objects with equal content share entries."""
        cache = PlanCache()
        t1 = make_task(make_cluster())
        t2 = make_task(make_cluster())
        assert t1.cluster is not t2.cluster
        assert task_signature(t1) == task_signature(t2)
        compile_resharding(t1, CompileContext(cache=cache))
        compile_resharding(t2, CompileContext(cache=cache))
        assert cache.stats().hits == 1

    @pytest.mark.parametrize(
        "perturb",
        [
            dict(shape=(64, 64, 32)),
            dict(dst_spec="RS1R"),
            dict(dst_hosts=(3, 2)),  # same hosts, different device grid
            dict(cluster="bw"),  # slower interconnect
            dict(cluster="override"),  # per-host NIC override
        ],
        ids=["shape", "spec", "mesh", "bandwidth", "override"],
    )
    def test_perturbed_key_misses(self, perturb):
        cache = PlanCache()
        compile_resharding(make_task(), CompileContext(cache=cache))
        if perturb.get("cluster") == "bw":
            task = make_task(make_cluster(inter_host_bandwidth=25e9 / 8))
        elif perturb.get("cluster") == "override":
            task = make_task(
                make_cluster(host_bandwidth_overrides=((0, 25e9 / 8),))
            )
        else:
            task = make_task(**perturb)
        compile_resharding(task, CompileContext(cache=cache))
        stats = cache.stats()
        assert stats.hits == 0
        assert stats.misses == 2
        assert stats.size == 2

    def test_fault_scenario_in_signature(self):
        cache = PlanCache()
        task = make_task()
        faults = FaultSchedule(host_failures=(HostFailure(0, 100.0),))
        compile_resharding(task, CompileContext(cache=cache))
        compile_resharding(task, CompileContext(cache=cache, faults=faults))
        compile_resharding(
            task,
            CompileContext(
                cache=cache, faults=faults, retry_policy=RetryPolicy(max_attempts=5)
            ),
        )
        stats = cache.stats()
        assert stats.hits == 0
        assert stats.misses == 3

    def test_strategy_options_in_signature(self):
        cache = PlanCache()
        task = make_task()
        compile_resharding(task, CompileContext("broadcast", cache=cache))
        compile_resharding(
            task,
            CompileContext("broadcast", {"scheduler": "naive"}, cache=cache),
        )
        compile_resharding(task, CompileContext("send_recv", cache=cache))
        assert cache.stats().hits == 0
        assert cache.stats().misses == 3

    def test_fifo_eviction(self):
        cache = PlanCache(max_entries=1)
        compile_resharding(make_task(), CompileContext(cache=cache))
        compile_resharding(
            make_task(shape=(32, 32, 32)), CompileContext(cache=cache)
        )
        assert len(cache) == 1
        with pytest.raises(ValueError):
            PlanCache(max_entries=0)

    def test_default_bound_is_1024_entries(self):
        cache = PlanCache()
        for k in range(1024):
            cache.store(str(k), None)
        assert (len(cache), cache.evictions) == (1024, 0)
        cache.store("one more", None)
        assert (len(cache), cache.evictions) == (1024, 1)
        assert "0" not in cache

    def test_default_arguments_sign_a_default_compile(self):
        # no faults, no retry policy: what a default compile stores
        task = make_task()
        compiled = compile_resharding(task, CompileContext(cache=PlanCache()))
        strategy_key = make_strategy("broadcast").cache_key()
        assert compiled.signature == plan_signature(task, strategy_key)


# ----------------------------------------------------------------------
# One home for a compile's faults: the context
# ----------------------------------------------------------------------
class TestFaultsOnTheContext:
    @pytest.mark.parametrize(
        "strategy", ["broadcast", "multicast", "send_recv", "auto"]
    )
    def test_fault_schedule_keys_the_cache_for_every_strategy(self, strategy):
        cache = PlanCache()
        task = make_task()
        first = FaultSchedule(seed=0, host_failures=(HostFailure(0, 0.0),))
        second = FaultSchedule(seed=0, host_failures=(HostFailure(1, 0.0),))
        for faults in (first, second, first):
            compile_resharding(
                task, CompileContext(strategy, faults=faults, cache=cache)
            )
        stats = cache.stats()
        assert (stats.misses, stats.hits) == (2, 1)

    def test_auto_candidates_schedule_around_a_dead_host(self):
        # A strategy carries no fault schedule: auto's candidate sees the
        # context's, so it never roots a broadcast on the dead host.
        cluster = Cluster(ClusterSpec(n_hosts=4, devices_per_host=2))
        task = ReshardingTask(
            (64, 64), DeviceMesh.from_hosts(cluster, [0, 1]), "RR",
            DeviceMesh.from_hosts(cluster, [2, 3]), "S0R",
        )
        faults = FaultSchedule(seed=0, host_failures=(HostFailure(0, 0.0),))
        compiled = compile_resharding(
            task,
            CompileContext(
                strategy=AutoStrategy(candidates=[BroadcastStrategy()]),
                faults=faults,
                retry_policy=RetryPolicy(),
                cache=None,
            ),
        )
        assert compiled.plan.strategy == "broadcast"
        assert {cluster.host_of(op.sender) for op in compiled.plan.ops} == {1}
        assert compiled.ensure_timing().fault_report.status == "clean"


# ----------------------------------------------------------------------
# Semantics: cached plans are the same plans
# ----------------------------------------------------------------------
class TestCachedSemantics:
    def test_apply_plan_identical_cached_vs_fresh(self):
        task = make_task(shape=(16, 16, 8))
        data = np.arange(16 * 16 * 8, dtype=np.float32).reshape(task.shape)

        fresh = compile_resharding(task, CompileContext(cache=None))
        cache = PlanCache()
        compile_resharding(task, CompileContext(cache=cache))
        cached = compile_resharding(task, CompileContext(cache=cache))
        assert cache.stats().hits == 1

        assert [repr(op) for op in cached.plan.ops] == [
            repr(op) for op in fresh.plan.ops
        ]
        src = DistributedTensor.from_global(task.src_mesh, task.src_spec, data)
        out_fresh = apply_plan(fresh.plan, src).to_global()
        out_cached = apply_plan(cached.plan, src).to_global()
        assert out_fresh.tobytes() == out_cached.tobytes()
        assert np.array_equal(out_cached, data)

    def test_hit_reuses_memoized_timing(self):
        cache = PlanCache()
        ctx = CompileContext(cache=cache)
        first = compile_resharding(make_task(), ctx)
        t = first.total_time  # simulate once, memoize
        second = compile_resharding(make_task(), ctx)
        assert second.timing is first.timing
        assert second.total_time == t

    @pytest.mark.parametrize(
        "name", ["send_recv", "allgather", "broadcast", "signal"]
    )
    def test_legacy_plan_api_equivalence(self, name):
        """``strategy.plan()`` and the compiler emit identical plans."""
        task = make_task()
        legacy = make_strategy(name).plan(task)
        compiled = compile_resharding(task, CompileContext(name, cache=None))
        assert [repr(op) for op in legacy.ops] == [
            repr(op) for op in compiled.plan.ops
        ]
        assert legacy.strategy == compiled.plan.strategy

    def test_validate_flag_runs_coverage_check(self):
        compiled = compile_resharding(
            make_task(), CompileContext(cache=None, validate=True)
        )
        assert compiled.validated
        report = compiled.certify(strict=True)
        assert report.certified


# ----------------------------------------------------------------------
# The timing memo: one simulation per distinct plan per cache
# ----------------------------------------------------------------------
@pytest.fixture
def runs(monkeypatch):
    """The plans ``PlanRunner.run`` simulated, in call order."""
    calls = []
    run = PlanRunner.run

    def spy(self):
        calls.append(self.plan)
        return run(self)

    monkeypatch.setattr(PlanRunner, "run", spy)
    return calls


class OtherBroadcastOp(BroadcastOp):
    """A BroadcastOp's fields under another op type."""


def _timed(plan, memo, faults=None, retry_policy=None):
    compiled = CompiledPlan(plan=plan, faults=faults, retry_policy=retry_policy)
    compiled.timings = memo
    return compiled.ensure_timing()


def _replace_op0(plan, **changes):
    ops = list(plan.ops)
    ops[0] = dataclasses.replace(ops[0], **changes)
    return dataclasses.replace(plan, ops=ops)


def _retype_op0(plan):
    op = plan.ops[0]
    fields = {f.name: getattr(op, f.name) for f in dataclasses.fields(op)}
    return dataclasses.replace(plan, ops=[OtherBroadcastOp(**fields), *plan.ops[1:]])


def _reorder(plan):
    order = tuple(reversed(plan.schedule.order))
    return dataclasses.replace(
        plan, schedule=dataclasses.replace(plan.schedule, order=order)
    )


def _move_sender_host(plan):
    # The ops stay; only the host the schedule assigns task 0 to moves,
    # and with it the hosts that task gates on.
    assignment = dict(plan.schedule.assignment)
    tid = plan.schedule.order[0]
    assignment[tid] = 1 - assignment[tid]
    return dataclasses.replace(
        plan, schedule=dataclasses.replace(plan.schedule, assignment=assignment)
    )


def _faster_cluster(plan):
    spec = plan.task.cluster.spec
    cluster = make_cluster(inter_host_bandwidth=2 * spec.inter_host_bandwidth)
    return dataclasses.replace(plan, task=make_task(cluster))


#: one changed simulation input each: (plan, faults, retry policy)
PERTURBATIONS = {
    "op_field": lambda p: (_replace_op0(p, n_chunks=p.ops[0].n_chunks + 1), None, None),
    "op_type": lambda p: (_retype_op0(p), None, None),
    "schedule_order": lambda p: (_reorder(p), None, None),
    "gating_host": lambda p: (_move_sender_host(p), None, None),
    "cluster_spec": lambda p: (_faster_cluster(p), None, None),
    "faults": lambda p: (p, FaultSchedule(seed=1), None),
    "retry_policy": lambda p: (p, None, RetryPolicy(max_attempts=7)),
    # a checksum is read as a truth value: stamped and unstamped differ
    "checksum_presence": lambda p: (_replace_op0(p, checksum=""), None, None),
}


def _shrink_region(op):
    return tuple((lo, lo + 1) for lo, _hi in op.region)


#: changes to what a run never reads: each must share the base result
UNREAD = {
    "region": lambda p: _replace_op0(p, region=_shrink_region(p.ops[0])),
    "every_region": lambda p: dataclasses.replace(p, ops=[
        dataclasses.replace(op, region=_shrink_region(op)) for op in p.ops
    ]),
    "checksum_string": lambda p: _replace_op0(p, checksum="f" * 16),
}


class TestTimingMemo:
    def base_plan(self):
        plan = compile_resharding(make_task(), CompileContext(cache=None)).plan
        assert len(plan.ops) > 1 and plan.schedule is not None
        return plan

    def test_equal_table2_plans_simulate_once(self, runs):
        # Case 8: Fig. 8's naive and ensemble schedulers emit one plan.
        case = TABLE2_CASES[7]
        _cluster, src, dst = make_microbench_meshes(case.send_mesh, case.recv_mesh)
        cache = PlanCache()
        results = [
            reshard(TENSOR_SHAPE, src, case.send_spec, dst, case.recv_spec,
                    scheduler=s, cache=cache)
            for s in ("naive", "ensemble")
        ]
        assert results[1].timing is results[0].timing
        assert len(runs) == 1
        # Two distinct compile requests: the plan cache's own counts.
        assert (cache.hits, cache.misses) == (0, 2)

    @pytest.mark.parametrize("perturb", sorted(PERTURBATIONS))
    def test_changing_one_input_misses(self, perturb, runs):
        plan = self.base_plan()
        memo = TimingMemo(8)
        base = _timed(plan, memo)
        other, faults, retry = PERTURBATIONS[perturb](plan)
        assert timing_signature(other, faults, retry) != timing_signature(plan)
        assert _timed(other, memo, faults, retry) is not base
        assert len(runs) == 2 and len(memo) == 2

    @pytest.mark.parametrize("change", sorted(UNREAD))
    def test_changing_what_a_run_never_reads_hits(self, change, runs):
        plan = self.base_plan()
        assert plan.ops[0].checksum
        memo = TimingMemo(8)
        base = _timed(plan, memo)
        other = UNREAD[change](plan)
        assert other.ops != plan.ops
        assert timing_signature(other) == timing_signature(plan)
        assert _timed(other, memo) is base
        assert len(runs) == 1 and len(memo) == 1

    def test_a_corrupted_op_shares_only_with_its_checksum_presence(self, runs):
        # Every flow into op 0's first receiver host delivers bad bytes.
        plan = self.base_plan()
        host = plan.task.cluster.host_of(plan.ops[0].receivers[0])
        faults = FaultSchedule(
            corruptions=(CorruptionWindow(host=host, start=0.0, duration=1e9),)
        )
        memo = TimingMemo(8)
        stamped = _timed(plan, memo, faults)
        assert 0 in stamped.corrupted_ops and not stamped.unverified_corruption
        for change in sorted(UNREAD):
            assert _timed(UNREAD[change](plan), memo, faults) is stamped
        unstamped = _timed(_replace_op0(plan, checksum=""), memo, faults)
        assert unstamped is not stamped and len(runs) == 2
        assert unstamped.unverified_corruption == (0,)
        assert 0 not in unstamped.corrupted_ops
        # A region-only change of the unstamped plan shares its result.
        unstamped_other = _replace_op0(UNREAD["region"](plan), checksum="")
        assert _timed(unstamped_other, memo, faults) is unstamped
        assert len(runs) == 2

    @pytest.mark.parametrize("workload", ["paper_suite", "train_iter"])
    def test_every_memo_hit_of_a_workload_pass_equals_a_fresh_run(self, workload):
        # Replays each hit of one seed-0 pass with the memo bypassed.
        hits = workload_pass(workload)[1]
        assert hits
        for hit in hits:
            assert timing_fields(replay(hit)) == hit.fields, hit.op_id

    def test_uncached_compile_never_consults_the_memo(self, monkeypatch):
        def forbidden(*_args):
            raise AssertionError("memo consulted")

        monkeypatch.setattr(TimingMemo, "lookup", forbidden)
        monkeypatch.setattr(TimingMemo, "store", forbidden)
        compiled = compile_resharding(make_task(), CompileContext(cache=None))
        assert compiled.timings is None
        assert compiled.ensure_timing().total_time > 0

    def test_invalidate_and_reset_empty_the_memo(self):
        # a reset replaces the default cache, memo and all
        default = reset_default_plan_cache()
        compile_resharding(make_task(), CompileContext()).ensure_timing()
        assert len(default.timings) == 1
        assert len(reset_default_plan_cache().timings) == 0
        assert len(default_plan_cache().timings) == 0

    def test_memo_is_lru_bounded_by_max_entries(self, runs):
        cache = PlanCache(max_entries=2)
        plans = [
            compile_resharding(make_task(shape=(8 * k, 8, 8)),
                               CompileContext(cache=None)).plan
            for k in (1, 2, 3)
        ]
        _timed(plans[0], cache.timings)
        _timed(plans[1], cache.timings)
        _timed(plans[0], cache.timings)  # a hit refreshes plan 0
        _timed(plans[2], cache.timings)  # evicts plan 1, the least recent
        assert len(cache.timings) == 2 and len(runs) == 3
        _timed(plans[0], cache.timings)
        assert len(runs) == 3
        _timed(plans[1], cache.timings)
        assert len(runs) == 4

    def test_content_equal_plan_hits_and_equals_a_fresh_simulation(self, runs):
        cache = PlanCache()
        compiled = compile_resharding(make_task(), CompileContext(cache=cache))
        first = compiled.ensure_timing()
        plan = dataclasses.replace(compiled.plan, ops=list(compiled.plan.ops))
        hit = _timed(plan, cache.timings)
        assert hit is first and len(runs) == 1
        fresh = simulate_plan(plan)
        assert hit.total_time == fresh.total_time
        assert hit.op_finish == fresh.op_finish
        assert hit.telemetry.digest() == fresh.telemetry.digest()


# ----------------------------------------------------------------------
# Uncacheable strategies: fresh compiles, never wrong answers
# ----------------------------------------------------------------------
class NoKeyStrategy(SendRecvStrategy):
    """A custom subclass that opts out of caching."""

    def cache_key(self):
        return None


class TestUncacheable:
    def test_custom_strategy_compiles_uncached(self):
        cache = PlanCache()
        strategy = NoKeyStrategy()
        c1 = compile_resharding(
            make_task(), CompileContext(strategy=strategy, cache=cache)
        )
        c2 = compile_resharding(
            make_task(), CompileContext(strategy=strategy, cache=cache)
        )
        assert c1 is not c2
        assert c1.signature is None
        assert cache.stats().requests == 0

    def test_callable_scheduler_is_uncacheable(self):
        from repro.scheduling import SCHEDULERS

        assert BroadcastStrategy(scheduler="ensemble").cache_key() is not None
        custom = BroadcastStrategy(scheduler=SCHEDULERS["naive"])
        # A callable scheduler has no canonical signature: refuse to key it.
        custom.scheduler_name = "custom"
        assert custom.cache_key() is None


# ----------------------------------------------------------------------
# EdgeResharding: every time() compiles through the edge's context
# ----------------------------------------------------------------------
class TestEdgeMemo:
    def test_reset_default_cache_forces_a_fresh_resolve(self):
        reset_default_plan_cache()
        edge = make_edge()
        first = edge.time("fwd")
        fresh = reset_default_plan_cache()
        assert edge.time("fwd") == first
        assert (fresh.stats().requests, fresh.stats().misses) == (1, 1)

    def test_uncacheable_strategy_re_resolves_after_epoch_bump(self, monkeypatch):
        # every time() of an uncacheable edge compiles afresh, unseen by the cache
        runs = []
        real_run = PassManager.run

        def counted(manager, state, ctx):
            runs.append(state.task)
            return real_run(manager, state, ctx)

        monkeypatch.setattr(PassManager, "run", counted)
        cache = PlanCache()
        edge = make_edge(CompileContext(strategy=NoKeyStrategy(), cache=cache))
        first = edge.time("fwd")
        assert edge.time("fwd") == first
        assert len(runs) == 2 and runs[0] is runs[1] is edge.fwd_task
        assert cache.stats().requests == 0

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_validate_edge_over_budget_raises_m001_on_first_time(self, warm):
        # Like a cold compile: the first message raises, and so does
        # every later one (nothing unvalidated is memoized).
        cache = PlanCache()
        tight = make_cluster(memory_budget=1.0)
        if warm:  # an unvalidated plan for the same signature is cached
            compile_resharding(
                make_task(tight),
                CompileContext(strategy="send_recv", cache=cache),
            )
        edge = make_edge(CompileContext(strategy="send_recv", cache=cache,
                                        validate=True), tight)
        for _ in range(2):
            with pytest.raises(PlanValidationError, match="M001"):
                edge.time("fwd")

    def test_memoized_plan_is_validated_once_the_context_asks(self):
        ctx = CompileContext(strategy="send_recv", cache=PlanCache())
        edge = make_edge(ctx, make_cluster(memory_budget=1.0))
        assert not compile_resharding(edge.task("fwd"), ctx).validated
        ctx.validate = True
        with pytest.raises(PlanValidationError, match="M001"):
            edge.time("fwd")

    def test_reused_context_with_strategy_kwargs_compiles_twice(self):
        ctx = CompileContext(strategy="broadcast",
                             strategy_kwargs={"scheduler": "naive"},
                             cache=PlanCache())
        first = compile_resharding(make_task(), ctx)
        assert compile_resharding(make_task(), ctx) is first
        assert (ctx.strategy, ctx.strategy_kwargs) == ("broadcast", {"scheduler": "naive"})

    def test_edge_with_strategy_kwargs_times_both_directions(self):
        edge = make_edge(CompileContext(strategy="broadcast",
                                        strategy_kwargs={"scheduler": "naive"},
                                        cache=PlanCache()))
        for direction in ("fwd", "bwd"):
            plan = compile_resharding(edge.task(direction), edge.ctx).plan
            assert edge.time(direction) == simulate_plan(plan).total_time
        with pytest.raises(ValueError, match="direction"):
            edge.time("sideways")


# ----------------------------------------------------------------------
# Pass pipeline instrumentation
# ----------------------------------------------------------------------
class TestInstrumentation:
    def test_per_pass_timings(self):
        compiled = compile_resharding(make_task(), CompileContext(cache=None))
        diag = compiled.diagnostics
        assert [p.name for p in diag.passes] == PASS_NAMES
        assert all(p.seconds >= 0.0 for p in diag.passes)
        emit = next(p for p in diag.passes if p.name == "emit")
        assert emit.op_delta > 0
        assert emit.ops_before == 0
        assert diag.total_seconds > 0.0
        table = diag.format_table()
        for name in PASS_NAMES:
            assert name in table

    def test_dump_after_hook_fires(self):
        seen = []
        compile_resharding(
            make_task(),
            CompileContext(
                cache=None,
                dump_after=("lower", "emit"),
                on_dump=lambda name, state: seen.append((name, state.n_ops)),
            ),
        )
        assert [name for name, _ in seen] == ["lower", "emit"]
        assert seen[0][1] == 0  # nothing emitted yet after lowering
        assert seen[1][1] > 0

    def test_cache_hit_skips_the_pipeline(self):
        cache = PlanCache()
        ctx = CompileContext(cache=cache)
        compile_resharding(make_task(), ctx)
        hit = compile_resharding(make_task(), ctx)
        # The hit returns the original diagnostics; no passes re-ran.
        assert [p.name for p in hit.diagnostics.passes] == PASS_NAMES

    def test_ctx_kwargs_convenience(self):
        compiled = compile_resharding(make_task(), strategy="send_recv", cache=None)
        assert compiled.plan.strategy == "send_recv"
        with pytest.raises(ValueError):
            compile_resharding(
                make_task(), CompileContext(cache=None), strategy="send_recv"
            )
        with pytest.raises(ValueError, match="kwargs"):
            compile_resharding(
                make_task(),
                CompileContext(strategy=BroadcastStrategy(),
                               strategy_kwargs={"n_chunks": 2}, cache=None),
            )


# ----------------------------------------------------------------------
# A compile reads its inputs and writes none of them
# ----------------------------------------------------------------------
def test_a_compile_leaves_its_context_and_strategy_alone():
    auto = AutoStrategy()
    contexts = [
        CompileContext(strategy="broadcast", strategy_kwargs={"n_chunks": 2},
                       deadline=10.0, cache=PlanCache()),
        CompileContext(strategy=auto, cache=PlanCache()),
    ]
    for ctx in contexts:
        ctx_before = dict(vars(ctx))
        kwargs_before = dict(ctx.strategy_kwargs)
        auto_before = dict(vars(auto))
        for _ in range(2):  # a miss, then a hit
            compile_resharding(make_task(), ctx)
        assert vars(ctx) == ctx_before
        assert ctx.strategy_kwargs == kwargs_before
        assert vars(auto) == auto_before


# ----------------------------------------------------------------------
# Auto strategy through the select pass
# ----------------------------------------------------------------------
class TestAutoSelect:
    def test_plan_scored_attaches_timing(self):
        compiled = compile_resharding(
            make_task(), CompileContext(strategy=AutoStrategy(), cache=None)
        )
        timing = compiled.timing
        assert timing is not None
        assert len(compiled.scores) == 3
        # The winner's attached timing is the score it won with.
        assert timing.total_time == min(t for _, t in compiled.scores)
        assert compiled.plan.strategy in {"send_recv", "allgather", "broadcast"}

    def test_compiled_auto_never_resimulates(self):
        compiled = compile_resharding(
            make_task(), CompileContext(strategy=AutoStrategy(), cache=None)
        )
        assert compiled.timing is not None  # from the select pass
        assert compiled.scores  # strategy-choice scores recorded
        assert compiled.total_time == compiled.timing.total_time

    def test_auto_is_cacheable_with_default_candidates(self):
        cache = PlanCache()
        ctx = CompileContext(strategy=AutoStrategy(), cache=cache)
        compile_resharding(make_task(), ctx)
        compile_resharding(make_task(), ctx)
        assert cache.stats().hits == 1


# ----------------------------------------------------------------------
# Deadline validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("deadline", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_bad_deadline_rejected_on_hit_and_miss(deadline, warm):
    cache = PlanCache()
    if warm:
        compile_resharding(make_task(), strategy="broadcast", cache=cache)
    with pytest.raises(ValueError, match="deadline"):
        compile_resharding(
            make_task(), strategy="broadcast", cache=cache, deadline=deadline
        )
    assert cache.stats().hits == 0
