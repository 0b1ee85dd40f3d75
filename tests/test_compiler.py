"""Tests for the staged plan compiler and its content-addressed cache.

Covers the ISSUE's cache-correctness checklist: hits on identical
requests, misses on every perturbed signature component (tensor, specs,
mesh shapes, topology, fault scenario, epoch), explicit invalidation on
a ``HostFailure``, and byte-identical ``apply_plan`` output for cached
vs. freshly compiled plans — plus the pass-pipeline instrumentation and
the legacy ``strategy.plan()`` equivalence.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compiler import (
    CompileContext,
    EdgeResharding,
    PlanCache,
    compile_resharding,
    default_plan_cache,
    plan_signature,
    reset_default_plan_cache,
    task_signature,
)
from repro.core.data import apply_plan
from repro.core.executor import simulate_plan
from repro.core.mesh import DeviceMesh
from repro.core.task import ReshardingTask
from repro.core.tensor import DistributedTensor
from repro.sim.cluster import Cluster, ClusterSpec
from repro.sim.faults import FaultSchedule, HostFailure, RetryPolicy
from repro.strategies import (
    AutoStrategy,
    BroadcastStrategy,
    SendRecvStrategy,
    make_strategy,
)

PASS_NAMES = ["lower", "select", "schedule", "fault_rewrite", "emit", "validate"]


def make_cluster(**overrides) -> Cluster:
    return Cluster(ClusterSpec(n_hosts=4, devices_per_host=4, **overrides))


def make_task(cluster=None, shape=(64, 64, 64), src_spec="RS0R",
              dst_spec="S0RR", src_hosts=(0, 1), dst_hosts=(2, 3)):
    c = cluster if cluster is not None else make_cluster()
    src = DeviceMesh.from_hosts(c, src_hosts)
    dst = DeviceMesh.from_hosts(c, dst_hosts)
    return ReshardingTask(shape, src, src_spec, dst, dst_spec, dtype=np.float32)


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


# ----------------------------------------------------------------------
# Invalidation and epochs
# ----------------------------------------------------------------------
class TestInvalidation:
    def test_invalidate_drops_entries_and_bumps_epoch(self):
        cache = PlanCache()
        ctx = CompileContext(cache=cache)
        compile_resharding(make_task(), ctx)
        assert len(cache) == 1
        cache.invalidate(reason="host 2 failed")
        assert len(cache) == 0
        assert cache.epoch == 1
        assert cache.n_invalidations == 1
        assert cache.last_invalidation_reason == "host 2 failed"
        # The identical request must recompile in the new epoch.
        compile_resharding(make_task(), ctx)
        assert cache.stats().hits == 0
        assert cache.stats().misses == 2

    def test_epoch_is_part_of_the_signature(self):
        task = make_task()
        key = make_strategy("broadcast").cache_key()
        assert plan_signature(task, key, epoch=0) != plan_signature(
            task, key, epoch=1
        )

    def test_host_failure_invalidates_default_cache(self):
        """The recovery runtime drops the cache when a host dies."""
        from repro.models.gpt import GPTConfig, build_gpt
        from repro.recovery.checkpoint import CheckpointConfig
        from repro.recovery.runtime import simulate_training_run

        cluster = Cluster(
            ClusterSpec(n_hosts=3, devices_per_host=4, n_spare_hosts=1)
        )
        config = GPTConfig(
            name="GPT-tiny", n_layers=4, hidden=1024, global_batch=32,
            dp=2, op=2, pp=2,
        )
        spec = build_gpt(config, cluster=cluster)
        reset_default_plan_cache()
        faults = FaultSchedule(host_failures=(HostFailure(1, 0.5),))
        rep = simulate_training_run(
            spec, 6, faults=faults, config=CheckpointConfig(interval=2)
        )
        assert rep.n_restarts == 1
        stats = default_plan_cache().stats()
        assert stats.n_invalidations == 1
        assert stats.epoch == 1
        assert "host 1" in default_plan_cache().last_invalidation_reason


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

    def test_edge_resharding_memoizes_uncacheable(self):
        task_f = make_task()
        task_b = make_task(src_spec="S0RR", dst_spec="RS0R",
                           src_hosts=(2, 3), dst_hosts=(0, 1))
        edge = EdgeResharding(
            task_f, task_b, CompileContext(strategy=NoKeyStrategy(), cache=None)
        )
        assert edge.compiled("fwd") is edge.compiled("fwd")
        assert edge.time("fwd") == simulate_plan(edge.plan("fwd")).total_time
        with pytest.raises(ValueError):
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
        with pytest.raises(ValueError):
            CompileContext(
                strategy=BroadcastStrategy(), strategy_kwargs={"n_chunks": 2}
            ).resolved_strategy()


# ----------------------------------------------------------------------
# Auto strategy through the select pass
# ----------------------------------------------------------------------
class TestAutoSelect:
    def test_plan_scored_attaches_timing(self):
        auto = AutoStrategy()
        compiled = compile_resharding(
            make_task(), CompileContext(strategy=auto, cache=None)
        )
        timing = compiled.timing
        assert timing is not None
        assert len(auto.last_scores) == 3
        # The winner's attached timing is the score it won with.
        assert timing.total_time == min(t for _, t in auto.last_scores)
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
