"""Incremental re-simulation: byte-identity, reuse, and fallbacks.

:func:`~repro.compiler.resim.resimulate` must be a *drop-in* for
:func:`~repro.core.executor.simulate_plan`: identical
:class:`TimingResult` fields and an identical telemetry digest (every
span row hashed) whether it ran cold, stored checkpoints, or resumed
from one — on real scheduled plans, which are load-balanced across
hosts and therefore not chain-serial.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.compiler import CompileContext, compile_resharding, resim
from repro.compiler.resim import (
    ResimCache,
    default_resim_cache,
    prefix_digests,
    reset_default_resim_cache,
    resimulate,
    schedule_order,
)
from repro.core.executor import simulate_plan
from repro.core.mesh import DeviceMesh
from repro.core.task import ReshardingTask
from repro.sim.cluster import Cluster, ClusterSpec
from repro.sim.faults import FaultSchedule, HostFailure, RetryPolicy
from repro.sim.network import Network


def make_task(n_hosts=4, shape=(64, 64, 64), src_spec="RS0R", dst_spec="S0RR"):
    c = Cluster(ClusterSpec(n_hosts=n_hosts, devices_per_host=4))
    src = DeviceMesh.from_hosts(c, tuple(range(n_hosts // 2)))
    dst = DeviceMesh.from_hosts(c, tuple(range(n_hosts // 2, n_hosts)))
    return ReshardingTask(
        shape, src, src_spec, dst, dst_spec, dtype=np.float32
    )


def compiled_plan(task, strategy="broadcast"):
    ctx = CompileContext(strategy=strategy, cache=None)
    return compile_resharding(task, ctx).plan


def assert_identical(a, b) -> None:
    assert a.total_time == b.total_time
    assert repr(a.op_finish) == repr(b.op_finish)
    assert repr(a.task_finish) == repr(b.task_finish)
    assert a.bytes_cross_host == b.bytes_cross_host
    assert a.bytes_intra_host == b.bytes_intra_host
    assert a.network.bus.digest() == b.network.bus.digest()


class TestByteIdentity:
    def test_cold_pass_matches_simulate_plan(self):
        plan = compiled_plan(make_task())
        cold = simulate_plan(plan)
        cache = ResimCache()
        warm = resimulate(plan, cache=cache)
        assert_identical(warm, cold)
        s = cache.stats()
        assert s.requests == 1 and s.misses == 1 and s.hits == 0
        assert s.checkpoints_stored >= 1

    def test_warm_resume_byte_identical(self):
        plan = compiled_plan(make_task())
        cold = simulate_plan(plan)
        cache = ResimCache()
        resimulate(plan, cache=cache)
        warm = resimulate(plan, cache=cache)
        assert_identical(warm, cold)
        s = cache.stats()
        assert s.hits == 1
        assert s.tasks_skipped >= 1
        assert 0.0 < s.task_reuse_rate < 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_hosts=6),
            dict(shape=(128, 32, 16), src_spec="S0RR", dst_spec="RRS0"),
            dict(n_hosts=8, shape=(96, 64, 32)),
        ],
    )
    def test_warm_resume_across_shapes(self, kwargs):
        plan = compiled_plan(make_task(**kwargs))
        cold = simulate_plan(plan)
        cache = ResimCache()
        resimulate(plan, cache=cache)
        warm = resimulate(plan, cache=cache)
        assert_identical(warm, cold)

    def test_checkpoints_at_quiescent_barriers_only(self):
        """Real schedules overlap tasks; cuts appear only between waves."""
        plan = compiled_plan(make_task())
        order = schedule_order(plan)
        assert order is not None and len(order) >= 2
        cache = ResimCache()
        resimulate(plan, cache=cache)
        # Checkpoints exist, but never one per task: concurrent waves
        # cannot all be quiescent boundaries.
        assert 1 <= cache.stats().checkpoints_stored < len(order)


class TestSelectPassIntegration:
    def test_auto_scoring_never_resimulates(self, monkeypatch):
        """The select pass scores candidates cold; resim is off its path."""
        task = make_task()
        before = compile_resharding(task, CompileContext(strategy="auto", cache=None))

        def refuse(*_args, **_kwargs):
            raise AssertionError("the select pass must not call resimulate")

        monkeypatch.setattr(resim, "resimulate", refuse)
        after = compile_resharding(task, CompileContext(strategy="auto", cache=None))
        assert after.scores == before.scores
        assert after.plan.strategy == before.plan.strategy
        assert after.timing is not None and before.timing is not None
        assert after.timing.total_time == before.timing.total_time


class TestEligibilityFallbacks:
    def test_faults_fall_back_cold(self):
        task = make_task()
        plan = compiled_plan(task)
        faults = FaultSchedule(host_failures=(HostFailure(host=1, time=1e-5),))
        cache = ResimCache()
        warm = resimulate(
            plan, cache=cache, faults=faults, retry_policy=RetryPolicy()
        )
        cold = simulate_plan(
            plan, faults=faults, retry_policy=RetryPolicy()
        )
        assert cache.stats().ineligible == 1
        assert cache.stats().requests == 0
        assert warm.total_time == cold.total_time
        assert warm.failed_ops == cold.failed_ops

    def test_caller_network_falls_back_cold(self):
        plan = compiled_plan(make_task())
        cache = ResimCache()
        net = Network(plan.task.cluster)
        warm = resimulate(plan, cache=cache, network=net)
        assert cache.stats().ineligible == 1
        assert warm.network is net

    def test_unscheduled_falls_back_cold(self):
        plan = compiled_plan(make_task())
        cache = ResimCache()
        unscheduled = dataclasses.replace(plan, schedule=None)
        warm = resimulate(unscheduled, cache=cache)
        cold = simulate_plan(unscheduled)
        assert cache.stats().ineligible == 1
        assert warm.total_time == cold.total_time

    def test_schedule_order_none_for_unscheduled(self):
        plan = compiled_plan(make_task())
        assert schedule_order(dataclasses.replace(plan, schedule=None)) is None


class TestCacheMechanics:
    def test_digest_chain_is_prefix_stable(self):
        plan = compiled_plan(make_task())
        order = schedule_order(plan)
        d1 = prefix_digests(plan, order)
        d2 = prefix_digests(plan, order)
        assert d1 == d2
        assert len(d1) == len(order)
        assert len(set(d1)) == len(d1)  # rolling: every prefix distinct

    def test_different_tasks_never_share_digests(self):
        p1 = compiled_plan(make_task())
        p2 = compiled_plan(make_task(shape=(32, 64, 64)))
        d1 = prefix_digests(p1, schedule_order(p1))
        d2 = prefix_digests(p2, schedule_order(p2))
        assert not (set(d1) & set(d2))

    def test_lru_eviction(self):
        cache = ResimCache(max_entries=1)
        plan = compiled_plan(make_task())
        resimulate(plan, cache=cache)
        assert len(cache) == 1
        p2 = compiled_plan(make_task(shape=(32, 64, 64)))
        resimulate(p2, cache=cache)
        assert len(cache) == 1
        assert cache.stats().evictions >= 1

    def test_bad_max_entries_rejected(self):
        with pytest.raises(ValueError):
            ResimCache(max_entries=0)

    def test_default_cache_reset(self):
        a = default_resim_cache()
        b = reset_default_resim_cache()
        assert a is not b
        assert default_resim_cache() is b
