"""The constructor half of the error contract: every number from outside
either builds or fails with a ``ValueError`` naming its parameter.

One table row per parameter that :mod:`repro.checks` guards.  Each row
builds its class (or calls its function) with the paper's defaults and
one drawn value in that parameter's place.  The values cover every kind
an input can arrive as: ints, floats (NaN and both infinities included),
bools, numpy ints, ``None`` and strings.  A bare ``TypeError``,
``ZeroDivisionError`` or any other exception fails the test.
"""

from __future__ import annotations

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import fuzz
from repro.analysis import check_plan, lint_source
from repro.compiler import PlanCache, compile_resharding
from repro.compiler.budget import CompileBudget
from repro.compiler.resim import ResimCache
from repro.core.mesh import DeviceMesh
from repro.core.slices import split_offsets
from repro.core.task import ReshardingTask
from repro.models.gpt import GPTConfig
from repro.models.utransformer import UTransformerConfig
from repro.pipeline.interleaved import InterleavedJob
from repro.pipeline.schedules import schedule_job, split_backward
from repro.pipeline.stage import CommEdge, PipelineJob, StageProfile
from repro.scheduling import (
    SchedTask,
    SchedulingProblem,
    dfs_schedule,
    randomized_greedy_schedule,
)
from repro.service import (
    AdmissionConfig,
    BreakerConfig,
    CompileRequest,
    LoadProfile,
    ServiceChaos,
    ServiceConfig,
    TokenBucket,
)
from repro.sim.cluster import Cluster, ClusterSpec, FailureDomain, LinkOverride
from repro.sim.faults import (
    CorruptionWindow,
    DegradedWindow,
    DomainFailure,
    FaultSchedule,
    FlapWindow,
    HostFailure,
    Partition,
    RetryPolicy,
)
from repro.sim.topology import (
    FatTreeTopology,
    IslandTopology,
    Link,
    RailOptimizedTopology,
    TorusTopology,
)
from repro.strategies import BroadcastStrategy

_CLUSTER = Cluster(ClusterSpec(n_hosts=2, devices_per_host=2))
_SRC, _DST = DeviceMesh.from_hosts(_CLUSTER, [0]), DeviceMesh.from_hosts(_CLUSTER, [1])
_PLAN = compile_resharding(
    ReshardingTask((8, 8), _SRC, "S0R", _DST, "RS0"), strategy="broadcast", cache=None
).plan

ROWS: list = []


def fields(label, build, base, names):
    """One row per name: ``build(**base)`` with the drawn value in its place."""
    for name in names:
        ROWS.append(pytest.param(
            name, lambda v, name=name: build(**{**base, name: v}), id=f"{label}.{name}"
        ))


def row(label, expect, build):
    """One row whose message must match ``expect`` (a regex)."""
    ROWS.append(pytest.param(expect, build, id=label))


# -- cluster and fabric ------------------------------------------------
fields("ClusterSpec", ClusterSpec, {"n_hosts": 4}, [
    "n_hosts", "devices_per_host", "inter_host_bandwidth",
    "intra_host_bandwidth", "inter_host_latency", "intra_host_latency", "memory_budget",
])
row("ClusterSpec.host_bandwidth_overrides.host", "override",
    lambda v: ClusterSpec(n_hosts=4, host_bandwidth_overrides=((v, 1e9),)))
row("ClusterSpec.host_bandwidth_overrides.bandwidth", "bandwidth",
    lambda v: ClusterSpec(n_hosts=4, host_bandwidth_overrides=((0, v),)))
row("ClusterSpec.failure_domains.hosts", "failure domain",
    lambda v: ClusterSpec(n_hosts=4, failure_domains=(FailureDomain("r", (v,)),)))
row("ClusterSpec.link_overrides.dst_host", "dst_host|link override",
    lambda v: ClusterSpec(n_hosts=4, link_overrides=(LinkOverride(0, v, bandwidth=1e9),)))
row("FailureDomain.hosts", "failure domain", lambda v: FailureDomain("r", (v,)))
fields("LinkOverride", LinkOverride, {"src_host": 0, "dst_host": 1, "bandwidth": 1e9},
       ["src_host", "dst_host", "bandwidth", "latency"])
fields("Link", Link, {"name": "sw:x", "bandwidth": 1e9, "latency": 0.0},
       ["bandwidth", "latency"])
fields("FatTreeTopology", lambda **kw: ClusterSpec(n_hosts=4, topology=FatTreeTopology(**kw)),
       {}, ["hosts_per_leaf", "oversubscription", "spine_extra_latency"])
fields("TorusTopology", lambda **kw: ClusterSpec(n_hosts=4, topology=TorusTopology(**kw)),
       {"rows": 2, "cols": 2}, ["rows", "cols"])
fields("RailOptimizedTopology",
       lambda **kw: ClusterSpec(n_hosts=4, topology=RailOptimizedTopology(**kw)),
       {}, ["cross_rail_capacity_factor"])
fields("IslandTopology", lambda **kw: ClusterSpec(n_hosts=4, topology=IslandTopology(**kw)),
       {}, ["island_size"])

# -- faults and retries ------------------------------------------------
window = {"host": 0, "start": 0.0, "duration": 1.0}
fields("DegradedWindow", DegradedWindow, {**window, "factor": 0.5},
       ["host", "start", "duration", "factor"])
fields("FlapWindow", FlapWindow, window, ["host", "start", "duration"])
fields("HostFailure", HostFailure, {"host": 0, "time": 0.0}, ["host", "time"])
fields("DomainFailure", DomainFailure, {"domain": "r", "hosts": (0,), "time": 0.0},
       ["time", "duration"])
row("DomainFailure.hosts", "hosts", lambda v: DomainFailure("r", (v,), 0.0))
fields("Partition", Partition, {"src_hosts": (0,), "dst_hosts": (1,), "start": 0.0,
                                "duration": 1.0}, ["start", "duration"])
row("Partition.src_hosts", "src_hosts", lambda v: Partition((v,), (1,), 0.0, 1.0))
row("Partition.dst_hosts", "dst_hosts", lambda v: Partition((0,), (v,), 0.0, 1.0))
fields("CorruptionWindow", CorruptionWindow, window, ["host", "start", "duration", "rate"])
fields("FaultSchedule", FaultSchedule, {}, ["seed", "drop_rate"])
fields("FaultSchedule.generate", FaultSchedule.generate,
       {"seed": 0, "n_hosts": 4, "horizon": 1.0, "domains": (FailureDomain("r", (0, 1)),)},
       ["seed", "n_hosts", "horizon", "max_window_frac", "drop_rate", "n_degradations",
        "n_flaps", "n_host_failures", "n_domain_failures", "n_partitions", "n_corruptions"])
fields("RetryPolicy", RetryPolicy, {},
       ["max_attempts", "backoff_base", "backoff_factor", "jitter"])

# -- pipelines -----------------------------------------------------------
fields("StageProfile", StageProfile,
       {"stage_id": 0, "fwd_time": 1.0, "bwd_x_time": 1.0, "bwd_w_time": 1.0},
       ["stage_id", "fwd_time", "bwd_x_time", "bwd_w_time", "params_bytes",
        "activation_bytes", "memory_capacity"])
fields("CommEdge", CommEdge, {"src_stage": 0, "dst_stage": 1, "fwd_time": 0.5, "bwd_time": 0.5},
       ["src_stage", "dst_stage", "fwd_time", "bwd_time", "fwd_bytes", "bwd_bytes"])
fields("PipelineJob", PipelineJob, {"stages": [StageProfile(0, 1.0, 1.0, 1.0)]},
       ["n_microbatches"])
fields("InterleavedJob", InterleavedJob,
       {"n_stages": 2, "n_virtual": 1, "n_microbatches": 4, "fwd_time": 1.0,
        "bwd_time": 1.0, "comm_fwd": 0.0, "comm_bwd": 0.0},
       ["n_stages", "n_virtual", "n_microbatches", "fwd_time", "bwd_time", "comm_fwd",
        "comm_bwd", "activation_bytes"])
fields("schedule_job", schedule_job,
       {"schedule": "1f1b", "n_stages": 2, "n_microbatches": 4, "delay_bw_weight": True},
       ["n_stages", "n_microbatches", "delay_slots"])
fields("split_backward", split_backward, {"order": []}, ["delay_slots"])

# -- scheduling (§3.2) -----------------------------------------------------
_SCHED = {"task_id": 0, "sender_host_options": (0,), "receiver_hosts": frozenset({1}),
          "duration_by_host": {0: 1.0}}
_PROBLEM = SchedulingProblem([SchedTask(**_SCHED), SchedTask(**{**_SCHED, "task_id": 1})])
fields("SchedTask", SchedTask, _SCHED, ["n_devices"])
row("SchedTask.duration_by_host", "duration", lambda v: SchedTask(**{**_SCHED,
                                                                    "duration_by_host": {0: v}}))
fields("randomized_greedy_schedule", randomized_greedy_schedule, {"problem": _PROBLEM}, ["seed"])
fields("dfs_schedule", dfs_schedule, {"problem": _PROBLEM}, ["time_budget"])

# -- models and compiler ---------------------------------------------------
fields("GPTConfig", GPTConfig, {}, [
    "n_layers", "hidden", "seq_len", "vocab", "global_batch", "micro_batch_per_dp",
    "dp", "op", "pp",
])
fields("UTransformerConfig", UTransformerConfig, {}, [
    "image_size", "in_channels", "bottleneck_channels", "bottleneck_attn_layers",
    "skip_attn_layers", "global_batch", "micro_batch", "dp",
])
row("UTransformerConfig.channels", "channels", lambda v: UTransformerConfig(channels=(v,)))
# a size below 1 passes the integer rule and fails where the dimension
# is split ("cannot split size 0 into 1 non-empty parts")
row("ReshardingTask.shape", "shape|size",
    lambda v: ReshardingTask((v, 8), _SRC, "RR", _DST, "RR"))
fields("BroadcastStrategy", BroadcastStrategy, {}, ["n_chunks"])
row("CompileBudget.from_deadline", "deadline", CompileBudget.from_deadline)
row("check_plan.memory_budget", "memory_budget",
    lambda v: check_plan(_PLAN, memory_budget=v))
row("lint_source.codes", "codes", lambda v: lint_source("", codes=[v]))
fields("PlanCache", PlanCache, {}, ["max_entries"])
fields("ResimCache", ResimCache, {}, ["max_entries"])
fields("split_offsets", split_offsets, {"size": 8, "n": 2}, ["size", "n"])


class _CampaignStarted(Exception):
    pass


def _fuzz_runs(runs):
    """``run_fuzz(runs)`` up to the first run of its campaign."""
    def started(*_args):
        raise _CampaignStarted

    with mock.patch.object(fuzz, "_generate_schedule", started):
        try:
            fuzz.run_fuzz(runs=runs)
        except _CampaignStarted:
            pass


row("run_fuzz.runs", "runs", _fuzz_runs)

# -- service ---------------------------------------------------------------
fields("ServiceConfig", ServiceConfig, {}, ["n_workers", "base_service_time"])
fields("AdmissionConfig", AdmissionConfig, {"rate": 1.0},
       ["max_queue_depth", "per_tenant_depth", "rate", "burst"])
fields("TokenBucket", TokenBucket, {"rate": 1.0, "burst": 1.0, "now": 0.0},
       ["rate", "burst", "now"])
fields("BreakerConfig", BreakerConfig, {},
       ["failure_threshold", "cooldown", "half_open_probes"])
fields("ServiceChaos", ServiceChaos, {}, [
    "seed", "slow_rate", "slow_extra", "fault_rate", "partition_rate", "cancel_rate",
    "cancel_after",
])
fields("LoadProfile", LoadProfile, {"name": "p"}, [
    "n_requests", "n_tenants", "n_distinct_tasks", "base_rate", "burst_rate",
    "burst_every", "burst_len",
])
fields("CompileRequest", CompileRequest, {"request_id": "r", "tenant": "t", "task": None},
       ["deadline", "timeout"])

VALUES = st.one_of(
    st.integers(-3, 40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.integers(-3, 40).map(np.int64),
    st.none(),
    st.text(max_size=3),
)


#: one value of each kind, and the bounds most rules sit on
EDGES = (0, -1, 2.5, math.nan, math.inf, -math.inf, True, None, "1", np.int64(2))


def builds_or_names(expect, build, value):
    try:
        build(value)
    except ValueError as e:
        assert re.search(expect, str(e)), f"{value!r}: {e}"


@pytest.mark.parametrize("expect, build", ROWS)
def test_each_kind_of_value_builds_or_names_its_parameter(expect, build):
    for value in EDGES:
        builds_or_names(expect, build, value)


@pytest.mark.parametrize("expect, build", ROWS)
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(value=VALUES)
def test_drawn_values_build_or_name_their_parameter(expect, build, value):
    builds_or_names(expect, build, value)


@pytest.mark.parametrize("name, call", [
    # an OS-entropy seed makes a schedule no one can replay
    ("seed", lambda: randomized_greedy_schedule(_PROBLEM, seed=None)),
    ("time_budget", lambda: dfs_schedule(_PROBLEM, time_budget=math.inf)),
    ("time_budget", lambda: dfs_schedule(_PROBLEM, time_budget=math.nan)),
    ("time_budget", lambda: dfs_schedule(_PROBLEM, time_budget="x")),
    ("time_budget", lambda: dfs_schedule(_PROBLEM, time_budget=-1.0)),  # once ran one node
    ("n_devices", lambda: SchedTask(**_SCHED, n_devices=0)),
    ("n_devices", lambda: SchedTask(**_SCHED, n_devices=-3)),
    ("n_devices", lambda: SchedTask(**_SCHED, n_devices=2.5)),
    # every scheduler reported makespan 2.0 for a problem whose task 0 took NaN
    ("duration", lambda: SchedTask(**{**_SCHED, "duration_by_host": {0: math.nan}})),
])
def test_schedulers_refuse_inputs_section_3_2_cannot_mean(name, call):
    with pytest.raises(ValueError, match=name):
        call()


def test_a_huge_finite_dfs_budget_is_no_limit():
    assert dfs_schedule(_PROBLEM, time_budget=1e308).makespan == 2.0


@pytest.mark.parametrize("args", [
    (1.0, 0.5),  # never holds a whole token, yet would promise one in 0.5 s
    (1.0, math.nan),  # would promise a NaN wait
    (1.0, 1.0, math.nan),  # a NaN instant would freeze refills
    (math.nan, 1.0),
])
def test_token_bucket_refuses_a_bucket_that_cannot_work(args):
    with pytest.raises(ValueError):
        TokenBucket(*args)
