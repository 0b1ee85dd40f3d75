"""One shared timing path: the pipeline executor prices cross-stage
messages with exactly the ``simulate_plan`` latency of the compiled
resharding plan — plus golden regression guards pinning the Fig. 5/6
microbenchmark numbers and the Fig. 7 end-to-end iteration times to the
seed implementation (the compiler refactor must not move a single
simulated result).
"""

from __future__ import annotations

import pytest

from repro.compiler import (
    CompileContext,
    compile_resharding,
    default_plan_cache,
    reset_default_plan_cache,
)
from repro.compiler import pipeline as compiler_pipeline
from repro.core.executor import simulate_plan
from repro.experiments.fig5 import STRATEGIES, single_to_multi_latency
from repro.experiments.fig6 import TABLE2_CASES, case_latency
from repro.models.gpt import GPTConfig, build_gpt
from repro.models.parallel import boundary_tasks, run_iteration
from repro.sim.cluster import Cluster, ClusterSpec


def tiny_gpt():
    """A 2-stage GPT pipeline with 8 micro-batches on 2 hosts."""
    cluster = Cluster(ClusterSpec(n_hosts=2, devices_per_host=4))
    config = GPTConfig(
        name="GPT-tiny", n_layers=4, hidden=1024, global_batch=32,
        dp=2, op=2, pp=2,
    )
    return build_gpt(config, cluster=cluster)


# ----------------------------------------------------------------------
# The unification regression guard
# ----------------------------------------------------------------------
class TestTimingUnification:
    def test_edge_time_is_simulate_plan_of_compiled_plan(self):
        spec = tiny_gpt()
        result = run_iteration(spec, "broadcast")
        tasks = list(boundary_tasks(spec))
        assert len(result.comm_edges) == len(tasks) >= 1
        ctx = CompileContext(strategy="broadcast", cache=None)
        for edge, (_, fwd, bwd) in zip(result.comm_edges, tasks):
            for time, task in ((edge.fwd_time, fwd), (edge.bwd_time, bwd)):
                plan = compile_resharding(task, ctx).plan
                assert time == simulate_plan(plan).total_time

    def test_executor_comm_entries_match_compiled_plans(self):
        """Overlap mode: every message occupies the channel for exactly
        the compiled plan's simulated duration."""
        result = run_iteration(tiny_gpt(), "overlap")
        comms = [s for s in result.pipeline.telemetry.spans if s.cat == "comm"]
        assert comms
        by_pair = {
            (e.src_stage, e.dst_stage): e for e in result.comm_edges
        }
        for entry in comms:
            a = entry.attrs
            key = (
                (a["src_stage"], a["dst_stage"])
                if a["direction"] == "fwd"
                else (a["dst_stage"], a["src_stage"])
            )
            key = (min(key), max(key))
            edge = by_pair[key]
            expected = getattr(edge, f"{a['direction']}_time")
            assert entry.end - entry.start == pytest.approx(
                expected, rel=1e-12, abs=0.0
            )

    def test_blocking_recvs_never_undercut_compiled_plans(self):
        """Blocking mode: a recv takes at least the compiled plan's
        duration (more only when it waits for the sender), and the
        unblocked recvs take exactly it."""
        result = run_iteration(tiny_gpt(), "broadcast")
        (edge,) = result.comm_edges
        for direction in ("fwd", "bwd"):
            expected = getattr(edge, f"{direction}_time")
            durations = [
                e.end - e.start
                for e in result.pipeline.telemetry.spans
                if e.cat == "comm" and e.attrs["direction"] == direction
            ]
            assert durations
            assert all(d >= expected - 1e-12 for d in durations)
            assert min(durations) == pytest.approx(expected, rel=1e-12)

    def test_cache_changes_compile_counts_not_makespans(self, monkeypatch):
        """Cached and cache-disabled runs simulate to the identical
        iteration time.  However many micro-batches repeat an edge
        (>=8 here), the cached run resolves each edge direction's plan
        once: one cache request (a miss) and one signature hash each."""
        spec = tiny_gpt()
        assert spec.n_microbatches >= 8
        signatures = []
        real_signature = compiler_pipeline.plan_signature

        def counting_signature(*args, **kwargs):
            signatures.append(args[0])
            return real_signature(*args, **kwargs)

        monkeypatch.setattr(compiler_pipeline, "plan_signature", counting_signature)
        reset_default_plan_cache()
        cached = run_iteration(spec, "ours")
        stats = default_plan_cache().stats()
        n_directions = 2 * len(cached.comm_edges)
        assert n_directions > 0
        assert stats.requests == stats.misses == n_directions
        assert len(signatures) == n_directions
        uncached = run_iteration(spec, "ours", cache=None)
        assert cached.iteration_time == uncached.iteration_time

    def test_repeated_fig5_sweeps_compile_once_per_strategy(self):
        """Re-running a Fig. 5 point through the process-wide cache
        compiles each strategy's plan once and serves every repeat."""
        reset_default_plan_cache()
        for _ in range(3):
            for strategy in STRATEGIES:
                single_to_multi_latency(4, 2, strategy)
        stats = default_plan_cache().stats()
        assert stats.misses == len(STRATEGIES)
        assert stats.hits == 2 * len(STRATEGIES)


# ----------------------------------------------------------------------
# Golden numbers vs. the seed implementation
# ----------------------------------------------------------------------
#: Fig. 5 (single- to multi-host broadcast scaling), captured from the
#: seed implementation: (n_recv_hosts, gpus_per_host, strategy) -> s.
FIG5_GOLDEN = {
    (1, 1, "send_recv"): 0.8590934592,
    (1, 1, "allgather"): 0.8590934592,
    (1, 1, "broadcast"): 0.8717934591999963,
    (1, 2, "send_recv"): 1.7180869184,
    (1, 2, "allgather"): 0.86446716832,
    (1, 2, "broadcast"): 0.8718823452799963,
    (1, 3, "send_recv"): 2.5770803776,
    (1, 3, "allgather"): 2.5770803776,
    (1, 3, "broadcast"): 0.8719712313599963,
    (1, 4, "send_recv"): 3.4360738368000003,
    (1, 4, "allgather"): 0.8671615228800003,
    (1, 4, "broadcast"): 0.8720601174399963,
    (2, 2, "send_recv"): 3.4360738368000003,
    (2, 2, "allgather"): 1.5035385535999997,
    (2, 2, "broadcast"): 0.8787821177599963,
    (3, 2, "send_recv"): 5.1540607552,
    (3, 2, "allgather"): 5.1540607552,
    (3, 2, "broadcast"): 0.8856818902399961,
    (4, 2, "send_recv"): 6.8720476736,
    (4, 2, "allgather"): 1.611112736,
    (4, 2, "broadcast"): 0.8925816627199961,
}

#: Fig. 6 (Table 2 microbenchmark cases), captured from the seed.
FIG6_GOLDEN = {
    ("case1", "send_recv"): 3.4360738368000003,
    ("case1", "allgather"): 0.8671615228800003,
    ("case1", "broadcast"): 0.8720601174399963,
    ("case2", "send_recv"): 3.4360738368000003,
    ("case2", "allgather"): 0.8671615228800003,
    ("case2", "broadcast"): 0.8720601174399963,
    ("case3", "send_recv"): 3.4360738368000003,
    ("case3", "allgather"): 1.30091478432,
    ("case3", "broadcast"): 0.8723267756799963,
    ("case4", "send_recv"): 0.8590934592,
    ("case4", "allgather"): 1.6166127360000002,
    ("case4", "broadcast"): 0.8717934591999963,
    ("case5", "send_recv"): 3.4360738368000003,
    ("case5", "allgather"): 1.30091478432,
    ("case5", "broadcast"): 0.8723267756799963,
    ("case6", "send_recv"): 3.4360738368000003,
    ("case6", "allgather"): 1.15527806368,
    ("case6", "broadcast"): 0.8722320097484346,
    ("case7", "send_recv"): 13.7439953472,
    ("case7", "allgather"): 3.222025472,
    ("case7", "broadcast"): 1.7729637299200016,
    ("case8", "send_recv"): 5.1540607552,
    ("case8", "allgather"): 5.1540607552,
    ("case8", "broadcast"): 1.7583487804799935,
    ("case9", "send_recv"): 3.4360738368000003,
    ("case9", "allgather"): 1.30091478432,
    ("case9", "broadcast"): 0.8723267756799963,
}

#: Fig. 7 (GPT case 1 end-to-end iteration times), captured from the seed.
GPT_CASE1_GOLDEN = {
    "send_recv": 61.35452315156435,
    "alpa": 52.87459565076431,
    "broadcast": 52.928282741964416,
    "ours": 44.15784782996467,
    "signal": 44.14905478676444,
}


class TestGoldenNumbers:
    @pytest.mark.parametrize(
        "key", sorted(FIG5_GOLDEN), ids=lambda k: f"{k[0]}x{k[1]}-{k[2]}"
    )
    def test_fig5_unchanged_vs_seed(self, key):
        n_recv_hosts, gpus_per_host, strategy = key
        got = single_to_multi_latency(n_recv_hosts, gpus_per_host, strategy)
        assert got == pytest.approx(FIG5_GOLDEN[key], rel=1e-9)

    @pytest.mark.parametrize(
        "key", sorted(FIG6_GOLDEN), ids=lambda k: f"{k[0]}-{k[1]}"
    )
    def test_fig6_unchanged_vs_seed(self, key):
        name, strategy = key
        case = next(c for c in TABLE2_CASES if c.name == name)
        got = case_latency(case, strategy)
        assert got == pytest.approx(FIG6_GOLDEN[key], rel=1e-9)

    def test_gpt_case1_end_to_end_unchanged_vs_seed(self):
        from repro.models.gpt import GPT_CASES

        spec = build_gpt(GPT_CASES["GPT case1"])
        for method, golden in GPT_CASE1_GOLDEN.items():
            got = run_iteration(spec, method).iteration_time
            assert got == pytest.approx(golden, rel=1e-9), method
