"""Tests of the benchmark itself: tracer math, patching, goldens, checks.

Run from the repository root with ``python -m pytest bench/``.
"""

from __future__ import annotations

import importlib.util
import json
import math
import signal
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _load_timing_goldens():
    """The seed's pinned latencies, from the repository's own tests."""
    spec = importlib.util.spec_from_file_location(
        "timing_unification_goldens", ROOT / "tests" / "test_timing_unification.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fake_clock(*ticks: float):
    it = iter(ticks)
    return lambda: next(it)


# ----------------------------------------------------------------------
# Tracer math
# ----------------------------------------------------------------------
def test_self_time_is_duration_minus_child_spans():
    tr = Tracer(clock=_fake_clock(0.0, 1.0, 2.0, 4.0, 5.0, 7.0, 8.0, 10.0))
    tr.begin_op("op")  # harness [0, 10]
    tr.enter("a")      # a [1, 8]
    tr.enter("b")      # b [2, 4]
    tr.exit()
    tr.enter("c")      # c [5, 7]
    tr.exit()
    tr.exit()
    tr.end_op()
    assert tr.self_time == {"harness": 3.0, "a": 3.0, "b": 2.0, "c": 2.0}
    assert sum(tr.self_time.values()) == tr.inclusive["harness"] == 10.0
    by_name = {s[1]: s for s in tr.spans}
    assert by_name["b"][4] == by_name["c"][4] == by_name["a"][0]
    assert by_name["a"][4] == by_name["harness"][0]
    assert by_name["harness"][4] == -1
    assert {s[5] for s in tr.spans} == {"op"}


def test_same_name_nesting_counts_inclusive_time_once():
    tr = Tracer(clock=_fake_clock(0.0, 1.0, 2.0, 3.0, 4.0))
    tr.enter("a")
    tr.enter("a")
    tr.enter("b")
    tr.exit()
    tr.exit()
    # outer a still open: inclusive is only booked when it closes
    assert tr.inclusive["a"] == 0.0
    tr.clock = _fake_clock(9.0)
    tr.exit()
    assert tr.calls["a"] == 2
    assert tr.inclusive["a"] == 9.0
    assert tr.self_time["a"] == 9.0 - 1.0


def test_speed_probe_samples_inside_an_op_and_takes_its_own_time_back():
    probe = bench.SpeedProbe()
    previous = signal.signal(signal.SIGALRM, probe.on_alarm)
    try:
        with probe:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 5 * bench.PROBE_INTERVAL_S:
                pass
            end = time.perf_counter()
    finally:
        signal.signal(signal.SIGALRM, previous)
    spent, refs = probe.split(end)
    assert len(refs) >= 2
    assert 0.0 < spent < end - t0
    assert probe.split(t0) == (0.0, refs)
    # an op timed at the reference's idle speed keeps its wall time
    assert bench.normalise(0.3, [bench.REF_NOMINAL_S] * 3) == pytest.approx(0.3)
    assert bench.normalise(0.3, [2 * bench.REF_NOMINAL_S] * 3) == pytest.approx(0.15)


def test_span_cap_keeps_aggregates_exact():
    tr = Tracer(max_spans=2)
    for _ in range(5):
        tr.enter("x")
        tr.exit()
    assert tr.calls["x"] == 5
    assert tr.n_spans == 5
    assert len(tr.spans) == 2


# ----------------------------------------------------------------------
# Patching
# ----------------------------------------------------------------------
def _snapshot() -> dict:
    """Every attribute the tracer may patch, by identity."""
    snap = {}
    for module, qualname, *_ in tracing.METHOD_TARGETS:
        cls_name, method = qualname.split(".")
        cls = getattr(importlib.import_module(module), cls_name)
        snap[(module, qualname)] = cls.__dict__[method]
    for name, mod in list(sys.modules.items()):
        if not name.startswith("repro"):
            continue
        for key, value in vars(mod).items():
            snap[(name, key)] = value
            if isinstance(value, dict):
                for item, entry in value.items():
                    snap[(name, key, repr(item))] = entry
    return snap


def test_install_uninstall_restores_every_attribute():
    tracing._import_all_repro_modules()
    before = _snapshot()
    tr = Tracer()
    tr.install()
    try:
        from repro.compiler import compile_resharding
        from repro.scheduling import SCHEDULERS
        from repro.sim.solver import ScalarSolver

        assert compile_resharding is not before[("repro.compiler", "compile_resharding")]
        assert SCHEDULERS["ensemble"] is not before[("repro.scheduling", "SCHEDULERS", "'ensemble'")]
        assert ScalarSolver.__dict__["solve"] is not before[("repro.sim.solver", "ScalarSolver.solve")]
    finally:
        tr.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


# ----------------------------------------------------------------------
# Goldens and checks
# ----------------------------------------------------------------------
def test_matcher_rejects_perturbed_float_and_digest():
    golden = {"latency": 0.8720601174399963, "digest": "ab12", "rows": [{"n": 3}]}
    same = json.loads(json.dumps(golden))
    assert bench.compare(same, golden) == []
    assert bench.compare({**same, "latency": golden["latency"] * (1 + 1e-13)}, golden) == []
    assert bench.compare({**same, "latency": golden["latency"] * (1 + 1e-9)}, golden)
    assert bench.compare({**same, "digest": "ab13"}, golden)
    assert bench.compare({**same, "rows": [{"n": 4}]}, golden)
    assert bench.compare({**same, "rows": [{"n": 3.0}]}, golden) == []
    assert bench.compare({**same, "rows": []}, golden)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench.PER_LAYER)
    assert spec["run_seconds"] == bench.RUN_SECONDS == bench.parse_args([]).seconds
    for table in (bench.PASSES, bench.TRACE_PASSES):
        assert [bench.passes_for(table, w, bench.RUN_SECONDS) for w in bench.WORKLOADS] == [
            table[w] for w in bench.WORKLOADS
        ]


def test_recorded_goldens_cover_every_op():
    for name in bench.WORKLOADS:
        ops = workloads.build_ops(name, 0)
        assert sorted(op.id for op in ops) == sorted(bench.load_golden(name)), name


def test_goldens_match_the_seed_timing_pins():
    """The goldens are not self-referential: they agree with the
    latencies ``tests/test_timing_unification.py`` pinned at the seed."""
    pins = _load_timing_goldens()
    e1 = bench.load_golden("paper_suite")["E1"]["rows"]
    columns = {"send_recv": "send_recv (s)", "allgather": "allgather/Alpa (s)",
               "broadcast": "broadcast (s)"}
    for (n_hosts, gpus, strategy), latency in pins.FIG5_GOLDEN.items():
        if n_hosts == 1:
            row = next(r for r in e1 if r["group"].startswith("1 node") and r["x"] == gpus)
        else:
            row = next(r for r in e1 if r["group"].startswith("2 GPUs") and r["x"] == n_hosts)
        assert row[columns[strategy]] == pytest.approx(latency, rel=1e-12)
    zoo = bench.load_golden("reshard_zoo")
    for (case, strategy), latency in pins.FIG6_GOLDEN.items():
        assert zoo[f"table2/{case}/{strategy}"]["latency"] == pytest.approx(latency, rel=1e-12)
    train = bench.load_golden("train_iter")
    for method, seconds in pins.GPT_CASE1_GOLDEN.items():
        assert train[f"GPT case1/{method}"]["iteration_time"] == pytest.approx(seconds, rel=1e-12)


#: one cheap op per workload that still crosses its main layers
SAMPLE_OPS = {
    "paper_suite": "E1",
    "train_iter": "GPT case1/ours",
    "reshard_zoo": "table2/case3/auto",
    "serve_bursty": "scenario/00",
}


def _op(workload: str, op_id: str):
    return next(op for op in workloads.build_ops(workload, 0) if op.id == op_id)


@pytest.mark.parametrize("workload", sorted(SAMPLE_OPS))
def test_one_op_passes_its_checks(workload):
    op = _op(workload, SAMPLE_OPS[workload])
    bench.settle()
    assert bench.verify(op, op.call(), bench.load_golden(workload)) == []


def test_data_plane_op_checks_the_moved_tensor():
    op = _op("reshard_zoo", "data/case4/broadcast")
    bench.settle()
    result = op.call()
    assert op.check(result) == []
    # S01RR on the 2x4 receiver mesh: every shard is distinct, so
    # corrupting any one of them must show in to_global()
    shard = next(iter(result.dst_tensor.shards.values()))
    shard.flat[0] += 1.0
    assert op.check(result)


@pytest.mark.parametrize("workload", sorted(SAMPLE_OPS))
def test_traced_counts_repeat_and_self_times_cover_the_op(workload):
    op = _op(workload, SAMPLE_OPS[workload])
    seen = []
    for _ in range(2):
        tr = Tracer()
        tr.install()
        try:
            bench.settle()
            t0 = time.perf_counter()
            tr.begin_op(op.id)
            try:
                op.call()
            finally:
                tr.end_op()
            wall = time.perf_counter() - t0
        finally:
            tr.uninstall()
        assert math.isclose(sum(tr.self_time.values()), tr.inclusive["harness"], rel_tol=1e-9)
        assert sum(tr.self_time.values()) == pytest.approx(wall, rel=0.02)
        seen.append((dict(tr.calls), dict(tr.counts)))
    assert seen[0] == seen[1]
    assert seen[0][0]["harness"] == 1
    assert len(seen[0][0]) > 3  # the op crossed several layers
