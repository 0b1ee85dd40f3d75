"""Tests for the telemetry bus: span rows, monotonicity, export, parity."""

import json

import numpy as np
import pytest

from repro.__main__ import main
from repro.compiler import CompileContext, compile_resharding
from repro.core.task import ReshardingTask
from repro.experiments.common import make_microbench_meshes
from repro.runtime.telemetry import SpanRecord, TelemetryBus
from repro.runtime.trace import chrome_trace_events, records_to_jsonl_dicts
from repro.strategies import STRATEGIES


def make_bus(t=0.0):
    clock = {"t": t}
    bus = TelemetryBus(clock=lambda: clock["t"])
    return bus, clock


# ----------------------------------------------------------------------
# Span rows
# ----------------------------------------------------------------------
def test_span_appends_a_depth_zero_row():
    """The row the pipeline executor and the flow network append directly."""
    bus, _clock = make_bus()
    bus.span("load", "phase", "t1", 0.5, 1.5, {"k": 1})
    bus.span("b", "c", "t2", 0.0, 1.0)
    assert bus.span_rows == [("load", "phase", "t1", 0.5, 1.5, 0, "", {"k": 1}),
                             ("b", "c", "t2", 0.0, 1.0, 0, "", {})]


# ----------------------------------------------------------------------
# Counter monotonicity
# ----------------------------------------------------------------------
def test_counter_rejects_negative_delta():
    bus, _clock = make_bus()
    c = bus.counter("bytes", track="net")
    c.add(10.0)
    with pytest.raises(ValueError, match="monotonic"):
        c.add(-1.0)
    assert c.value == 10.0


def test_counter_samples_are_cumulative_and_timestamped():
    bus, clock = make_bus()
    c = bus.counter("bytes", track="net")
    c.add(5.0)
    clock["t"] = 2.0
    c.add(7.0)
    assert [(s.time, s.value) for s in bus.counters] == [(0.0, 5.0), (2.0, 12.0)]


def test_counter_accepts_a_zero_delta():
    bus, _clock = make_bus()
    c = bus.counter("bytes", track="net")
    assert c.add(0.0) == 0.0
    assert bus.counter_rows == [("bytes", "net", 0.0, 0.0)]


def test_gauge_samples_at_now_unless_given_a_time():
    bus, clock = make_bus(t=1.5)
    g = bus.gauge("acts", track="stage:0")
    g.add(2.0)
    g.add(-1.0, at=4.0)
    clock["t"] = 3.0
    g.add(1.0)
    assert bus.counter_rows == [("acts", "stage:0", 1.5, 2.0), ("acts", "stage:0", 4.0, 1.0),
                                ("acts", "stage:0", 3.0, 2.0)]


def test_span_record_defaults_and_duration():
    rec = SpanRecord("load", "phase", "t1", 1.25, 3.5)
    assert (rec.depth, rec.parent, dict(rec.attrs)) == (0, "", {})
    assert rec.duration == 2.25


def test_gauge_moves_both_ways_and_counter_is_separate_series():
    bus, _clock = make_bus()
    g = bus.gauge("acts", track="stage:0")
    g.add(2.0)
    g.add(-1.0)
    assert g.value == 1.0
    assert bus.counter("acts", track="stage:0") is not g  # distinct keyspace
    assert bus.gauge("acts", track="stage:0") is g


# ----------------------------------------------------------------------
# --trace-out: the CLI's one telemetry exporter
# ----------------------------------------------------------------------
def test_trace_out_writes_each_strategy_bus(tmp_path, capsys):
    """``reshard --strategy all --trace-out`` dumps every strategy's
    timing bus, in strategy order, as Chrome JSON or as JSONL."""
    shape = (8, 8, 8)
    argv = ["reshard", "--shape", "8,8,8", "--src-spec", "S0RR",
            "--dst-spec", "RS1R", "--strategy", "all", "--trace-out"]
    json_path, jsonl_path = tmp_path / "t.json", tmp_path / "t.jsonl"
    assert main([*argv, str(json_path)]) == 0
    assert main([*argv, str(jsonl_path)]) == 0
    capsys.readouterr()

    _cluster, src, dst = make_microbench_meshes((2, 4), (2, 4))
    task = ReshardingTask(shape, src, "S0RR", dst, "RS1R", dtype=np.float32)
    buses = [
        (name, compile_resharding(task, CompileContext(strategy=name, cache=None))
         .ensure_timing().telemetry)
        for name in sorted(STRATEGIES)
    ]
    events = [e for name, bus in buses for e in chrome_trace_events(bus, run=name)]
    assert json.loads(json_path.read_text())["traceEvents"] == events
    dicts = [d for name, bus in buses for d in records_to_jsonl_dicts(bus, run=name)]
    lines = jsonl_path.read_text().splitlines()
    assert [json.loads(line) for line in lines] == dicts


def test_chrome_trace_groups_tracks_by_prefix():
    bus, _clock = make_bus()
    bus.span("a", "c", "stage:0", 0.0, 1.0)
    bus.span("b", "c", "stage:1", 0.0, 1.0)
    bus.span("f", "flow", "dev:0", 0.0, 1.0)
    events = chrome_trace_events(bus)
    xs = [e for e in events if e.get("ph") == "X"]
    stage_pids = {e["pid"] for e in xs if e["name"] in ("a", "b")}
    dev_pids = {e["pid"] for e in xs if e["name"] == "f"}
    assert len(stage_pids) == 1  # one process per track group
    assert stage_pids.isdisjoint(dev_pids)
    tids = {(e["pid"], e["tid"]) for e in xs}
    assert len(tids) == 3  # one thread per track


# ----------------------------------------------------------------------
# Parity: the Chrome trace's flow events == the bus's flow spans
# ----------------------------------------------------------------------
def test_fig6_flow_trace_parity():
    """On a fixed Fig. 6 (Table 2) case the exporter writes one Chrome
    flow event per ``flow`` span, in order, with the span's name, start,
    duration and attrs."""
    from repro.core.api import reshard
    from repro.experiments.common import make_microbench_meshes
    from repro.experiments.fig6 import TABLE2_CASES

    case = TABLE2_CASES[2]  # case3: RS0R -> S0RR on (2,4) meshes
    _cluster, src, dst = make_microbench_meshes(case.send_mesh, case.recv_mesh)
    r = reshard((256, 256, 64), src, case.send_spec, dst, case.recv_spec,
                strategy="broadcast", cache=None)
    spans = [s for s in r.timing.telemetry.spans if s.cat == "flow"]
    events = [e for e in chrome_trace_events(r.timing.telemetry)
              if e.get("cat") == "flow"]
    assert events and len(events) == len(spans)
    for e, span in zip(events, spans):
        a = span.attrs
        assert span.name == (a["tag"] or f"flow{a['flow_id']}")
        assert e["name"] == span.name
        assert e["ts"] == span.start * 1e6
        assert e["dur"] == max(span.duration * 1e6, 0.01)
        assert e["args"] == a
