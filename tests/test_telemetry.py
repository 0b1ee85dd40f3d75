"""Tests for the telemetry bus: nesting, monotonicity, export, parity."""

import pytest

from repro.runtime.telemetry import (
    CounterSample,
    MarkRecord,
    SpanRecord,
    TelemetryBus,
)
from repro.runtime.trace import (
    chrome_trace_events,
    dicts_to_records,
    records_to_jsonl_dicts,
)


def make_bus(t=0.0):
    clock = {"t": t}
    bus = TelemetryBus(clock=lambda: clock["t"])
    return bus, clock


# ----------------------------------------------------------------------
# Span nesting
# ----------------------------------------------------------------------
def test_begin_end_nesting_sets_depth_and_parent():
    bus, clock = make_bus()
    bus.begin("outer", cat="phase", track="sup")
    clock["t"] = 1.0
    bus.begin("inner", cat="phase", track="sup")
    clock["t"] = 2.0
    inner = bus.end("sup")
    clock["t"] = 3.0
    outer = bus.end("sup")
    assert (inner.depth, inner.parent) == (1, "outer")
    assert (outer.depth, outer.parent) == (0, "")
    assert (inner.start, inner.end) == (1.0, 2.0)
    assert (outer.start, outer.end) == (0.0, 3.0)


def test_emit_span_inside_open_span_nests():
    bus, clock = make_bus()
    bus.begin("recovery", cat="recovery", track="sup")
    bus.span("load", "recovery.load", "sup", 0.5, 1.5)
    child = bus.spans[-1]
    assert (child.depth, child.parent) == (1, "recovery")
    clock["t"] = 2.0
    bus.end("sup")
    assert bus.open_depth("sup") == 0


def test_nesting_is_per_track():
    bus, _clock = make_bus()
    bus.begin("a", cat="c", track="t1")
    bus.span("b", "c", "t2", 0.0, 1.0)
    assert bus.spans[-1].depth == 0
    assert bus.open_depth("t1") == 1 and bus.open_depth("t2") == 0


def test_end_without_begin_raises():
    bus, _clock = make_bus()
    with pytest.raises(RuntimeError, match="no open span"):
        bus.end("nowhere")


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


def test_gauge_moves_both_ways_and_counter_is_separate_series():
    bus, _clock = make_bus()
    g = bus.gauge("acts", track="stage:0")
    g.add(2.0)
    g.add(-1.0)
    assert g.value == 1.0
    assert bus.counter("acts", track="stage:0") is not g  # distinct keyspace
    assert bus.gauge("acts", track="stage:0") is g


# ----------------------------------------------------------------------
# JSONL round-trip
# ----------------------------------------------------------------------
def test_jsonl_dicts_round_trip_to_records():
    bus, clock = make_bus()
    bus.span("s", "c", "t", 0.0, 1.0, {"k": 3})
    bus.counter("n", track="t").add(2.0)
    clock["t"] = 1.0
    bus.mark("m", track="t", why="x")
    recs = dicts_to_records(records_to_jsonl_dicts(bus, run="r"))
    span = next(r for r in recs if isinstance(r, SpanRecord))
    counter = next(r for r in recs if isinstance(r, CounterSample))
    mark = next(r for r in recs if isinstance(r, MarkRecord))
    assert (span.name, span.cat, span.attrs["k"]) == ("s", "c", 3)
    assert (counter.name, counter.value) == ("n", 2.0)
    assert (mark.name, mark.attrs["why"], mark.time) == ("m", "x", 1.0)


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
# Parity: bus-derived Chrome trace == the FlowRecord view
# ----------------------------------------------------------------------
def test_fig6_flow_trace_parity():
    """On a fixed Fig. 6 (Table 2) case the Chrome trace built straight
    from the telemetry spans must match the derived FlowRecord view —
    one flow event per record, same order, same names, times, and
    endpoints."""
    from repro.core.api import reshard
    from repro.experiments.common import make_microbench_meshes
    from repro.experiments.fig6 import TABLE2_CASES

    case = TABLE2_CASES[2]  # case3: RS0R -> S0RR on (2,4) meshes
    _cluster, src, dst = make_microbench_meshes(case.send_mesh, case.recv_mesh)
    r = reshard((256, 256, 64), src, case.send_spec, dst, case.recv_spec,
                strategy="broadcast", cache=None)
    records = r.timing.network.trace
    events = [e for e in chrome_trace_events(r.timing.telemetry)
              if e.get("cat") == "flow"]
    assert events and len(events) == len(records)
    for e, rec in zip(events, records):
        start = rec.start_time if rec.start_time >= 0.0 else rec.submit_time
        assert e["name"] == (rec.tag or f"flow{rec.flow_id}")
        assert e["ts"] == start * 1e6
        assert e["dur"] == max(rec.duration * 1e6, 0.01)
        a = e["args"]
        assert (a["src"], a["dst"], a["nbytes"]) == (rec.src, rec.dst, rec.nbytes)
