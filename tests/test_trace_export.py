"""Tests for Chrome-trace export of pipeline and network runs."""

import json

import pytest

from repro.core.api import reshard
from repro.core.mesh import DeviceMesh
from repro.pipeline.executor import simulate_pipeline
from repro.pipeline.schedules import schedule_job
from repro.pipeline.stage import CommEdge, PipelineJob, StageProfile
from repro.runtime.trace import chrome_trace_events, write_chrome_trace_file
from repro.sim.cluster import Cluster, ClusterSpec


@pytest.fixture
def pipe_result():
    stages = [StageProfile(s, 1.0, 1.0, 1.0) for s in range(2)]
    edges = [CommEdge(0, 1, 0.3, 0.3, label="act")]
    job = PipelineJob(stages, edges, n_microbatches=3)
    return simulate_pipeline(job, schedule_job("1f1b", 2, 3), overlap=True)


def test_pipeline_trace_events(pipe_result):
    events = chrome_trace_events(pipe_result.telemetry)
    compute = [e for e in events if e.get("cat") == "compute"]
    comm = [e for e in events if e.get("cat") == "comm"]
    threads = {e["args"]["name"] for e in events if e["name"] == "thread_name"}
    assert {"stage:0", "stage:1", "chan:0->1:fwd", "chan:0->1:bwd"} <= threads
    # 3 mb x (F + B) x 2 stages
    assert len(compute) == 12
    # 3 mb x 2 directions
    assert len(comm) == 6
    for e in compute + comm:
        assert e["ph"] == "X"
        assert e["dur"] > 0
        assert e["ts"] >= 0


def test_flow_trace_events():
    c = Cluster(ClusterSpec(n_hosts=4, devices_per_host=4))
    src = DeviceMesh.from_hosts(c, [0, 1])
    dst = DeviceMesh.from_hosts(c, [2, 3])
    r = reshard((64, 64, 8), src, "S0RR", dst, "RS1R", strategy="broadcast")
    flows = [e for e in chrome_trace_events(r.timing.telemetry)
             if e.get("cat") == "flow"]
    assert len(flows) == sum(1 for s in r.timing.telemetry.spans if s.cat == "flow")
    assert any(not c.same_host(e["args"]["src"], e["args"]["dst"]) for e in flows)
    assert all(e["ph"] == "X" and e["dur"] > 0 for e in flows)


def test_write_chrome_trace_roundtrip(tmp_path, pipe_result):
    events = chrome_trace_events(pipe_result.telemetry)
    path = tmp_path / "trace.json"
    write_chrome_trace_file(events, str(path))
    data = json.loads(path.read_text())
    assert data["displayTimeUnit"] == "ms"
    assert data["traceEvents"] == events
