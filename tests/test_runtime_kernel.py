"""Tests for the runtime kernel: the event loop, its bus, and the FIFO
channels the pipeline executor keeps per directed device pair."""

import pytest

from repro import reshard
from repro.experiments import fig6
from repro.experiments.common import make_microbench_meshes
from repro.models.gpt import GPT_CASES, build_gpt
from repro.models.parallel import run_iteration
from repro.pipeline.executor import simulate_pipeline
from repro.pipeline.interleaved import InterleavedJob
from repro.pipeline.schedules import schedule_job
from repro.pipeline.stage import CommEdge, PipelineJob, StageProfile
from repro.runtime.kernel import EventLoop


# ----------------------------------------------------------------------
# EventLoop tie-breaking (regression: FIFO at equal timestamps)
# ----------------------------------------------------------------------
def test_equal_timestamps_pop_in_insertion_order():
    """The heap key carries a monotonic seq so ties never reorder."""
    loop = EventLoop()
    order = []
    for i in range(50):
        loop.call_at(1.0, lambda i=i: order.append(i))
    loop.run()
    assert order == list(range(50))


def test_tie_breaking_survives_interleaved_times_and_cancels():
    loop = EventLoop()
    order = []
    evs = []
    for i in range(10):
        evs.append(loop.call_at(2.0, lambda i=i: order.append(("late", i))))
        loop.call_at(1.0, lambda i=i: order.append(("early", i)))
    loop.cancel(evs[3])
    loop.cancel(evs[7])
    loop.run()
    assert order[:10] == [("early", i) for i in range(10)]
    assert order[10:] == [("late", i) for i in range(10) if i not in (3, 7)]


def test_events_scheduled_at_now_during_callback_run_same_time():
    loop = EventLoop()
    seen = []

    def first():
        seen.append("first")
        loop.call_after(0.0, lambda: seen.append("nested"))

    loop.call_at(1.0, first)
    loop.call_at(1.0, lambda: seen.append("second"))
    loop.run()
    # nested zero-delay event lands after already-queued ties
    assert seen == ["first", "second", "nested"]
    assert loop.now == 1.0


# ----------------------------------------------------------------------
# Events dispatched per real call (what the benchmark's runtime.events
# counts): a kernel or executor change that keeps every span row must
# keep these too, unless it removes events on purpose.
# ----------------------------------------------------------------------
@pytest.fixture
def kernel_events(monkeypatch):
    """Sum of events run by every EventLoop.run during the test."""
    total = [0]
    run = EventLoop.run

    def counting_run(self, *args, **kwargs):
        before = self.processed
        try:
            return run(self, *args, **kwargs)
        finally:
            total[0] += self.processed - before

    monkeypatch.setattr(EventLoop, "run", counting_run)
    return total


def test_fig7_iteration_dispatches_pinned_event_count(kernel_events):
    """One Fig. 7 iteration (GPT case1, ``ours``): its boundary compiles'
    simulations plus the pipeline executor."""
    run_iteration(build_gpt(GPT_CASES["GPT case1"]), "ours", cache=None)
    assert kernel_events[0] == 1552


def test_table2_reshard_dispatches_pinned_event_count(kernel_events):
    """One uncached Table-2 reshard (case8, broadcast)."""
    case = next(c for c in fig6.TABLE2_CASES if c.name == "case8")
    _cluster, src, dst = make_microbench_meshes(case.send_mesh, case.recv_mesh)
    reshard(fig6.TENSOR_SHAPE, src, case.send_spec, dst, case.recv_spec,
            strategy="broadcast", cache=None)
    assert kernel_events[0] == 1282


# ----------------------------------------------------------------------
# The loop's bus
# ----------------------------------------------------------------------
def test_kernel_bus_clock_tracks_now():
    k = EventLoop()
    times = []
    k.call_at(2.5, lambda: times.append(k.bus.now))
    k.run()
    assert times == [2.5]


# ----------------------------------------------------------------------
# FIFO channels (one per directed device pair and direction)
# ----------------------------------------------------------------------
def _two_stage_job(comm, m=2):
    stages = [StageProfile(s, 1.0, 1.0, 0.0) for s in range(2)]
    return PipelineJob(stages, [CommEdge(0, 1, comm, comm, label="act")], m)


def _channel_spans(result, track):
    return [(s.start, s.end) for s in result.telemetry.spans
            if s.cat == "comm" and s.track == track]


def test_serial_channel_fifo_reservations():
    """Two messages on one directed device pair serialise in send order:
    F0 and F1 finish at t=1 and t=2, but the second activation waits for
    the first to clear the 3-second link."""
    r = simulate_pipeline(_two_stage_job(3.0), schedule_job("gpipe", 2, 2))
    assert _channel_spans(r, "chan:0->1:fwd") == [(1.0, 4.0), (4.0, 7.0)]
    # interleaved: chunk edges c0->c1 and c2->c3 share device pair 0->1
    job = InterleavedJob(2, 2, 4, 1.0, 2.0, 1.5, 1.5)
    r = simulate_pipeline(job.pipeline_job(), job.orders())
    spans = [s for s in r.telemetry.spans if s.track == "chan:0->1:fwd"]
    assert {s.name for s in spans} == {"c0->c1", "c2->c3"} and len(spans) == 2 * 4
    for prev, nxt in zip(spans, spans[1:]):
        assert nxt.start >= prev.end


def test_serial_channel_matches_max_rule():
    """Each transfer starts at max(ready, channel free), where ready is
    the producing task's finish and free the channel's previous end."""
    p, m, comm = 3, 6, 1.5
    stages = [StageProfile(s, 1.0, 1.0, 1.0) for s in range(p)]
    edges = [CommEdge(s, s + 1, comm, comm) for s in range(p - 1)]
    r = simulate_pipeline(PipelineJob(stages, edges, m), schedule_job("1f1b", p, m))
    finish = {(e.attrs["stage"], e.attrs["kind"], e.attrs["microbatch"]): e.end
              for e in r.telemetry.spans if e.cat == "compute"}
    free: dict[str, float] = {}
    queued = 0
    for s in r.telemetry.spans:
        if s.cat != "comm":
            continue
        a = s.attrs
        producer = a["src_stage"] if a["direction"] == "fwd" else a["dst_stage"]
        kind = "F" if a["direction"] == "fwd" else "B"
        ready = finish[(producer, kind, a["microbatch"])]
        prev = free.get(s.track, 0.0)
        assert s.start == (ready if ready > prev else prev)
        assert s.end == s.start + comm
        queued += prev > ready
        free[s.track] = s.end
    assert queued  # the warm-up forwards really did queue
