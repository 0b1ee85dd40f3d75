"""Tests for the event-driven pipeline executor."""

import pytest

from repro.pipeline.executor import simulate_pipeline
from repro.pipeline.schedules import Task, schedule_job
from repro.pipeline.stage import CommEdge, PipelineJob, StageProfile


def make_job(n_stages=2, m=4, fwd=1.0, comm=0.0, act_bytes=1.0,
             bwd_x=None, bwd_w=None, edges=None):
    bwd_x = fwd if bwd_x is None else bwd_x
    bwd_w = fwd if bwd_w is None else bwd_w
    stages = [
        StageProfile(s, fwd_time=fwd, bwd_x_time=bwd_x, bwd_w_time=bwd_w,
                     activation_bytes=act_bytes)
        for s in range(n_stages)
    ]
    if edges is None:
        edges = [
            CommEdge(s, s + 1, fwd_time=comm, bwd_time=comm)
            for s in range(n_stages - 1)
        ]
    return PipelineJob(stages, edges, n_microbatches=m)


# ----------------------------------------------------------------------
# structural validation
# ----------------------------------------------------------------------
def test_job_validation():
    with pytest.raises(ValueError, match="stage ids"):
        PipelineJob([StageProfile(1, 1, 1, 1)], [], 1)
    with pytest.raises(ValueError, match="micro"):
        make_job(m=0)
    with pytest.raises(ValueError, match="cross"):
        CommEdge(1, 1, 0.0, 0.0)
    with pytest.raises(ValueError, match="forward"):
        CommEdge(2, 1, 0.0, 0.0)
    with pytest.raises(ValueError, match="non-negative"):
        CommEdge(0, 1, 0.0, -1.0)


def test_order_validation_rejects_bad_lists():
    job = make_job(n_stages=1, m=2)
    with pytest.raises(ValueError, match="forwards"):
        simulate_pipeline(job, [[Task("F", 0), Task("B", 0), Task("B", 1)]])
    with pytest.raises(ValueError, match="precedes"):
        simulate_pipeline(job, [[Task("B", 0), Task("F", 0),
                                 Task("F", 1), Task("B", 1)]])
    with pytest.raises(ValueError, match="coverage"):
        simulate_pipeline(job, [[Task("F", 0), Task("F", 1),
                                 Task("Bx", 0), Task("Bw", 0),
                                 Task("B", 1)]])


def test_non_finite_times_rejected():
    """NaN slipped past the `< 0` guards and gave a wrong finite answer
    (5.0 for a NaN backward, 6.5 for a NaN edge)."""
    nan, inf = float("nan"), float("inf")
    for bad in (nan, inf):
        with pytest.raises(ValueError, match="finite"):
            StageProfile(1, bad, 1.0, 0.0)
        with pytest.raises(ValueError, match="finite"):
            StageProfile(1, 1.0, bad, 0.0)
        with pytest.raises(ValueError, match="finite"):
            CommEdge(0, 1, bad, 0.5)
        with pytest.raises(ValueError, match="finite"):
            CommEdge(0, 1, 0.5, bad)


def test_stage_placed_on_two_devices_rejected():
    job = make_job(n_stages=2, m=1)
    orders = [
        [Task("F", 0), Task("B", 0)],
        [Task("F", 0, stage=0), Task("F", 0), Task("B", 0)],
    ]
    with pytest.raises(ValueError, match="placed on devices 0 and 1"):
        simulate_pipeline(job, orders)
    with pytest.raises(ValueError, match="names no stage"):
        simulate_pipeline(job, [[Task("F", 0), Task("B", 0)],
                                [Task("F", 0, stage=2)]])


def test_chunked_orders_reject_blocking_comm():
    """Two stages on one device run overlapped only."""
    job = make_job(n_stages=2, m=2, comm=0.5)
    chunked = [[Task("F", mb, s) for s in (0, 1) for mb in (0, 1)]
               + [Task("B", mb, s) for s in (1, 0) for mb in (0, 1)]]
    r = simulate_pipeline(job, chunked, overlap=True)
    assert r.n_devices == 1 and set(r.stage_busy_time) == {0}
    # all compute serialised on the one device, plus the F->F transfer gaps
    assert r.iteration_time >= 2 * 2 * 3.0
    with pytest.raises(ValueError, match="overlap=False"):
        simulate_pipeline(job, chunked, overlap=False)


# ----------------------------------------------------------------------
# basic timing
# ----------------------------------------------------------------------
def test_single_stage_serial_time():
    job = make_job(n_stages=1, m=3)
    r = simulate_pipeline(job, schedule_job("1f1b", 1, 3))
    # 3 x (F + B) with F=1, B=2
    assert r.iteration_time == pytest.approx(9.0)
    assert r.stage_busy_time[0] == pytest.approx(9.0)


def test_two_stage_zero_comm_pipeline_bubble():
    m = 8
    job = make_job(n_stages=2, m=m)
    r = simulate_pipeline(job, schedule_job("1f1b", 2, m))
    # steady state m*(F+B) plus one stage's worth of fill/drain bubble
    assert r.iteration_time == pytest.approx(m * 3.0 + 3.0)


def test_schedules_equal_when_comm_free():
    """§4: with no communication cost 1F1B and eager-1F1B have the same
    latency."""
    m, p = 8, 3
    job = make_job(n_stages=p, m=m)
    t1 = simulate_pipeline(job, schedule_job("1f1b", p, m)).iteration_time
    t2 = simulate_pipeline(job, schedule_job("eager_1f1b", p, m)).iteration_time
    assert t1 == pytest.approx(t2)


def test_gpipe_slower_than_1f1b_never():
    """GPipe and 1F1B have identical makespan without comm; both valid."""
    job = make_job(n_stages=2, m=6)
    g = simulate_pipeline(job, schedule_job("gpipe", 2, 6)).iteration_time
    f = simulate_pipeline(job, schedule_job("1f1b", 2, 6)).iteration_time
    assert g == pytest.approx(f)


def test_comm_on_critical_path_when_blocking():
    m = 8
    job = make_job(n_stages=2, m=m, comm=0.5)
    r = simulate_pipeline(job, schedule_job("1f1b", 2, m), overlap=False)
    base = simulate_pipeline(make_job(n_stages=2, m=m),
                             schedule_job("1f1b", 2, m), overlap=False)
    # every micro-batch pays the fwd and bwd transfer on the critical path
    assert r.iteration_time >= base.iteration_time + m * 0.5


def test_overlap_beats_blocking():
    m = 8
    job = make_job(n_stages=2, m=m, comm=0.8)
    orders = schedule_job("1f1b", 2, m)
    blocking = simulate_pipeline(job, orders, overlap=False).iteration_time
    overlapped = simulate_pipeline(job, orders, overlap=True).iteration_time
    assert overlapped < blocking


def test_eager_hides_comm_fully_when_possible():
    m = 8
    job = make_job(n_stages=2, m=m, comm=0.8)
    eager = simulate_pipeline(job, schedule_job("eager_1f1b", 2, m), overlap=True)
    nocomm = simulate_pipeline(make_job(n_stages=2, m=m),
                               schedule_job("eager_1f1b", 2, m))
    # within ~one comm hop of the zero-comm floor
    assert eager.iteration_time <= nocomm.iteration_time + 2 * 0.8 + 1e-9


def test_ordering_blocking_ge_overlap_ge_eager():
    m = 16
    job = make_job(n_stages=2, m=m, comm=0.6)
    b = simulate_pipeline(job, schedule_job("1f1b", 2, m), overlap=False)
    o = simulate_pipeline(job, schedule_job("1f1b", 2, m), overlap=True)
    e = simulate_pipeline(job, schedule_job("eager_1f1b", 2, m), overlap=True)
    assert b.iteration_time >= o.iteration_time >= e.iteration_time


# ----------------------------------------------------------------------
# memory accounting
# ----------------------------------------------------------------------
def test_gpipe_peak_activation_is_all_microbatches():
    m = 6
    job = make_job(n_stages=2, m=m)
    r = simulate_pipeline(job, schedule_job("gpipe", 2, m))
    assert r.peak_activation_counts == {0: m, 1: m}


def test_1f1b_peak_activation_is_warmup_depth():
    m, p = 8, 3
    job = make_job(n_stages=p, m=m)
    r = simulate_pipeline(job, schedule_job("1f1b", p, m))
    assert r.peak_activation_counts == {0: 3, 1: 2, 2: 1}


def test_eager_peak_activation_matches_warmup():
    m, p = 8, 3
    job = make_job(n_stages=p, m=m)
    r = simulate_pipeline(job, schedule_job("eager_1f1b", p, m))
    assert r.peak_activation_counts == {0: 5, 1: 3, 2: 1}


def test_peak_memory_bytes():
    job = make_job(n_stages=2, m=4, act_bytes=10.0)
    job.stages[0] = StageProfile(0, 1, 1, 1, params_bytes=100.0,
                                 activation_bytes=10.0)
    r = simulate_pipeline(job, schedule_job("1f1b", 2, 4))
    assert r.peak_memory_bytes(0) == pytest.approx(100.0 + 2 * 10.0)


def test_delay_bw_weight_increases_peak_memory():
    m, p = 8, 2
    job = make_job(n_stages=p, m=m)
    plain = simulate_pipeline(job, schedule_job("1f1b", p, m))
    delayed = simulate_pipeline(job, schedule_job("1f1b", p, m,
                                                  delay_bw_weight=True))
    assert (delayed.peak_activation_counts[0]
            >= plain.peak_activation_counts[0])


# ----------------------------------------------------------------------
# dependency correctness
# ----------------------------------------------------------------------
def _events(result, stage, kind, mb):
    return [e for e in result.timeline
            if e.stage == stage and e.kind == kind and e.microbatch == mb][0]


@pytest.mark.parametrize("sched", ["gpipe", "1f1b", "eager_1f1b"])
@pytest.mark.parametrize("overlap", [False, True])
def test_causality_across_stages(sched, overlap):
    m, p = 6, 3
    job = make_job(n_stages=p, m=m, comm=0.3)
    r = simulate_pipeline(job, schedule_job(sched, p, m), overlap=overlap)
    for mb in range(m):
        for s in range(p - 1):
            # forward flows downstream with >= comm delay
            up = _events(r, s, "F", mb)
            down = _events(r, s + 1, "F", mb)
            assert down.start >= up.end + 0.3 - 1e-9
            # gradient flows upstream
            bdown = _events(r, s + 1, "B", mb)
            bup = _events(r, s, "B", mb)
            assert bup.start >= bdown.end + 0.3 - 1e-9


def test_skip_connection_edges():
    """U-Transformer-style: multiple edges between the same stage pair."""
    edges = [
        CommEdge(0, 1, fwd_time=0.2, bwd_time=0.2, label="seq"),
        CommEdge(0, 1, fwd_time=0.5, bwd_time=0.5, label="skip"),
    ]
    job = make_job(n_stages=2, m=4, edges=edges)
    r = simulate_pipeline(job, schedule_job("1f1b", 2, 4), overlap=True)
    # both transfers happen per micro-batch, in both directions
    fwd = [c for c in r.comms if c.direction == "fwd"]
    bwd = [c for c in r.comms if c.direction == "bwd"]
    assert len(fwd) == 8 and len(bwd) == 8
    # channel serializes same-direction transfers of one micro-batch
    labels = {(c.microbatch, c.label): c for c in fwd}
    for mb in range(4):
        a, b = labels[(mb, "seq")], labels[(mb, "skip")]
        assert a.end <= b.start + 1e-9 or b.end <= a.start + 1e-9


def test_deadlock_detection():
    """An impossible order (backward before upstream produced) deadlocks."""
    job = make_job(n_stages=2, m=2, comm=0.1)
    # stage 1 waits for F0 of mb 1 before stage 0 has scheduled it? build
    # a cyclic wait: stage0 wants B(0) before F(1), stage1 needs F(1)
    orders = [
        [Task("F", 0), Task("B", 0), Task("F", 1), Task("B", 1)],
        [Task("F", 0), Task("F", 1), Task("B", 0), Task("B", 1)],
    ]
    # stage0 B(0) needs stage1 B(0); stage1 B(0) needs F(1) which needs
    # stage0 F(1), which stage0 only runs after B(0): deadlock.
    with pytest.raises(RuntimeError, match="deadlock"):
        simulate_pipeline(job, orders, overlap=True)


def test_throughput_helper():
    job = make_job(n_stages=1, m=2)
    r = simulate_pipeline(job, schedule_job("1f1b", 1, 2))
    assert r.throughput_tflops(6e12, 4) == pytest.approx(6e12 / r.iteration_time / 4 / 1e12)
    with pytest.raises(ValueError):
        r.throughput_tflops(-1, 0)  # guarded by iteration_time>0 path
