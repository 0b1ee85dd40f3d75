"""Tests for interleaved 1F1B with virtual pipeline stages."""

import pytest

from repro.experiments import interleaving
from repro.pipeline.executor import simulate_pipeline
from repro.pipeline.interleaved import InterleavedJob, interleaved_order
from repro.pipeline.schedules import Task


def make_job(p=4, v=2, m=8, fwd=1.0, comm=0.0):
    return InterleavedJob(
        n_stages=p,
        n_virtual=v,
        n_microbatches=m,
        fwd_time=fwd,
        bwd_time=2 * fwd,
        comm_fwd=comm,
        comm_bwd=comm,
    )


def simulate(job):
    return simulate_pipeline(job.pipeline_job(), job.orders())


def bubble(r):
    """Idle fraction of the busiest device."""
    return 1.0 - max(r.stage_busy_time.values()) / r.iteration_time


# ----------------------------------------------------------------------
# schedule generation
# ----------------------------------------------------------------------
def test_job_validation():
    with pytest.raises(ValueError, match="divisible"):
        make_job(p=4, m=6)
    with pytest.raises(ValueError, match="stage"):
        InterleavedJob(0, 1, 4, 1, 1, 0, 0)
    with pytest.raises(ValueError, match="micro"):
        InterleavedJob(2, 1, 0, 1, 1, 0, 0)
    with pytest.raises(ValueError, match="non-negative"):
        InterleavedJob(2, 1, 4, -1, 1, 0, 0)
    # a NaN forward time used to simulate to a finite 9.0
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            InterleavedJob(2, 2, 4, bad, 1, 0, 0)
        with pytest.raises(ValueError, match="finite"):
            InterleavedJob(2, 2, 4, 1, 1, 0, bad)


@pytest.mark.parametrize(
    "field, args",
    [("n_stages", (2.0, 1, 4)), ("n_virtual", (2, True, 4)), ("n_microbatches", (2, 1, 4.0))],
)
def test_job_counts_take_only_integers(field, args):
    # each of these used to build a job
    with pytest.raises(ValueError, match=rf"{field} must be an integer"):
        InterleavedJob(*args, 1, 1, 0, 0)


def test_order_covers_all_chunk_microbatch_pairs():
    job = make_job()
    for rank in range(job.n_stages):
        order = interleaved_order(job, rank)
        fwd = {(t.stage, t.microbatch) for t in order if t.kind == "F"}
        bwd = {(t.stage, t.microbatch) for t in order if t.kind == "B"}
        chunks = {c for c in range(job.n_chunks) if c % job.n_stages == rank}
        expect = {(c, mb) for c in chunks for mb in range(job.n_microbatches)}
        assert fwd == expect and bwd == expect
        assert len(order) == 2 * len(expect)


def test_order_forward_precedes_backward():
    job = make_job()
    for rank in range(job.n_stages):
        order = interleaved_order(job, rank)
        for t in order:
            if t.kind == "B":
                f = Task("F", t.microbatch, t.stage)
                assert order.index(f) < order.index(t)


def test_order_rank_bounds():
    job = make_job()
    with pytest.raises(ValueError):
        interleaved_order(job, 4)


def test_warmup_depth_matches_megatron_formula():
    job = make_job(p=4, v=2, m=8)
    for rank in range(4):
        order = interleaved_order(job, rank)
        warmup = 0
        for t in order:
            if t.kind != "F":
                break
            warmup += 1
        # the steady loop leads with a forward, so the leading-F run is
        # one longer than Megatron's num_warmup_microbatches
        assert warmup == (4 - rank - 1) * 2 + (2 - 1) * 4 + 1


def test_pipeline_job_chains_chunks():
    job = make_job(p=2, v=3, m=4, comm=0.25)
    pj = job.pipeline_job()
    assert pj.n_stages == job.n_chunks == 6
    assert [(e.src_stage, e.dst_stage) for e in pj.edges] == [(c, c + 1) for c in range(5)]
    assert all(s.bwd_w_time == 0.0 and s.bwd_x_time == 2.0 for s in pj.stages)
    assert all(e.fwd_time == e.bwd_time == 0.25 for e in pj.edges)


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def test_single_stage_single_chunk_serial():
    job = make_job(p=1, v=1, m=3, fwd=1.0)
    r = simulate(job)
    assert r.iteration_time == pytest.approx(3 * 3.0)


def test_interleaving_shrinks_bubble():
    p, m = 4, 8
    results = {}
    for v in (1, 2, 4):
        job = InterleavedJob(p, v, m, fwd_time=1.0 / v, bwd_time=2.0 / v,
                             comm_fwd=0.0, comm_bwd=0.0)
        results[v] = simulate(job)
    assert results[2].iteration_time < results[1].iteration_time
    assert results[4].iteration_time <= results[2].iteration_time
    assert bubble(results[2]) < bubble(results[1])


def test_interleaving_costs_memory():
    p, m = 4, 8
    peaks = {}
    for v in (1, 2):
        job = InterleavedJob(p, v, m, fwd_time=1.0 / v, bwd_time=2.0 / v,
                             comm_fwd=0.0, comm_bwd=0.0)
        peaks[v] = simulate(job).peak_activation_counts[0]
    assert peaks[2] > peaks[1]


def test_causality_across_chunks():
    job = make_job(p=2, v=2, m=4, comm=0.3)
    r = simulate(job)
    compute = [t for t in r.telemetry.spans if t.cat == "compute"]
    key = {t: (t.attrs["kind"], t.attrs["chunk"], t.attrs["microbatch"]) for t in compute}
    ends = {key[t]: t.end for t in compute}
    starts = {key[t]: t.start for t in compute}
    for mb in range(4):
        for c in range(1, job.n_chunks):
            assert starts[("F", c, mb)] >= ends[("F", c - 1, mb)] + 0.3 - 1e-9
        for c in range(job.n_chunks - 1):
            assert starts[("B", c, mb)] >= ends[("B", c + 1, mb)] + 0.3 - 1e-9
        # last chunk's backward after its own forward
        V = job.n_chunks
        assert starts[("B", V - 1, mb)] >= ends[("F", V - 1, mb)] - 1e-9


def test_stage_exclusivity():
    job = make_job(p=3, v=2, m=6, comm=0.2)
    r = simulate(job)
    compute = [t for t in r.telemetry.spans if t.cat == "compute"]
    assert {t.attrs["stage"] for t in compute} == {0, 1, 2}
    for s in range(3):
        entries = sorted(
            [(t.start, t.end) for t in compute if t.attrs["stage"] == s]
        )
        for (a1, e1), (a2, _e2) in zip(entries, entries[1:]):
            assert e1 <= a2 + 1e-9


def test_total_compute_conserved():
    job = make_job(p=2, v=2, m=4, fwd=1.0, comm=0.1)
    r = simulate(job)
    for s in range(2):
        busy = sum(t.end - t.start for t in r.telemetry.spans
                   if t.cat == "compute" and t.attrs["stage"] == s)
        # per stage: v chunks x m microbatches x (fwd + bwd)
        assert busy == pytest.approx(2 * 4 * 3.0)
        assert r.stage_busy_time[s] == pytest.approx(busy)


def test_more_virtual_stages_tolerate_more_comm():
    """Interleaving creates overlap room: with heavy comm, v=2 beats v=1
    by more than its bubble advantage alone."""
    p, m = 4, 8
    def run(v, comm):
        job = InterleavedJob(p, v, m, fwd_time=1.0 / v, bwd_time=2.0 / v,
                             comm_fwd=comm, comm_bwd=comm)
        return simulate(job).iteration_time

    gain_nocomm = run(1, 0.0) / run(2, 0.0)
    gain_comm = run(1, 0.4) / run(2, 0.4)
    assert gain_comm > 1.0
    assert gain_nocomm > 1.0


# ----------------------------------------------------------------------
# S3 golden rows (recorded from the former dedicated interleaved
# executor; exact equality pins the fold into simulate_pipeline)
# ----------------------------------------------------------------------
S3_GOLDEN = [
    (1, 0.0, 2.850000000000001, 0.1578947368421051, 7),
    (2, 0.0, 2.624999999999998, 0.08571428571428552, 11),
    (4, 0.0, 2.5124999999999953, 0.04477611940298509, 19),
    (1, 0.25, 2.9250000000000016, 0.17948717948717952, 7),
    (2, 0.25, 2.712499999999998, 0.11520737327188946, 11),
    (4, 0.25, 2.6062499999999926, 0.07913669064748097, 19),
    (1, 0.5, 3.0000000000000004, 0.19999999999999973, 7),
    (2, 0.5, 2.7999999999999985, 0.14285714285714302, 11),
    (4, 0.5, 2.699999999999997, 0.1111111111111116, 19),
]


def test_s3_rows_bit_identical():
    table = interleaving.run()
    assert [tuple(r[c] for c in table.columns) for r in table.rows] == S3_GOLDEN
