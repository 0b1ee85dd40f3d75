"""Tests for activation-memory analysis (paper §4, Table 1 argument)."""

import pytest

from repro.pipeline.executor import simulate_pipeline
from repro.pipeline.schedules import (
    analytic_peak_inflight,
    eager_memory_increase,
    schedule_job,
)
from repro.pipeline.stage import CommEdge, PipelineJob, StageProfile


def make_job(p=3, m=8, act=100.0):
    stages = [
        StageProfile(s, 1.0, 1.0, 1.0, params_bytes=1000.0, activation_bytes=act)
        for s in range(p)
    ]
    edges = [CommEdge(s, s + 1, 0.0, 0.0) for s in range(p - 1)]
    return PipelineJob(stages, edges, n_microbatches=m)


@pytest.mark.parametrize("sched", ["gpipe", "1f1b", "eager_1f1b"])
def test_analytic_matches_measured(sched):
    p, m = 3, 8
    job = make_job(p, m)
    r = simulate_pipeline(job, schedule_job(sched, p, m))
    for s in range(p):
        assert r.peak_activation_counts[s] == analytic_peak_inflight(sched, s, p, m)


def test_analytic_capped_by_microbatches():
    assert analytic_peak_inflight("gpipe", 0, 4, 3) == 3
    assert analytic_peak_inflight("1f1b", 0, 8, 2) == 2
    assert analytic_peak_inflight("eager_1f1b", 0, 8, 4) == 4


def test_unknown_schedule_rejected():
    with pytest.raises(ValueError):
        analytic_peak_inflight("2f2b", 0, 2, 2)


def test_eager_memory_increase_formula():
    # delta = (2(p-s-1)+1) - (p-s) = p - s - 1
    assert eager_memory_increase(0, 4, 10.0) == pytest.approx(30.0)
    assert eager_memory_increase(3, 4, 10.0) == pytest.approx(0.0)


def test_eager_increase_bounded_by_stages_times_activation():
    """The paper's bound: at most #stages x size_activation."""
    for p in range(1, 10):
        for s in range(p):
            assert eager_memory_increase(s, p, 1.0) <= p


def test_peak_stage_memory_is_params_plus_live_activations():
    p, m = 2, 4
    job = make_job(p, m, act=7.0)
    r = simulate_pipeline(job, schedule_job("1f1b", p, m))
    assert sorted(r.peak_activation_counts) == list(range(p))
    stage = job.stages[0]
    peak = r.peak_activation_counts[0]
    assert peak == 2
    assert peak * stage.activation_bytes == pytest.approx(14.0)
    assert stage.params_bytes + peak * stage.activation_bytes == pytest.approx(1014.0)
