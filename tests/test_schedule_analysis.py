"""Tests for the static pipeline-schedule analyzer.

Pins the static in-flight bound to the executor's measured peaks and to
the paper's analytic warm-up depths
(:func:`repro.pipeline.schedules.analytic_peak_inflight`), and exercises
the memory (S001), structure (S002), and deadlock (D002) rules.
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    analyze_pipeline_schedule,
    check_stage_orders,
    check_stage_orders_deadlock,
    static_peak_inflight,
)
from repro.pipeline.executor import simulate_pipeline
from repro.pipeline.interleaved import InterleavedJob
from repro.pipeline.schedules import (
    SCHEDULE_NAMES,
    Task,
    analytic_peak_inflight,
    schedule_job,
)
from repro.pipeline.stage import CommEdge, PipelineJob, StageProfile


def T(kind, mb):
    return Task(kind, mb)


def make_job(n_stages, activation_bytes=10.0, params_bytes=100.0, capacity=0.0):
    stages = [
        StageProfile(
            stage_id=s,
            fwd_time=1.0,
            bwd_x_time=1.0,
            bwd_w_time=1.0,
            params_bytes=params_bytes,
            activation_bytes=activation_bytes,
            memory_capacity=capacity,
        )
        for s in range(n_stages)
    ]
    edges = [
        CommEdge(src_stage=s, dst_stage=s + 1, fwd_time=0.0, bwd_time=0.0)
        for s in range(n_stages - 1)
    ]
    return PipelineJob(stages=stages, edges=edges, n_microbatches=8)


# ----------------------------------------------------------------------
# The static bound equals the analytic warm-up depth (paper §4, Table 1)
# ----------------------------------------------------------------------
class TestStaticPeakMatchesAnalytic:
    @pytest.mark.parametrize("schedule", SCHEDULE_NAMES)
    @pytest.mark.parametrize("n_stages,n_microbatches",
                             [(2, 4), (4, 8), (4, 16), (8, 8)])
    def test_matches_analytic(self, schedule, n_stages, n_microbatches):
        orders = schedule_job(schedule, n_stages, n_microbatches)
        for stage, order in enumerate(orders):
            assert static_peak_inflight(order) == analytic_peak_inflight(
                schedule, stage, n_stages, n_microbatches
            ), f"{schedule} stage {stage}"

    def test_gpipe_holds_everything(self):
        orders = schedule_job("gpipe", 4, 8)
        assert all(static_peak_inflight(o) == 8 for o in orders)


# ----------------------------------------------------------------------
# The analyzer and the executor read orders the same way
# ----------------------------------------------------------------------
def _two_stage_job():
    return PipelineJob(
        [StageProfile(i, 1, 1, 1) for i in (0, 1)], [CommEdge(0, 1, 0.5, 0.5)], 2
    )


def _appended(task):
    return [o + [task] for o in schedule_job("1f1b", 2, 2)]


def _interleaved():
    j = InterleavedJob(2, 2, 4, 1.0, 2.0, 0.1, 0.1)
    return j.pipeline_job(), j.orders()


AGREEMENT_CASES = {
    # name: (job and orders, whether both accept them)
    "unknown-kind": (lambda: (_two_stage_job(), _appended(Task("Q", 0))), False),
    "stray-bw": (lambda: (_two_stage_job(), _appended(Task("Bw", 0))), False),
    "mixed-backward": (
        lambda: (_two_stage_job(),
                 [[T("F", 0), T("F", 1), T("B", 0), T("Bx", 1), T("Bw", 1)]] * 2),
        False,
    ),
    "forward-only": (lambda: (_two_stage_job(), [[T("F", 0), T("F", 1)]] * 2), True),
    "interleaved": (_interleaved, True),
}


@pytest.mark.parametrize("case", sorted(AGREEMENT_CASES))
def test_analyzer_accepts_exactly_what_the_executor_runs(case):
    build, accepted = AGREEMENT_CASES[case]
    job, orders = build()
    try:
        simulate_pipeline(job, orders)
        runs = True
    except ValueError:
        runs = False
    report = check_stage_orders(orders, job.n_microbatches, job)
    assert (runs, report.ok) == (accepted, accepted), [
        d.format() for d in report.diagnostics
    ]


PEAK_CASES = [
    (schedule, delay, slots)
    for schedule in SCHEDULE_NAMES
    for delay in (False, True)
    for slots in (1, 2)
] + ["interleaved"]


@pytest.mark.parametrize(
    "case", PEAK_CASES,
    ids=lambda c: c if isinstance(c, str) else f"{c[0]}-delay{int(c[1])}-slots{c[2]}",
)
def test_static_peak_equals_measured(case):
    """Backward weight delaying keeps an activation live until ``Bw``,
    and the static peak counts it the way the executor's gauge does."""
    if case == "interleaved":
        job, orders = _interleaved()
    else:
        schedule, delay, slots = case
        job = make_job(4)
        orders = schedule_job(schedule, 4, 8, delay_bw_weight=delay,
                              delay_slots=slots)
    measured = simulate_pipeline(job, orders).peak_activation_counts
    assert {d: static_peak_inflight(o) for d, o in enumerate(orders)} == measured


# ----------------------------------------------------------------------
# S001: memory capacity
# ----------------------------------------------------------------------
class TestMemoryBound:
    def test_over_capacity_flagged(self):
        # Stage 0 of 2-stage 1F1B holds 2 activations: 100 + 2*10 = 120.
        job = make_job(2, capacity=110.0)
        report = analyze_pipeline_schedule("1f1b", 2, 8, job=job)
        assert "S001" in report.codes
        flagged = {d.task_ids[0] for d in report.diagnostics if d.code == "S001"}
        assert 0 in flagged

    def test_fitting_capacity_is_clean(self):
        job = make_job(2, capacity=200.0)
        report = analyze_pipeline_schedule("1f1b", 2, 8, job=job)
        assert report.ok, "\n".join(d.format() for d in report.diagnostics)

    def test_zero_capacity_means_unbounded(self):
        job = make_job(2, capacity=0.0)
        report = analyze_pipeline_schedule("gpipe", 2, 8, job=job)
        assert "S001" not in report.codes

    def test_eager_needs_more_than_1f1b(self):
        # Capacity sized so 1F1B stage 0 (2 in-flight) fits but
        # eager-1F1B stage 0 (3 in-flight) does not.
        job = make_job(2, capacity=125.0)
        assert analyze_pipeline_schedule("1f1b", 2, 8, job=job).ok
        report = analyze_pipeline_schedule("eager_1f1b", 2, 8, job=job)
        assert "S001" in report.codes

    def test_delayed_weight_gradient_counts_against_capacity(self):
        # 1F1B with Bw delayed holds [5, 4, 3, 2] activations; stage 0
        # needs 100 + 5 * 10 = 150 bytes, over a 140-byte capacity.
        job = make_job(4, capacity=140.0)
        report = analyze_pipeline_schedule("1f1b", 4, 8, job=job,
                                           delay_bw_weight=True)
        flagged = [d.task_ids for d in report.diagnostics if d.code == "S001"]
        assert flagged == [(0,)]
        run = simulate_pipeline(job, schedule_job("1f1b", 4, 8,
                                                  delay_bw_weight=True))
        stage = job.stages[0]
        peak = run.peak_activation_counts[0]
        assert stage.params_bytes + peak * stage.activation_bytes == 150.0

    def test_negative_capacity_rejected_at_construction(self):
        with pytest.raises(ValueError):
            StageProfile(stage_id=0, fwd_time=1.0, bwd_x_time=1.0,
                         bwd_w_time=1.0, memory_capacity=-1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -5.0])
    @pytest.mark.parametrize(
        "field", ["params_bytes", "activation_bytes", "memory_capacity"]
    )
    def test_non_finite_or_negative_bytes_rejected(self, field, bad):
        # A NaN capacity or NaN/negative activations would switch S001
        # off silently (every comparison with NaN is False).
        with pytest.raises(ValueError, match=field):
            StageProfile(stage_id=0, fwd_time=1.0, bwd_x_time=1.0,
                         bwd_w_time=1.0, **{field: bad})


# ----------------------------------------------------------------------
# Sizes: an empty or fractional pipeline is refused, not certified
# ----------------------------------------------------------------------
class TestSizes:
    @pytest.mark.parametrize(
        "n_stages,n_microbatches", [(0, 8), (-1, 8), (4, 0), (4, -3), (2.5, 8), (4, 2.5)]
    )
    def test_schedule_job_rejects_bad_sizes(self, n_stages, n_microbatches):
        with pytest.raises(ValueError, match="integer >= 1"):
            schedule_job("1f1b", n_stages, n_microbatches)

    @pytest.mark.parametrize("m", [0, -3, 2.5, True])
    def test_pipeline_job_rejects_bad_microbatches(self, m):
        with pytest.raises(ValueError, match="n_microbatches"):
            PipelineJob(stages=make_job(2).stages, n_microbatches=m)

    @pytest.mark.parametrize(
        "argv", [["--microbatches", "0"], ["--microbatches", "-3"], ["--stages", "0"]]
    )
    def test_cli_refuses_empty_pipeline(self, argv, capsys):
        from repro.__main__ import main

        assert main(["analyze", "--pipeline", "1f1b", *argv]) != 0
        assert "integer >= 1" in capsys.readouterr().err


# ----------------------------------------------------------------------
# S002: structural checks on explicit orders
# ----------------------------------------------------------------------
class TestStructure:
    def test_duplicate_forward(self):
        orders = [[T("F", 0), T("F", 0), T("B", 0)]]
        report = check_stage_orders(orders, 1)
        assert "S002" in report.codes

    def test_missing_backward(self):
        orders = [[T("F", 0), T("F", 1), T("B", 0)]]
        report = check_stage_orders(orders, 2)
        assert "S002" in report.codes

    def test_backward_before_forward(self):
        orders = [[T("B", 0), T("F", 0)]]
        report = check_stage_orders(orders, 1)
        assert "S002" in report.codes

    def test_bw_before_bx(self):
        orders = [[T("F", 0), T("Bw", 0), T("Bx", 0)]]
        report = check_stage_orders(orders, 1)
        assert "S002" in report.codes

    def test_unknown_kind(self):
        orders = [[T("F", 0), T("Z", 0), T("B", 0)]]
        report = check_stage_orders(orders, 1)
        assert "S002" in report.codes

    def test_well_formed_split_backward_is_clean(self):
        orders = [[T("F", 0), T("Bx", 0), T("Bw", 0)]]
        report = check_stage_orders(orders, 1)
        assert report.ok, "\n".join(d.format() for d in report.diagnostics)


# ----------------------------------------------------------------------
# D002: cross-stage deadlock
# ----------------------------------------------------------------------
class TestDeadlock:
    def test_inverted_stage_order_deadlocks(self):
        # Stage 0 runs its backward first; it waits on stage 1's
        # backward, which waits on stage 1's forward, which waits on
        # stage 0's forward — queued behind stage 0's backward. Hang.
        orders = [[T("B", 0), T("F", 0)], [T("F", 0), T("B", 0)]]
        report = check_stage_orders_deadlock(orders)
        assert "D002" in report.codes
        (diag,) = report.diagnostics
        assert diag.witness
        assert diag.witness[0] == diag.witness[-1]

    @pytest.mark.parametrize("schedule", SCHEDULE_NAMES)
    def test_named_schedules_never_deadlock(self, schedule):
        orders = schedule_job(schedule, 4, 8)
        assert check_stage_orders_deadlock(orders).ok

    def test_skip_connection_edges_are_honoured(self):
        # A 3-stage job with a skip edge 0 -> 2; the named schedules must
        # still come out clean under the richer wait-for graph.
        stages = [
            StageProfile(stage_id=s, fwd_time=1.0, bwd_x_time=1.0, bwd_w_time=1.0)
            for s in range(3)
        ]
        edges = [
            CommEdge(src_stage=0, dst_stage=1, fwd_time=0.0, bwd_time=0.0),
            CommEdge(src_stage=1, dst_stage=2, fwd_time=0.0, bwd_time=0.0),
            CommEdge(src_stage=0, dst_stage=2, fwd_time=0.0, bwd_time=0.0,
                     label="skip"),
        ]
        job = PipelineJob(stages=stages, edges=edges, n_microbatches=4)
        for schedule in SCHEDULE_NAMES:
            report = analyze_pipeline_schedule(schedule, 3, 4, job=job)
            assert report.ok, (
                schedule + ": "
                + "\n".join(d.format() for d in report.diagnostics)
            )


# ----------------------------------------------------------------------
# End-to-end: named schedules are clean
# ----------------------------------------------------------------------
class TestNamedSchedules:
    @pytest.mark.parametrize("schedule", SCHEDULE_NAMES)
    @pytest.mark.parametrize("delay", [False, True])
    def test_analyzer_accepts(self, schedule, delay):
        report = analyze_pipeline_schedule(
            schedule, 4, 8, delay_bw_weight=delay
        )
        assert report.ok, "\n".join(d.format() for d in report.diagnostics)
        assert report.subject == f"pipeline-schedule[{schedule}]"
