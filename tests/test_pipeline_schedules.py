"""Tests for pipeline schedule generation (GPipe, 1F1B, eager-1F1B)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline.schedules import (
    Task,
    eager_warmup,
    fifo_warmup,
    one_f_one_b_order,
    read_orders,
    schedule_job,
    split_backward,
)


# ----------------------------------------------------------------------
# warm-up depths (paper §4)
# ----------------------------------------------------------------------
def test_fifo_warmup_formula():
    # 0-indexed: p - s
    assert [fifo_warmup(s, 4) for s in range(4)] == [4, 3, 2, 1]


def test_eager_warmup_formula():
    # 0-indexed: 2 (p - s - 1) + 1
    assert [eager_warmup(s, 4) for s in range(4)] == [7, 5, 3, 1]


def test_warmups_last_stage_is_one():
    for p in range(1, 6):
        assert fifo_warmup(p - 1, p) == 1
        assert eager_warmup(p - 1, p) == 1


def test_eager_deeper_than_fifo_except_last():
    for p in range(2, 6):
        for s in range(p - 1):
            assert eager_warmup(s, p) > fifo_warmup(s, p)


def test_warmup_bounds_checked():
    with pytest.raises(ValueError):
        fifo_warmup(4, 4)
    with pytest.raises(ValueError):
        eager_warmup(-1, 4)


@pytest.mark.parametrize("warmup", [fifo_warmup, eager_warmup])
def test_warmup_refuses_both_ends(warmup):
    assert warmup(0, 4) >= warmup(3, 4) == 1
    for stage in (-1, 4):
        with pytest.raises(ValueError, match="outside"):
            warmup(stage, 4)


def test_eager_extra_memory_bound():
    """Eager stores at most #stages more activations (paper's bound)."""
    for p in range(2, 8):
        for s in range(p):
            assert eager_warmup(s, p) - fifo_warmup(s, p) <= p


# ----------------------------------------------------------------------
# orders
# ----------------------------------------------------------------------
def test_gpipe_runs_all_forwards_then_all_backwards():
    expected = [Task("F", 0), Task("F", 1), Task("F", 2),
                Task("B", 0), Task("B", 1), Task("B", 2)]
    assert schedule_job("gpipe", 2, 3) == [expected, expected]


def test_one_f_one_b_steady_pattern():
    order = one_f_one_b_order(6, warmup=2)
    kinds = "".join(t.kind for t in order)
    assert kinds == "FFBFBFBFBFBB"
    # backwards in micro-batch order
    assert [t.microbatch for t in order if t.kind == "B"] == list(range(6))


def test_one_f_one_b_warmup_larger_than_microbatches():
    order = one_f_one_b_order(2, warmup=5)
    kinds = "".join(t.kind for t in order)
    assert kinds == "FFBB"


def test_one_f_one_b_invalid_warmup():
    with pytest.raises(ValueError):
        one_f_one_b_order(4, warmup=0)


@pytest.mark.parametrize("sched", ["gpipe", "1f1b", "eager_1f1b"])
@pytest.mark.parametrize("p,m", [(1, 4), (2, 8), (4, 4), (4, 16)])
def test_orders_complete_and_causal(sched, p, m):
    for s in range(p):
        order = schedule_job(sched, p, m)[s]
        fwd = [t.microbatch for t in order if t.kind == "F"]
        bwd = [t.microbatch for t in order if t.kind == "B"]
        assert sorted(fwd) == list(range(m))
        assert sorted(bwd) == list(range(m))
        # F before its own B
        for mb in range(m):
            assert order.index(Task("F", mb)) < order.index(Task("B", mb))


def test_unknown_schedule():
    with pytest.raises(ValueError, match="unknown schedule"):
        schedule_job("2f2b", 2, 4)


# ----------------------------------------------------------------------
# backward split / weight delaying
# ----------------------------------------------------------------------
def test_split_backward_basic():
    order = [Task("F", 0), Task("F", 1), Task("B", 0), Task("F", 2), Task("B", 1)]
    out = split_backward(order, delay_slots=1)
    assert out == [
        Task("F", 0), Task("F", 1), Task("Bx", 0), Task("F", 2), Task("Bw", 0),
        Task("Bx", 1), Task("Bw", 1),
    ]


def test_split_backward_zero_delay():
    order = [Task("F", 0), Task("B", 0)]
    assert split_backward(order, delay_slots=0) == [
        Task("F", 0), Task("Bx", 0), Task("Bw", 0)
    ]


def test_split_backward_adjacent_backwards():
    order = [Task("F", 0), Task("F", 1), Task("B", 0), Task("B", 1)]
    out = split_backward(order, delay_slots=1)
    assert out == [Task("F", 0), Task("F", 1), Task("Bx", 0), Task("Bx", 1),
                   Task("Bw", 0), Task("Bw", 1)]


def test_split_backward_flushes_at_end():
    out = split_backward([Task("F", 0), Task("B", 0)], delay_slots=5)
    assert out == [Task("F", 0), Task("Bx", 0), Task("Bw", 0)]


def test_split_backward_negative_rejected():
    with pytest.raises(ValueError):
        split_backward([], delay_slots=-1)


def test_split_backward_zero_delay_equals_one():
    """delay_slots=0 still puts one task between Bx and Bw, like 1."""
    order = [Task("F", 0), Task("F", 1), Task("B", 0), Task("F", 2), Task("B", 1),
             Task("B", 2)]
    assert split_backward(order, 0) == split_backward(order, 1) == [
        Task("F", 0), Task("F", 1), Task("Bx", 0), Task("F", 2), Task("Bw", 0),
        Task("Bx", 1), Task("Bx", 2), Task("Bw", 1), Task("Bw", 2),
    ]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1.5, 1.0, True, "1", None])
def test_split_backward_rejects_non_integer_delay(bad):
    """NaN and inf used to push every Bw to the end of the list; 1.5 and
    True were taken as depths."""
    with pytest.raises(ValueError, match="delay_slots"):
        split_backward([Task("F", 0), Task("B", 0)], delay_slots=bad)
    with pytest.raises(ValueError, match="delay_slots"):
        schedule_job("1f1b", 2, 4, delay_bw_weight=True, delay_slots=bad)


def aging_split(order, delay_slots):
    """Reference: re-age every pending Bw after each task of ``order``."""
    out, pending = [], []
    for t in order:
        out.append(Task("Bx", t.microbatch, t.stage) if t.kind == "B" else t)
        pending = [(left - 1, bw) for left, bw in pending]
        while pending and pending[0][0] <= 0:
            out.append(pending.pop(0)[1])
        if t.kind == "B":
            pending.append((delay_slots, Task("Bw", t.microbatch, t.stage)))
    return out + [bw for _, bw in pending]


@settings(max_examples=60, deadline=None)
@given(
    schedule=st.sampled_from(["gpipe", "1f1b", "eager_1f1b"]),
    p=st.integers(1, 5),
    m=st.integers(1, 10),
    delay=st.integers(0, 12),
)
def test_split_backward_matches_aging_reference(schedule, p, m, delay):
    orders = schedule_job(schedule, p, m)
    for order in orders:
        assert split_backward(order, delay) == aging_split(order, delay)
    assert schedule_job(schedule, p, m, delay_bw_weight=True, delay_slots=delay) == [
        aging_split(order, delay) for order in orders
    ]


def test_schedule_job_builds_each_task_once():
    orders = schedule_job("1f1b", 3, 4, delay_bw_weight=True)
    for kind, mb in [("F", 0), ("Bx", 3), ("Bw", 2)]:
        first = next(t for t in orders[0] if (t.kind, t.microbatch) == (kind, mb))
        for order in orders[1:]:
            assert any(t is first for t in order)


@settings(max_examples=20, deadline=None)
@given(m=st.integers(1, 12), warmup=st.integers(1, 6), delay=st.integers(0, 3))
def test_property_split_preserves_multiset(m, warmup, delay):
    order = one_f_one_b_order(m, warmup)
    out = split_backward(order, delay_slots=delay)
    assert [t for t in out if t.kind == "F"] == [t for t in order if t.kind == "F"]
    assert sorted(t.microbatch for t in out if t.kind == "Bx") == list(range(m))
    assert sorted(t.microbatch for t in out if t.kind == "Bw") == list(range(m))
    # Bx before its Bw; Bw within delay slots of its Bx
    for mb in range(m):
        assert out.index(Task("Bx", mb)) < out.index(Task("Bw", mb))


# ----------------------------------------------------------------------
# schedule_job
# ----------------------------------------------------------------------
def test_schedule_job_shapes():
    orders = schedule_job("1f1b", n_stages=3, n_microbatches=5)
    assert len(orders) == 3
    assert all(len(o) == 10 for o in orders)


def test_split_backward_default_delay_is_one_slot():
    order = one_f_one_b_order(4, 2)
    assert split_backward(order) == split_backward(order, delay_slots=1)
    assert split_backward(order) != split_backward(order, delay_slots=2)


def test_schedule_job_delay_slots_bounds():
    one = schedule_job("1f1b", 2, 4, delay_bw_weight=True, delay_slots=1)
    assert schedule_job("1f1b", 2, 4, delay_bw_weight=True, delay_slots=0) == one
    with pytest.raises(ValueError, match="delay_slots"):
        schedule_job("1f1b", 2, 4, delay_bw_weight=True, delay_slots=-1)


def test_schedule_job_with_delay():
    orders = schedule_job("eager_1f1b", 2, 4, delay_bw_weight=True)
    kinds = {t.kind for o in orders for t in o}
    assert kinds == {"F", "Bx", "Bw"}


# ----------------------------------------------------------------------
# read_orders: every problem named, in order
# ----------------------------------------------------------------------
def _t(spec):
    """``"Bx0"`` -> ``Task("Bx", 0)``."""
    return Task(spec.rstrip("0123456789"), int(spec.lstrip("BFwx")))


@pytest.mark.parametrize(
    "order, m, problems",
    [
        ("F0 F0 F1 B0 B1", 2,
         ["forwards [0, 0, 1] != 0..1", "duplicate task F0"]),
        ("F0 F1 B0 B0 B1", 2, ["duplicate task B0"]),
        ("F0 Bx0 Bx0 Bw0", 1, ["duplicate task Bx0"]),
        ("F0 Bx0 Bw0 Bw0", 1, ["duplicate task Bw0"]),
        ("B0 F0 F1 B1", 2, ["backward of mb 0 precedes its forward"]),
        ("F1 B0 B1", 2,
         ["forwards [1] != 0..1", "backward of mb 0 precedes its forward"]),
        ("Bx0 F0 Bw0", 1, ["backward of mb 0 precedes its forward"]),
        ("F0 Bw0 Bx0", 1, ["Bw0 precedes Bx"]),
        ("F0 Bw0", 1, ["backward coverage incomplete", "Bw0 precedes Bx"]),
        ("F0 F1 Bx0 Bw0 Bx1 Bw1", 2, []),
    ],
)
def test_read_orders_names_each_problem_in_order(order, m, problems):
    reading = read_orders([[_t(x) for x in order.split()]], m)
    assert reading.problems == tuple((0, f"stage 0: {p}") for p in problems)


def test_read_orders_chains_stages_without_a_job():
    orders = [[Task("F", 0), Task("B", 0)] for _ in range(3)]
    reading = read_orders(orders, 1)
    assert reading.upstream == ((), (0,), (1,))
    assert reading.downstream == ((1,), (2,), ())
    assert reading.position[(1, "B", 0)] == (1, 1)
