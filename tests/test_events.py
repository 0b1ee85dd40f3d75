"""Unit tests for the discrete-event engine."""

import pytest

from repro.runtime.kernel import EventLoop


def test_initial_state():
    loop = EventLoop()
    assert loop.now == 0.0
    assert loop.pending == 0
    assert loop.processed == 0


def test_call_at_advances_time():
    loop = EventLoop()
    seen = []
    loop.call_at(1.5, lambda: seen.append(loop.now))
    assert loop.run() == 1.5
    assert seen == [1.5]


def test_call_after_relative():
    loop = EventLoop()
    order = []
    loop.call_after(2.0, lambda: order.append("b"))
    loop.call_after(1.0, lambda: order.append("a"))
    loop.run()
    assert order == ["a", "b"]
    assert loop.now == 2.0


def test_fifo_tie_breaking():
    loop = EventLoop()
    order = []
    for i in range(5):
        loop.call_at(1.0, lambda i=i: order.append(i))
    loop.run()
    assert order == [0, 1, 2, 3, 4]


def test_nested_scheduling_from_callback():
    loop = EventLoop()
    seen = []

    def outer():
        seen.append(("outer", loop.now))
        loop.call_after(1.0, lambda: seen.append(("inner", loop.now)))

    loop.call_at(1.0, outer)
    loop.run()
    assert seen == [("outer", 1.0), ("inner", 2.0)]


def test_zero_delay_callback_runs_at_same_time():
    loop = EventLoop()
    seen = []
    loop.call_at(3.0, lambda: loop.call_after(0.0, lambda: seen.append(loop.now)))
    loop.run()
    assert seen == [3.0]


def test_cancel_skips_event():
    loop = EventLoop()
    seen = []
    ev = loop.call_at(1.0, lambda: seen.append("cancelled"))
    loop.call_at(2.0, lambda: seen.append("kept"))
    ev.cancel()
    loop.run()
    assert seen == ["kept"]


def test_cannot_schedule_in_past():
    loop = EventLoop()
    loop.call_at(5.0, lambda: None)
    loop.run()
    with pytest.raises(ValueError, match="past"):
        loop.call_at(1.0, lambda: None)


def test_negative_delay_rejected():
    loop = EventLoop()
    with pytest.raises(ValueError, match="negative"):
        loop.call_after(-1.0, lambda: None)


def test_nan_times_rejected():
    """NaN compares False both ways, so a naive `< now` guard let
    call_after(nan) run its callback at t=0."""
    loop = EventLoop()
    with pytest.raises(ValueError):
        loop.call_after(float("nan"), lambda: None)
    with pytest.raises(ValueError):
        loop.call_at(float("nan"), lambda: None)
    assert loop.pending == 0


def test_run_until_stops_before_later_events():
    loop = EventLoop()
    seen = []
    loop.call_at(1.0, lambda: seen.append(1))
    loop.call_at(10.0, lambda: seen.append(10))
    loop.run(until=5.0)
    assert seen == [1]
    assert loop.now == 5.0
    loop.run()
    assert seen == [1, 10]


def test_event_budget_guard():
    loop = EventLoop()

    def rearm():
        loop.call_after(1.0, rearm)

    loop.call_after(1.0, rearm)
    with pytest.raises(RuntimeError, match="budget"):
        loop.run(max_events=100)


def test_processed_counter():
    loop = EventLoop()
    for i in range(7):
        loop.call_at(float(i), lambda: None)
    loop.run()
    assert loop.processed == 7
