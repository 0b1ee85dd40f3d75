"""Unit tests for the discrete-event engine."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    loop.cancel(ev)
    loop.run()
    assert seen == ["kept"]


def test_cannot_schedule_in_past():
    loop = EventLoop()
    loop.call_at(5.0, lambda: None)
    loop.run()
    with pytest.raises(ValueError, match="past"):
        loop.call_at(1.0, lambda: None)


def test_time_within_tolerance_before_now_runs_at_now():
    """A time up to 1e-12 before now is float residue, not the past: it
    is clamped to now, and anything earlier is rejected."""
    loop = EventLoop()
    loop.call_at(1.0, lambda: None)
    loop.run()
    seen = []
    loop.call_at(1.0 - 1e-12, lambda: seen.append(loop.now))
    with pytest.raises(ValueError, match="past"):
        loop.call_at(1.0 - 2e-12, lambda: None)
    loop.run()
    assert seen == [1.0]


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


def test_run_until_cannot_turn_the_clock_back():
    """An until below now used to set now back to it: an event at 3
    queued behind it then ran at simulated time 3 after time 5."""
    loop = EventLoop()
    loop.call_at(5.0, lambda: None)
    loop.call_at(6.0, lambda: None)
    loop.run(until=5.0)
    assert loop.now == 5.0
    with pytest.raises(ValueError, match="before now"):
        loop.run(until=2.0)
    assert loop.now == 5.0 and loop.pending == 1


def test_run_until_nan_rejected():
    """A NaN until compares False with every time, so it was silently
    ignored and the loop ran to completion."""
    loop = EventLoop()
    seen = []
    loop.call_at(1.0, lambda: seen.append(1))
    with pytest.raises(ValueError, match="NaN"):
        loop.run(until=float("nan"))
    assert seen == [] and loop.pending == 1


def test_run_until_now_runs_due_events():
    loop = EventLoop()
    seen = []
    loop.call_at(0.0, lambda: seen.append(0))
    loop.call_at(1.0, lambda: seen.append(1))
    loop.run(until=0.0)
    assert seen == [0] and loop.now == 0.0


def test_event_budget_runs_at_most_max_events():
    """run(max_events=3) used to run a fourth callback before raising."""
    loop = EventLoop()
    seen = []
    for i in range(5):
        loop.call_at(float(i), lambda i=i: seen.append(i))
    with pytest.raises(RuntimeError, match=r"budget exceeded \(3 events\)"):
        loop.run(max_events=3)
    assert seen == [0, 1, 2]
    assert loop.processed == 3 and loop.pending == 2 and loop.now == 2.0
    loop.run()  # the event the budget stopped is still queued
    assert seen == [0, 1, 2, 3, 4]


def test_event_budget_applies_to_events_due_at_until():
    """An event due at until is run, so a spent budget raises there
    instead of stopping the clock as if the event lay past until."""
    loop = EventLoop()
    for t in (1.0, 2.0, 3.0):
        loop.call_at(t, lambda: None)
    with pytest.raises(RuntimeError, match="budget"):
        loop.run(until=2.0, max_events=1)
    assert loop.now == 1.0 and loop.processed == 1


def test_event_budget_allows_exactly_max_events():
    loop = EventLoop()
    for i in range(3):
        loop.call_at(float(i), lambda: None)
    assert loop.run(max_events=3) == 2.0
    assert loop.processed == 3


def test_counts_stay_exact_when_a_callback_raises():
    """The raising event counts as processed (it was popped and run);
    what is still queued stays pending, cancelled events excluded."""
    loop = EventLoop()

    def boom():
        raise KeyError("boom")

    loop.call_at(1.0, lambda: None)
    loop.call_at(2.0, boom)
    loop.call_at(3.0, lambda: None)
    dead = loop.call_at(4.0, lambda: None)
    loop.cancel(dead)
    with pytest.raises(KeyError):
        loop.run()
    assert loop.processed == 2
    assert loop.pending == 1
    assert loop.now == 2.0
    loop.run()
    assert loop.processed == 3 and loop.pending == 0


def test_callback_receives_positional_args():
    loop = EventLoop()
    seen = []
    loop.call_at(1.0, seen.append, "at")
    loop.call_after(2.0, lambda *a: seen.append(a), 1, "two")
    loop.run()
    assert seen == ["at", (1, "two")]


def test_cancel_after_run_and_double_cancel_are_noops():
    loop = EventLoop()
    ran = loop.call_at(1.0, lambda: None)
    kept = loop.call_at(2.0, lambda: None)
    loop.run(until=1.5)
    loop.cancel(ran)  # already ran
    assert loop.pending == 1
    loop.cancel(kept)
    loop.cancel(kept)
    assert loop.pending == 0
    loop.run()
    assert loop.processed == 1 and loop.now == 1.5


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


# ----------------------------------------------------------------------
# Execution order against an independent reference model
# ----------------------------------------------------------------------
class KernelAdapter:
    """Drives the real kernel; events are named by the program's ids,
    which each callback receives as its positional argument."""

    def __init__(self):
        self.loop = EventLoop()
        self.handles = []

    @property
    def now(self):
        return self.loop.now

    def call_at(self, when, fn, *args):
        self.handles.append(self.loop.call_at(when, fn, *args))

    def call_after(self, delay, fn, *args):
        self.handles.append(self.loop.call_after(delay, fn, *args))

    def cancel(self, i):
        self.loop.cancel(self.handles[i])

    def run(self, until=None):
        self.loop.run(until=until)

    def counts(self):
        return self.loop.processed, self.loop.pending


class ReferenceQueue:
    """The specification: the live event with the least (time, seq) runs
    next; cancelling a queued event removes it, any other cancel is a
    no-op.  A plain dict scanned with min() — no heap, no kernel."""

    def __init__(self):
        self.now = 0.0
        self.live = {}  # seq -> (time, fn, args)
        self.n = 0
        self.processed = 0

    def call_at(self, when, fn, *args):
        self.live[self.n] = (max(when, self.now), fn, args)
        self.n += 1

    def call_after(self, delay, fn, *args):
        self.call_at(self.now + delay, fn, *args)

    def cancel(self, i):
        self.live.pop(i, None)

    def run(self, until=None):
        while self.live:
            i = min(self.live, key=lambda k: (self.live[k][0], k))
            t, fn, args = self.live[i]
            if until is not None and t > until:
                self.now = until
                return
            del self.live[i]
            self.now = t
            self.processed += 1
            fn(*args)

    def counts(self):
        return self.processed, len(self.live)


TIMES = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)


class Program:
    """A random program of schedules, cancels and resumptions.

    Every choice is drawn from one seeded RNG in execution order, so two
    queues that run the callbacks in the same order see the same program;
    one ordering difference makes the logs diverge.
    """

    def __init__(self, queue, seed, burst_at):
        self.q = queue
        self.rng = random.Random(seed)
        self.burst_at = burst_at
        self.n = 0
        self.log = []

    def fire(self, i):
        self.log.append((i, self.q.now))
        rng = self.rng
        if len(self.log) == self.burst_at:
            # Mass cancel from inside a callback: compaction mid-run.
            first = self.n
            for _ in range(700):
                self.after(rng.choice((0.0, 0.0, 0.5, 1.0)))
            for j in rng.sample(range(first, self.n), 650):
                self.q.cancel(j)
        if self.n < 3000:
            for _ in range(rng.choice((0, 0, 1, 2))):
                self.after(rng.choice((0.0, 0.0, 0.5, 1.0)))
        for _ in range(rng.choice((0, 1, 2))):
            self.q.cancel(rng.randrange(self.n))  # maybe ran or cancelled

    def at(self, when):
        self.q.call_at(when, self.fire, self.n)
        self.n += 1

    def after(self, delay):
        self.q.call_after(delay, self.fire, self.n)
        self.n += 1

    def execute(self, n_initial, n_times, untils):
        rng = self.rng
        times = rng.sample(TIMES, n_times)
        for _ in range(n_initial):
            self.at(rng.choice(times))
        for j in rng.sample(range(self.n), n_initial - 80):
            self.q.cancel(j)
        for j in rng.choices(range(self.n), k=40):
            self.q.cancel(j)  # double cancels
        trace = []
        for until in sorted(untils):
            self.q.run(until)
            trace.append(self.q.counts())
            for _ in range(rng.randrange(20)):
                self.at(until + rng.choice(TIMES))
            for _ in range(rng.randrange(5)):
                self.q.cancel(rng.randrange(self.n))
        self.q.run()
        trace.append(self.q.counts())
        return self.log, trace


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_initial=st.integers(700, 900),
    n_times=st.integers(1, len(TIMES)),
    untils=st.lists(st.sampled_from(TIMES), max_size=4),
    burst_at=st.integers(1, 150),
)
def test_kernel_order_matches_reference(seed, n_initial, n_times, untils, burst_at):
    kernel = Program(KernelAdapter(), seed, burst_at)
    reference = Program(ReferenceQueue(), seed, burst_at)
    got = kernel.execute(n_initial, n_times, untils)
    want = reference.execute(n_initial, n_times, untils)
    assert got == want
