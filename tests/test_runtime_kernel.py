"""Tests for the runtime kernel: event loop, resources, channels."""

import pytest

from repro.runtime.kernel import EventLoop, Kernel
from repro.runtime.resources import Resource, SerialChannel


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
    evs[3].cancel()
    evs[7].cancel()
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
# Kernel: bus clock + named resources
# ----------------------------------------------------------------------
def test_kernel_bus_clock_tracks_now():
    k = Kernel()
    times = []
    k.call_at(2.5, lambda: times.append(k.bus.now))
    k.run()
    assert times == [2.5]


def test_kernel_resource_get_or_create():
    k = Kernel()
    r1 = k.resource("nic:0", capacity=2)
    assert k.resource("nic:0", capacity=2) is r1
    assert isinstance(r1, Resource)
    with pytest.raises(ValueError, match="capacity"):
        k.resource("nic:0", capacity=3)
    assert set(k.resources) == {"nic:0"}


def test_kernel_channel_get_or_create():
    k = Kernel()
    c1 = k.channel("0->1:fwd")
    assert k.channel("0->1:fwd") is c1
    assert isinstance(c1, SerialChannel)
    assert set(k.channels) == {"0->1:fwd"}


# ----------------------------------------------------------------------
# Resource semantics
# ----------------------------------------------------------------------
def test_resource_try_acquire_and_release():
    k = Kernel()
    r = k.resource("dev", capacity=2)
    assert r.try_acquire() and r.try_acquire()
    assert not r.try_acquire()
    assert r.in_use == 2
    r.release()
    assert r.available == 1
    assert r.try_acquire()


def test_resource_release_without_acquire_raises():
    k = Kernel()
    r = k.resource("dev")
    with pytest.raises(RuntimeError, match="release without acquire"):
        r.release()


def test_resource_queued_waiters_grant_fifo():
    k = Kernel()
    r = k.resource("dev")
    got = []
    r.acquire(lambda: got.append("a"))  # synchronous grant
    r.acquire(lambda: got.append("b"))  # queued
    r.acquire(lambda: got.append("c"))  # queued
    assert got == ["a"]
    k.call_at(1.0, r.release)  # grants b via zero-delay event at t=1
    k.call_at(2.0, r.release)  # grants c at t=2
    k.run()
    assert got == ["a", "b", "c"]
    assert r.waiting == 0 and r.in_use == 1


def test_resource_capacity_validation():
    k = Kernel()
    with pytest.raises(ValueError, match="capacity"):
        k.resource("bad", capacity=0)


# ----------------------------------------------------------------------
# SerialChannel reservation ledger
# ----------------------------------------------------------------------
def test_serial_channel_fifo_reservations():
    k = Kernel()
    ch = k.channel("0->1:fwd")
    assert ch.reserve(0.0, 2.0) == 0.0
    assert ch.reserve(1.0, 1.0) == 2.0  # queued behind the first
    assert ch.reserve(5.0, 1.0) == 5.0  # channel idle again
    assert ch.free_at == 6.0
    assert ch.n_reservations == 3
    assert ch.busy_time == pytest.approx(4.0)


def test_serial_channel_matches_max_rule():
    """reserve() must equal the executors' max(ready, free_at) rule."""
    k = Kernel()
    ch = k.channel("x")
    free = 0.0
    for ready, dur in [(0.0, 1.5), (0.5, 0.25), (10.0, 2.0), (9.0, 1.0)]:
        expect = max(ready, free)
        assert ch.reserve(ready, dur) == expect
        free = expect + dur
    assert ch.free_at == free


def test_serial_channel_rejects_negative_duration():
    k = Kernel()
    with pytest.raises(ValueError, match="negative duration"):
        k.channel("x").reserve(0.0, -1.0)
