"""The service's virtual-time loop against a selector-based oracle.

:class:`OracleLoop` is asyncio's own selector loop with the virtual
selector the service used to run on: ``select(timeout)`` never blocks,
it adds ``timeout`` to the virtual clock instead.  Two settings make it
the reference for :class:`VirtualTimeLoop`: timers that tie run in
insertion order (asyncio's heap compares ``when`` only), and the
batching width is pinned to 1 ns (asyncio reads it from the host's
monotonic clock).  Random programs of sleeps, timers, cancels, tasks,
futures, a ``Condition`` and ``gather`` must leave the same
``(label, loop.time())`` trace on both loops, float for float.
"""

from __future__ import annotations

import asyncio
import collections
import heapq
import itertools
import selectors
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import ReshardingService, VirtualTimeLoop, VirtualTimeStall

EXAMPLES = 150


# ----------------------------------------------------------------------
# The oracle: asyncio's selector loop over a virtual clock
# ----------------------------------------------------------------------
class _VirtualSelector(selectors.SelectSelector):
    """Polls instead of blocking; a wait advances the virtual clock."""

    def __init__(self, loop: "OracleLoop") -> None:
        super().__init__()
        self._loop = loop

    def select(self, timeout=None):
        ready = super().select(0)
        if ready:
            return ready
        if timeout is None:
            raise VirtualTimeStall("oracle stalled")
        if timeout > 0:
            self._loop._vtime += timeout
        return []


class _FifoTimer(asyncio.TimerHandle):
    """A timer ordered by ``(when, insertion order)``."""

    __slots__ = ("_seq",)

    def __lt__(self, other):
        return (self._when, self._seq) < (other._when, other._seq)


class OracleLoop(asyncio.SelectorEventLoop):
    def __init__(self) -> None:
        self._vtime = 0.0
        self._seqs = itertools.count()
        super().__init__(selector=_VirtualSelector(self))
        self._clock_resolution = 1e-9

    def time(self):
        return self._vtime

    def call_at(self, when, callback, *args, context=None):
        self._check_closed()
        timer = _FifoTimer(when, callback, args, self, context)
        timer._seq = next(self._seqs)
        heapq.heappush(self._scheduled, timer)
        timer._scheduled = True
        return timer


# ----------------------------------------------------------------------
# Random programs
# ----------------------------------------------------------------------
#: dyadic, non-dyadic, zero and sub-nanosecond delays; draws repeat, so
#: timers tie
DELAYS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 0.1, 0.2, 0.7, 0.9, 1 / 3, 5e-10, 2e-9])
#: absolute instants for ``call_at``: from many clocks the delays reach,
#: the gap to one of these does not add back up to it (0.2 + (0.9 - 0.2)
#: is 0.8999999999999999), which tells adding the gap from jumping to
#: the timer
INSTANTS = st.sampled_from([0.9, 1.7, 3.4, 3.6, 3.9])

STEP = st.one_of(
    st.tuples(st.just("sleep"), DELAYS),
    st.tuples(st.just("later"), DELAYS, st.none() | DELAYS),
    st.tuples(st.just("future"), DELAYS),
    st.tuples(st.just("at"), INSTANTS),
    st.tuples(st.just("spawn"), DELAYS),
    st.tuples(st.just("notify")),
    st.tuples(st.just("wait"), st.sampled_from([None, 0.1, 0.25, 0.9, 1 / 3])),
    st.tuples(st.just("gather"), st.lists(DELAYS, min_size=1, max_size=3)),
)
PROGRAMS = st.lists(st.lists(STEP, min_size=1, max_size=6), min_size=1, max_size=4)


def run_program(loop_cls, program) -> list[tuple[Any, ...]]:
    """Run ``program`` (one step list per task) on a fresh ``loop_cls``;
    return each step's ``(label, loop.time())``."""
    loop = loop_cls()
    trace: list[tuple[Any, ...]] = []
    spawned: list[asyncio.Task[None]] = []

    def record(label: str) -> None:
        trace.append((label, loop.time()))

    loop.set_exception_handler(lambda _loop, context: record(repr(context.get("exception"))))

    async def nap(label: str, delay: float) -> None:
        await asyncio.sleep(delay)
        record(label)

    async def actor(tid: int, steps, cond: asyncio.Condition) -> None:
        for i, (kind, *arg) in enumerate(steps):
            label = f"{tid}.{i}.{kind}"
            if kind == "sleep":
                await asyncio.sleep(arg[0])
            elif kind == "later":
                handle = loop.call_later(arg[0], record, label + ".fired")
                if arg[1] is not None:
                    await asyncio.sleep(arg[1])
                    handle.cancel()
            elif kind in ("future", "at"):
                fut = loop.create_future()
                if kind == "at":
                    loop.call_at(arg[0], fut.set_result, None)
                else:
                    loop.call_later(arg[0], fut.set_result, None)
                await fut
            elif kind == "spawn":
                spawned.append(loop.create_task(nap(label + ".child", arg[0])))
            elif kind == "notify":
                async with cond:
                    cond.notify_all()
            elif kind == "wait":
                try:
                    await asyncio.wait_for(wait(cond), arg[0])
                except asyncio.TimeoutError:
                    label += ".timeout"
            else:
                await asyncio.gather(*(nap(f"{label}.{j}", d) for j, d in enumerate(arg[0])))
            record(label)

    async def wait(cond: asyncio.Condition) -> None:
        async with cond:
            await cond.wait()

    async def main() -> None:
        cond = asyncio.Condition()
        actors = [loop.create_task(actor(t, steps, cond)) for t, steps in enumerate(program)]
        await asyncio.gather(*actors)
        await asyncio.gather(*spawned)

    try:
        loop.run_until_complete(main())
    except VirtualTimeStall:
        record("stall")
    finally:
        pending = [t for t in asyncio.all_tasks(loop) if not t.done()]
        for task in pending:
            task.cancel()
        if pending:
            loop.run_until_complete(asyncio.gather(*pending, return_exceptions=True))
        loop.close()
    return trace


def assert_same_trace(program) -> None:
    assert run_program(VirtualTimeLoop, program) == run_program(OracleLoop, program)


@settings(max_examples=EXAMPLES, deadline=None)
@given(PROGRAMS)
def test_traces_match_the_selector_oracle(program) -> None:
    assert_same_trace(program)


@pytest.mark.chaos
@settings(max_examples=20 * EXAMPLES, deadline=None)
@given(PROGRAMS)
def test_traces_match_the_selector_oracle_sweep(program) -> None:
    assert_same_trace(program)


def test_a_program_of_every_step_kind_matches() -> None:
    program = [
        [("sleep", 0.1), ("later", 0.3, 0.25), ("wait", None), ("gather", [0.1, 0.25, 0.1])],
        [("spawn", 1 / 3), ("future", 0.1), ("sleep", 0.0), ("notify",), ("wait", 0.5)],
        [("later", 0.25, None), ("sleep", 5e-10), ("future", 0.0), ("sleep", 0.7), ("at", 1.7)],
    ]
    trace = run_program(VirtualTimeLoop, program)
    assert trace == run_program(OracleLoop, program)
    assert ("1.3.notify", 0.1) in trace and ("1.4.wait.timeout", 0.6) in trace
    assert ("2.0.later.fired", 0.25) in trace and not any("0.1.later.fired" in r for r in trace)


# ----------------------------------------------------------------------
# The asyncio internals the loop relies on
# ----------------------------------------------------------------------
@pytest.mark.parametrize("loop_cls", [OracleLoop, VirtualTimeLoop])
def test_base_event_loop_fields_hold_what_the_loop_expects(loop_cls) -> None:
    loop = loop_cls()
    try:
        assert isinstance(loop._ready, collections.deque) and not loop._ready
        assert loop._scheduled == [] and loop._stopping is False
        soon = loop.call_soon(int)
        timer = loop.call_later(1.0, int)
        assert list(loop._ready) == [soon] and loop._scheduled == [timer]
        loop.stop()
        assert loop._stopping is True
        loop.run_forever()  # one iteration, then stop() takes effect
        assert loop._stopping is False and not loop._ready
        assert loop._scheduled == [timer] and loop.time() == 0.0
    finally:
        loop.close()
    assert not loop._ready and not loop._scheduled


def test_the_loop_has_no_selector() -> None:
    loop = VirtualTimeLoop()
    try:
        assert not hasattr(loop, "_selector") and not hasattr(loop, "_ssock")
    finally:
        loop.close()


# ----------------------------------------------------------------------
# Direct pins
# ----------------------------------------------------------------------
def _run(loop: VirtualTimeLoop, until: float = 10.0) -> None:
    try:
        loop.run_until_complete(asyncio.sleep(until))
    finally:
        loop.close()


def test_timer_ties_run_in_insertion_order() -> None:
    loop = VirtualTimeLoop()
    order: list[int] = []
    for i in range(16):
        loop.call_at(1.0, order.append, i)
    _run(loop)
    assert order == list(range(16))


def test_a_timer_half_a_nanosecond_late_joins_the_batch() -> None:
    loop = VirtualTimeLoop()
    seen: list[tuple[str, float]] = []

    def first() -> None:
        seen.append(("first", loop.time()))
        loop.call_soon(lambda: seen.append(("soon", loop.time())))

    loop.call_at(1.0, first)
    loop.call_at(1.0 + 5e-10, lambda: seen.append(("half_ns", loop.time())))
    loop.call_at(1.0 + 2e-9, lambda: seen.append(("two_ns", loop.time())))
    _run(loop)
    # the 0.5 ns timer runs in 1.0's batch, before the callback that
    # batch scheduled, and without moving the clock; 2 ns is a new batch
    assert seen == [("first", 1.0), ("half_ns", 1.0), ("soon", 1.0), ("two_ns", 1.0 + 2e-9)]


def test_a_timer_cancelled_after_it_became_ready_does_not_run() -> None:
    loop = VirtualTimeLoop()
    ran: list[str] = []
    handles: dict[str, Any] = {}
    loop.set_exception_handler(lambda _loop, context: ran.append(context["message"]))

    def first() -> None:
        ran.append("first")
        handles["second"].cancel()

    loop.call_at(1.0, first)
    handles["second"] = loop.call_at(1.0, ran.append, "second")
    loop.call_at(2.0, ran.append, "third")
    _run(loop)
    assert ran == ["first", "third"]


def test_a_raising_callback_reaches_the_handler_and_the_loop_carries_on() -> None:
    loop = VirtualTimeLoop()
    caught: list[dict[str, Any]] = []
    ran: list[float] = []
    loop.set_exception_handler(lambda _loop, context: caught.append(context))

    def boom() -> None:
        raise KeyError("boom")

    loop.call_soon(boom)
    loop.call_later(0.5, boom)
    loop.call_later(1.0, lambda: ran.append(loop.time()))
    _run(loop)
    assert [type(c["exception"]) for c in caught] == [KeyError, KeyError]
    assert all("Exception in callback" in c["message"] for c in caught)
    assert ran == [1.0]


def test_a_stall_raises() -> None:
    loop = VirtualTimeLoop()
    try:
        with pytest.raises(VirtualTimeStall):
            loop.run_until_complete(loop.create_future())
    finally:
        loop.close()


def test_the_clock_adds_each_gap() -> None:
    loop = VirtualTimeLoop()
    seen: list[float] = []
    loop.call_at(0.2, lambda: loop.call_at(0.9, lambda: seen.append(loop.time())))
    _run(loop)
    # 0.2 + (0.9 - 0.2) is 0.8999999999999999, not the timer's 0.9
    assert seen == [0.2 + (0.9 - 0.2)] and seen != [0.9]


def test_the_service_needs_a_running_loop() -> None:
    # a service built outside the loop it runs on used to bind silently
    # to whatever loop was current, and read that loop's clock
    other = asyncio.new_event_loop()
    asyncio.set_event_loop(other)
    try:
        with pytest.raises(RuntimeError, match="no running event loop"):
            ReshardingService()
    finally:
        asyncio.set_event_loop(None)
        other.close()
