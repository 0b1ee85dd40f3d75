"""The discrete-event kernel every simulator runs on.

:class:`EventLoop` is the one deterministic priority-queue engine, and
it owns the run's :class:`~repro.runtime.telemetry.TelemetryBus`, whose
clock is the loop's ``now`` — so every executor reports through one span
stream.  All simulated time is in seconds (float).  Determinism is
guaranteed by FIFO tie-breaking at equal timestamps: the heap holds one
entry per *distinct* timestamp, and each timestamp owns an
insertion-ordered batch of events, so two runs over the same inputs
produce identical schedules on every Python version.

Batching is also the performance story.  The network simulator re-arms
one completion event per rate reallocation and one timeout per flow,
then cancels most of them; with a per-event heap every cancel/re-arm
pair was two ``O(log n)`` heap operations on a queue whose majority was
dead entries.  Here a cancel is a flag flip (lazy cancellation, skipped
at pop time), scheduling into an existing timestamp is an ``O(1)`` list
append, and when dead events dominate the queue it is compacted in one
``O(n)`` sweep — the heap only ever sees distinct timestamps.

The engine stays deliberately tiny: the network model
(:mod:`repro.sim.network`), the pipeline executor, and the recovery
supervisor all drive it with plain callbacks instead of coroutines,
which keeps stack traces shallow and the hot loop cheap.  Contention
(busy devices, FIFO links) is modelled by those callers, not here.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Optional

from .telemetry import TelemetryBus

__all__ = ["Event", "EventLoop"]


@dataclass(order=True, slots=True)
class Event:
    """A scheduled callback.

    Events compare by ``(time, seq)`` — chronological order with FIFO
    tie-breaking.  ``seq`` is assigned globally per loop; within one
    timestamp batch it is also the list position.

    Slotted: the network simulator arms (and mostly cancels) one of
    these per flow timeout and per rate reallocation.
    """

    time: float
    seq: int
    fn: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    #: owning loop while the event is still queued; dropped (set to
    #: None) once the event runs, so a late cancel() cannot skew the
    #: loop's live/cancelled accounting.
    loop: Optional["EventLoop"] = field(default=None, compare=False, repr=False)

    def cancel(self) -> None:
        """Mark the event so the loop skips it when popped."""
        if not self.cancelled:
            self.cancelled = True
            if self.loop is not None:
                self.loop._note_cancel()


class _Batch:
    """All events scheduled at one exact timestamp, in insertion order.

    ``idx`` is the execution cursor: events before it already ran (or
    were skipped as cancelled).  The batch stays registered until the
    cursor passes the end, so same-timestamp events scheduled *during*
    execution append here and run in the same pass — exactly the old
    per-event heap's (time, seq) order.
    """

    __slots__ = ("time", "events", "idx")

    def __init__(self, time: float) -> None:
        self.time = time
        self.events: list[Event] = []
        self.idx = 0


#: queue-size floor below which compaction is never attempted
_COMPACT_MIN = 512


class EventLoop:
    """Deterministic discrete-event loop with its telemetry bus.

    Usage::

        loop = EventLoop()
        loop.call_at(1.5, lambda: print("hello at t=1.5"))
        loop.run()
        assert loop.now == 1.5

    ``loop.bus`` is a fresh bus whose clock reads the loop's ``now``.
    """

    def __init__(self) -> None:
        self.bus = TelemetryBus(clock=lambda: self.now)
        # min-heap of distinct timestamps; one _Batch per entry
        self._times: list[float] = []
        self._batches: dict[float, _Batch] = {}
        self._seq = 0
        self.now: float = 0.0
        self._n_processed = 0
        self._n_live = 0  # queued and not cancelled
        self._n_cancelled = 0  # queued and cancelled (lazy, not yet skipped)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_at(self, when: float, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` to run at absolute simulated time ``when``."""
        now = self.now
        # Written so NaN fails too: every comparison with NaN is False.
        if not when >= now - 1e-12:
            raise ValueError(
                f"cannot schedule event in the past (or at NaN): {when} < now={now}"
            )
        t = when if when > now else now
        ev = Event(t, self._seq, fn, False, self)
        self._seq += 1
        batch = self._batches.get(t)
        if batch is None:
            batch = self._batches[t] = _Batch(t)
            heapq.heappush(self._times, t)
        batch.events.append(ev)
        self._n_live += 1
        return ev

    def call_after(self, delay: float, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` to run ``delay`` seconds from now."""
        if not delay >= 0:
            raise ValueError(f"negative or NaN delay: {delay}")
        return self.call_at(self.now + delay, fn)

    # ------------------------------------------------------------------
    # Queue accounting
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        """A queued event flipped to cancelled (lazy cancellation)."""
        self._n_live -= 1
        self._n_cancelled += 1
        # When dead events dominate a large queue, sweep them out so the
        # batch lists (and worst-case skip scans) stay proportional to
        # live work.  Amortized O(1): each sweep halves the queue.
        if (
            self._n_cancelled > _COMPACT_MIN
            and self._n_cancelled > self._n_live
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled event; rebuild the timestamp heap."""
        times: list[float] = []
        batches: dict[float, _Batch] = {}
        for t in self._times:
            old = self._batches[t]
            events = [ev for ev in old.events[old.idx :] if not ev.cancelled]
            if events:
                fresh = _Batch(t)
                fresh.events = events
                batches[t] = fresh
                times.append(t)
        heapq.heapify(times)
        self._times = times
        self._batches = batches
        self._n_cancelled = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Run until the queue drains (or simulated time passes ``until``).

        Returns the final simulated time.  ``max_events`` is a runaway
        guard; hitting it raises ``RuntimeError``.
        """
        n = 0
        # One heap peek + one dict lookup per event.  The loop
        # attributes are re-read every iteration because a callback may
        # cancel enough events to trigger _compact(), which rebinds
        # self._times / self._batches wholesale.
        while True:
            times = self._times
            if not times:
                break
            t = times[0]
            batch = self._batches[t]
            events = batch.events
            i = batch.idx
            if i >= len(events):
                heapq.heappop(times)
                del self._batches[t]
                continue
            if until is not None and t > until:
                self.now = until
                break
            ev = events[i]
            batch.idx = i + 1
            if ev.cancelled:
                self._n_cancelled -= 1
                continue
            self.now = t
            self._n_processed += 1
            self._n_live -= 1
            ev.loop = None
            ev.fn()
            n += 1
            if n > max_events:
                raise RuntimeError(f"event budget exceeded ({max_events} events)")
        return self.now

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return self._n_live

    @property
    def processed(self) -> int:
        """Total number of events executed so far."""
        return self._n_processed

