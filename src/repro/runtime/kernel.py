"""The discrete-event kernel every simulator runs on.

:class:`EventLoop` is the one deterministic priority-queue engine, and
it owns the run's :class:`~repro.runtime.telemetry.TelemetryBus`, whose
clock is the loop's ``now`` — so every executor reports through one span
stream.  All simulated time is in seconds (float).

The queue is one heap of ``(time, seq, event)`` tuples, ``seq`` a
per-loop counter: events run in ``(time, insertion order)``, so two runs
over the same inputs produce identical schedules on every Python
version, and ``seq`` is unique, so the heap never compares events.  A
cancel is a flag flip (lazy cancellation, skipped at pop time); when
dead events dominate a large queue it is compacted in one ``O(n)``
sweep.  This plain heap was measured faster than batching events per
distinct timestamp on every benchmark workload that dispatches events.

The engine stays deliberately tiny: the network model
(:mod:`repro.sim.network`), the pipeline executor, and the recovery
supervisor all drive it with plain callbacks instead of coroutines,
which keeps stack traces shallow and the hot loop cheap.  Contention
(busy devices, FIFO links) is modelled by those callers, not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Callable, Optional

from .telemetry import TelemetryBus

__all__ = ["Event", "EventLoop"]


@dataclass(slots=True)
class Event:
    """A scheduled callback: the handle :meth:`EventLoop.call_at` returns.

    Slotted: the network simulator arms (and mostly cancels) one of
    these per flow timeout and per rate reallocation.
    """

    time: float
    fn: Callable[[], None]
    cancelled: bool = False
    #: owning loop while the event is still queued; dropped (set to
    #: None) once the event runs, so a late cancel() cannot skew the
    #: loop's live/cancelled accounting.
    loop: Optional["EventLoop"] = field(default=None, repr=False)

    def cancel(self) -> None:
        """Mark the event so the loop skips it when popped."""
        if not self.cancelled:
            self.cancelled = True
            if self.loop is not None:
                self.loop._note_cancel()


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
        #: min-heap of (time, seq, event); compaction edits it in place
        self._heap: list[tuple[float, int, Event]] = []
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
        ev = Event(t, fn, False, self)
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (t, seq, ev))
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
        # heap stays proportional to live work.  Amortized O(1): each
        # sweep halves the queue.
        if (
            self._n_cancelled > _COMPACT_MIN
            and self._n_cancelled > self._n_live
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled event and re-heapify the survivors."""
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapify(heap)
        self._n_cancelled = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Run until the queue drains (or simulated time passes ``until``).

        Returns the final simulated time.  ``max_events`` is a runaway
        guard; hitting it raises ``RuntimeError``.
        """
        heap = self._heap
        n = 0
        while heap:
            if until is not None and heap[0][0] > until:
                self.now = until
                break
            t, _, ev = heappop(heap)
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
