"""The discrete-event kernel every simulator runs on.

:class:`EventLoop` is the one deterministic priority-queue engine, and
it owns the run's :class:`~repro.runtime.telemetry.TelemetryBus`, whose
clock is the loop's ``now`` — so every executor reports through one span
stream.  All simulated time is in seconds (float).

The loop owns its bus, and the bus does not own the loop: the bus's
clock (:class:`LoopClock`) reads ``now`` through a weak reference, so a
finished simulation is freed by reference counting as soon as its
result is dropped, and a result that keeps only the bus lets the loop
go.  A freed loop leaves its clock its final instant, so the bus keeps
answering ``now`` after the loop is gone.

An event is one plain heap entry, the list ``[time, seq, fn, args]``:
``call_at(when, fn, *args)`` pushes it and returns it as the event's
handle, and the loop runs it as ``fn(*args)``, so a caller passes its
arguments instead of building a closure or ``partial`` per event.
``seq`` is a per-loop counter: events run in ``(time, insertion
order)``, so two runs over the same inputs produce identical schedules
on every Python version, and ``seq`` is unique, so the heap never
compares past it.  :meth:`EventLoop.cancel` blanks the entry's ``fn``
(lazy cancellation: a blank entry is skipped at pop time); the loop
blanks every entry it pops before running it, so cancelling an event
that already ran, or cancelling twice, is a no-op.  When blank entries
dominate a large queue they are compacted out in one ``O(n)`` sweep.
This plain heap was measured faster than batching events per distinct
timestamp on every benchmark workload that dispatches events.

The loop keeps no per-event counters: ``pending`` and ``processed`` are
derived from the heap's length, the ``seq`` counter and the number of
blank entries removed, so they stay exact even when a callback raises.

The engine stays deliberately tiny: the network model
(:mod:`repro.sim.network`) and the pipeline executor both drive it
with plain callbacks instead of coroutines,
which keeps stack traces shallow and the hot loop cheap.  Contention
(busy devices, FIFO links) is modelled by those callers, not here.
"""

from __future__ import annotations

import math
import weakref
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

from .telemetry import TelemetryBus

__all__ = ["EventLoop", "LoopClock"]


#: queue-size floor below which compaction is never attempted
_COMPACT_MIN = 512


class LoopClock:
    """A loop's ``now``, read without keeping the loop alive.

    The bus's clock: it holds the loop through a weak reference, and a
    loop's finalizer stores its last ``now`` in :attr:`final`, which the
    clock answers once the loop is gone.
    """

    __slots__ = ("_loop", "final")

    def __init__(self, loop: "EventLoop") -> None:
        self._loop = weakref.ref(loop)
        self.final = 0.0

    def __call__(self) -> float:
        loop = self._loop()
        return self.final if loop is None else loop.now


class EventLoop:
    """Deterministic discrete-event loop with its telemetry bus.

    Usage::

        loop = EventLoop()
        loop.call_at(1.5, print, "hello at t=1.5")
        loop.run()
        assert loop.now == 1.5

    ``loop.bus`` is a fresh bus whose clock reads the loop's ``now``
    through a :class:`LoopClock`: the loop owns the bus, never the other
    way round, and the bus outlives the loop, reading its final instant.
    """

    def __init__(self) -> None:
        self._clock = LoopClock(self)
        self.bus = TelemetryBus(clock=self._clock)
        #: min-heap of [time, seq, fn, args] entries; fn is None once
        #: the entry is cancelled or popped.  Compaction edits it in place.
        self._heap: list[list[Any]] = []
        self._seq = 0
        self.now: float = 0.0
        self._n_cancels = 0  # cancel() calls that blanked a queued entry
        self._n_dropped = 0  # of those, entries since popped or compacted out

    def __del__(self) -> None:
        # The bus may outlive the loop: leave its clock the final instant.
        self._clock.final = self.now

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_at(self, when: float, fn: Callable[..., None], *args: Any) -> list[Any]:
        """Schedule ``fn(*args)`` at absolute simulated time ``when``.

        Returns the event's heap entry, the handle :meth:`cancel` takes.
        """
        now = self.now
        # Written so NaN fails too: every comparison with NaN is False.
        if not when >= now - 1e-12:
            raise ValueError(
                f"cannot schedule event in the past (or at NaN): {when} < now={now}"
            )
        seq = self._seq
        self._seq = seq + 1
        entry: list[Any] = [when if when > now else now, seq, fn, args]
        heappush(self._heap, entry)
        return entry

    def call_after(self, delay: float, fn: Callable[..., None], *args: Any) -> list[Any]:
        """Schedule ``fn(*args)`` ``delay`` seconds from now."""
        if not delay >= 0:
            raise ValueError(f"negative or NaN delay: {delay}")
        return self.call_at(self.now + delay, fn, *args)

    def cancel(self, entry: list[Any]) -> None:
        """Cancel a queued event: blank its entry so the loop skips it.

        A no-op on an entry that already ran or was already cancelled.
        """
        if entry[2] is None:
            return
        entry[2] = None
        self._n_cancels += 1
        # When dead events dominate a large queue, sweep them out so the
        # heap stays proportional to live work.  Amortized O(1): each
        # sweep halves the queue.
        dead = self._n_cancels - self._n_dropped
        if dead > _COMPACT_MIN and dead > len(self._heap) - dead:
            self._compact()

    def _compact(self) -> None:
        """Drop every blank entry and re-heapify the survivors."""
        heap = self._heap
        n = len(heap)
        heap[:] = [entry for entry in heap if entry[2] is not None]
        heapify(heap)
        self._n_dropped += n - len(heap)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Run until the queue drains (or simulated time passes ``until``).

        Returns the final simulated time; when the next event lies past
        ``until``, the clock stops at ``until``.  ``until`` may not lie
        before ``now`` (nor be NaN).  ``max_events`` is a runaway guard:
        at most that many callbacks run, and a further due event raises
        ``RuntimeError`` (it stays queued).
        """
        if until is None:
            until = math.inf
        elif not until >= self.now:
            raise ValueError(f"run(until={until}) lies before now={self.now} (or is NaN)")
        heap = self._heap
        n = 0
        while heap:
            entry = heappop(heap)
            fn = entry[2]
            if fn is None:
                self._n_dropped += 1
                continue
            t = entry[0]
            if t > until or n >= max_events:
                heappush(heap, entry)  # same (time, seq): order unchanged
                if t > until:
                    self.now = until
                    break
                raise RuntimeError(f"event budget exceeded ({max_events} events)")
            n += 1
            self.now = t
            entry[2] = None
            fn(*entry[3])
        return self.now

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return len(self._heap) - (self._n_cancels - self._n_dropped)

    @property
    def processed(self) -> int:
        """Total number of events popped to run so far (a callback that
        raised included)."""
        return self._seq - len(self._heap) - self._n_dropped
