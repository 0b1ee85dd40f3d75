"""A virtual-time asyncio event loop for deterministic async services.

The resharding service is ordinary asyncio code, but the repo's
determinism contract (byte-identical telemetry for identical inputs,
repro-lint rule L001) rules out the wall clock.  ``loop.time()`` on a
:class:`VirtualTimeLoop` reads a **virtual clock** that moves only when
every runnable task has yielded, straight to the next timer: ``await
asyncio.sleep(0.25)`` costs no wall time, and two runs of one seeded
workload execute the same interleaving.

The mechanism: asyncio's tasks, futures and awaitables run on a lean
scheduler in the kernel's idiom (:mod:`repro.runtime.kernel`).  A
callback is one plain entry ``[when, seq, fn, args, context]``; timers
sit in a ``(when, seq)`` heap, so ties run in insertion order, and
``cancel()`` blanks ``fn``.  Each iteration keeps asyncio's float
semantics: only when nothing is ready does the clock move, by
``min(next timer - clock, 86400)`` *added* to it; timers due before
``clock + 1e-9`` (a constant, not the host clock's resolution) then
join the ready queue, and exactly the callbacks ready then run.  No
selector, no syscall.  With nothing ready and no timer queued, the loop
raises :class:`VirtualTimeStall` instead of hanging.
"""

from __future__ import annotations

import asyncio
from asyncio.base_events import BaseEventLoop
from collections import deque
from contextvars import Context, copy_context
from heapq import heappop, heappush
from typing import Any, Callable, Coroutine, Optional, TypeVar

__all__ = ["VirtualTimeLoop", "VirtualTimeStall", "run_virtual"]

T = TypeVar("T")
_Fn = Callable[..., object]
_Ctx = Optional[Context]


class VirtualTimeStall(RuntimeError):
    """The virtual loop has no ready callbacks and no timers to run."""


class _Entry(list[Any]):
    """A callback ``[when, seq, fn, args, context]``; ``cancel()`` blanks ``fn``."""

    __slots__ = ()

    def cancel(self) -> None:
        self[2] = None


class VirtualTimeLoop(BaseEventLoop):
    """An asyncio event loop whose clock is simulated, not measured: it
    starts at 0.0, and a task sleeping 0.25s wakes at *precisely*
    ``t + 0.25``, so telemetry stamped off ``loop.time()`` replays."""

    _ready: deque[_Entry]
    _scheduled: list[_Entry]
    _stopping: bool
    _closed: bool

    def __init__(self) -> None:
        super().__init__()
        self._clock = 0.0
        self._seq = 0

    def time(self) -> float:
        return self._clock

    def call_soon(self, callback: _Fn, *args: Any, context: _Ctx = None) -> _Entry:  # type: ignore[override]
        if self._closed:
            raise RuntimeError("Event loop is closed")
        entry = _Entry((self._clock, -1, callback, args, copy_context() if context is None else context))
        self._ready.append(entry)
        return entry

    def call_later(self, delay: float, callback: _Fn, *args: Any, context: _Ctx = None) -> _Entry:  # type: ignore[override]
        return self.call_at(self._clock + delay, callback, *args, context=context)

    def call_at(self, when: float, callback: _Fn, *args: Any, context: _Ctx = None) -> _Entry:  # type: ignore[override]
        if self._closed:
            raise RuntimeError("Event loop is closed")
        seq = self._seq
        self._seq = seq + 1
        entry = _Entry((when, seq, callback, args, copy_context() if context is None else context))
        heappush(self._scheduled, entry)
        return entry

    def _run_once(self) -> None:
        ready, timers = self._ready, self._scheduled
        while timers and timers[0][2] is None:
            heappop(timers)
        if not (ready or self._stopping):
            if not timers:
                raise VirtualTimeStall("virtual-time loop stalled: every task waits on "
                                       "an event no timer or callback will deliver")
            gap = timers[0][0] - self._clock
            if gap > 0:
                self._clock += min(gap, 86400.0)
        end = self._clock + 1e-9
        while timers and not timers[0][0] >= end:  # NaN joins, as in asyncio
            ready.append(heappop(timers))
        popleft = ready.popleft
        for _ in range(len(ready)):
            entry = popleft()
            fn = entry[2]
            if fn is None:
                continue
            try:
                entry[4].run(fn, *entry[3])
            except (SystemExit, KeyboardInterrupt):
                raise
            except BaseException as exc:  # as asyncio's Handle._run does
                self.call_exception_handler({"message": f"Exception in callback {fn!r}",
                                             "exception": exc, "handle": entry})


def run_virtual(main: Coroutine[Any, Any, T]) -> T:
    """Run ``main`` to completion on a fresh :class:`VirtualTimeLoop`."""
    loop = VirtualTimeLoop()
    try:
        asyncio.set_event_loop(loop)
        return loop.run_until_complete(main)
    finally:
        try:
            pending = [t for t in asyncio.all_tasks(loop) if not t.done()]
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(asyncio.gather(*pending, return_exceptions=True))
            loop.run_until_complete(loop.shutdown_asyncgens())
        finally:
            asyncio.set_event_loop(None)
            loop.close()
