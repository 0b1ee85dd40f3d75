"""Structured telemetry: spans, counters, gauges, marks.

The bus is the single source of truth for *what happened when* in a
simulation.  Executors emit records; result objects and visualizations
derive their timelines from the record stream instead of keeping private
lists.  Three record kinds:

* :class:`SpanRecord` — a named interval ``[start, end]`` on a *track*
  (a stage, a device, a channel, the supervisor), with a category and
  free-form attributes.  Spans may nest (``begin``/``end``), in which
  case ``depth``/``parent`` capture the enclosing span.
* :class:`CounterSample` — one sample of a named time series.
  :class:`Counter` enforces monotonicity (bytes delivered, retries);
  :class:`Gauge` may move both ways (live activations).
* :class:`MarkRecord` — an instant event (a fault strike, a decision).

The bus records into an in-memory store read through ``bus.spans`` /
``bus.counters`` / ``bus.marks``; exporters
(:mod:`repro.runtime.trace`) read the same store after a run.

Emission sits on the simulators' hot paths (one span per compute task,
comm message, and network flow), so the store is append-only raw rows:
:meth:`TelemetryBus.span` and ``Counter.add`` cost one tuple plus one
list append, and the :class:`SpanRecord`/:class:`CounterSample` views
materialize lazily (incrementally, on first access through ``spans`` /
``counters``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Optional, Union

__all__ = [
    "SpanRecord",
    "CounterSample",
    "MarkRecord",
    "SpanRow",
    "CounterRow",
    "Counter",
    "Gauge",
    "TelemetryBus",
]

AttrValue = Union[str, int, float, bool, None]

#: raw span row: (name, cat, track, start, end, depth, parent, attrs)
SpanRow = tuple[str, str, str, float, float, int, str, "dict[str, AttrValue]"]
#: raw counter row: (name, track, time, value)
CounterRow = tuple[str, str, float, float]


# The record classes are slotted with identity equality: millions are
# created on the simulators' hot paths, so construction cost dominates.
@dataclass(slots=True, eq=False)
class SpanRecord:
    """One named interval on a track."""

    name: str
    cat: str
    track: str
    start: float
    end: float
    depth: int = 0
    parent: str = ""
    attrs: Mapping[str, AttrValue] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(slots=True, eq=False)
class CounterSample:
    """One sample of a named time series (cumulative value at ``time``)."""

    name: str
    track: str
    time: float
    value: float


@dataclass(slots=True, eq=False)
class MarkRecord:
    """An instant event."""

    name: str
    track: str
    time: float
    attrs: Mapping[str, AttrValue] = field(default_factory=dict)


class Counter:
    """A monotonically non-decreasing cumulative counter."""

    __slots__ = ("_bus", "name", "track", "value")

    def __init__(self, bus: "TelemetryBus", name: str, track: str) -> None:
        self._bus = bus
        self.name = name
        self.track = track
        self.value = 0.0

    def add(self, delta: float, at: Optional[float] = None) -> float:
        """Add ``delta`` (>= 0) and emit a sample at time ``at`` (or now)."""
        if delta < 0:
            raise ValueError(
                f"counter {self.name!r} is monotonic; negative delta {delta} "
                "(use a Gauge for values that move both ways)"
            )
        self.value += delta
        bus = self._bus
        bus._counter_rows.append(
            (self.name, self.track, bus._clock() if at is None else at, self.value)
        )
        return self.value


class Gauge:
    """A cumulative series that may increase or decrease."""

    __slots__ = ("_bus", "name", "track", "value")

    def __init__(self, bus: "TelemetryBus", name: str, track: str) -> None:
        self._bus = bus
        self.name = name
        self.track = track
        self.value = 0.0

    def add(self, delta: float, at: Optional[float] = None) -> float:
        """Add ``delta`` and emit a sample at time ``at`` (or now)."""
        self.value += delta
        bus = self._bus
        bus._counter_rows.append(
            (self.name, self.track, bus._clock() if at is None else at, self.value)
        )
        return self.value


class _OpenSpan:
    """Book-keeping for a ``begin()``-opened, not-yet-closed span."""

    __slots__ = ("name", "cat", "track", "start", "depth", "parent", "attrs")

    def __init__(
        self,
        name: str,
        cat: str,
        track: str,
        start: float,
        depth: int,
        parent: str,
        attrs: dict[str, AttrValue],
    ) -> None:
        self.name = name
        self.cat = cat
        self.track = track
        self.start = start
        self.depth = depth
        self.parent = parent
        self.attrs = attrs


class TelemetryBus:
    """Span/counter/mark emitter over an append-only in-memory store.

    ``clock`` supplies the *current simulated time* (normally the owning
    kernel's ``now``); retroactive emission with explicit timestamps is
    always allowed, so executors that compute an interval's endpoints up
    front (channel reservations, recovery cost models) can record it in
    one call.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._clock: Callable[[], float] = clock if clock is not None else lambda: 0.0
        # Append-only raw rows (the store of record); the SpanRecord /
        # CounterSample views materialize incrementally on access.
        self._span_rows: list[SpanRow] = []
        self._counter_rows: list[CounterRow] = []
        self._spans_view: list[SpanRecord] = []
        self._counters_view: list[CounterSample] = []
        self._marks: list[MarkRecord] = []
        self._open: dict[str, list[_OpenSpan]] = {}
        self._series: dict[tuple[str, str, bool], Union[Counter, Gauge]] = {}

    @property
    def now(self) -> float:
        return self._clock()

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def span(
        self,
        name: str,
        cat: str,
        track: str,
        start: float,
        end: float,
        attrs: Optional[dict[str, AttrValue]] = None,
    ) -> None:
        """Hot-path span emission: one row tuple, one append.

        Executors call this once per compute task / comm message / flow,
        so it deliberately returns nothing and defers record
        construction to the ``spans`` view.
        """
        stack = self._open.get(track)
        if stack:
            row = (name, cat, track, start, end, len(stack), stack[-1].name,
                   attrs if attrs is not None else {})
        else:
            row = (name, cat, track, start, end, 0, "",
                   attrs if attrs is not None else {})
        self._span_rows.append(row)

    def begin(self, name: str, cat: str, track: str, **attrs: AttrValue) -> None:
        """Open a nested span on ``track`` starting now."""
        stack = self._open.setdefault(track, [])
        parent = stack[-1].name if stack else ""
        stack.append(_OpenSpan(name, cat, track, self.now, len(stack), parent, dict(attrs)))

    def end(self, track: str, **attrs: AttrValue) -> SpanRecord:
        """Close the innermost open span on ``track`` at the current time."""
        stack = self._open.get(track)
        if not stack:
            raise RuntimeError(f"no open span on track {track!r}")
        top = stack.pop()
        top.attrs.update(attrs)
        self._span_rows.append(
            (top.name, top.cat, top.track, top.start, self.now, top.depth,
             top.parent, top.attrs)
        )
        return self.spans[-1]

    def open_depth(self, track: str) -> int:
        """Number of currently open spans on ``track``."""
        stack = self._open.get(track)
        return len(stack) if stack else 0

    # ------------------------------------------------------------------
    # Counters / gauges / marks
    # ------------------------------------------------------------------
    def counter(self, name: str, track: str = "") -> Counter:
        """Get-or-create the monotonic counter ``name`` on ``track``."""
        found = self._series.get((name, track, True))
        if found is None:
            found = Counter(self, name, track)
            self._series[(name, track, True)] = found
        assert isinstance(found, Counter)
        return found

    def gauge(self, name: str, track: str = "") -> Gauge:
        """Get-or-create the two-way gauge ``name`` on ``track``."""
        found = self._series.get((name, track, False))
        if found is None:
            found = Gauge(self, name, track)
            self._series[(name, track, False)] = found
        assert isinstance(found, Gauge)
        return found

    def mark(self, name: str, track: str = "", **attrs: AttrValue) -> MarkRecord:
        """Record an instant event at the current time."""
        rec = MarkRecord(name, track, self.now, attrs)
        self._marks.append(rec)
        return rec

    # ------------------------------------------------------------------
    # Views (materialized incrementally from the raw rows)
    # ------------------------------------------------------------------
    @property
    def spans(self) -> list[SpanRecord]:
        view, rows = self._spans_view, self._span_rows
        if len(view) != len(rows):
            view.extend(SpanRecord(*row) for row in rows[len(view):])
        return view

    @property
    def counters(self) -> list[CounterSample]:
        view, rows = self._counters_view, self._counter_rows
        if len(view) != len(rows):
            view.extend(CounterSample(*row) for row in rows[len(view):])
        return view

    @property
    def marks(self) -> list[MarkRecord]:
        return self._marks

    @property
    def span_rows(self) -> list[SpanRow]:
        """Raw span rows ``(name, cat, track, start, end, depth, parent,
        attrs)`` — the zero-copy view for hot folding loops.  Treat as
        read-only and append-only."""
        return self._span_rows

    @property
    def counter_rows(self) -> list[CounterRow]:
        """Raw counter rows ``(name, track, time, value)``; read-only."""
        return self._counter_rows

    def spans_by_cat(self, *cats: str) -> Iterator[SpanRecord]:
        """Spans whose category is one of ``cats``, in emission order."""
        wanted = frozenset(cats)
        return (s for s in self.spans if s.cat in wanted)

    def counter_totals(self) -> dict[str, float]:
        """Final value of every counter/gauge series, keyed ``track/name``.

        The service layer's replay tests and the ``serve`` CLI summary
        both want "how did every series end up", not the sample streams.
        """
        totals: dict[str, float] = {}
        for name, track, _time, value in self._counter_rows:
            totals[f"{track}/{name}" if track else name] = value
        return totals

    def digest(self) -> str:
        """SHA-256 over every raw row — the byte-identity fingerprint.

        Two runs are *replays of each other* exactly when their digests
        match: every span, counter sample, and mark, with its timestamp
        and attributes, in emission order.
        """
        import hashlib

        h = hashlib.sha256()
        for crow in self._counter_rows:
            h.update(repr(crow).encode())
        for srow in self._span_rows:
            h.update(repr(srow[:7]).encode())
            h.update(repr(sorted(srow[7].items())).encode())
        for m in self._marks:
            h.update(
                f"{m.name}|{m.track}|{m.time!r}|{sorted(m.attrs.items())!r}".encode()
            )
        return h.hexdigest()

    def __repr__(self) -> str:
        return (
            f"TelemetryBus({len(self._span_rows)} span(s), "
            f"{len(self._counter_rows)} counter sample(s), "
            f"{len(self._marks)} mark(s))"
        )
