"""Export a telemetry bus: Chrome trace JSON or JSONL.

One exporter for every simulator.  Each simulator's one record of a
run is its spans on the bus (a pipeline iteration's ``compute``/
``comm``/``send`` spans, a network flow's ``flow`` span), so no record
format has a dump path of its own:

* :func:`chrome_trace_events` — generic ``chrome://tracing`` /
  Perfetto "trace event" conversion: one process per track group, one
  thread per track, counters as ``C`` events, marks as instants;
* :func:`records_to_jsonl_dicts` / :func:`write_jsonl` — a
  line-per-record dump of the full bus (spans, counters, marks).

Both back the CLI's ``--trace-out``; the simulator is deterministic,
so re-running a command reproduces its trace exactly.

Timestamps in Chrome traces are microseconds (the format's convention);
JSONL keeps raw simulated seconds.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

from .telemetry import CounterSample, MarkRecord, SpanRecord, TelemetryBus

__all__ = [
    "chrome_trace_events",
    "write_chrome_trace_file",
    "write_jsonl",
    "records_to_jsonl_dicts",
]

_US = 1e6


def _track_ids(tracks: Sequence[str]) -> dict[str, tuple[int, int]]:
    """Stable (pid, tid) assignment: one pid per track prefix.

    Tracks follow a ``group:detail`` convention (``stage:0``,
    ``dev:3``, ``chan:0->1:fwd``); every distinct group becomes a
    process and each track a thread inside it, so related rows sit
    together in the viewer.
    """
    ids: dict[str, tuple[int, int]] = {}
    groups: dict[str, int] = {}
    next_tid: dict[int, int] = {}
    for track in tracks:
        if track in ids:
            continue
        group = track.split(":", 1)[0] if ":" in track else track
        pid = groups.setdefault(group, len(groups))
        tid = next_tid.get(pid, 0)
        next_tid[pid] = tid + 1
        ids[track] = (pid, tid)
    return ids


def chrome_trace_events(bus: TelemetryBus, run: str = "") -> list[dict[str, object]]:
    """Convert a bus's records to Chrome trace events (generic layout)."""
    recs: list[SpanRecord | CounterSample | MarkRecord] = [*bus.spans, *bus.counters, *bus.marks]
    prefix = f"{run}/" if run else ""
    tracks = [r.track for r in recs]
    ids = _track_ids([prefix + t if t else prefix.rstrip("/") or "run" for t in tracks])
    events: list[dict[str, object]] = []
    for track, (pid, tid) in ids.items():
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid,
             "args": {"name": track.split(":", 1)[0] if ":" in track else track}}
        )
        events.append(
            {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
             "args": {"name": track}}
        )
    for rec in recs:
        track = prefix + rec.track if rec.track else prefix.rstrip("/") or "run"
        pid, tid = ids[track]
        if isinstance(rec, SpanRecord):
            events.append(
                {
                    "name": rec.name,
                    "cat": rec.cat,
                    "ph": "X",
                    "ts": rec.start * _US,
                    "dur": max(rec.duration * _US, 0.01),
                    "pid": pid,
                    "tid": tid,
                    "args": dict(rec.attrs),
                }
            )
        elif isinstance(rec, CounterSample):
            events.append(
                {
                    "name": rec.name,
                    "ph": "C",
                    "ts": rec.time * _US,
                    "pid": pid,
                    "args": {rec.name: rec.value},
                }
            )
        else:
            events.append(
                {
                    "name": rec.name,
                    "ph": "i",
                    "s": "t",
                    "ts": rec.time * _US,
                    "pid": pid,
                    "tid": tid,
                    "args": dict(rec.attrs),
                }
            )
    return events


def write_chrome_trace_file(events: list[dict[str, object]], path: str) -> None:
    """Write trace events as a Chrome-tracing JSON file."""
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def records_to_jsonl_dicts(
    bus: TelemetryBus, run: str = ""
) -> list[dict[str, object]]:
    """Flatten one bus into JSONL-ready dicts (emission order per kind)."""
    out: list[dict[str, object]] = []
    for s in bus.spans:
        out.append(
            {
                "type": "span",
                "run": run,
                "name": s.name,
                "cat": s.cat,
                "track": s.track,
                "start": s.start,
                "end": s.end,
                "depth": s.depth,
                "parent": s.parent,
                "attrs": dict(s.attrs),
            }
        )
    for c in bus.counters:
        out.append(
            {
                "type": "counter",
                "run": run,
                "name": c.name,
                "track": c.track,
                "time": c.time,
                "value": c.value,
            }
        )
    for m in bus.marks:
        out.append(
            {
                "type": "mark",
                "run": run,
                "name": m.name,
                "track": m.track,
                "time": m.time,
                "attrs": dict(m.attrs),
            }
        )
    return out


def write_jsonl(dicts: Iterable[dict[str, object]], path: str) -> int:
    """Write one JSON object per line; returns the number of lines."""
    n = 0
    with open(path, "w") as f:
        for d in dicts:
            f.write(json.dumps(d))
            f.write("\n")
            n += 1
    return n
