"""The unified simulation runtime: event loop + telemetry bus.

Every simulator in the repo — the flow-level network model behind
``simulate_plan`` and the pipeline executor (plain and interleaved
schedules alike) — executes on one discrete-event :class:`EventLoop`
and reports what happened through the loop's structured
:class:`TelemetryBus`.  Gantt charts, Chrome traces
and the result objects' statistics are all *derived* from the bus's
span stream: a network flow's one record is its ``flow`` span, and a
pipeline iteration's are its ``compute``/``comm``/``send`` spans
(listed in :mod:`repro.pipeline.executor`); no executor keeps private
bookkeeping lists.

Layout:

* :mod:`repro.runtime.kernel` — heap-scheduled events, simulated clock,
  and the bus that clock drives;
* :mod:`repro.runtime.telemetry` — spans, counters, gauges, and marks;
* :mod:`repro.runtime.trace` — Chrome-trace / JSONL export of a bus,
  behind the CLI's ``--trace-out``.
"""

from .kernel import EventLoop
from .telemetry import (
    Counter,
    CounterSample,
    Gauge,
    MarkRecord,
    SpanRecord,
    TelemetryBus,
)
from .trace import (
    chrome_trace_events,
    write_chrome_trace_file,
    write_jsonl,
)

__all__ = [
    "EventLoop",
    "TelemetryBus",
    "SpanRecord",
    "CounterSample",
    "MarkRecord",
    "Counter",
    "Gauge",
    "chrome_trace_events",
    "write_chrome_trace_file",
    "write_jsonl",
]
