"""The unified simulation runtime: event loop + telemetry bus.

Every simulator in the repo — the flow-level network model behind
``simulate_plan``, the pipeline executor (plain and interleaved
schedules alike), and the elastic-recovery supervisor — executes on one
discrete-event :class:`EventLoop` and reports what happened through the
loop's structured :class:`TelemetryBus`.  Timelines, Gantt charts,
Chrome traces, and the result objects' ``timeline``/``comms``/``trace``
views are all *derived* from the bus's span stream; no executor keeps
private bookkeeping lists anymore.

Layout:

* :mod:`repro.runtime.kernel` — heap-scheduled events, simulated clock,
  and the bus that clock drives;
* :mod:`repro.runtime.telemetry` — spans, counters, gauges, and marks;
* :mod:`repro.runtime.trace` — Chrome-trace / JSONL export of a bus and
  the ``last run`` persistence behind ``python -m repro trace``.
"""

from .kernel import Event, EventLoop
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
    last_run_path,
    read_jsonl,
    save_last_run,
    write_chrome_trace_file,
    write_jsonl,
)

__all__ = [
    "Event",
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
    "read_jsonl",
    "save_last_run",
    "last_run_path",
]
