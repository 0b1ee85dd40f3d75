"""The unified simulation runtime: event kernel + telemetry bus.

Every simulator in the repo — the flow-level network model behind
``simulate_plan``, the pipeline executors (plain and interleaved), and
the elastic-recovery supervisor — executes on one discrete-event
:class:`Kernel` and reports what happened through one structured
:class:`TelemetryBus`.  Timelines, Gantt charts, Chrome traces, and the
result objects' ``timeline``/``comms``/``trace`` views are all *derived*
from the bus's span stream; no executor keeps private bookkeeping lists
anymore.

Layout:

* :mod:`repro.runtime.kernel` — heap-scheduled events, simulated clock,
  named resources;
* :mod:`repro.runtime.resources` — FIFO token pools and serial
  reservation channels;
* :mod:`repro.runtime.telemetry` — spans, counters, gauges, and marks;
* :mod:`repro.runtime.trace` — Chrome-trace / JSONL export of a bus and
  the ``last run`` persistence behind ``python -m repro trace``.
"""

from .kernel import Event, EventLoop, Kernel
from .resources import Resource, SerialChannel
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
    "Kernel",
    "Resource",
    "SerialChannel",
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
