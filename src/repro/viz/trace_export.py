"""Chrome-trace (catapult JSON) export for simulation results.

Both the pipeline executor's timeline and the network simulator's flow
trace can be dumped in the ``chrome://tracing`` / Perfetto "trace event"
format for interactive inspection:

* pipeline: one process per stage, tracks for compute and transfers;
* network: one process per host, one track per device.

Since the unification on the runtime kernel, every simulator reports
through one telemetry bus, and these exporters read the span stream —
:func:`pipeline_trace_events` folds ``cat="compute"``/``cat="comm"``
spans, :func:`bus_flow_trace_events` folds ``cat="flow"`` spans.  For a
layout-agnostic dump of a whole bus (all categories,
counters, marks) use :func:`repro.runtime.trace.chrome_trace_events`.

Timestamps are microseconds (the format's convention).
"""

from __future__ import annotations

from ..pipeline.executor import PipelineResult
from ..runtime.telemetry import TelemetryBus
from ..runtime.trace import write_chrome_trace_file
from ..sim.cluster import Cluster

__all__ = [
    "pipeline_trace_events",
    "bus_flow_trace_events",
    "write_chrome_trace",
]

_US = 1e6


def pipeline_trace_events(result: PipelineResult) -> list[dict]:
    """Trace events for one simulated training iteration.

    Reads the result's telemetry spans (the executors emit one
    ``compute`` span per task and one ``comm`` span per transfer).
    """
    events: list[dict] = []
    for s in range(result.job.n_stages):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": s,
                "args": {"name": f"stage {s}"},
            }
        )
    for span in result.telemetry.spans_by_cat("compute"):
        a = span.attrs
        events.append(
            {
                "name": f"{a['kind']}{a['microbatch']}",
                "cat": "compute",
                "ph": "X",
                "ts": span.start * _US,
                "dur": (span.end - span.start) * _US,
                "pid": int(a["stage"]),  # type: ignore[arg-type]
                "tid": 0,
                "args": {"microbatch": a["microbatch"]},
            }
        )
    for span in result.telemetry.spans_by_cat("comm"):
        a = span.attrs
        events.append(
            {
                "name": f"{a['label'] or 'comm'} mb{a['microbatch']} {a['direction']}",
                "cat": "comm",
                "ph": "X",
                "ts": span.start * _US,
                "dur": (span.end - span.start) * _US,
                "pid": int(a["src_stage"]),  # type: ignore[arg-type]
                "tid": 1 if a["direction"] == "fwd" else 2,
                "args": {
                    "src_stage": a["src_stage"],
                    "dst_stage": a["dst_stage"],
                    "direction": a["direction"],
                },
            }
        )
    return events


def _flow_event(
    name: str,
    cluster: Cluster,
    src: int,
    dst: int,
    nbytes: float,
    start: float,
    duration: float,
) -> dict:
    return {
        "name": name,
        "cat": "intra" if cluster.same_host(src, dst) else "cross",
        "ph": "X",
        "ts": start * _US,
        "dur": max(duration * _US, 0.01),
        "pid": cluster.host_of(src),
        "tid": cluster.device(src).local_id,
        "args": {"src": src, "dst": dst, "bytes": nbytes},
    }


def _host_metas(cluster: Cluster) -> list[dict]:
    return [
        {
            "name": "process_name",
            "ph": "M",
            "pid": host.host_id,
            "args": {"name": f"host {host.host_id}"},
        }
        for host in cluster.hosts
    ]


def bus_flow_trace_events(bus: TelemetryBus, cluster: Cluster) -> list[dict]:
    """Trace events for the flow-level network simulation.

    One process per host, one track per device, one event per
    ``cat="flow"`` span on the network's bus.
    """
    events = _host_metas(cluster)
    for span in bus.spans_by_cat("flow"):
        a = span.attrs
        events.append(
            _flow_event(
                span.name,
                cluster,
                int(a["src"]),  # type: ignore[arg-type]
                int(a["dst"]),  # type: ignore[arg-type]
                float(a["nbytes"]),  # type: ignore[arg-type]
                span.start,
                span.end - span.start,
            )
        )
    return events


def write_chrome_trace(events: list[dict], path: str) -> None:
    """Write events as a Chrome-tracing JSON file."""
    write_chrome_trace_file(events, path)
