"""Terminal visualizations of simulation results (Gantt, traffic)."""

from .gantt import GanttRow, bus_gantt, flow_gantt, pipeline_gantt, render_rows
from .trace_export import (
    bus_flow_trace_events,
    pipeline_trace_events,
    write_chrome_trace,
)
from .traffic import (
    LinkStats,
    device_traffic_matrix,
    format_matrix,
    host_traffic_matrix,
    link_stats,
)

__all__ = [
    "GanttRow",
    "render_rows",
    "pipeline_gantt",
    "flow_gantt",
    "host_traffic_matrix",
    "device_traffic_matrix",
    "link_stats",
    "LinkStats",
    "format_matrix",
    "pipeline_trace_events",
    "bus_flow_trace_events",
    "bus_gantt",
    "write_chrome_trace",
]
