"""ASCII Gantt charts for pipeline timelines and network flow traces.

Terminal-friendly renderings of what the simulators produced — useful
for eyeballing schedules (the paper's Fig. 4 style timelines) and for
debugging overlap behaviour without plotting dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..pipeline.executor import PipelineResult
from ..runtime.telemetry import TelemetryBus
from ..sim.network import FlowRecord

__all__ = ["GanttRow", "render_rows", "pipeline_gantt", "flow_gantt", "bus_gantt"]

_KIND_CHARS = {"F": "F", "B": "B", "Bx": "x", "Bw": "w"}


@dataclass(frozen=True)
class GanttRow:
    """One labelled row of intervals to render."""

    label: str
    #: (start, end, glyph) triples in simulated seconds
    intervals: tuple[tuple[float, float, str], ...]


def render_rows(
    rows: Sequence[GanttRow],
    width: int = 100,
    t_max: Optional[float] = None,
    idle_char: str = ".",
) -> str:
    """Render rows onto a fixed-width time axis.

    Later intervals overwrite earlier ones in a cell; a cell covering
    several distinct glyphs shows the last one (resolution artefact, not
    a scheduling one).
    """
    if width < 10:
        raise ValueError("width must be at least 10")
    end = t_max
    if end is None:
        end = max(
            (iv[1] for row in rows for iv in row.intervals),
            default=0.0,
        )
    if end <= 0:
        end = 1.0
    label_w = max((len(r.label) for r in rows), default=0)
    scale = width / end
    lines = []
    for row in rows:
        cells = [idle_char] * width
        for start, stop, glyph in row.intervals:
            a = min(width - 1, max(0, int(start * scale)))
            b = min(width, max(a + 1, int(stop * scale + 0.5)))
            for i in range(a, b):
                cells[i] = glyph[0]
        lines.append(f"{row.label:>{label_w}} |{''.join(cells)}|")
    axis = f"{'':>{label_w}} 0{'':{width - 10}}{end:>8.3f}s"
    lines.append(axis)
    return "\n".join(lines)


def pipeline_gantt(
    result: PipelineResult,
    width: int = 100,
    show_comms: bool = True,
    max_microbatches: Optional[int] = None,
) -> str:
    """Fig. 4-style timeline: one row per device (+ one per comm channel).

    Compute tasks use glyphs ``F``/``B``/``x``/``w``; transfers use
    ``>`` (forward) and ``<`` (backward).
    """
    rows: list[GanttRow] = []
    for s in range(result.n_devices):
        ivs = [
            (e.start, e.end, _KIND_CHARS.get(e.kind, "?"))
            for e in result.timeline
            if e.stage == s
            and (max_microbatches is None or e.microbatch < max_microbatches)
        ]
        rows.append(GanttRow(f"stage{s}", tuple(sorted(ivs))))
    if show_comms:
        channels = sorted(
            {(c.src_stage, c.dst_stage, c.direction) for c in result.comms}
        )
        for src, dst, direction in channels:
            glyph = ">" if direction == "fwd" else "<"
            ivs = [
                (c.start, c.end, glyph)
                for c in result.comms
                if (c.src_stage, c.dst_stage, c.direction) == (src, dst, direction)
                and (max_microbatches is None or c.microbatch < max_microbatches)
            ]
            rows.append(
                GanttRow(f"comm{src}{glyph}{dst}", tuple(sorted(ivs)))
            )
    t_max = max(
        [e.end for e in result.timeline] + [c.end for c in result.comms],
        default=0.0,
    )
    return render_rows(rows, width=width, t_max=t_max)


def flow_gantt(
    trace: Sequence[FlowRecord],
    cluster,
    width: int = 100,
    by: str = "host",
) -> str:
    """Timeline of network usage per host (NIC sends) or per device."""
    if by not in ("host", "device"):
        raise ValueError("by must be 'host' or 'device'")
    rows_map: dict[str, list[tuple[float, float, str]]] = {}
    for rec in trace:
        if by == "host":
            if cluster.same_host(rec.src, rec.dst):
                continue  # NVLink traffic not shown at host granularity
            key = f"h{cluster.host_of(rec.src)}->h{cluster.host_of(rec.dst)}"
        else:
            key = f"d{rec.src}->d{rec.dst}"
        rows_map.setdefault(key, []).append((rec.start_time, rec.finish_time, "#"))
    rows = [GanttRow(k, tuple(sorted(v))) for k, v in sorted(rows_map.items())]
    return render_rows(rows, width=width)


def bus_gantt(
    bus: TelemetryBus,
    width: int = 100,
    cats: Optional[Sequence[str]] = None,
) -> str:
    """Generic timeline of a telemetry bus: one row per span track.

    Works for any simulator on the runtime kernel (pipeline stages,
    network devices, the recovery supervisor) since they all emit to
    the same span stream.  ``cats`` restricts the categories shown;
    compute spans reuse the pipeline glyphs, everything else renders as
    the first letter of its category.
    """
    wanted = None if cats is None else frozenset(cats)
    rows_map: dict[str, list[tuple[float, float, str]]] = {}
    for span in bus.spans:
        if wanted is not None and span.cat not in wanted:
            continue
        if span.cat == "compute":
            glyph = _KIND_CHARS.get(str(span.attrs.get("kind", "")), "?")
        else:
            glyph = (span.cat or "?")[0]
        rows_map.setdefault(span.track, []).append((span.start, span.end, glyph))
    rows = [GanttRow(k, tuple(sorted(v))) for k, v in sorted(rows_map.items())]
    return render_rows(rows, width=width)
