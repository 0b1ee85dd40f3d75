"""Timeline records of the pipeline executor, derived from its spans.

:class:`TimelineEntry` and :class:`CommEntry` are *derived views*: the
helpers below rebuild them from the telemetry span stream, so a result
object holds no private timeline lists.

Span conventions of :func:`~repro.pipeline.executor.simulate_pipeline`
(``<d>`` is a device, i.e. the index of a task list):

* compute spans: ``cat="compute"``, track ``stage:<d>``, attrs
  ``stage`` (the device) / ``kind`` / ``microbatch``, plus ``chunk``
  (the job stage) when the task names its stage, as interleaved
  schedules do;
* transfer spans: ``cat="comm"``, track ``chan:<src>-><dst>:<dir>``
  over the devices of the edge's forward endpoints, attrs
  ``src_stage``/``dst_stage`` (those devices) / ``direction`` /
  ``microbatch`` / ``label`` (plus ``busy_stage`` when the recv
  occupies a stage in blocking mode);
* blocking-send spans: ``cat="send"``, track ``stage:<s>``, covering
  the interval the producer stage is wedged in program-order sends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..runtime.telemetry import SpanRecord

__all__ = [
    "TimelineEntry",
    "CommEntry",
    "timeline_from_spans",
    "comms_from_spans",
]


@dataclass(frozen=True)
class TimelineEntry:
    """One compute interval on a device (``stage``); ``chunk`` is the
    job stage when the task named it (interleaved), else ``-1``."""

    stage: int
    kind: str
    microbatch: int
    start: float
    end: float
    chunk: int = -1


@dataclass(frozen=True)
class CommEntry:
    """One cross-stage transfer interval."""

    src_stage: int
    dst_stage: int
    direction: str  # "fwd" | "bwd"
    microbatch: int
    label: str
    start: float
    end: float


def timeline_from_spans(spans: Iterable[SpanRecord]) -> list[TimelineEntry]:
    """Rebuild the compute timeline from ``cat="compute"`` spans."""
    out: list[TimelineEntry] = []
    for s in spans:
        if s.cat != "compute":
            continue
        a = s.attrs
        out.append(
            TimelineEntry(
                stage=int(a["stage"]),  # type: ignore[arg-type]
                kind=str(a["kind"]),
                microbatch=int(a["microbatch"]),  # type: ignore[arg-type]
                start=s.start,
                end=s.end,
                chunk=int(a.get("chunk", -1)),  # type: ignore[arg-type]
            )
        )
    return out


def comms_from_spans(spans: Iterable[SpanRecord]) -> list[CommEntry]:
    """Rebuild the transfer list from ``cat="comm"`` spans."""
    out: list[CommEntry] = []
    for s in spans:
        if s.cat != "comm":
            continue
        a = s.attrs
        out.append(
            CommEntry(
                src_stage=int(a["src_stage"]),  # type: ignore[arg-type]
                dst_stage=int(a["dst_stage"]),  # type: ignore[arg-type]
                direction=str(a["direction"]),
                microbatch=int(a["microbatch"]),  # type: ignore[arg-type]
                label=str(a["label"]),
                start=s.start,
                end=s.end,
            )
        )
    return out
