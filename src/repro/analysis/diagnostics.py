"""Structured diagnostics shared by every static analyzer in this package.

Each finding is a :class:`Diagnostic` with a **stable code** from the
catalog below, a severity, a human-readable message, and (where
applicable) the op / unit-task / file location it anchors to.  Codes are
API: tests and fixtures assert on them, so a code is never renamed or
reused — retired codes stay reserved.

Catalog (see ``docs/static_analysis.md`` for the long form):

========  ========================================================
code      meaning
========  ========================================================
``P001``  destination write race: two unordered ops deliver
          overlapping regions to the same receiver
``P002``  incomplete coverage: part of a destination tile is never
          delivered by any op
``P003``  dangling dependency: an op dep references an unknown op id
``P004``  dependency-order violation or cycle among plan ops
``P005``  sender inconsistency: an op's sender is not a source-mesh
          device or does not hold the region it sends
``P006``  re-rooting inconsistency: an op sends from a host the fault
          rewrite re-rooted its unit task away from, the schedule
          assigns a host holding no replica, or a fallback record
          names a host holding no replica
``P007``  schedule/plan mismatch: schedule order is not a
          permutation of its assignment, or an op's unit task is
          missing from the schedule
``P008``  malformed op: duplicate op ids, negative byte counts,
          region rank mismatch with the task tensor
``D001``  deadlock: cycle in the wait-for graph over op
          dependencies and schedule host-gating
``D002``  deadlock: cycle in the wait-for graph implied by a
          pipeline schedule's stage orders and channel acquisitions
``S001``  pipeline stage exceeds its memory capacity at the
          schedule's peak in-flight activation count
``S002``  malformed stage order: a backward precedes its forward,
          or task counts do not match the micro-batch count
``M001``  static peak-buffer bound exceeds the cluster's
          ``memory_budget`` on at least one host
``M002``  unbounded or unattributable transient buffer: an op's byte
          count is not finite, or its deliveries land on hosts the
          schedule's serialization order says nothing about
``M003``  memory budget infeasible: every candidate strategy's static
          peak-buffer bound exceeds the budget
``L001``  wall-clock time call in deterministic code
``L002``  unseeded random-number generation
``L003``  iteration over an unordered set with order-dependent
          effects
``L004``  raw ``itemsize`` byte math outside the sizeof/buffer
          accounting helpers (``core/tensor.py``, ``core/buffers.py``)
``F001``  re-root into the same failure domain: a fallback record
          lands the sender on a host sharing a failure domain with
          the host it replaced while an out-of-domain replica exists
``F003``  scheduled sender host sits inside a failure domain that is
          down at plan time while an out-of-domain replica exists
``T001``  multicast op names a switch the cluster topology does not
          define
``T002``  multicast endpoints outside the claimed switch's span: the
          sender or a receiver sits on a host the switch does not
          reach
``T003``  unroutable op: data moves between hosts the topology has
          no path for (e.g. across disconnected islands)
========  ========================================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Optional

__all__ = [
    "Severity",
    "Diagnostic",
    "AnalysisReport",
    "CATALOG",
]


class Severity(enum.Enum):
    """How bad a finding is.  ``ERROR`` findings reject the plan."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    def __str__(self) -> str:
        return self.value


#: one-line summaries keyed by stable code (kept in sync with the module
#: docstring and docs/static_analysis.md)
CATALOG: dict[str, str] = {
    "P001": "destination write race (unordered overlapping deliveries)",
    "P002": "incomplete coverage (destination slice never delivered)",
    "P003": "dangling dependency (unknown op id)",
    "P004": "dependency-order violation or cycle",
    "P005": "sender does not hold the region it sends",
    "P006": "re-rooting inconsistency (dead sender host or bad fallback)",
    "P007": "schedule/plan mismatch",
    "P008": "malformed op",
    "D001": "wait-for cycle over op deps and schedule gating",
    "D002": "wait-for cycle in pipeline schedule",
    "S001": "stage memory capacity exceeded at peak in-flight count",
    "S002": "malformed stage task order",
    "M001": "static peak-buffer bound exceeds memory_budget",
    "M002": "unbounded or unattributable transient buffer",
    "M003": "memory budget infeasible for every candidate strategy",
    "L001": "wall-clock time call in deterministic code",
    "L002": "unseeded random-number generation",
    "L003": "order-dependent iteration over an unordered set",
    "L004": "raw itemsize byte math outside the sizeof helpers",
    "F001": "re-root lands inside the replaced host's failure domain",
    "F003": "scheduled sender sits in a failed domain at plan time",
    "T001": "multicast names a switch the topology does not define",
    "T002": "multicast endpoint outside the claimed switch's span",
    "T003": "op routed between hosts with no topology path",
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a static analyzer."""

    code: str
    severity: Severity
    message: str
    #: plan op ids the finding anchors to (plan analyses)
    op_ids: tuple[int, ...] = ()
    #: unit-task ids involved (plan analyses)
    task_ids: tuple[int, ...] = ()
    #: source location (lint analyses): path and 1-based line
    file: Optional[str] = None
    line: Optional[int] = None
    #: witness trace for deadlock findings: the cycle, node by node
    witness: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.code not in CATALOG:
            raise ValueError(f"unknown diagnostic code {self.code!r}")

    def format(self) -> str:
        loc = f"{self.file}:{self.line}: " if self.file is not None else ""
        anchors = ""
        if self.op_ids:
            anchors = f" [op {', '.join(str(i) for i in self.op_ids)}]"
        text = f"{loc}{self.code} {self.severity}: {self.message}{anchors}"
        if self.witness:
            text += "\n    witness: " + " -> ".join(self.witness)
        return text

    def __str__(self) -> str:
        return self.format()


@dataclass
class AnalysisReport:
    """The outcome of one analysis run: a list of diagnostics."""

    subject: str = ""
    diagnostics: list[Diagnostic] = field(default_factory=list)

    def add(
        self,
        code: str,
        message: str,
        severity: Severity = Severity.ERROR,
        **kwargs: object,
    ) -> Diagnostic:
        diag = Diagnostic(code=code, severity=severity, message=message, **kwargs)  # type: ignore[arg-type]
        self.diagnostics.append(diag)
        return diag

    def extend(self, other: "AnalysisReport") -> None:
        self.diagnostics.extend(other.diagnostics)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True when no error-severity diagnostic was found."""
        return not self.errors

    @property
    def codes(self) -> set[str]:
        return {d.code for d in self.diagnostics}

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def format(self) -> str:
        head = self.subject or "analysis"
        if not self.diagnostics:
            return f"{head}: clean"
        lines = [
            f"{head}: {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s)"
        ]
        lines.extend("  " + d.format() for d in self.diagnostics)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"AnalysisReport({self.subject!r}, {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s))"
        )
