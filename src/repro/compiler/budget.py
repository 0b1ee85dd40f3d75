"""Deterministic compile budgets: bound a pathological plan search.

A production planning frontend cannot let one compile run forever, but a
wall-clock deadline would make *what gets compiled* depend on CPU speed
(the repro-lint L001 rule exists precisely to ban that).  Budgets are
therefore counted in **nominal node expansions** — the same currency the
DFS scheduler already uses for its machine-independent search budget —
at :data:`NODES_PER_SECOND` nodes per "budget second".  A deadline of
``0.5`` means "at most the work a reference machine does in half a
second", identically on every machine, so a compile either always
finishes under a given deadline or always raises :class:`CompileTimeout`.

Each pass charges its deterministic cost after running (the expensive
passes are internally bounded, so the overshoot is at most one pass);
the :class:`~repro.compiler.passes.SelectPass` scoring loop charges per
candidate, so auto-strategy scoring is bounded too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .. import checks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .passes import PlanState

__all__ = ["NODES_PER_SECOND", "CompileTimeout", "CompileBudget", "charge_pass"]

#: nominal node expansions per budget second — mirrors the DFS
#: scheduler's machine-independent search budget
NODES_PER_SECOND = 200_000

#: worst-case node budget of one budgeted DFS/ensemble scheduling run
#: (``time_budget=0.2`` at :data:`NODES_PER_SECOND`)
_DFS_WORST_CASE_NODES = int(0.2 * NODES_PER_SECOND)

#: tasks beyond which the ensemble skips DFS (see ``ensemble_schedule``)
_DFS_MAX_TASKS = 20


class CompileTimeout(Exception):
    """A compile exceeded its deterministic node budget.

    Raised by :func:`~repro.compiler.compile_resharding` when a
    ``deadline`` is set and the accumulated per-pass cost crosses it.
    The same inputs with the same deadline always either complete or
    raise — the outcome never depends on the machine.
    """

    def __init__(self, deadline: float, node_budget: int, spent: int, phase: str):
        self.deadline = deadline
        self.node_budget = node_budget
        self.spent = spent
        self.phase = phase
        super().__init__(
            f"compile exceeded its deadline of {deadline:g}s "
            f"({spent} of {node_budget} budget node(s) spent, "
            f"in phase {phase!r})"
        )


@dataclass
class CompileBudget:
    """Mutable ledger of one compile's node spend against its deadline."""

    deadline: float
    node_budget: int
    spent: int = 0
    last_phase: str = ""

    @classmethod
    def from_deadline(cls, deadline: float) -> "CompileBudget":
        checks.real("deadline", deadline, "(0, inf)")
        return cls(deadline=deadline, node_budget=max(1, int(deadline * NODES_PER_SECOND)))

    def charge(self, nodes: int, phase: str) -> None:
        """Record ``nodes`` of work; raise :class:`CompileTimeout` when over."""
        self.spent += max(0, nodes)
        self.last_phase = phase
        if self.spent > self.node_budget:
            raise CompileTimeout(self.deadline, self.node_budget, self.spent, phase)


def _schedule_cost(state: "PlanState") -> int:
    """Deterministic cost of the schedule pass that just ran."""
    if state.schedule is None:
        return len(state.unit_tasks)
    n_tasks = len(state.unit_tasks)
    if state.schedule.algorithm in ("dfs", "ensemble") and n_tasks <= _DFS_MAX_TASKS:
        # The budgeted search may expand up to its full node budget;
        # charge the worst case so the outcome is machine-independent.
        return _DFS_WORST_CASE_NODES
    return max(1, n_tasks * 32)


def charge_pass(
    budget: Optional[CompileBudget],
    name: str,
    state: "PlanState",
    detail: str = "",
) -> None:
    """Charge the deterministic cost of pass ``name`` against ``budget``.

    Passes that report they were no-ops (the post-select ``schedule`` /
    ``fault_rewrite`` / ``emit`` runs that inherit the scored winner) are
    free — their work was already charged inside the scoring loop.
    """
    if budget is None:
        return
    if detail.startswith(("inherited", "skipped", "no-op")):
        budget.charge(0, name)
        return
    if name == "schedule":
        budget.charge(_schedule_cost(state), name)
    elif name == "emit":
        budget.charge(max(1, state.n_ops), name)
    elif name == "validate":
        budget.charge(state.n_ops * 4, name)
    elif name == "select":
        # the scoring loop charges per candidate; the pass itself is free
        budget.charge(0, name)
    else:  # lower, fault_rewrite, custom passes
        budget.charge(max(1, len(state.unit_tasks)), name)
