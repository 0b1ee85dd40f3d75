"""Fault injection for the service itself — seeded, replayable chaos.

The simulator already injects *network* faults (:mod:`repro.sim.faults`);
this module injects faults into the **planning frontend**: compiles that
run slow, compile attempts that fail transiently, clients that hang up
mid-request, and poison requests whose plans cannot validate.  The same
discipline applies: a :class:`ServiceChaos` is pure data built from a
seed, and every per-request decision is a seeded hash of the stable
request id — never global RNG state — so a chaos run replays
byte-identically regardless of interleaving.

Poison requests are modelled honestly rather than by raising a magic
exception: the request compiles through a pass pipeline with a
:class:`PoisonPass` spliced in before validation, which silently drops
the plan's final op.  The static analyzer then reports the coverage
hole and compilation aborts with :class:`~repro.core.validate
.PlanValidationError` — exercising the real "bad request must fail the
request, never the worker, and never trip the breaker" path end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .. import checks
from ..sim.faults import seeded_uniform

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..compiler.passes import PlanState
    from ..compiler.pipeline import CompileContext

__all__ = ["ServiceChaos", "PoisonPass"]


@dataclass(frozen=True)
class ServiceChaos:
    """A replayable chaos scenario for the resharding service.

    All rates are probabilities in ``[0, 1)`` decided per request (or
    per attempt, for ``fault_rate``) by seeded hashes of the request id.
    """

    seed: int = 0
    #: fraction of compiles that run slow, and how much extra service
    #: time a slow compile takes
    slow_rate: float = 0.0
    slow_extra: float = 0.05
    #: per-attempt probability of a transient compile fault
    fault_rate: float = 0.0
    #: per-attempt probability the worker is unreachable (network
    #: partition between frontend and worker — the compiler is fine)
    partition_rate: float = 0.0
    #: fraction of clients that cancel, and how long after admission
    cancel_rate: float = 0.0
    cancel_after: float = 0.01
    #: request ids whose plans are poisoned (fail static validation)
    poison_requests: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        checks.integer("seed", self.seed, -math.inf)
        for name in ("slow_rate", "fault_rate", "partition_rate", "cancel_rate"):
            checks.real(name, getattr(self, name), "[0, 1)")
        checks.real("slow_extra", self.slow_extra, "[0, inf)")
        checks.real("cancel_after", self.cancel_after, "[0, inf)")

    # ------------------------------------------------------------------
    # Per-request decisions (pure functions of seed + stable ids)
    # ------------------------------------------------------------------
    def is_slow(self, request_id: str) -> bool:
        if self.slow_rate <= 0.0:
            return False
        return seeded_uniform(self.seed, "slow", request_id) < self.slow_rate

    def slow_extra_time(self, request_id: str) -> float:
        """Extra service seconds this compile takes (0 if not slow)."""
        if not self.is_slow(request_id):
            return 0.0
        return self.slow_extra * (
            0.5 + seeded_uniform(self.seed, "slow-extra", request_id)
        )

    def attempt_faults(self, request_id: str, attempt: int) -> bool:
        """Does compile attempt ``attempt`` (1-based) fault transiently?"""
        if self.fault_rate <= 0.0:
            return False
        return (
            seeded_uniform(self.seed, "fault", request_id, attempt) < self.fault_rate
        )

    def attempt_partitioned(self, request_id: str, attempt: int) -> bool:
        """Is attempt ``attempt`` cut off by a frontend/worker partition?"""
        if self.partition_rate <= 0.0:
            return False
        return (
            seeded_uniform(self.seed, "partition", request_id, attempt)
            < self.partition_rate
        )

    def cancels(self, request_id: str) -> bool:
        if self.cancel_rate <= 0.0:
            return False
        return seeded_uniform(self.seed, "cancel", request_id) < self.cancel_rate

    def cancel_delay(self, request_id: str) -> float:
        """Service seconds after admission at which the client hangs up."""
        return self.cancel_after * (
            0.5 + seeded_uniform(self.seed, "cancel-delay", request_id)
        )

    def is_poison(self, request_id: str) -> bool:
        return request_id in self.poison_requests


class PoisonPass:
    """Corrupt the emitted plan so static validation must reject it.

    Spliced immediately before the validate pass for poison requests:
    dropping the final op leaves a receiver without its data, which the
    analyzer reports as a coverage ERROR.  The corruption is done on the
    real plan object so the whole validation machinery — not a mock —
    classifies the request as invalid.
    """

    name = "poison"

    def run(self, state: "PlanState", ctx: "CompileContext") -> str:
        if state.plan is None or not state.plan.ops:
            return "no-op (nothing to poison)"
        dropped = state.plan.ops.pop()
        return f"dropped final op {dropped.op_id}"
