"""Auto strategy: pick the fastest plan by offline simulation.

Real systems tune communication choices ahead of time (the paper's
library chooses broadcast because it is provably optimal for its
setting; Alpa's compiler more generally picks per-case).  Since our
simulator is cheap, the auto strategy compiles every candidate strategy,
simulates each plan once, and returns the fastest — a small, honest
autotuner that is also a useful regression oracle: broadcast should
(almost) always win cross-mesh.

The scoring loop itself lives in the compiler's select pass
(:class:`repro.compiler.passes.SelectPass`); this class declares the
candidate set and tuning scenario.  The winner's scored
:class:`~repro.core.executor.TimingResult` is attached to the
:class:`~repro.compiler.pipeline.CompiledPlan` as ``timing``, so callers
never re-simulate a plan that was already simulated to be chosen.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..sim.faults import FaultSchedule, RetryPolicy
from .allgather import AllGatherStrategy
from .base import CommStrategy
from .broadcast import BroadcastStrategy
from .send_recv import SendRecvStrategy

__all__ = ["AutoStrategy"]


class AutoStrategy(CommStrategy):
    name = "auto"

    def __init__(
        self,
        candidates: Optional[Sequence[CommStrategy]] = None,
        faults: Optional[FaultSchedule] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.faults = faults
        self.retry_policy = retry_policy
        self.candidates: tuple[CommStrategy, ...] = (
            tuple(candidates)
            if candidates is not None
            else (
                SendRecvStrategy(faults=faults),
                AllGatherStrategy(),
                BroadcastStrategy(faults=faults),
            )
        )
        if not self.candidates:
            raise ValueError("need at least one candidate strategy")
        #: (strategy name, simulated latency) pairs of the last plan() call
        self.last_scores: list[tuple[str, float]] = []

    def cache_key(self) -> Optional[tuple]:
        keys = tuple(c.cache_key() for c in self.candidates)
        if any(k is None for k in keys):
            return None
        return (self.name, repr(self.retry_policy)) + keys
