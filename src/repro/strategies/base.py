"""Strategy interface: emit communication ops for the plan compiler.

A strategy no longer runs the whole show.  The staged compiler
(:mod:`repro.compiler`) owns lowering, scheduling, fault re-rooting,
and validation as explicit passes; a strategy contributes

* a few **declarative knobs** the passes read (``granularity``,
  ``scheduler_fn``, ``gate_on_schedule``, the ``*_uses_faults`` /
  ``reroot_on_faults`` flags),
* an :meth:`CommStrategy.emit` hook that appends concrete ops to the
  plan following the schedule the compiler built, and
* a canonical :meth:`CommStrategy.cache_key` so compiles through it can
  be content-addressed (return ``None`` to opt out: the compile is then
  simply uncacheable, never wrong).

A strategy holds no fault scenario.  A compile's
:class:`~repro.sim.faults.FaultSchedule` and
:class:`~repro.sim.faults.RetryPolicy` live only on
:class:`~repro.compiler.pipeline.CompileContext`; the passes read them
from there, and the ``*_uses_faults``/``reroot_on_faults`` flags say
which passes let them shape this strategy's plan.

:meth:`CommStrategy.plan` is kept as the stable public API — it now
delegates to :func:`repro.compiler.compile_resharding` with the cache
disabled, so ``strategy.plan(task)`` behaves exactly as before (a fresh
plan every call).  Subclasses implement :meth:`emit` (preferred) or
override :meth:`plan` wholesale.
"""

from __future__ import annotations

from abc import ABC
from collections import defaultdict
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from ..core.plan import CommPlan
from ..core.task import ReshardingTask
from ..sim.faults import FaultSchedule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..scheduling import Schedule, SchedulingProblem

__all__ = ["CommStrategy", "LoadTracker"]


class CommStrategy(ABC):
    """Compiles :class:`ReshardingTask` -> :class:`CommPlan` (via the
    staged compiler)."""

    #: short identifier used in benchmarks and result tables
    name: str = "abstract"
    #: unit-task decomposition the strategy emits against
    granularity: str = "intersection"
    #: False when emitted plans do not carry the tensor (signal)
    data_complete: bool = True
    #: attach the schedule to the plan so the executor gates on it
    gate_on_schedule: bool = False
    #: emission's LoadTracker weights/filters senders by fault state
    emit_uses_faults: bool = False
    #: the scheduling problem discounts degraded NICs
    schedule_uses_faults: bool = False
    #: the fault_rewrite pass re-roots assignments off down hosts
    reroot_on_faults: bool = False

    def scheduler_fn(
        self,
    ) -> Optional[Callable[["SchedulingProblem"], "Schedule"]]:
        """The scheduling algorithm, or None when the strategy does not
        schedule (every unit task launches eagerly)."""
        return None

    def supports(self, task: ReshardingTask) -> bool:
        """Whether this strategy can compile ``task`` at all.

        Topology-dependent backends override this (e.g. switch multicast
        needs a topology that exposes switches); :class:`~repro
        .compiler.passes.SelectPass` skips unsupported candidates
        instead of scoring a plan that could never execute.
        """
        return True

    def emit(
        self,
        task: ReshardingTask,
        plan: CommPlan,
        schedule: Optional["Schedule"],
        load: "LoadTracker",
    ) -> None:
        """Append this strategy's ops to ``plan`` (the emit pass)."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement emit() or override plan()"
        )

    def cache_key(self) -> Optional[tuple]:
        """Canonical tuple of every plan-shaping option, or None.

        ``None`` makes compiles through this strategy uncacheable —
        the safe default for subclasses that have not declared their
        configuration surface.
        """
        return None

    def plan(self, task: ReshardingTask) -> CommPlan:
        """Produce the communication plan for one resharding task.

        Public API preserved from the pre-compiler era: compiles through
        the staged pass pipeline with caching disabled, so every call
        yields a freshly compiled plan.
        """
        from ..compiler.pipeline import CompileContext, compile_resharding

        ctx = CompileContext(strategy=self, cache=None)
        return compile_resharding(task, ctx).plan

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class LoadTracker:
    """Greedy sender selection by accumulated outgoing bytes.

    The paper's baselines "do load balancing with a greedy approach
    which picks the sender with the lowest load for the next data
    slice" (§5.1.2); load is tracked at host level (hosts are the
    bottleneck) with per-device load as tie-break.

    With a :class:`~repro.sim.faults.FaultSchedule`, host load is
    normalized by the host's *effective* NIC bandwidth (nominal x
    time-averaged degradation factor), so a half-speed host is charged
    double per byte and receives proportionally less work; flapped-down
    hosts can be excluded entirely via :meth:`healthy`.
    """

    def __init__(self, cluster, faults: Optional[FaultSchedule] = None) -> None:
        self.cluster = cluster
        self.faults = faults
        self.host_load: dict[int, float] = defaultdict(float)
        self.device_load: dict[int, float] = defaultdict(float)
        self._host_weight: dict[int, float] = {}

    def _weight(self, host: int) -> float:
        """Cost multiplier per byte sent from ``host`` (1 when healthy)."""
        if self.faults is None:
            return 1.0
        w = self._host_weight.get(host)
        if w is None:
            topo = self.cluster.topo
            effective = (
                topo.host_nic_bandwidth(host) * self.faults.mean_nic_factor(host)
            )
            w = topo.reference_bandwidth / max(effective, 1e-9)
            self._host_weight[host] = w
        return w

    def healthy(self, candidates: Sequence[int]) -> list[int]:
        """Candidates whose host NIC is not flapped down at plan time (0).

        Falls back to the full candidate list when every host is down —
        a doomed pick is still better than no plan (the runtime's retry
        machinery may yet save it).
        """
        if self.faults is None:
            return list(candidates)
        up = [
            d
            for d in candidates
            if not self.faults.host_down(self.cluster.host_of(d), 0.0)
        ]
        return up if up else list(candidates)

    def pick(self, candidates: Sequence[int], nbytes: float) -> int:
        """Choose the least-loaded candidate device and charge it."""
        if not candidates:
            raise ValueError("no sender candidates")
        best = min(
            candidates,
            key=lambda d: (
                self.host_load[self.cluster.host_of(d)],
                self.device_load[d],
                d,
            ),
        )
        self.charge(best, nbytes)
        return best

    def pick_on_host(self, candidates: Sequence[int], host: int, nbytes: float) -> int:
        """Choose the least-loaded candidate on a fixed host."""
        on_host = [d for d in candidates if self.cluster.host_of(d) == host]
        if not on_host:
            raise ValueError(f"no sender candidate on host {host}")
        best = min(on_host, key=lambda d: (self.device_load[d], d))
        self.charge(best, nbytes)
        return best

    def charge(self, device: int, nbytes: float) -> None:
        self.device_load[device] += nbytes
        host = self.cluster.host_of(device)
        self.host_load[host] += nbytes * self._weight(host)
