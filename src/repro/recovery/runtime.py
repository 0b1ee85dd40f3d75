"""The elastic training supervisor: run, crash, replan, resume.

:func:`simulate_training_run` drives a model-parallel training job
through ``n_iterations`` on the simulated cluster while a
:class:`~repro.sim.faults.FaultSchedule` injects permanent host
failures.  The loop:

* healthy iterations advance the wall clock by the pipeline-simulated
  iteration time and apply a deterministic per-iteration update to each
  stage's state array (so restored state can be checked bit-for-bit);
* at checkpoint boundaries the state is snapshotted with the cost model
  of :mod:`repro.recovery.checkpoint`;
* when a working host dies, the in-flight iteration is lost, the
  failure is detected after the health-check latency, the placement is
  rebuilt and the checkpointed state is resharded onto it
  (:func:`repro.recovery.replan.replan` — certified on the data plane),
  and training resumes from the checkpointed iteration, re-running the
  lost iterations (*warmup*) on the new topology.

The supervisor runs on the shared runtime kernel
(:class:`~repro.runtime.kernel.EventLoop`): each iteration, checkpoint
write and recovery is an event continuation rather than a hand-advanced
clock, and every phase is emitted to the kernel's telemetry bus
(``iteration``/``checkpoint`` spans on the ``supervisor`` track; each
recovery is a nested span with ``detect``/``load``/``reshard``
children and a ``host-failure`` mark).  ``RunReport.telemetry`` exposes
the stream.

Everything is deterministic: same spec + schedule + seed gives a
byte-identical :class:`RunReport` (the ``state_digest`` field exists to
assert exactly that across processes).
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..compiler import default_plan_cache
from ..models.parallel import ParallelJobSpec, run_iteration
from ..runtime.kernel import EventLoop
from ..runtime.telemetry import TelemetryBus
from ..sim.faults import FaultSchedule, HostFailure
from .checkpoint import CheckpointConfig, CheckpointStore
from .replan import RecoveryError, replan

__all__ = ["RecoveryEvent", "RunReport", "simulate_training_run"]


@dataclass
class RecoveryEvent:
    """One restart: what died, and where the recovery time went.

    The four phases of the breakdown:

    * ``detect`` — failure onset to the runtime learning about it;
    * ``load`` — reading the last checkpoint back from storage;
    * ``reshard`` — moving checkpointed shards onto the new placement
      (the certified cross-mesh resharding);
    * ``warmup`` — re-running the iterations lost since the checkpoint
      on the new topology.

    ``wasted`` is the partial iteration in flight when the host died.
    """

    failure: HostFailure
    mode: str  # "substitute" | "shrink"
    promoted_spares: tuple[int, ...]
    rollback_iterations: int
    detect: float
    load: float
    reshard: float
    warmup: float
    wasted: float
    reshard_bytes: float
    certified: bool

    @property
    def recovery_time(self) -> float:
        return self.detect + self.load + self.reshard + self.warmup + self.wasted


@dataclass
class RunReport:
    """Outcome of one elastic training run."""

    name: str
    method: str
    n_iterations: int
    iterations_completed: int
    completed: bool
    total_time: float
    ideal_time: float
    checkpoint_time: float
    n_checkpoints: int
    events: list[RecoveryEvent] = field(default_factory=list)
    state_digest: str = ""
    aborted_reason: str = ""
    telemetry: Optional[TelemetryBus] = field(
        default=None, repr=False, compare=False
    )

    @property
    def n_restarts(self) -> int:
        return len(self.events)

    @property
    def time_detect(self) -> float:
        return sum(e.detect for e in self.events)

    @property
    def time_load(self) -> float:
        return sum(e.load for e in self.events)

    @property
    def time_reshard(self) -> float:
        return sum(e.reshard for e in self.events)

    @property
    def time_warmup(self) -> float:
        return sum(e.warmup for e in self.events)

    @property
    def time_wasted(self) -> float:
        return sum(e.wasted for e in self.events)

    @property
    def recovery_time(self) -> float:
        return sum(e.recovery_time for e in self.events)

    @property
    def overhead(self) -> float:
        """Fraction of run time not spent on forward progress."""
        if self.total_time <= 0:
            return 0.0
        return (self.total_time - self.ideal_time) / self.total_time

    def __repr__(self) -> str:
        status = "ok" if self.completed else f"ABORTED ({self.aborted_reason})"
        return (
            f"RunReport({self.name}, {status}, "
            f"{self.iterations_completed}/{self.n_iterations} iters, "
            f"{self.n_restarts} restart(s), total={self.total_time:.2f}s, "
            f"overhead={self.overhead:.1%})"
        )


#: the training method every run uses; its edges reshard by broadcast,
#: the strategy recovery replans with
METHOD = "broadcast"


def _init_state(
    n_stages: int, n_elems: int, seed: int
) -> dict[int, np.ndarray]:
    return {
        s: np.random.default_rng((seed, s)).standard_normal(
            n_elems, dtype=np.float32
        )
        for s in range(n_stages)
    }


def _iteration_update(stage: int, iteration: int) -> np.float32:
    """Deterministic pure function of (stage, global iteration index):
    replaying an iteration after a rollback reproduces it exactly."""
    return np.float32((iteration + 1) * 1e-4 + (stage + 1) * 1e-6)


def _digest(state: dict[int, np.ndarray]) -> str:
    """SHA-256 over the final state arrays (stage order).

    Deliberately excludes timing: a recovered run must end in *exactly*
    the state a fault-free run reaches, because warmup replays the same
    deterministic updates from the restored checkpoint.
    """
    h = hashlib.sha256()
    for s in sorted(state):
        h.update(struct.pack("<i", s))
        h.update(state[s].tobytes())
    return h.hexdigest()


def simulate_training_run(
    spec: ParallelJobSpec,
    n_iterations: int,
    faults: Optional[FaultSchedule] = None,
    config: Optional[CheckpointConfig] = None,
    max_restarts: int = 4,
    state_elems_per_stage: int = 1 << 14,
    seed: int = 0,
) -> RunReport:
    """Run ``spec`` for ``n_iterations`` under the broadcast method,
    surviving permanent host loss.

    Returns a :class:`RunReport`; raises :class:`RecoveryError` when a
    failure strikes with no checkpoint to recover from, and
    :class:`~repro.core.verify_data.IntegrityError` if a recovery
    reshard fails data-plane certification.  ``max_restarts`` bounds
    the number of recoveries before the run aborts (reported, not
    raised — operator intervention, not a bug).
    """
    if n_iterations < 1:
        raise ValueError(f"n_iterations must be >= 1, got {n_iterations}")
    config = config if config is not None else CheckpointConfig()
    faults = faults if faults is not None else FaultSchedule()
    store = CheckpointStore(config)

    spec_cur = spec
    meshes = list(spec.stage_meshes)
    n_stages = len(meshes)
    state = _init_state(n_stages, state_elems_per_stage, seed)
    iter_time = run_iteration(spec_cur, METHOD).iteration_time
    ideal_time = n_iterations * iter_time

    kernel = EventLoop()
    bus = kernel.bus
    completed = 0
    used_spares: frozenset[int] = frozenset()
    consumed: set[HostFailure] = set()
    events: list[RecoveryEvent] = []
    result: list[RunReport] = []

    def make_report(
        done: bool, total_time: float, aborted_reason: str = ""
    ) -> RunReport:
        return RunReport(
            name=spec.name,
            method=METHOD,
            n_iterations=n_iterations,
            iterations_completed=completed,
            completed=done,
            total_time=total_time,
            ideal_time=ideal_time,
            checkpoint_time=store.total_write_time,
            n_checkpoints=store.n_writes,
            events=events,
            state_digest=_digest(state),
            aborted_reason=aborted_reason,
            telemetry=bus,
        )

    def next_strike() -> Optional[HostFailure]:
        # A permanent domain failure strikes each working member host.
        working = {h for m in meshes for h in m.hosts}
        strikes = {
            HostFailure(h, o.onset)
            for h in working
            for o in faults.outages.get(h, ())
            if o.permanent
        }
        return min(strikes - consumed, key=lambda f: (f.time, f.host), default=None)

    def recover(strike: HostFailure) -> None:
        """Handle a mid-iteration host death; all state mutations happen
        now, the clock catches up via the scheduled continuation."""
        nonlocal spec_cur, meshes, iter_time, completed, used_spares, state
        t = kernel.now
        consumed.add(strike)
        bus.mark(
            "host-failure",
            track="supervisor",
            host=strike.host,
            failure_time=strike.time,
        )
        if len(events) >= max_restarts:
            result.append(
                make_report(
                    False,
                    max(t, strike.time),
                    aborted_reason=(
                        f"host {strike.host} died at t={strike.time:.2f}s "
                        f"after {max_restarts} restart(s) already spent"
                    ),
                )
            )
            return
        if store.latest is None:
            raise RecoveryError(
                f"host {strike.host} died at t={strike.time:.2f}s with "
                "no checkpoint to recover from (checkpointing disabled?)"
            )
        wasted = max(strike.time - t, 0.0)
        # The world changed: plans compiled for the pre-failure
        # topology must never be served again.  Dropping the cache
        # also bumps its epoch, which is folded into every signature.
        default_plan_cache().invalidate(
            reason=f"host {strike.host} failed at t={strike.time:.2f}s"
        )
        plan = replan(
            spec_cur,
            store.latest,
            faults,
            strike.time,
            used_spares=used_spares,
        )
        load = store.read_time(store.latest)
        meshes = plan.new_meshes
        # A shrunk stage computes slower in proportion to the devices
        # it lost (weak-scaling model); substitution keeps sizes.
        profiles = [
            dataclasses.replace(
                p,
                fwd_time=p.fwd_time * k,
                bwd_x_time=p.bwd_x_time * k,
                bwd_w_time=p.bwd_w_time * k,
            )
            for p, k in (
                (
                    spec.profiles[s],
                    spec.stage_meshes[s].n_devices / meshes[s].n_devices,
                )
                for s in range(n_stages)
            )
        ]
        spec_cur = dataclasses.replace(
            spec_cur, stage_meshes=meshes, profiles=profiles
        )
        used_spares = used_spares | set(plan.used_spares)
        new_iter_time = run_iteration(spec_cur, METHOD).iteration_time
        rollback = completed - store.latest.iteration
        state = {s: a.copy() for s, a in store.latest.arrays.items()}
        completed = store.latest.iteration
        events.append(
            RecoveryEvent(
                failure=strike,
                mode=plan.mode,
                promoted_spares=plan.used_spares,
                rollback_iterations=rollback,
                detect=config.detection_latency,
                load=load,
                reshard=plan.reshard_time,
                warmup=rollback * new_iter_time,
                wasted=wasted,
                reshard_bytes=plan.bytes_moved,
                certified=plan.certified,
            )
        )
        iter_time = new_iter_time
        # Detection may complete while we were still mid-recovery of
        # an earlier failure; never move the clock backwards.
        base = max(strike.time + config.detection_latency, t)
        resharded_at = base + load + plan.reshard_time
        # Make the new placement durable right away: until a fresh
        # checkpoint exists, the old one still references the dead
        # host and a second failure could strand every replica.
        write = store.write(completed, resharded_at, state, meshes)
        t_done = resharded_at + write
        bus.begin(
            f"recovery{len(events) - 1}",
            cat="recovery",
            track="supervisor",
            host=strike.host,
            mode=plan.mode,
        )
        bus.span(
            "detect", "recovery.detect", "supervisor",
            strike.time, strike.time + config.detection_latency,
        )
        bus.span("load", "recovery.load", "supervisor", base, base + load)
        bus.span(
            "reshard", "recovery.reshard", "supervisor", base + load, resharded_at,
            {"bytes_moved": plan.bytes_moved, "certified": plan.certified},
        )
        bus.span(
            "checkpoint", "checkpoint", "supervisor", resharded_at, t_done,
            {"iteration": completed},
        )

        def end_recovery() -> None:
            bus.end("supervisor")
            step()

        kernel.call_at(t_done, end_recovery)

    def step() -> None:
        """One supervisor decision at the current simulated time."""
        nonlocal completed
        t = kernel.now
        if completed >= n_iterations:
            result.append(make_report(True, t))
            return
        strike = next_strike()
        iter_end = t + iter_time
        if strike is not None and strike.time < iter_end:
            recover(strike)  # the iteration in flight is lost
            return
        # ---- a healthy iteration ------------------------------------
        for s in range(n_stages):
            state[s] += _iteration_update(s, completed)
        bus.span(
            f"iter{completed}", "iteration", "supervisor", t, iter_end,
            {"iteration": completed},
        )
        completed += 1
        t_next = iter_end
        if (
            config.enabled
            and completed % config.interval == 0
            and completed < n_iterations
        ):
            write = store.write(completed, t_next, state, meshes)
            bus.span(
                "checkpoint", "checkpoint", "supervisor", t_next, t_next + write,
                {"iteration": completed},
            )
            t_next += write
        kernel.call_at(t_next, step)

    if config.enabled:
        first_write = store.write(0, 0.0, state, meshes)
        bus.span(
            "checkpoint", "checkpoint", "supervisor", 0.0, first_write,
            {"iteration": 0},
        )
        kernel.call_at(first_write, step)
    else:
        kernel.call_at(0.0, step)
    kernel.run()
    assert result, "supervisor ended without producing a report"
    return result[0]
