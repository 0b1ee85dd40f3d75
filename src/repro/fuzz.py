"""Property-based chaos fuzzer for the compile → simulate → verify stack.

Everything in this repo is deterministic under a seed, which makes it
fuzzable the way pure functions are: generate a random (but replayable)
:class:`~repro.sim.faults.FaultSchedule`, throw it at a golden workload,
and assert *properties* instead of golden outputs.  The standing
invariants checked on every run:

1. **No hangs** — the virtual-time simulation terminates and its
   makespan stays under a generous bound derived from the schedule's
   horizon.  A cycle or lost wake-up shows up here, not as a wedged CI
   job.
2. **Delivery integrity or loud failure** — after simulating, either
   :func:`~repro.core.verify_data.verify_delivery` finds every tile
   delivered with nothing unverifiable, or the run's
   :class:`~repro.sim.faults.FaultReport` is ``fatal``.  "Silently
   incomplete" and "silently corrupted" are the bugs this exists to
   catch; compiled plans carry per-slice checksums, so corruption with
   no checksum (``unverified_corruption``) is itself a violation.
3. **Byte-deterministic replay** — compiling and simulating the same
   (workload, schedule) twice yields byte-identical
   :meth:`~repro.runtime.telemetry.TelemetryBus.digest` values.
4. **Analyzer-clean plans** — :func:`~repro.analysis.check_plan` (with
   the fault schedule, so F001/F003 are armed) finds no ERROR in any
   plan the compiler emits, including the re-anchored "replan view"
   compiled after the first permanent failure.
5. **Memory soundness** — the static per-host peak-buffer bound
   (:func:`~repro.analysis.memory_analysis.static_host_bounds`)
   dominates the simulated high-water mark
   (``TimingResult.host_peak_buffers``) on every host of every run.
   The bound is only useful as an admission gate if nothing the
   simulator can do — retries, re-roots, reordering under faults —
   ever pushes real usage above it.

Failing schedules are **shrunk** to a minimal reproducer: events are
removed one at a time while the violation persists, so the saved
fixture names the one fault (or minimal combination) that matters.

``break_reroot=True`` compiles with a deliberately broken re-root pass
(spliced after the real one) that lands fallbacks back inside the
failed host's domain — the self-test proving the fuzzer and the F001
analyzer both catch a real regression.  ``break_memory=True`` simulates
with a deliberately leaky buffer accountant
(:class:`LeakyBufferRunner`) so observed peaks climb past the static
bound — the self-test proving the memory-sound invariant has teeth.

Entry points: :func:`run_fuzz` (library), ``python -m repro fuzz``
(CLI), ``tests/fuzz/`` (pytest), and :func:`campaign_payload`, which
``python -m repro report`` persists as ``BENCH_fuzz.json``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Union

import numpy as np

from . import checks
from .analysis.plan_checker import check_plan
from .compiler import CompileContext, compile_resharding
from .compiler.passes import DEFAULT_PASSES, FaultRewritePass, PlanState
from .core.executor import PlanRunner, TimingResult, simulate_plan
from .core.mesh import DeviceMesh
from .core.plan import CommPlan
from .core.task import ReshardingTask
from .sim.cluster import Cluster, ClusterSpec, FailureDomain
from .sim.faults import FAULT_KINDS, CorruptionWindow, FaultSchedule, RetryPolicy

__all__ = [
    "FuzzWorkload",
    "FuzzViolation",
    "FuzzStats",
    "fuzz_workloads",
    "run_fuzz",
    "campaign_payload",
    "run_one",
    "shrink_schedule",
    "schedule_to_json",
    "schedule_from_json",
    "BrokenRerootPass",
    "LeakyBufferRunner",
]

#: virtual seconds past the schedule horizon before a run counts as hung
HANG_SLACK = 300.0

#: fault-injection window the generated schedules live in (virtual
#: seconds) — sized to overlap the golden workloads' actual runtimes
FUZZ_HORIZON = 0.004


@dataclass(frozen=True)
class FuzzWorkload:
    """One golden workload the fuzzer throws schedules at."""

    name: str
    task: ReshardingTask = field(repr=False)
    strategy: str = "broadcast"

    @property
    def n_hosts(self) -> int:
        return self.task.cluster.spec.n_hosts

    @property
    def domains(self) -> tuple[FailureDomain, ...]:
        return self.task.cluster.spec.failure_domains


def fuzz_workloads() -> list[FuzzWorkload]:
    """The golden workloads: fig5/6/7-shaped reshardings, shrunk.

    Same mesh/spec shapes as the paper figures' micro-benchmarks but
    with small tensors (the flow simulator's cost is flow-count-driven,
    and ``verify_delivery`` allocates per-tile count arrays) and with
    failure domains declared, so correlated faults and domain-aware
    re-rooting are actually exercised.
    """
    out: list[FuzzWorkload] = []

    # fig5-shaped: one sender host broadcasting to a receiving mesh.
    spec5 = ClusterSpec(
        n_hosts=5,
        devices_per_host=2,
        failure_domains=(
            FailureDomain("rack0", (0, 1)),
            FailureDomain("rack1", (2, 3)),
            FailureDomain("rack2", (4,)),
        ),
    )
    c5 = Cluster(spec5)
    out.append(
        FuzzWorkload(
            name="fig5-bcast",
            task=ReshardingTask(
                (16384,),
                DeviceMesh(c5, [[0]]),
                "R",
                DeviceMesh.from_hosts(c5, range(1, 5)),
                "R",
                dtype=np.float32,
            ),
        )
    )

    # fig6-shaped: disjoint cross-mesh reshard with a layout change.
    spec6 = ClusterSpec(
        n_hosts=4,
        devices_per_host=2,
        failure_domains=(
            FailureDomain("rack0", (0, 1)),
            FailureDomain("rack1", (2, 3)),
        ),
    )
    c6 = Cluster(spec6)
    out.append(
        FuzzWorkload(
            name="fig6-crossmesh",
            task=ReshardingTask(
                (128, 128),
                DeviceMesh.from_hosts(c6, (0, 1)),
                "S0R",
                DeviceMesh.from_hosts(c6, (2, 3)),
                "RS1",
                dtype=np.float32,
            ),
        )
    )

    # fig7-shaped: replicated source (a pipeline boundary with the state
    # mirrored across four hosts spanning two racks) feeding a third
    # rack — the workload where sender re-rooting has real choices.
    spec7 = ClusterSpec(
        n_hosts=6,
        devices_per_host=2,
        failure_domains=(
            FailureDomain("rack0", (0, 1)),
            FailureDomain("rack1", (2, 3)),
            FailureDomain("rack2", (4, 5)),
        ),
    )
    c7 = Cluster(spec7)
    out.append(
        FuzzWorkload(
            name="fig7-replicated",
            task=ReshardingTask(
                (128, 128),
                DeviceMesh.from_hosts(c7, (0, 1, 2, 3)),
                "RS1",
                DeviceMesh.from_hosts(c7, (4, 5)),
                "S0R",
                dtype=np.float32,
            ),
        )
    )
    return out


# ----------------------------------------------------------------------
# Schedule <-> JSON (reproducer fixtures)
# ----------------------------------------------------------------------
def schedule_to_json(schedule: FaultSchedule) -> dict[str, Any]:
    """Serialize a schedule losslessly (for reproducer fixtures)."""

    def row(fault) -> dict[str, Any]:
        return {
            k: list(v) if isinstance(v, tuple) else v
            for k, v in dataclasses.asdict(fault).items()
        }

    return {
        "seed": schedule.seed,
        "drop_rate": schedule.drop_rate,
        **{name: [row(f) for f in getattr(schedule, name)] for name in FAULT_KINDS},
    }


def schedule_from_json(raw: dict[str, Any]) -> FaultSchedule:
    """Inverse of :func:`schedule_to_json`."""

    def fault(kind, row: dict[str, Any]):
        return kind(**{k: tuple(v) if isinstance(v, list) else v for k, v in row.items()})

    return FaultSchedule(
        seed=int(raw.get("seed", 0)),
        drop_rate=float(raw.get("drop_rate", 0.0)),
        **{
            name: tuple(fault(kind, row) for row in raw.get(name, ()))
            for name, kind in FAULT_KINDS.items()
        },
    )


def _n_events(schedule: FaultSchedule) -> int:
    return sum(len(getattr(schedule, name)) for name in FAULT_KINDS) + (
        1 if schedule.drop_rate > 0 else 0
    )


# ----------------------------------------------------------------------
# Broken build (self-test)
# ----------------------------------------------------------------------
class BrokenRerootPass:
    """Deliberately wrong re-rooting: land fallbacks back in-domain.

    Spliced after the real :class:`FaultRewritePass`, it re-points every
    fallback whose unit task has a *live in-domain* replica onto that
    replica — exactly the correlated-failure mistake F001 exists to
    reject.  Used only by ``run_fuzz(break_reroot=True)`` to prove the
    fuzzer and the analyzer both catch the regression.
    """

    name = "broken_reroot"

    def run(self, state: PlanState, ctx: CompileContext) -> str:
        faults = ctx.faults
        if faults is None or state.schedule is None:
            return "no-op"
        spec = state.task.cluster.spec
        ut_by_id = {ut.task_id: ut for ut in state.unit_tasks}
        n = 0
        for i, fb in enumerate(state.fallbacks):
            ut = ut_by_id.get(fb.unit_task_id)
            if ut is None:
                continue
            in_domain = [
                h
                for h in sorted(state.task.sender_hosts(ut))
                if h != fb.from_host
                and not faults.host_down(h, 0.0)
                and spec.shares_domain(fb.from_host, h)
            ]
            if not in_domain:
                continue
            state.fallbacks[i] = dataclasses.replace(
                fb, to_host=in_domain[0]
            )
            state.schedule.assignment[fb.unit_task_id] = in_domain[0]
            n += 1
        return f"broke {n} re-root(s)"


def _passes(break_reroot: bool) -> list[Any]:
    passes = DEFAULT_PASSES()
    if break_reroot:
        idx = next(
            i for i, p in enumerate(passes) if isinstance(p, FaultRewritePass)
        )
        passes.insert(idx + 1, BrokenRerootPass())
    return passes


class LeakyBufferRunner(PlanRunner):
    """Deliberately leaky buffer accounting: charge, never release.

    With releases gone, a host's observed "live" bytes are the running
    sum of everything ever delivered to it, so on any multi-op host the
    high-water mark climbs past the serialization-based static bound —
    exactly the accounting drift the memory-sound invariant exists to
    catch.  Used only by ``run_fuzz(break_memory=True)``.  The leak
    touches only the accounting dicts (never the telemetry bus), so
    replay determinism is unaffected.
    """

    def _buffer_release(self, op: Any) -> None:
        pass


def _simulate(
    plan: CommPlan, faults: FaultSchedule, break_memory: bool
) -> TimingResult:
    """Simulate with the real or (self-test) leaky buffer accountant."""
    if break_memory:
        return LeakyBufferRunner(
            plan, faults=faults, retry_policy=RetryPolicy()
        ).run()
    return simulate_plan(plan, faults=faults, retry_policy=RetryPolicy())


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
@dataclass
class FuzzViolation:
    """One invariant violation, with its (shrunk) reproducer schedule."""

    workload: str
    run_index: int
    invariant: str
    detail: str
    schedule: FaultSchedule = field(repr=False)

    def reproducer(self) -> dict[str, Any]:
        return {
            "workload": self.workload,
            "run_index": self.run_index,
            "invariant": self.invariant,
            "detail": self.detail,
            "schedule": schedule_to_json(self.schedule),
        }


@dataclass
class FuzzStats:
    """Aggregate outcome of one fuzzing campaign."""

    runs: int = 0
    events_injected: int = 0
    faults_observed: int = 0
    loud_failures: int = 0
    corruptions_detected: int = 0
    replans_checked: int = 0
    violations: list[FuzzViolation] = field(default_factory=list)
    #: sha256 over every run's telemetry digest, in order — the
    #: campaign-level byte-identity fingerprint
    digest: str = ""

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict[str, Any]:
        return {
            "runs": self.runs,
            "events_injected": self.events_injected,
            "faults_observed": self.faults_observed,
            "loud_failures": self.loud_failures,
            "corruptions_detected": self.corruptions_detected,
            "replans_checked": self.replans_checked,
            "n_violations": len(self.violations),
            "violations": [v.reproducer() for v in self.violations],
            "digest": self.digest,
        }


def _compile(
    workload: FuzzWorkload,
    faults: FaultSchedule,
    break_reroot: bool,
) -> CommPlan:
    strategy: Any = workload.strategy
    if break_reroot:
        # The broadcast scheduler is itself fault-aware, so on a healthy
        # compile it simply never assigns a dead sender and the re-root
        # pass has nothing to do.  The broken build blinds the scheduler
        # (as a buggy deployment might), forcing the re-root path to
        # carry the load — which BrokenRerootPass then does wrongly.
        from .strategies import make_strategy

        strategy = make_strategy(workload.strategy)
        strategy.schedule_uses_faults = False
    compiled = compile_resharding(
        workload.task,
        CompileContext(
            strategy=strategy,
            faults=faults,
            retry_policy=RetryPolicy(),
            cache=None,
            validate=False,  # the fuzzer runs the analyzer itself
            passes=_passes(break_reroot),
        ),
    )
    return compiled.plan


def _check_invariants(
    workload: FuzzWorkload,
    faults: FaultSchedule,
    plan: CommPlan,
    timing: TimingResult,
    phase: str,
) -> list[tuple[str, str]]:
    """Invariants 1, 2, 4, and 5 for one simulated plan."""
    from .analysis.memory_analysis import (
        SOUNDNESS_SLACK_BYTES,
        static_host_bounds,
    )
    from .core.verify_data import verify_delivery

    found: list[tuple[str, str]] = []

    bound = faults.horizon() + HANG_SLACK
    if not math.isfinite(timing.total_time) or timing.total_time > bound:
        found.append(
            (
                "no-hangs",
                f"{phase}: makespan {timing.total_time!r} exceeds virtual-"
                f"time bound {bound:g}",
            )
        )

    loud = timing.fault_report is not None and timing.fault_report.fatal
    report = verify_delivery(plan, timing, strict=False, raise_on_error=False)
    if report.unverifiable_ops:
        found.append(
            (
                "never-silent",
                f"{phase}: compiled plan has unverifiable corruption on "
                f"op(s) {list(report.unverifiable_ops)[:8]} — checksum "
                "stamping failed",
            )
        )
    if (report.gaps or timing.corrupted_ops) and not loud:
        found.append(
            (
                "loud-failure",
                f"{phase}: delivery incomplete (gaps={report.gaps}, "
                f"corrupted={list(timing.corrupted_ops)[:8]}) but the "
                "fault report is not fatal",
            )
        )

    analysis = check_plan(plan, faults=faults)
    if not analysis.ok:
        found.append(
            (
                "analyzer-clean",
                f"{phase}: " + "; ".join(d.format() for d in analysis.errors),
            )
        )

    mem = static_host_bounds(plan)
    for host, observed in sorted(timing.host_peak_buffers.items()):
        bound = mem.per_host.get(host, 0.0)
        if observed > bound + SOUNDNESS_SLACK_BYTES:
            found.append(
                (
                    "memory-sound",
                    f"{phase}: host {host} simulated peak buffer "
                    f"{observed:.0f} B exceeds the static bound "
                    f"{bound:.0f} B",
                )
            )
    return found


def run_one(
    workload: FuzzWorkload,
    schedule: FaultSchedule,
    break_reroot: bool = False,
    break_memory: bool = False,
) -> tuple[list[tuple[str, str]], str, dict[str, int]]:
    """Fuzz one (workload, schedule) pair.

    Returns ``(violations, digest, counters)`` where violations are
    ``(invariant, detail)`` pairs, digest is the steady-state run's
    telemetry digest, and counters feed :class:`FuzzStats`.
    """
    counters = {
        "faults_observed": 0,
        "loud_failures": 0,
        "corruptions_detected": 0,
        "replans_checked": 0,
    }
    found: list[tuple[str, str]] = []
    digest = ""

    def observe(timing: TimingResult) -> None:
        rep = timing.fault_report
        if rep is not None:
            counters["faults_observed"] += rep.n_faults
            if rep.fatal:
                counters["loud_failures"] += 1
        counters["corruptions_detected"] += len(timing.corrupted_ops)

    # Phase A: steady state — compile at t=0, run under the schedule.
    try:
        plan = _compile(workload, schedule, break_reroot)
        timing = _simulate(plan, schedule, break_memory)
    except Exception as exc:  # crash = violation, never acceptable
        return (
            [("no-crash", f"steady: {type(exc).__name__}: {exc}")],
            digest,
            counters,
        )
    observe(timing)
    digest = timing.telemetry.digest()
    found.extend(_check_invariants(workload, schedule, plan, timing, "steady"))

    # Invariant 3: byte-deterministic replay of the same run.
    try:
        plan2 = _compile(workload, schedule, break_reroot)
        timing2 = _simulate(plan2, schedule, break_memory)
        if timing2.telemetry.digest() != digest:
            found.append(
                (
                    "determinism",
                    "steady: same-seed replay produced a different "
                    "telemetry digest",
                )
            )
    except Exception as exc:
        found.append(("no-crash", f"replay: {type(exc).__name__}: {exc}"))

    # Phase B: replan view — re-anchor at the first permanent failure
    # (the compiler now sees dead hosts at t=0 and must re-root around
    # them, domain-aware).
    strike = schedule.first_host_failure()
    if strike is not None:
        counters["replans_checked"] += 1
        faults_now = schedule.shifted(strike.time)
        try:
            plan_b = _compile(workload, faults_now, break_reroot)
            timing_b = _simulate(plan_b, faults_now, break_memory)
        except Exception as exc:
            found.append(("no-crash", f"replan: {type(exc).__name__}: {exc}"))
        else:
            observe(timing_b)
            found.extend(
                _check_invariants(
                    workload, faults_now, plan_b, timing_b, "replan"
                )
            )
    return found, digest, counters


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
def _one_step_reductions(schedule: FaultSchedule):
    """Yield every schedule with exactly one event removed."""
    for name in FAULT_KINDS:
        items = getattr(schedule, name)
        for i in range(len(items)):
            yield dataclasses.replace(
                schedule, **{name: items[:i] + items[i + 1 :]}
            )
    if schedule.drop_rate > 0:
        yield dataclasses.replace(schedule, drop_rate=0.0)


#: candidate evaluations a shrink may spend
MAX_SHRINK_STEPS = 200


def shrink_schedule(
    schedule: FaultSchedule,
    still_fails: Callable[[FaultSchedule], bool],
) -> FaultSchedule:
    """Greedily remove events while ``still_fails`` holds (to fixpoint).

    The result is 1-minimal: removing any single remaining event makes
    the violation disappear (or ``MAX_SHRINK_STEPS`` candidate
    evaluations ran out — generated schedules carry at most a dozen
    events, so in practice the fixpoint is always reached).
    """
    current = schedule
    steps = 0
    improved = True
    while improved and steps < MAX_SHRINK_STEPS:
        improved = False
        for cand in _one_step_reductions(current):
            steps += 1
            if still_fails(cand):
                current = cand
                improved = True
                break
            if steps >= MAX_SHRINK_STEPS:
                break
    return current


# ----------------------------------------------------------------------
# Campaign
# ----------------------------------------------------------------------
def _generate_schedule(
    seed: int, index: int, workload: FuzzWorkload
) -> FaultSchedule:
    """A deterministic, class-diverse schedule for run ``index``."""
    schedule = FaultSchedule.generate(
        seed=seed * 1_000_003 + index,
        n_hosts=workload.n_hosts,
        horizon=FUZZ_HORIZON,
        n_degradations=index % 3,
        n_flaps=(index + 1) % 2,
        drop_rate=0.05 if index % 4 == 0 else 0.0,
        n_host_failures=index % 2,
        domains=workload.domains,
        n_domain_failures=1 if index % 3 == 1 else 0,
        n_partitions=1 if index % 3 == 2 else 0,
        n_corruptions=index % 3,
        max_window_frac=0.5,
    )
    if index % 3 == 2:
        # Randomly-placed corruption windows rarely intersect the short
        # flow burst near t=0; to actually exercise the gray-failure
        # detection path, every third run pins a wide window over a
        # receiving host's NIC for the whole run (retries included).
        hosts = sorted(set(workload.task.dst_mesh.hosts))
        schedule = dataclasses.replace(
            schedule,
            corruptions=schedule.corruptions
            + (
                CorruptionWindow(
                    host=hosts[index % len(hosts)],
                    start=0.0,
                    duration=1.0,
                    rate=0.75,
                ),
            ),
        )
    return schedule


def run_fuzz(
    runs: int = 100,
    seed: int = 0,
    break_reroot: bool = False,
    break_memory: bool = False,
    shrink: bool = True,
    save_repros_dir: Optional[Union[str, Path]] = None,
) -> FuzzStats:
    """Run a fuzzing campaign: ``runs`` seeded schedules over the
    golden workloads (round-robin), asserting the standing invariants
    on every run.

    On violation the schedule is shrunk to a 1-minimal reproducer
    (unless ``shrink=False``) and, when ``save_repros_dir`` is given,
    written there as JSON loadable via :func:`schedule_from_json`.
    """
    checks.integer("runs", runs, 0)
    wls = fuzz_workloads()
    stats = FuzzStats()
    h = hashlib.sha256()
    for index in range(runs):
        workload = wls[index % len(wls)]
        schedule = _generate_schedule(seed, index, workload)
        stats.runs += 1
        stats.events_injected += _n_events(schedule)
        found, digest, counters = run_one(
            workload, schedule, break_reroot, break_memory
        )
        h.update(digest.encode())
        for key, value in counters.items():
            setattr(stats, key, getattr(stats, key) + value)
        if not found:
            continue
        minimal = schedule
        if shrink:
            invariants = {inv for inv, _ in found}

            def still_fails(cand: FaultSchedule) -> bool:
                got, _, _ = run_one(workload, cand, break_reroot, break_memory)
                return any(inv in invariants for inv, _ in got)

            minimal = shrink_schedule(schedule, still_fails)
            found, _, _ = run_one(workload, minimal, break_reroot, break_memory)
        for invariant, detail in found:
            stats.violations.append(
                FuzzViolation(
                    workload=workload.name,
                    run_index=index,
                    invariant=invariant,
                    detail=detail,
                    schedule=minimal,
                )
            )
        if save_repros_dir is not None:
            out = Path(save_repros_dir)
            out.mkdir(parents=True, exist_ok=True)
            path = out / f"{workload.name}-seed{seed}-run{index}.json"
            path.write_text(
                json.dumps(
                    {
                        "workload": workload.name,
                        "seed": seed,
                        "run_index": index,
                        "invariants": sorted({inv for inv, _ in found}),
                        "schedule": schedule_to_json(minimal),
                    },
                    indent=2,
                    sort_keys=True,
                )
                + "\n",
                encoding="utf-8",
            )
    stats.digest = h.hexdigest()
    return stats


def campaign_payload() -> dict[str, Any]:
    """Deterministic ``BENCH_fuzz.json`` payload: the 25-run campaign.

    Raises unless the campaign finds zero violations and exercises every
    detection path: faults observed, loud failures, detected corruptions
    and analyzer-checked replans.
    """
    stats = run_fuzz(runs=25, seed=0)
    if stats.violations:
        raise RuntimeError(
            "fuzz campaign found violations: "
            + "; ".join(
                f"[{v.invariant}] {v.workload} run {v.run_index}: {v.detail}"
                for v in stats.violations
            )
        )
    payload = stats.to_json()
    payload.pop("violations")  # always empty here; keep the artifact flat
    for key in ("faults_observed", "loud_failures", "corruptions_detected", "replans_checked"):
        if not payload[key]:
            raise RuntimeError(f"fuzz campaign never exercised {key}")
    return payload
