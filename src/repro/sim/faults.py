"""Deterministic fault injection for the simulated cluster.

The paper evaluates broadcast-based resharding on a healthy, fixed-
bandwidth cluster; real fleets are not so kind.  This module models the
failure classes a production deployment of the system would face —

* **link degradation**: a host's NIC runs at a fraction of its nominal
  bandwidth for a window (congestion, cable errors, thermal throttling);
* **host NIC flaps**: a host's NIC is *down* for a window; flows through
  it fail mid-flight and newly arriving flows fail fast;
* **flow drops**: an individual transfer is lost (checksum failure,
  switch buffer overrun) and detected at its expected delivery instant;
* **permanent host failures**: a host dies at an instant and never comes
  back (kernel panic, hardware fault, spot instance reclaim) — the
  fail-stop model.

Everything is **deterministic and replayable**: a :class:`FaultSchedule`
is pure data generated from a seed, and all per-flow decisions (drop or
not, backoff jitter) are derived from seeded hashes of stable ids rather
than global RNG state — two runs with the same schedule produce
byte-identical event traces regardless of wall-clock, process hash
randomization, or interleaving of unrelated work.

The consumers are :class:`repro.sim.network.LossyNetwork` (flow
failures, retries, time-varying capacity), the compiler (failure-aware
sender selection and re-rooting), and the fuzzer, whose replan view compiles
under the schedule re-anchored at the first permanent failure
(:meth:`FaultSchedule.first_host_failure`,
:meth:`FaultSchedule.shifted`).  The pipeline executor simulates
fault-free iterations.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .. import checks

__all__ = [
    "seeded_uniform",
    "FaultInterval",
    "DegradedWindow",
    "FlapWindow",
    "HostFailure",
    "DomainFailure",
    "Partition",
    "CorruptionWindow",
    "FAULT_KINDS",
    "FaultSchedule",
    "RetryPolicy",
    "FaultIncident",
    "FaultReport",
]


def seeded_uniform(*key) -> float:
    """Deterministic uniform in [0, 1) keyed by ``key``.

    Uses :class:`random.Random` with a string seed (SHA-512 based), so
    the draw is stable across processes and PYTHONHASHSEED values.  The
    whole repo has this one source of seeded randomness: the network
    keys per-flow drops with it, and the service layer
    (:mod:`repro.service.chaos`) its per-request chaos decisions.
    """
    return random.Random(":".join(str(k) for k in key)).random()


# ----------------------------------------------------------------------
# Fault windows (pure data)
# ----------------------------------------------------------------------
class FaultInterval:
    """What every fault kind shares: the half-open interval ``[onset, end)``.

    Declares no dataclass fields, so each kind's ``repr``, equality,
    hash, :func:`dataclasses.asdict` and positional construction are
    exactly those of its own fields.  A kind names its onset field in
    ``_ONSET`` (``start`` for windows, ``time`` for failures); a kind
    with no ``duration``, or ``duration=None``, is permanent.  The
    windows share ``__post_init__``'s check; the failures replace it.
    """

    _ONSET = "start"

    def __post_init__(self) -> None:
        """Reject a window that could never strike or never end."""
        checks.real("start", self.start, "(-inf, inf)")
        checks.real("duration", self.duration, "(0, inf)")

    @property
    def onset(self) -> float:
        return getattr(self, self._ONSET)

    @property
    def permanent(self) -> bool:
        return getattr(self, "duration", None) is None

    @property
    def end(self) -> float:
        """``onset + duration``; infinite for a permanent failure."""
        return math.inf if self.permanent else self.onset + self.duration

    def active(self, t: float) -> bool:
        return self.onset <= t < self.end

    def clipped(self, origin: float):
        """This fault as seen from a run starting at ``origin``.

        None when it is over by then.  The onset moves back by
        ``origin``, clamped at 0.0, and a window keeps only its remaining
        duration; a permanent failure never ends, so one that struck
        before ``origin`` is dead from 0.0.
        """
        if self.end <= origin:
            return None
        onset = max(self.onset - origin, 0.0)
        changes = {self._ONSET: onset}
        if not self.permanent:
            changes["duration"] = self.end - origin - onset
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class DegradedWindow(FaultInterval):
    """Host NIC runs at ``factor`` x nominal bandwidth during the window."""

    host: int
    start: float
    duration: float
    factor: float

    def __post_init__(self) -> None:
        checks.host("host", self.host)
        super().__post_init__()
        checks.real("factor", self.factor, "(0, 1)")


@dataclass(frozen=True)
class FlapWindow(FaultInterval):
    """Host NIC is down (zero capacity) during the window."""

    host: int
    start: float
    duration: float

    def __post_init__(self) -> None:
        checks.host("host", self.host)
        super().__post_init__()


@dataclass(frozen=True)
class HostFailure(FaultInterval):
    """Host dies permanently at ``time`` (fail-stop; it never recovers).

    Unlike a :class:`FlapWindow` the outage has no end: every flow
    through the host fails from ``time`` on, and no retry can succeed;
    only a plan that avoids the host (a re-root) gets its data through.
    """

    _ONSET = "time"

    host: int
    time: float

    def __post_init__(self) -> None:
        checks.host("host", self.host)
        checks.real("time", self.time, "[0, inf)")


@dataclass(frozen=True)
class DomainFailure(FaultInterval):
    """One correlated event downs every host of a failure domain at once.

    ``hosts`` is the member list (snapshot of the
    :class:`repro.sim.cluster.FailureDomain` at schedule-build time, so
    the schedule stays self-contained pure data); ``domain`` names it for
    reporting.  ``duration=None`` is fail-stop: the whole rack dies at
    ``time`` and never comes back (breaker trip, ToR bricked).  A finite
    ``duration`` is a correlated outage window: every member NIC is down
    for the window and comes back (switch reboot).
    """

    _ONSET = "time"

    domain: str
    hosts: tuple[int, ...]
    time: float
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.hosts:
            raise ValueError(f"domain failure {self.domain!r} downs no hosts")
        for h in self.hosts:
            checks.host("hosts", h)
        checks.real("time", self.time, "[0, inf)")
        if self.duration is not None:
            checks.real("duration", self.duration, "(0, inf)")


@dataclass(frozen=True)
class Partition(FaultInterval):
    """Asymmetric network partition: ``src_hosts`` cannot reach ``dst_hosts``.

    Distinct from host-down: every member NIC keeps full capacity for all
    other traffic, but flows from a source host to a destination host in
    the window fail (fast on admission, killed mid-flight at onset).
    Reachability is *directional* — the reverse path works unless a
    second Partition covers it — modelling gray routing faults
    (asymmetric ACL pushes, one-way link corrosion, split-brain spines).
    """

    src_hosts: tuple[int, ...]
    dst_hosts: tuple[int, ...]
    start: float
    duration: float

    def __post_init__(self) -> None:
        if not self.src_hosts or not self.dst_hosts:
            raise ValueError("partition needs non-empty src and dst host sets")
        for h in self.src_hosts:
            checks.host("src_hosts", h)
        for h in self.dst_hosts:
            checks.host("dst_hosts", h)
        super().__post_init__()


@dataclass(frozen=True)
class CorruptionWindow(FaultInterval):
    """Gray NIC: flows through ``host`` complete on time but deliver bad bytes.

    The network simulator never fails these flows — they finish with
    normal timing and the collective proceeds, exactly like a silently
    corrupting NIC/DMA engine.  Detection is end-to-end only: per-slice
    checksums stamped on :class:`repro.core.plan.CommOp` at emission let
    the executor and :mod:`repro.core.verify_data` catch the corruption
    after the fact.  ``rate`` is the per-delivery corruption probability,
    decided by a seeded hash of the flow id.
    """

    host: int
    start: float
    duration: float
    rate: float = 1.0

    def __post_init__(self) -> None:
        checks.host("host", self.host)
        super().__post_init__()
        checks.real("rate", self.rate, "(0, 1]")


#: schedule field name -> fault class, in :class:`FaultSchedule` field
#: order.  Whatever walks every fault of a schedule (boundaries, horizon,
#: re-anchoring, serialization, shrinking) iterates this table.
FAULT_KINDS: dict[str, type[FaultInterval]] = {
    "degradations": DegradedWindow,
    "flaps": FlapWindow,
    "host_failures": HostFailure,
    "domain_failures": DomainFailure,
    "partitions": Partition,
    "corruptions": CorruptionWindow,
}


# ----------------------------------------------------------------------
# Schedule
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultSchedule:
    """A replayable fault scenario: windows plus a per-flow drop rate.

    The schedule is pure data; :meth:`generate` builds a randomized one
    from a seed, and the same seed always yields the identical schedule.
    ``drop_rate`` applies per delivery attempt, decided by a seeded hash
    of the flow's stable id — independent of submission interleaving.
    """

    seed: int = 0
    degradations: tuple[DegradedWindow, ...] = ()
    flaps: tuple[FlapWindow, ...] = ()
    drop_rate: float = 0.0
    host_failures: tuple[HostFailure, ...] = ()
    domain_failures: tuple[DomainFailure, ...] = ()
    partitions: tuple[Partition, ...] = ()
    corruptions: tuple[CorruptionWindow, ...] = ()

    def __post_init__(self) -> None:
        checks.integer("seed", self.seed, -math.inf)
        checks.real("drop_rate", self.drop_rate, "[0, 1)")

    # -- host outages --------------------------------------------------
    @cached_property
    def outages(self) -> dict[int, tuple[FaultInterval, ...]]:
        """Per host, every fault that takes its NIC down.

        Derived once per schedule: domain failures, then host failures,
        then flaps, each in schedule order — widest blast radius first.
        Every host-outage query reads this view.  It is not a dataclass
        field, so it never enters ``repr``, equality or hashing.
        """
        view: dict[int, list[FaultInterval]] = {}
        for d in self.domain_failures:
            for h in d.hosts:
                view.setdefault(h, []).append(d)
        for f in self.host_failures + self.flaps:
            view.setdefault(f.host, []).append(f)
        return {h: tuple(faults) for h, faults in view.items()}

    def outage_at(self, host: int, t: float) -> Optional[FaultInterval]:
        """The fault downing ``host``'s NIC at ``t`` (None while it is up).

        When several overlap, the widest blast radius wins: a
        :class:`DomainFailure` beats a :class:`HostFailure` beats a
        :class:`FlapWindow`.
        """
        return next((o for o in self.outages.get(host, ()) if o.active(t)), None)

    def host_down(self, host: int, t: float) -> bool:
        """True while ``host``'s NIC is flapped down — or dead — at ``t``."""
        return self.outage_at(host, t) is not None

    def host_dead(self, host: int, t: float) -> bool:
        """True once ``host`` has permanently failed at or before ``t``."""
        return any(o.permanent and o.onset <= t for o in self.outages.get(host, ()))

    def first_host_failure(self, after: float = 0.0) -> Optional[HostFailure]:
        """Earliest permanent failure at or after ``after`` (None if clear).

        Permanent :class:`DomainFailure` events count too — each is
        reported as a :class:`HostFailure` of its lowest member host (the
        blast radius is every host :meth:`host_dead` then reports).
        """
        return min(
            (
                HostFailure(h, o.onset)
                for h, faults in self.outages.items()
                for o in faults
                if o.permanent and o.onset >= after
            ),
            key=lambda f: (f.time, f.host),
            default=None,
        )

    def failed_domain_of(self, host: int, t: float) -> Optional[str]:
        """Name of a failure domain downing ``host`` at ``t`` (None if none).

        Covers both permanent and windowed domain failures; used for
        fault attribution (``domain-down`` incidents) and the F003 analyzer
        check.
        """
        o = self.outage_at(host, t)
        return o.domain if isinstance(o, DomainFailure) else None

    # -- partitions ----------------------------------------------------
    def partitioned(self, src_host: int, dst_host: int, t: float) -> bool:
        """True while ``src_host`` cannot reach ``dst_host`` at ``t``."""
        return any(
            p.active(t) and src_host in p.src_hosts and dst_host in p.dst_hosts
            for p in self.partitions
        )

    # -- gray corruption -----------------------------------------------
    def should_corrupt(self, hosts, t: float, *key) -> bool:
        """Deterministically decide whether one delivery is corrupted.

        ``hosts`` are the hosts whose NICs the flow traverses.  Every
        active window on them is an independent corruption source, so the
        delivery is corrupted with probability ``1 - prod(1 - rate)``.
        The draw is keyed on the schedule seed plus the flow's stable id,
        so replays corrupt the identical deliveries.
        """
        if not self.corruptions:
            return False
        clean = 1.0
        for h in hosts:
            host_clean = 1.0
            for w in self.corruptions:
                if w.host == h and w.active(t):
                    host_clean *= 1.0 - w.rate
            host_rate = 1.0 - host_clean
            clean *= 1.0 - host_rate
        rate = 1.0 - clean
        if rate <= 0.0:
            return False
        return seeded_uniform(self.seed, "corrupt", *key) < rate

    def nic_factor(self, host: int, t: float) -> float:
        """Capacity multiplier of ``host``'s NIC at ``t`` (0 when down)."""
        if self.host_down(host, t):
            return 0.0
        factor = 1.0
        for w in self.degradations:
            if w.host == host and w.active(t):
                factor *= w.factor
        return factor

    def mean_nic_factor(self, host: int, horizon: Optional[float] = None) -> float:
        """Time-averaged capacity factor of ``host`` over ``[0, horizon]``.

        Used by the failure-aware scheduler load model: a host degraded
        for half the horizon at factor 0.5 looks like a 0.75x host.
        Floored at 1e-6 so fully-flapped hosts stay orderable.
        """
        if horizon is None:
            horizon = self.horizon()
        if horizon <= 0.0:
            # An already-dead host must stay maximally unattractive even
            # over an empty averaging window (e.g. a schedule whose only
            # fault is a failure at t=0, as replanning produces).
            return 1e-6 if self.host_dead(host, 0.0) else 1.0
        cuts = sorted(
            {0.0, horizon}
            | {min(max(b, 0.0), horizon) for b in self.boundaries()}
        )
        acc = 0.0
        for lo, hi in zip(cuts, cuts[1:]):
            if hi > lo:
                acc += self.nic_factor(host, lo) * (hi - lo)
        return max(acc / horizon, 1e-6)

    def boundaries(self) -> tuple[float, ...]:
        """Sorted instants at which any NIC's capacity or reachability changes.

        Partition edges are included even though capacity is untouched:
        the network re-examines in-flight flows at every boundary, which
        is how a partition onset kills flows already crossing it.
        Corruption windows (decided at delivery time) never change flow
        timing and contribute nothing.
        """
        return tuple(sorted({
            b
            for name in FAULT_KINDS
            if name != "corruptions"
            for w in getattr(self, name)
            for b in (w.onset, w.end)
            if b < math.inf
        }))

    def horizon(self) -> float:
        """End of the last fault window (0.0 for an all-clear schedule).

        Permanent failures contribute their onset instant (they have no
        end); the averaging in :meth:`mean_nic_factor` therefore counts a
        dead host's capacity as zero from that instant on.
        """
        return max(
            (
                w.onset if w.permanent else w.end
                for name in FAULT_KINDS
                for w in getattr(self, name)
            ),
            default=0.0,
        )

    # -- re-anchoring ---------------------------------------------------
    def shifted(self, origin: float) -> "FaultSchedule":
        """The schedule as seen from a run starting at time ``origin``.

        Each simulation starts its own event loop at t=0; this re-anchors
        every fault with :meth:`FaultInterval.clipped`.  Windows fully in
        the past are dropped, windows straddling the origin are clipped
        to their remaining duration, and past permanent failures stay
        dead at t=0 — but are *clipped to one event per victim*: a host
        that failed three times before the origin becomes a single t=0
        failure, not three redundant ones.  ``seed`` and ``drop_rate``
        are preserved.
        """
        if origin < 0:
            raise ValueError(f"origin must be >= 0, got {origin}")
        if origin == 0.0:
            return self
        kinds = {}
        for name in FAULT_KINDS:
            out: list[FaultInterval] = []
            for w in getattr(self, name):
                c = w.clipped(origin)
                # A dead host cannot die again: identical t=0 failures
                # collapse to the first.
                if c is not None and not (c.permanent and c.onset == 0.0 and c in out):
                    out.append(c)
            kinds[name] = tuple(out)
        return dataclasses.replace(self, **kinds)

    # -- per-attempt decisions -----------------------------------------
    def should_drop(self, *key) -> bool:
        """Deterministically decide whether one delivery attempt is lost."""
        if self.drop_rate <= 0.0:
            return False
        return seeded_uniform(self.seed, "drop", *key) < self.drop_rate

    # -- construction ---------------------------------------------------
    @classmethod
    def generate(
        cls,
        seed: int,
        n_hosts: int,
        horizon: float,
        n_degradations: int = 2,
        n_flaps: int = 1,
        drop_rate: float = 0.0,
        max_window_frac: float = 0.25,
        n_host_failures: int = 0,
        domains: tuple = (),
        n_domain_failures: int = 0,
        n_partitions: int = 0,
        n_corruptions: int = 0,
    ) -> "FaultSchedule":
        """Build a randomized, replayable schedule for ``n_hosts`` hosts.

        Window starts, durations, victims, and severities are drawn from
        ``random.Random(seed)``; the same arguments always produce the
        identical schedule.

        The correlated and gray classes draw via :func:`seeded_uniform`
        keyed on ``(seed, class, index)`` instead of the sequential
        stream, so enabling them never perturbs the independent events a
        seed produced before they existed.  ``domains`` (a tuple of
        :class:`repro.sim.cluster.FailureDomain`) supplies the victim
        pool for domain failures and partitions; with it empty,
        ``n_domain_failures`` is ignored and partitions split single
        hosts off the fabric.
        """
        checks.integer("seed", seed, -math.inf)
        checks.integer("n_hosts", n_hosts, 1)
        checks.real("horizon", horizon, "(0, inf)")
        checks.real("max_window_frac", max_window_frac, "(0, inf)")
        for name, n in (("n_degradations", n_degradations), ("n_flaps", n_flaps),
                        ("n_host_failures", n_host_failures),
                        ("n_domain_failures", n_domain_failures),
                        ("n_partitions", n_partitions), ("n_corruptions", n_corruptions)):
            checks.integer(name, n, 0)
        rng = random.Random(int(seed))
        max_dur = max_window_frac * horizon
        checks.real("the shortest window, 0.05 x max_window_frac x horizon,",
                    0.05 * max_dur, "(0, inf)")

        def window() -> tuple[float, float]:
            """``(start, duration)`` from the sequential stream."""
            return rng.uniform(0.0, horizon), rng.uniform(0.05 * max_dur, max_dur)

        def keyed(kind: str, i: int, what: str) -> float:
            return seeded_uniform(seed, kind, i, what)

        def keyed_window(kind: str, i: int) -> tuple[float, float]:
            """``(start, duration)`` keyed on ``(seed, kind, i)``."""
            return keyed(kind, i, "time") * horizon, (
                (0.05 + 0.95 * keyed(kind, i, "dur")) * max_window_frac * horizon
            )

        # a degraded NIC keeps 20-90 % of its bandwidth
        degradations = tuple(
            DegradedWindow(rng.randrange(n_hosts), *window(), rng.uniform(0.2, 0.9))
            for _ in range(n_degradations)
        )
        flaps = tuple(FlapWindow(rng.randrange(n_hosts), *window()) for _ in range(n_flaps))
        failed: list[int] = []
        failures = []
        for _ in range(n_host_failures):
            candidates = [h for h in range(n_hosts) if h not in failed]
            if not candidates:
                break
            host = candidates[rng.randrange(len(candidates))]
            failed.append(host)
            failures.append(HostFailure(host=host, time=rng.uniform(0.0, horizon)))

        # Correlated + gray classes: independent keyed draws so that
        # n_*=0 reproduces the historical schedule byte-for-byte.
        dom_failures: list[DomainFailure] = []
        struck: list[str] = []
        if domains:
            for i in range(n_domain_failures):
                pool = [d for d in domains if d.name not in struck]
                if not pool:
                    break
                dom = pool[int(keyed("domfail", i, "which") * len(pool))]
                struck.append(dom.name)
                onset, duration = keyed_window("domfail", i)
                permanent = keyed("domfail", i, "perm") < 0.5
                dom_failures.append(
                    DomainFailure(
                        dom.name, tuple(dom.hosts), onset, None if permanent else duration
                    )
                )
        partitions: list[Partition] = []
        for i in range(n_partitions):
            if domains:
                srcs = tuple(domains[int(keyed("part", i, "src") * len(domains))].hosts)
            else:
                srcs = (int(keyed("part", i, "src") * n_hosts),)
            dsts = tuple(h for h in range(n_hosts) if h not in srcs)
            if dsts:
                partitions.append(Partition(srcs, dsts, *keyed_window("part", i)))
        corruptions = tuple(
            CorruptionWindow(
                int(keyed("corrwin", i, "host") * n_hosts),
                *keyed_window("corrwin", i),
                0.25 + 0.75 * keyed("corrwin", i, "rate"),
            )
            for i in range(n_corruptions)
        )
        return cls(
            seed=seed,
            degradations=degradations,
            flaps=flaps,
            drop_rate=drop_rate,
            host_failures=tuple(failures),
            domain_failures=tuple(dom_failures),
            partitions=tuple(partitions),
            corruptions=corruptions,
        )


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """How the runtime retries failed transfers.

    Backoff for attempt ``a`` (1-based; the delay precedes attempt
    ``a+1``) is ``backoff_base * backoff_factor**(a-1)`` stretched by a
    deterministic jitter in ``[0, jitter)`` derived from the flow id —
    retries of concurrent flows de-synchronize identically in every run.
    """

    max_attempts: int = 6
    backoff_base: float = 1e-3
    backoff_factor: float = 2.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        checks.integer("max_attempts", self.max_attempts, 1)
        checks.real("backoff_base", self.backoff_base, "[0, inf)")
        checks.real("backoff_factor", self.backoff_factor, "[1, inf)")
        checks.real("jitter", self.jitter, "[0, 1]")

    def backoff(self, attempt: int, *key) -> float:
        """Delay before retrying after failed attempt ``attempt`` (1-based)."""
        base = self.backoff_base * self.backoff_factor ** (attempt - 1)
        return base * (1.0 + self.jitter * seeded_uniform("backoff", attempt, *key))

    def exhausted(self, attempt: int) -> bool:
        return attempt >= self.max_attempts


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultIncident:
    """One observed fault: what failed, when, and how it ended."""

    kind: str  # "dropped" | "nic-flap" | "host-down" | "partition" | ...
    where: str  # e.g. "flow 12 d0->d4"
    time: float
    attempt: int = 1
    resolved: bool = True


@dataclass
class FaultReport:
    """Structured outcome of a run under fault injection.

    ``status`` is ``"clean"`` (no fault struck), ``"recovered"`` (faults
    struck, every one was retried to success), or ``"fatal"`` (at least
    one transfer was abandoned / the run could not complete).
    ``added_latency`` estimates the simulated time lost to failed
    attempts and backoff waits.

    Post-hoc status changes (e.g. the plan executor discovering that ops
    never delivered) must go through :meth:`escalate`, never direct
    field mutation, so ``escalations`` keeps an auditable record of who
    demoted the report and from which prior status.
    """

    status: str
    n_faults: int = 0
    n_retries: int = 0
    n_abandoned: int = 0
    added_latency: float = 0.0
    detail: str = ""
    incidents: list[FaultIncident] = field(default_factory=list)
    escalations: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.status not in ("clean", "recovered", "fatal"):
            raise ValueError(f"unknown status {self.status!r}")

    def escalate(self, detail: str) -> None:
        """Escalate this report to ``fatal``, recording the provenance.

        ``detail`` says what was discovered (appended to ``detail``);
        the transition itself is logged in ``escalations`` as
        ``"<old-status>->fatal: <detail>"``.
        """
        if not detail:
            raise ValueError("an escalation must say why")
        self.escalations.append(f"{self.status}->fatal: {detail}")
        self.status = "fatal"
        self.detail = f"{self.detail}; {detail}" if self.detail else detail

    @property
    def fatal(self) -> bool:
        return self.status == "fatal"

    def __repr__(self) -> str:
        return (
            f"FaultReport({self.status}, faults={self.n_faults}, "
            f"retries={self.n_retries}, abandoned={self.n_abandoned}, "
            f"added_latency={self.added_latency:.6f}s)"
        )
