"""Circuit breaker around the plan compiler.

When the compiler starts failing persistently (a bad pass deployment, a
poisoned dependency, systematic timeouts), hammering it with every
queued request multiplies the damage: workers burn their time on doomed
compiles and every tenant's latency collapses together.  The breaker
implements the standard three-state machine:

``closed``
    normal operation; consecutive failures are counted, successes reset
    the count.  :attr:`~BreakerConfig.failure_threshold` consecutive
    failures **open** the breaker.
``open``
    compiles are refused outright for :attr:`~BreakerConfig.cooldown`
    service seconds.  The service layer answers from its plan cache
    where it can (``degraded=True``) and sheds otherwise.
``half_open``
    after the cooldown, up to :attr:`~BreakerConfig.half_open_probes`
    requests are let through as probes.  Any probe failure re-opens the
    breaker (restarting the cooldown); all probes succeeding closes it.

State changes are appended to :attr:`CircuitBreaker.transitions` as
``(time, from_state, to_state)`` so tests and telemetry can assert the
exact trajectory.

Failures carry a **kind**.  ``kind="compile"`` (the default) means the
compiler itself misbehaved and counts toward tripping the breaker.
``kind="partition"`` means the attempt died of a *network partition*
between the frontend and the worker — the compiler may be perfectly
healthy, we just couldn't reach it — so it is tallied separately
(:attr:`CircuitBreaker.partition_failures`) and never advances the
consecutive-failure count or re-opens a probing breaker.  Conflating
the two turns every switch hiccup into a full cooldown during which
healthy compiles are refused; distinguishing them is what lets the
service degrade *only* for the faults the breaker can actually help
with.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import checks

__all__ = ["BreakerConfig", "CircuitBreaker"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerConfig:
    """Static breaker policy."""

    #: consecutive compile failures that trip the breaker
    failure_threshold: int = 5
    #: service seconds the breaker stays open before probing
    cooldown: float = 1.0
    #: successful probes required to close from half-open
    half_open_probes: int = 2

    def __post_init__(self) -> None:
        checks.integer("failure_threshold", self.failure_threshold, 1)
        checks.real("cooldown", self.cooldown, "(0, inf)")
        checks.integer("half_open_probes", self.half_open_probes, 1)


class CircuitBreaker:
    """The closed / open / half-open state machine (clock passed in)."""

    def __init__(self, config: BreakerConfig) -> None:
        self.config = config
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self.probes_in_flight = 0
        self.probe_successes = 0
        #: partition-induced failures seen (telemetry; never trip the breaker)
        self.partition_failures = 0
        #: (time, from_state, to_state) history, oldest first
        self.transitions: list[tuple[float, str, str]] = []

    def _move(self, to_state: str, now: float) -> None:
        self.transitions.append((now, self.state, to_state))
        self.state = to_state

    # ------------------------------------------------------------------
    # Gate
    # ------------------------------------------------------------------
    def allow(self, now: float) -> str:
        """Gate one compile: ``"allow"``, ``"probe"``, or ``"reject"``.

        A ``"probe"`` verdict reserves one half-open probe slot; the
        caller **must** follow up with :meth:`record_success` or
        :meth:`record_failure` to release it.
        """
        if self.state == OPEN:
            if now - self.opened_at >= self.config.cooldown:
                self._move(HALF_OPEN, now)
                self.probes_in_flight = 0
                self.probe_successes = 0
            else:
                return "reject"
        if self.state == HALF_OPEN:
            if self.probes_in_flight >= self.config.half_open_probes:
                return "reject"
            self.probes_in_flight += 1
            return "probe"
        return "allow"

    # ------------------------------------------------------------------
    # Outcomes
    # ------------------------------------------------------------------
    def record_success(self, now: float) -> None:
        if self.state == HALF_OPEN:
            self.probes_in_flight -= 1
            self.probe_successes += 1
            if self.probe_successes >= self.config.half_open_probes:
                self._move(CLOSED, now)
                self.consecutive_failures = 0
        else:
            self.consecutive_failures = 0

    def record_failure(self, now: float, kind: str = "compile") -> None:
        """Record one failed attempt.

        ``kind="partition"`` marks a partition-induced timeout: the slot
        (if this was a probe) is released, the separate
        :attr:`partition_failures` counter advances, and the breaker's
        compile-health state is left untouched — an unreachable worker
        is not evidence of a broken compiler.
        """
        if kind not in ("compile", "partition"):
            raise ValueError(
                f"unknown failure kind {kind!r}; expected 'compile' or "
                f"'partition'"
            )
        if kind == "partition":
            self.partition_failures += 1
            if self.state == HALF_OPEN:
                self.probes_in_flight -= 1
            return
        if self.state == HALF_OPEN:
            self.probes_in_flight -= 1
            self._move(OPEN, now)
            self.opened_at = now
            self.consecutive_failures = self.config.failure_threshold
            return
        if self.state == CLOSED:
            self.consecutive_failures += 1
            if self.consecutive_failures >= self.config.failure_threshold:
                self._move(OPEN, now)
                self.opened_at = now

    # ------------------------------------------------------------------
    @property
    def is_open(self) -> bool:
        return self.state == OPEN

    def retry_after(self, now: float) -> float:
        """Service seconds until the breaker will next admit a probe."""
        if self.state != OPEN:
            return 0.0
        return max(0.0, self.config.cooldown - (now - self.opened_at))

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker({self.state}, "
            f"failures={self.consecutive_failures}, "
            f"transitions={len(self.transitions)})"
        )
