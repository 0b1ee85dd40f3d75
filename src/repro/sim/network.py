"""Flow-level network simulator with max-min fair bandwidth sharing.

Every transfer between two devices is modelled as a *flow* traversing a
set of full-duplex *ports*:

* ``dev_send(d)`` / ``dev_recv(d)``  — the device's NVLink ports;
* ``nic_send(h)`` / ``nic_recv(h)`` — the host NIC ports, only traversed
  by cross-host flows.

At any instant, concurrent flows share port capacity by progressive
filling (max-min fairness), which captures the paper's assumption that
"when multiple devices in a single host send data to another host, they
compete for the communication bandwidth at the host's network interface"
while a device can send and receive at full rate simultaneously (full
duplex).

Rates are recomputed whenever a flow starts or finishes; the event loop
advances directly to the earliest completion, so simulation cost is
``O(events x flows x ports)`` — comfortably fast for cluster sizes in the
paper (dozens of devices, thousands of flows).

The network runs on the unified runtime kernel
(:class:`~repro.runtime.kernel.EventLoop`) and reports through its
telemetry bus: every delivered/failed/abandoned flow attempt is emitted
as a ``cat="flow"`` span, byte totals are counters, and fault incidents
are marks.  ``Network.trace`` is a *derived view* over those spans (the
legacy :class:`FlowRecord` format), not separate bookkeeping.

**Fault tolerance** (optional): constructed with a
:class:`~repro.sim.faults.FaultSchedule`, the network becomes lossy —
NIC capacities vary over time (degradation windows), flows through a
flapped-down NIC fail mid-flight (partial progress lost) or fail fast on
arrival, and individual deliveries can be dropped.  Failed flows are
retried under a :class:`~repro.sim.faults.RetryPolicy` (bounded
attempts, exponential backoff with deterministic jitter, optional
per-attempt timeout); exhausted flows are *abandoned* and reported via
the ``on_abandon`` callback.  The trace distinguishes first-try
(``ok``), retried-to-success (``retried``), per-attempt ``failed``, and
``abandoned`` records.  Without a schedule every fault hook is skipped,
so the healthy path is byte-identical to the fault-free simulator.

Failure attribution is causal, not just symptomatic: a flow killed by a
correlated :class:`~repro.sim.faults.DomainFailure` records a
``domain-down`` incident, a lone dead host ``host-down``, a flap
``nic-flap``/``nic-down`` — so ``FaultReport.categories()`` can tell a
rack loss from a flaky NIC.  Asymmetric
:class:`~repro.sim.faults.Partition` windows are honoured distinctly
from host-down: affected src→dst flows fail (``partition``) while all
other traffic through the same NICs proceeds at full rate.  Gray
:class:`~repro.sim.faults.CorruptionWindow` events never fail a flow at
all: the delivery completes with normal timing, is marked
``corrupted`` in the trace, and is only caught downstream by per-slice
checksums (:mod:`repro.core.verify_data`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..runtime.kernel import Event, EventLoop
from ..runtime.telemetry import SpanRow, TelemetryBus
from .cluster import Cluster
from .faults import FaultIncident, FaultReport, FaultSchedule, RetryPolicy
from .solver import RateSolver, ScalarSolver

__all__ = ["Flow", "FlowRecord", "Network"]


# Slotted: tens of thousands are alive at once in large simulations, and
# the rate solvers touch `rate`/`remaining` on every reallocation.
@dataclass(slots=True)
class Flow:
    """A point-to-point transfer in flight."""

    flow_id: int
    src: int
    dst: int
    nbytes: float
    remaining: float
    ports: tuple[str, ...]
    on_complete: Optional[Callable[["Flow"], None]] = None
    tag: str = ""
    submit_time: float = 0.0
    start_time: float = -1.0  # when it became active (post-latency)
    finish_time: float = -1.0
    rate: float = 0.0
    attempts: int = 1
    abandoned: bool = False
    on_abandon: Optional[Callable[["Flow"], None]] = None
    timeout_event: Optional[Event] = None
    #: fixed startup latency re-applied on every retry attempt
    base_latency: float = 0.0

    @property
    def done(self) -> bool:
        return self.finish_time >= 0.0


@dataclass(frozen=True)
class FlowRecord:
    """Immutable trace entry for one disposition of a flow.

    ``status`` is ``"ok"`` (delivered first try), ``"retried"``
    (delivered after at least one failure), ``"failed"`` (one failed
    attempt; the flow lives on), or ``"abandoned"`` (retry budget
    exhausted, data never delivered).
    """

    flow_id: int
    src: int
    dst: int
    nbytes: float
    submit_time: float
    start_time: float
    finish_time: float
    tag: str = ""
    attempts: int = 1
    status: str = "ok"

    @property
    def duration(self) -> float:
        """Active transfer time; queue-inclusive for never-active flows.

        Flows that never became bandwidth-active (``start_time == -1``,
        e.g. fast-failed against a down NIC) are measured from
        ``submit_time`` instead of producing a nonsensical negative
        value.
        """
        if self.start_time < 0.0:
            return self.finish_time - self.submit_time
        return self.finish_time - self.start_time

    @property
    def queued_time(self) -> float:
        """Time spent between submission and becoming bandwidth-active."""
        active_from = self.start_time if self.start_time >= 0.0 else self.finish_time
        return active_from - self.submit_time


def _flow_record_from_row(row: SpanRow) -> FlowRecord:
    """Rebuild the legacy record from one raw ``cat="flow"`` span row."""
    a = row[7]
    return FlowRecord(
        flow_id=int(a["flow_id"]),  # type: ignore[arg-type]
        src=int(a["src"]),  # type: ignore[arg-type]
        dst=int(a["dst"]),  # type: ignore[arg-type]
        nbytes=float(a["nbytes"]),  # type: ignore[arg-type]
        submit_time=float(a["submit_time"]),  # type: ignore[arg-type]
        start_time=float(a["active_start"]),  # type: ignore[arg-type]
        finish_time=row[4],
        tag=str(a["tag"]),
        attempts=int(a["attempts"]),  # type: ignore[arg-type]
        status=str(a["status"]),
    )


class Network:
    """Simulates timed data transfers over a :class:`Cluster`.

    Flows are submitted with :meth:`start_flow`; their completion
    callbacks typically submit further flows (that is how the collective
    primitives in :mod:`repro.sim.primitives` chain ring hops).  Call
    ``network.loop.run()`` to drive everything to completion.
    """

    def __init__(
        self,
        cluster: Cluster,
        faults: Optional[FaultSchedule] = None,
        retry_policy: Optional[RetryPolicy] = None,
        solver: Optional[RateSolver] = None,
    ) -> None:
        self.cluster = cluster
        self.loop = EventLoop()
        self.bus: TelemetryBus = self.loop.bus
        self._active: dict[int, Flow] = {}
        #: the max-min fixpoint backend (see :mod:`repro.sim.solver`)
        self.solver: RateSolver = solver if solver is not None else ScalarSolver()
        self.solver.attach(self)
        self._next_id = 0
        self._completion_event: Optional[Event] = None
        self._expected_finish: list[int] = []
        self._last_update = 0.0
        self._trace_view: list[FlowRecord] = []
        self._trace_cursor = 0
        self.bytes_cross_host = 0.0
        self.bytes_intra_host = 0.0
        self._c_cross = self.bus.counter("bytes_cross_host", track="net")
        self._c_intra = self.bus.counter("bytes_intra_host", track="net")
        # -- fault tolerance (all no-ops when faults is None) ----------
        self.faults = faults
        self.retry_policy = retry_policy or RetryPolicy()
        self.n_failures = 0
        self.n_retries = 0
        self.n_abandoned = 0
        self.wasted_bytes = 0.0  # transferred by attempts that failed
        self.added_latency = 0.0  # estimated time lost to faults
        self.incidents: list[FaultIncident] = []
        self.n_corrupted = 0
        #: (tag, flow_id) of deliveries that completed with bad bytes —
        #: the executor joins these against CommOp checksums
        self.corrupted_flows: list[tuple[str, int]] = []
        if faults is not None:
            # NIC capacity is piecewise-constant between fault window
            # boundaries; revisit rate allocation (and kill flows caught
            # on a flapped NIC) exactly at those instants.
            for b in faults.boundaries():
                if b > self.loop.now:
                    self.loop.call_at(b, self._on_fault_boundary)

    # ------------------------------------------------------------------
    # Port model
    # ------------------------------------------------------------------
    def _ports_for(self, src: int, dst: int) -> tuple[str, ...]:
        c = self.cluster
        if c.same_host(src, dst):
            return (f"ds{src}", f"dr{dst}")
        a, b = c.device(src), c.device(dst)
        # Contended fabric ports (switch uplinks, torus edges, override
        # pipes) sit between the two NICs.  The two-tier baseline has
        # none, so its port tuples — and the max-min fixpoint's float
        # arithmetic — are byte-identical to the pre-topology model.
        mid = c.topo.transit_ports(a.host_id, b.host_id, a.local_id, b.local_id)
        return (f"ds{src}", f"ns{a.host_id}") + mid + (f"nr{b.host_id}", f"dr{dst}")

    def _port_capacity(self, port: str) -> float:
        spec = self.cluster.spec
        if port[0] == "d":
            return spec.intra_host_bandwidth
        if port[0] == "n":
            bw = spec.host_nic_bandwidth(int(port[2:]))
            if self.faults is not None:
                bw *= self.faults.nic_factor(int(port[2:]), self.loop.now)
            return bw
        return self.cluster.topo.port_capacity(port)

    def _nic_down_for(self, flow: Flow) -> bool:
        """True if any NIC port the flow traverses is flapped down now."""
        assert self.faults is not None
        now = self.loop.now
        return any(
            p[0] == "n" and self.faults.host_down(int(p[2:]), now)
            for p in flow.ports
        )

    def _down_reason_for(self, flow: Flow, flap_kind: str) -> Optional[str]:
        """Causal incident kind if a traversed NIC is down, else None.

        Priority: a correlated domain outage beats an independent host
        death beats a flap — when several explanations overlap, the
        incident blames the widest blast radius.  ``flap_kind`` names the
        flap case ("nic-down" fast-fail vs "nic-flap" mid-flight).
        """
        assert self.faults is not None
        now = self.loop.now
        reason = None
        for p in flow.ports:
            if p[0] != "n":
                continue
            h = int(p[2:])
            if not self.faults.host_down(h, now):
                continue
            if self.faults.failed_domain_of(h, now) is not None:
                return "domain-down"
            if self.faults.host_dead(h, now):
                reason = "host-down"
            elif reason is None:
                reason = flap_kind
        return reason

    def _partition_blocked(self, flow: Flow) -> bool:
        """True while an asymmetric partition blocks this flow's path."""
        assert self.faults is not None
        if not self.faults.partitions:
            return False
        c = self.cluster
        if c.same_host(flow.src, flow.dst):
            return False
        return self.faults.partitioned(
            c.host_of(flow.src), c.host_of(flow.dst), self.loop.now
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def start_flow(
        self,
        src: int,
        dst: int,
        nbytes: float,
        on_complete: Optional[Callable[[Flow], None]] = None,
        tag: str = "",
        extra_latency: float = 0.0,
        on_abandon: Optional[Callable[[Flow], None]] = None,
        ports: Optional[tuple[str, ...]] = None,
        latency: Optional[float] = None,
    ) -> Flow:
        """Submit a transfer of ``nbytes`` from device ``src`` to ``dst``.

        The flow becomes bandwidth-active after the link's fixed startup
        latency (plus ``extra_latency``, e.g. software overhead), then
        progresses at its max-min fair rate until done.  ``on_complete``
        fires at the finish instant.  Under fault injection a flow that
        exhausts its retry budget fires ``on_abandon`` instead (never
        both).

        ``ports``/``latency`` override the routed path: collective
        primitives that traverse only a *segment* of the fabric (e.g.
        the switch-replicated legs of a multicast) price exactly the
        resources that segment holds instead of a full device-to-device
        path.
        """
        if src == dst:
            raise ValueError("flow source and destination must differ")
        if nbytes < 0:
            raise ValueError(f"negative flow size: {nbytes}")
        base = (
            latency if latency is not None else self.cluster.link_latency(src, dst)
        )
        flow = Flow(
            flow_id=self._next_id,
            src=src,
            dst=dst,
            nbytes=float(nbytes),
            remaining=float(nbytes),
            ports=ports if ports is not None else self._ports_for(src, dst),
            on_complete=on_complete,
            tag=tag,
            submit_time=self.loop.now,
            on_abandon=on_abandon,
            base_latency=base,
        )
        self._next_id += 1
        self.loop.call_after(base + extra_latency, lambda: self._activate(flow))
        return flow

    # ------------------------------------------------------------------
    # Telemetry: the bus is the source of truth; `trace` is a view
    # ------------------------------------------------------------------
    def _emit_flow(
        self, flow: Flow, status: str, finish_time: Optional[float] = None
    ) -> None:
        """Emit one flow disposition as a ``cat="flow"`` span."""
        finish = flow.finish_time if finish_time is None else finish_time
        start = flow.start_time if flow.start_time >= 0.0 else flow.submit_time
        self.bus.span(
            flow.tag or f"flow{flow.flow_id}",
            "flow",
            f"dev:{flow.src}",
            start,
            finish,
            {
                "flow_id": flow.flow_id,
                "src": flow.src,
                "dst": flow.dst,
                "nbytes": flow.nbytes,
                "submit_time": flow.submit_time,
                "active_start": flow.start_time,
                "attempts": flow.attempts,
                "status": status,
                "tag": flow.tag,
            },
        )

    @property
    def trace(self) -> list[FlowRecord]:
        """Flow dispositions as legacy :class:`FlowRecord`\\ s.

        Derived from the telemetry bus's ``flow`` spans.  The view is
        incremental: a cursor over the bus's raw span rows appends only
        the records emitted since the last access, instead of scanning
        and rebuilding the whole span list every time.
        """
        rows = self.bus.span_rows
        cursor = self._trace_cursor
        if cursor < len(rows):
            view = self._trace_view
            for row in rows[cursor:]:
                if row[1] == "flow":
                    view.append(_flow_record_from_row(row))
            self._trace_cursor = len(rows)
        return self._trace_view

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _activate(self, flow: Flow) -> None:
        self._advance_to_now()
        if self.faults is not None:
            reason = self._down_reason_for(flow, "nic-down")
            if reason is None and self._partition_blocked(flow):
                reason = "partition"
            if reason is not None:
                # Fast-fail: the transfer cannot start (NIC down or the
                # destination is unreachable from here).  start_time
                # stays -1 — the flow never became active.
                self._fail_flow(flow, reason)
                self._reallocate_and_schedule()
                return
        flow.start_time = self.loop.now
        if flow.remaining <= 0.0:
            self._finish(flow)
        else:
            self._active[flow.flow_id] = flow
            self.solver.flow_added(flow)
            self._arm_timeout(flow)
        self._reallocate_and_schedule()

    def _advance_to_now(self) -> None:
        """Drain bytes transferred since the last rate update."""
        now = self.loop.now
        dt = now - self._last_update
        if dt > 0.0:
            for f in self._active.values():
                f.remaining = max(0.0, f.remaining - f.rate * dt)
        self._last_update = now

    def _reallocate_and_schedule(self) -> None:
        self.solver.solve()
        if not self._active:
            if self._completion_event is not None:
                self._completion_event.cancel()
                self._completion_event = None
            return
        # Two cheap passes instead of building a per-reallocation dict:
        # the first finds the earliest ETA, the second collects ties.
        next_eta = float("inf")
        for f in self._active.values():
            if f.rate > 0:
                eta = f.remaining / f.rate
                if eta < next_eta:
                    next_eta = eta
        if next_eta == float("inf"):  # pragma: no cover - defensive
            raise RuntimeError("active flows with zero rate: allocation bug")
        # Flows whose ETA ties the minimum (within float tolerance) are
        # force-finished at the event, so rounding residue in `remaining`
        # can never stall the simulation at a fixed timestamp.
        bound = next_eta + 1e-12 * max(next_eta, 1.0) + 1e-15
        self._expected_finish = [
            fid
            for fid, f in self._active.items()
            if f.rate > 0 and f.remaining / f.rate <= bound
        ]
        when = self.loop.now + next_eta
        armed = self._completion_event
        if armed is not None:
            if armed.time == when and not armed.cancelled:
                # The completion instant did not move: keep the armed
                # event instead of churning the heap with a cancel +
                # re-push pair (lazy cancellation's common case).
                return
            armed.cancel()
        self._completion_event = self.loop.call_at(when, self._on_completion)

    def _on_completion(self) -> None:
        self._completion_event = None
        self._advance_to_now()
        for fid in self._expected_finish:
            if fid in self._active:
                self._active[fid].remaining = 0.0
        self._expected_finish = []
        finished = [f for f in self._active.values() if f.remaining <= 0.0]
        for f in finished:
            del self._active[f.flow_id]
            self.solver.flow_removed(f)
        # Finish callbacks may submit new flows; they will trigger their
        # own reallocation on activation, but we reallocate here too in
        # case no new flows appear.
        for f in finished:
            self._finish(f)
        self._reallocate_and_schedule()

    def _finish(self, flow: Flow) -> None:
        corrupted = False
        if self.faults is not None:
            self._cancel_timeout(flow)
            if self.faults.should_drop(flow.flow_id, flow.attempts):
                # Lost in transit: the bandwidth was spent, the payload
                # was not delivered — detected at the delivery instant.
                flow.remaining = 0.0
                self._fail_flow(flow, "dropped")
                return
            if self.faults.corruptions:
                # Gray failure: the delivery completes with normal
                # timing but the bytes are bad.  The network does NOT
                # fail or retry the flow — nothing at this layer can
                # see the corruption; only end-to-end checksums
                # (executor + verify_data) catch it downstream.
                hosts = sorted(
                    {int(p[2:]) for p in flow.ports if p[0] == "n"}
                )
                corrupted = self.faults.should_corrupt(
                    hosts, self.loop.now, flow.flow_id, flow.attempts
                )
        flow.finish_time = self.loop.now
        flow.remaining = 0.0
        if self.cluster.same_host(flow.src, flow.dst):
            self.bytes_intra_host += flow.nbytes
            self._c_intra.add(flow.nbytes)
        else:
            self.bytes_cross_host += flow.nbytes
            self._c_cross.add(flow.nbytes)
        if corrupted:
            self.n_corrupted += 1
            self.corrupted_flows.append((flow.tag, flow.flow_id))
            self.incidents.append(
                FaultIncident(
                    kind="corruption",
                    where=(
                        f"flow {flow.flow_id} d{flow.src}->d{flow.dst} "
                        f"[{flow.tag}]"
                    ),
                    time=self.loop.now,
                    attempt=flow.attempts,
                    resolved=False,  # nothing at this layer resolves it
                )
            )
            self._emit_flow(flow, "corrupted")
        else:
            self._emit_flow(flow, "ok" if flow.attempts == 1 else "retried")
        if flow.on_complete is not None:
            flow.on_complete(flow)

    # ------------------------------------------------------------------
    # Fault machinery (reached only when a FaultSchedule is installed)
    # ------------------------------------------------------------------
    def _record(self, flow: Flow, status: str) -> None:
        self._emit_flow(flow, status, finish_time=self.loop.now)

    def _fail_flow(self, flow: Flow, reason: str) -> None:
        """One attempt failed: record it and retry or abandon."""
        if self._active.pop(flow.flow_id, None) is not None:
            self.solver.flow_removed(flow)
        self._cancel_timeout(flow)
        now = self.loop.now
        self.n_failures += 1
        if flow.start_time >= 0.0:
            self.wasted_bytes += flow.nbytes - flow.remaining
        attempt_began = flow.start_time if flow.start_time >= 0.0 else now
        exhausted = self.retry_policy.exhausted(flow.attempts)
        self.incidents.append(
            FaultIncident(
                kind=reason,
                where=f"flow {flow.flow_id} d{flow.src}->d{flow.dst} [{flow.tag}]",
                time=now,
                attempt=flow.attempts,
                resolved=not exhausted,
            )
        )
        if exhausted:
            self.n_abandoned += 1
            flow.abandoned = True
            flow.finish_time = now
            self._record(flow, "abandoned")
            if flow.on_abandon is not None:
                flow.on_abandon(flow)
            return
        self._record(flow, "failed")
        delay = self.retry_policy.backoff(flow.attempts, self.faults.seed, flow.flow_id)
        self.added_latency += (now - attempt_began) + delay
        self.n_retries += 1
        flow.attempts += 1
        flow.remaining = flow.nbytes
        flow.start_time = -1.0
        flow.rate = 0.0
        # The flow's own base latency, not a fresh route lookup: custom-
        # port flows (multicast segments) must retry over the same path.
        self.loop.call_after(
            delay + flow.base_latency, lambda: self._activate(flow)
        )

    def _arm_timeout(self, flow: Flow) -> None:
        if self.faults is None or self.retry_policy.flow_timeout is None:
            return
        attempt = flow.attempts
        flow.timeout_event = self.loop.call_after(
            self.retry_policy.flow_timeout,
            lambda: self._on_flow_timeout(flow, attempt),
        )

    def _cancel_timeout(self, flow: Flow) -> None:
        if flow.timeout_event is not None:
            flow.timeout_event.cancel()
            flow.timeout_event = None

    def _on_flow_timeout(self, flow: Flow, attempt: int) -> None:
        if self._active.get(flow.flow_id) is not flow or flow.attempts != attempt:
            return  # already finished / failed / retried
        self._advance_to_now()
        self._fail_flow(flow, "timeout")
        self._reallocate_and_schedule()

    def _on_fault_boundary(self) -> None:
        """A fault window opened or closed: rates change right now."""
        self._advance_to_now()
        victims: list[tuple[Flow, str]] = []
        for f in self._active.values():
            # Mid-flight kill: partial progress is lost.  Attribution is
            # causal (domain-down > host-down > nic-flap > partition).
            reason = self._down_reason_for(f, "nic-flap")
            if reason is None and self._partition_blocked(f):
                reason = "partition"
            if reason is not None:
                victims.append((f, reason))
        for f, reason in victims:
            self._fail_flow(f, reason)
        self._reallocate_and_schedule()

    def fault_report(self) -> Optional[FaultReport]:
        """Summary of fault activity; ``None`` without a FaultSchedule.

        Gray corruption does *not* move ``status`` here: at the flow
        layer the delivery looked healthy, which is the point of a gray
        failure.  Corruption incidents are in ``incidents`` (and hence
        ``categories()``); the executor escalates the report to fatal
        when per-op checksums expose the bad bytes.
        """
        if self.faults is None:
            return None
        if self.n_abandoned:
            status = "fatal"
        elif self.n_failures:
            status = "recovered"
        else:
            status = "clean"
        return FaultReport(
            status=status,
            n_faults=self.n_failures,
            n_retries=self.n_retries,
            n_abandoned=self.n_abandoned,
            added_latency=self.added_latency,
            incidents=list(self.incidents),
        )

    # ------------------------------------------------------------------
    @property
    def active_flows(self) -> int:
        return len(self._active)

    def run(self, until: Optional[float] = None) -> float:
        """Drive the event loop until all flows complete."""
        return self.loop.run(until=until)
