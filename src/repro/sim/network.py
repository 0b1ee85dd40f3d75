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
advances directly to the earliest completion.  A full progressive fill
costs ``O(flows x ports)`` per round, but the solver runs it only when
the arriving or departing flow shares a port with another active flow
(or the network's capacities vary in time): a flow alone on its ports
costs ``O(ports)`` to add or remove, and the solve that follows is a
no-op.  Chunk-pipelined ring hops are mostly alone on their ports, so
most solves skip the fill.  The active set is small (most solves see
zero to three flows), so the cost is per-event bookkeeping rather than
arithmetic, and the network keeps that constant small:

* **A flow** costs one chained comparison that accepts a valid
  :meth:`Network.start_flow` call (a call it fails re-runs the checks
  one at a time, to raise the first error), a hit in the
  ``(src, dst) -> (ports, latency)`` route table (custom
  ``ports=``/``latency=`` flows bypass it), one positional
  :class:`Flow` and one kernel push.  On activation the solver counts
  its ports; a flow alone on them takes the minimum of their static
  capacities, memoized per port tuple.  On delivery it appends one raw
  span row to the bus and one sample to a byte counter; a device ->
  host table and a device -> ``dev:<d>`` track table answer the
  lookups.
* **A reallocation** costs one solve call and one walk over the active
  set for the earliest ETA (each ETA kept for the tie set); the
  completion event is re-pushed only when its instant moved.

Every float operation on ``remaining``, ``rate`` and the completion
instant is the one the golden digests pin, in the same order.

The network runs on the unified runtime kernel
(:class:`~repro.runtime.kernel.EventLoop`) and reports through its
telemetry bus: every delivered flow is emitted as a ``cat="flow"`` span
and byte totals are counters.  A flow's record is its span, held once,
in the bus: read ``[s for s in network.bus.spans if s.cat == "flow"]``.
:meth:`LossyNetwork._emit_flow` lists the span's attrs and statuses.

:class:`Network` is fault-free by construction: the paper's healthy,
fixed-bandwidth cluster.  Faults live in one subclass,
:class:`LossyNetwork`, which :func:`repro.core.executor.simulate_plan`
builds only when it is given a :class:`~repro.sim.faults.FaultSchedule`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Optional

from ..runtime.kernel import EventLoop
from ..runtime.telemetry import TelemetryBus
from .cluster import Cluster
from .faults import (
    DomainFailure,
    FaultIncident,
    FaultReport,
    FaultSchedule,
    HostFailure,
    RetryPolicy,
)
from .solver import RateSolver, ScalarSolver

__all__ = ["Flow", "Network", "LossyFlow", "LossyNetwork"]

_INF = math.inf


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

    @property
    def done(self) -> bool:
        return self.finish_time >= 0.0


class Network:
    """Simulates timed data transfers over a :class:`Cluster`.

    Flows are submitted with :meth:`start_flow`; their completion
    callbacks typically submit further flows (that is how the collective
    primitives in :mod:`repro.sim.primitives` chain ring hops).  Call
    ``network.loop.run()`` to drive everything to completion.
    """

    #: whether a port's capacity can change during a run; the rate
    #: solvers memoize and skip fills only when it cannot
    capacity_varies: ClassVar[bool] = False

    def __init__(self, cluster: Cluster, solver: Optional[RateSolver] = None) -> None:
        self.cluster = cluster
        # A cluster never changes once built, so a device's host, a
        # route, and a port's capacity are computed once.
        self._host_of: list[int] = [d.host_id for d in cluster.devices]
        self._n_devices = len(self._host_of)
        #: telemetry track of each device's flows
        self._dev_track: list[str] = [f"dev:{d.device_id}" for d in cluster.devices]
        self._routes: dict[tuple[int, int], tuple[tuple[str, ...], float]] = {}
        self._base_capacity: dict[str, float] = {}
        #: what :meth:`start_flow` builds (an instance attribute: cheap per flow)
        self._flow_class: type[Flow] = Flow
        self.loop = EventLoop()
        self.bus: TelemetryBus = self.loop.bus
        self._active: dict[int, Flow] = {}
        #: the max-min fixpoint backend (see :mod:`repro.sim.solver`)
        self.solver: RateSolver = solver if solver is not None else ScalarSolver()
        self.solver.attach(self)
        self._next_id = 0
        self._completion_event: Optional[list[Any]] = None
        self._expected_finish: list[int] = []
        self._last_update = 0.0
        self.bytes_cross_host = 0.0
        self.bytes_intra_host = 0.0
        self._c_cross = self.bus.counter("bytes_cross_host", track="net")
        self._c_intra = self.bus.counter("bytes_intra_host", track="net")

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

    def _route(self, src: int, dst: int) -> tuple[tuple[str, ...], float]:
        """Memoized ``(ports, startup latency)`` of the routed src->dst path."""
        route = self._routes.get((src, dst))
        if route is None:
            route = (self._ports_for(src, dst), self.cluster.link_latency(src, dst))
            self._routes[(src, dst)] = route
        return route

    def _port_capacity(self, port: str) -> float:
        bw = self._base_capacity.get(port)
        if bw is None:
            bw = self._base_capacity[port] = self._static_capacity(port)
        return bw

    def _static_capacity(self, port: str) -> float:
        """Nominal capacity of ``port``."""
        spec = self.cluster.spec
        if port[0] == "d":
            return spec.intra_host_bandwidth
        if port[0] == "n":
            return spec.host_nic_bandwidth(int(port[2:]))
        return self.cluster.topo.port_capacity(port)

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
        ports: Optional[tuple[str, ...]] = None,
        latency: Optional[float] = None,
    ) -> Flow:
        """Submit a transfer of ``nbytes`` from device ``src`` to ``dst``.

        The flow becomes bandwidth-active after the link's fixed startup
        latency, then progresses at its max-min fair rate until done.
        ``on_complete`` fires at the finish instant.

        ``ports``/``latency`` override the routed path: collective
        primitives that traverse only a *segment* of the fabric (e.g.
        the switch-replicated legs of a multicast) price exactly the
        resources that segment holds instead of a full device-to-device
        path; ``ports`` must name at least one port (``ValueError``).

        ``src`` and ``dst`` must be integer device ids of the cluster
        (``KeyError``) and differ; ``nbytes`` must be finite and
        non-negative; ``latency`` (when given) must lie in ``[0, inf)``
        and must not overflow the clock.  Every other bad value raises
        ``ValueError`` naming the argument.  A rejected call changes
        nothing: it takes no flow id and schedules no event.
        """
        # One chained test passes a valid call; a call it fails re-runs
        # the checks one at a time, in order, to raise the first error.
        if not (
            type(src) is int is type(dst)
            and 0 <= src < self._n_devices > dst >= 0
            and src != dst
            and 0.0 <= nbytes < _INF
            and (latency is None or 0.0 <= latency < _INF)
            and (ports is None or ports)
        ):
            self._check_flow(src, dst, nbytes, ports, latency)
        if ports is None or latency is None:
            route = self._routes.get((src, dst)) or self._route(src, dst)
            if ports is None:
                ports = route[0]
            if latency is None:
                latency = route[1]
        loop = self.loop
        now = loop.now
        # call_after's instant; the delay is checked above, the sum here.
        when = now + latency
        if when == _INF:
            raise ValueError(f"latency overflows the clock: {now!r} + {latency!r}")
        flow_id = self._next_id
        self._next_id = flow_id + 1
        nbytes = float(nbytes)
        # Positional, in field order: flow_id, src, dst, nbytes, remaining,
        # ports, on_complete, tag, submit_time, start_time, finish_time, rate.
        flow = self._flow_class(
            flow_id, src, dst, nbytes, nbytes, ports, on_complete, tag, now,
            -1.0, -1.0, 0.0,
        )
        loop.call_at(when, self._activate, flow)
        return flow

    def _check_flow(
        self,
        src: Any,
        dst: Any,
        nbytes: Any,
        ports: Optional[tuple[str, ...]],
        latency: Any,
    ) -> None:
        """Raise the first error in :meth:`start_flow`'s arguments, if any.

        Reached only when :meth:`start_flow`'s one test fails; a call
        that passes here anyway (device ids that are numpy ints) goes on
        as usual.
        """
        if src == dst:
            raise ValueError("flow source and destination must differ")
        if nbytes < 0:
            raise ValueError(f"negative flow size: {nbytes}")
        if not math.isfinite(nbytes):
            raise ValueError(f"non-finite flow size: {nbytes}")
        n_devices = self._n_devices
        for d in (src, dst):
            # A negative id would silently wrap in the device -> host
            # table; a float or bool one is no id the tables know.
            if (
                isinstance(d, bool)
                or not isinstance(d, numbers.Integral)
                or not 0 <= d < n_devices
            ):
                raise KeyError(f"no device {d} in cluster of {n_devices}")
        if ports is not None and not ports:
            # A flow through no port would have no bottleneck, hence no
            # finite max-min rate.
            raise ValueError("a flow must traverse at least one port")
        if latency is not None and not 0.0 <= latency < _INF:
            raise ValueError(f"latency must be finite and non-negative, got {latency!r}")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _activate(self, flow: Flow) -> None:
        self._advance_to_now()
        flow.start_time = self.loop.now
        if flow.remaining <= 0.0:
            self._finish(flow)
        else:
            self._active[flow.flow_id] = flow
            self.solver.flow_added(flow)
        self._reallocate_and_schedule()

    def _advance_to_now(self) -> None:
        """Drain bytes transferred since the last rate update."""
        now = self.loop.now
        dt = now - self._last_update
        if dt > 0.0:
            for f in self._active.values():
                # Exactly max(0.0, remaining), -0.0 and NaN included
                # (both clamp to 0.0), without the call.
                remaining = f.remaining - f.rate * dt
                f.remaining = remaining if remaining > 0.0 else 0.0
        self._last_update = now

    def _reallocate_and_schedule(self) -> None:
        self.solver.solve()
        active = self._active
        if not active:
            if self._completion_event is not None:
                self.loop.cancel(self._completion_event)
                self._completion_event = None
            return
        # One walk: the earliest ETA, and each ETA kept for the ties.
        next_eta = math.inf
        etas = []
        for fid, f in active.items():
            if f.rate > 0:
                eta = f.remaining / f.rate
                etas.append((fid, eta))
                if eta < next_eta:
                    next_eta = eta
        if next_eta == math.inf:  # pragma: no cover - defensive
            raise RuntimeError("active flows with zero rate: allocation bug")
        # Flows whose ETA ties the minimum (within float tolerance) are
        # force-finished at the event, so rounding residue in `remaining`
        # can never stall the simulation at a fixed timestamp.
        bound = next_eta + 1e-12 * max(next_eta, 1.0) + 1e-15
        self._expected_finish = [fid for fid, eta in etas if eta <= bound]
        when = self.loop.now + next_eta
        armed = self._completion_event
        if armed is not None:
            # armed is the kernel entry [time, seq, fn, args]
            if armed[0] == when and armed[2] is not None:
                # The completion instant did not move: keep the armed
                # event instead of churning the heap with a cancel +
                # re-push pair (lazy cancellation's common case).
                return
            self.loop.cancel(armed)
        self._completion_event = self.loop.call_at(when, self._on_completion)

    def _on_completion(self) -> None:
        self._completion_event = None
        self._advance_to_now()
        active = self._active
        for fid in self._expected_finish:
            f = active.get(fid)
            if f is not None:
                f.remaining = 0.0
        self._expected_finish = []
        finished = [f for f in active.values() if f.remaining <= 0.0]
        for f in finished:
            del active[f.flow_id]
            self.solver.flow_removed(f)
        # Finish callbacks may submit new flows; they will trigger their
        # own reallocation on activation, but we reallocate here too in
        # case no new flows appear.
        for f in finished:
            self._finish(f)
        self._reallocate_and_schedule()

    def _finish(self, flow: Flow) -> None:
        now = self.loop.now
        flow.finish_time = now
        flow.remaining = 0.0
        nbytes = flow.nbytes
        if self._host_of[flow.src] == self._host_of[flow.dst]:
            self.bytes_intra_host += nbytes
            self._c_intra.add(nbytes, now)
        else:
            self.bytes_cross_host += nbytes
            self._c_cross.add(nbytes, now)
        # The row TelemetryBus.span would append (depth 0, no parent),
        # as LossyNetwork._emit_flow writes an ``ok`` one.  The list is
        # read from the bus on every call: a resim restore rebinds it.
        self.bus.span_rows.append((
            flow.tag or f"flow{flow.flow_id}",
            "flow",
            self._dev_track[flow.src],
            flow.start_time,
            now,
            0,
            "",
            {
                "flow_id": flow.flow_id,
                "src": flow.src,
                "dst": flow.dst,
                "nbytes": nbytes,
                "submit_time": flow.submit_time,
                "active_start": flow.start_time,
                "attempts": 1,
                "status": "ok",
                "tag": flow.tag,
            },
        ))
        if flow.on_complete is not None:
            flow.on_complete(flow)

    def run(self) -> float:
        """Drive the event loop until all flows complete."""
        return self.loop.run()


@dataclass(slots=True)
class LossyFlow(Flow):
    """A :class:`Flow` of a :class:`LossyNetwork`, with its retry state."""

    attempts: int = 1
    abandoned: bool = False
    #: fixed startup latency re-applied on every retry attempt
    base_latency: float = 0.0


class LossyNetwork(Network):
    """A :class:`Network` under a :class:`~repro.sim.faults.FaultSchedule`.

    NIC capacities vary over time (degradation windows), flows through a
    flapped-down NIC fail mid-flight (partial progress lost) or fail
    fast on arrival, and individual deliveries can be dropped.  Failed
    flows are retried under a :class:`~repro.sim.faults.RetryPolicy`
    (bounded attempts, exponential backoff with deterministic jitter);
    exhausted flows are *abandoned* and reported to the network-level
    :attr:`on_abandon` callback, which
    :class:`~repro.core.executor.PlanRunner` installs.  Each disposition
    (a delivery, one failed attempt, an abandonment) is one ``flow``
    span with its ``status``.  Under a schedule that injects nothing
    every span row, float and event equals the fault-free
    :class:`Network`'s.

    Failure attribution is causal, not just symptomatic: a flow killed by
    a correlated :class:`~repro.sim.faults.DomainFailure` records a
    ``domain-down`` incident, a lone dead host ``host-down``, a flap
    ``nic-flap``/``nic-down`` — so a report's incident kinds tell a rack
    loss from a flaky NIC.  Asymmetric
    :class:`~repro.sim.faults.Partition` windows are honoured distinctly
    from host-down: affected src→dst flows fail (``partition``) while
    all other traffic through the same NICs proceeds at full rate.  Gray
    :class:`~repro.sim.faults.CorruptionWindow` events never fail a flow
    at all: the delivery completes with normal timing, is marked
    ``corrupted`` in its span, and is only caught downstream by
    per-slice checksums (:mod:`repro.core.verify_data`).
    """

    capacity_varies: ClassVar[bool] = True

    def __init__(
        self,
        cluster: Cluster,
        faults: FaultSchedule,
        retry_policy: Optional[RetryPolicy] = None,
        solver: Optional[RateSolver] = None,
    ) -> None:
        super().__init__(cluster, solver)
        self._flow_class = LossyFlow
        self.faults = faults
        self.retry_policy = retry_policy or RetryPolicy()
        self.n_failures = 0
        self.n_retries = 0
        self.n_abandoned = 0
        self.wasted_bytes = 0.0  # transferred by attempts that failed
        self.added_latency = 0.0  # estimated time lost to faults
        self.incidents: list[FaultIncident] = []
        #: (tag, flow_id) of deliveries that completed with bad bytes —
        #: the executor joins these against CommOp checksums
        self.corrupted_flows: list[tuple[str, int]] = []
        #: called with each abandoned flow (never with a delivered one)
        self.on_abandon: Optional[Callable[[Flow], None]] = None
        # NIC capacity is piecewise-constant between fault window
        # boundaries; revisit rate allocation (and kill flows caught on a
        # flapped NIC) exactly at those instants.
        for b in faults.boundaries():
            if b > self.loop.now:
                self.loop.call_at(b, self._on_fault_boundary)

    def start_flow(
        self,
        src: int,
        dst: int,
        nbytes: float,
        on_complete: Optional[Callable[[Flow], None]] = None,
        tag: str = "",
        ports: Optional[tuple[str, ...]] = None,
        latency: Optional[float] = None,
    ) -> Flow:
        flow = super().start_flow(src, dst, nbytes, on_complete, tag, ports, latency)
        assert isinstance(flow, LossyFlow)
        # The flow's own latency, not a fresh route lookup on retry:
        # custom-port flows (multicast segments) must retry over the
        # same path.
        flow.base_latency = self._route(src, dst)[1] if latency is None else latency
        return flow

    def _port_capacity(self, port: str) -> float:
        bw = super()._port_capacity(port)
        if port[0] == "n":
            # Piecewise-constant in time: never part of the memo.
            bw *= self.faults.nic_factor(int(port[2:]), self.loop.now)
        return bw

    def _cut_reason(self, flow: Flow, flap_kind: str) -> Optional[str]:
        """Causal incident kind if the flow's path is cut now, else None.

        A down NIC blames the widest blast radius among the traversed
        NICs' outages (:meth:`FaultSchedule.outage_at` ranks one NIC's;
        domain-down > host-down > flap); ``flap_kind`` names the flap
        case ("nic-down" fast-fail vs "nic-flap" mid-flight).  With every
        NIC up, an asymmetric partition between the flow's hosts is a
        ``partition``.
        """
        faults = self.faults
        reason = None
        for p in flow.ports:
            if p[0] != "n":
                continue
            cause = faults.outage_at(int(p[2:]), self.loop.now)
            if isinstance(cause, DomainFailure):
                return "domain-down"
            if isinstance(cause, HostFailure):
                reason = "host-down"
            elif cause is not None and reason is None:
                reason = flap_kind
        if reason is None and faults.partitions:
            src_host = self._host_of[flow.src]
            dst_host = self._host_of[flow.dst]
            if src_host != dst_host and faults.partitioned(src_host, dst_host, self.loop.now):
                return "partition"
        return reason

    def _emit_flow(self, flow: LossyFlow, status: str) -> None:
        """Emit one flow disposition, ending now, as a ``cat="flow"`` span.

        The span is named ``flow.tag`` (``flow<id>`` when untagged), sits
        on the sender's ``dev:<src>`` track and runs from the attempt's
        ``active_start`` (``submit_time`` if the attempt never became
        bandwidth-active) to now.  Its nine attrs are ``flow_id``,
        ``src``, ``dst``, ``nbytes``, ``submit_time``, ``active_start``
        (``-1.0`` when never active), ``attempts`` (1-based),
        ``status`` and ``tag``.  ``status`` is one of:

        * ``ok``: delivered intact on the first attempt;
        * ``retried``: delivered intact after at least one failed attempt;
        * ``corrupted``: delivered, on any attempt, with bad bytes (a
          gray failure only end-to-end checksums catch);
        * ``failed``: one attempt failed, and the flow is retried;
        * ``abandoned``: the retry budget ran out; never delivered.

        :meth:`Network._finish` writes the ``ok`` row itself.
        """
        start = flow.start_time if flow.start_time >= 0.0 else flow.submit_time
        self.bus.span_rows.append((
            flow.tag or f"flow{flow.flow_id}",
            "flow",
            self._dev_track[flow.src],
            start,
            self.loop.now,
            0,
            "",
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
        ))

    def _activate(self, flow: Flow) -> None:
        reason = self._cut_reason(flow, "nic-down")
        if reason is None:
            super()._activate(flow)
            return
        # Fast-fail: the transfer cannot start (NIC down or the
        # destination is unreachable from here).  start_time stays -1 —
        # the flow never became active.
        self._advance_to_now()
        self._fail_flow(flow, reason)
        self._reallocate_and_schedule()

    def _finish(self, flow: Flow) -> None:
        assert isinstance(flow, LossyFlow)
        now = self.loop.now
        if self.faults.should_drop(flow.flow_id, flow.attempts):
            # Lost in transit: the bandwidth was spent, the payload was
            # not delivered — detected at the delivery instant.
            flow.remaining = 0.0
            self._fail_flow(flow, "dropped")
            return
        corrupted = False
        if self.faults.corruptions:
            # Gray failure: the delivery completes with normal timing but
            # the bytes are bad.  The network does NOT fail or retry the
            # flow — nothing at this layer can see the corruption; only
            # end-to-end checksums (executor + verify_data) catch it
            # downstream.
            hosts = sorted({int(p[2:]) for p in flow.ports if p[0] == "n"})
            corrupted = self.faults.should_corrupt(
                hosts, now, flow.flow_id, flow.attempts
            )
        flow.finish_time = now
        flow.remaining = 0.0
        nbytes = flow.nbytes
        if self._host_of[flow.src] == self._host_of[flow.dst]:
            self.bytes_intra_host += nbytes
            self._c_intra.add(nbytes, now)
        else:
            self.bytes_cross_host += nbytes
            self._c_cross.add(nbytes, now)
        if corrupted:
            self.corrupted_flows.append((flow.tag, flow.flow_id))
            self.incidents.append(
                FaultIncident(
                    kind="corruption",
                    where=f"flow {flow.flow_id} d{flow.src}->d{flow.dst} [{flow.tag}]",
                    time=now,
                    attempt=flow.attempts,
                    resolved=False,  # nothing at this layer resolves it
                )
            )
            self._emit_flow(flow, "corrupted")
        else:
            self._emit_flow(flow, "ok" if flow.attempts == 1 else "retried")
        if flow.on_complete is not None:
            flow.on_complete(flow)

    def _fail_flow(self, flow: Flow, reason: str) -> None:
        """One attempt failed: record it and retry or abandon."""
        assert isinstance(flow, LossyFlow)
        if self._active.pop(flow.flow_id, None) is not None:
            self.solver.flow_removed(flow)
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
            self._emit_flow(flow, "abandoned")
            if self.on_abandon is not None:
                self.on_abandon(flow)
            return
        self._emit_flow(flow, "failed")
        delay = self.retry_policy.backoff(flow.attempts, self.faults.seed, flow.flow_id)
        self.added_latency += (now - attempt_began) + delay
        self.n_retries += 1
        flow.attempts += 1
        flow.remaining = flow.nbytes
        flow.start_time = -1.0
        flow.rate = 0.0
        self.loop.call_after(delay + flow.base_latency, self._activate, flow)

    def _on_fault_boundary(self) -> None:
        """A fault window opened or closed: rates change right now."""
        self._advance_to_now()
        victims: list[tuple[Flow, str]] = []
        for f in self._active.values():
            # Mid-flight kill: partial progress is lost.
            reason = self._cut_reason(f, "nic-flap")
            if reason is not None:
                victims.append((f, reason))
        for f, reason in victims:
            self._fail_flow(f, reason)
        self._reallocate_and_schedule()

    def fault_report(self) -> FaultReport:
        """Summary of fault activity.

        Gray corruption does *not* move ``status`` here: at the flow
        layer the delivery looked healthy, which is the point of a gray
        failure.  Corruption incidents are in ``incidents``; the executor
        escalates the report to fatal when per-op checksums expose the
        bad bytes.
        """
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
