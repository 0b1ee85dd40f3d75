"""Pluggable network topologies: the cluster shape as a first-class object.

The paper's cost model assumes one cluster shape — fast intra-host
NVLink plus a flat, non-blocking inter-host fabric bottlenecked at each
host's NIC (§3).  That assumption used to be smeared across the flow
simulator, the scheduler, and every strategy's cost heuristic as scalar
``inter_host_bandwidth`` / ``intra_host_bandwidth`` lookups.  This
module lifts it into an explicit :class:`Topology` interface that
:class:`~repro.sim.cluster.ClusterSpec` composes:

* :meth:`Topology.path` returns the :class:`Link` sequence a cross-host
  transfer traverses *between* the two host NICs, given the hosts and
  the local device indices at both ends.  Contended links become extra
  ports in the flow simulator's max-min fair-share fixpoint, so switch
  oversubscription is priced honestly;
* :meth:`Topology.switches` enumerates the switch nodes, each of which
  can act as a replication point for the ``multicast`` strategy backend
  and (when ``failure_domain=True``) as a correlated-failure blast
  radius reusing the :class:`~repro.sim.cluster.FailureDomain`
  machinery.

Concrete variants (the *topology zoo*):

=====================  ==============================================
class                  shape
=====================  ==============================================
``TwoTierTopology``    the paper's baseline: non-blocking fabric, NIC
                       bottleneck.  Byte-identical to the pre-refactor
                       scalar model (pinned by the golden fig5/6/7
                       tests).
``FatTreeTopology``    two-level leaf/spine Clos with a configurable
                       oversubscription ratio; leaf uplinks are
                       contended ports, leaves are failure domains.
``TorusTopology``      2D torus with dimension-ordered routing; every
                       directed mesh edge is a contended port; no
                       switches (multicast unsupported).
``RailOptimizedTopology``  one non-blocking rail per device index;
                       cross-rail traffic squeezes through a contended
                       spine port.
``IslandTopology``     disconnected two-tier islands; cross-island
                       paths raise :class:`NoRouteError` (the analyzer
                       turns this into a static ``T003`` diagnostic).
=====================  ==============================================

Heterogeneous link speeds are expressed per-pair with
``ClusterSpec.link_overrides`` (see :class:`~repro.sim.cluster
.LinkOverride`) and are honoured for *every* topology by
:class:`BoundTopology`, the memoizing adapter each
:class:`~repro.sim.cluster.Cluster` binds as ``cluster.topo``.  All
pricing paths — network flows, the scheduler's duration model, the
``LoadTracker``'s discounting, and strategy cost heuristics — go
through that one adapter, so a new topology (or an override) is
honoured everywhere consistently.

Port-name discipline: the flow simulator dispatches port capacities on
the first character (``d`` = device NVLink port, ``n`` = host NIC
port), so topology-level ports must never start with those letters.
Convention: ``sw:`` for switch ports, ``tx:`` for torus edges, ``ov:``
for per-pair override pipes.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterable, Optional, Tuple

from .. import checks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cluster import ClusterSpec

__all__ = [
    "Link",
    "Switch",
    "MulticastTree",
    "NoRouteError",
    "Topology",
    "TwoTierTopology",
    "FatTreeTopology",
    "TorusTopology",
    "RailOptimizedTopology",
    "IslandTopology",
    "BoundTopology",
    "TOPOLOGIES",
    "make_topology",
]


class NoRouteError(ValueError):
    """The topology has no path between two hosts (disconnected shape)."""


@dataclass(frozen=True)
class Link:
    """One hop of a cross-host path, between the two endpoint NICs.

    ``name`` doubles as the port name in the flow simulator when the
    link is ``contended``: every concurrent flow whose path includes
    the link then shares ``bandwidth`` under max-min fairness.
    Uncontended links (non-blocking fabric segments) contribute latency
    and a bandwidth cap to the path but never queue — they are exactly
    the paper's "fully-connected, non-blocking" assumption, made
    explicit.  ``switch`` names the switch the link hangs off, for
    attribution in traces and diagnostics.
    """

    name: str
    bandwidth: float
    latency: float
    switch: str = ""
    contended: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("link needs a non-empty name")
        if self.name[0] in ("d", "n"):
            raise ValueError(
                f"link name {self.name!r} collides with the simulator's "
                "device/NIC port namespace (must not start with 'd' or 'n')"
            )
        checks.real(f"link {self.name!r} bandwidth", self.bandwidth, "(0, inf]")
        checks.real(f"link {self.name!r} latency", self.latency, "[0, inf)")


@dataclass(frozen=True)
class Switch:
    """A replication-capable switch node spanning a set of hosts.

    ``failure_domain=True`` marks the switch as a correlated-failure
    blast radius: the hosts behind it go down *together* when it dies
    (a ToR/leaf wedge).  Core/spine switches whose member set is the
    whole cluster keep ``failure_domain=False`` — folding them into the
    domain machinery would make every host pair "share a domain" and
    defeat the F001/F003 out-of-domain re-rooting analysis.
    """

    name: str
    hosts: tuple[int, ...]
    kind: str = "switch"
    failure_domain: bool = False

    def spans(self, hosts: Iterable[int]) -> bool:
        """True when every given host hangs off this switch."""
        members = set(self.hosts)
        return all(h in members for h in hosts)


@dataclass(frozen=True)
class MulticastTree:
    """The routed shape of one switch-replicated send.

    The root pushes each chunk *once* through ``up_ports`` to
    ``switch``; the switch replicates it down every receiving host's
    ``down_ports``.  Empty port tuples mean the corresponding segment
    is non-blocking (no contended resource between NIC and switch).
    """

    switch: str
    up_ports: tuple[str, ...]
    #: per receiving host: contended ports between the switch and its NIC
    down_ports: tuple[tuple[int, tuple[str, ...]], ...]
    up_latency: float
    down_latency: float

    def down_ports_of(self, host: int) -> tuple[str, ...]:
        for h, ports in self.down_ports:
            if h == host:
                return ports
        raise KeyError(f"host {host} is not a leaf of this multicast tree")


class Topology(ABC):
    """Abstract cluster shape: pure description, no timing behaviour.

    Implementations are frozen dataclasses so ``repr`` is canonical —
    the compiler's plan cache keys on it, and two specs with equal
    topology reprs hash identically.
    """

    name: str = "abstract"

    def validate(self, spec: "ClusterSpec") -> None:
        """Raise ``ValueError`` when the spec does not fit this shape."""

    @abstractmethod
    def path(
        self, spec: "ClusterSpec", src_host: int, dst_host: int,
        src_local: int, dst_local: int,
    ) -> tuple[Link, ...]:
        """Links between ``src_host``'s NIC and ``dst_host``'s NIC.

        ``src_local``/``dst_local`` are the local device indices at the
        two ends; only rail-optimized shapes route on them.  Raises
        :class:`NoRouteError` when the hosts are disconnected.
        """

    def switches(self, spec: "ClusterSpec") -> tuple[Switch, ...]:
        """Enumerable switch nodes (empty: no replication points)."""
        return ()

    def __repr__(self) -> str:  # frozen-dataclass subclasses override
        return f"{type(self).__name__}()"


@dataclass(frozen=True)
class TwoTierTopology(Topology):
    """The paper's baseline shape: non-blocking fabric, NIC bottleneck.

    The single "core" link is uncontended and infinitely wide, so the
    flow simulator sees exactly the pre-refactor port set (device ports
    plus the two endpoint NICs) and the same latency constant — the
    golden fig5/6/7 makespans are byte-identical under this topology.
    """

    name: str = "two_tier"

    def path(
        self, spec: "ClusterSpec", src_host: int, dst_host: int,
        src_local: int, dst_local: int,
    ) -> tuple[Link, ...]:
        return (
            Link(
                name="sw:core",
                bandwidth=math.inf,
                latency=spec.inter_host_latency,
                switch="core",
                contended=False,
            ),
        )

    def switches(self, spec: "ClusterSpec") -> tuple[Switch, ...]:
        return (
            Switch(
                name="core",
                hosts=tuple(range(spec.n_hosts)),
                kind="spine",
                failure_domain=False,
            ),
        )


@dataclass(frozen=True)
class FatTreeTopology(Topology):
    """Two-level leaf/spine Clos with configurable oversubscription.

    Hosts are packed ``hosts_per_leaf`` to a leaf switch.  Same-leaf
    traffic is non-blocking.  Cross-leaf traffic traverses the source
    leaf's *uplink* and the destination leaf's *downlink* — contended
    ports of capacity ``hosts_per_leaf * inter_host_bandwidth /
    oversubscription`` each — plus a non-blocking spine.  At
    ``oversubscription=1`` the uplinks never bottleneck below the host
    NICs; at 4:1 four hosts bursting cross-leaf each get a quarter of
    their NIC rate, which is what makes the zoo heatmap's broadcast
    column visibly slower than the non-blocking variant.

    Leaves are failure domains (a leaf wedge downs its hosts together);
    the spine spans everything and is deliberately not one.
    """

    hosts_per_leaf: int = 4
    oversubscription: float = 1.0
    spine_extra_latency: float = 0.0
    name: str = "fat_tree"

    def validate(self, spec: "ClusterSpec") -> None:
        checks.integer("hosts_per_leaf", self.hosts_per_leaf, 1)
        checks.real("oversubscription", self.oversubscription, "[1, inf)")
        checks.real("spine_extra_latency", self.spine_extra_latency, "[0, inf)")

    def leaf_of(self, host: int) -> int:
        return host // self.hosts_per_leaf

    def uplink_bandwidth(self, spec: "ClusterSpec") -> float:
        return (
            self.hosts_per_leaf * spec.inter_host_bandwidth / self.oversubscription
        )

    def path(
        self, spec: "ClusterSpec", src_host: int, dst_host: int,
        src_local: int, dst_local: int,
    ) -> tuple[Link, ...]:
        la, lb = self.leaf_of(src_host), self.leaf_of(dst_host)
        if la == lb:
            return (
                Link(
                    name=f"sw:leaf{la}",
                    bandwidth=math.inf,
                    latency=spec.inter_host_latency,
                    switch=f"leaf{la}",
                    contended=False,
                ),
            )
        up_bw = self.uplink_bandwidth(spec)
        return (
            Link(
                name=f"sw:leaf{la}.up",
                bandwidth=up_bw,
                latency=spec.inter_host_latency,
                switch=f"leaf{la}",
            ),
            Link(
                name="sw:spine",
                bandwidth=math.inf,
                latency=self.spine_extra_latency,
                switch="spine",
                contended=False,
            ),
            Link(
                name=f"sw:leaf{lb}.down",
                bandwidth=up_bw,
                latency=0.0,
                switch=f"leaf{lb}",
            ),
        )

    def switches(self, spec: "ClusterSpec") -> tuple[Switch, ...]:
        n_leaves = -(-spec.n_hosts // self.hosts_per_leaf)
        leaves = tuple(
            Switch(
                name=f"leaf{i}",
                hosts=tuple(
                    h
                    for h in range(
                        i * self.hosts_per_leaf,
                        min((i + 1) * self.hosts_per_leaf, spec.n_hosts),
                    )
                ),
                kind="switch",
                failure_domain=True,
            )
            for i in range(n_leaves)
        )
        spine = Switch(
            name="spine",
            hosts=tuple(range(spec.n_hosts)),
            kind="spine",
            failure_domain=False,
        )
        return leaves + (spine,)


@dataclass(frozen=True)
class TorusTopology(Topology):
    """2D torus (``rows x cols`` hosts) with dimension-ordered routing.

    Every directed edge between neighbouring hosts is a contended port
    of ``inter_host_bandwidth`` capacity; a multi-hop flow holds every
    edge on its route simultaneously, and each hop adds one
    ``inter_host_latency``.  There are no switches, so the multicast
    backend does not apply — the zoo heatmap's "where broadcast's
    advantage breaks" column.
    """

    rows: int = 2
    cols: int = 2
    name: str = "torus"

    def validate(self, spec: "ClusterSpec") -> None:
        checks.integer("rows", self.rows, 1)
        checks.integer("cols", self.cols, 1)
        if self.rows * self.cols != spec.n_hosts:
            raise ValueError(
                f"torus rows x cols is {self.rows}x{self.cols} = "
                f"{self.rows * self.cols} hosts but the spec has n_hosts={spec.n_hosts}"
            )

    def _coord(self, host: int) -> tuple[int, int]:
        return host // self.cols, host % self.cols

    def _host(self, r: int, c: int) -> int:
        return (r % self.rows) * self.cols + (c % self.cols)

    def _steps(self, frm: int, to: int, size: int) -> list[int]:
        """Signed unit steps along one dimension, shortest wrap wins.

        Ties (exactly half way around an even ring) break toward the
        positive direction so routing is deterministic.
        """
        delta = (to - frm) % size
        if delta == 0:
            return []
        if delta <= size - delta:
            return [+1] * delta
        return [-1] * (size - delta)

    def route(self, src_host: int, dst_host: int) -> list[tuple[int, int]]:
        """Directed edges of the dimension-ordered route (rows first)."""
        (r0, c0), (r1, c1) = self._coord(src_host), self._coord(dst_host)
        edges: list[tuple[int, int]] = []
        r, c = r0, c0
        for step in self._steps(r0, r1, self.rows):
            nxt = self._host(r + step, c)
            edges.append((self._host(r, c), nxt))
            r += step
        for step in self._steps(c0, c1, self.cols):
            nxt = self._host(r, c + step)
            edges.append((self._host(r, c), nxt))
            c += step
        return edges

    def path(
        self, spec: "ClusterSpec", src_host: int, dst_host: int,
        src_local: int, dst_local: int,
    ) -> tuple[Link, ...]:
        return tuple(
            Link(
                name=f"tx:{a}>{b}",
                bandwidth=spec.inter_host_bandwidth,
                latency=spec.inter_host_latency,
            )
            for a, b in self.route(src_host, dst_host)
        )


@dataclass(frozen=True)
class RailOptimizedTopology(Topology):
    """One non-blocking rail per local device index (GPU-direct fabrics).

    A cross-host flow between devices with the *same* local index rides
    that index's dedicated rail switch at full NIC rate.  Flows between
    different local indices must cross rails through one shared,
    contended spine port of ``cross_rail_capacity_factor x
    inter_host_bandwidth`` capacity — the rail-optimized penalty for
    misaligned traffic.
    """

    cross_rail_capacity_factor: float = 2.0
    name: str = "rail"

    def validate(self, spec: "ClusterSpec") -> None:
        checks.real("cross_rail_capacity_factor", self.cross_rail_capacity_factor, "(0, inf)")

    def path(
        self, spec: "ClusterSpec", src_host: int, dst_host: int,
        src_local: int, dst_local: int,
    ) -> tuple[Link, ...]:
        if src_local == dst_local:
            return (
                Link(
                    name=f"sw:rail{src_local}",
                    bandwidth=math.inf,
                    latency=spec.inter_host_latency,
                    switch=f"rail{src_local}",
                    contended=False,
                ),
            )
        return (
            Link(
                name="sw:railx",
                bandwidth=self.cross_rail_capacity_factor
                * spec.inter_host_bandwidth,
                latency=spec.inter_host_latency,
                switch="rail0",
            ),
        )

    def switches(self, spec: "ClusterSpec") -> tuple[Switch, ...]:
        return tuple(
            Switch(
                name=f"rail{r}",
                hosts=tuple(range(spec.n_hosts)),
                kind="rail",
                failure_domain=False,
            )
            for r in range(spec.devices_per_host)
        )


@dataclass(frozen=True)
class IslandTopology(Topology):
    """Disconnected two-tier islands of ``island_size`` hosts each.

    Intra-island traffic behaves like the two-tier baseline; there is
    *no* route between islands — :meth:`path` raises
    :class:`NoRouteError`, which the static analyzer surfaces as a
    ``T003`` diagnostic before any flow is ever submitted.
    """

    island_size: int = 2
    name: str = "island"

    def validate(self, spec: "ClusterSpec") -> None:
        checks.integer("island_size", self.island_size, 1)

    def island_of(self, host: int) -> int:
        return host // self.island_size

    def path(
        self, spec: "ClusterSpec", src_host: int, dst_host: int,
        src_local: int, dst_local: int,
    ) -> tuple[Link, ...]:
        ia, ib = self.island_of(src_host), self.island_of(dst_host)
        if ia != ib:
            raise NoRouteError(
                f"hosts {src_host} and {dst_host} sit on disconnected "
                f"islands {ia} and {ib}"
            )
        return (
            Link(
                name=f"sw:island{ia}",
                bandwidth=math.inf,
                latency=spec.inter_host_latency,
                switch=f"island{ia}",
                contended=False,
            ),
        )

    def switches(self, spec: "ClusterSpec") -> tuple[Switch, ...]:
        n_islands = -(-spec.n_hosts // self.island_size)
        return tuple(
            Switch(
                name=f"island{i}",
                hosts=tuple(
                    h
                    for h in range(
                        i * self.island_size,
                        min((i + 1) * self.island_size, spec.n_hosts),
                    )
                ),
                kind="switch",
                failure_domain=True,
            )
            for i in range(n_islands)
        )


#: topology factories by name, for the CLI / fixtures / experiments
TOPOLOGIES: Dict[str, Callable[[], Topology]] = {
    "two_tier": TwoTierTopology,
    "fat_tree": FatTreeTopology,
    "torus": TorusTopology,
    "rail": RailOptimizedTopology,
    "island": IslandTopology,
}


def make_topology(name: str, **kwargs: object) -> Topology:
    """Instantiate a zoo topology by name."""
    try:
        factory = TOPOLOGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown topology {name!r}; options: {sorted(TOPOLOGIES)}"
        ) from None
    return factory(**kwargs)  # type: ignore[call-arg]


class BoundTopology:
    """A :class:`Topology` bound to one spec: the single pricing oracle.

    Every "how fast / how far is host a from host b" question in the
    codebase goes through here — the flow simulator's port sets and
    latencies, the scheduler's duration model, the ``LoadTracker``'s
    per-byte weights, and strategy cost heuristics — so per-pair
    ``link_overrides`` and exotic topologies are honoured everywhere at
    once.  Paths are memoized per (src_host, dst_host, locals) key;
    contended-port capacities are registered as paths are first priced.
    """

    def __init__(self, spec: "ClusterSpec") -> None:
        self.spec = spec
        self.topology: Topology = (
            spec.topology if spec.topology is not None else TwoTierTopology()
        )
        self._paths: dict[tuple[int, int, int, int], tuple[Link, ...]] = {}
        self._capacity: dict[str, float] = {}
        self._overrides: dict[tuple[int, int], tuple[Optional[float], Optional[float]]] = {}
        for ov in spec.link_overrides:
            self._overrides[(ov.src_host, ov.dst_host)] = (ov.bandwidth, ov.latency)
            self._overrides[(ov.dst_host, ov.src_host)] = (ov.bandwidth, ov.latency)
        self._switches: Optional[Tuple[Switch, ...]] = None

    # -- path resolution -----------------------------------------------
    def links(
        self, src_host: int, dst_host: int, src_local: int = 0, dst_local: int = 0
    ) -> tuple[Link, ...]:
        """The (override-adjusted) link sequence between two host NICs."""
        key = (src_host, dst_host, src_local, dst_local)
        found = self._paths.get(key)
        if found is not None:
            return found
        links = self.topology.path(
            self.spec, src_host, dst_host, src_local, dst_local
        )
        ov = self._overrides.get((src_host, dst_host))
        if ov is not None:
            ov_bw, ov_lat = ov
            latency = ov_lat if ov_lat is not None else sum(l.latency for l in links)
            if ov_bw is not None:
                # A dedicated pipe replaces the fabric path: directional
                # port so full-duplex a->b and b->a never share capacity.
                links = (
                    Link(
                        name=f"ov:{src_host}>{dst_host}",
                        bandwidth=ov_bw,
                        latency=latency,
                    ),
                )
            else:
                links = tuple(
                    Link(
                        name=l.name,
                        bandwidth=l.bandwidth,
                        latency=(latency if i == 0 else 0.0),
                        switch=l.switch,
                        contended=l.contended,
                    )
                    for i, l in enumerate(links)
                )
        for l in links:
            if l.contended:
                self._capacity.setdefault(l.name, l.bandwidth)
        self._paths[key] = links
        return links

    def transit_ports(
        self, src_host: int, dst_host: int, src_local: int = 0, dst_local: int = 0
    ) -> tuple[str, ...]:
        """Contended port names between the two NICs (empty: non-blocking).

        The two-tier baseline returns ``()`` here, which keeps the flow
        simulator's port tuples — and therefore the max-min fixpoint's
        float arithmetic — byte-identical to the pre-refactor model.
        """
        return tuple(
            l.name
            for l in self.links(src_host, dst_host, src_local, dst_local)
            if l.contended
        )

    def path_latency(
        self, src_host: int, dst_host: int, src_local: int = 0, dst_local: int = 0
    ) -> float:
        """Fixed startup latency of one cross-host transfer."""
        links = self.links(src_host, dst_host, src_local, dst_local)
        if len(links) == 1:
            return links[0].latency  # exact: no float summation residue
        return sum(l.latency for l in links)

    def path_bandwidth(
        self, src_host: int, dst_host: int, src_local: int = 0, dst_local: int = 0
    ) -> float:
        """Uncontended bottleneck rate of one cross-host transfer."""
        bws = [
            self.spec.host_nic_bandwidth(src_host),
            self.spec.host_nic_bandwidth(dst_host),
        ]
        bws.extend(
            l.bandwidth for l in self.links(src_host, dst_host, src_local, dst_local)
        )
        return min(bws)

    def port_capacity(self, port: str) -> float:
        """Capacity of a topology-level contended port."""
        try:
            return self._capacity[port]
        except KeyError:
            raise KeyError(f"unknown topology port {port!r}") from None

    def has_route(self, src_host: int, dst_host: int) -> bool:
        """True when the topology connects the two hosts."""
        if src_host == dst_host:
            return True
        try:
            self.links(src_host, dst_host)
        except NoRouteError:
            return False
        return True

    # -- scalar views used by schedulers and cost heuristics -----------
    def host_nic_bandwidth(self, host: int) -> float:
        """NIC bandwidth of ``host`` (override-aware)."""
        return self.spec.host_nic_bandwidth(host)

    @property
    def reference_bandwidth(self) -> float:
        """The nominal inter-host rate used to normalize load weights."""
        return self.spec.inter_host_bandwidth

    def group_bandwidth(self, hosts: Iterable[int]) -> float:
        """Per-port rate of a ring collective over ``hosts``.

        A single-host group runs over NVLink; a multi-host ring is
        bottlenecked by its slowest member pair's path.  Reduces to the
        classic ``intra if one host else inter`` ternary on the two-tier
        baseline, which is exactly the lookup this call dedupes.
        """
        hs = sorted(set(hosts))
        if len(hs) <= 1:
            return self.spec.intra_host_bandwidth
        ring = hs + [hs[0]]
        return min(
            self.path_bandwidth(a, b) for a, b in zip(ring[:-1], ring[1:])
        )

    def ring_bandwidth(
        self,
        sender_host: int,
        receiver_hosts: Iterable[int],
        nic_bw: Callable[[int], float],
    ) -> float:
        """Bottleneck rate of a broadcast ring rooted at ``sender_host``.

        ``nic_bw`` supplies (possibly fault-discounted) per-host NIC
        rates; contended fabric links on each root->receiver path cap
        the result further.  On the two-tier baseline this computes
        ``min(nic(sender), nic(h) for h in receivers)`` — byte-identical
        to the scheduler's previous inline formula.
        """
        bws = [nic_bw(sender_host)]
        for h in receiver_hosts:
            if h == sender_host:
                continue
            bws.append(nic_bw(h))
            bws.extend(
                l.bandwidth for l in self.links(sender_host, h) if l.contended
            )
        return min(bws)

    # -- switches ------------------------------------------------------
    @property
    def switches(self) -> tuple[Switch, ...]:
        if self._switches is None:
            self._switches = self.topology.switches(self.spec)
        return self._switches

    @property
    def has_switches(self) -> bool:
        return bool(self.switches)

    def switch(self, name: str) -> Switch:
        for sw in self.switches:
            if sw.name == name:
                return sw
        raise KeyError(f"no switch named {name!r} in topology {self.topology.name!r}")

    def common_switch(self, root_host: int, hosts: Iterable[int]) -> Optional[Switch]:
        """The most specific switch spanning root and every host, if any.

        "Most specific" = fewest member hosts: a shared leaf beats the
        spine, so multicast replication happens as close to the
        receivers as possible.
        """
        wanted = set(hosts) | {root_host}
        best: Optional[Switch] = None
        for sw in self.switches:
            if sw.spans(wanted):
                if best is None or len(sw.hosts) < len(best.hosts):
                    best = sw
        return best

    def multicast_tree(
        self, root_host: int, dst_hosts: Iterable[int], switch_name: str
    ) -> MulticastTree:
        """Route one switch-replicated send through ``switch_name``.

        Up ports: contended links on the root->switch segment (each
        traversed once per chunk regardless of receiver count — the
        multicast win).  Down ports per host: contended links on the
        switch->host segment.  Segments are derived from the routed
        root->host paths, split at the first link owned by the switch.
        """
        sw = self.switch(switch_name)
        downs: list[tuple[int, tuple[str, ...]]] = []
        up: tuple[str, ...] = ()
        up_latency = self.spec.inter_host_latency
        down_latency = 0.0
        for h in sorted(set(dst_hosts)):
            if h == root_host:
                continue
            links = self.links(root_host, h)
            split = len(links)
            for i, l in enumerate(links):
                if l.switch == sw.name:
                    split = i + 1
                    break
            seg_up = tuple(l.name for l in links[:split] if l.contended)
            seg_down = tuple(l.name for l in links[split:] if l.contended)
            if seg_up and not up:
                up = seg_up
            downs.append((h, seg_down))
            up_latency = max(up_latency, sum(l.latency for l in links[:split]))
            down_latency = max(
                down_latency, sum(l.latency for l in links[split:])
            )
        return MulticastTree(
            switch=sw.name,
            up_ports=up,
            down_ports=tuple(downs),
            up_latency=up_latency,
            down_latency=down_latency,
        )

    def __repr__(self) -> str:
        return f"BoundTopology({self.topology!r}, n_hosts={self.spec.n_hosts})"
