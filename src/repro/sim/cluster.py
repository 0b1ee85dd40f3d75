"""Cluster topology model.

Mirrors the testbed of the paper's §5: nodes (hosts) each carrying several
GPUs (devices), fast intra-node interconnect (NVLink) and a slower
inter-node network (Ethernet/InfiniBand) with these properties (paper §3):

* fast intra-node, slow inter-node communication;
* a fully-connected, non-blocking fabric between hosts (bandwidth between a
  host pair is unaffected by other pairs);
* the communication bottleneck sits at each *host's* NIC, not at devices;
* full duplex: separate send and receive bandwidth everywhere.

The classes here are pure topology description; the timing behaviour lives
in :mod:`repro.sim.network`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .topology import BoundTopology, Topology

__all__ = [
    "ClusterSpec",
    "FailureDomain",
    "LinkOverride",
    "Device",
    "Host",
    "Cluster",
    "GBPS",
    "GB",
]

GBPS = 1e9 / 8.0  # 1 Gbit/s in bytes/second
GB = 1 << 30  # one gibibyte in bytes

#: failure-domain kinds with a conventional meaning (free-form is allowed)
DOMAIN_KINDS = ("rack", "switch", "pdu", "spine")


@dataclass(frozen=True)
class FailureDomain:
    """A group of hosts sharing one piece of physical infrastructure.

    Hosts in the same rack share a ToR switch and a PDU; a single
    infrastructure fault (switch wedge, breaker trip) takes every member
    down *together*.  Failure domains are pure topology description —
    :class:`repro.sim.faults.DomainFailure` is the event that downs one,
    and the recovery/planning layers consult them to keep replicas
    (buddy checkpoints, broadcast re-roots) out of the blast radius of
    whatever they are guarding against.

    A host may belong to several domains of different kinds (its rack
    *and* its PDU group); two hosts "share a domain" if any domain
    contains both.
    """

    name: str
    hosts: tuple[int, ...]
    kind: str = "rack"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("failure domain needs a non-empty name")
        if not self.hosts:
            raise ValueError(f"failure domain {self.name!r} has no member hosts")
        if len(set(self.hosts)) != len(self.hosts):
            raise ValueError(f"failure domain {self.name!r} lists a host twice")
        for h in self.hosts:
            if not isinstance(h, int) or isinstance(h, bool) or h < 0:
                raise ValueError(
                    f"failure domain {self.name!r}: host ids must be "
                    f"non-negative ints, got {h!r}"
                )
        if not self.kind:
            raise ValueError(f"failure domain {self.name!r} needs a kind")


@dataclass(frozen=True)
class LinkOverride:
    """A per-host-pair deviation from the topology's nominal links.

    Models heterogeneous inter-host links (a pair wired at 25 Gbps in a
    10 Gbps fleet, or a long-haul pair with extra latency) without
    defining a whole new topology.  ``bandwidth=None`` keeps the
    topology's path capacity; ``latency=None`` keeps its path latency.
    Applies to both directions of the pair; each direction gets its own
    full-duplex port in the flow simulator.
    """

    src_host: int
    dst_host: int
    bandwidth: Optional[float] = None
    latency: Optional[float] = None

    def __post_init__(self) -> None:
        for h in (self.src_host, self.dst_host):
            if not isinstance(h, int) or isinstance(h, bool):
                raise ValueError(
                    f"link override host ids must be ints, got {h!r}"
                )
        if self.src_host == self.dst_host:
            raise ValueError(
                f"link override is a self-loop on host {self.src_host} "
                "(intra-host links are not overridable)"
            )
        if self.bandwidth is None and self.latency is None:
            raise ValueError(
                f"link override {self.src_host}<->{self.dst_host} sets "
                "neither bandwidth nor latency"
            )
        if self.bandwidth is not None and not (
            self.bandwidth > 0 and self.bandwidth != float("inf")
        ):
            raise ValueError(
                f"link override {self.src_host}<->{self.dst_host}: bandwidth "
                f"must be positive and finite, got {self.bandwidth}"
            )
        if self.latency is not None and not (
            0 <= self.latency < float("inf")
        ):
            raise ValueError(
                f"link override {self.src_host}<->{self.dst_host}: latency "
                f"must be finite and >= 0, got {self.latency}"
            )


@dataclass(frozen=True)
class ClusterSpec:
    """Parameters of a simulated GPU cluster.

    Defaults reproduce the paper's AWS testbed: p3.8xlarge nodes with
    4 V100 GPUs connected by NVLink, 10 Gbps inter-node bandwidth.

    ``host_bandwidth_overrides`` models heterogeneous networking (one of
    the paper's §1 challenges): a mapping ``host_id -> NIC bandwidth``
    for hosts whose links differ from ``inter_host_bandwidth`` (e.g. a
    mixed 10/25 Gbps fleet).

    ``n_spare_hosts`` marks the *last* k hosts as warm spares: they are
    fully wired into the fabric but carry no work until the elastic
    recovery runtime (:mod:`repro.recovery`) substitutes one for a
    permanently failed host.
    """

    n_hosts: int = 2
    devices_per_host: int = 4
    #: host NIC bandwidth, bytes/s, each direction (full duplex)
    inter_host_bandwidth: float = 10 * GBPS
    #: per-device NVLink bandwidth, bytes/s, each direction
    intra_host_bandwidth: float = 100e9
    #: fixed per-transfer latency across hosts (TCP/IB handshake), seconds
    inter_host_latency: float = 100e-6
    #: fixed per-transfer latency within a host (NVLink/driver), seconds
    intra_host_latency: float = 5e-6
    #: per-host NIC bandwidth overrides, bytes/s (heterogeneous fleets)
    host_bandwidth_overrides: tuple[tuple[int, float], ...] = ()
    #: trailing hosts held back as warm spares for elastic recovery
    n_spare_hosts: int = 0
    #: correlated-failure groups (rack / switch / PDU); a host may appear
    #: in several domains of different kinds
    failure_domains: tuple[FailureDomain, ...] = ()
    #: the inter-host fabric shape; None = the paper's two-tier baseline
    topology: Optional[Topology] = None
    #: per-host-pair bandwidth/latency deviations (heterogeneous links)
    link_overrides: tuple[LinkOverride, ...] = ()
    #: transient resharding-buffer budget, bytes per host; ``None``
    #: disables the M001/M003 peak-memory planning constraint entirely
    memory_budget: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n_hosts < 1:
            raise ValueError(f"n_hosts must be >= 1, got {self.n_hosts}")
        if not 0 <= self.n_spare_hosts < self.n_hosts:
            raise ValueError(
                f"n_spare_hosts must be in [0, n_hosts), got "
                f"{self.n_spare_hosts} of {self.n_hosts}"
            )
        if self.devices_per_host < 1:
            raise ValueError(
                f"devices_per_host must be >= 1, got {self.devices_per_host}"
            )
        # Written as "not (ok)" so NaN, for which every comparison is
        # false, is rejected too.
        for name in ("inter_host_bandwidth", "intra_host_bandwidth"):
            bw = getattr(self, name)
            if not 0 < bw < float("inf"):
                raise ValueError(f"{name} must be positive and finite, got {bw}")
        for name in ("inter_host_latency", "intra_host_latency"):
            lat = getattr(self, name)
            if not 0 <= lat < float("inf"):
                raise ValueError(f"{name} must be finite and >= 0, got {lat}")
        seen: set[int] = set()
        for host, bw in self.host_bandwidth_overrides:
            if not isinstance(host, int) or isinstance(host, bool):
                raise ValueError(
                    f"override host id must be an int, got {host!r}"
                )
            if not 0 <= host < self.n_hosts:
                raise ValueError(
                    f"override references unknown host {host} "
                    f"(valid: 0..{self.n_hosts - 1})"
                )
            if host in seen:
                raise ValueError(f"duplicate bandwidth override for host {host}")
            seen.add(host)
            if not bw > 0 or bw != bw or bw == float("inf"):
                raise ValueError(
                    f"override bandwidth for host {host} must be a positive "
                    f"finite number of bytes/s, got {bw}"
                )
        names: set[str] = set()
        for dom in self.failure_domains:
            if not isinstance(dom, FailureDomain):
                raise ValueError(
                    f"failure_domains entries must be FailureDomain, got {dom!r}"
                )
            if dom.name in names:
                raise ValueError(f"duplicate failure domain name {dom.name!r}")
            names.add(dom.name)
            for h in dom.hosts:
                if not 0 <= h < self.n_hosts:
                    raise ValueError(
                        f"failure domain {dom.name!r} references unknown host "
                        f"{h} (valid: 0..{self.n_hosts - 1})"
                    )
        if self.topology is not None:
            if not isinstance(self.topology, Topology):
                raise ValueError(
                    f"topology must be a Topology, got {self.topology!r}"
                )
            self.topology.validate(self)
            for dom in self.topology.switches(self):
                if dom.failure_domain and dom.name in names:
                    raise ValueError(
                        f"declared failure domain {dom.name!r} collides with "
                        f"a topology switch domain of the same name"
                    )
        pairs: set[tuple[int, int]] = set()
        for ov in self.link_overrides:
            if not isinstance(ov, LinkOverride):
                raise ValueError(
                    f"link_overrides entries must be LinkOverride, got {ov!r}"
                )
            for h in (ov.src_host, ov.dst_host):
                if not 0 <= h < self.n_hosts:
                    raise ValueError(
                        f"link override {ov.src_host}<->{ov.dst_host} "
                        f"references unknown host {h} "
                        f"(valid: 0..{self.n_hosts - 1})"
                    )
            pair = (min(ov.src_host, ov.dst_host), max(ov.src_host, ov.dst_host))
            if pair in pairs:
                raise ValueError(
                    f"duplicate link override for host pair "
                    f"{pair[0]}<->{pair[1]}"
                )
            pairs.add(pair)
        if self.memory_budget is not None and not (
            self.memory_budget > 0 and self.memory_budget != float("inf")
        ):
            raise ValueError(
                f"memory_budget must be a positive finite number of bytes "
                f"per host (or None to disable), got {self.memory_budget}"
            )

    @property
    def n_devices(self) -> int:
        return self.n_hosts * self.devices_per_host

    @property
    def n_active_hosts(self) -> int:
        """Hosts that carry work from the start (non-spares)."""
        return self.n_hosts - self.n_spare_hosts

    def host_nic_bandwidth(self, host: int) -> float:
        """NIC bandwidth of ``host``, honouring overrides."""
        for h, bw in self.host_bandwidth_overrides:
            if h == host:
                return bw
        return self.inter_host_bandwidth

    # -- failure domains -----------------------------------------------
    @property
    def effective_failure_domains(self) -> tuple[FailureDomain, ...]:
        """Declared domains plus the topology's switch blast radii.

        A topology switch flagged ``failure_domain=True`` (e.g. a
        fat-tree leaf) is a correlated-failure group exactly like a
        declared rack/PDU domain: a wedge downs its member hosts
        together, and re-rooting/replica placement must escape it.  The
        two-tier baseline contributes none (its core switch spans every
        host and is deliberately not a domain), so existing specs
        behave identically.
        """
        if self.topology is None:
            return self.failure_domains
        switch_domains = tuple(
            FailureDomain(name=sw.name, hosts=sw.hosts, kind="switch")
            for sw in self.topology.switches(self)
            if sw.failure_domain
        )
        return self.failure_domains + switch_domains

    def domain(self, name: str) -> FailureDomain:
        """The failure domain called ``name`` (KeyError if unknown)."""
        for dom in self.effective_failure_domains:
            if dom.name == name:
                return dom
        raise KeyError(f"no failure domain named {name!r}")

    def domains_of_host(self, host: int) -> tuple[FailureDomain, ...]:
        """Every failure domain ``host`` belongs to (declaration order)."""
        return tuple(
            d for d in self.effective_failure_domains if host in d.hosts
        )

    def shares_domain(self, a: int, b: int) -> bool:
        """True if any failure domain contains both hosts.

        A host trivially shares every one of its domains with itself;
        callers comparing a host against itself get ``True`` whenever the
        host belongs to at least one domain.
        """
        return any(
            a in d.hosts and b in d.hosts
            for d in self.effective_failure_domains
        )


@dataclass(frozen=True)
class Device:
    """A single accelerator (GPU) in the cluster."""

    device_id: int
    host_id: int
    local_id: int  # index within its host

    def __repr__(self) -> str:  # compact, used heavily in traces
        return f"d{self.device_id}(h{self.host_id})"


@dataclass(frozen=True)
class Host:
    """A node holding several devices and one NIC."""

    host_id: int
    devices: tuple[Device, ...] = field(default_factory=tuple)


class Cluster:
    """A concrete cluster instantiated from a :class:`ClusterSpec`.

    Device ids are global and dense: host ``h`` owns devices
    ``[h * devices_per_host, (h+1) * devices_per_host)``.
    """

    def __init__(self, spec: ClusterSpec) -> None:
        self.spec = spec
        #: the one pricing oracle for "how fast/far is a from b" queries
        self.topo = BoundTopology(spec)
        self.devices: list[Device] = []
        self.hosts: list[Host] = []
        for h in range(spec.n_hosts):
            devs = tuple(
                Device(device_id=h * spec.devices_per_host + i, host_id=h, local_id=i)
                for i in range(spec.devices_per_host)
            )
            self.hosts.append(Host(host_id=h, devices=devs))
            self.devices.extend(devs)

    # ------------------------------------------------------------------
    def device(self, device_id: int) -> Device:
        if not 0 <= device_id < len(self.devices):
            raise KeyError(f"no device {device_id} in cluster of {len(self.devices)}")
        return self.devices[device_id]

    def host_of(self, device_id: int) -> int:
        """Host id owning ``device_id``."""
        return self.device(device_id).host_id

    def same_host(self, a: int, b: int) -> bool:
        return self.host_of(a) == self.host_of(b)

    def hosts_of(self, device_ids) -> set[int]:
        """The set of host ids covering the given devices."""
        return {self.host_of(d) for d in device_ids}

    @property
    def n_devices(self) -> int:
        return len(self.devices)

    @property
    def n_hosts(self) -> int:
        return len(self.hosts)

    @property
    def active_host_ids(self) -> tuple[int, ...]:
        """Hosts initially carrying work (everything but the spares)."""
        return tuple(range(self.spec.n_active_hosts))

    @property
    def spare_host_ids(self) -> tuple[int, ...]:
        """Warm spare hosts reserved for elastic recovery."""
        return tuple(range(self.spec.n_active_hosts, self.spec.n_hosts))

    # ------------------------------------------------------------------
    def link_bandwidth(self, src: int, dst: int) -> float:
        """Point-to-point bandwidth (bytes/s) between two devices.

        Cross-host pairs are priced by the bound topology (NIC rates,
        contended fabric links, per-pair overrides) — the single lookup
        that used to be three inlined ``intra if same host else inter``
        ternaries.
        """
        if src == dst:
            raise ValueError("no link from a device to itself")
        if self.same_host(src, dst):
            return self.spec.intra_host_bandwidth
        a, b = self.device(src), self.device(dst)
        return self.topo.path_bandwidth(
            a.host_id, b.host_id, a.local_id, b.local_id
        )

    def link_latency(self, src: int, dst: int) -> float:
        """Fixed startup latency (s) between two devices."""
        if src == dst:
            raise ValueError("no link from a device to itself")
        if self.same_host(src, dst):
            return self.spec.intra_host_latency
        a, b = self.device(src), self.device(dst)
        return self.topo.path_latency(
            a.host_id, b.host_id, a.local_id, b.local_id
        )

    def __repr__(self) -> str:
        return (
            f"Cluster(hosts={self.n_hosts}, devices_per_host="
            f"{self.spec.devices_per_host})"
        )
