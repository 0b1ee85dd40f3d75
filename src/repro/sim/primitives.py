"""Timed communication primitives built from network flows.

These implement, on the flow simulator, the strategies analysed in the
paper's §3.1 / Figure 3:

* :func:`p2p` — plain send/recv;
* :func:`scatter` — one sender splitting an object across receivers;
* :func:`ring_allgather` — the classic bandwidth-optimal ring all-gather
  (NVIDIA, 2018) used by the "Alpa" baseline;
* :func:`ring_broadcast` — the paper's chunk-pipelined ring broadcast, in
  which a receiver starts forwarding a chunk as soon as it has received
  it, achieving latency ``t + A * t / K`` for ``A`` extra host hops and
  ``K`` chunks.

All primitives are asynchronous: they submit flows and chain follow-up
flows from completion callbacks, returning a :class:`CollectiveHandle`
that fires when the whole collective is done.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .cluster import Cluster
from .network import Flow, Network

__all__ = [
    "CollectiveHandle",
    "p2p",
    "scatter",
    "ring_allgather",
    "ring_broadcast",
    "switch_multicast",
    "ring_order",
    "split_chunks",
]

#: Default number of pipeline chunks for ring broadcast (paper: "K ~ 100
#: in our experiments").
DEFAULT_BROADCAST_CHUNKS = 64


class CollectiveHandle:
    """Completion tracker for a group of chained flows.

    On a :class:`~repro.sim.network.LossyNetwork` a constituent flow may
    be *abandoned* (retry budget exhausted); whoever owns the network's
    ``on_abandon`` callback (the plan runner) then aborts the handle,
    which completes early with ``failed=True`` — downstream hops are
    never submitted and the collective's data did not fully arrive, but
    nothing deadlocks and the caller can observe the failure.
    """

    def __init__(self, network: Network, name: str = "") -> None:
        self.network = network
        self.name = name
        self.n_total = 0
        self.n_done = 0
        self.finish_time: float = -1.0
        self.failed = False
        self.fail_reason = ""
        self._sealed = False
        self._callbacks: list[Callable[["CollectiveHandle"], None]] = []

    # -- used by primitive constructors --------------------------------
    def _expect(self, n: int) -> None:
        self.n_total += n

    def _seal(self) -> None:
        """No more flows will be registered; allow completion."""
        self._sealed = True
        self._maybe_finish()

    def _flow_done(self) -> None:
        self.n_done += 1
        self._maybe_finish()

    def _maybe_finish(self) -> None:
        if self._sealed and self.n_done >= self.n_total and self.finish_time < 0:
            self.finish_time = self.network.loop.now
            for cb in self._callbacks:
                cb(self)

    # -- public ---------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.finish_time >= 0.0

    def add_done_callback(self, cb: Callable[["CollectiveHandle"], None]) -> None:
        if self.done:
            cb(self)
        else:
            self._callbacks.append(cb)

    def abort(self, reason: str) -> None:
        """Fail the collective now, unless it already completed."""
        if self.done:
            return
        self.failed = True
        self.fail_reason = reason
        self.finish_time = self.network.loop.now
        for cb in self._callbacks:
            cb(self)

    def __repr__(self) -> str:
        state = f"done@{self.finish_time:.6f}" if self.done else "pending"
        if self.failed:
            state = f"failed@{self.finish_time:.6f} ({self.fail_reason})"
        return f"CollectiveHandle({self.name!r}, {self.n_done}/{self.n_total}, {state})"


def _empty_handle(network: Network, name: str) -> CollectiveHandle:
    h = CollectiveHandle(network, name)
    h._seal()
    return h


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def ring_order(cluster: Cluster, root: int, receivers: Sequence[int]) -> list[int]:
    """Order ``receivers`` so a ring from ``root`` enters each host once.

    Receivers co-located with the root come first (NVLink hops), then the
    other hosts in ascending id, each host's devices grouped together.
    Grouping by host is what keeps the number of *inter-host* hops equal
    to the number of receiving hosts, the key property behind the
    broadcast strategy's ``t + A*t/K`` latency.
    """
    root_host = cluster.host_of(root)
    by_host: dict[int, list[int]] = {}
    for d in receivers:
        by_host.setdefault(cluster.host_of(d), []).append(d)
    ordered: list[int] = []
    for h in sorted(by_host, key=lambda h: (h != root_host, h)):
        ordered.extend(sorted(by_host[h]))
    return ordered


def split_chunks(nbytes: float, n_chunks: int) -> list[float]:
    """Split ``nbytes`` into ``n_chunks`` near-equal positive chunks."""
    if n_chunks < 1:
        raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
    base = nbytes / n_chunks
    return [base] * n_chunks


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------
def p2p(
    network: Network,
    src: int,
    dst: int,
    nbytes: float,
    tag: str = "p2p",
) -> CollectiveHandle:
    """Point-to-point send/recv of one message."""
    handle = CollectiveHandle(network, tag)
    handle._expect(1)
    network.start_flow(src, dst, nbytes, lambda f: handle._flow_done(), tag=tag)
    handle._seal()
    return handle


def scatter(
    network: Network,
    root: int,
    receivers: Sequence[int],
    total_bytes: float,
    tag: str = "scatter",
) -> CollectiveHandle:
    """Root sends a distinct ``total/N`` part to each receiver.

    All flows are submitted together and share the root's send ports
    under max-min fairness, so the aggregate takes about
    ``total_bytes / sender_bandwidth`` when the root NIC is the
    bottleneck.
    """
    group = list(receivers)
    remote = [d for d in group if d != root]
    if not group or not remote:
        return _empty_handle(network, tag)
    handle = CollectiveHandle(network, tag)
    part = total_bytes / len(group)  # the root's own part stays local
    handle._expect(len(remote))
    for dst in remote:
        network.start_flow(root, dst, part, lambda f: handle._flow_done(), tag=tag)
    handle._seal()
    return handle


def ring_allgather(
    network: Network,
    devices: Sequence[int],
    shard_bytes: float,
    tag: str = "allgather",
) -> CollectiveHandle:
    """Ring all-gather: each device starts with one ``shard_bytes`` shard.

    ``N-1`` rounds; in round ``j`` device ``i`` forwards to device
    ``i+1`` the shard it received in round ``j-1`` (its own shard in
    round 1).  Devices should already be ring-ordered (see
    :func:`ring_order`) so each host boundary is crossed once per round.
    """
    devs = list(devices)
    n = len(devs)
    if n <= 1 or shard_bytes <= 0:
        return _empty_handle(network, tag)
    handle = CollectiveHandle(network, tag)
    n_rounds = n - 1
    handle._expect(n_rounds * n)

    # done[j][i] == flow of round j from sender index i has completed.
    done = [[False] * n for _ in range(n_rounds + 1)]
    started = [[False] * n for _ in range(n_rounds + 1)]

    def deps_met(j: int, i: int) -> bool:
        if j == 1:
            return True
        return done[j - 1][(i - 1) % n]

    def maybe_start(j: int, i: int) -> None:
        if j > n_rounds or started[j][i] or not deps_met(j, i):
            return
        started[j][i] = True
        src, dst = devs[i], devs[(i + 1) % n]

        def on_done(_f: Flow, j: int = j, i: int = i) -> None:
            done[j][i] = True
            handle._flow_done()
            maybe_start(j + 1, (i + 1) % n)

        network.start_flow(src, dst, shard_bytes, on_done, tag=f"{tag}:r{j}")

    for i in range(n):
        maybe_start(1, i)
    handle._seal()
    return handle


def ring_broadcast(
    network: Network,
    root: int,
    receivers: Sequence[int],
    nbytes: float,
    n_chunks: int = DEFAULT_BROADCAST_CHUNKS,
    tag: str = "broadcast",
) -> CollectiveHandle:
    """Chunk-pipelined ring broadcast from ``root`` to ``receivers``.

    The object is split into ``n_chunks`` chunks.  Chunk ``c`` travels
    the ring hop by hop; a device forwards chunk ``c`` as soon as it has
    (a) fully received it and (b) finished forwarding chunk ``c-1``, so
    chunks stream through the ring in pipeline fashion.
    """
    recv = ring_order(network.cluster, root, [d for d in receivers if d != root])
    if not recv or nbytes <= 0:
        return _empty_handle(network, tag)
    ring = [root] + recv
    n_hops = len(ring) - 1
    chunks = split_chunks(nbytes, n_chunks)
    handle = CollectiveHandle(network, tag)
    handle._expect(n_chunks * n_hops)

    done = [[False] * n_hops for _ in range(n_chunks)]
    started = [[False] * n_hops for _ in range(n_chunks)]
    # One flow per chunk per hop: bind once, pass the hop positionally.
    start_flow = network.start_flow

    def maybe_start(c: int, h: int) -> None:
        if c >= n_chunks or h >= n_hops or started[c][h]:
            return
        # Chunk c has arrived at hop h, and hop h forwarded chunk c - 1.
        if (h and not done[c][h - 1]) or (c and not done[c - 1][h]):
            return
        started[c][h] = True

        def on_done(_f: Flow, c: int = c, h: int = h) -> None:
            done[c][h] = True
            handle._flow_done()
            maybe_start(c, h + 1)
            maybe_start(c + 1, h)

        start_flow(ring[h], ring[h + 1], chunks[c], on_done, f"{tag}:c{c}h{h}")

    maybe_start(0, 0)
    handle._seal()
    return handle


def switch_multicast(
    network: Network,
    root: int,
    receivers: Sequence[int],
    nbytes: float,
    switch: str,
    n_chunks: int = 16,
    tag: str = "multicast",
) -> CollectiveHandle:
    """Switch-replicated broadcast: one upstream traversal per chunk.

    The root pushes each chunk *once* up to ``switch`` (paying its own
    NIC and any contended uplink exactly once, regardless of how many
    hosts receive), and the switch replicates it down every receiving
    host's path concurrently.  Compare the ring broadcast, which drags
    each chunk across ``A`` host boundaries — on an oversubscribed
    fat-tree that is ``A`` paid uplink traversals versus this
    primitive's one.

    Pipelining mirrors :func:`ring_broadcast`: chunk ``c``'s upstream
    leg starts once chunk ``c-1``'s finished; a host's downstream leg
    for chunk ``c`` starts once the chunk reached the switch *and* the
    host finished chunk ``c-1``.  Receivers beyond the first on each
    host are fanned out over NVLink after the last chunk lands; co-
    located receivers get direct intra-host copies.

    Routing comes from :meth:`repro.sim.topology.BoundTopology
    .multicast_tree`; the per-segment flows use explicit port sets so
    only the resources each leg actually holds are contended.
    """
    recv = [d for d in receivers if d != root]
    if not recv or nbytes <= 0:
        return _empty_handle(network, tag)
    cluster = network.cluster
    root_host = cluster.host_of(root)
    local = [d for d in recv if cluster.host_of(d) == root_host]
    by_host: dict[int, list[int]] = {}
    for d in recv:
        h = cluster.host_of(d)
        if h != root_host:
            by_host.setdefault(h, []).append(d)
    hosts = sorted(by_host)

    handle = CollectiveHandle(network, tag)

    for dst in sorted(local):
        handle._expect(1)
        network.start_flow(
            root, dst, nbytes, lambda f: handle._flow_done(), tag=f"{tag}:loc{dst}"
        )
    if not hosts:
        handle._seal()
        return handle

    tree = cluster.topo.multicast_tree(root_host, hosts, switch)
    chunks = split_chunks(nbytes, n_chunks)
    heads = {h: min(by_host[h]) for h in hosts}

    handle._expect(n_chunks)  # upstream legs
    handle._expect(n_chunks * len(hosts))  # downstream legs
    n_sib = sum(len(by_host[h]) - 1 for h in hosts)
    handle._expect(n_sib)  # NVLink fanout after the last chunk

    up_done = [False] * n_chunks
    down_done = {h: [False] * n_chunks for h in hosts}
    up_started = [False] * n_chunks
    down_started = {h: [False] * n_chunks for h in hosts}

    def fan_out(h: int) -> None:
        head = heads[h]
        for sib in sorted(by_host[h]):
            if sib == head:
                continue
            network.start_flow(
                head, sib, nbytes, lambda f: handle._flow_done(), tag=f"{tag}:fan{sib}"
            )

    def maybe_start_down(h: int, c: int) -> None:
        if c >= n_chunks or down_started[h][c]:
            return
        if not up_done[c] or (c > 0 and not down_done[h][c - 1]):
            return
        down_started[h][c] = True
        head = heads[h]
        ports = tree.down_ports_of(h) + (f"nr{h}", f"dr{head}")

        def on_done(_f: Flow, h: int = h, c: int = c) -> None:
            down_done[h][c] = True
            handle._flow_done()
            maybe_start_down(h, c + 1)
            if c == n_chunks - 1:
                fan_out(h)

        network.start_flow(
            root, head, chunks[c], on_done, tag=f"{tag}:c{c}h{h}",
            ports=ports, latency=tree.down_latency,
        )

    def maybe_start_up(c: int) -> None:
        if c >= n_chunks or up_started[c]:
            return
        if c > 0 and not up_done[c - 1]:
            return
        up_started[c] = True
        ports = (f"ds{root}", f"ns{root_host}") + tree.up_ports

        def on_done(_f: Flow, c: int = c) -> None:
            up_done[c] = True
            handle._flow_done()
            maybe_start_up(c + 1)
            for h in hosts:
                maybe_start_down(h, c)

        network.start_flow(
            root, heads[hosts[0]], chunks[c], on_done, tag=f"{tag}:c{c}u",
            ports=ports, latency=tree.up_latency,
        )

    maybe_start_up(0)
    handle._seal()
    return handle
