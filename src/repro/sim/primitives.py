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

The chained collectives (ring all-gather, ring broadcast, switch
multicast) keep their progress in one small state object.  Each flow's
completion callback is a ``partial`` of a state method: it points at
the state, and the state points at no callback, so a finished
collective holds no reference cycle and is freed as soon as its last
flow is.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Sequence

from .cluster import Cluster
from .network import Flow, Network

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .topology import MulticastTree

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

    The handle fires its done callbacks once, on completion or abort,
    and then drops them: a callback usually holds its caller (the plan
    runner holds the handle), and keeping it would tie the two into a
    reference cycle.  A callback added after that runs at once.
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
            self._fire()

    def _fire(self) -> None:
        """Run the done callbacks once, dropping them first."""
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
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
        self._fire()

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
    handle._expect((n - 1) * n)
    ring = _RingAllGather(network, handle, devs, shard_bytes, tag)
    for i in range(n):
        ring.maybe_start(1, i)
    handle._seal()
    return handle


class _RingAllGather:
    """One ring all-gather in flight: which (round, sender) flows have
    started and finished.  A flow's callback is a ``partial`` of
    :meth:`hop_done`; nothing here points back at a callback."""

    __slots__ = ("network", "handle", "devs", "n", "n_rounds", "shard_bytes",
                 "tag", "done", "started")

    def __init__(
        self,
        network: Network,
        handle: CollectiveHandle,
        devs: list[int],
        shard_bytes: float,
        tag: str,
    ) -> None:
        n = len(devs)
        self.network = network
        self.handle = handle
        self.devs = devs
        self.n = n
        self.n_rounds = n - 1
        self.shard_bytes = shard_bytes
        self.tag = tag
        # done[j][i] == flow of round j from sender index i has completed.
        self.done = [[False] * n for _ in range(n)]
        self.started = [[False] * n for _ in range(n)]

    def maybe_start(self, j: int, i: int) -> None:
        if j > self.n_rounds or self.started[j][i]:
            return
        n = self.n
        if j != 1 and not self.done[j - 1][(i - 1) % n]:
            return
        self.started[j][i] = True
        devs = self.devs
        self.network.start_flow(
            devs[i], devs[(i + 1) % n], self.shard_bytes, partial(self.hop_done, j, i),
            tag=f"{self.tag}:r{j}",
        )

    def hop_done(self, j: int, i: int, _f: Flow) -> None:
        self.done[j][i] = True
        self.handle._flow_done()
        self.maybe_start(j + 1, (i + 1) % self.n)


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
    chunks = split_chunks(nbytes, n_chunks)
    handle = CollectiveHandle(network, tag)
    handle._expect(n_chunks * len(recv))
    _RingBroadcast(network, handle, [root] + recv, chunks, tag).maybe_start(0, 0)
    handle._seal()
    return handle


class _RingBroadcast:
    """One chunk-pipelined ring broadcast in flight: which (chunk, hop)
    flows have started and finished.  The per-hop work lives in
    :meth:`maybe_start` and :meth:`hop_done`; a flow's callback is a
    ``partial`` of :meth:`hop_done`, and nothing here points back at a
    callback."""

    __slots__ = ("handle", "start_flow", "ring", "chunks", "n_chunks", "n_hops",
                 "tag", "done", "started")

    def __init__(
        self,
        network: Network,
        handle: CollectiveHandle,
        ring: list[int],
        chunks: list[float],
        tag: str,
    ) -> None:
        n_chunks, n_hops = len(chunks), len(ring) - 1
        self.handle = handle
        # One flow per chunk per hop: bind once, pass the hop positionally.
        self.start_flow = network.start_flow
        self.ring = ring
        self.chunks = chunks
        self.n_chunks = n_chunks
        self.n_hops = n_hops
        self.tag = tag
        self.done = [[False] * n_hops for _ in range(n_chunks)]
        self.started = [[False] * n_hops for _ in range(n_chunks)]

    def maybe_start(self, c: int, h: int) -> None:
        if c >= self.n_chunks or h >= self.n_hops or self.started[c][h]:
            return
        # Chunk c has arrived at hop h, and hop h forwarded chunk c - 1.
        done = self.done
        if (h and not done[c][h - 1]) or (c and not done[c - 1][h]):
            return
        self.started[c][h] = True
        ring = self.ring
        self.start_flow(ring[h], ring[h + 1], self.chunks[c], partial(self.hop_done, c, h),
                        f"{self.tag}:c{c}h{h}")

    def hop_done(self, c: int, h: int, _f: Flow) -> None:
        self.done[c][h] = True
        self.handle._flow_done()
        self.maybe_start(c, h + 1)
        self.maybe_start(c + 1, h)


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
    handle._expect(n_chunks)  # upstream legs
    handle._expect(n_chunks * len(hosts))  # downstream legs
    handle._expect(sum(len(by_host[h]) - 1 for h in hosts))  # NVLink fanout
    _SwitchMulticast(network, handle, root, nbytes, by_host, tree, chunks, tag).start_up(0)
    handle._seal()
    return handle


class _SwitchMulticast:
    """One switch multicast in flight: which upstream legs (per chunk)
    and downstream legs (per host and chunk) have started and finished.
    A leg's callback is a ``partial`` of :meth:`up_done` or
    :meth:`down_done`; nothing here points back at a callback."""

    __slots__ = ("network", "handle", "root", "root_host", "nbytes", "by_host",
                 "hosts", "heads", "tree", "chunks", "n_chunks", "tag", "up_finished",
                 "up_started", "down_finished", "down_started")

    def __init__(
        self,
        network: Network,
        handle: CollectiveHandle,
        root: int,
        nbytes: float,
        by_host: dict[int, list[int]],
        tree: "MulticastTree",
        chunks: list[float],
        tag: str,
    ) -> None:
        n_chunks = len(chunks)
        hosts = sorted(by_host)
        self.network = network
        self.handle = handle
        self.root = root
        self.root_host = network.cluster.host_of(root)
        self.nbytes = nbytes
        self.by_host = by_host
        self.hosts = hosts
        self.heads = {h: min(by_host[h]) for h in hosts}
        self.tree = tree
        self.chunks = chunks
        self.n_chunks = n_chunks
        self.tag = tag
        self.up_finished = [False] * n_chunks
        self.up_started = [False] * n_chunks
        self.down_finished = {h: [False] * n_chunks for h in hosts}
        self.down_started = {h: [False] * n_chunks for h in hosts}

    def fan_out(self, h: int) -> None:
        head = self.heads[h]
        handle = self.handle
        for sib in sorted(self.by_host[h]):
            if sib == head:
                continue
            self.network.start_flow(
                head, sib, self.nbytes, lambda f: handle._flow_done(),
                tag=f"{self.tag}:fan{sib}",
            )

    def start_down(self, h: int, c: int) -> None:
        if c >= self.n_chunks or self.down_started[h][c]:
            return
        if not self.up_finished[c] or (c > 0 and not self.down_finished[h][c - 1]):
            return
        self.down_started[h][c] = True
        head = self.heads[h]
        tree = self.tree
        self.network.start_flow(
            self.root, head, self.chunks[c], partial(self.down_done, h, c),
            tag=f"{self.tag}:c{c}h{h}",
            ports=tree.down_ports_of(h) + (f"nr{h}", f"dr{head}"),
            latency=tree.down_latency,
        )

    def down_done(self, h: int, c: int, _f: Flow) -> None:
        self.down_finished[h][c] = True
        self.handle._flow_done()
        self.start_down(h, c + 1)
        if c == self.n_chunks - 1:
            self.fan_out(h)

    def start_up(self, c: int) -> None:
        if c >= self.n_chunks or self.up_started[c]:
            return
        if c > 0 and not self.up_finished[c - 1]:
            return
        self.up_started[c] = True
        root = self.root
        tree = self.tree
        self.network.start_flow(
            root, self.heads[self.hosts[0]], self.chunks[c], partial(self.up_done, c),
            tag=f"{self.tag}:c{c}u",
            ports=(f"ds{root}", f"ns{self.root_host}") + tree.up_ports,
            latency=tree.up_latency,
        )

    def up_done(self, c: int, _f: Flow) -> None:
        self.up_finished[c] = True
        self.handle._flow_done()
        self.start_up(c + 1)
        for h in self.hosts:
            self.start_down(h, c)
