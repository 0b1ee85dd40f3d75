"""Additional timed collectives: all-to-all, reduce-scatter, all-reduce.

These complete the §2.1 substrate: *intra-mesh* layout conversion
(resharding within one mesh) is implemented with collective
communication — all-gather (see :mod:`repro.sim.primitives`), all-to-all
for shard-axis swaps, and all-reduce/reduce-scatter for partial-sum
layouts.  All are ring/pairwise algorithms with the standard
bandwidth-optimal costs:

* pairwise all-to-all: each device exchanges ``total/N`` with every
  other device; time ~ ``(N-1)/N * total / bw`` per port;
* ring reduce-scatter: ``N-1`` rounds of ``total/N`` shards;
* ring all-reduce = reduce-scatter + all-gather: ``2 (N-1)/N * total/bw``.
"""

from __future__ import annotations

from typing import Sequence

from .network import Network
from .primitives import (
    CollectiveHandle,
    _empty_handle,
    ring_allgather,
)

__all__ = ["all_to_all", "reduce_scatter", "all_reduce"]


def all_to_all(
    network: Network,
    devices: Sequence[int],
    per_pair_bytes: float,
    tag: str = "all_to_all",
) -> CollectiveHandle:
    """Pairwise exchange: every device sends ``per_pair_bytes`` to every
    other device.

    Implemented as ``N-1`` pairwise rounds (round ``r``: device ``i``
    sends to ``i xor``-style partner ``(i + r) mod N``), each round's
    flows running concurrently; rounds are chained per sender so a
    device's NIC handles one outgoing partner at a time.
    """
    devs = list(devices)
    n = len(devs)
    if n <= 1 or per_pair_bytes <= 0:
        return _empty_handle(network, tag)
    handle = CollectiveHandle(network, tag)
    n_rounds = n - 1
    handle._expect(n_rounds * n)

    def start_round(r: int) -> None:
        if r > n_rounds:
            return
        remaining = [n]

        def on_done(_f) -> None:
            handle._flow_done()
            remaining[0] -= 1
            if remaining[0] == 0:
                start_round(r + 1)

        for i in range(n):
            j = (i + r) % n
            network.start_flow(
                devs[i], devs[j], per_pair_bytes, on_done, tag=f"{tag}:r{r}"
            )

    start_round(1)
    handle._seal()
    return handle


def reduce_scatter(
    network: Network,
    devices: Sequence[int],
    total_bytes: float,
    tag: str = "reduce_scatter",
) -> CollectiveHandle:
    """Ring reduce-scatter over ``total_bytes`` of per-device data.

    ``N-1`` rounds; in round ``r`` device ``i`` sends a ``total/N``
    shard (its running partial sum) to device ``i+1``.  Identical
    communication structure to the ring all-gather, so we reuse it for
    timing (reduction compute is not modelled).
    """
    devs = list(devices)
    n = len(devs)
    if n <= 1 or total_bytes <= 0:
        return _empty_handle(network, tag)
    return ring_allgather(network, devs, total_bytes / n, tag=tag)


def all_reduce(
    network: Network,
    devices: Sequence[int],
    total_bytes: float,
    tag: str = "all_reduce",
) -> CollectiveHandle:
    """Ring all-reduce: reduce-scatter followed by all-gather."""
    devs = list(devices)
    n = len(devs)
    if n <= 1 or total_bytes <= 0:
        return _empty_handle(network, tag)
    handle = CollectiveHandle(network, tag)
    handle._expect(2 * n * (n - 1))

    rs = reduce_scatter(network, devs, total_bytes, tag=f"{tag}:rs")

    def count(h: CollectiveHandle) -> None:
        for _ in range(h.n_total):
            handle._flow_done()

    def start_ag(_h: CollectiveHandle) -> None:
        ag = ring_allgather(network, devs, total_bytes / n, tag=f"{tag}:ag")
        ag.add_done_callback(count)

    rs.add_done_callback(count)
    rs.add_done_callback(start_ag)
    handle._seal()
    return handle
