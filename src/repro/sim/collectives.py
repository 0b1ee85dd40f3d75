"""Timed ring collectives for partial-sum layouts: reduce-scatter, all-reduce.

The paper's §2.1 (Fig. 1b) resolves a partial-sum layout with
all-reduce or reduce-scatter.  Both are ring algorithms with the
standard bandwidth-optimal costs, built on the ring all-gather of
:mod:`repro.sim.primitives`:

* ring reduce-scatter: ``N-1`` rounds of ``total/N`` shards;
* ring all-reduce = reduce-scatter + all-gather: ``2 (N-1)/N * total/bw``.

Intra-mesh layout conversion (:mod:`repro.core.intra`) does not call
these; it compiles a ``CommPlan`` like cross-mesh resharding does.
"""

from __future__ import annotations

from typing import Sequence

from .network import Network
from .primitives import (
    CollectiveHandle,
    _empty_handle,
    ring_allgather,
)

__all__ = ["reduce_scatter", "all_reduce"]


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
