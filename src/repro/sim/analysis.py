"""Closed-form latency models from the paper's §3.1 (Figure 3).

``t`` is the time to move the object once across a host boundary
(``t = nbytes / inter_host_bandwidth``).  ``A`` is the number of receiving
hosts and ``B`` the number of receiving devices per host.  Intra-node time
is neglected, exactly as in the paper's analysis.

These are used by the E7 bench and by tests that check the simulator
reproduces the analysis, not by the planner itself (the planner measures
costs on the simulator).
"""

from __future__ import annotations

__all__ = [
    "t_cross_host",
    "latency_send_recv",
    "latency_local_allgather",
    "latency_global_allgather",
    "latency_broadcast",
]


def t_cross_host(nbytes: float, inter_host_bandwidth: float) -> float:
    """Time ``t`` to push the object across one host boundary once."""
    if inter_host_bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    return nbytes / inter_host_bandwidth


def latency_send_recv(a: int, b: int, t: float) -> float:
    """Naive send/recv to every device: ``T = A * B * t``."""
    return a * b * t


def latency_local_allgather(a: int, b: int, t: float) -> float:
    """Send one copy per host + intra-host all-gather: ``T = A * t``."""
    return a * t


def latency_global_allgather(a: int, b: int, t: float) -> float:
    """Scatter over all devices + global ring all-gather: ``T = 2t``.

    Only valid when receivers span more than one device; a single
    receiver degenerates to a plain send (``t``).
    """
    return 2.0 * t if a * b > 1 else t


def latency_broadcast(a: int, b: int, t: float, n_chunks: int) -> float:
    """Pipelined ring broadcast: ``T = t + A * t / K``."""
    if n_chunks < 1:
        raise ValueError("n_chunks must be >= 1")
    return t + a * t / n_chunks

