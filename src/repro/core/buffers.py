"""Per-host transient buffer attribution — the one sizeof/buffer oracle.

Both sides of the memory-soundness invariant live on this module:

* the **runtime** accounting in :class:`~repro.core.executor.PlanRunner`
  charges :func:`op_host_buffers` when an op launches and releases it
  when the op completes, tracking the actual per-host high-water mark;
* the **static** analyzer (:mod:`repro.analysis.memory_analysis`)
  combines the same per-op charges with the schedule's host-serialization
  order into a sound upper bound, per host, on live transient bytes.

Because both consume the identical attribution, ``static_bound >=
simulated_peak`` reduces to the serialization argument alone — the
formulas cannot drift apart.

Attribution is **receiver-side**: senders read resident tensor shards
(already accounted as model state), while every receiver needs a
transient landing buffer until the op's payload is consumed:

* ``SendOp`` — ``nbytes`` on the receiver's host;
* ``BroadcastOp``/``MulticastOp`` — ``nbytes`` per receiver (ring
  forwarding and switch fanout both materialize the full slice on every
  receiver, including same-host siblings);
* ``ScatterOp`` — ``nbytes / len(receivers)`` per receiver (each part
  is staged only on the device that owns it);
* ``AllGatherOp`` — ``nbytes`` per group device (each device assembles
  the full region from the ring).

This module and :mod:`repro.core.tensor` are the only places raw
``itemsize`` byte math is allowed (repro-lint L004).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .plan import CommOp, ScatterOp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.cluster import Cluster

__all__ = ["op_host_buffers"]


def op_host_buffers(cluster: "Cluster", op: CommOp) -> dict[int, float]:
    """Transient buffer bytes ``op`` pins while in flight, per host id.

    Devices outside the cluster are skipped — hand-built fixture plans
    may reference them, and sender-authority analysis (P005/P008)
    already reports the defect; attribution stays total either way.
    Hosts with a zero charge are omitted.
    """
    out: dict[int, float] = {}

    def charge(device: int, nbytes: float) -> None:
        if 0 <= device < cluster.n_devices:
            host = cluster.host_of(device)
            out[host] = out.get(host, 0.0) + nbytes

    receivers = op.receivers
    nbytes = op.nbytes
    if isinstance(op, ScatterOp) and receivers:
        nbytes /= len(receivers)
    for r in receivers:
        charge(r, nbytes)
    return out
