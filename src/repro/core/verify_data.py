"""Execution-aware data-plane integrity verification.

:func:`~repro.analysis.check_plan` proves a
plan *would* deliver everything if every op succeeded.  This module
closes the remaining gap for faulted runs: given the plan **and** the
timing outcome of actually executing it (which ops delivered, which were
abandoned after retries, which were blocked behind wedged host queues),
it symbolically tracks which source slices each destination device
*actually received* and fails loudly on any gap or overlap.

The walk over the ops (:func:`walk_deliveries`) and the per-tile
arrival counter (:func:`tile_arrivals`) are also where
:func:`repro.analysis.check_plan` reads its coverage (P002) and sender
authority (P005) verdicts from: the static analyzer and this verifier
share one reading of what a plan delivers.

Because every sender is checked against the source tile grid (a replica
must genuinely hold the region it claims to send), two deliveries of
the same element are value-identical by construction whenever both
senders are authoritative — so "overlap" here means *duplicated
delivery*, which the strict mode treats as an error just like a gap:
it demands that every element of every destination tile arrive exactly
once.

Broadcast re-roots (``CommPlan.fallbacks``) need no special casing: the
re-rooted op names its actual sender, which the authority check covers;
retries are invisible at this level because the network either delivered
the full payload (possibly after retries) or abandoned the op, and
abandonment shows up in ``TimingResult.failed_ops``.

**Gray corruption** (:class:`repro.sim.faults.CorruptionWindow`) is the
one fault the timing layer cannot surface on its own: the flow completed
on time, the bytes are just wrong.  The verifier closes that hole with a
hard never-silent rule.  A corrupted op whose checksum caught it
(``TimingResult.corrupted_ops``) had its payload *discarded* by the
receiver, so it is credited with **no** delivery — if no duplicate
replica delivery covers the same tile, the gap fails certification
exactly like an abandoned transfer.  A corrupted op *without* a
checksum (``unverified_corruption``, possible only for hand-built plans
that skipped the compiler's emit stamping) means bad bytes were applied
and nothing in-band could know: the report is never certified, and
under ``raise_on_error`` it raises before anything else — "maybe-bad
data certified as good" is the one outcome this module exists to
prevent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import prod
from typing import Iterator

from .plan import AllGatherOp, CommPlan, ScatterOp
from .slices import Region, region_intersection, region_size, split_offsets
from .task import ReshardingTask

__all__ = [
    "IntegrityError",
    "IntegrityReport",
    "DeliveryWalk",
    "walk_deliveries",
    "tile_arrivals",
    "verify_delivery",
]


class IntegrityError(RuntimeError):
    """The executed plan did not deliver exactly the required data."""


@dataclass
class IntegrityReport:
    """Outcome of verifying one executed (or hypothetical) plan.

    ``gaps`` / ``duplicates`` map destination device id to the number of
    elements of its tile that arrived zero / more-than-one times.  A
    report is *certified* when every destination tile was covered
    exactly once — no missing and no duplicated slices.
    """

    n_ops: int
    n_ops_failed: int
    n_devices: int
    gaps: dict[int, int] = field(default_factory=dict)
    duplicates: dict[int, int] = field(default_factory=dict)
    #: ops the verifier refused to credit (e.g. all-gather missing parts)
    discredited_ops: tuple[int, ...] = ()
    #: plan-time re-roots that were honoured (from ``CommPlan.fallbacks``)
    n_fallbacks: int = 0
    #: flows the network delivered only after retrying (when known),
    #: corrupted deliveries included
    n_retried_flows: int = 0
    #: ops whose delivery was corrupted and *detected* by checksum
    #: (payload discarded, no delivery credit)
    corrupted_ops: tuple[int, ...] = ()
    #: corrupted ops with no checksum: undetectable in-band, never
    #: certifiable
    unverifiable_ops: tuple[int, ...] = ()

    @property
    def certified(self) -> bool:
        return (
            not self.gaps
            and not self.duplicates
            and not self.unverifiable_ops
        )

    def __repr__(self) -> str:
        state = "certified" if self.certified else (
            f"gaps={self.gaps} duplicates={self.duplicates}"
        )
        return (
            f"IntegrityReport({state}, ops={self.n_ops}, "
            f"failed={self.n_ops_failed}, devices={self.n_devices})"
        )


@dataclass
class DeliveryWalk:
    """What a plan's ops deliver, read once for every consumer.

    ``regions[d]`` lists the regions credited to destination device
    ``d``, in op order.  ``discredited`` maps each op refused credit to
    the reason; the reason is empty for a malformed op (wrong region
    rank, unknown op kind) that structural checks report instead.
    """

    regions: dict[int, list[Region]]
    discredited: dict[int, str]


def _gather_fed(op: AllGatherOp, scattered: dict[int, ScatterOp]) -> bool:
    """True when the scatters ``op`` names in its deps cover its region.

    Only parts landing on the all-gather's own group count: the group
    can rebuild the region only from what its members hold.
    """
    size = region_size(op.region)
    group = set(op.devices)
    parts: list[tuple[int, int]] = []
    for dep in op.deps:
        sc = scattered.get(dep)
        if sc is None or sc.region != op.region or not 0 < len(sc.receivers) <= size:
            continue
        offs = split_offsets(size, len(sc.receivers))
        parts.extend(
            (offs[k], offs[k + 1]) for k, r in enumerate(sc.receivers) if r in group
        )
    reach = 0
    for lo, hi in sorted(parts):
        if lo > reach:
            break
        reach = max(reach, hi)
    return reach >= size


def walk_deliveries(
    plan: CommPlan, failed: frozenset[int] = frozenset()
) -> DeliveryWalk:
    """Walk ``plan.ops`` in list order and credit what each delivers.

    The IR contract of :mod:`repro.core.plan`: a sending op is credited
    only when its sender holds the region
    (:meth:`~repro.core.task.ReshardingTask.holds`); a scatter places
    flat parts, credited only through the all-gather that consumes
    them; an all-gather is credited only when the scatters its ``deps``
    name give its group parts covering the region.  Ops in ``failed``
    delivered nothing.
    """
    task = plan.task
    rank = len(task.shape)
    regions: dict[int, list[Region]] = {d: [] for d in task.dst_mesh.devices}
    discredited: dict[int, str] = {}
    scattered: dict[int, ScatterOp] = {}
    for op in plan.ops:
        if op.op_id in failed:
            continue
        sender = op.sender
        if len(op.region) != rank:
            discredited[op.op_id] = ""
            continue
        if isinstance(op, AllGatherOp):
            if not _gather_fed(op, scattered):
                discredited[op.op_id] = (
                    "all-gather group not fed by the scatters its deps name"
                )
                continue
        elif sender is None:
            discredited[op.op_id] = ""
            continue
        elif not task.holds(sender, op.region):
            discredited[op.op_id] = (
                f"sender {sender} holds {task.src_grid.device_region(sender)}, "
                f"not {op.region}"
                if sender in task.src_mesh.devices
                else f"sender {sender} is not a source-mesh device"
            )
            continue
        elif isinstance(op, ScatterOp):
            scattered[op.op_id] = op
            continue
        for r in op.receivers:
            if r in regions:
                regions[r].append(op.region)
    return DeliveryWalk(regions=regions, discredited=discredited)


def _arrivals(tile: Region, boxes: list[Region]) -> tuple[int, int]:
    """``(missing, duplicated)`` elements of ``tile`` under ``boxes``.

    Counts arrivals per cell of the grid the boxes' edges cut the tile
    into, weighted by cell volume: the cost follows the number of
    boxes, not the tile size.
    """
    cuts = [
        sorted({lo, hi}.union(*((b[d][0], b[d][1]) for b in boxes)))
        for d, (lo, hi) in enumerate(tile)
    ]
    arrivals: dict[tuple[int, ...], int] = {}
    for box in boxes:
        spans = (range(c.index(lo), c.index(hi)) for c, (lo, hi) in zip(cuts, box))
        for cell in product(*spans):
            arrivals[cell] = arrivals.get(cell, 0) + 1
    missing = duplicated = 0
    for cell in product(*(range(len(c) - 1) for c in cuts)):
        n = arrivals.get(cell, 0)
        if n != 1:
            volume = prod(c[i + 1] - c[i] for c, i in zip(cuts, cell))
            if n == 0:
                missing += volume
            else:
                duplicated += volume
    return missing, duplicated


def tile_arrivals(
    task: ReshardingTask, regions: dict[int, list[Region]]
) -> Iterator[tuple[int, Region, int, int]]:
    """Per destination device: ``(device, tile, missing, duplicated)``.

    ``missing``/``duplicated`` count the tile's elements that none / more
    than one of the device's ``regions`` cover; an intra-mesh device
    also counts its own source shard.
    """
    src_devices = set(task.src_mesh.devices)
    for dev in task.dst_mesh.devices:
        tile = task.dst_grid.device_region(dev)
        covering = regions.get(dev, [])
        if dev in src_devices:
            covering = [*covering, task.src_grid.device_region(dev)]
        boxes = [b for r in covering if (b := region_intersection(r, tile)) is not None]
        yield (dev, tile, *_arrivals(tile, boxes))


def verify_delivery(
    plan: CommPlan,
    timing=None,
    strict: bool = True,
    raise_on_error: bool = True,
) -> IntegrityReport:
    """Certify that the executed plan delivered every tile exactly once.

    ``timing`` is the :class:`~repro.core.executor.TimingResult` of
    running the plan; ops listed in its ``failed_ops`` (abandoned
    transfers, or tasks blocked behind wedged host queues) are credited
    with **no** delivery — a partially received broadcast is unusable.
    With ``timing=None`` the plan is assumed fully executed (the purely
    static check, equivalent in strength to ``check_plan``'s coverage
    plus duplicate detection).

    ``strict`` also fails duplicated deliveries (exact-once cover); with
    ``strict=False`` duplicates are still *reported* but do not raise —
    appropriate for replica-delivery strategies whose receivers crop.
    """
    task = plan.task
    corrupted: tuple[int, ...] = (
        tuple(timing.corrupted_ops) if timing is not None else ()
    )
    unverifiable: tuple[int, ...] = (
        tuple(timing.unverified_corruption) if timing is not None else ()
    )
    # Detected corruption = discarded payload = no delivery credit.
    failed: frozenset[int] = frozenset(
        (timing.failed_ops if timing is not None else ())
    ) | frozenset(corrupted)
    walk = walk_deliveries(plan, failed)

    gaps: dict[int, int] = {}
    duplicates: dict[int, int] = {}
    for dev, _, n_missing, n_dup in tile_arrivals(task, walk.regions):
        if n_missing:
            gaps[dev] = n_missing
        if n_dup:
            duplicates[dev] = n_dup

    report = IntegrityReport(
        n_ops=len(plan.ops),
        n_ops_failed=len(failed),
        n_devices=len(walk.regions),
        gaps=gaps,
        duplicates=duplicates,
        discredited_ops=tuple(walk.discredited),
        n_fallbacks=len(plan.fallbacks),
        n_retried_flows=(
            sum(
                1
                for row in timing.network.bus.span_rows
                if row[1] == "flow"
                and row[7]["attempts"] != 1
                and row[7]["status"] not in ("failed", "abandoned")
            )
            if timing is not None
            else 0
        ),
        corrupted_ops=corrupted,
        unverifiable_ops=unverifiable,
    )
    if raise_on_error:
        if report.unverifiable_ops:
            raise IntegrityError(
                f"silent corruption possible: op(s) "
                f"{list(report.unverifiable_ops)[:8]} delivered corrupted "
                f"bytes but carry no checksum — delivery integrity cannot "
                f"be certified"
            )
        if report.gaps:
            raise IntegrityError(
                f"missing data on {len(report.gaps)} device(s): "
                + ", ".join(
                    f"d{d}:{n}el" for d, n in sorted(report.gaps.items())[:8]
                )
            )
        if strict and report.duplicates:
            raise IntegrityError(
                f"duplicated deliveries on {len(report.duplicates)} device(s): "
                + ", ".join(
                    f"d{d}:{n}el" for d, n in sorted(report.duplicates.items())[:8]
                )
            )
    return report
