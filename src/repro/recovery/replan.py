"""Failure-time replanning: rebuild the placement, reshard the state.

When a host dies permanently the job's old placement is gone for good.
Replanning answers three questions with the paper's own machinery:

* **Where does each stage run now?**  Substitute a warm spare host for
  the dead one when available (mesh shapes preserved), otherwise
  *shrink*: recompute the stage -> mesh placement over the surviving
  hosts, co-locating stages when there are fewer hosts than stages.
* **How does checkpointed state reach the new placement?**  Each stage
  whose mesh changed gets a cross-mesh :class:`ReshardingTask` from a
  surviving checkpoint replica (primary mesh, or the buddy mesh when
  the primary lost a host) to the rebuilt mesh — compiled by the
  failure-aware strategies, scheduled, and timed on the flow simulator
  exactly like any other resharding in this repo.
* **Did the data actually arrive?**  Every step is also executed on the
  NumPy data plane and certified by
  :func:`repro.core.verify_data.verify_delivery` — exact-once delivery
  of every element of every destination tile, through broadcast
  re-roots and retries.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ..analysis.plan_checker import check_plan
from ..compiler import CompileContext, compile_resharding
from ..core.data import apply_plan
from ..core.executor import TimingResult, simulate_plan
from ..core.mesh import DeviceMesh
from ..core.plan import BroadcastOp, CommPlan, MulticastOp, SendOp
from ..core.task import ReshardingTask
from ..core.tensor import DistributedTensor
from ..core.verify_data import IntegrityError, IntegrityReport, verify_delivery
from ..models.parallel import ParallelJobSpec
from ..sim.cluster import Cluster
from ..sim.faults import FaultSchedule
from .checkpoint import Checkpoint

__all__ = [
    "RecoveryError",
    "ReshardStep",
    "RecoveryPlan",
    "place_stages",
    "replan",
]

#: sharding spec for 1-D state tensors: dim 0 sharded over mesh axis 1,
#: used with meshes reshaped to (1, n) so every device holds one slice.
STATE_SPEC = "S1"


class RecoveryError(RuntimeError):
    """The job cannot be recovered (state lost or no hosts left)."""


def place_stages(
    cluster: Cluster, n_stages: int, hosts: list[int]
) -> list[DeviceMesh]:
    """Pack ``n_stages`` onto ``hosts``, splitting devices when shrunk.

    Stages are assigned round-robin; a host carrying ``k`` stages splits
    its devices into ``k`` contiguous groups, so every stage keeps at
    least one device.  Meshes come out as ``(1, group)`` grids — the
    state resharding layout.  Raises when even one device per stage
    cannot be found.
    """
    if not hosts:
        raise RecoveryError("no surviving hosts to place stages on")
    dph = cluster.spec.devices_per_host
    if n_stages > len(hosts) * dph:
        raise RecoveryError(
            f"cannot place {n_stages} stages on {len(hosts)} host(s) "
            f"with {dph} device(s) each"
        )
    by_host: dict[int, list[int]] = {h: [] for h in hosts}
    for s in range(n_stages):
        by_host[hosts[s % len(hosts)]].append(s)
    meshes: dict[int, DeviceMesh] = {}
    for h, stages in by_host.items():
        if not stages:
            continue
        devs = [d.device_id for d in cluster.hosts[h].devices]
        n_groups = len(stages)
        base, extra = divmod(len(devs), n_groups)
        pos = 0
        for k, s in enumerate(stages):
            width = base + (1 if k < extra else 0)
            meshes[s] = DeviceMesh(cluster, [devs[pos : pos + width]])
            pos += width
    return [meshes[s] for s in range(n_stages)]


@dataclass
class ReshardStep:
    """One certified state movement: checkpoint replica -> new mesh."""

    stage: int
    src_mesh: DeviceMesh = field(repr=False)
    dst_mesh: DeviceMesh = field(repr=False)
    task: ReshardingTask = field(repr=False)
    timing: TimingResult = field(repr=False)
    integrity: IntegrityReport
    restored: np.ndarray = field(repr=False)

    @property
    def time(self) -> float:
        return self.timing.total_time

    @property
    def bytes_moved(self) -> float:
        return self.timing.bytes_cross_host + self.timing.bytes_intra_host


@dataclass
class RecoveryPlan:
    """Outcome of replanning after one (or more) permanent host losses."""

    mode: str  # "substitute" | "shrink"
    dead_hosts: frozenset[int]
    used_spares: tuple[int, ...]
    new_meshes: list[DeviceMesh] = field(repr=False)
    steps: list[ReshardStep] = field(repr=False, default_factory=list)

    @property
    def reshard_time(self) -> float:
        """Wall-clock of the state restore: steps run concurrently
        (disjoint stage pairs), so the slowest one dominates."""
        return max((s.time for s in self.steps), default=0.0)

    @property
    def certified(self) -> bool:
        return all(s.integrity.certified for s in self.steps)

    @property
    def bytes_moved(self) -> float:
        return sum(s.bytes_moved for s in self.steps)


def _substitute(mesh: DeviceMesh, mapping: dict[int, int]) -> DeviceMesh:
    """Rebuild ``mesh`` with each dead host's devices swapped for the
    same-slot devices of its replacement (mesh shape preserved)."""
    cluster = mesh.cluster
    dph = cluster.spec.devices_per_host
    grid = []
    for row in mesh.grid:
        new_row = []
        for d in row:
            h = cluster.host_of(d)
            if h in mapping:
                local = cluster.device(d).local_id
                new_row.append(mapping[h] * dph + local)
            else:
                new_row.append(d)
        grid.append(new_row)
    return DeviceMesh(cluster, grid)


def _flat(mesh: DeviceMesh) -> DeviceMesh:
    """The same devices as a (1, n) mesh — the state sharding layout."""
    if mesh.shape[0] == 1:
        return mesh
    return mesh.reshaped(1, mesh.n_devices)


def _trim_local_deliveries(plan: CommPlan) -> CommPlan:
    """Drop deliveries of regions the receiver already holds locally.

    When source and destination meshes overlap (shrunk placements), the
    cross-mesh strategies — written for disjoint meshes — still ship
    every destination tile over the network, while the data plane also
    reuses the local source shard.  That redundancy would (correctly)
    fail exact-once certification, so recovery plans are trimmed first:
    a receiver whose own source shard fully contains an op's region is
    removed from it.  Only Send/Broadcast ops are trimmed; composite
    collectives (scatter + all-gather) are left intact, so with the
    all-gather strategy an overlapping reshard may still fail strict
    verification — the broadcast-family strategies are the supported
    recovery path.
    """
    task = plan.task
    if not set(task.src_mesh.devices) & set(task.dst_mesh.devices):
        return plan

    kept: list = []
    dropped: set[int] = set()
    changed = False
    for op in plan.ops:
        if isinstance(op, SendOp) and task.holds(op.receiver, op.region):
            dropped.add(op.op_id)
            changed = True
            continue
        if isinstance(op, (BroadcastOp, MulticastOp)):
            recv = tuple(r for r in op.receivers if not task.holds(r, op.region))
            if not recv:
                dropped.add(op.op_id)
                changed = True
                continue
            if len(recv) != len(op.receivers):
                op = dataclasses.replace(op, receivers=recv)
                changed = True
        kept.append(op)
    if not changed:
        return plan
    ops = [
        dataclasses.replace(
            op, deps=tuple(d for d in op.deps if d not in dropped)
        )
        if any(d in dropped for d in op.deps)
        else op
        for op in kept
    ]
    return dataclasses.replace(plan, ops=ops)


def replan(
    spec: ParallelJobSpec,
    checkpoint: Checkpoint,
    faults: FaultSchedule,
    failure_time: float,
    used_spares: frozenset[int] = frozenset(),
) -> RecoveryPlan:
    """Rebuild the placement after the failures known at ``failure_time``
    and compile + execute + certify the state resharding (broadcast,
    under ``faults`` re-anchored at ``failure_time``).

    ``used_spares`` are spares already promoted by earlier recoveries
    (they now carry work and are no longer available).  The returned
    plan's ``new_meshes`` replace ``spec.stage_meshes``; communication
    edges must then be re-resolved on the new topology by the caller.
    """
    cluster = spec.cluster
    dead = set(faults.failed_hosts(failure_time))
    working = {h for m in spec.stage_meshes for h in m.hosts}
    dead_working = sorted(dead & working)
    if not dead_working:
        raise RecoveryError(
            f"no working host is dead at t={failure_time:g}; nothing to replan"
        )
    # Spares sharing a failure domain with a dead host are suspect: the
    # domain event that killed the worker may claim them next (or
    # already did — a down spare is no spare).  Prefer out-of-domain,
    # currently-up spares; risky ones are kept as a last resort.
    cspec = cluster.spec
    spares = sorted(
        (
            h
            for h in cluster.spare_host_ids
            if h not in dead and h not in used_spares
        ),
        key=lambda h: (
            faults.host_down(h, failure_time),
            any(cspec.shares_domain(h, d) for d in sorted(dead)),
            h,
        ),
    )

    n_stages = len(spec.stage_meshes)
    if len(spares) >= len(dead_working):
        mode = "substitute"
        promoted = tuple(spares[: len(dead_working)])
        mapping = dict(zip(dead_working, promoted))
        new_meshes = [_substitute(m, mapping) for m in spec.stage_meshes]
    else:
        mode = "shrink"
        promoted = tuple(spares)  # shrink still absorbs any idle spares
        survivors = sorted((working | set(promoted)) - dead)
        new_meshes = place_stages(cluster, n_stages, survivors)

    # The resharding strategies must see the cluster as it is *now*:
    # re-anchor the schedule so every past failure is dead at t=0.
    faults_now = faults.shifted(failure_time)

    steps: list[ReshardStep] = []
    for s in range(n_stages):
        old = checkpoint.primary_meshes[s]
        new = new_meshes[s]
        if set(new.devices) == set(old.devices) and not (
            set(old.hosts) & dead
        ):
            continue  # state reloads locally from the host's own disk
        src_mesh = None
        for replica in checkpoint.replicas_of(s):
            if not set(replica.hosts) & dead:
                src_mesh = replica
                break
        if src_mesh is None:
            raise RecoveryError(
                f"stage {s}: every checkpoint replica lost a host "
                f"(dead: {sorted(dead)}); state is unrecoverable — "
                "enable buddy replication or add spares"
            )
        array = checkpoint.arrays[s]
        task = ReshardingTask(
            array.shape,
            _flat(src_mesh),
            STATE_SPEC,
            _flat(new),
            STATE_SPEC,
            dtype=array.dtype,
            require_disjoint=False,
        )
        compiled = compile_resharding(
            task,
            CompileContext(faults=faults_now),
        )
        plan = _trim_local_deliveries(compiled.plan)
        if plan is compiled.plan:
            timing = compiled.ensure_timing()
        else:
            # Trimming rewrote the op list: the compiled plan's memoized
            # timing no longer describes what will execute, and the
            # validate pass's clean bill of health no longer applies —
            # re-prove the trimmed plan before trusting it with state.
            trimmed_report = check_plan(plan, faults=faults_now)
            if not trimmed_report.ok:
                raise RecoveryError(
                    f"stage {s}: trimmed recovery plan failed static "
                    "analysis:\n"
                    + "\n".join(d.format() for d in trimmed_report.errors)
                )
            timing = simulate_plan(plan, faults=faults_now)
        src_tensor = DistributedTensor.from_global(
            _flat(src_mesh), STATE_SPEC, array
        )
        dst_tensor = apply_plan(plan, src_tensor)
        integrity = verify_delivery(plan, timing, strict=True)
        restored = dst_tensor.to_global()
        if not np.array_equal(restored, array):
            raise IntegrityError(
                f"stage {s}: restored state differs from checkpoint "
                "despite certified delivery"
            )
        steps.append(
            ReshardStep(
                stage=s,
                src_mesh=src_mesh,
                dst_mesh=new,
                task=task,
                timing=timing,
                integrity=integrity,
                restored=restored,
            )
        )
    return RecoveryPlan(
        mode=mode,
        dead_hosts=frozenset(dead),
        used_spares=promoted,
        new_meshes=new_meshes,
        steps=steps,
    )
