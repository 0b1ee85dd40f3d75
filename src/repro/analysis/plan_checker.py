"""Static verification of :class:`~repro.core.plan.CommPlan` objects.

:func:`check_plan` proves properties of a compiled plan *without running
it* and returns an :class:`~repro.analysis.diagnostics.AnalysisReport`
instead of raising on the first problem
(:func:`repro.core.validate.raise_on_plan_errors` is its raising
wrapper).  It checks:

* **write races** (``P001``): two ops delivering overlapping regions to
  the same receiver with no ordering between them — neither a transitive
  op dependency nor the schedule's host-gating order decides who writes
  last, so the destination buffer contents depend on network timing;
* **coverage** (``P002``): every destination device's tile must be fully
  covered by delivered regions (counting local reuse for intra-mesh
  plans);
* **dependency sanity** (``P003``/``P004``): deps must name real,
  earlier ops and be acyclic;
* **sender authority** (``P005``): an op's sender must be a source-mesh
  device holding the region it sends; an all-gather must be fed by the
  scatters its ``deps`` name, whose parts on its group cover the region.
  Coverage and authority are read from the same delivery walk
  (:func:`repro.core.verify_data.walk_deliveries`) the execution-aware
  verifier certifies with, so the two never disagree on a plan;
* **re-rooting consistency** (``P006``): the schedule must assign each
  unit task a host that holds a replica, no emitted op may send from a
  host that :class:`~repro.compiler.passes.FaultRewritePass` re-rooted
  its unit task *away from*, and every fallback record must point at a
  host that actually holds a replica (the emitter is otherwise free to
  pick any replica host — greedy sender selection is load-, not
  schedule-, driven);
* **schedule/plan agreement** (``P007``) and **op well-formedness**
  (``P008``);
* **failure-domain safety** (``F001``/``F003``): when the cluster
  declares :class:`~repro.sim.cluster.FailureDomain` groups, no fallback
  may re-root a sender back into a failure domain of the host it
  replaced while an out-of-domain replica exists (F001), and — given the
  fault schedule the plan was compiled against — no scheduled sender may
  sit inside a domain that is already down at plan time while a live
  out-of-domain replica exists (F003).

* **topology coherence** (``T001``/``T002``/``T003``): a multicast op
  must name a switch the cluster topology actually defines (T001) whose
  span covers the sender's and every receiver's host (T002), and no op
  may move data between hosts the topology has no route for (T003) —
  e.g. across disconnected islands.

The deadlock analysis over the same plan (``D001``) lives in
:mod:`repro.analysis.deadlock` and is folded into :func:`check_plan`'s
report.
"""

from __future__ import annotations

from typing import Optional

from .. import checks
from ..core.plan import AllGatherOp, CommOp, CommPlan, MulticastOp, gating_order
from ..core.slices import region_intersection, region_size
from ..core.task import UnitCommTask
from ..core.verify_data import tile_arrivals, walk_deliveries
from ..sim.faults import FaultSchedule
from .deadlock import check_plan_deadlock, find_cycle
from .diagnostics import AnalysisReport, Severity

__all__ = ["check_plan"]


def _check_structure(plan: CommPlan, report: AnalysisReport) -> None:
    rank = len(plan.task.shape)
    seen_ids: set[int] = set()
    for pos, op in enumerate(plan.ops):
        if op.sender is None and not isinstance(op, AllGatherOp):
            report.add(
                "P008",
                f"op {op.op_id}: unknown op type {type(op).__name__}",
                op_ids=(op.op_id,),
            )
        if op.op_id in seen_ids:
            report.add(
                "P008",
                f"duplicate op id {op.op_id} (list position {pos})",
                op_ids=(op.op_id,),
            )
        seen_ids.add(op.op_id)
        if op.nbytes < 0:
            report.add(
                "P008",
                f"op {op.op_id}: negative byte count {op.nbytes}",
                op_ids=(op.op_id,),
            )
        if len(op.region) != rank:
            report.add(
                "P008",
                f"op {op.op_id}: region rank {len(op.region)} does not match "
                f"tensor rank {rank}",
                op_ids=(op.op_id,),
            )


def _check_deps(plan: CommPlan, report: AnalysisReport) -> None:
    known = {op.op_id for op in plan.ops}
    for op in plan.ops:
        for dep in op.deps:
            if dep not in known:
                report.add(
                    "P003",
                    f"op {op.op_id}: dependency {dep} references unknown op",
                    op_ids=(op.op_id,),
                )
            elif dep >= op.op_id:
                report.add(
                    "P004",
                    f"op {op.op_id}: dependency {dep} does not precede it",
                    op_ids=(op.op_id, dep),
                )
    # Cycle detection over the dep graph (op ids may be arbitrary in
    # hand-built plans, so "dep < op_id" above does not already prove
    # acyclicity — and we want the cycle itself as a witness).
    cycle = find_cycle(
        {op.op_id: tuple(d for d in op.deps if d in known) for op in plan.ops}
    )
    if cycle is not None:
        report.add(
            "P004",
            "dependency cycle among ops " + " -> ".join(str(i) for i in cycle),
            op_ids=tuple(dict.fromkeys(cycle)),
            witness=tuple(f"op{i}" for i in cycle),
        )


class _OrderOracle:
    """Decides whether one op is guaranteed to precede another.

    Two sources of ordering: transitive op dependencies, and the
    schedule's host-gating (the executor releases a unit task only after
    every earlier-ordered task sharing one of its hosts finished — so
    task-level gating orders *all* ops of the two tasks).
    """

    def __init__(self, plan: CommPlan) -> None:
        known = {op.op_id for op in plan.ops}
        self._deps_of = {
            op.op_id: tuple(d for d in op.deps if d in known) for op in plan.ops
        }
        self._dep_ancestors: dict[int, frozenset[int]] = {}
        self._task_ancestors: dict[int, frozenset[int]] = {}
        self._task_preds: dict[int, set[int]] = {}
        if plan.schedule is not None:
            self._task_preds, _ = gating_order(
                plan.schedule.order, plan.gating_hosts()
            )

    def _ancestors(
        self,
        node: int,
        edges: "dict[int, tuple[int, ...]] | dict[int, set[int]]",
        memo: dict[int, frozenset[int]],
    ) -> frozenset[int]:
        found = memo.get(node)
        if found is not None:
            return found
        memo[node] = frozenset()  # cycle guard; cycles reported elsewhere
        out: set[int] = set()
        for p in edges.get(node, ()):
            out.add(p)
            out |= self._ancestors(p, edges, memo)
        memo[node] = frozenset(out)
        return memo[node]

    def ordered(self, a: CommOp, b: CommOp) -> bool:
        """True when the plan guarantees a and b never write concurrently."""
        if a.op_id == b.op_id:
            return True
        if a.op_id in self._ancestors(b.op_id, self._deps_of, self._dep_ancestors):
            return True
        if b.op_id in self._ancestors(a.op_id, self._deps_of, self._dep_ancestors):
            return True
        ta, tb = a.unit_task_id, b.unit_task_id
        if ta == tb or ta == -1 or tb == -1 or not self._task_preds:
            return False
        if ta in self._ancestors(tb, self._task_preds, self._task_ancestors):
            return True
        if tb in self._ancestors(ta, self._task_preds, self._task_ancestors):
            return True
        return False


def _check_races(plan: CommPlan, report: AnalysisReport) -> None:
    """P001: every op writing a destination device is a potential write
    (a scatter's flat parts included, credited or not)."""
    oracle = _OrderOracle(plan)
    dst = set(plan.task.dst_mesh.devices)
    by_receiver: dict[int, list[CommOp]] = {}
    for op in plan.ops:
        for r in op.receivers:
            if r in dst:
                by_receiver.setdefault(r, []).append(op)
    reported: set[tuple[int, int]] = set()
    for recv in sorted(by_receiver):
        writes = by_receiver[recv]
        for i in range(len(writes)):
            for j in range(i + 1, len(writes)):
                a, b = writes[i], writes[j]
                if a.op_id == b.op_id:
                    continue
                pair = (min(a.op_id, b.op_id), max(a.op_id, b.op_id))
                if pair in reported:
                    continue
                overlap = (
                    region_intersection(a.region, b.region)
                    if len(a.region) == len(b.region)
                    else None
                )
                if overlap is None:
                    continue
                if oracle.ordered(a, b):
                    continue
                reported.add(pair)
                report.add(
                    "P001",
                    f"ops {a.op_id} and {b.op_id} both write {overlap} on "
                    f"device {recv} with no ordering between them",
                    op_ids=pair,
                    task_ids=tuple(
                        sorted({t for t in (a.unit_task_id, b.unit_task_id) if t != -1})
                    ),
                )


def _check_schedule_consistency(
    plan: CommPlan, unit_tasks: list[UnitCommTask], report: AnalysisReport
) -> None:
    task = plan.task
    ut_by_id = {ut.task_id: ut for ut in unit_tasks}
    schedule = plan.schedule
    #: hosts each unit task was re-rooted away from (declared dead)
    rerooted_from: dict[int, set[int]] = {}
    for fb in plan.fallbacks:
        rerooted_from.setdefault(fb.unit_task_id, set()).add(fb.from_host)

    if schedule is not None:
        if sorted(schedule.order) != sorted(schedule.assignment):
            report.add(
                "P007",
                "schedule order is not a permutation of its assignment keys",
            )
        for tid in sorted(schedule.assignment):
            ut = ut_by_id.get(tid)
            if ut is None:
                report.add(
                    "P007",
                    f"schedule assigns unknown unit task {tid}",
                    task_ids=(tid,),
                )
                continue
            host = schedule.assignment[tid]
            if ut.receivers and host not in task.sender_hosts(ut):
                report.add(
                    "P006",
                    f"unit task {tid}: assigned sender host {host} holds no "
                    f"replica (options: {sorted(task.sender_hosts(ut))})",
                    task_ids=(tid,),
                )

    for op in plan.ops:
        tid = op.unit_task_id
        if tid == -1:
            continue
        if tid not in ut_by_id:
            report.add(
                "P007",
                f"op {op.op_id}: unit task {tid} does not exist at "
                f"{plan.granularity!r} granularity",
                op_ids=(op.op_id,),
                task_ids=(tid,),
            )
            continue
        sender = op.sender
        if sender is not None and sender in task.src_mesh.devices:
            host = task.cluster.host_of(sender)
            if host in rerooted_from.get(tid, ()):
                report.add(
                    "P006",
                    f"op {op.op_id}: sends from host {host}, which the "
                    f"fault rewrite re-rooted unit task {tid} away from",
                    op_ids=(op.op_id,),
                    task_ids=(tid,),
                )
        if schedule is not None and tid not in schedule.assignment:
            report.add(
                "P007",
                f"op {op.op_id}: unit task {tid} missing from the schedule",
                op_ids=(op.op_id,),
                task_ids=(tid,),
            )

    # Fallback records must describe rewrites that are actually possible.
    for fb in plan.fallbacks:
        ut = ut_by_id.get(fb.unit_task_id)
        if ut is None:
            report.add(
                "P006",
                f"fallback record names unknown unit task {fb.unit_task_id}",
                task_ids=(fb.unit_task_id,),
            )
            continue
        if fb.to_host == fb.from_host:
            report.add(
                "P006",
                f"unit task {fb.unit_task_id}: fallback re-roots host "
                f"{fb.from_host} onto itself",
                task_ids=(fb.unit_task_id,),
            )
        if fb.to_host not in task.sender_hosts(ut):
            report.add(
                "P006",
                f"unit task {fb.unit_task_id}: fallback re-roots onto host "
                f"{fb.to_host}, which holds no replica of {ut.region}",
                task_ids=(fb.unit_task_id,),
            )


def _check_failure_domains(
    plan: CommPlan,
    unit_tasks: list[UnitCommTask],
    faults: Optional[FaultSchedule],
    report: AnalysisReport,
) -> None:
    """F001/F003: re-roots and schedules must respect failure domains.

    F001 (static): a fallback record whose ``to_host`` shares a failure
    domain with the ``from_host`` it replaced, while a replica host
    outside every such domain exists (and, when ``faults`` is known, is
    alive at plan time) — the re-root stayed inside the blast radius it
    was escaping.

    F003 (needs ``faults``): a scheduled sender host sitting inside a
    failure domain that is already down at plan time while a live
    replica outside any failed domain exists.  Both demote to WARNING
    when no better option existed — the plan is risky but not wrong.
    """
    task = plan.task
    spec = task.cluster.spec
    if not spec.effective_failure_domains:
        return
    ut_by_id = {ut.task_id: ut for ut in unit_tasks}

    def alive(h: int) -> bool:
        return faults is None or not faults.host_down(h, 0.0)

    for fb in plan.fallbacks:
        ut = ut_by_id.get(fb.unit_task_id)
        if ut is None:
            continue  # dangling record already reported as P006
        if not spec.shares_domain(fb.from_host, fb.to_host):
            continue
        domains = [
            d.name
            for d in spec.domains_of_host(fb.from_host)
            if fb.to_host in d.hosts
        ]
        alternatives = sorted(
            h
            for h in task.sender_hosts(ut)
            if h != fb.from_host
            and not spec.shares_domain(fb.from_host, h)
            and alive(h)
        )
        report.add(
            "F001",
            f"unit task {fb.unit_task_id}: re-rooted from host "
            f"{fb.from_host} onto host {fb.to_host}, inside the same "
            f"failure domain(s) {domains}"
            + (
                f" while out-of-domain replica host(s) {alternatives} exist"
                if alternatives
                else " (no out-of-domain replica was available)"
            ),
            severity=Severity.ERROR if alternatives else Severity.WARNING,
            task_ids=(fb.unit_task_id,),
        )

    if faults is None or plan.schedule is None:
        return
    for tid in sorted(plan.schedule.assignment):
        ut = ut_by_id.get(tid)
        if ut is None or not ut.receivers:
            continue
        host = plan.schedule.assignment[tid]
        domain = faults.failed_domain_of(host, 0.0)
        if domain is None:
            continue
        alternatives = sorted(
            h
            for h in task.sender_hosts(ut)
            if h != host
            and not faults.host_down(h, 0.0)
        )
        report.add(
            "F003",
            f"unit task {tid}: scheduled sender host {host} is inside "
            f"failure domain {domain!r}, down at plan time"
            + (
                f"; live out-of-domain replica host(s) {alternatives} exist"
                if alternatives
                else " (no live out-of-domain replica exists)"
            ),
            severity=Severity.ERROR if alternatives else Severity.WARNING,
            task_ids=(tid,),
        )


def _check_topology(plan: CommPlan, report: AnalysisReport) -> None:
    """T001/T002/T003: the plan must be routable on the cluster topology.

    T001: a multicast op names a switch the topology does not define.
    T002: a multicast op's sender or receivers sit on hosts outside the
    claimed switch's span — the switch physically cannot replicate to
    them.  T003: any op moves data between a host pair the topology has
    no route for (e.g. across disconnected islands) — the flow simulator
    would raise at execution time; this catches it statically.
    """
    cluster = plan.task.cluster
    topo = cluster.topo
    topo_name = topo.topology.name
    switches = {s.name: s for s in topo.switches}

    def host(dev: int) -> Optional[int]:
        # Out-of-range devices are already reported (P005/P008).
        if 0 <= dev < cluster.n_devices:
            return cluster.host_of(dev)
        return None

    for op in plan.ops:
        if isinstance(op, MulticastOp):
            sw = switches.get(op.switch)
            if sw is None:
                report.add(
                    "T001",
                    f"op {op.op_id}: multicast names switch {op.switch!r}, "
                    f"which topology {topo_name!r} does not define "
                    f"(available: {sorted(switches) or 'none'})",
                    op_ids=(op.op_id,),
                )
            else:
                hosts = {
                    h
                    for d in (op.sender, *op.receivers)
                    if (h := host(d)) is not None
                }
                outside = sorted(hosts - set(sw.hosts))
                if outside:
                    report.add(
                        "T002",
                        f"op {op.op_id}: multicast claims switch "
                        f"{op.switch!r} (hosts {sorted(sw.hosts)}), but "
                        f"endpoint host(s) {outside} are outside its span",
                        op_ids=(op.op_id,),
                    )
        if op.sender is not None:
            sh = host(op.sender)
            if sh is not None:
                unroutable = sorted(
                    {
                        rh
                        for d in op.receivers
                        if (rh := host(d)) is not None
                        and rh != sh
                        and not topo.has_route(sh, rh)
                    }
                )
                if unroutable:
                    report.add(
                        "T003",
                        f"op {op.op_id}: routed from host {sh} to host(s) "
                        f"{unroutable}, but topology {topo_name!r} has no "
                        "path between them",
                        op_ids=(op.op_id,),
                    )
        else:
            hosts_ag = sorted(
                {h for d in op.receivers if (h := host(d)) is not None}
            )
            bad_pairs = [
                (a, b)
                for i, a in enumerate(hosts_ag)
                for b in hosts_ag[i + 1 :]
                if not topo.has_route(a, b)
            ]
            if bad_pairs:
                report.add(
                    "T003",
                    f"op {op.op_id}: all-gather group spans host pair(s) "
                    f"{bad_pairs} with no topology path between them",
                    op_ids=(op.op_id,),
                )


def check_plan(
    plan: CommPlan,
    faults: Optional[FaultSchedule] = None,
    memory_budget: Optional[float] = None,
) -> AnalysisReport:
    """Statically analyze ``plan``; never raises on plan defects.

    Returns an :class:`AnalysisReport` whose ``ok`` is True iff the plan
    is provably well-formed: no write races, full coverage, sane deps,
    authorized senders, schedule-consistent (post-re-rooting) emission,
    no wait-for cycle, failure-domain-safe re-roots, and transient
    buffers within budget.  ``faults`` is the schedule the plan was
    compiled against (if any): it sharpens the F001 alternative-host
    analysis and enables F003.  ``memory_budget`` (bytes per host)
    overrides the cluster spec's own ``memory_budget`` for the M001
    peak-buffer check; with neither set only M002 can fire.  Plans
    flagged ``data_complete=False`` (signalling baselines) get
    structural checks only.
    """
    # Imported here, not at module scope: memory_analysis shares this
    # package but is also imported by the compiler's select pass, and a
    # top-level cross-import would make the package import order matter.
    from .memory_analysis import check_plan_memory

    if memory_budget is not None:
        checks.real("memory_budget", memory_budget, "(0, inf)")
    report = AnalysisReport(subject=f"plan[{plan.strategy}]")
    _check_structure(plan, report)
    _check_deps(plan, report)

    unit_tasks = plan.task.unit_tasks(plan.granularity)
    _check_schedule_consistency(plan, unit_tasks, report)
    _check_failure_domains(plan, unit_tasks, faults, report)
    _check_topology(plan, report)
    check_plan_memory(plan, report, memory_budget=memory_budget)

    if plan.data_complete:
        walk = walk_deliveries(plan)
        for op_id, why in walk.discredited.items():
            if why:  # an empty reason is a malformed op, reported as P008
                report.add("P005", f"op {op_id}: {why}", op_ids=(op_id,))
        _check_races(plan, report)
        for dev, tile, missing, _ in tile_arrivals(plan.task, walk.regions):
            if missing:
                report.add(
                    "P002",
                    f"device {dev}: {missing} of {region_size(tile)} elements "
                    f"of tile {tile} are never delivered",
                )
    else:
        report.add(
            "P008",
            f"strategy {plan.strategy!r} plans carry no data by design; "
            "coverage and race analyses skipped",
            severity=Severity.INFO,
        )

    report.extend(check_plan_deadlock(plan))
    return report
