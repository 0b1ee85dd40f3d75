"""The load-balancing and scheduling problem of §3.2 (Eq. 1-3).

Each unit communication task ``i`` has a set of candidate *sender hosts*
``n_i`` (hosts holding a replica of its data slice), a set of *receiver
hosts* ``m_i``, and a duration ``T_i`` (which may depend on the chosen
sender host).  A solution picks one sender host per task and start times
such that two tasks sharing the sender host or any receiver host never
overlap; the objective is the completion time of the last task
(makespan).

We represent a solution as an *assignment* (task -> sender host) plus a
*global order*; start times follow by list scheduling: each task starts
at the earliest time all of its hosts are free of earlier-ordered tasks.
That is exactly the simplification stated in the paper ("assign an
execution order to all of the send/receive tasks on that host; the
starting time of each task can then be set to the earliest time at which
all preceding tasks have finished on the sender host and the receiver
hosts").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from .. import checks

if TYPE_CHECKING:  # avoid a hard import cycle with repro.core
    from ..core.task import ReshardingTask
    from ..sim.faults import FaultSchedule

__all__ = ["SchedTask", "SchedulingProblem", "Schedule", "evaluate", "validate_schedule"]


@dataclass(frozen=True)
class SchedTask:
    """Host-level view of one unit communication task."""

    task_id: int
    sender_host_options: tuple[int, ...]
    receiver_hosts: frozenset[int]
    #: duration keyed by chosen sender host
    duration_by_host: Mapping[int, float]
    #: total devices the task touches (randomized-greedy's round score)
    n_devices: int = 1

    def __post_init__(self) -> None:
        checks.integer("n_devices", self.n_devices, 1)
        for h, d in self.duration_by_host.items():
            checks.real(f"task {self.task_id} duration on host {h}", d, "[0, inf)")

    def duration(self, host: int) -> float:
        return self.duration_by_host[host]

    def hosts(self, sender_host: int) -> frozenset[int]:
        """All hosts the task occupies once its sender host is chosen."""
        return self.receiver_hosts | {sender_host}


@dataclass
class SchedulingProblem:
    """A set of unit tasks to load-balance and order."""

    tasks: list[SchedTask]

    def __post_init__(self) -> None:
        ids = [t.task_id for t in self.tasks]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate task ids")
        for t in self.tasks:
            if not t.sender_host_options:
                raise ValueError(f"task {t.task_id} has no sender host option")
            missing = [
                h for h in t.sender_host_options if h not in t.duration_by_host
            ]
            if missing:
                raise ValueError(
                    f"task {t.task_id} lacks durations for hosts {missing}"
                )

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    def by_id(self, task_id: int) -> SchedTask:
        for t in self.tasks:
            if t.task_id == task_id:
                return t
        raise KeyError(task_id)

    # ------------------------------------------------------------------
    @classmethod
    def from_resharding(
        cls,
        rt: "ReshardingTask",
        granularity: str = "intersection",
        faults: "Optional[FaultSchedule]" = None,
    ) -> "SchedulingProblem":
        """Build the host-level problem from a resharding task.

        A task's duration under a candidate sender host is the time of
        one broadcast rooted there: one traversal of the slice across
        the host boundary if any receiver lives on another host,
        otherwise a fast intra-host copy.

        With ``faults``, each host's NIC bandwidth is discounted by its
        time-averaged degradation factor over the fault horizon, so the
        load balancer steers work away from degraded (or flapping)
        hosts.
        """
        spec = rt.cluster.spec
        intra = spec.intra_host_bandwidth

        def nic_bw(host: int) -> float:
            bw = spec.host_nic_bandwidth(host)
            if faults is not None:
                bw *= faults.mean_nic_factor(host)
            return bw

        def cross_bw(sender_host: int, rhosts: frozenset[int]) -> float:
            # The broadcast ring's throughput is capped by its slowest
            # participating NIC and any contended fabric link on the
            # root->receiver paths (topology- and override-aware).
            return rt.cluster.topo.ring_bandwidth(sender_host, rhosts, nic_bw)

        tasks = []
        for ut in rt.unit_tasks(granularity):
            options = tuple(sorted(rt.sender_hosts(ut)))
            rhosts = rt.receiver_hosts(ut)
            durations = {
                h: (
                    ut.nbytes / cross_bw(h, rhosts)
                    if (rhosts - {h})
                    else ut.nbytes / intra
                )
                for h in options
            }
            tasks.append(
                SchedTask(
                    task_id=ut.task_id,
                    sender_host_options=options,
                    receiver_hosts=rhosts,
                    duration_by_host=durations,
                    n_devices=len(ut.senders) + len(ut.receivers),
                )
            )
        return cls(tasks)


@dataclass
class Schedule:
    """A solution: sender-host assignment plus a global task order."""

    assignment: dict[int, int]
    order: tuple[int, ...]
    makespan: float = float("nan")
    algorithm: str = ""
    start_times: dict[int, float] = field(default_factory=dict)

    def sender_host(self, task_id: int) -> int:
        return self.assignment[task_id]


def validate_schedule(problem: SchedulingProblem, schedule: Schedule) -> None:
    """Raise if the schedule is structurally invalid for the problem."""
    ids = {t.task_id for t in problem.tasks}
    if set(schedule.order) != ids or len(schedule.order) != len(ids):
        raise ValueError("order must be a permutation of task ids")
    for t in problem.tasks:
        h = schedule.assignment.get(t.task_id)
        if h not in t.sender_host_options:
            raise ValueError(
                f"task {t.task_id}: sender host {h} not in options "
                f"{t.sender_host_options} (Eq. 2 violated)"
            )


def evaluate(
    problem: SchedulingProblem,
    assignment: Mapping[int, int],
    order: Sequence[int],
) -> tuple[float, dict[int, float]]:
    """List-schedule the tasks; return (makespan, start time per task).

    Tasks are started in ``order``; each begins at the earliest time all
    of its hosts (sender + receivers) are free, which enforces Eq. 3.
    """
    host_free: dict[int, float] = {}
    starts: dict[int, float] = {}
    makespan = 0.0
    for tid in order:
        t = problem.by_id(tid)
        h = assignment[tid]
        hosts = t.hosts(h)
        start = max((host_free.get(x, 0.0) for x in hosts), default=0.0)
        finish = start + t.duration(h)
        for x in hosts:
            host_free[x] = finish
        starts[tid] = start
        makespan = max(makespan, finish)
    return makespan, starts
