"""R1a — elastic recovery: time-to-recover vs. checkpoint interval.

Not a figure from the paper: the paper assumes a healthy cluster.  This
experiment characterizes the recovery runtime built on top of its
resharding machinery, sweeping the checkpoint interval under a fixed
failure schedule — the classic U-curve (checkpoint too often: write
overhead; too rarely: long warmup after rollback), compared against the
Young/Daly first-order optimum ``sqrt(2 * delta * MTBF)``.

Failure schedules are deterministic: exponential inter-arrival draws
from a seeded RNG, victims round-robin over the working hosts.
"""

from __future__ import annotations

import random

from ..models.gpt import GPTConfig, build_gpt
from ..models.parallel import ParallelJobSpec
from ..recovery import CheckpointConfig, optimal_interval, simulate_training_run
from ..sim.cluster import Cluster, ClusterSpec
from ..sim.faults import FaultSchedule, HostFailure
from .common import ExperimentTable

__all__ = [
    "poisson_host_failures",
    "recovery_job",
    "run_interval_sweep",
]


def poisson_host_failures(
    seed: int, mtbf: float, horizon: float, hosts: tuple[int, ...]
) -> FaultSchedule:
    """Exponential failure arrivals over ``[0, horizon)``, one distinct
    victim per arrival (a host dies at most once)."""
    rng = random.Random(seed)
    t = 0.0
    victims = list(hosts)
    failures: list[HostFailure] = []
    while victims:
        t += rng.expovariate(1.0 / mtbf)
        if t >= horizon:
            break
        failures.append(HostFailure(host=victims.pop(0), time=t))
    return FaultSchedule(seed=seed, host_failures=tuple(failures))


#: per-stage optimizer-state elements — sized so one checkpoint write is
#: a visible fraction of an iteration and the Young/Daly optimum lands
#: inside the swept interval range instead of degenerating to "always".
STATE_ELEMS = 1 << 22
#: the sweep: iterations per run, MTBF in iterations, checkpoint
#: intervals, and the failure-schedule seed
N_ITERATIONS = 30
MTBF_ITERATIONS = 12.0
INTERVALS = (1, 2, 5, 10, 15, 30)
SEED = 7


def recovery_job() -> ParallelJobSpec:
    """The sweep workload: a small 2-stage GPT on 2 hosts plus 2 spares
    (small so iteration time and checkpoint cost are commensurate)."""
    cluster = Cluster(ClusterSpec(n_hosts=4, devices_per_host=4, n_spare_hosts=2))
    config = GPTConfig(name="GPT-small", n_layers=4, hidden=1024, dp=2, op=2, pp=2)
    return build_gpt(config, cluster=cluster)


def sweep_config(interval: int) -> CheckpointConfig:
    return CheckpointConfig(
        interval=interval,
        write_bandwidth=1e8,
        read_bandwidth=2e8,
        detection_latency=0.5,
    )


def run_interval_sweep() -> ExperimentTable:
    """Total-time U-curve over the checkpoint interval, Young/Daly marked."""
    spec = recovery_job()
    base = simulate_training_run(
        spec, N_ITERATIONS, config=sweep_config(0), state_elems_per_stage=STATE_ELEMS
    )
    iter_time = base.total_time / N_ITERATIONS
    mtbf = MTBF_ITERATIONS * iter_time
    faults = poisson_host_failures(
        SEED, mtbf, horizon=3.0 * N_ITERATIONS * iter_time, hosts=(0, 1)
    )
    # Measured per-checkpoint cost, for the analytic optimum.
    delta = (
        simulate_training_run(
            spec, 2, config=sweep_config(1), state_elems_per_stage=STATE_ELEMS
        ).checkpoint_time
        / 2.0
    )
    yd_iters = optimal_interval(mtbf, delta) / iter_time
    table = ExperimentTable(
        experiment_id="R1a",
        title="Elastic recovery: checkpoint-interval sweep under host failures",
        columns=[
            "interval (iters)",
            "total (s)",
            "overhead",
            "restarts",
            "ckpt (s)",
            "warmup (s)",
            "reshard (s)",
        ],
        notes=(
            f"MTBF {mtbf:.0f}s (~{MTBF_ITERATIONS:g} iters); Young/Daly "
            f"optimum ~{yd_iters:.1f} iters; seed {SEED}"
        ),
    )
    for interval in INTERVALS:
        rep = simulate_training_run(
            spec,
            N_ITERATIONS,
            faults=faults,
            config=sweep_config(interval),
            max_restarts=8,
            state_elems_per_stage=STATE_ELEMS,
        )
        table.add(
            **{
                "interval (iters)": interval,
                "total (s)": rep.total_time,
                "overhead": rep.overhead,
                "restarts": rep.n_restarts,
                "ckpt (s)": rep.checkpoint_time,
                "warmup (s)": rep.time_warmup,
                "reshard (s)": rep.time_reshard,
            }
        )
    return table


if __name__ == "__main__":
    from .common import format_markdown

    print(format_markdown(run_interval_sweep()))
