"""The four benchmark workloads, each a finite universe of ops.

An op is one call a user of the library waits on: one experiment
module's ``run()``, one training-iteration simulation, one uncached
``reshard``, or one 400-request service scenario.  Every op builds its
own clusters and meshes, so (with the process-wide caches reset before
it, which ``run.py`` does) its work does not depend on which ops ran
before it.  The seed only orders the ops and fills the data-plane
arrays; every op in a universe has a recorded golden.

Each op carries two untimed functions: ``summarize`` reduces the output
to the JSON-able record compared against ``golden/<workload>.json``, and
``check`` returns the problems found by checks that need no golden.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core.api import reshard
from repro.core.mesh import DeviceMesh
from repro.core.task import ReshardingTask
from repro.experiments import (
    ablations,
    fig3,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    interleaving,
    parallel_sweep,
    scaling,
    table1,
    topology_zoo,
)
from repro.experiments.common import make_microbench_meshes
from repro.models.gpt import GPT_CASES, build_gpt
from repro.models.parallel import METHODS, run_iteration
from repro.models.utransformer import UTransformerConfig, build_utransformer
from repro.service import (
    PROFILES,
    AdmissionConfig,
    ReshardingService,
    ServiceChaos,
    ServiceConfig,
    generate_arrivals,
    run_virtual,
)
from repro.service import loadgen
from repro.sim.cluster import Cluster, ClusterSpec
from repro.strategies import make_strategy

__all__ = ["Op", "WORKLOADS", "build_ops", "plain"]


def _no_problems(_result: Any) -> list[str]:
    return []


@dataclass(frozen=True)
class Op:
    """One timed call plus its untimed golden summary and checks."""

    id: str
    call: Callable[[], Any]
    summarize: Callable[[Any], dict]
    check: Callable[[Any], list[str]] = _no_problems


def plain(value: Any) -> Any:
    """``value`` as JSON data: non-finite floats become strings."""
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, (np.integer, np.floating)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


# ----------------------------------------------------------------------
# paper_suite: every experiment of the paper reproduction
# ----------------------------------------------------------------------
#: the experiment modules behind EXPERIMENTS.md, plus E8 (topology zoo)
PAPER_SUITE = (
    ("E1", fig5),
    ("E2", fig6),
    ("E3", table1),
    ("E4", fig7),
    ("E5", fig8),
    ("E6", fig9),
    ("E7", fig3),
    ("E8", topology_zoo),
    ("A0", ablations),
    ("S1", parallel_sweep),
    ("S2", scaling),
    ("S3", interleaving),
)


def _table_rows(table) -> dict:
    return {"rows": plain(table.rows)}


def paper_suite_ops(seed: int) -> list[Op]:
    return [Op(eid, mod.run, _table_rows) for eid, mod in PAPER_SUITE]


# ----------------------------------------------------------------------
# train_iter: one Fig. 7 training iteration per (model, method)
# ----------------------------------------------------------------------
#: Table 3's three models (built as in ``fig7.workloads``)
MODELS: dict[str, Callable[[], Any]] = {
    **{name: (lambda cfg=cfg: build_gpt(cfg)) for name, cfg in GPT_CASES.items()},
    "U-Transformer": lambda: build_utransformer(UTransformerConfig()),
}


def _iteration_summary(result) -> dict:
    return {
        "iteration_time": result.iteration_time,
        "throughput_tflops": result.throughput_tflops,
        "digest": result.pipeline.telemetry.digest(),
    }


def train_iter_ops(seed: int) -> list[Op]:
    return [
        Op(
            f"{model}/{method}",
            lambda build=build, method=method: run_iteration(build(), method),
            _iteration_summary,
        )
        for model, build in MODELS.items()
        for method in METHODS
    ]


# ----------------------------------------------------------------------
# reshard_zoo: uncached reshard per strategy x case / fabric
# ----------------------------------------------------------------------
TABLE2_STRATEGIES = ("send_recv", "allgather", "broadcast", "signal", "auto")
ZOO_STRATEGIES = ("broadcast", "multicast", "allgather", "auto")
DATA_SHAPE = (192, 256, 64)


def _reshard_summary(result) -> dict:
    return {
        "latency": result.latency,
        "cross_host_bytes": result.cross_host_bytes,
        "digest": result.timing.telemetry.digest(),
    }


def _table2_call(case, strategy: str, tensor_or_shape) -> Callable[[], Any]:
    def call():
        _cluster, src, dst = make_microbench_meshes(case.send_mesh, case.recv_mesh)
        return reshard(
            tensor_or_shape, src, case.send_spec, dst, case.recv_spec,
            strategy=strategy, cache=None,
        )

    return call


def _zoo_meshes(spec: ClusterSpec) -> tuple[DeviceMesh, DeviceMesh]:
    cluster = Cluster(spec)
    return (
        DeviceMesh.from_hosts(cluster, topology_zoo.SRC_HOSTS),
        DeviceMesh.from_hosts(cluster, topology_zoo.DST_HOSTS),
    )


def _zoo_call(spec: ClusterSpec, strategy: str) -> Callable[[], Any]:
    def call():
        src, dst = _zoo_meshes(spec)
        return reshard(
            topology_zoo.QUICK_SHAPE, src, "S0R", dst, "RR",
            strategy=strategy, cache=None,
        )

    return call


def _zoo_supported(spec: ClusterSpec, strategy: str) -> bool:
    """E8's own test: pairs it reports as ``n/a`` are left out."""
    src, dst = _zoo_meshes(spec)
    task = ReshardingTask(topology_zoo.QUICK_SHAPE, src, "S0R", dst, "RR")
    return make_strategy(strategy).supports(task)


def _data_plane_check(array: np.ndarray) -> Callable[[Any], list[str]]:
    def check(result) -> list[str]:
        if result.dst_tensor is None:
            return ["data plane did not run"]
        if not np.array_equal(result.dst_tensor.to_global(), array):
            return ["dst_tensor.to_global() differs from the input array"]
        return []

    return check


def reshard_zoo_ops(seed: int) -> list[Op]:
    ops = [
        Op(
            f"table2/{case.name}/{strategy}",
            _table2_call(case, strategy, fig6.TENSOR_SHAPE),
            _reshard_summary,
        )
        for case in fig6.TABLE2_CASES
        for strategy in TABLE2_STRATEGIES
    ]
    ops += [
        Op(f"zoo/{topo}/{strategy}", _zoo_call(spec, strategy), _reshard_summary)
        for topo, spec in topology_zoo.zoo_specs().items()
        for strategy in ZOO_STRATEGIES
        if _zoo_supported(spec, strategy)
    ]
    # One input array serves all nine cases: they differ in specs and
    # meshes, not in data, and nine 12 MB copies would only cost memory.
    array = np.random.default_rng(seed).standard_normal(DATA_SHAPE, dtype=np.float32)
    ops += [
        Op(
            f"data/{case.name}/broadcast",
            _table2_call(case, "broadcast", array),
            _reshard_summary,
            _data_plane_check(array),
        )
        for case in fig6.TABLE2_CASES
    ]
    return ops


# ----------------------------------------------------------------------
# serve_bursty: the planning service under bursty, chaotic load
# ----------------------------------------------------------------------
N_REQUESTS = 400
N_POOL = 24
N_SCENARIOS = 64
PROFILE = dataclasses.replace(
    PROFILES["bursty"], n_requests=N_REQUESTS, n_distinct_tasks=N_POOL
)
#: the tight admission policy of ``benchmarks/bench_service.py``
TIGHT = ServiceConfig(
    n_workers=2,
    admission=AdmissionConfig(max_queue_depth=12, per_tenant_depth=5, rate=45.0),
)
REQUEST_TIMEOUT = 2.0
#: per-host budget far above any pool task's static bound: the compile
#: still runs the validate pass and the memory analyzer
GENEROUS_BUDGET = float(1 << 40)
#: below every pool task's static bound: deterministic M001 ``invalid``
TINY_BUDGET = 1024.0
TINY_BUDGET_TASK = 5

def _chaos(seed: int) -> ServiceChaos:
    """The ``python -m repro serve --chaos`` mix."""
    return ServiceChaos(
        seed=seed,
        slow_rate=0.2,
        slow_extra=0.05,
        fault_rate=0.15,
        cancel_rate=0.05,
        cancel_after=0.01,
        poison_requests=(f"req-{N_REQUESTS // 2:04d}",),
    )


def service_pool() -> list[ReshardingTask]:
    """``loadgen.build_task_pool``'s tasks, half of them budget-carrying."""
    tasks = []
    for i, task in enumerate(loadgen.build_task_pool(N_POOL)):
        budget = TINY_BUDGET if i == TINY_BUDGET_TASK else GENEROUS_BUDGET if i % 2 else None
        if budget is not None:
            spec = dataclasses.replace(task.src_mesh.cluster.spec, memory_budget=budget)
            cluster = Cluster(spec)
            task = ReshardingTask(
                task.shape,
                DeviceMesh(cluster, task.src_mesh.grid), task.src_spec,
                DeviceMesh(cluster, task.dst_mesh.grid), task.dst_spec,
            )
        tasks.append(task)
    return tasks


def _scenario_call(seed: int, arrivals) -> Callable[[], Any]:
    def call():
        tasks = service_pool()
        chaos = _chaos(seed)

        async def main():
            service = ReshardingService(TIGHT, chaos=chaos)
            await service.start()
            responses = await loadgen.drive(
                service, arrivals, tasks, chaos, timeout=REQUEST_TIMEOUT
            )
            await service.shutdown()
            return service, responses

        service, responses = run_virtual(main())
        return loadgen.build_report(PROFILE, seed, service, responses)

    return call


def _scenario_summary(report) -> dict:
    return {
        "status_counts": dict(sorted(report.status_counts.items())),
        "p50": report.p50_latency,
        "p95": report.p95_latency,
        "p99": report.p99_latency,
        "coalesced": report.n_coalesced,
        "shed": report.n_shed,
        "retries": report.n_retries,
        "digest": report.telemetry_digest,
    }


def _scenario_check(report) -> list[str]:
    problems = []
    answered = sum(report.status_counts.values())
    if answered != N_REQUESTS or report.n_requests != N_REQUESTS:
        problems.append(f"{answered} of {N_REQUESTS} requests answered")
    if report.worker_crashes:
        problems.append(f"{report.worker_crashes} worker crash(es)")
    if report.max_queue_depth > TIGHT.admission.max_queue_depth:
        problems.append(
            f"queue depth {report.max_queue_depth} exceeds "
            f"{TIGHT.admission.max_queue_depth}"
        )
    if not report.status_counts.get("invalid"):
        problems.append("no M001 invalid response from the tiny-budget task")
    return problems


def serve_bursty_ops(seed: int) -> list[Op]:
    return [
        Op(
            f"scenario/{s:02d}",
            _scenario_call(s, generate_arrivals(PROFILE, s)),
            _scenario_summary,
            _scenario_check,
        )
        for s in range(N_SCENARIOS)
    ]


WORKLOADS: dict[str, Callable[[int], list[Op]]] = {
    "paper_suite": paper_suite_ops,
    "train_iter": train_iter_ops,
    "reshard_zoo": reshard_zoo_ops,
    "serve_bursty": serve_bursty_ops,
}


def build_ops(workload: str, seed: int) -> list[Op]:
    """The op universe of ``workload`` (inputs derived from ``seed``)."""
    return WORKLOADS[workload](seed)
