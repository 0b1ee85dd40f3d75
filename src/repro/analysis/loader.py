"""Load hand-written plans from JSON — the bad-plan fixture format.

Known-bad plans cannot be built through :meth:`CommPlan.add` (it rejects
out-of-sequence op ids and unknown deps at construction time), and they
should not be Python code that silently "fixes itself" when the IR
evolves.  So regression fixtures live as data under
``tests/fixtures/bad_plans/`` and are materialized here, bypassing the
builder invariants on purpose: the static analyzer is the component
under test, and it must reject these plans with the exact documented
diagnostic codes listed in each fixture's ``expect`` field.

Schema (all sizes in elements; nbytes defaults to fp32)::

    {
      "description": "...",
      "expect": ["P001"],                      // codes that must fire
      "cluster": {"n_hosts": 4, "devices_per_host": 2,
                  "memory_budget": 1048576,                // optional, bytes/host
                  "failure_domains": [                     // optional
                    {"name": "rack0", "hosts": [0, 1], "kind": "rack"}],
                  "topology": {"name": "fat_tree",         // optional
                               "hosts_per_leaf": 2},
                  "link_overrides": [                      // optional
                    {"src": 0, "dst": 1, "bandwidth": 1e9}]},
      "shape": [8, 8],
      "src": {"hosts": [0, 1], "spec": "S0R"},
      "dst": {"hosts": [2, 3], "spec": "RS1"},
      "granularity": "intersection",           // optional
      "ops": [
        {"kind": "send", "id": 0, "task": 0, "region": [[0, 4], [0, 8]],
         "sender": 0, "receiver": 4, "deps": [1]},
        {"kind": "broadcast", ..., "receivers": [4, 5]},
        {"kind": "multicast", ..., "receivers": [4, 5], "switch": "leaf0"},
        {"kind": "scatter", ..., "receivers": [4, 5]},
        {"kind": "allgather", ..., "devices": [4, 5]}
      ],
      "schedule": {"assignment": {"0": 1}, "order": [0]},   // optional
      "fallbacks": [{"task": 0, "from_host": 0, "to_host": 1,
                     "reason": "sender-host-down"}]          // optional
    }

A malformed fixture (a required key missing, or a ``cluster`` or
``topology`` key the spec does not take) raises :class:`ValueError`
naming the block and the key, so ``repro analyze`` reports bad input
(exit 2), never a rejected plan.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Union

import numpy as np

from ..core.mesh import DeviceMesh
from ..core.plan import (
    AllGatherOp,
    BroadcastOp,
    CommOp,
    CommPlan,
    FallbackRecord,
    MulticastOp,
    ScatterOp,
    SendOp,
)
from ..core.task import ReshardingTask
from ..core.tensor import region_nbytes
from ..scheduling.problem import Schedule
from ..sim.cluster import Cluster, ClusterSpec, FailureDomain, LinkOverride
from ..sim.topology import TOPOLOGIES, make_topology

__all__ = ["PlanFixture", "load_plan_fixture", "plan_from_dict"]


@dataclass
class PlanFixture:
    """One parsed fixture: the plan plus what the analyzer must say."""

    plan: CommPlan
    expect: tuple[str, ...]
    description: str
    path: str = ""


def _key(raw: Any, key: str, block: str) -> Any:
    """``raw[key]``, or a ValueError naming the block and the key."""
    if not isinstance(raw, dict):
        raise ValueError(f"{block}: expected an object, got {raw!r}")
    if key not in raw:
        raise ValueError(f"{block}: missing key {key!r}")
    return raw[key]


def _known(raw: dict[str, Any], cls: type, block: str) -> None:
    """Refuse a key that is not one of dataclass ``cls``'s init fields."""
    allowed = {f.name for f in fields(cls) if f.init}
    for key in raw:
        if key not in allowed:
            raise ValueError(f"{block}: unknown key {key!r}; allowed: {sorted(allowed)}")


def _region(raw: Any) -> tuple[tuple[int, int], ...]:
    return tuple((int(lo), int(hi)) for lo, hi in raw)


def _op_from_dict(raw: dict[str, Any], dtype: np.dtype, block: str) -> CommOp:
    def need(key: str) -> Any:
        return _key(raw, key, block)

    region = _region(need("region"))
    common: dict[str, Any] = dict(
        op_id=int(need("id")),
        unit_task_id=int(raw.get("task", -1)),
        region=region,
        nbytes=float(raw.get("nbytes", region_nbytes(region, dtype))),
        deps=tuple(int(d) for d in raw.get("deps", ())),
    )
    kind = need("kind")
    if kind == "allgather":
        return AllGatherOp(devices=tuple(int(d) for d in need("devices")), **common)
    if kind not in ("send", "broadcast", "multicast", "scatter"):
        raise ValueError(f"{block}: unknown op kind {kind!r}")
    sender = int(need("sender"))
    if kind == "send":
        return SendOp(sender=sender, receiver=int(need("receiver")), **common)
    receivers = tuple(int(r) for r in need("receivers"))
    if kind == "scatter":
        return ScatterOp(sender=sender, receivers=receivers, **common)
    n_chunks = int(raw.get("n_chunks", 1))
    if kind == "broadcast":
        return BroadcastOp(sender=sender, receivers=receivers, n_chunks=n_chunks, **common)
    return MulticastOp(
        sender=sender,
        receivers=receivers,
        switch=str(raw.get("switch", "")),
        n_chunks=n_chunks,
        **common,
    )


def plan_from_dict(raw: dict[str, Any]) -> CommPlan:
    """Materialize a CommPlan from fixture data, builder checks bypassed."""
    cluster_raw = dict(raw.get("cluster", {}))
    _known(cluster_raw, ClusterSpec, "cluster")
    cluster_raw["failure_domains"] = tuple(
        FailureDomain(
            name=str(_key(d, "name", f"cluster.failure_domains[{i}]")),
            hosts=tuple(int(h) for h in _key(d, "hosts", f"cluster.failure_domains[{i}]")),
            kind=str(d.get("kind", "rack")),
        )
        for i, d in enumerate(cluster_raw.get("failure_domains", ()))
    )
    if "topology" in cluster_raw:
        topo_raw = dict(cluster_raw.pop("topology"))
        name = str(_key(topo_raw, "name", "cluster.topology"))
        del topo_raw["name"]
        if name in TOPOLOGIES:  # else make_topology names the options
            _known(topo_raw, TOPOLOGIES[name], f"cluster.topology ({name})")
        cluster_raw["topology"] = make_topology(name, **topo_raw)
    cluster_raw["link_overrides"] = tuple(
        LinkOverride(
            src_host=int(_key(o, "src", f"cluster.link_overrides[{i}]")),
            dst_host=int(_key(o, "dst", f"cluster.link_overrides[{i}]")),
            bandwidth=(float(o["bandwidth"]) if "bandwidth" in o else None),
            latency=(float(o["latency"]) if "latency" in o else None),
        )
        for i, o in enumerate(cluster_raw.get("link_overrides", ()))
    )
    spec = ClusterSpec(**cluster_raw)
    cluster = Cluster(spec)
    src_raw, dst_raw = _key(raw, "src", "plan"), _key(raw, "dst", "plan")
    src = DeviceMesh.from_hosts(cluster, [int(h) for h in _key(src_raw, "hosts", "src")])
    dst = DeviceMesh.from_hosts(cluster, [int(h) for h in _key(dst_raw, "hosts", "dst")])
    task = ReshardingTask(
        tuple(int(s) for s in _key(raw, "shape", "plan")),
        src,
        _key(src_raw, "spec", "src"),
        dst,
        _key(dst_raw, "spec", "dst"),
        dtype=np.float32,
    )
    plan = CommPlan(
        task=task,
        strategy=str(raw.get("strategy", "fixture")),
        granularity=str(raw.get("granularity", "intersection")),
        data_complete=bool(raw.get("data_complete", True)),
    )
    # Assign directly: fixtures must be able to express out-of-sequence
    # op ids, dangling deps, and forward deps that plan.add() rejects.
    plan.ops = [
        _op_from_dict(op, task.dtype, f"ops[{i}]")
        for i, op in enumerate(raw.get("ops", ()))
    ]
    if "schedule" in raw:
        sched = raw["schedule"]
        assignment = _key(sched, "assignment", "schedule")
        plan.schedule = Schedule(
            assignment={int(k): int(v) for k, v in assignment.items()},
            order=tuple(int(t) for t in _key(sched, "order", "schedule")),
            algorithm=str(sched.get("algorithm", "fixture")),
        )
    for i, fb in enumerate(raw.get("fallbacks", ())):
        block = f"fallbacks[{i}]"
        plan.fallbacks.append(
            FallbackRecord(
                unit_task_id=int(_key(fb, "task", block)),
                from_host=int(_key(fb, "from_host", block)),
                to_host=int(_key(fb, "to_host", block)),
                reason=str(fb.get("reason", "fixture")),
            )
        )
    return plan


def load_plan_fixture(path: Union[str, Path]) -> PlanFixture:
    """Read one ``tests/fixtures/bad_plans/*.json`` fixture."""
    p = Path(path)
    raw = json.loads(p.read_text(encoding="utf-8"))
    try:
        plan = plan_from_dict(raw)
    except ValueError as bad:
        raise ValueError(f"{p}: {bad}") from None
    return PlanFixture(
        plan=plan,
        expect=tuple(str(c) for c in raw.get("expect", ())),
        description=str(raw.get("description", "")),
        path=str(p),
    )
