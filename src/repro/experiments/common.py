"""Shared infrastructure for the paper-reproduction experiments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..core.mesh import DeviceMesh
from ..sim.cluster import Cluster, ClusterSpec

__all__ = [
    "ExperimentTable",
    "format_markdown",
    "paper_cluster",
    "make_microbench_meshes",
    "fmt_seconds",
    "fmt_bytes",
]


@dataclass
class ExperimentTable:
    """One reproduced table/figure: rows of dicts plus metadata."""

    experiment_id: str
    title: str
    columns: list[str]
    rows: list[dict] = field(default_factory=list)
    notes: str = ""

    def add(self, **kw) -> None:
        missing = [c for c in self.columns if c not in kw]
        if missing:
            raise ValueError(f"row missing columns {missing}")
        self.rows.append(kw)

    def column(self, name: str) -> list:
        return [r[name] for r in self.rows]


def format_markdown(table: ExperimentTable) -> str:
    """Render an ExperimentTable as GitHub markdown."""
    def cell(v) -> str:
        if isinstance(v, float):
            return f"{v:.4g}"
        return str(v)

    lines = [f"### {table.experiment_id}: {table.title}", ""]
    lines.append("| " + " | ".join(table.columns) + " |")
    lines.append("|" + "|".join("---" for _ in table.columns) + "|")
    for r in table.rows:
        lines.append("| " + " | ".join(cell(r[c]) for c in table.columns) + " |")
    if table.notes:
        lines.extend(["", table.notes])
    lines.append("")
    return "\n".join(lines)


def paper_cluster(n_hosts: int, devices_per_host: int = 4) -> Cluster:
    """The paper's testbed: p3.8xlarge-style nodes, 10 Gbps inter-node."""
    return Cluster(ClusterSpec(n_hosts=n_hosts, devices_per_host=devices_per_host))


def make_microbench_meshes(
    send_shape: tuple[int, int],
    recv_shape: tuple[int, int],
    cluster: Optional[Cluster] = None,
) -> tuple[Cluster, DeviceMesh, DeviceMesh]:
    """Build disjoint sender/receiver meshes with one host per mesh row.

    Mesh shape ``(m1, m2)`` means ``m1`` hosts with ``m2`` devices each,
    the convention of the paper's Table 2.
    """
    if len(send_shape) != 2 or len(recv_shape) != 2:
        raise ValueError(
            f"mesh shapes must be 2-D, e.g. (2, 4); got {send_shape} and {recv_shape}"
        )
    if cluster is None:
        cluster = paper_cluster(
            send_shape[0] + recv_shape[0],
            devices_per_host=max(send_shape[1], recv_shape[1]),
        )
    send = DeviceMesh.from_hosts(
        cluster, range(send_shape[0]), devices_per_host=send_shape[1]
    )
    recv = DeviceMesh.from_hosts(
        cluster,
        range(send_shape[0], send_shape[0] + recv_shape[0]),
        devices_per_host=recv_shape[1],
    )
    return cluster, send, recv


def fmt_seconds(s: float) -> str:
    if s >= 1.0:
        return f"{s:.3f} s"
    return f"{s * 1e3:.2f} ms"


def fmt_bytes(n: float) -> str:
    for unit, div in (("GiB", 1 << 30), ("MiB", 1 << 20), ("KiB", 1 << 10)):
        if n >= div:
            return f"{n / div:.2f} {unit}"
    return f"{n:.0f} B"
