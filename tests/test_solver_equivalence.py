"""Scalar vs vector rate-solver bit-equality, property-based.

Every :class:`~repro.sim.network.Network` runs
:class:`~repro.sim.solver.ScalarSolver` unless handed another instance.
:class:`~repro.sim.solver.VectorSolver` must compute *bit-identical*
rates — same IEEE-754 divisions, same port tie-breaking, same
subtraction order — so substituting it causes zero drift anywhere
(goldens, determinism digests, traces).

These tests drive seeded random flow programs over every fabric in the
topology zoo and compare full telemetry digests (which hash every flow
span, rate-dependent finish time included) across backends.
"""

from __future__ import annotations

import random

import pytest

from repro.sim.cluster import Cluster, ClusterSpec
from repro.sim.network import Network
from repro.sim.solver import ScalarSolver, VectorSolver
from repro.sim.topology import (
    FatTreeTopology,
    IslandTopology,
    RailOptimizedTopology,
    TorusTopology,
    TwoTierTopology,
)

# Every fabric in the zoo, shaped for a 6-host x 2-device cluster.  The
# island fabric is one island so every device pair stays routable.
FABRICS = {
    "default": None,
    "two_tier": TwoTierTopology(),
    "fat_tree": FatTreeTopology(hosts_per_leaf=2, oversubscription=2.0),
    "torus": TorusTopology(rows=2, cols=3),
    "rail": RailOptimizedTopology(),
    "island": IslandTopology(island_size=6),
}


def make_cluster(topology) -> Cluster:
    return Cluster(
        ClusterSpec(n_hosts=6, devices_per_host=2, topology=topology)
    )


def run_program(cluster: Cluster, solver, seed: int, n_flows: int = 48) -> str:
    """Run one seeded random flow program; return the telemetry digest.

    ``solver`` is a solver instance, or None for the network's default.

    The program deliberately includes duplicate sizes (rate ties), tiny
    and large payloads (completion reordering), and staggered starts
    (add/remove churn between allocations) — the cases where a subtly
    different solver would diverge.
    """
    rng = random.Random(seed)
    net = Network(cluster, solver=solver)
    n_dev = len(cluster.devices)
    sizes = [1e3, 1e3, 5e4, 1e6, 1e6, 3e7]
    for _ in range(n_flows):
        src = rng.randrange(n_dev)
        dst = rng.randrange(n_dev)
        if src == dst:
            dst = (dst + 1) % n_dev
        net.start_flow(
            src,
            dst,
            rng.choice(sizes),
            extra_latency=rng.choice([0.0, 0.0, 1e-4, 2.5e-4]),
            tag=f"f{net._next_id}",
        )
    net.run()
    assert not net._active
    return net.bus.digest()


@pytest.mark.parametrize("fabric", sorted(FABRICS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scalar_vector_bit_equal(fabric: str, seed: int) -> None:
    cluster = make_cluster(FABRICS[fabric])
    scalar = run_program(cluster, ScalarSolver(), seed)
    assert run_program(cluster, VectorSolver(), seed) == scalar, fabric
    assert run_program(cluster, None, seed) == scalar, fabric


def test_vector_matches_default_above_192_flows() -> None:
    """Equality holds at the active-set sizes where NumPy pays off."""
    cluster = make_cluster(None)
    default = run_program(cluster, None, seed=7, n_flows=256)
    assert run_program(cluster, VectorSolver(), seed=7, n_flows=256) == default


def test_default_solver_is_scalar() -> None:
    assert isinstance(Network(make_cluster(None)).solver, ScalarSolver)


def test_solver_instance_not_shared() -> None:
    """Each Network gets its own solver state (attach binds, not copies)."""
    cluster = make_cluster(None)
    a = Network(cluster)
    b = Network(cluster)
    assert a.solver is not b.solver
