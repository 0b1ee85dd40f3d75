"""A max-min fairness certificate for every scalar solve.

Checks each allocation against the definition of max-min fairness
instead of against a second solver:

* **feasible** — on every port the allocated rates (one term per
  traversal) sum to at most the port's capacity;
* **bottlenecked** — every active flow crosses a saturated port on which
  no other flow gets a higher rate, so raising it would need lowering a
  flow that is no better off.

Capacities are priced here from the cluster spec, the topology and the
fault schedule, not through the network's own memoized lookup.  The
programs are seeded random flow sets over every topology-zoo fabric,
clean and under a NIC degradation window.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.experiments.topology_zoo import zoo_specs
from repro.sim.cluster import Cluster, ClusterSpec
from repro.sim.faults import DegradedWindow, FaultSchedule
from repro.sim.network import LossyNetwork, Network
from repro.sim.solver import ScalarSolver

REL = 1e-9
SPECS = zoo_specs()


def port_capacity(net: Network, port: str) -> float:
    spec = net.cluster.spec
    if port[0] == "d":
        return spec.intra_host_bandwidth
    if port[0] == "n":
        host = int(port[2:])
        bw = spec.host_nic_bandwidth(host)
        if isinstance(net, LossyNetwork):
            bw *= net.faults.nic_factor(host, net.loop.now)
        return bw
    return net.cluster.topo.port_capacity(port)


class CertifiedSolver(ScalarSolver):
    """The default solver, with the certificate asserted after each solve."""

    def __init__(self) -> None:
        super().__init__()
        self.solves = 0
        self.widest = 0

    def solve(self) -> None:
        super().solve()
        # The solver holds its network weakly (the network owns it).
        assert self._net is not None
        net = self._net()
        assert net is not None
        flows = list(net._active.values())
        if not flows:
            return
        self.solves += 1
        self.widest = max(self.widest, len(flows))
        used: dict[str, float] = {}
        top: dict[str, float] = {}
        for f in flows:
            for p, k in Counter(f.ports).items():
                used[p] = used.get(p, 0.0) + k * f.rate
                top[p] = max(top.get(p, 0.0), f.rate)
        cap = {p: port_capacity(net, p) for p in used}
        for p, total in used.items():
            assert total <= cap[p] * (1 + REL), (p, total, cap[p])
        saturated = {p for p, total in used.items() if total >= cap[p] * (1 - REL)}
        for f in flows:
            assert any(
                p in saturated and f.rate >= top[p] * (1 - REL) for p in f.ports
            ), (f.flow_id, f.rate, f.ports)


def run_program(spec: ClusterSpec, seed: int, faults=None) -> CertifiedSolver:
    """Seeded random flows with rate ties, size spread and staggered starts."""
    rng = random.Random(seed)
    solver = CertifiedSolver()
    net = (
        Network(Cluster(spec), solver)
        if faults is None
        else LossyNetwork(Cluster(spec), faults, solver=solver)
    )
    n_dev = spec.n_hosts * spec.devices_per_host
    for _ in range(40):
        src = rng.randrange(n_dev)
        dst = rng.randrange(n_dev)
        if src == dst:
            dst = (dst + 1) % n_dev
        net.start_flow(
            src,
            dst,
            rng.choice([1e3, 1e3, 5e4, 1e6, 1e6, 3e7]),
            latency=net._route(src, dst)[1] + rng.choice([0.0, 0.0, 1e-4, 2.5e-4]),
        )
    net.run()
    assert not net._active
    return solver


@pytest.mark.parametrize("fabric", sorted(SPECS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_certificate_holds_on_every_fabric(fabric: str, seed: int) -> None:
    solver = run_program(SPECS[fabric], seed)
    # Not vacuous: many solves, with contention among several flows.
    assert solver.solves > 40
    assert solver.widest > 5


@pytest.mark.parametrize("fabric", sorted(SPECS))
def test_certificate_holds_under_nic_degradation(fabric: str) -> None:
    # Two overlapping windows on hosts 0 and 1 open and close while the
    # program's flows are in flight.
    faults = FaultSchedule(
        degradations=(
            DegradedWindow(host=0, start=1e-4, duration=2e-3, factor=0.25),
            DegradedWindow(host=1, start=5e-4, duration=1e-2, factor=0.5),
        )
    )
    solver = run_program(SPECS[fabric], seed=3, faults=faults)
    assert solver.solves > 40
