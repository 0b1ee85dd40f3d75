"""The rate solver's skipped fills against an independent full fill.

:class:`~repro.sim.solver.ScalarSolver` runs its progressive fill only
when an arriving or departing flow shares a port with another active
flow.  These tests hold it to a test-local copy of the full fill it
used to run on every solve: after every ``solve()`` on randomized flow
programs, each active flow's rate must ``==`` the reference's.  A
second pin counts the fills on two fixed Table-2 programs, so the fast
path cannot be lost silently.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.executor import simulate_plan
from repro.core.task import ReshardingTask
from repro.experiments.common import make_microbench_meshes
from repro.experiments.fig6 import TABLE2_CASES, TENSOR_SHAPE
from repro.experiments.topology_zoo import zoo_specs
from repro.sim.cluster import Cluster
from repro.sim.faults import FaultSchedule
from repro.sim.network import Flow, LossyNetwork, Network
from repro.sim.solver import ScalarSolver
from repro.strategies import make_strategy

ZOO = zoo_specs()
EXAMPLES = 40


def full_fill_rates(
    active: dict[int, Flow], port_capacity: Callable[[str], float]
) -> dict[int, float]:
    """Max-min rates by a full progressive fill over every active flow.

    The solver's fill as it ran on every solve before the skip rules,
    statement for statement, except that it writes a dict, not
    ``flow.rate``.
    """
    rates: dict[int, float] = {}
    if not active:
        return rates
    cap: dict[str, float] = {}
    load: dict[str, int] = {}
    members: dict[str, list[Flow]] = {}
    for f in active.values():
        rates[f.flow_id] = 0.0
        for p in f.ports:
            through = members.get(p)
            if through is None:
                cap[p] = port_capacity(p)
                load[p] = 1
                members[p] = [f]
            else:
                load[p] += 1
                through.append(f)
    unassigned = len(active)
    assigned: set[int] = set()
    while unassigned:
        best_port = None
        best_share = float("inf")
        for p, n in load.items():
            if n <= 0:
                continue
            share = cap[p] / n
            if share < best_share:
                best_share = share
                best_port = p
        if best_port is None:
            break
        for f in members[best_port]:
            fid = f.flow_id
            if fid in assigned:
                continue
            assigned.add(fid)
            unassigned -= 1
            rates[fid] = best_share
            for p in f.ports:
                cap[p] -= best_share
                load[p] -= 1
        cap[best_port] = 0.0
        load[best_port] = 0
    return rates


def check_every_solve(net: Network) -> list[int]:
    """Make each ``solve()`` on ``net`` assert the reference's rates.

    Returns a one-element list counting the checked solves.
    """
    solve = net.solver.solve
    checked = [0]

    def solve_and_check() -> None:
        solve()
        want = full_fill_rates(net._active, net._port_capacity)
        assert {fid: f.rate for fid, f in net._active.items()} == want
        checked[0] += 1

    net.solver.solve = solve_and_check
    return checked


# One flow: (src, dst offset, bytes, start delay, path kind, parent).
# ``parent`` starts the flow from an earlier flow's completion, the way
# ring hops chain; a flow alone on its ports takes the skip path.
FLOWS = st.lists(
    st.tuples(
        st.integers(0, 15),
        st.integers(1, 15),
        st.sampled_from([1e3, 1e3, 5e4, 1e6, 1e6, 3e7]),
        st.sampled_from([0.0, 0.0, 1e-4, 2.5e-4, 3e-3]),
        st.sampled_from(["route", "route", "route", "segment", "repeat"]),
        st.one_of(st.none(), st.integers(0, 63)),
    ),
    min_size=1,
    max_size=24,
)
PROGRAMS = st.tuples(
    st.sampled_from(sorted(ZOO)),
    FLOWS,
    st.one_of(st.none(), st.integers(0, 2**16)),
    st.integers(0, 2**16),
)


def run_program(program) -> None:
    fabric, flows, fault_seed, cut = program
    spec = ZOO[fabric]
    faults: Optional[FaultSchedule] = None
    if fault_seed is not None:
        faults = FaultSchedule.generate(
            fault_seed, spec.n_hosts, horizon=0.05, drop_rate=0.05
        )
    net = Network(Cluster(spec)) if faults is None else LossyNetwork(Cluster(spec), faults)
    checked = check_every_solve(net)
    n_dev = len(net.cluster.devices)
    children: dict[int, list[Callable[[], None]]] = {}

    def release(i: int) -> None:
        for child in children.pop(i, []):
            child()

    if isinstance(net, LossyNetwork):
        # An abandoned flow releases its children too.
        net.on_abandon = lambda f: release(int(f.tag[1:]))

    def start(i: int) -> None:
        src, off, nbytes, delay, kind, _parent = flows[i]
        dst = (src + off) % n_dev
        route, link_latency = net._route(src, dst)
        ports: Optional[tuple[str, ...]] = None
        if kind == "segment":
            # A contiguous, non-empty piece of the routed path.
            a = cut % len(route)
            b = a + 1 + (cut // 7) % (len(route) - a)
            ports = route[a:b]
        elif kind == "repeat":
            ports = route + (route[cut % len(route)],)

        net.start_flow(
            src, dst, nbytes, lambda _f: release(i), tag=f"f{i}",
            ports=ports, latency=link_latency + delay,
        )

    for i, (*_, parent) in enumerate(flows):
        if parent is None or parent % (i + 1) == i:
            start(i)
        else:
            children.setdefault(parent % (i + 1), []).append(
                lambda i=i: start(i)
            )
    net.run()
    assert not net._active
    assert checked[0] > 0


@settings(max_examples=EXAMPLES, deadline=None)
@given(PROGRAMS)
def test_every_solve_matches_the_full_fill(program) -> None:
    run_program(program)


@pytest.mark.chaos
@settings(max_examples=20 * EXAMPLES, deadline=None)
@given(PROGRAMS)
def test_every_solve_matches_the_full_fill_sweep(program) -> None:
    run_program(program)


@pytest.mark.parametrize(
    "case,strategy,solves,fills",
    [
        # Chunk-pipelined ring broadcast: every hop is alone on its ports.
        ("case8", "broadcast", 1282, 0),
        # Every send/recv flow shares a NIC with another.
        ("case4", "send_recv", 65, 64),
    ],
)
def test_fill_runs_only_when_a_port_is_shared(
    monkeypatch, case: str, strategy: str, solves: int, fills: int
) -> None:
    counts = {"solve": 0, "fill": 0}
    solve, fill = ScalarSolver.solve, ScalarSolver._fill

    def counted_solve(self: ScalarSolver) -> None:
        counts["solve"] += 1
        solve(self)

    def counted_fill(self: ScalarSolver, net: Network) -> None:
        counts["fill"] += 1
        fill(self, net)

    monkeypatch.setattr(ScalarSolver, "solve", counted_solve)
    monkeypatch.setattr(ScalarSolver, "_fill", counted_fill)
    (c,) = [c for c in TABLE2_CASES if c.name == case]
    _cluster, src, dst = make_microbench_meshes(c.send_mesh, c.recv_mesh)
    task = ReshardingTask(
        TENSOR_SHAPE, src, c.send_spec, dst, c.recv_spec, dtype=np.float32
    )
    simulate_plan(make_strategy(strategy).plan(task))
    assert counts == {"solve": solves, "fill": fills}
