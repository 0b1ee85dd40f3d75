"""Max-min fair rate solvers for the flow-level simulator.

Every rate reallocation — each flow arrival, completion, failure, and
fault boundary — runs one progressive-filling fixpoint over the active
flows.  :class:`~repro.sim.network.Network` calls it through the
:class:`RateSolver` interface:

* :class:`ScalarSolver` — the progressive-filling loop every network
  uses.  It is the executable specification: the golden Fig. 5/6/7
  numbers pin its float arithmetic bit-for-bit.
* :class:`VectorSolver` — a NumPy backend over a flow x port incidence
  structure that is maintained *incrementally* on flow add/remove
  instead of being rebuilt per solve.  Per filling round it does the
  min-share scan, the tie detection, and the capacity subtractions as
  array ops.  It produces **bit-equal** rates to the scalar solver (see
  "Bit-equality" below).  No production path constructs it: the real
  workloads never hold enough concurrent flows for it to pay off.  It
  stays only as an instance tests pass to ``Network(solver=...)`` and
  because the benchmark harness's tracer still wraps its ``solve``;
  it can be deleted once that harness no longer names it.

Bit-equality
============

The scalar algorithm's float arithmetic is replicated exactly:

* **Shares** are IEEE-754 double divisions (``cap / load``) in both
  backends; NumPy elementwise division of float64 is the same operation.
* **Port tie-break**: the scalar picks the first minimal-share port in
  ``cap``-dict insertion order, which is "first traversal by the
  earliest-activated active flow, ports in path order".  The vector
  backend keeps a lazy min-heap of ``(activation_seq, path_pos)`` keys
  per port and breaks share ties by that key — the same port wins.
* **Capacity subtraction**: the scalar subtracts the fixed share from a
  port once per fixed flow traversing it, sequentially.  The result
  depends only on the *count* of subtractions per port (ports are
  independent accumulators), and ``np.subtract.at`` — the unbuffered
  ufunc — applies one subtraction per index occurrence, reproducing the
  same sequence of rounding steps.
* **Flow fixing order** inside a round cannot affect rates (every fixed
  flow gets the same share), so the vector backend is free to fix them
  in member-array order while the scalar keeps its sorted walk.

``tests/test_solver_equivalence.py`` holds the property-based pin:
randomized flow/port sets across every topology-zoo fabric must produce
``==``-equal (not approximately equal) rates from both backends.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Optional, Protocol

import numpy as np
from numpy.typing import NDArray

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .network import Flow, Network

__all__ = ["RateSolver", "ScalarSolver", "VectorSolver"]

_F64 = NDArray[np.float64]
_I64 = NDArray[np.int64]
_B = NDArray[np.bool_]


class RateSolver(Protocol):
    """Strategy interface: assign a max-min fair ``rate`` to active flows.

    The network calls :meth:`attach` once, then :meth:`flow_added` /
    :meth:`flow_removed` as flows enter and leave the active set (in
    activation order — the order ``Network._active`` iterates), and
    :meth:`solve` whenever rates must be recomputed.  ``solve`` writes
    ``flow.rate`` on every active flow and returns nothing.
    """

    name: str

    def attach(self, network: "Network") -> None: ...

    def flow_added(self, flow: "Flow") -> None: ...

    def flow_removed(self, flow: "Flow") -> None: ...

    def solve(self) -> None: ...


class ScalarSolver:
    """The progressive-filling loop, kept byte-identical.

    Stateless between solves: rebuilds ``cap``/``load`` dicts from the
    active set each time.  This is the executable specification the
    golden tests pin.
    """

    name = "scalar"

    def __init__(self) -> None:
        self._net: Optional["Network"] = None

    def attach(self, network: "Network") -> None:
        self._net = network

    def flow_added(self, flow: "Flow") -> None:  # noqa: ARG002 - interface
        pass

    def flow_removed(self, flow: "Flow") -> None:  # noqa: ARG002 - interface
        pass

    def solve(self) -> None:
        net = self._net
        assert net is not None
        active = net._active
        flows = list(active.values())
        if not flows:
            return
        # Port -> remaining capacity and unassigned flow count.
        cap: dict[str, float] = {}
        load: dict[str, int] = {}
        for f in flows:
            f.rate = 0.0
            for p in f.ports:
                if p not in cap:
                    cap[p] = net._port_capacity(p)
                    load[p] = 0
                load[p] += 1
        unassigned = set(active.keys())
        while unassigned:
            # Most constrained port: minimal fair share among loaded ports.
            best_port = None
            best_share = float("inf")
            for p, n in load.items():
                if n <= 0:
                    continue
                share = cap[p] / n
                if share < best_share:
                    best_share = share
                    best_port = p
            if best_port is None:  # pragma: no cover - defensive
                break
            # Fix that share for every unassigned flow through best_port.
            # Sorted: the per-port capacity subtractions below are float
            # ops, so a set-order walk would round differently per run.
            fixed = [
                fid for fid in sorted(unassigned) if best_port in active[fid].ports
            ]
            for fid in fixed:
                f = active[fid]
                f.rate = best_share
                unassigned.discard(fid)
                for p in f.ports:
                    cap[p] -= best_share
                    load[p] -= 1
            cap[best_port] = 0.0
            load[best_port] = 0


class VectorSolver:
    """NumPy progressive filling over an incremental incidence structure.

    Persistent state (updated in ``O(path length)`` per flow add/remove,
    never rebuilt per solve):

    * one *column* per distinct port ever traversed — port sets are a
      property of the fabric, so columns are few and stable;
    * ``_cap0`` / ``_base_load`` — static column capacities and the live
      per-column active-flow counts;
    * one *slot* per active flow (slots are free-listed) carrying its
      column indices, both verbatim (for multiplicity-true subtraction)
      and padded to a rectangle (for one-``ravel`` round updates);
    * per-column member arrays (``slot``, ``activation_seq``) for the
      round's "which unassigned flows traverse the bottleneck" query,
      with lazy tombstones and amortized compaction;
    * per-column lazy min-heaps of ``(activation_seq, path_pos, slot)``
      keys implementing the scalar solver's first-seen port tie-break.

    Each solve copies the small column vectors, then runs the filling
    rounds entirely in NumPy; the only per-flow Python work is writing
    the final rates back onto the ``Flow`` objects.
    """

    name = "vector"

    def __init__(self) -> None:
        self._net: Optional["Network"] = None
        # -- columns (port axis); column 0 is the padding sink ----------
        self._port_col: dict[str, int] = {}
        self._port_names: list[str] = ["<pad>"]
        self._ncols = 1
        self._cap0: _F64 = np.zeros(8, dtype=np.float64)
        self._base_load: _I64 = np.zeros(8, dtype=np.int64)
        self._nic_cols: list[int] = []
        # per-column member arrays (slot ids + the activation seq that
        # validates them) and live/dead counts for compaction
        self._m_slot: list[_I64] = [np.zeros(0, dtype=np.int64)]
        self._m_ins: list[_I64] = [np.zeros(0, dtype=np.int64)]
        self._m_n: list[int] = [0]
        self._m_dead: list[int] = [0]
        self._tie: list[list[tuple[int, int, int]]] = [[]]
        # -- slots (flow axis) ------------------------------------------
        self._nslots = 0
        self._alive: _B = np.zeros(0, dtype=np.bool_)
        self._slot_ins: _I64 = np.zeros(0, dtype=np.int64)
        self._rate: _F64 = np.zeros(0, dtype=np.float64)
        self._slot_flow: list[Optional["Flow"]] = []
        self._slot_cols: list[Optional[_I64]] = []
        self._slot_dcols: list[Optional[_I64]] = []
        self._padded: _I64 = np.zeros((0, 6), dtype=np.int64)
        self._free: list[int] = []
        self._slot_of: dict[int, int] = {}
        self._n_active = 0
        self._ins_counter = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self, network: "Network") -> None:
        self._net = network

    def _new_col(self, port: str) -> int:
        net = self._net
        assert net is not None
        c = self._ncols
        if c >= self._cap0.shape[0]:
            grow = max(16, 2 * self._cap0.shape[0])
            self._cap0 = np.resize(self._cap0, grow)
            self._base_load = np.resize(self._base_load, grow)
            # np.resize zero-fills only when growing from non-empty; be
            # explicit so stale values can never leak into new columns
            self._cap0[c:] = 0.0
            self._base_load[c:] = 0
        self._ncols = c + 1
        self._port_col[port] = c
        self._port_names.append(port)
        # The static baseline; NIC columns are refreshed per solve when a
        # fault schedule makes their capacity time-varying.
        self._cap0[c] = net._port_capacity(port)
        self._base_load[c] = 0
        if port[0] == "n":
            self._nic_cols.append(c)
        self._m_slot.append(np.zeros(8, dtype=np.int64))
        self._m_ins.append(np.zeros(8, dtype=np.int64))
        self._m_n.append(0)
        self._m_dead.append(0)
        self._tie.append([])
        return c

    def _alloc_slot(self) -> int:
        if self._free:
            return self._free.pop()
        s = self._nslots
        grow = max(16, 2 * s)
        if s >= self._alive.shape[0]:
            self._alive = np.resize(self._alive, grow)
            self._alive[s:] = False
            self._slot_ins = np.resize(self._slot_ins, grow)
            self._rate = np.resize(self._rate, grow)
            width = self._padded.shape[1]
            padded = np.zeros((grow, width), dtype=np.int64)
            padded[:s] = self._padded[:s]
            self._padded = padded
            self._slot_flow.extend([None] * (grow - len(self._slot_flow)))
            self._slot_cols.extend([None] * (grow - len(self._slot_cols)))
            self._slot_dcols.extend([None] * (grow - len(self._slot_dcols)))
        self._nslots = s + 1
        return s

    def _member_append(self, col: int, slot: int, ins: int) -> None:
        n = self._m_n[col]
        arr = self._m_slot[col]
        if n >= arr.shape[0]:
            grow = max(16, 2 * arr.shape[0])
            self._m_slot[col] = np.resize(arr, grow)
            self._m_ins[col] = np.resize(self._m_ins[col], grow)
        self._m_slot[col][n] = slot
        self._m_ins[col][n] = ins
        self._m_n[col] = n + 1

    def _compact_members(self, col: int) -> None:
        n = self._m_n[col]
        rows = self._m_slot[col][:n]
        ins = self._m_ins[col][:n]
        keep = self._alive[rows] & (self._slot_ins[rows] == ins)
        kept_rows = rows[keep]
        kept_ins = ins[keep]
        size = max(8, 2 * kept_rows.shape[0])
        self._m_slot[col] = np.resize(kept_rows, size)
        self._m_ins[col] = np.resize(kept_ins, size)
        self._m_n[col] = int(kept_rows.shape[0])
        self._m_dead[col] = 0

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def flow_added(self, flow: "Flow") -> None:
        self._ins_counter += 1
        ins = self._ins_counter
        slot = self._alloc_slot()
        cols_list: list[int] = []
        seen: set[str] = set()
        dcols_list: list[int] = []
        for pos, p in enumerate(flow.ports):
            c = self._port_col.get(p)
            if c is None:
                c = self._new_col(p)
            cols_list.append(c)
            if p not in seen:
                seen.add(p)
                dcols_list.append(c)
                self._member_append(c, slot, ins)
                heapq.heappush(self._tie[c], (ins, pos, slot))
        cols = np.asarray(cols_list, dtype=np.int64)
        dcols = cols if len(dcols_list) == len(cols_list) else np.asarray(
            dcols_list, dtype=np.int64
        )
        np.add.at(self._base_load, cols, 1)
        if cols.shape[0] > self._padded.shape[1]:
            width = max(cols.shape[0], 2 * self._padded.shape[1])
            padded = np.zeros((self._padded.shape[0], width), dtype=np.int64)
            padded[:, : self._padded.shape[1]] = self._padded
            self._padded = padded
        self._padded[slot, :] = 0
        self._padded[slot, : cols.shape[0]] = cols
        self._slot_cols[slot] = cols
        self._slot_dcols[slot] = dcols
        self._slot_flow[slot] = flow
        self._slot_ins[slot] = ins
        self._alive[slot] = True
        self._rate[slot] = 0.0
        self._slot_of[flow.flow_id] = slot
        self._n_active += 1

    def flow_removed(self, flow: "Flow") -> None:
        slot = self._slot_of.pop(flow.flow_id)
        cols = self._slot_cols[slot]
        dcols = self._slot_dcols[slot]
        assert cols is not None and dcols is not None
        np.subtract.at(self._base_load, cols, 1)
        self._alive[slot] = False
        self._slot_flow[slot] = None
        self._slot_cols[slot] = None
        self._slot_dcols[slot] = None
        self._n_active -= 1
        self._free.append(slot)
        for c in dcols.tolist():
            self._m_dead[c] += 1
            if self._m_dead[c] * 2 > self._m_n[c] and self._m_n[c] >= 16:
                self._compact_members(c)

    # ------------------------------------------------------------------
    # The solve
    # ------------------------------------------------------------------
    def _tie_key(self, col: int) -> tuple[int, int]:
        """First-seen order key of ``col``: earliest (activation, path pos).

        Lazily discards heap entries whose slot died or was recycled.
        """
        h = self._tie[col]
        while h:
            ins, pos, slot = h[0]
            if self._alive[slot] and int(self._slot_ins[slot]) == ins:
                return (ins, pos)
            heapq.heappop(h)
        # Unreachable for a loaded port; order any empty column last.
        return (1 << 62, 0)  # pragma: no cover - defensive

    def solve(self) -> None:
        net = self._net
        assert net is not None
        if self._n_active == 0:
            return
        ncols = self._ncols
        cap = self._cap0[:ncols].copy()
        if net.faults is not None:
            # NIC capacity is piecewise-constant under a fault schedule:
            # refresh exactly those columns at the current instant.
            names = self._port_names
            for c in self._nic_cols:
                cap[c] = net._port_capacity(names[c])
        load = self._base_load[:ncols].copy()
        nslots = self._nslots
        alive = self._alive[:nslots]
        slot_ins = self._slot_ins[:nslots]
        rate = self._rate[:nslots]
        rate[alive] = 0.0
        unassigned = alive.copy()
        remaining = self._n_active
        shares = np.empty(ncols, dtype=np.float64)
        inf = float("inf")
        while remaining:
            shares.fill(inf)
            np.divide(cap, load, out=shares, where=load > 0)
            m = shares.min()
            if m == inf:  # pragma: no cover - defensive (mirrors scalar)
                break
            tied = np.flatnonzero(shares == m)
            if tied.shape[0] == 1:
                best = int(tied[0])
            else:
                # Scalar keeps the first minimal port in first-seen
                # order; the per-column heaps reproduce that order.
                best = min(
                    (int(c) for c in tied), key=lambda c: self._tie_key(c)
                )
            n = self._m_n[best]
            rows = self._m_slot[best][:n]
            mask = unassigned[rows] & (slot_ins[rows] == self._m_ins[best][:n])
            fixed = rows[mask]
            if fixed.shape[0] == 0:  # pragma: no cover - defensive
                break
            rate[fixed] = m
            unassigned[fixed] = False
            remaining -= int(fixed.shape[0])
            # One subtraction per (flow, port) incidence — np.*.at is
            # unbuffered, so repeated columns round exactly like the
            # scalar solver's sequential walk.  Padding hits column 0.
            cols = self._padded[fixed].ravel()
            np.subtract.at(cap, cols, m)
            np.subtract.at(load, cols, 1)
            cap[best] = 0.0
            load[best] = 0
        # Write rates back onto the Flow objects (the only O(flows)
        # Python work per solve).
        slot_flow = self._slot_flow
        for s in np.flatnonzero(alive).tolist():
            f = slot_flow[s]
            assert f is not None
            f.rate = float(rate[s])
