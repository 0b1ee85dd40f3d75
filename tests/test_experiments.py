"""Shape tests for the experiment reproductions (paper claims as asserts).

These run the experiment code on reduced sizes, or on tables cheap
enough to rebuild, and assert the qualitative claims of each paper
table/figure.  The claims on the full-size tables of ``EXPERIMENTS.md``
are asserted in ``test_report.py``, on the report's own run.
"""

import pytest

from repro.experiments import fig3, table1
from repro.experiments.common import (
    ExperimentTable,
    fmt_bytes,
    fmt_seconds,
    format_markdown,
    make_microbench_meshes,
)
from repro.experiments.fig6 import TABLE2_CASES
from repro.sim.analysis import t_cross_host
from repro.sim.cluster import GB, ClusterSpec


# ----------------------------------------------------------------------
# common helpers
# ----------------------------------------------------------------------
def test_experiment_table_add_and_column():
    t = ExperimentTable("E0", "t", ["a", "b"])
    t.add(a=1, b=2.5)
    assert t.column("a") == [1]
    with pytest.raises(ValueError, match="missing"):
        t.add(a=1)


def test_format_markdown():
    t = ExperimentTable("E0", "demo", ["a"], notes="note")
    t.add(a=1.23456)
    md = format_markdown(t)
    assert "### E0: demo" in md
    assert "| 1.235 |" in md
    assert "note" in md


def test_make_microbench_meshes_disjoint():
    cluster, src, dst = make_microbench_meshes((2, 4), (3, 2))
    assert src.shape == (2, 4)
    assert dst.shape == (3, 2)
    assert src.disjoint_from(dst)
    assert len(cluster.hosts) == 5


def test_formatters():
    assert fmt_seconds(2.0) == "2.000 s"
    assert fmt_seconds(0.002) == "2.00 ms"
    assert fmt_bytes(2 * 1024) == "2.00 KiB"
    assert fmt_bytes(3 * (1 << 30)) == "3.00 GiB"
    assert fmt_bytes(10) == "10 B"


# ----------------------------------------------------------------------
# E2 / Table 2 + Fig. 6  (reduced tensor for speed)
# ----------------------------------------------------------------------
def small_latency(case, strategy, **kw):
    _c, src, dst = make_microbench_meshes(case.send_mesh, case.recv_mesh)
    from repro.core.api import reshard

    r = reshard((256, 64, 32), src, case.send_spec, dst, case.recv_spec,
                strategy=strategy, **kw)
    return r.latency


def test_fig6_case_table_definition():
    assert len(TABLE2_CASES) == 9
    assert TABLE2_CASES[3].send_spec == "RS01R"
    assert TABLE2_CASES[7].send_mesh == (2, 3)


# ----------------------------------------------------------------------
# E3 / Table 1
# ----------------------------------------------------------------------
def test_table1_matches_paper_exactly():
    t = table1.run()
    for row in t.rows:
        assert row["measured"] == row["paper"], row


# ----------------------------------------------------------------------
# E5 / Fig. 8 (reduced tensor)
# ----------------------------------------------------------------------
def test_fig8_naive_congestion_small():
    case2 = TABLE2_CASES[1]
    naive = small_latency(case2, "broadcast", scheduler="naive")
    ours = small_latency(case2, "broadcast", scheduler="ensemble")
    assert naive > 1.5 * ours  # naive sends everything from host 0


def test_fig8_ties_on_case1_and_8():
    for case in (TABLE2_CASES[0], TABLE2_CASES[7]):
        lats = [
            small_latency(case, "broadcast", scheduler=s)
            for s in ("naive", "load_balance", "ensemble")
        ]
        assert max(lats) / min(lats) < 1.05


def test_fig8_ensemble_never_worse():
    for case in TABLE2_CASES[:5]:
        ours = small_latency(case, "broadcast", scheduler="ensemble")
        for s in ("naive", "load_balance"):
            assert small_latency(case, "broadcast", scheduler=s) >= ours * 0.98


# ----------------------------------------------------------------------
# E7 / Fig. 3
# ----------------------------------------------------------------------
def test_fig3_simulation_tracks_analysis():
    t = fig3.run(nbytes=GB / 4, n_chunks=32, max_hosts=3)
    for row in t.rows:
        sim, analytic = row["simulated (s)"], row["analytic (s)"]
        if row["strategy"] == "global_allgather":
            # 2t is an upper bound; ring all-gather is slightly better
            assert sim <= analytic * 1.05
        else:
            assert sim == pytest.approx(analytic, rel=0.08)


def test_fig3_broadcast_is_best_beyond_one_host():
    for a in (2, 3):
        lats = {
            s: fig3.simulate_strategy(s, a, 2, nbytes=GB / 4)
            for s in ("send_recv", "local_allgather", "global_allgather", "broadcast")
        }
        assert lats["broadcast"] == min(lats.values())
        t = t_cross_host(GB / 4, ClusterSpec().inter_host_bandwidth)
        assert lats["broadcast"] <= t * 1.1  # near the lower bound
