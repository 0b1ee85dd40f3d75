"""The results pipeline: ``write_report`` regenerates every committed
result byte for byte, and its tables carry the paper's claims.

The report is written once per module into a temporary directory.  A
failing drift test names the file; regenerate it deliberately with
``python -m repro report`` if the change is meant.
"""

from pathlib import Path

import pytest

from repro.experiments.report import ARTIFACTS_DIR, EXPECTATIONS, write_report

ROOT = Path(__file__).resolve().parents[1]

#: every file ``python -m repro report`` writes, relative to the repo root
COMMITTED = ["EXPERIMENTS.md"] + [
    str(ARTIFACTS_DIR / f"BENCH_{name}.json")
    for name in ("fuzz", "memory", "service", "topology")
]


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    out = tmp_path_factory.mktemp("report")
    tables = write_report(str(out / "EXPERIMENTS.md"), verbose=False)
    return out, {t.experiment_id.split(" ")[0]: t for t in tables}


@pytest.fixture(scope="module")
def tables(written):
    return written[1]


@pytest.mark.slow
@pytest.mark.parametrize("rel", COMMITTED)
def test_written_file_matches_committed(written, rel):
    out, _ = written
    assert (out / rel).read_bytes() == (ROOT / rel).read_bytes(), (
        f"{rel} drifted from the committed copy; "
        "regenerate it with `python -m repro report` if the change is meant"
    )


@pytest.mark.slow
def test_report_writes_nothing_else(written):
    out, _ = written
    files = sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())
    assert files == sorted(COMMITTED)


@pytest.mark.slow
def test_write_report_contains_all_sections(written):
    out, tables = written
    text = (out / "EXPERIMENTS.md").read_text()
    ids = ("E1", "E2", "E3", "E4", "E5", "E6", "E7", "A0", "A1", "A2", "A3",
           "A4", "A5", "S1", "S2", "S2b", "S3", "chaos")
    assert tuple(tables) == ids
    for eid in ids:
        assert f"### {eid}" in text, eid
        assert tables[eid].rows, eid
    for claim in EXPECTATIONS.values():
        assert claim.split(".")[0] in text
    assert "Known divergences" in text


# ----------------------------------------------------------------------
# the paper's claims, on the report's own tables (E3's and E7's are in
# test_experiments.py: E3 is cheap to rebuild, E7 runs on a reduced size)
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_fig5_claims(tables):
    rows = tables["E1"].rows
    g1 = [r for r in rows if r["group"].startswith("1 node")]
    g2 = [r for r in rows if r["group"].startswith("2 GPUs")]
    # Send/Recv linear in #GPUs
    sr = [r["send_recv (s)"] for r in g1]
    assert sr[3] == pytest.approx(4 * sr[0], rel=0.02)
    # Broadcast flat (within 5%)
    bc = [r["broadcast (s)"] for r in rows]
    assert max(bc) / min(bc) < 1.05
    # Alpa collapse at 3 GPUs and 3 nodes (uneven partition)
    ag1 = [r["allgather/Alpa (s)"] for r in g1]
    assert ag1[2] > 2 * ag1[1]
    ag2 = [r["allgather/Alpa (s)"] for r in g2]
    assert ag2[2] > 2 * ag2[1]
    # Alpa degrades across nodes but stays below Send/Recv
    assert ag2[3] > ag2[0]
    sr2 = [r["send_recv (s)"] for r in g2]
    assert ag2[3] < sr2[3]


@pytest.mark.slow
def test_fig6_claims(tables):
    t = tables["E2"]
    by_case = {r["case"]: r for r in t.rows}
    # parity cases
    for c in ("case1", "case2"):
        assert by_case[c]["ours/Alpa speedup"] == pytest.approx(1.0, abs=0.1)
    # congestion cases: ours clearly faster
    for c in ("case3", "case4", "case9"):
        assert by_case[c]["ours/Alpa speedup"] > 1.3
    # cross-node all-gather cases
    assert by_case["case7"]["ours/Alpa speedup"] > 1.5
    assert by_case["case8"]["ours/Alpa speedup"] > 2.0
    # send/recv never beats ours
    for r in t.rows:
        assert r["send_recv (s)"] >= r["broadcast (s)"] * 0.98


@pytest.mark.slow
def test_fig7_claims(tables):
    rows = {(r["model"], r["method"]): r for r in tables["E4"].rows}
    # GPT: ours ~1.1-1.2x over Alpa, both near the Signal bound
    for model in ("GPT case1", "GPT case2"):
        assert 1.05 < rows[(model, "ours")]["vs Alpa"] < 1.35
        assert rows[(model, "ours")]["of Signal"] > 0.97
    # U-Transformer: ours ~1.5x over Alpa, >= 97% of Signal
    assert 1.35 < rows[("U-Transformer", "ours")]["vs Alpa"] < 1.7
    assert rows[("U-Transformer", "ours")]["of Signal"] >= 0.97


@pytest.mark.slow
def test_fig8_claims(tables):
    # ties (cases 1, 8) and naive congestion (case 2) are asserted on
    # reduced tensors in test_experiments.py
    by_case = {r["case"]: r for r in tables["E5"].rows}
    assert by_case["case4"]["lb/ours"] > 1.3


@pytest.mark.slow
def test_fig9_claims(tables):
    rows = {(r["batch"], r["method"]): r for r in tables["E6"].rows}
    small = [k for k in rows if k[0].startswith("small")][0][0]
    large = [k for k in rows if k[0].startswith("large")][0][0]
    # small batch: overlap close to eager (paper: within a few %)
    gap_small = (
        rows[(small, "ours")]["TFLOPS/GPU"] / rows[(small, "overlap")]["TFLOPS/GPU"]
    )
    assert gap_small < 1.12
    # large batch: overlap ~1.2-1.3x over broadcast, eager adds more
    assert rows[(large, "overlap")]["vs broadcast"] > 1.15
    assert rows[(large, "ours")]["vs broadcast"] > rows[(large, "overlap")]["vs broadcast"]


@pytest.mark.slow
def test_ablation_claims(tables):
    by_case = {r["case"]: r for r in tables["A1"].rows}
    # orthogonal tilings punish slice granularity; aligned ones do not
    assert by_case["case4"]["slice/intersection"] > 1.5
    assert by_case["case1"]["slice/intersection"] == pytest.approx(1.0, abs=0.02)
    lat = tables["A2"].column("latency (s)")
    assert lat == sorted(lat, reverse=True)  # monotone in K
    assert lat[0] / lat[-1] > 2.0
    for r in tables["A3"].rows:
        assert 0.9 < r["ungated/gated"] < 1.2
    a4 = tables["A4"].rows
    assert a4[1]["iteration (s)"] < a4[0]["iteration (s)"]  # eager helps
    # deeper eagerness: no time gain, memory grows
    assert a4[2]["iteration (s)"] == pytest.approx(a4[1]["iteration (s)"], rel=0.02)
    assert a4[3]["peak act stage0"] > a4[1]["peak act stage0"]
    a5 = tables["A5"].rows
    assert a5[1]["iteration (s)"] <= a5[0]["iteration (s)"] + 1e-9


@pytest.mark.slow
def test_parallel_sweep_claims(tables):
    rows = {r["config"]: r for r in tables["S1"].rows}
    # no cross-mesh comm at pp=1 -> systems tie
    for cfg, r in rows.items():
        if cfg.endswith(",1)"):
            assert r["ours/alpa"] == pytest.approx(1.0, abs=0.01)
    # deeper pipelines widen the gap
    assert rows["(2,1,4)"]["ours/alpa"] > rows["(2,2,2)"]["ours/alpa"] > 1.1
    # cross-host operator parallelism collapses
    assert rows["(1,8,1)"]["alpa TFLOPS"] < 10
    # with ours, pipeline depth is nearly free
    assert rows["(1,1,8)"]["ours TFLOPS"] > 0.95 * rows["(4,1,2)"]["ours TFLOPS"]


@pytest.mark.slow
def test_scaling_claims(tables):
    sr = tables["S2"].column("send_recv (s)")
    bc = tables["S2"].column("broadcast (s)")
    for a, b in zip(sr, bc):
        assert a == pytest.approx(4 * b, rel=0.05)  # replication factor
    # both scale down with aggregate bandwidth
    assert bc[-1] < bc[0] / 4
    # "more significant when the number of tiles is large" (§5.1.2)
    speedups = tables["S2b"].column("speedup")
    assert speedups == sorted(speedups)
    assert speedups[-1] > 3.0


@pytest.mark.slow
def test_interleaving_claims(tables):
    rows = {(r["virtual stages"], r["comm/compute"]): r for r in tables["S3"].rows}
    for comm in (0.0, 0.25, 0.5):
        # interleaving helps at every communication level
        assert rows[(2, comm)]["iteration (s)"] < rows[(1, comm)]["iteration (s)"]
        # and costs activation memory
        assert rows[(2, comm)]["peak act stage0"] > rows[(1, comm)]["peak act stage0"]
    # bubble shrinks with v in the comm-free case
    assert rows[(4, 0.0)]["bubble"] < rows[(1, 0.0)]["bubble"]


@pytest.mark.slow
def test_chaos_claims(tables):
    t = tables["chaos"]
    slow = t.column("slowdown")
    # graceful degradation: no cliff at low rates, nothing fatal
    assert slow[0] == 1.0
    assert all(s < 5.0 for s in slow)
    assert all(st != "fatal" for st in t.column("status"))

