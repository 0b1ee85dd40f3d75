"""The count ledger: each benchmark op's work counts, pinned with ``==``.

``tests/fixtures/count_ledger.json`` holds, for every op of one seed-0
pass of ``paper_suite``, ``train_iter`` and ``reshard_zoo`` and for the
``serve_bursty`` scenarios in :data:`~tests.workload_counts
.SERVE_SCENARIOS`, the counts :mod:`tests.workload_counts` lists:
kernel events by producer, flows by primitive, solves and fills,
``simulate_plan`` calls, timing-memo hits, compiles, cache lookups,
signature calls, the data plane's destination tiles and their bytes,
and the randomized greedy's calls and generator draws.  They are
machine-independent, so any move is a change in the work the program
does.

A change that moves a count on purpose rewrites the fixture in the same
diff and names, in its change notes, each count that moved, from what to
what.  Regenerate it from the repository root with::

    PYTHONPATH=src python -m tests.test_count_ledger
"""

from __future__ import annotations

import json

import pytest

from tests.workload_counts import ROOT, SEED, SERVE_SCENARIOS, WORKLOADS, workload_pass

FIXTURE = ROOT / "tests" / "fixtures" / "count_ledger.json"


def measure() -> dict:
    return {
        "seed": SEED,
        "serve_bursty_scenarios": list(SERVE_SCENARIOS),
        "ops": {w: workload_pass(w)[0] for w in WORKLOADS},
    }


def _moves(pinned: dict, got: dict) -> list[str]:
    moves = []
    for op_id in sorted(set(pinned) | set(got)):
        was, now = pinned.get(op_id, {}), got.get(op_id, {})
        moves += [
            f"{op_id} {key}: {was.get(key, 0)} -> {now.get(key, 0)}"
            for key in sorted(set(was) | set(now))
            if was.get(key, 0) != now.get(key, 0)
        ]
    return moves


def test_fixture_covers_the_ledgers_inputs():
    pinned = json.loads(FIXTURE.read_text())
    assert pinned["seed"] == SEED
    assert pinned["serve_bursty_scenarios"] == list(SERVE_SCENARIOS)
    assert sorted(pinned["ops"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_equal_the_ledger(workload):
    pinned = json.loads(FIXTURE.read_text())["ops"][workload]
    got = workload_pass(workload)[0]
    assert got == pinned, "counts moved:\n" + "\n".join(_moves(pinned, got))


def test_serve_bursty_hashes_once_per_cache_lookup():
    # a submission hashes its request once, for its lookup, and so does
    # each compile it starts
    for op_id, counts in workload_pass("serve_bursty")[0].items():
        assert counts["plan_signature"] == counts["cache_lookups"], op_id


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(measure(), indent=1, sort_keys=True) + "\n")
