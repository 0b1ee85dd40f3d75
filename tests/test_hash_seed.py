"""The simulators' output does not depend on Python's string hash seed.

Set and dict iteration orders over strings change with
``PYTHONHASHSEED``; a result that leaned on one would replay in one
process and drift in the next.  Each run below computes, in a fresh
interpreter, one Fig. 7 iteration digest (GPT case1, ``ours``), one
Table-2 reshard telemetry digest (case8, broadcast) and one
``serve_bursty`` scenario's telemetry digest (the benchmark's own op),
and compares them with the digests the benchmark's goldens pin.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json
from repro import reshard
from repro.experiments import fig6
from repro.experiments.common import make_microbench_meshes
from repro.models.gpt import GPT_CASES, build_gpt
from repro.models.parallel import run_iteration
from workloads import build_ops

iteration = run_iteration(build_gpt(GPT_CASES["GPT case1"]), "ours", cache=None)
case = next(c for c in fig6.TABLE2_CASES if c.name == "case8")
_cluster, src, dst = make_microbench_meshes(case.send_mesh, case.recv_mesh)
moved = reshard(fig6.TENSOR_SHAPE, src, case.send_spec, dst, case.recv_spec,
                strategy="broadcast", cache=None)
scenario = next(op for op in build_ops("serve_bursty", 0) if op.id == "scenario/00")
print(json.dumps({
    "fig7": iteration.pipeline.telemetry.digest(),
    "table2": moved.timing.telemetry.digest(),
    "serve": scenario.call().telemetry_digest,
}))
"""


def _pinned() -> dict[str, str]:
    golden = ROOT / "bench" / "golden"
    train = json.loads((golden / "train_iter.json").read_text())
    zoo = json.loads((golden / "reshard_zoo.json").read_text())
    serve = json.loads((golden / "serve_bursty.json").read_text())
    return {
        "fig7": train["GPT case1/ours"]["digest"],
        "table2": zoo["table2/case8/broadcast"]["digest"],
        "serve": serve["scenario/00"]["digest"],
    }


@pytest.mark.parametrize("hash_seed", ["1", "12345"])
def test_digests_match_pins_under_hash_seed(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "bench"), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True, text=True, env=env, check=True,
    )
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == _pinned()
