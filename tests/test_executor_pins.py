"""Pins of the pipeline executor's emission order.

A telemetry digest hashes every span row and gauge sample in emission
order, so these pins move on any change to the order in which the
executor starts tasks and sends messages — including tie order between
events at one instant, which makespan checks cannot see.

* the 21 Fig. 7 iterations (3 Table-3 models x 7 ``METHODS``), with the
  digests recorded in the benchmark's ``train_iter`` golden;
* one sha256 over the digests of a seeded grid of small jobs: 2-6
  stages x 1-9 micro-batches with dyadic stage and edge times (so
  events tie exactly), every named schedule, weight delaying on and
  off, overlapped and blocking communication, plus interleaved orders.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.models.gpt import GPT_CASES, build_gpt
from repro.models.parallel import METHODS, run_iteration
from repro.models.utransformer import UTransformerConfig, build_utransformer
from repro.pipeline.executor import simulate_pipeline
from repro.pipeline.interleaved import InterleavedJob
from repro.pipeline.schedules import SCHEDULE_NAMES, schedule_job
from repro.pipeline.stage import CommEdge, PipelineJob, StageProfile

ITERATION_DIGESTS = {
    "GPT case1/alpa": "c83acb7cd76dcb9db6e310ee8c84f5536fa4aea485ae83ce26b936d385345a57",
    "GPT case1/broadcast": "10bbfa1cfbee1465fd338201a1c2daf4e27539eea563ed5224faf8c8420be33b",
    "GPT case1/ours": "7b0679c77c17b6734fa1697b01943d30559b1e2b8ac6b937934dbb517f44b450",
    "GPT case1/ours_delay": "ec5718746fc7d18264812d77f4dfc47d50da54009d3e917141d38ac2813d3147",
    "GPT case1/overlap": "a1553792824e36a24fd417d77b71021fcc408519f906f113b977e8a62a53c893",
    "GPT case1/send_recv": "4d568e07d50e27915f0bffbd2a85b5c14aa9ab7b505649d3ed8e7e4115b5b63f",
    "GPT case1/signal": "08cbfbd1f5cb53c12b56e25a65f7521a898d991bc3416404277b6de4c64b614f",
    "GPT case2/alpa": "225d217287526329e6102d7dc5a295b2337f55edb4cc3ae039434595ab87faa0",
    "GPT case2/broadcast": "225d217287526329e6102d7dc5a295b2337f55edb4cc3ae039434595ab87faa0",
    "GPT case2/ours": "2cfbd3c7b6b738259808d8f2575d58ba2bc327990d0883554730b0b20102278a",
    "GPT case2/ours_delay": "6f45c2a2b3e7da0836c29e485d996f7ad0dcf231aacb83544f0a67216254fbae",
    "GPT case2/overlap": "df36f0dfde97024f5beb81af1374e75848ab96346edf9137bd43e8b18b122adc",
    "GPT case2/send_recv": "7bc22cc8cee0b90d5c638f8eae2bcefc06b769a5cabe69650f809f9820b23a7a",
    "GPT case2/signal": "6beaebbb7830865ff7c7ea51d9b977bb411bfb4b7a03e82a5b30e82353e9fde5",
    "U-Transformer/alpa": "a94d26d268025ef372f604bd2f5080cca188aa3533f316fbf9d06ceb701122fb",
    "U-Transformer/broadcast": "308cad078a4f927c879a04c730de45e13266bfcb18431b69cd05a4d80d8966e7",
    "U-Transformer/ours": "9eb2f1a198f64243d13f59c0177f9436a4ce6176efca5fcbd0beecd5ed463f69",
    "U-Transformer/ours_delay": "ea3b147cb6175dedff70e2de6c5b579f2a051f4fc0d8991418d1ad3e9355e59c",
    "U-Transformer/overlap": "b3540d6418822315e747e9d4bcfe81af48667a141a05cc043e8231e6bee9b9fb",
    "U-Transformer/send_recv": "17f933f1c360cdbf0cfd8f8539b89be3e38b2678f74a72eafabc7ba977642fb7",
    "U-Transformer/signal": "ae6aa970c116351fbd3eb4e8b19c0d760138d7f8c7fa776a0668955c239e95f6",
}

MODELS = {
    **{name: (lambda cfg=cfg: build_gpt(cfg)) for name, cfg in GPT_CASES.items()},
    "U-Transformer": lambda: build_utransformer(UTransformerConfig()),
}


def test_iteration_digests_cover_every_model_and_method():
    assert set(ITERATION_DIGESTS) == {f"{m}/{x}" for m in MODELS for x in METHODS}


@pytest.mark.parametrize("op", sorted(ITERATION_DIGESTS))
def test_iteration_digest_pinned(op):
    model, method = op.split("/")
    result = run_iteration(MODELS[model](), method)
    assert result.pipeline.telemetry.digest() == ITERATION_DIGESTS[op]


#: stage times and edge times, all dyadic so sums are exact and tie
STAGE_TIMES = (0.25, 0.5, 1.0, 1.5)
EDGE_TIMES = (0.0, 0.25, 0.5, 1.0)
GRID_DIGEST = "1f897fddc8099c2c1334e9ff14862a8938d24715c01fcf9514a8e030a7c5670f"


def grid_jobs():
    """``(p, m, job)`` over 2-6 stages x 1-9 micro-batches; some jobs
    add a ``0 -> p-1`` skip edge, so a stage waits on two inputs."""
    rng = random.Random(26)
    for p in range(2, 7):
        for m in range(1, 10):
            stages = [
                StageProfile(s, *(rng.choice(STAGE_TIMES) for _ in range(3)))
                for s in range(p)
            ]
            edges = [
                CommEdge(s, s + 1, rng.choice(EDGE_TIMES), rng.choice(EDGE_TIMES),
                         label=f"e{s}")
                for s in range(p - 1)
            ]
            if p > 2 and rng.random() < 0.5:
                edges.append(CommEdge(0, p - 1, rng.choice(EDGE_TIMES),
                                      rng.choice(EDGE_TIMES), label="skip"))
            yield p, m, PipelineJob(stages, edges, m)


INTERLEAVED = [
    InterleavedJob(p, v, m, fwd, 2 * fwd, cf, cb)
    for p, v, m, fwd, cf, cb in (
        (2, 2, 2, 1.0, 0.0, 0.0),
        (2, 2, 4, 0.5, 0.25, 0.5),
        (3, 2, 6, 1.0, 0.5, 0.25),
        (4, 2, 8, 0.25, 0.25, 0.25),
        (2, 3, 4, 1.0, 1.0, 0.5),
        (4, 3, 4, 0.5, 0.0, 0.25),
    )
]


def grid_lines():
    """One ``<case> <digest>`` line per simulated run."""
    for p, m, job in grid_jobs():
        for schedule in SCHEDULE_NAMES:
            for delay in (False, True):
                orders = schedule_job(schedule, p, m, delay_bw_weight=delay)
                for overlap in (True, False):
                    r = simulate_pipeline(job, orders, overlap=overlap)
                    yield (f"{p} {m} {schedule} {delay} {overlap} "
                           f"{r.telemetry.digest()}")
    for ij in INTERLEAVED:
        r = simulate_pipeline(ij.pipeline_job(), ij.orders())
        yield f"{ij} {r.telemetry.digest()}"


def test_grid_digest_pinned():
    h = hashlib.sha256()
    for line in grid_lines():
        h.update(line.encode() + b"\n")
    assert h.hexdigest() == GRID_DIGEST
