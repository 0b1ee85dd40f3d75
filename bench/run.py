#!/usr/bin/env python3
"""Benchmark harness: four real workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 bench/run.py                                 # every workload
    python3 bench/run.py --workload reshard_zoo --seed 3 --seconds 12
    python3 bench/run.py --workload train_iter --trace 1 # per-layer metrics
    python3 bench/run.py --workload all --repeat 10      # spread vs bounds
    python3 bench/run.py --record                        # rewrite goldens

Each run of a workload happens in fresh single-threaded subprocesses:
``SETUP_SAMPLES - 1`` that only set up (for the ``setup_s`` median), then
one that sets up and runs ``PASSES[workload]`` whole passes over the
workload's op universe, each pass in a seed-shuffled order.  The pass
counts are frozen, so the work of a run depends on nothing measured.
``--seconds`` is part of the benchmark's command line; at its default,
``RUN_SECONDS``, a run makes exactly ``PASSES``, and other values scale
the pass counts.  Results compare only at equal ``--seconds``: there is
no warm-up, so lazy first-call costs are spread over the ops of a run.
Before every op the process-wide plan and resim caches are reset and
garbage is collected, so an op's work does not depend on its position.  Every op's output is checked
(``golden/<workload>.json`` plus golden-free checks); an op that raises
or fails a check counts as failed.

Times are normalised to host speed.  The host's speed drifts by tens of
percent within seconds (other tenants share the cores), so the harness
times :func:`reference`, a fixed piece of pure-Python work, before and
after every op and, through an interval timer, every
``PROBE_INTERVAL_S`` during it.  Each op's wall time (less the probe's
own) is rescaled by ``REF_NOMINAL_S`` over the mean of those samples, so
it reads as milliseconds on an idle host; raw wall times are printed
beside the normalised ones.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import heapq
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden"
OUT = BENCH / "out"

WORKLOADS = ("paper_suite", "train_iter", "reshard_zoo", "serve_bursty")
#: the run length ``BENCHMARK.json`` passes as ``--seconds``
RUN_SECONDS = 12
#: whole passes over each op universe in a run of ``RUN_SECONDS``, about
#: that many idle-host seconds of op calls (calibrated once, then frozen)
PASSES = {"paper_suite": 3, "train_iter": 20, "reshard_zoo": 12, "serve_bursty": 4}
#: passes of each half (untraced, then traced) of a ``--trace 1`` run
TRACE_PASSES = {"paper_suite": 1, "train_iter": 10, "reshard_zoo": 6, "serve_bursty": 2}
#: :func:`reference` on an idle core of the 2-vCPU 2.1 GHz Xeon host the
#: bounds were measured on
REF_NOMINAL_S = 1.6e-3
#: set-ups per run; ``setup_s`` is their median
SETUP_SAMPLES = 7
#: wall-clock limit for one child process (seconds)
CHILD_TIMEOUT = 150.0
#: samples of :func:`reference` during an op: one per this many wall seconds
PROBE_INTERVAL_S = 0.05
#: child environment: one thread (no BLAS or OpenMP pools), stable hashing,
#: and glibc's mmap and trim thresholds pinned.  Left adaptive, glibc maps
#: and zero-faults large NumPy buffers afresh or reuses heap pages on a
#: schedule set by the allocation history, which made data-plane ops
#: bimodal (1.0x vs 2.0x) from one seed to the next.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
}

# (name, unit); keep in step with BENCHMARK.json
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("compiler.compile.calls", "count"),
    ("compiler.compile.self_ms", "ms"),
    ("compiler.pass.lower.ms", "ms"),
    ("compiler.pass.select.ms", "ms"),
    ("compiler.pass.schedule.ms", "ms"),
    ("compiler.pass.fault_rewrite.ms", "ms"),
    ("compiler.pass.emit.ms", "ms"),
    ("compiler.pass.validate.ms", "ms"),
    ("compiler.signature.calls", "count"),
    ("compiler.signature.ms", "ms"),
    ("compiler.cache.lookups", "count"),
    ("compiler.cache.hit_ratio", "ratio"),
    ("compiler.cache.stores", "count"),
    ("compiler.edge.time.calls", "count"),
    ("compiler.resim.calls", "count"),
    ("compiler.resim.hit_ratio", "ratio"),
    ("scheduling.calls", "count"),
    ("scheduling.ms", "ms"),
    ("core.simulate_plan.calls", "count"),
    ("core.simulate_plan.self_ms", "ms"),
    ("core.apply_plan.calls", "count"),
    ("core.apply_plan.ms", "ms"),
    ("sim.network.self_ms", "ms"),
    ("sim.flows", "count"),
    ("sim.solve.calls", "count"),
    ("sim.solve.ms", "ms"),
    ("sim.solve.vector_ratio", "ratio"),
    ("runtime.kernel.run.self_ms", "ms"),
    ("runtime.events", "count"),
    ("runtime.us_per_event", "us"),
    ("pipeline.simulate.calls", "count"),
    ("pipeline.simulate.self_ms", "ms"),
    ("pipeline.schedule_job.ms", "ms"),
    ("analysis.check_plan.calls", "count"),
    ("analysis.check_plan.ms", "ms"),
    ("service.submit.calls", "count"),
    ("service.submit.ms", "ms"),
    ("service.shed_ratio", "ratio"),
    ("service.coalesce_ratio", "ratio"),
    ("service.invalid_ratio", "ratio"),
    ("service.retries", "count"),
    ("harness.self_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def reference() -> float:
    """Wall seconds of a fixed piece of pure-Python work (~1.6 ms idle).

    Heap-ordered events and dict updates, the kind of work the simulator
    spends its time on.  It calls nothing in ``repro``, so no change to
    the program can move it; only the host's speed does.
    """
    t0 = time.perf_counter()
    heap: list[tuple[float, int]] = []
    totals: dict[int, float] = {}
    for i in range(2000):
        heapq.heappush(heap, ((i * 7919) % 1009 / 7.0, i))
        totals[i % 97] = totals.get(i % 97, 0.0) + i * 0.5
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - t0


def normalise(seconds: float, refs: list[float]) -> float:
    """``seconds`` of wall time rescaled by the reference times ``refs``."""
    return seconds * REF_NOMINAL_S / statistics.fmean(refs)


def passes_for(table: dict[str, int], workload: str, seconds: float) -> int:
    """``table[workload]`` passes, scaled to a run of ``seconds``."""
    return max(1, round(table[workload] * seconds / RUN_SECONDS))


def compare(actual, expected, path: str = "") -> list[str]:
    """Differences between an op summary and its golden.

    Floats match to ``rel=1e-12``; everything else (digests, counts,
    strings) must be equal.
    """
    if isinstance(expected, dict) and isinstance(actual, dict):
        if actual.keys() != expected.keys():
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        return [d for k in expected for d in compare(actual[k], expected[k], f"{path}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(actual) != len(expected):
            return [f"{path}: {len(actual)} items != {len(expected)}"]
        return [d for i, (a, e) in enumerate(zip(actual, expected))
                for d in compare(a, e, f"{path}[{i}]")]
    numbers = (int, float)
    if (
        isinstance(actual, numbers) and isinstance(expected, numbers)
        and not isinstance(actual, bool) and not isinstance(expected, bool)
        and (isinstance(actual, float) or isinstance(expected, float))
    ):
        if math.isclose(actual, expected, rel_tol=1e-12, abs_tol=0.0):
            return []
    elif type(actual) is type(expected) and actual == expected:
        return []
    return [f"{path}: {actual!r} != golden {expected!r}"]


def golden_path(workload: str) -> Path:
    return GOLDEN / f"{workload}.json"


def load_golden(workload: str) -> dict:
    path = golden_path(workload)
    return json.loads(path.read_text()) if path.is_file() else {}


# ----------------------------------------------------------------------
# Child process: set up, then time whole passes
# ----------------------------------------------------------------------
@dataclass
class Timed:
    """What one timed loop measured, one time per completed op.

    ``wall`` is each op's wall time less the probe's handler time,
    ``norm`` the same after :func:`normalise`; both in seconds.
    """

    passes: int
    wall: list[float] = field(default_factory=list)
    norm: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def ops_per_s(self) -> float:
        return len(self.norm) / sum(self.norm)


def settle() -> None:
    """Give the next op the same starting state wherever it falls in the list."""
    from repro.compiler import reset_default_plan_cache, reset_default_resim_cache

    reset_default_plan_cache()
    reset_default_resim_cache()
    gc.collect()


def verify(op, result, golden: dict) -> list[str]:
    from workloads import plain

    problems = op.check(result)
    expected = golden.get(op.id)
    if expected is None:
        problems.append("no golden recorded (run bench/run.py --record)")
    else:
        problems += compare(plain(op.summarize(result)), expected)
    return problems


class SpeedProbe:
    """Reference samples taken inside an op by an interval timer.

    While the probe is entered, ``SIGALRM`` runs :func:`reference` every
    ``PROBE_INTERVAL_S`` of wall time.  Each sample keeps when it
    started, the reference time and the handler's whole duration, which
    the caller takes back out of the op's latency.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []

    def on_alarm(self, _signum, _frame) -> None:
        start = time.perf_counter()
        ref = reference()
        self.samples.append((start, ref, time.perf_counter() - start))

    def __enter__(self) -> "SpeedProbe":
        self.samples.clear()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def split(self, end: float) -> tuple[float, list[float]]:
        """Handler seconds spent before ``end``, and every reference time."""
        spent = sum(duration for start, _, duration in self.samples if start < end)
        return spent, [ref for _, ref, _ in self.samples]


def run_passes(
    ops, golden: dict, seed: int, passes: int, probe: SpeedProbe | None, tracer=None
) -> Timed:
    """``passes`` whole passes over ``ops``, each in a seeded order.

    An op's latency covers only its call; settling before it, checking
    after it and timing the reference are the benchmark's own work.
    ``probe`` samples host speed inside each op (leave it out when
    tracing, so no handler time lands in a span).
    """
    rng = random.Random(seed)
    order = [op for _ in range(passes) for op in rng.sample(ops, len(ops))]
    out = Timed(passes)
    settle()
    ref = reference()
    for op in order:
        out.attempted += 1
        if tracer is not None:
            tracer.begin_op(op.id)
        t0 = time.perf_counter()
        try:
            with probe or contextlib.nullcontext():
                result = op.call()
                t1 = time.perf_counter()
        except Exception as exc:  # an op failure is a result, not a crash
            t1, problems = None, [repr(exc)]
        finally:
            if tracer is not None:
                tracer.end_op()
        if t1 is not None:
            problems = verify(op, result, golden)
            del result
        settle()
        after = reference()
        if t1 is not None:
            spent, inside = probe.split(t1) if probe is not None else (0.0, [])
            latency = t1 - t0 - spent
            out.wall.append(latency)
            out.norm.append(normalise(latency, [ref, *inside, after]))
        ref = after
        if problems:
            out.failed += 1
            print(f"FAILED {op.id}: {'; '.join(problems[:3])}", file=sys.stderr)
    return out


def end_to_end(run: Timed) -> dict:
    import resource

    from repro.service.loadgen import percentile

    ms = [s * 1e3 for s in run.norm]
    wall_ms = [s * 1e3 for s in run.wall]
    return {
        "ops_per_s": run.ops_per_s(),
        "op_p50_ms": percentile(ms, 50),
        "op_p95_ms": percentile(ms, 95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "n_ops": len(ms),
        "wall": {
            "ops_per_s": len(wall_ms) * 1e3 / sum(wall_ms),
            "op_p50_ms": percentile(wall_ms, 50),
            "op_p95_ms": percentile(wall_ms, 95),
        },
        "busy_s": sum(run.wall),
        "speed": sum(run.norm) / sum(run.wall),
    }


def per_layer(tracer, traced: Timed, untraced: Timed) -> tuple[dict, dict]:
    """Per-op layer metrics from a traced run, and the ratios' bases."""
    n = traced.attempted
    calls, incl, self_t, counts = (
        tracer.calls, tracer.inclusive, tracer.self_time, tracer.counts
    )

    def ratio(num: float, base: float) -> float:
        return num / base if base else 0.0

    m = {
        "compiler.compile.calls": calls["compiler.compile"] / n,
        "compiler.compile.self_ms": self_t["compiler.compile"] * 1e3 / n,
        **{
            f"compiler.pass.{p}.ms": incl[f"compiler.pass.{p}"] * 1e3 / n
            for p in ("lower", "select", "schedule", "fault_rewrite", "emit", "validate")
        },
        "compiler.signature.calls": calls["compiler.signature"] / n,
        "compiler.signature.ms": incl["compiler.signature"] * 1e3 / n,
        "compiler.cache.lookups": calls["compiler.cache.lookup"] / n,
        "compiler.cache.hit_ratio": ratio(
            counts["compiler.cache.hits"], calls["compiler.cache.lookup"]
        ),
        "compiler.cache.stores": calls["compiler.cache.store"] / n,
        "compiler.edge.time.calls": calls["compiler.edge.time"] / n,
        "compiler.resim.calls": calls["compiler.resim"] / n,
        "compiler.resim.hit_ratio": ratio(
            counts["compiler.resim.hits"], counts["compiler.resim.requests"]
        ),
        "scheduling.calls": calls["scheduling"] / n,
        "scheduling.ms": incl["scheduling"] * 1e3 / n,
        "core.simulate_plan.calls": calls["core.simulate_plan"] / n,
        "core.simulate_plan.self_ms": self_t["core.simulate_plan"] * 1e3 / n,
        "core.apply_plan.calls": calls["core.apply_plan"] / n,
        "core.apply_plan.ms": incl["core.apply_plan"] * 1e3 / n,
        "sim.network.self_ms": self_t["sim.network"] * 1e3 / n,
        "sim.flows": counts["sim.flows"] / n,
        "sim.solve.calls": calls["sim.solve"] / n,
        "sim.solve.ms": incl["sim.solve"] * 1e3 / n,
        "sim.solve.vector_ratio": ratio(counts["sim.solve.vector"], calls["sim.solve"]),
        "runtime.kernel.run.self_ms": self_t["runtime.kernel.run"] * 1e3 / n,
        "runtime.events": counts["runtime.events"] / n,
        "runtime.us_per_event": ratio(
            self_t["runtime.kernel.run"] * 1e6, counts["runtime.events"]
        ),
        "pipeline.simulate.calls": calls["pipeline.simulate"] / n,
        "pipeline.simulate.self_ms": self_t["pipeline.simulate"] * 1e3 / n,
        "pipeline.schedule_job.ms": incl["pipeline.schedule_job"] * 1e3 / n,
        "analysis.check_plan.calls": calls["analysis.check_plan"] / n,
        "analysis.check_plan.ms": incl["analysis.check_plan"] * 1e3 / n,
        "service.submit.calls": calls["service.submit"] / n,
        "service.submit.ms": incl["service.submit"] * 1e3 / n,
        "service.shed_ratio": ratio(counts["service.shed"], counts["service.requests"]),
        "service.coalesce_ratio": ratio(
            counts["service.coalesced"], counts["service.requests"]
        ),
        "service.invalid_ratio": ratio(
            counts["service.invalid"], counts["service.requests"]
        ),
        "service.retries": counts["service.retries"] / n,
        "harness.self_ms": self_t["harness"] * 1e3 / n,
        "trace.overhead_ratio": traced.ops_per_s() / untraced.ops_per_s(),
    }
    bases = {
        "compiler.cache.hit_ratio": f"{calls['compiler.cache.lookup']} lookups",
        "compiler.resim.hit_ratio": f"{counts['compiler.resim.requests']} eligible resims",
        "sim.solve.vector_ratio": f"{calls['sim.solve']} solves",
        "runtime.us_per_event": f"{counts['runtime.events']} events",
        "service.shed_ratio": f"{counts['service.requests']} requests",
        "service.coalesce_ratio": f"{counts['service.requests']} requests",
        "service.invalid_ratio": f"{counts['service.requests']} requests",
        "trace.overhead_ratio": "traced / untraced ops_per_s",
    }
    return m, bases


def child_main(args: argparse.Namespace) -> int:
    probe = SpeedProbe()
    signal.signal(signal.SIGALRM, probe.on_alarm)
    cold = reference()  # the first call runs cold
    ref_start = reference()
    with probe:
        sys.path.insert(0, str(ROOT / "src"))
        import workloads

        ops = workloads.build_ops(args.workload, args.seed)
        golden = load_golden(args.workload)
        end = time.perf_counter()
        setup_wall = time.monotonic() - args.t0
    spent, inside = probe.split(end)
    setup_wall -= cold + ref_start + spent
    setup_s = normalise(setup_wall, [ref_start, *inside, reference()])
    if args.child == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall}))
        return 0
    # Set-up objects live for the whole run: keep the collector off them.
    gc.collect()
    gc.freeze()
    if args.child == "run":
        passes = passes_for(PASSES, args.workload, args.seconds)
        run = run_passes(ops, golden, args.seed, passes, probe)
        print(json.dumps({
            "setup_s": setup_s,
            "setup_wall_s": setup_wall,
            "attempted": run.attempted,
            "failed": run.failed,
            "passes": run.passes,
            "universe": len(ops),
            **end_to_end(run),
        }))
        return 0
    from tracing import Tracer

    passes = passes_for(TRACE_PASSES, args.workload, args.seconds)
    untraced = run_passes(ops, golden, args.seed, passes, probe)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_passes(ops, golden, args.seed, passes, None, tracer)
    finally:
        tracer.uninstall()
    metrics, bases = per_layer(tracer, traced, untraced)
    trace_path = OUT / f"{args.workload}.trace.json"
    tracer.write_chrome(trace_path, {"workload": args.workload, "seed": args.seed})
    print(json.dumps({
        "attempted": untraced.attempted + traced.attempted,
        "failed": untraced.failed + traced.failed,
        "passes": traced.passes,
        "universe": len(ops),
        "n_traced": traced.attempted,
        "traced_busy_ms": sum(traced.wall) * 1e3,
        "layer_self_ms": tracer.layer_self_ms(),
        "trace_file": str(trace_path.relative_to(ROOT)),
        "metrics": metrics,
        "bases": bases,
    }))
    return 0


def record(workloads_to_record: list[str]) -> int:
    """Run every op of each universe once and write its golden file."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    bad = 0
    for name in workloads_to_record:
        golden = {}
        for op in workloads.build_ops(name, 0):
            settle()
            result = op.call()
            problems = op.check(result)
            if problems:
                bad += 1
                print(f"{name} {op.id}: {'; '.join(problems)}", file=sys.stderr)
            golden[op.id] = workloads.plain(op.summarize(result))
        GOLDEN.mkdir(exist_ok=True)
        golden_path(name).write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(golden)} ops -> {golden_path(name).relative_to(ROOT)}")
    return 1 if bad else 0


# ----------------------------------------------------------------------
# Parent process
# ----------------------------------------------------------------------
def spawn(args: argparse.Namespace, child: str, workload: str, seed: int) -> dict:
    """Run one child process; returns its JSON result line."""
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--child", child,
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--t0",
    ]
    env = {**os.environ, **CHILD_ENV}
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd + [repr(t0)], env=env, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{child} process for {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args: argparse.Namespace, workload: str, seed: int) -> dict:
    """One measured run; prints a report and returns the result object."""
    if args.trace:
        res = spawn(args, "trace", workload, seed)
        metrics = res["metrics"]
        print(f"== {workload} (traced)  seed={seed}  {res['n_traced']} traced ops "
              f"in {res['passes']} pass(es) of {res['universe']}  "
              f"failed={res['failed']}/{res['attempted']}")
        for name, unit in PER_LAYER:
            note = f"base {res['bases'][name]}" if name in res["bases"] else "per op"
            print(f"  {name:<32} {metrics[name]:>14.6g} {unit:<6} {note}")
        units = dict(PER_LAYER)
        layers = res["layer_self_ms"]
        n = res["n_traced"]
        print("  self time by layer, ms per op: " + ", ".join(
            f"{k}={v / n:.3f}" for k, v in layers.items()))
        print(f"  layer self times sum to {sum(layers.values()) / res['traced_busy_ms']:.4f} "
              f"of traced op wall time; spans in {res['trace_file']}")
    else:
        setups = [spawn(args, "setup", workload, seed) for _ in range(SETUP_SAMPLES - 1)]
        res = spawn(args, "run", workload, seed)
        setups.append(res)
        metrics = {"setup_s": statistics.median(s["setup_s"] for s in setups)}
        metrics.update({k: res[k] for k, _ in END_TO_END if k != "setup_s"})
        wall = {**res["wall"], "setup_s": statistics.median(s["setup_wall_s"] for s in setups)}
        n = res["n_ops"]
        print(f"== {workload}  seed={seed}  {n} ops in {res['passes']} pass(es) of "
              f"{res['universe']}  failed={res['failed']}/{res['attempted']}  "
              f"host speed {res['speed']:.3f} of reference")
        notes = {
            "setup_s": f"median of {len(setups)} set-ups",
            "ops_per_s": f"{n} ops, {res['busy_s']:.3f} s wall in op calls",
            "op_p50_ms": f"n={n}",
            "op_p95_ms": f"n={n}",
            "peak_rss_mb": "ru_maxrss of the run process",
        }
        print(f"  {'metric':<12} {'normalised':>12} {'wall':>12}")
        for name, unit in END_TO_END:
            raw = f"{wall[name]:>12.6g}" if name in wall else " " * 12
            print(f"  {name:<12} {metrics[name]:>12.6g} {raw} {unit:<4} {notes[name]}")
        print(f"  {'failed_ratio':<12} {res['failed'] / res['attempted']:>12.6g} "
              f"{'':>12} {'':<4} of {res['attempted']} attempted")
        units = dict(END_TO_END)
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def merge(results: dict[str, dict]) -> dict:
    """One result object; metric names are prefixed when several workloads ran."""
    if len(results) == 1:
        return next(iter(results.values()))
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()},
    }


def report_spread(runs: dict[str, list[dict]]) -> None:
    """Median and IQR per metric across repeats, flagged against the bounds."""
    bounds = {}
    spec = ROOT / "BENCHMARK.json"
    if spec.is_file():
        bounds = {m["name"]: m["bound"] for m in json.loads(spec.read_text())["end_to_end"]}
    for workload, results in runs.items():
        print(f"== {workload}: spread over {len(results)} runs (IQR / median)")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = f"bound {bound:.3f}" + ("  SPREAD EXCEEDS BOUND" if spread > bound else "")
            print(f"  {name:<32} median {med:>12.6g}  q1 {q1:>12.6g}  q3 {q3:>12.6g}  "
                  f"spread {spread:.4f}  {flag}")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS,
                   help=f"run length: scales the frozen pass counts, which "
                        f"fit the default {RUN_SECONDS} s; compare results "
                        f"only at equal values")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run, print per-layer metrics")
    p.add_argument("--repeat", type=int, default=1, metavar="K",
                   help="K runs per workload (seeds seed..seed+K-1); print "
                        "median and IQR of each metric against its bound")
    p.add_argument("--record", action="store_true",
                   help="rewrite golden/<workload>.json from one pass")
    p.add_argument("--child", choices=("setup", "run", "trace"), help=argparse.SUPPRESS)
    p.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    chosen = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.record:
        return record(chosen)
    if args.repeat < 1:
        print("error: --repeat must be >= 1", file=sys.stderr)
        return 2
    runs: dict[str, list[dict]] = {w: [] for w in chosen}
    try:
        for k in range(args.repeat):
            for workload in chosen:
                runs[workload].append(run_workload(args, workload, args.seed + k))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.repeat > 1:
        report_spread(runs)
        final = merge({
            w: {**rs[-1], "metrics": {
                name: {"value": statistics.median(r["metrics"][name]["value"] for r in rs),
                       "unit": m["unit"]}
                for name, m in rs[0]["metrics"].items()}}
            for w, rs in runs.items()
        })
        final["attempted"] = sum(r["attempted"] for rs in runs.values() for r in rs)
        final["failed"] = sum(r["failed"] for rs in runs.values() for r in rs)
        final["correct"] = final["failed"] == 0
    else:
        final = merge({w: rs[0] for w, rs in runs.items()})
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
