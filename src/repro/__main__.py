"""Command-line interface.

Examples::

    # time one cross-mesh resharding (Table 2's case 3 shape)
    python -m repro reshard --shape 1024,1024,512 --src-spec RS0R \\
        --dst-spec S0RR --src-mesh 2,4 --dst-mesh 2,4 --strategy broadcast

    # compare all strategies, with data verification on a small tensor
    python -m repro reshard --shape 64,64,64 --src-spec S0RR --dst-spec RS1R \\
        --strategy all --verify

    # one end-to-end training iteration
    python -m repro e2e --model utransformer --method ours alpa signal

    # regenerate every paper table/figure into EXPERIMENTS.md, and the
    # BENCH_*.json artifacts under benchmarks/results/ next to it
    python -m repro report --output EXPERIMENTS.md

    # dump every strategy's telemetry as one Chrome trace (or .jsonl)
    python -m repro reshard --shape 64,64,64 --src-spec S0RR --dst-spec RS1R \\
        --strategy all --trace-out trace.json

Exit codes (every subcommand; errors go to stderr as ``repro <cmd>: ...``)::

    0   success
    1   a check failed: a plan rejected by validation (PlanValidationError),
        a failed --verify, analyzer errors, fuzz/serve --check gates
    2   bad input: a usage error, any ValueError (bad shape, spec, mesh,
        budget, deadline, --check on zero fuzz runs or serve requests, a
        lint path with no .py file or an unknown lint code, ...) or
        OSError (an unreadable input or unwritable output file)
    3   the compile deadline (--timeout) expired (CompileTimeout)
"""

from __future__ import annotations

import argparse
import importlib
import sys

import numpy as np


def _export_trace(streams, path: str) -> None:
    """Write labelled telemetry streams as Chrome trace JSON or JSONL."""
    from .runtime.trace import (
        chrome_trace_events,
        records_to_jsonl_dicts,
        write_chrome_trace_file,
        write_jsonl,
    )

    if path.endswith(".jsonl"):
        dicts: list[dict] = []
        for run, bus in streams:
            dicts.extend(records_to_jsonl_dicts(bus, run=run))
        n = write_jsonl(dicts, path)
        print(f"wrote {n} telemetry record(s) to {path}")
    else:
        events: list[dict] = []
        for run, bus in streams:
            events.extend(chrome_trace_events(bus, run=run))
        write_chrome_trace_file(events, path)
        print(f"wrote {len(events)} trace event(s) to {path}")


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")


def _dump_plan_state(pass_name: str, state) -> None:
    """Print a compact rendering of the evolving plan after one pass."""
    print(f"  -- after {pass_name} --")
    if state.schedule is not None:
        print(
            f"     schedule[{state.schedule.algorithm}]: "
            f"assignment={state.schedule.assignment}"
        )
    if state.plan is None:
        print(f"     no ops yet; {len(state.unit_tasks)} unit task(s) lowered")
        return
    for op in state.plan.ops[:6]:
        text = repr(op)
        print("     " + (text if len(text) <= 110 else text[:107] + "..."))
    if len(state.plan.ops) > 6:
        print(f"     ... {len(state.plan.ops) - 6} more op(s)")


def _resharding_task(
    args: argparse.Namespace, topology: str | None, memory_budget: float | None
):
    """The one task ``reshard`` and ``analyze --shape`` compile: Table 2's
    microbench meshes, on a cluster of the named ``topology`` (None:
    two-tier) whose spec carries ``memory_budget`` (None: no budget)."""
    from .core.task import ReshardingTask
    from .experiments.common import make_microbench_meshes
    from .sim.cluster import Cluster, ClusterSpec

    # [-1], not [1]: a 1-D mesh must reach make_microbench_meshes's
    # 2-D check, not fail here on an index
    n_hosts = args.src_mesh[0] + args.dst_mesh[0]
    fabric = None
    if topology:
        from .sim.topology import make_topology

        kwargs: dict = {}
        if topology == "torus":
            kwargs = {"rows": 1, "cols": n_hosts}
        elif topology == "fat_tree":
            kwargs = {"hosts_per_leaf": max(1, n_hosts // 2)}
        fabric = make_topology(topology, **kwargs)
    cluster = Cluster(
        ClusterSpec(
            n_hosts=n_hosts,
            devices_per_host=max(args.src_mesh[-1], args.dst_mesh[-1]),
            topology=fabric,
            memory_budget=memory_budget,
        )
    )
    _cluster, src, dst = make_microbench_meshes(
        args.src_mesh, args.dst_mesh, cluster=cluster
    )
    return ReshardingTask(
        args.shape, src, args.src_spec, dst, args.dst_spec, dtype=np.float32
    )


def cmd_reshard(args: argparse.Namespace) -> int:
    from .analysis import static_host_bounds
    from .compiler import USE_DEFAULT_CACHE, CompileContext, compile_resharding
    from .core.data import apply_plan
    from .core.tensor import DistributedTensor
    from .experiments.common import fmt_bytes, fmt_seconds
    from .strategies import STRATEGIES, make_strategy

    if args.verify and args.strategy != "all" and not make_strategy(args.strategy).data_complete:
        raise ValueError(
            f"--verify: strategy {args.strategy!r} moves no data, so there is nothing to verify"
        )
    task = _resharding_task(args, args.topology, args.memory_budget)
    strategies = sorted(STRATEGIES) if args.strategy == "all" else [args.strategy]
    print(
        f"reshard {args.src_spec}@{args.src_mesh} -> {args.dst_spec}@{args.dst_mesh}, "
        f"shape {args.shape} fp32"
    )
    if args.verify:
        array = np.arange(int(np.prod(args.shape)), dtype=np.float32).reshape(args.shape)
    # the passes must run (not a cache hit) for --explain and dumps
    fresh = args.no_cache or args.explain or args.dump_plan_after
    streams = []
    for name in strategies:
        compiled = compile_resharding(
            task,
            CompileContext(
                strategy=name,
                cache=None if fresh else USE_DEFAULT_CACHE,
                deadline=args.timeout,
                dump_after=tuple(args.dump_plan_after or ()),
                on_dump=_dump_plan_state,
                validate=args.memory_budget is not None,
            ),
        )
        if args.explain:
            print(f"  [{name}] pass pipeline:")
            for line in compiled.diagnostics.format_table().splitlines():
                print("    " + line)
            analysis = static_host_bounds(compiled.plan)
            print(f"  [{name}] static peak-buffer bound:")
            for line in analysis.format_table().splitlines():
                print("    " + line)
            if args.memory_budget is not None:
                verdict = "within" if analysis.peak <= args.memory_budget else "EXCEEDS"
                print(f"    memory_budget {args.memory_budget:.0f} B: {verdict}")
        timing = compiled.ensure_timing()
        streams.append((name, timing.telemetry))
        ok = True
        verified = ""
        if args.verify and not compiled.plan.data_complete:
            verified = "  (moves no data; not checked)"
        elif args.verify:
            plan = compiled.plan
            src = DistributedTensor.view_global(plan.task.src_mesh, plan.task.src_spec, array)
            ok = bool(np.array_equal(apply_plan(plan, src).to_global(), array))
            verified = f"  verified={ok}"
        print(
            f"  {name:<10} latency={fmt_seconds(timing.total_time):>11}  "
            f"cross-host={fmt_bytes(timing.bytes_cross_host):>11}{verified}"
        )
        if not ok:
            return 1
    if args.trace_out:
        _export_trace(streams, args.trace_out)
    return 0


def cmd_e2e(args: argparse.Namespace) -> int:
    from .models.gpt import GPT_CASES, build_gpt
    from .models.parallel import run_iteration
    from .models.utransformer import UTransformerConfig, build_utransformer

    if args.model == "gpt1":
        spec = build_gpt(GPT_CASES["GPT case1"])
    elif args.model == "gpt2":
        spec = build_gpt(GPT_CASES["GPT case2"])
    else:
        spec = build_utransformer(UTransformerConfig())
    print(f"{spec.name}: {spec.notes}; {spec.n_microbatches} micro-batches")
    if args.cache_stats:
        from .compiler import reset_default_plan_cache

        reset_default_plan_cache()
    streams = []
    for method in args.method:
        r = run_iteration(spec, method)
        streams.append((method, r.pipeline.telemetry))
        print(
            f"  {method:<10} iteration={r.iteration_time:8.2f}s  "
            f"throughput={r.throughput_tflops:7.2f} TFLOPS/GPU"
        )
    if args.trace_out:
        _export_trace(streams, args.trace_out)
    if args.cache_stats:
        from .compiler import default_plan_cache

        stats = default_plan_cache().stats()
        print(
            f"plan cache: {stats.requests} request(s), {stats.hits} hit(s) "
            f"({stats.hit_rate:.1%}), {stats.misses} compile(s)"
        )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .experiments.report import ARTIFACTS_DIR, write_report

    write_report(args.output, verbose=not args.quiet)
    print(f"wrote {args.output} and its {ARTIFACTS_DIR}/BENCH_*.json")
    return 0


def _print_analysis(report, verbose: bool) -> bool:
    """Render one AnalysisReport; returns True when it has no errors."""
    n_err = len(report.errors)
    n_warn = len(report.warnings)
    status = "ok " if n_err == 0 else "FAIL"
    print(f"  {status} {report.subject:<40} {n_err} error(s), {n_warn} warning(s)")
    if n_err or verbose:
        for diag in report.diagnostics:
            for line in diag.format().splitlines():
                print("       " + line)
    return n_err == 0


def _analyze_compiled(
    task, strategy: str, label: str, verbose: bool, memory_budget=None
) -> bool:
    from .analysis import check_plan
    from .compiler import CompileContext, compile_resharding

    compiled = compile_resharding(
        task, CompileContext(strategy=strategy, validate=False)
    )
    report = check_plan(compiled.plan, memory_budget=memory_budget)
    report.subject = label
    return _print_analysis(report, verbose)


def _golden_reshardings(workload: str):
    """Yield (label, task, strategy) for one figure's golden workloads."""
    from .core.task import ReshardingTask
    from .experiments.common import make_microbench_meshes

    strategies = ("send_recv", "allgather", "broadcast")
    if workload == "fig5":
        from .experiments.fig5 import MESSAGE_SHAPE, single_to_multi_meshes

        for n_hosts, gpus in [(1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (3, 2), (4, 2)]:
            src, dst = single_to_multi_meshes(n_hosts, gpus)
            task = ReshardingTask(
                MESSAGE_SHAPE, src, "R", dst, "R", dtype=np.float32
            )
            for s in strategies:
                yield f"fig5[{n_hosts}x{gpus}:{s}]", task, s
    elif workload == "fig6":
        from .experiments.fig6 import TABLE2_CASES, TENSOR_SHAPE

        for case in TABLE2_CASES:
            _cluster, src, dst = make_microbench_meshes(
                case.send_mesh, case.recv_mesh
            )
            task = ReshardingTask(
                TENSOR_SHAPE, src, case.send_spec, dst, case.recv_spec,
                dtype=np.float32,
            )
            for s in strategies:
                yield f"fig6[{case.name}:{s}]", task, s
    elif workload == "fig7":
        from .experiments.fig7 import workloads
        from .models.parallel import boundary_tasks

        for model_name, spec in workloads().items():
            for b, fwd, bwd in boundary_tasks(spec):
                for s in strategies:
                    yield f"fig7[{model_name}:{b.label}:fwd:{s}]", fwd, s
                    yield f"fig7[{model_name}:{b.label}:bwd:{s}]", bwd, s
    else:
        raise ValueError(f"unknown workload {workload!r}")


def _analyze_fig7_schedules(verbose: bool) -> bool:
    """Statically analyze the pipeline schedules of the Table 3 models:
    every ``(schedule, delay_bw_weight)`` pair of a ``METHODS`` entry
    (the Fig. 7/9 systems), plus GPipe."""
    from .analysis import analyze_pipeline_schedule
    from .experiments.fig7 import workloads
    from .models.parallel import METHODS
    from .pipeline.stage import CommEdge, PipelineJob

    runs = dict.fromkeys((m.schedule, m.delay_bw_weight) for m in METHODS.values())
    runs[("gpipe", False)] = None
    ok = True
    for model_name, spec in workloads().items():
        # Zero-time edges: the analyzer only needs the comm topology.
        edges = [
            CommEdge(
                src_stage=b.src_stage, dst_stage=b.dst_stage,
                fwd_time=0.0, bwd_time=0.0, label=b.label,
            )
            for b in spec.boundaries
        ]
        job = PipelineJob(
            stages=spec.profiles, edges=edges,
            n_microbatches=spec.n_microbatches,
        )
        for schedule, delay in runs:
            report = analyze_pipeline_schedule(
                schedule, job.n_stages, spec.n_microbatches, job=job,
                delay_bw_weight=delay,
            )
            suffix = ":delay" if delay else ""
            report.subject = f"fig7[{model_name}:{schedule}{suffix}]"
            ok = _print_analysis(report, verbose) and ok
    return ok


def cmd_analyze(args: argparse.Namespace) -> int:
    ok = True
    ran = False
    if args.plan_json:
        from .analysis import check_plan, load_plan_fixture

        for path in args.plan_json:
            fixture = load_plan_fixture(path)
            report = check_plan(fixture.plan, memory_budget=args.memory_budget)
            report.subject = path
            ok = _print_analysis(report, args.verbose) and ok
        ran = True
    if args.workload:
        for workload in args.workload:
            for label, task, strategy in _golden_reshardings(workload):
                ok = _analyze_compiled(
                    task, strategy, label, args.verbose,
                    memory_budget=args.memory_budget,
                ) and ok
            if workload == "fig7":
                ok = _analyze_fig7_schedules(args.verbose) and ok
        ran = True
    if args.pipeline:
        from .analysis import analyze_pipeline_schedule

        report = analyze_pipeline_schedule(
            args.pipeline, args.stages, args.microbatches
        )
        ok = _print_analysis(report, args.verbose) and ok
        ran = True
    if args.shape:
        if not (args.src_spec and args.dst_spec):
            raise ValueError("--shape needs --src-spec and --dst-spec")
        # --memory-budget is a what-if for check_plan, not the cluster's
        task = _resharding_task(args, None, None)
        label = f"{args.src_spec}->{args.dst_spec}:{args.strategy}"
        ok = _analyze_compiled(
            task, args.strategy, label, args.verbose,
            memory_budget=args.memory_budget,
        ) and ok
        ran = True
    if not ran:
        raise ValueError(
            "nothing to analyze: pass --workload, --plan-json, --pipeline, "
            "or --shape/--src-spec/--dst-spec"
        )
    return 0 if ok else 1


def cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import lint_paths

    report = lint_paths(args.paths, codes=args.codes)
    if report.diagnostics:
        for diag in report.diagnostics:
            print(diag.format())
        print(f"{len(report.diagnostics)} finding(s)")
        return 1
    print(f"repro-lint: clean ({' '.join(args.paths)})")
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Property-based chaos fuzzing of compile → simulate → verify.

    Deterministic under ``--seed``: the same arguments always fuzz the
    identical schedules and print the identical campaign digest.  With
    ``--check``, exit 1 on any invariant violation; a zero-run
    campaign has nothing to check, so ``--check`` refuses it.
    """
    import json

    if args.check and args.runs == 0:
        raise ValueError("--check needs at least one run; --runs 0 checks nothing")

    from .fuzz import run_fuzz

    stats = run_fuzz(
        runs=args.runs,
        seed=args.seed,
        break_reroot=args.break_reroot,
        break_memory=args.break_memory,
        save_repros_dir=args.save_repros,
    )
    if args.json:
        print(json.dumps(stats.to_json(), indent=2, sort_keys=True))
    else:
        print(
            f"fuzz: {stats.runs} run(s), {stats.events_injected} fault "
            f"event(s) injected, {stats.faults_observed} fault(s) observed, "
            f"{stats.loud_failures} loud failure(s), "
            f"{stats.corruptions_detected} corruption(s) detected, "
            f"{stats.replans_checked} replan view(s) checked"
        )
        print(f"campaign digest: {stats.digest}")
        for v in stats.violations:
            print(
                f"VIOLATION [{v.invariant}] {v.workload} run {v.run_index}: "
                f"{v.detail}"
            )
            print(
                "  reproducer: "
                + json.dumps(v.reproducer()["schedule"], sort_keys=True)
            )
    if args.check:
        if stats.violations:
            for v in stats.violations:
                print(
                    f"CHECK FAIL: [{v.invariant}] {v.workload} run "
                    f"{v.run_index}",
                    file=sys.stderr,
                )
            return 1
        print("fuzz checks: ok")
    return 0 if not stats.violations else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the resharding service under a seeded synthetic load.

    The whole run executes on the deterministic virtual-time loop, so
    the same arguments always produce the identical report (including
    the telemetry digest).  With ``--check``, exit 1 unless the
    overload-safety gates hold: zero worker crashes, bounded queue
    depth, and (for bursty profiles) at least one coalesced compile.
    A load of zero requests has nothing to check, so ``--check``
    refuses it.
    """
    import dataclasses
    import json

    if args.check and args.requests == 0:
        raise ValueError(
            "--check needs at least one request; --requests 0 checks nothing"
        )

    from .service import (
        PROFILES,
        AdmissionConfig,
        BreakerConfig,
        ServiceChaos,
        ServiceConfig,
        run_load,
    )

    profile = dataclasses.replace(
        PROFILES[args.profile],
        n_requests=args.requests,
        n_tenants=args.tenants,
    )
    config = ServiceConfig(
        n_workers=args.workers,
        admission=AdmissionConfig(
            max_queue_depth=args.max_queue_depth,
            per_tenant_depth=args.per_tenant_depth,
            rate=args.rate,
        ),
        breaker=BreakerConfig(),
    )
    chaos = None
    if args.chaos:
        chaos = ServiceChaos(
            seed=args.seed,
            slow_rate=0.2,
            slow_extra=0.05,
            fault_rate=0.15,
            cancel_rate=0.05,
            cancel_after=0.01,
            poison_requests=(f"req-{args.requests // 2:04d}",),
        )
    report = run_load(
        profile, seed=args.seed, config=config, chaos=chaos, timeout=args.timeout
    )
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.format_summary())
    if args.check:
        failures = []
        if report.worker_crashes:
            failures.append(f"{report.worker_crashes} worker crash(es)")
        if report.max_queue_depth > config.admission.max_queue_depth:
            failures.append(
                f"queue depth {report.max_queue_depth} exceeded bound "
                f"{config.admission.max_queue_depth}"
            )
        if profile.bursty and report.n_coalesced == 0:
            failures.append("bursty load produced zero coalesced compiles")
        answered = sum(report.status_counts.values())
        if answered != report.n_requests:
            failures.append(
                f"only {answered} of {report.n_requests} requests answered"
            )
        if failures:
            for f in failures:
                print(f"CHECK FAIL: {f}", file=sys.stderr)
            return 1
        print("service checks: ok")
    return 0


#: experiment id -> its module under repro.experiments
EXPERIMENTS = {
    "E1": "fig5", "E2": "fig6", "E3": "table1", "E4": "fig7", "E5": "fig8",
    "E6": "fig9", "E7": "fig3", "E8": "topology_zoo", "A0": "ablations",
    "S1": "parallel_sweep", "S2": "scaling", "S3": "interleaving",
}
#: the module functions that build an experiment's tables after ``run``
#: (the report prints the same ones)
_MORE_TABLES = {"S2": ("run_scheduler_scaling",)}


def cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments.common import format_markdown

    mod = importlib.import_module(f".experiments.{EXPERIMENTS[args.id]}", __package__)
    builders = [mod.run] + [getattr(mod, name) for name in _MORE_TABLES.get(args.id, ())]
    for build in builders:
        print(format_markdown(build()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    from .compiler.passes import DEFAULT_PASSES
    from .models.parallel import METHODS
    from .pipeline.schedules import SCHEDULE_NAMES
    from .service import PROFILES
    from .strategies import STRATEGIES

    p = argparse.ArgumentParser(
        prog="repro",
        description="Cross-mesh resharding reproduction (MLSys 2023) CLI",
    )
    sub = p.add_subparsers(dest="command", required=True)

    r = sub.add_parser("reshard", help="time one cross-mesh resharding")
    r.add_argument("--shape", type=_parse_ints, required=True)
    r.add_argument("--src-spec", required=True)
    r.add_argument("--dst-spec", required=True)
    r.add_argument("--src-mesh", type=_parse_ints, default=(2, 4))
    r.add_argument("--dst-mesh", type=_parse_ints, default=(2, 4))
    r.add_argument("--strategy", default="broadcast", choices=[*STRATEGIES, "all"])
    r.add_argument(
        "--topology",
        # not the topology registry: "island" is disconnected by design,
        # so the sender and receiver hosts would have no route between them
        choices=["two_tier", "fat_tree", "torus", "rail"],
        help="cluster topology for the microbench cluster (default: the "
             "paper's two-tier shape)",
    )
    r.add_argument("--verify", action="store_true",
                   help="move real data and check the destination layout")
    r.add_argument("--explain", action="store_true",
                   help="print per-pass wall time and op-count deltas")
    r.add_argument(
        "--dump-plan-after",
        action="append",
        choices=[compiler_pass.name for compiler_pass in DEFAULT_PASSES()],
        help="dump the evolving plan after the named pass (repeatable)",
    )
    r.add_argument("--no-cache", action="store_true",
                   help="bypass the content-addressed plan cache")
    r.add_argument("--memory-budget", type=float, metavar="BYTES",
                   help="per-host transient buffer budget; compiles are "
                        "validated against the static bound (exit 1 on "
                        "M001/M003)")
    r.add_argument("--timeout", type=float, metavar="SECONDS",
                   help="deterministic compile deadline in budget seconds "
                        "(machine-independent; exit 3 on timeout)")
    r.add_argument("--trace-out", metavar="PATH",
                   help="dump the run's telemetry (Chrome trace .json or .jsonl)")
    r.set_defaults(fn=cmd_reshard)

    e = sub.add_parser("e2e", help="simulate one training iteration")
    e.add_argument("--model", choices=["gpt1", "gpt2", "utransformer"],
                   default="utransformer")
    e.add_argument(
        "--method",
        nargs="+",
        default=["alpa", "ours", "signal"],
        choices=list(METHODS),
    )
    e.add_argument("--cache-stats", action="store_true",
                   help="reset the plan cache first and report hit/miss counts")
    e.add_argument("--trace-out", metavar="PATH",
                   help="dump the run's telemetry (Chrome trace .json or .jsonl)")
    e.set_defaults(fn=cmd_e2e)

    s = sub.add_parser(
        "serve",
        help="drive the resharding service under seeded load",
        description=(
            "Run the overload-safe planning service on the deterministic "
            "virtual-time loop under a seeded multi-tenant load profile; "
            "print (or check) the overload-safety report."
        ),
    )
    s.add_argument("--profile", choices=list(PROFILES), default="bursty")
    s.add_argument("--requests", type=int, default=120)
    s.add_argument("--tenants", type=int, default=4)
    s.add_argument("--workers", type=int, default=2)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--max-queue-depth", type=int, default=64)
    s.add_argument("--per-tenant-depth", type=int, default=16)
    s.add_argument("--rate", type=float, default=0.0,
                   help="per-tenant token-bucket rate (requests/s; 0 = off)")
    s.add_argument("--timeout", type=float, metavar="SECONDS",
                   help="per-request admission-to-response timeout")
    s.add_argument("--chaos", action="store_true",
                   help="inject seeded chaos: slow compiles, transient "
                        "faults, client cancellations, one poison request")
    s.add_argument("--json", action="store_true",
                   help="print the full report as JSON")
    s.add_argument("--check", action="store_true",
                   help="exit 1 unless the overload-safety gates hold")
    s.set_defaults(fn=cmd_serve)

    x = sub.add_parser("experiment", help="run one paper experiment")
    x.add_argument("id", choices=list(EXPERIMENTS))
    x.set_defaults(fn=cmd_experiment)

    rep = sub.add_parser(
        "report", help="regenerate EXPERIMENTS.md and the BENCH_*.json artifacts"
    )
    rep.add_argument("--output", default="EXPERIMENTS.md")
    rep.add_argument("--quiet", action="store_true")
    rep.set_defaults(fn=cmd_report)

    a = sub.add_parser(
        "analyze",
        help="statically verify plans and pipeline schedules",
        description=(
            "Run the static analyzer (coverage, write races, dependency "
            "sanity, re-rooting consistency, deadlock, stage memory) over "
            "compiled plans or hand-written plan JSON; exit 1 on any "
            "ERROR diagnostic."
        ),
    )
    a.add_argument(
        "--workload",
        action="append",
        choices=["fig5", "fig6", "fig7"],
        help="analyze one figure's golden plans (repeatable)",
    )
    a.add_argument("--plan-json", action="append", metavar="PATH",
                   help="analyze a plan fixture JSON file (repeatable)")
    a.add_argument("--pipeline", choices=list(SCHEDULE_NAMES),
                   help="analyze a named pipeline schedule")
    a.add_argument("--stages", type=int, default=4)
    a.add_argument("--microbatches", type=int, default=8)
    a.add_argument("--shape", type=_parse_ints,
                   help="compile and analyze one resharding (with "
                        "--src-spec/--dst-spec, reshard-style)")
    a.add_argument("--src-spec")
    a.add_argument("--dst-spec")
    a.add_argument("--src-mesh", type=_parse_ints, default=(2, 4))
    a.add_argument("--dst-mesh", type=_parse_ints, default=(2, 4))
    a.add_argument(
        "--strategy",
        default="broadcast",
        choices=[name for name in STRATEGIES if name != "signal"],
    )
    a.add_argument("--memory-budget", type=float, metavar="BYTES",
                   help="per-host transient buffer budget for the memory "
                        "analyzer (M001 on exceed)")
    a.add_argument("--verbose", action="store_true",
                   help="print diagnostics even for clean subjects")
    a.set_defaults(fn=cmd_analyze)

    lint = sub.add_parser(
        "lint",
        help="repro-lint: ban nondeterminism in repo code",
        description=(
            "AST lint for determinism leaks: wall-clock calls (L001), "
            "unseeded RNG (L002), set iteration (L003), raw itemsize "
            "byte math (L004).  Exit 1 on any "
            "finding; waive single lines with "
            "'# repro-lint: allow[CODE] reason'."
        ),
    )
    lint.add_argument("paths", nargs="+",
                      help="files or directories to lint (recursive)")
    lint.add_argument("--codes", nargs="+", metavar="CODE",
                      help="restrict to these codes (L001-L004, e.g. L001 L003)")
    lint.set_defaults(fn=cmd_lint)

    fz = sub.add_parser(
        "fuzz",
        help="property-based chaos fuzzing of compile/simulate/verify",
        description=(
            "Generate seeded random fault schedules (correlated domain "
            "failures, partitions, gray corruption, and the independent "
            "classes) against golden workloads, asserting the standing "
            "invariants on every run: no hangs, delivery integrity or "
            "loud failure, byte-deterministic replay, analyzer-clean "
            "plans.  Failing schedules are shrunk to minimal "
            "reproducers."
        ),
    )
    fz.add_argument("--runs", type=int, default=100,
                    help="number of fuzzed schedules (default 100)")
    fz.add_argument("--seed", type=int, default=0)
    fz.add_argument("--check", action="store_true",
                    help="exit 1 on any invariant violation")
    fz.add_argument("--json", action="store_true",
                    help="emit the campaign stats as JSON")
    fz.add_argument("--break-reroot", action="store_true",
                    help="self-test: compile with a deliberately broken "
                         "re-root pass (violations expected)")
    fz.add_argument("--break-memory", action="store_true",
                    help="self-test: simulate with a deliberately leaky "
                         "buffer accountant (memory-sound violations "
                         "expected)")
    fz.add_argument("--save-repros", metavar="DIR", default=None,
                    help="write shrunk reproducer schedules to DIR")
    fz.set_defaults(fn=cmd_fuzz)
    return p


def main(argv=None) -> int:
    """Run one subcommand; the exit codes are the module docstring's."""
    from .compiler import CompileTimeout
    from .core.validate import PlanValidationError

    args = build_parser().parse_args(argv)
    prefix = f"repro {args.command}:"
    try:
        return args.fn(args)
    except PlanValidationError as rejected:  # a ValueError: catch it first
        print(f"{prefix} plan rejected: {rejected}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as bad:
        print(f"{prefix} error: {bad}", file=sys.stderr)
        return 2
    except CompileTimeout as timeout:
        print(f"{prefix} compile timeout: {timeout}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
