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

    # replay the last reshard/e2e run's telemetry into a Chrome trace
    python -m repro trace trace.json --filter flow
"""

from __future__ import annotations

import argparse
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


def _persist_last_run(streams) -> None:
    """Best-effort save for `python -m repro trace` replay."""
    from .runtime.trace import save_last_run

    save_last_run(streams)


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


def cmd_reshard(args: argparse.Namespace) -> int:
    from .compiler import CompileContext, CompileTimeout, compile_resharding
    from .core.api import reshard
    from .core.task import ReshardingTask
    from .experiments.common import fmt_bytes, fmt_seconds, make_microbench_meshes
    from .strategies import STRATEGIES

    if len(args.src_mesh) != 2 or len(args.dst_mesh) != 2:
        print("mesh shapes must be 2-D, e.g. 2,4", file=sys.stderr)
        return 2
    cluster = None
    if args.topology:
        from .sim.cluster import Cluster, ClusterSpec
        from .sim.topology import make_topology

        n_hosts = args.src_mesh[0] + args.dst_mesh[0]
        kwargs: dict = {}
        if args.topology == "torus":
            kwargs = {"rows": 1, "cols": n_hosts}
        elif args.topology == "fat_tree":
            kwargs = {"hosts_per_leaf": max(1, n_hosts // 2)}
        cluster = Cluster(
            ClusterSpec(
                n_hosts=n_hosts,
                devices_per_host=max(args.src_mesh[1], args.dst_mesh[1]),
                topology=make_topology(args.topology, **kwargs),
            )
        )
    _cluster, src, dst = make_microbench_meshes(
        args.src_mesh, args.dst_mesh, cluster=cluster
    )
    strategies = (
        sorted(set(STRATEGIES) - {"alpa"}) if args.strategy == "all" else [args.strategy]
    )
    tensor_or_shape = args.shape
    if args.verify:
        n = int(np.prod(args.shape))
        tensor_or_shape = np.arange(n, dtype=np.float32).reshape(args.shape)
    print(
        f"reshard {args.src_spec}@{args.src_mesh} -> {args.dst_spec}@{args.dst_mesh}, "
        f"shape {args.shape} fp32"
    )
    streams = []
    for name in strategies:
        if args.explain or args.dump_plan_after or args.memory_budget is not None:
            from .core.validate import PlanValidationError

            # Compile fresh (uncached) so the pass pipeline actually
            # runs and its instrumentation reflects real work.
            task = ReshardingTask(
                args.shape, src, args.src_spec, dst, args.dst_spec,
                dtype=np.float32,
            )
            try:
                compiled = compile_resharding(
                    task,
                    CompileContext(
                        strategy=name,
                        cache=None,
                        deadline=args.timeout,
                        dump_after=tuple(args.dump_plan_after or ()),
                        on_dump=_dump_plan_state,
                        memory_budget=args.memory_budget,
                        validate=args.memory_budget is not None,
                    ),
                )
            except CompileTimeout as timeout:
                print(f"  {name:<10} compile timeout: {timeout}", file=sys.stderr)
                return 3
            except PlanValidationError as invalid:
                print(
                    f"  {name:<10} rejected by memory budget:\n    "
                    + str(invalid).replace("\n", "\n    "),
                    file=sys.stderr,
                )
                return 1
            if args.explain:
                print(f"  [{name}] pass pipeline:")
                for line in compiled.diagnostics.format_table().splitlines():
                    print("    " + line)
                from .analysis import static_host_bounds

                analysis = static_host_bounds(compiled.plan)
                print(f"  [{name}] static peak-buffer bound:")
                for line in analysis.format_table().splitlines():
                    print("    " + line)
                if args.memory_budget is not None:
                    verdict = (
                        "within" if analysis.peak <= args.memory_budget
                        else "EXCEEDS"
                    )
                    print(
                        f"    memory_budget {args.memory_budget:.0f} B: "
                        f"{verdict}"
                    )
        cache_kwargs = {"cache": None} if args.no_cache else {}
        try:
            r = reshard(tensor_or_shape, src, args.src_spec, dst, args.dst_spec,
                        strategy=name, deadline=args.timeout, **cache_kwargs)
        except CompileTimeout as timeout:
            print(f"  {name:<10} compile timeout: {timeout}", file=sys.stderr)
            return 3
        streams.append((name, r.timing.telemetry))
        verified = ""
        if args.verify and r.dst_tensor is not None:
            ok = bool(np.array_equal(r.dst_tensor.to_global(), tensor_or_shape))
            verified = f"  verified={ok}"
            if not ok:
                return 1
        print(
            f"  {name:<10} latency={fmt_seconds(r.latency):>11}  "
            f"cross-host={fmt_bytes(r.cross_host_bytes):>11}{verified}"
        )
    _persist_last_run(streams)
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
    _persist_last_run(streams)
    if args.trace_out:
        _export_trace(streams, args.trace_out)
    if args.cache_stats:
        from .compiler import default_plan_cache

        stats = default_plan_cache().stats()
        print(
            f"plan cache: {stats.requests} request(s), {stats.hits} hit(s) "
            f"({stats.hit_rate:.1%}), {stats.misses} compile(s), "
            f"epoch {stats.epoch}"
        )
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Replay the last run's telemetry into a Chrome trace (or JSONL)."""
    from .runtime.trace import (
        chrome_trace_events,
        dicts_to_records,
        last_run_path,
        read_jsonl,
        write_chrome_trace_file,
        write_jsonl,
    )

    path = args.input if args.input else str(last_run_path())
    try:
        dicts = read_jsonl(path)
    except FileNotFoundError:
        print(
            f"no saved run at {path}; run `python -m repro reshard`/`e2e` first",
            file=sys.stderr,
        )
        return 2
    if args.filter == "span":
        dicts = [d for d in dicts if d.get("type") == "span"]
    elif args.filter == "counter":
        dicts = [d for d in dicts if d.get("type") == "counter"]
    elif args.filter == "flow":
        dicts = [
            d for d in dicts if d.get("type") == "span" and d.get("cat") == "flow"
        ]
    if args.out.endswith(".jsonl"):
        n = write_jsonl(dicts, args.out)
        print(f"wrote {n} telemetry record(s) to {args.out}")
        return 0
    runs: list[str] = []
    for d in dicts:
        run = str(d.get("run", ""))
        if run not in runs:
            runs.append(run)
    events: list[dict] = []
    for run in runs:
        recs = dicts_to_records(
            d for d in dicts if str(d.get("run", "")) == run
        )
        events.extend(chrome_trace_events(recs, run=run))
    write_chrome_trace_file(events, args.out)
    print(f"wrote {len(events)} trace event(s) to {args.out}")
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
    from .core.mesh import DeviceMesh
    from .core.task import ReshardingTask
    from .experiments.common import make_microbench_meshes, paper_cluster

    strategies = ("send_recv", "allgather", "broadcast")
    if workload == "fig5":
        from .experiments.fig5 import MESSAGE_SHAPE

        for n_hosts, gpus in [(1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (3, 2), (4, 2)]:
            cluster = paper_cluster(1 + n_hosts, devices_per_host=4)
            src = DeviceMesh(cluster, [[0]])
            dst = DeviceMesh.from_hosts(
                cluster, range(1, 1 + n_hosts), devices_per_host=gpus
            )
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

        for model_name, spec in workloads().items():
            for b in spec.boundaries:
                src_mesh = spec.stage_meshes[b.src_stage]
                dst_mesh = spec.stage_meshes[b.dst_stage]
                dtype = np.float16 if b.dtype == "fp16" else np.float32
                fwd = ReshardingTask(
                    b.shape, src_mesh, b.src_spec, dst_mesh, b.dst_spec,
                    dtype=dtype,
                )
                bwd = ReshardingTask(
                    b.shape, dst_mesh, b.dst_spec, src_mesh, b.src_spec,
                    dtype=dtype,
                )
                for s in strategies:
                    yield f"fig7[{model_name}:{b.label}:fwd:{s}]", fwd, s
                    yield f"fig7[{model_name}:{b.label}:bwd:{s}]", bwd, s
    else:
        raise ValueError(f"unknown workload {workload!r}")


def _analyze_fig7_schedules(verbose: bool) -> bool:
    """Statically analyze the pipeline schedules of the Table 3 models."""
    from .analysis import analyze_pipeline_schedule
    from .experiments.fig7 import workloads
    from .pipeline.stage import CommEdge, PipelineJob

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
        for schedule in ("1f1b", "eager_1f1b", "gpipe"):
            report = analyze_pipeline_schedule(
                schedule, job.n_stages, spec.n_microbatches, job=job
            )
            report.subject = f"fig7[{model_name}:{schedule}]"
            ok = _print_analysis(report, verbose) and ok
    return ok


def cmd_analyze(args: argparse.Namespace) -> int:
    from .core.task import ReshardingTask
    from .experiments.common import make_microbench_meshes

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
            print("--shape needs --src-spec and --dst-spec", file=sys.stderr)
            return 2
        _cluster, src, dst = make_microbench_meshes(args.src_mesh, args.dst_mesh)
        task = ReshardingTask(
            args.shape, src, args.src_spec, dst, args.dst_spec, dtype=np.float32
        )
        label = f"{args.src_spec}->{args.dst_spec}:{args.strategy}"
        ok = _analyze_compiled(
            task, args.strategy, label, args.verbose,
            memory_budget=args.memory_budget,
        ) and ok
        ran = True
    if not ran:
        print(
            "nothing to analyze: pass --workload, --plan-json, --pipeline, "
            "or --shape/--src-spec/--dst-spec",
            file=sys.stderr,
        )
        return 2
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
    ``--check``, exit 1 on any invariant violation.
    """
    import json

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
    """
    import dataclasses
    import json

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


def cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments import (
        ablations,
        fig3,
        fig5,
        fig6,
        fig7,
        fig8,
        fig9,
        table1,
        topology_zoo,
    )
    from .experiments.common import format_markdown

    modules = {
        "E1": fig5, "E2": fig6, "E3": table1, "E4": fig7,
        "E5": fig8, "E6": fig9, "E7": fig3, "A0": ablations,
        "E8": topology_zoo,
    }
    mod = modules[args.id]
    print(format_markdown(mod.run()))
    return 0


def build_parser() -> argparse.ArgumentParser:
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
    r.add_argument(
        "--strategy",
        default="broadcast",
        choices=["send_recv", "allgather", "broadcast", "multicast", "signal",
                 "auto", "all"],
    )
    r.add_argument(
        "--topology",
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
        choices=["lower", "select", "schedule", "fault_rewrite", "emit", "validate"],
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
        choices=["send_recv", "alpa", "broadcast", "overlap", "ours",
                 "ours_delay", "signal"],
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
    s.add_argument("--profile", choices=["steady", "bursty"], default="bursty")
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
    x.add_argument(
        "id", choices=["E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "A0"]
    )
    x.set_defaults(fn=cmd_experiment)

    t = sub.add_parser("trace", help="replay the last run's telemetry")
    t.add_argument("out", help="output path (.json Chrome trace or .jsonl)")
    t.add_argument("--filter", choices=["span", "counter", "flow"],
                   help="keep only spans, counter samples, or network flow spans")
    t.add_argument("--input", metavar="PATH",
                   help="read this JSONL instead of the saved last run")
    t.set_defaults(fn=cmd_trace)

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
    a.add_argument("--pipeline", choices=["gpipe", "1f1b", "eager_1f1b"],
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
        choices=["send_recv", "allgather", "broadcast", "multicast", "auto"],
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
                      help="restrict to these codes (e.g. L001 L003)")
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
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
