"""U-Transformer: why long skip connections bottleneck the pipeline.

Reproduces the paper's motivating U-Transformer scenario (Table 3,
Fig. 7, Fig. 9): a 2.1B-parameter U-shaped network split into two
pipeline stages, whose cross-mesh skip connection dominates
communication.  Prints the module map, the stage split, the per-edge
resharding costs under each strategy, and a short textual timeline
showing how eager-1F1B hides the transfers.

Run:  python examples/utransformer_skip.py
"""

from repro.models import (
    UTransformerConfig,
    build_utransformer,
    resolve_comm_edges,
    run_iteration,
    utransformer_modules,
    utransformer_params,
)


def main() -> None:
    cfg = UTransformerConfig(global_batch=512)
    print(f"U-Transformer: {utransformer_params(cfg) / 1e9:.2f}B parameters")
    for m in utransformer_modules(cfg):
        skip = ""
        if m.skip_out is not None:
            skip = f"  --> skip {m.skip_out}"
        if m.skip_in is not None:
            skip = f"  <-- skip {m.skip_in}"
        print(f"  {m.name:<18} {m.flops_fwd / 1e12:6.2f} TFLOP  "
              f"{m.params / 1e6:8.1f}M params  "
              f"out ({m.out_channels}, {m.out_spatial}, {m.out_spatial}){skip}")

    spec = build_utransformer(cfg)
    print(f"\n2-stage split ({spec.notes})")
    print("cross-mesh tensors per micro-batch:")
    for b in spec.boundaries:
        print(f"  {b.label:<12} {b.shape}  {b.nbytes() / 2**20:7.1f} MiB")

    print("\nper-micro-batch resharding latency at the stage boundary:")
    for strategy in ("send_recv", "allgather", "broadcast", "signal"):
        edges = resolve_comm_edges(spec, strategy)
        total = sum(e.fwd_time for e in edges)
        print(f"  {strategy:<12} fwd total {total * 1e3:8.2f} ms  "
              + "  ".join(f"{e.label}={e.fwd_time * 1e3:.1f}ms" for e in edges))

    print("\nend-to-end iteration:")
    results = {}
    for method in ("alpa", "broadcast", "overlap", "ours", "signal"):
        r = run_iteration(spec, method)
        results[method] = r
        print(f"  {method:<10} {r.iteration_time:7.2f}s  "
              f"{r.throughput_tflops:6.2f} TFLOPS/GPU")
    print(f"  -> ours vs Alpa: "
          f"{results['ours'].throughput_tflops / results['alpa'].throughput_tflops:.2f}x")

    # -- a small window of the eager-1F1B timeline ----------------------
    print("\neager-1F1B timeline (stage 0, first 12 events):")
    # the run's record is its telemetry spans (see repro.pipeline.executor)
    spans = results["ours"].pipeline.telemetry.spans
    compute = [s for s in spans if s.cat == "compute" and s.attrs["stage"] == 0]
    for s in sorted(compute, key=lambda s: s.start)[:12]:
        a = s.attrs
        print(f"  t={s.start * 1e3:8.1f}..{s.end * 1e3:8.1f} ms  {a['kind']}{a['microbatch']}")
    comms = sorted((s for s in spans if s.cat == "comm"), key=lambda s: s.start)[:6]
    print("overlapped transfers (first 6):")
    for c in comms:
        a = c.attrs
        print(f"  t={c.start * 1e3:8.1f}..{c.end * 1e3:8.1f} ms  "
              f"{a['label']} {a['direction']} mb{a['microbatch']}")


if __name__ == "__main__":
    main()
