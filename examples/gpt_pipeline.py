"""End-to-end GPT-2.6B training simulation (paper Table 3 / Fig. 7).

Builds the GPT 2.6B workload under both Table 3 parallel configs,
simulates one training iteration per communication system, and reports
throughput plus the per-stage memory footprint under each schedule.

Run:  python examples/gpt_pipeline.py
"""

from repro.models import GPT_CASES, METHODS, build_gpt, run_iteration
from repro.pipeline import analytic_peak_inflight


def main() -> None:
    for name, cfg in GPT_CASES.items():
        spec = build_gpt(cfg)
        print(f"=== {name}: {spec.notes} ===")
        print(f"  {cfg.n_layers} layers, H={cfg.hidden}, batch {cfg.global_batch} "
              f"-> {spec.n_microbatches} micro-batches on {spec.n_devices} GPUs")
        b = spec.boundaries[0]
        print(f"  stage boundary: {b.shape} {b.dtype} {b.src_spec}->{b.dst_spec} "
              f"({b.nbytes() / 2**20:.1f} MiB per micro-batch)\n")

        print(f"  {'method':<12} {'schedule':<12} {'iter':>8} {'TFLOPS/GPU':>11}")
        results = {}
        for method in ("send_recv", "alpa", "broadcast", "ours", "signal"):
            r = run_iteration(spec, method)
            results[method] = r
            ms = METHODS[method]
            print(f"  {method:<12} {ms.schedule:<12} {r.iteration_time:>7.2f}s "
                  f"{r.throughput_tflops:>11.2f}")
        speedup = results["ours"].throughput_tflops / results["alpa"].throughput_tflops
        frac = results["ours"].throughput_tflops / results["signal"].throughput_tflops
        print(f"  -> ours vs Alpa: {speedup:.2f}x; {frac:.1%} of the Signal bound\n")

        # memory: eager-1F1B stores a few more activations (paper §4)
        plain = run_iteration(spec, "overlap").pipeline
        eager = run_iteration(spec, "ours").pipeline
        print("  peak per-GPU memory (weights+opt + live activations):")
        for sched_name, res in (("1F1B", plain), ("eager-1F1B", eager)):
            peaks = res.peak_activation_counts
            mems = ", ".join(
                f"stage{p.stage_id}: "
                f"{(p.params_bytes + peaks[p.stage_id] * p.activation_bytes) / 2**30:.2f} GiB "
                f"({peaks[p.stage_id]} act)"
                for p in res.job.stages
            )
            print(f"    {sched_name:<11} {mems}")
        for s in range(len(spec.profiles)):
            bound = analytic_peak_inflight("eager_1f1b", s, len(spec.profiles),
                                           spec.n_microbatches)
            assert eager.peak_activation_counts[s] <= bound
        print()


if __name__ == "__main__":
    main()
