"""Layout conversion within one mesh (the paper's §2.1 background, Fig. 1b).

Converts a tensor between layouts on one mesh via local reuse, NVLink
broadcasts, and — only when unavoidable — cross-host traffic.

Run:  python examples/intra_mesh_layout_conversion.py
"""

import numpy as np

from repro import Cluster, ClusterSpec, DeviceMesh, intra_mesh_reshard


def intra_mesh_demo() -> None:
    print("== intra-mesh layout conversion on a (2,4) mesh ==")
    cluster = Cluster(ClusterSpec(n_hosts=2, devices_per_host=4))
    mesh = DeviceMesh.from_hosts(cluster, [0, 1])
    arr = np.arange(512 * 512 * 4, dtype=np.float32).reshape(512, 512, 4)
    print(f"tensor {arr.shape} fp32 = {arr.nbytes / 2**20:.0f} MiB\n")
    cases = [
        ("S0RR", "S0RR", "identity"),
        ("RRR", "S0S1R", "replicated -> sharded (free local slice)"),
        ("RS1R", "RRR", "gather along the intra-host axis (NVLink only)"),
        ("S0RR", "RRR", "gather along the host axis (must cross hosts)"),
        ("S0RR", "RS1R", "axis swap"),
    ]
    print(f"{'conversion':<16} {'latency':>10} {'cross-host':>11}  note")
    for src, dst, note in cases:
        r = intra_mesh_reshard(arr, mesh, src, dst)
        assert r.dst_tensor is None or np.array_equal(r.dst_tensor.to_global(), arr)
        print(f"{src:>6} -> {dst:<6} {r.latency * 1e3:>8.2f}ms "
              f"{r.timing.bytes_cross_host / 2**20:>8.1f}MiB  {note}")


if __name__ == "__main__":
    intra_mesh_demo()
