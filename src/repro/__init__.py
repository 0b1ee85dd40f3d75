"""repro — reproduction of "On Optimizing the Communication of Model
Parallelism" (MLSys 2023) on a simulated GPU cluster.

Public surface:

* :mod:`repro.sim` — simulated cluster (hosts, NICs, NVLink, flows);
* :mod:`repro.core` — meshes, sharding specs, cross-mesh resharding
  tasks, plans, and the :func:`repro.reshard` entry point;
* :mod:`repro.strategies` — send/recv, all-gather ("Alpa"), broadcast
  (the paper's method), and signal communication strategies;
* :mod:`repro.scheduling` — load balancing / ordering of unit tasks;
* :mod:`repro.pipeline` — GPipe / 1F1B / eager-1F1B pipeline schedules
  with communication overlap and memory accounting;
* :mod:`repro.models` — GPT-3-style and U-Transformer cost models;
* :mod:`repro.experiments` — one module per paper table/figure.
"""

from .core import (
    CommPlan,
    DeviceMesh,
    DistributedTensor,
    IntraReshardResult,
    ReshardingTask,
    ReshardResult,
    ShardingSpec,
    TimingResult,
    UnitCommTask,
    apply_plan,
    intra_mesh_reshard,
    reshard,
    simulate_plan,
)
from .sim import GB, GBPS, Cluster, ClusterSpec, Network
from .strategies import (
    AllGatherStrategy,
    BroadcastStrategy,
    CommStrategy,
    SendRecvStrategy,
    SignalStrategy,
    make_strategy,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Cluster",
    "ClusterSpec",
    "Network",
    "GB",
    "GBPS",
    "DeviceMesh",
    "ShardingSpec",
    "ReshardingTask",
    "UnitCommTask",
    "CommPlan",
    "DistributedTensor",
    "TimingResult",
    "ReshardResult",
    "reshard",
    "simulate_plan",
    "apply_plan",
    "intra_mesh_reshard",
    "IntraReshardResult",
    "CommStrategy",
    "SendRecvStrategy",
    "AllGatherStrategy",
    "BroadcastStrategy",
    "SignalStrategy",
    "make_strategy",
]
