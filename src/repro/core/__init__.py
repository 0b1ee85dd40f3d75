"""Core cross-mesh resharding library (the paper's primary contribution)."""

from .api import ReshardResult, reshard
from .data import DataPlaneError, apply_plan
from .executor import TimingResult, simulate_plan
from .intra import IntraReshardResult, intra_mesh_reshard, plan_intra_mesh
from .mesh import DeviceMesh
from .plan import (
    AllGatherOp,
    BroadcastOp,
    CommOp,
    CommPlan,
    MulticastOp,
    ScatterOp,
    SendOp,
)
from .slices import (
    Region,
    TileGrid,
    region_intersection,
    region_shape,
    region_size,
    split_offsets,
)
from .spec import REPLICATED, ShardingSpec, parse_spec
from .validate import PlanValidationError
from .verify_data import IntegrityError, IntegrityReport, verify_delivery
from .task import IntersectionTransfer, ReshardingTask, UnitCommTask
from .tensor import DistributedTensor

__all__ = [
    "DeviceMesh",
    "ShardingSpec",
    "parse_spec",
    "REPLICATED",
    "Region",
    "TileGrid",
    "region_intersection",
    "region_shape",
    "region_size",
    "split_offsets",
    "ReshardingTask",
    "UnitCommTask",
    "IntersectionTransfer",
    "CommPlan",
    "CommOp",
    "SendOp",
    "BroadcastOp",
    "MulticastOp",
    "ScatterOp",
    "AllGatherOp",
    "simulate_plan",
    "TimingResult",
    "apply_plan",
    "DataPlaneError",
    "DistributedTensor",
    "reshard",
    "ReshardResult",
    "intra_mesh_reshard",
    "plan_intra_mesh",
    "IntraReshardResult",
    "PlanValidationError",
    "verify_delivery",
    "IntegrityError",
    "IntegrityReport",
]
