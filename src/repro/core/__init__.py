"""GS3 core: the protocols (S/D/M), their state, and their oracles."""

from .config import GS3Config
from .driver_ops import default_corruption
from .dynamic import Gs3DynamicSimulation
from .gs3d import Gs3DynamicNode
from .gs3m import Gs3MobileNode
from .gs3s import Gs3StaticNode, KnownHead
from .head_select import (
    SelectionResult,
    drifted_candidate_ils,
    head_select,
    neighbor_candidate_ils,
    rank_candidates,
)
from .invariants import (
    check_f4_coverage,
    check_i1_physical_connectivity,
    check_i1_tree,
    check_i2_cell_radius,
    check_i2_children,
    check_i2_inner_six,
    check_i2_neighbors,
    check_i3_associate_optimality,
    check_root_liveness,
    check_static_fixpoint,
    check_static_invariant,
    inner_head_ids,
)
from .multibig import (
    MultiBigSimulation,
    RegionAssignment,
    partition_by_big,
    root_rank,
)
from .runtime import Gs3Runtime
from .simulation import (
    STRUCTURE_CHANGE_CATEGORIES,
    Gs3Simulation,
    StabilityReport,
)
from .snapshot import NodeView, StructureSnapshot, take_snapshot
from .state import NeighborInfo, NodeStatus, ProtocolState

__all__ = [
    "GS3Config",
    "Gs3DynamicNode",
    "Gs3DynamicSimulation",
    "Gs3MobileNode",
    "default_corruption",
    "Gs3StaticNode",
    "KnownHead",
    "SelectionResult",
    "drifted_candidate_ils",
    "head_select",
    "neighbor_candidate_ils",
    "rank_candidates",
    "check_f4_coverage",
    "check_i1_physical_connectivity",
    "check_i1_tree",
    "check_i2_cell_radius",
    "check_i2_children",
    "check_i2_inner_six",
    "check_i2_neighbors",
    "check_i3_associate_optimality",
    "check_root_liveness",
    "check_static_fixpoint",
    "check_static_invariant",
    "inner_head_ids",
    "MultiBigSimulation",
    "RegionAssignment",
    "partition_by_big",
    "root_rank",
    "Gs3Runtime",
    "STRUCTURE_CHANGE_CATEGORIES",
    "Gs3Simulation",
    "StabilityReport",
    "NodeView",
    "StructureSnapshot",
    "take_snapshot",
    "NeighborInfo",
    "NodeStatus",
    "ProtocolState",
]
