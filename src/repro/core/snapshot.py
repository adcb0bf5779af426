"""Immutable snapshots of a protocol run's structure.

A :class:`StructureSnapshot` captures, at one virtual instant, every
node's protocol-visible state: status, cell, head, parent.  The
invariant checkers (``invariants.py``), the analysis package, and the
benchmarks all operate on snapshots, so they share one oracle with the
paper's predicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Set, Tuple

from ..geometry import Axial, HexLattice, IccIcp, Vec2, hex_distance
from ..net import NodeId
from .runtime import Gs3Runtime
from .state import NodeStatus

__all__ = ["NodeView", "StructureSnapshot", "take_snapshot", "node_view"]


@dataclass(frozen=True, slots=True)
class NodeView:
    """One node's protocol-visible state at snapshot time."""

    node_id: NodeId
    position: Vec2
    status: NodeStatus
    alive: bool
    is_big: bool
    cell_axial: Optional[Axial]
    current_il: Optional[Vec2]
    oil: Optional[Vec2]
    icc_icp: IccIcp
    parent_id: Optional[NodeId]
    hops_to_root: int
    head_id: Optional[NodeId]
    is_candidate: bool
    #: Root epoch the node's tree path serves (0 = none heard yet).
    root_epoch: int = 0
    #: Virtual time the node's path last carried a live root stamp.
    root_heard_at: Optional[float] = None

    @property
    def is_head(self) -> bool:
        """Whether the node acts as a cell head."""
        return self.alive and self.status.is_head_like


@dataclass(frozen=True)
class StructureSnapshot:
    """The full structure of a run at one instant."""

    time: float
    ideal_radius: float
    radius_tolerance: float
    lattice: HexLattice
    big_id: Optional[NodeId]
    views: Dict[NodeId, NodeView]

    # -- node classes -----------------------------------------------------

    @cached_property
    def heads(self) -> Dict[NodeId, NodeView]:
        """All live heads, keyed by node id."""
        return {v.node_id: v for v in self.views.values() if v.is_head}

    @cached_property
    def associates(self) -> Dict[NodeId, NodeView]:
        """All live associates, keyed by node id."""
        return {
            v.node_id: v
            for v in self.views.values()
            if v.alive and v.status is NodeStatus.ASSOCIATE
        }

    @cached_property
    def bootup_ids(self) -> Set[NodeId]:
        """Live nodes still (or again) in *bootup*."""
        return {
            v.node_id
            for v in self.views.values()
            if v.alive and v.status is NodeStatus.BOOTUP
        }

    # -- cells ----------------------------------------------------------------

    @cached_property
    def cells(self) -> Dict[NodeId, List[NodeId]]:
        """Associate ids per head id (empty list for lone heads)."""
        result: Dict[NodeId, List[NodeId]] = {h: [] for h in self.heads}
        for view in self.associates.values():
            if view.head_id in result:
                result[view.head_id].append(view.node_id)
        return result

    @cached_property
    def head_by_axial(self) -> Dict[Axial, NodeView]:
        """Heads keyed by their cell's axial address."""
        result: Dict[Axial, NodeView] = {}
        for view in self.heads.values():
            if view.cell_axial is not None:
                result[view.cell_axial] = view
        return result

    def cell_radius_of(self, head_id: NodeId) -> float:
        """Max distance from a head to any of its associates."""
        head = self.heads[head_id]
        members = self.cells.get(head_id, [])
        if not members:
            return 0.0
        return max(
            head.position.distance_to(self.views[m].position) for m in members
        )

    # -- the head graph G_h -------------------------------------------------------

    @cached_property
    def head_graph_edges(self) -> List[Tuple[NodeId, NodeId]]:
        """``(parent, child)`` edges from the heads' parent pointers."""
        edges = []
        for view in self.heads.values():
            if view.parent_id is not None and view.parent_id != view.node_id:
                edges.append((view.parent_id, view.node_id))
        return edges

    @cached_property
    def children_of(self) -> Dict[NodeId, List[NodeId]]:
        """Children per head, derived from parent pointers."""
        result: Dict[NodeId, List[NodeId]] = {h: [] for h in self.heads}
        for parent, child in self.head_graph_edges:
            if parent in result:
                result[parent].append(child)
        return result

    @cached_property
    def roots(self) -> List[NodeId]:
        """Heads whose parent is themselves (tree roots)."""
        return [
            v.node_id
            for v in self.heads.values()
            if v.parent_id == v.node_id
        ]

    # -- neighbourhood (the head neighbouring graph G_hn) ----------------------------

    @cached_property
    def neighbor_head_pairs(self) -> List[Tuple[NodeView, NodeView]]:
        """Unordered pairs of heads in adjacent cells (each pair once)."""
        pairs = []
        for axial, view in self.head_by_axial.items():
            for neighbor_axial in self.lattice.neighbors(axial):
                if neighbor_axial <= axial:
                    continue  # count each unordered pair once
                other = self.head_by_axial.get(neighbor_axial)
                if other is not None:
                    pairs.append((view, other))
        return pairs

    def neighbor_heads_of(self, head_id: NodeId) -> List[NodeView]:
        """Heads in the six cells adjacent to the given head's cell."""
        view = self.heads[head_id]
        if view.cell_axial is None:
            return []
        result = []
        for neighbor_axial in self.lattice.neighbors(view.cell_axial):
            neighbor = self.head_by_axial.get(neighbor_axial)
            if neighbor is not None:
                result.append(neighbor)
        return result

    # -- misc ------------------------------------------------------------------------

    def head_positions(self) -> List[Vec2]:
        """Positions of all heads (plotting helper)."""
        return [v.position for v in self.heads.values()]

    def member_count(self) -> int:
        """Number of live nodes that belong to some cell."""
        return len(self.heads) + sum(
            1 for v in self.associates.values() if v.head_id in self.heads
        )


def node_view(runtime: Gs3Runtime, node_id: NodeId) -> NodeView:
    """One node's current view — the per-node unit of take_snapshot.

    Exposed so a shard worker answers a snapshot query with the views
    of the nodes it runs, built exactly as :func:`take_snapshot`
    builds them.
    """
    node = runtime.nodes[node_id]
    in_network = runtime.network.has_node(node_id)
    alive = in_network and runtime.network.node(node_id).alive
    position = (
        runtime.network.node(node_id).position
        if in_network
        else Vec2(0.0, 0.0)
    )
    state = node.state
    return NodeView(
        node_id=node_id,
        position=position,
        status=state.status,
        alive=alive,
        is_big=in_network and runtime.network.node(node_id).is_big,
        cell_axial=state.cell_axial,
        current_il=state.current_il,
        oil=state.oil,
        icc_icp=state.icc_icp,
        parent_id=state.parent_id,
        hops_to_root=state.hops_to_root,
        head_id=state.head_id,
        is_candidate=state.is_candidate,
        root_epoch=state.root_epoch,
        root_heard_at=state.root_heard_at,
    )


def take_snapshot(runtime: Gs3Runtime) -> StructureSnapshot:
    """Capture the current structure of a protocol run."""
    views: Dict[NodeId, NodeView] = {
        node_id: node_view(runtime, node_id) for node_id in runtime.nodes
    }
    return StructureSnapshot(
        time=runtime.sim.now,
        ideal_radius=runtime.config.ideal_radius,
        radius_tolerance=runtime.config.radius_tolerance,
        lattice=runtime.lattice,
        big_id=runtime.network.big_id,
        views=views,
    )
