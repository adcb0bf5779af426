"""Per-hop data-plane routers over the GS3 structure.

The traffic engine (:mod:`repro.traffic`) needs *single-hop decisions*
made at the node currently holding a packet, using only knowledge that
node actually has — because by the time the packet arrives, the
structure may have healed, heads may have died, and the original path
may no longer exist.  :class:`~repro.routing.hierarchy.HierarchicalRouter`
walks the same decisions offline against a quiescent runtime.

Two deciders share one interface, ``decide(node_id, dst, dst_pos,
visited) -> (action, next_hop)``; ``visited`` is any container of the
node ids already on this routing attempt (the plane passes its frame's
tuple), and deciders only test membership:

* :class:`CellRouter` — the paper's cell-by-cell geographic routing:
  associate → head, then greedy over neighbouring heads' ILs (ties
  broken by ``(distance, node_id)``), parent escalation when greedy
  stalls, perimeter fallback.  ``HierarchicalRouter.route()`` walks
  it hop by hop.
* :class:`HybridRouter` — mesh-first, tree-fallback (the EE662 idiom):
  deliver directly when the destination is within radio reach, else
  greedy by *actual position* over the neighbour tables GS3 already
  maintains (neighbouring heads), falling back to the parent link when
  the mesh stalls.  No state beyond GS3's own tables.

Shard-safety contract: deciders may consult ``runtime.nodes`` only for
the *current* node (always owned locally) and ``runtime.network`` only
for nodes appearing in the current node's protocol tables — those were
learned over the radio, hence lie within ``max_range`` and are mirrored
into the owning stripe at every shard count.  Never branch on
``network.has_node`` for an arbitrary far-away node: mirror presence of
out-of-range nodes depends on the shard count.
"""

from __future__ import annotations

from typing import Container, Dict, Optional, Tuple, Type

from ..core.runtime import Gs3Runtime
from ..core.state import NodeStatus
from ..geometry import Vec2
from ..net import NodeId, PhysicalNode

__all__ = ["CellRouter", "HybridRouter", "DATA_ROUTERS"]

#: Minimum geometric progress required to count a hop as "closer".
_EPS = 1e-9

#: decide() actions: forward to the returned node now, or hold the
#: packet and retry after the plane's backoff (structure mid-heal).
FORWARD = "forward"
WAIT = "wait"


class _DeciderBase:
    """Shared helpers for per-hop deciders."""

    kind = "base"

    def __init__(self, runtime: Gs3Runtime):
        self.runtime = runtime
        self._network = runtime.network

    # -- local-knowledge predicates ----------------------------------

    def _usable(self, me: PhysicalNode, target: NodeId) -> bool:
        """Is ``target`` (a table entry of ``me``) a live next hop?

        ``target`` came out of a protocol table, so it was within radio
        reach when learned; static nodes stay mirrored wherever ``me``
        is simulated, making liveness/reachability checks
        shard-invariant.  One node lookup: ``me`` is the deciding
        node, already looked up.
        """
        dest = self._network.get(target)
        if dest is None or target == me.node_id or not dest.alive:
            return False
        return me.can_reach(dest.position)

    def _state(self, node_id: NodeId):
        node = self.runtime.nodes.get(node_id)
        if node is None or not node.alive:
            return None
        return node.state

    # -- interface ----------------------------------------------------

    def decide(
        self,
        node_id: NodeId,
        dst: NodeId,
        dst_pos: Vec2,
        visited: Container[NodeId],
    ) -> Tuple[str, Optional[NodeId]]:
        raise NotImplementedError


class CellRouter(_DeciderBase):
    """Cell-by-cell greedy-over-ILs with parent escalation (GS3 native)."""

    kind = "cell"

    def decide(
        self,
        node_id: NodeId,
        dst: NodeId,
        dst_pos: Vec2,
        visited: Container[NodeId],
    ) -> Tuple[str, Optional[NodeId]]:
        # Direct final hop: the destination's advertised position lies
        # within this node's radio reach, so hand the frame over rather
        # than detouring through head tables — this is also what rescues
        # destinations no head accounts for (the slid big node is an
        # associate of a head whose IL other cells cannot see behind,
        # and BOOTUP stragglers have no head at all).  The geometric
        # test comes first: only nodes within max_range are guaranteed
        # mirrored locally at every shard count.
        me = self._network.node(node_id)
        if dst != node_id and me.can_reach(dst_pos) and self._usable(me, dst):
            return (FORWARD, dst)

        state = self._state(node_id)
        if state is None:
            return (WAIT, None)
        status = state.status
        if status is NodeStatus.ASSOCIATE:
            head = state.head_id
            if head is not None and self._usable(me, head):
                return (FORWARD, head)
            return (WAIT, None)  # orphaned mid-heal; hold and retry
        if not status.is_head_like:
            return (WAIT, None)  # BOOTUP / re-deciding

        # Final hop: the destination is one of this head's associates.
        if dst in state.associate_positions and self._usable(me, dst):
            return (FORWARD, dst)

        own_il = state.current_il
        own_distance = (
            own_il.distance_to(dst_pos) if own_il is not None else float("inf")
        )
        best: Optional[Tuple[float, NodeId]] = None
        for info in state.neighbor_heads.values():
            neighbor_id = info.node_id
            if neighbor_id in visited or not self._usable(me, neighbor_id):
                continue
            distance = info.il.distance_to(dst_pos)
            # Deterministic tie-break on equidistant ILs: (distance, id).
            if best is None or (distance, neighbor_id) < best:
                best = (distance, neighbor_id)
        if best is not None and best[0] < own_distance - _EPS:
            return (FORWARD, best[1])

        # Greedy stalled — escalate to the parent head.
        parent = state.parent_id
        if (
            parent is not None
            and parent != node_id
            and parent not in visited
            and self._usable(me, parent)
        ):
            return (FORWARD, parent)

        # Perimeter fallback: best non-improving unvisited neighbour.
        if best is not None:
            return (FORWARD, best[1])
        return (WAIT, None)


class HybridRouter(_DeciderBase):
    """Mesh-first position-greedy forwarding, tree fallback on stall.

    Built *only* from GS3's own tables: an associate knows its head; a
    head knows its neighbouring heads (true positions, via
    ``NeighborInfo.position``), its own associates' positions, and its
    parent.  The mesh step forwards to the table entry strictly closest
    to the destination's actual position (ties by ``(distance, id)``);
    a direct final hop fires whenever the destination itself is within
    radio reach.  When the mesh stalls, the packet climbs the head tree
    like :class:`CellRouter` does.
    """

    kind = "hybrid"

    def decide(
        self,
        node_id: NodeId,
        dst: NodeId,
        dst_pos: Vec2,
        visited: Container[NodeId],
    ) -> Tuple[str, Optional[NodeId]]:
        me = self._network.node(node_id)

        # Mesh final hop: destination within direct radio reach.  The
        # geometric test comes first — only nodes within max_range are
        # guaranteed mirrored locally at every shard count.
        if dst != node_id and me.can_reach(dst_pos) and self._usable(me, dst):
            return (FORWARD, dst)

        state = self._state(node_id)
        if state is None:
            return (WAIT, None)
        status = state.status
        if status is NodeStatus.ASSOCIATE:
            head = state.head_id
            if head is not None and self._usable(me, head):
                return (FORWARD, head)
            return (WAIT, None)
        if not status.is_head_like:
            return (WAIT, None)

        if dst in state.associate_positions and self._usable(me, dst):
            return (FORWARD, dst)

        own_distance = me.position.distance_to(dst_pos)
        best: Optional[Tuple[float, NodeId]] = None
        for info in state.neighbor_heads.values():
            neighbor_id = info.node_id
            if neighbor_id in visited or not self._usable(me, neighbor_id):
                continue
            distance = info.position.distance_to(dst_pos)
            if best is None or (distance, neighbor_id) < best:
                best = (distance, neighbor_id)
        # Mesh step: strict geometric progress by actual positions.
        if best is not None and best[0] < own_distance - _EPS:
            return (FORWARD, best[1])

        # Tree fallback: climb toward the root.
        parent = state.parent_id
        if (
            parent is not None
            and parent != node_id
            and parent not in visited
            and self._usable(me, parent)
        ):
            return (FORWARD, parent)
        if best is not None:
            return (FORWARD, best[1])
        return (WAIT, None)


DATA_ROUTERS: Dict[str, Type[_DeciderBase]] = {
    CellRouter.kind: CellRouter,
    HybridRouter.kind: HybridRouter,
}
