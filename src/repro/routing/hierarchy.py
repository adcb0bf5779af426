"""Hierarchical routing over the GS3 structure.

The paper's abstract positions GS3 as "a stable communication
infrastructure for other services, such as routing".  This module
implements the canonical such service: cell-by-cell geographic routing
over the head graph, using **only the local state GS3 already
maintains** at each node —

* an associate knows its head;
* a head knows its neighbouring heads (positions and ILs), its parent,
  and its own associates (positions).

``route()`` walks a packet hop by hop with the data plane's own
per-hop decider, :class:`~repro.routing.hybrid.CellRouter`:

1. a node within radio reach of the destination hands the packet over
   directly; otherwise an associate passes it to its cell head;
2. each head delivers to its own associate, or forwards greedily to
   the neighbouring head whose IL is closest to the destination; when
   greedy progress stalls (a structural hole), the packet escalates to
   the parent, else to the best unvisited neighbour — the hierarchy
   guarantees eventual progress because the root's subtree spans every
   cell;
3. a node with no usable next hop fails the route: the data plane
   would hold the packet while the structure heals, but an offline
   walk over a quiescent runtime has nothing to wait for.

No global state, no routing tables beyond GS3's own neighbourhood
knowledge.  ``route()`` reports hop-by-hop metadata so benchmarks can
measure stretch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.runtime import Gs3Runtime
from ..net import NodeId
from .hybrid import WAIT, CellRouter

__all__ = ["Route", "HierarchicalRouter"]


@dataclass(frozen=True)
class Route:
    """The outcome of one routing attempt."""

    source: NodeId
    destination: NodeId
    #: Node ids visited, source first, destination last (on success).
    path: Tuple[NodeId, ...]
    delivered: bool
    #: Why the route failed (``None`` on success).
    failure: Optional[str] = None

    @property
    def hop_count(self) -> int:
        """Number of radio hops taken."""
        return max(0, len(self.path) - 1)

    def geographic_length(self, runtime: Gs3Runtime) -> float:
        """Total geographic distance travelled along the path."""
        total = 0.0
        for a, b in zip(self.path, self.path[1:]):
            total += runtime.network.node(a).position.distance_to(
                runtime.network.node(b).position
            )
        return total

    def stretch(self, runtime: Gs3Runtime) -> float:
        """Geographic length over the straight-line distance."""
        direct = runtime.network.node(self.source).position.distance_to(
            runtime.network.node(self.destination).position
        )
        if direct == 0.0:
            return 1.0
        return self.geographic_length(runtime) / direct


class HierarchicalRouter:
    """Routes packets over a configured GS3 structure.

    A route takes at most ``max_hops`` radio hops.
    """

    def __init__(self, runtime: Gs3Runtime, max_hops: int = 200):
        self.runtime = runtime
        self.max_hops = max_hops
        self._decider = CellRouter(runtime)

    def route(self, source: NodeId, destination: NodeId) -> Route:
        """Walk a packet from ``source`` to ``destination``, one
        :meth:`CellRouter.decide` per hop."""
        if source == destination:
            return Route(source, destination, (source,), True)
        dst = self.runtime.nodes.get(destination)
        if dst is None or not dst.alive:
            return Route(
                source, destination, (source,), False, "destination dead"
            )
        src = self.runtime.nodes.get(source)
        if src is None or not src.alive:
            return Route(source, destination, (source,), False, "source dead")
        path: List[NodeId] = [source]
        visited = {source}
        while len(path) <= self.max_hops:
            current = path[-1]
            action, hop = self._decider.decide(
                current, destination, dst.position, visited
            )
            if action == WAIT:
                return Route(
                    source,
                    destination,
                    tuple(path),
                    False,
                    f"stuck at node {current}",
                )
            path.append(hop)
            if hop == destination:
                return Route(source, destination, tuple(path), True)
            visited.add(hop)
        return Route(
            source, destination, tuple(path), False, "hop limit exceeded"
        )

    def evaluate(
        self, pairs: List[Tuple[NodeId, NodeId]]
    ) -> Tuple[float, List[Route]]:
        """Route many pairs; returns (delivery rate, routes)."""
        routes = [self.route(s, d) for s, d in pairs]
        if not routes:
            return (0.0, [])
        delivered = sum(1 for r in routes if r.delivered)
        return (delivered / len(routes), routes)
