"""The physical network and its spatial index.

``Network`` owns the population of :class:`~repro.net.node.PhysicalNode`
objects and answers the geometric queries the protocols need — "which
live nodes are within distance d of this point?" — in (amortised)
constant time per result via a uniform grid hash.  It also exposes the
paper's physical graph ``G_p`` (nodes joined when within mutual
transmission range) for connectivity checks used by requirement (c)
and invariant I1.

``G_p`` queries are cached behind a *topology version*: a monotonic
counter bumped by every mutation (:meth:`~Network.add_node`,
:meth:`~Network.remove_node`, :meth:`~Network.kill_node`,
:meth:`~Network.revive_node`, :meth:`~Network.move_node`).  The
adjacency map, connected components, and broadcast-candidate lists are
built lazily and reused until the version changes, so hot consumers
(invariant checks, baselines, the radio) pay for each graph
construction once per topology epoch instead of once per query.

Scale architecture
------------------
Node positions, ranges, and liveness are mirrored into flat numpy
arrays (one row per node, rows recycled through a free list) so the
hot geometric kernels — :meth:`~Network.nodes_within` and the full
``G_p`` adjacency build — run as array slices instead of per-object
attribute hops.  ``PhysicalNode`` objects remain the public API; the
arrays are an acceleration mirror kept consistent by the mutators
(which are the only write path for indexed nodes).  All query results
are returned in **canonical node-id order**, which also removes the
grid-bucket iteration order as a source of tie-break nondeterminism.

The float arithmetic matches the scalar path bit-for-bit: distance
squares use the same ``dx*dx + dy*dy`` expression as
``Vec2.distance_sq_to`` and mutual-range checks use ``np.hypot``
(same correctly-rounded C ``hypot`` as ``math.hypot``), so the
vectorized and object-graph paths are interchangeable — a property
pinned by the differential suites in ``tests/net``.
"""

from __future__ import annotations

import math
from collections import deque
from types import MappingProxyType
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from ..geometry import Vec2
from .node import NodeId, PhysicalNode

__all__ = ["Network"]

_GridKey = Tuple[int, int]

#: Linearization stride for (kx, ky) grid keys: unique while |ky| < 2^31.
_KEY_STRIDE = 1 << 32


class Network:
    """Population of nodes plus a uniform-grid spatial index.

    Args:
        cell_size: grid bin edge length for the spatial index.  Choose
            on the order of the typical query radius (the protocol's
            ``sqrt(3)*R + 2*R_t``); correctness does not depend on it.
    """

    def __init__(self, cell_size: float = 100.0):
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        self._cell_size = cell_size
        self._nodes: Dict[NodeId, PhysicalNode] = {}
        self._grid: Dict[_GridKey, Set[NodeId]] = {}
        self._big_id: Optional[NodeId] = None
        self._next_id: NodeId = 0
        # Topology-version cache state.  Each cache records the version
        # it was built at and is discarded lazily when the version has
        # moved on; mutations only bump the counter, so bursts of
        # churn between queries cost nothing extra.
        self._version: int = 0
        self._adjacency: Dict[NodeId, Tuple[NodeId, ...]] = {}
        self._adjacency_version: int = -1
        self._components: Dict[NodeId, FrozenSet[NodeId]] = {}
        self._components_version: int = -1
        self._reach_cache: Dict[Tuple[NodeId, float], Tuple[NodeId, ...]] = {}
        self._reach_version: int = -1
        # Array mirror: row-indexed coordinate/range/liveness columns.
        # ``_rows`` maps id -> row; ``_row_ids`` maps row -> id (-1 when
        # the row is on the free list).  Buckets cache an ndarray of
        # their member rows, invalidated per-bucket on membership
        # change (kill/revive touch only the liveness column, so the
        # cached row arrays survive pure up/down churn).
        self._xs = np.empty(0, dtype=np.float64)
        self._ys = np.empty(0, dtype=np.float64)
        self._ranges = np.empty(0, dtype=np.float64)
        self._alive_arr = np.empty(0, dtype=np.bool_)
        self._row_ids = np.empty(0, dtype=np.int64)
        self._rows: Dict[NodeId, int] = {}
        self._free_rows: List[int] = []
        self._bucket_rows: Dict[_GridKey, np.ndarray] = {}

    # -- topology version ---------------------------------------------------

    @property
    def topology_version(self) -> int:
        """Monotonic counter of topology mutations.

        Bumped by every add/remove/kill/revive/move that actually
        changes the physical graph.  Equal versions guarantee identical
        ``G_p``; consumers may key their own caches on it.
        """
        return self._version

    def invalidate_caches(self) -> None:
        """Force-discard all version caches (as if the topology changed).

        Normal mutations invalidate automatically; this exists for
        benchmarks and tests that need to measure or exercise the
        uncached construction path.
        """
        self._version += 1

    # -- array mirror -------------------------------------------------------

    def _alloc_row(self, node: PhysicalNode) -> int:
        if self._free_rows:
            row = self._free_rows.pop()
        else:
            row = len(self._rows)
            if row >= self._xs.shape[0]:
                self._grow_arrays(row + 1)
        self._xs[row] = node.position.x
        self._ys[row] = node.position.y
        self._ranges[row] = node.max_range
        self._alive_arr[row] = node.alive
        self._row_ids[row] = node.node_id
        self._rows[node.node_id] = row
        return row

    def _grow_arrays(self, needed: int) -> None:
        capacity = max(64, 2 * self._xs.shape[0])
        while capacity < needed:
            capacity *= 2
        for name in ("_xs", "_ys", "_ranges", "_alive_arr", "_row_ids"):
            old = getattr(self, name)
            fresh = np.empty(capacity, dtype=old.dtype)
            fresh[: old.shape[0]] = old
            setattr(self, name, fresh)

    def _free_row(self, node_id: NodeId) -> None:
        row = self._rows.pop(node_id)
        self._row_ids[row] = -1
        self._free_rows.append(row)

    def _bucket_row_array(self, key: _GridKey) -> Optional[np.ndarray]:
        arr = self._bucket_rows.get(key)
        if arr is None:
            bucket = self._grid.get(key)
            if not bucket:
                return None
            arr = np.fromiter(
                (self._rows[node_id] for node_id in bucket),
                dtype=np.int64,
                count=len(bucket),
            )
            self._bucket_rows[key] = arr
        return arr

    # -- population -------------------------------------------------------

    def add_node(
        self,
        position: Vec2,
        max_range: float,
        is_big: bool = False,
        node_id: Optional[NodeId] = None,
    ) -> PhysicalNode:
        """Create and index a node; returns it."""
        if node_id is None:
            node_id = self._next_id
        if node_id in self._nodes:
            raise ValueError(f"duplicate node id {node_id}")
        self._next_id = max(self._next_id, node_id + 1)
        node = PhysicalNode(node_id, position, max_range, is_big=is_big)
        self._nodes[node_id] = node
        key = self._key(position)
        self._grid.setdefault(key, set()).add(node_id)
        self._bucket_rows.pop(key, None)
        self._alloc_row(node)
        if is_big:
            if self._big_id is not None:
                raise ValueError("network already has a big node")
            self._big_id = node_id
        self._version += 1
        return node

    def add_nodes(
        self, positions: Sequence[Vec2], max_range: float
    ) -> List[PhysicalNode]:
        """Bulk-add small nodes with sequential ids (one version bump).

        The deployment fast path: columns are filled with array slices
        and the version moves once, so materialising a 100k-node
        network costs O(N) straight-line work instead of N cache
        invalidations.
        """
        n = len(positions)
        if n == 0:
            return []
        first_id = self._next_id
        nodes: List[PhysicalNode] = []
        # Bulk path never reuses freed rows; reserve a contiguous block.
        start_row = len(self._rows) + len(self._free_rows)
        self._grow_arrays(start_row + n)
        for offset, position in enumerate(positions):
            node_id = first_id + offset
            node = PhysicalNode(node_id, position, max_range)
            self._nodes[node_id] = node
            nodes.append(node)
            key = self._key(position)
            self._grid.setdefault(key, set()).add(node_id)
            self._bucket_rows.pop(key, None)
            row = start_row + offset
            self._rows[node_id] = row
            self._row_ids[row] = node_id
        self._xs[start_row : start_row + n] = [p.x for p in positions]
        self._ys[start_row : start_row + n] = [p.y for p in positions]
        self._ranges[start_row : start_row + n] = max_range
        self._alive_arr[start_row : start_row + n] = True
        self._next_id = first_id + n
        self._version += 1
        return nodes

    def remove_node(self, node_id: NodeId) -> None:
        """Remove a node entirely (a permanent *leave*)."""
        node = self._nodes.pop(node_id)
        self._discard_from_grid(node_id, self._key(node.position))
        self._free_row(node_id)
        if self._big_id == node_id:
            self._big_id = None
        self._version += 1

    def kill_node(self, node_id: NodeId) -> None:
        """Mark a node dead but keep it for post-mortem analysis."""
        node = self._nodes[node_id]
        if node.alive:
            node.alive = False
            self._alive_arr[self._rows[node_id]] = False
            self._version += 1

    def revive_node(self, node_id: NodeId) -> None:
        """Mark a previously dead node alive again (a re-*join*)."""
        node = self._nodes[node_id]
        if not node.alive:
            node.alive = True
            self._alive_arr[self._rows[node_id]] = True
            self._version += 1

    def move_node(self, node_id: NodeId, new_position: Vec2) -> None:
        """Relocate a node, keeping the spatial index consistent."""
        node = self._nodes[node_id]
        if node.position == new_position:
            return
        old_key = self._key(node.position)
        new_key = self._key(new_position)
        if old_key != new_key:
            self._discard_from_grid(node_id, old_key)
            self._grid.setdefault(new_key, set()).add(node_id)
            self._bucket_rows.pop(new_key, None)
        node.position = new_position
        row = self._rows[node_id]
        self._xs[row] = new_position.x
        self._ys[row] = new_position.y
        self._version += 1

    def _discard_from_grid(self, node_id: NodeId, key: _GridKey) -> None:
        """Drop a node from a grid bucket, pruning the bucket if emptied.

        Without the prune, churn and mobility workloads leave a trail
        of empty ``set()`` buckets in ``_grid`` and memory grows without
        bound over long runs.
        """
        bucket = self._grid.get(key)
        if bucket is None:
            return
        bucket.discard(node_id)
        self._bucket_rows.pop(key, None)
        if not bucket:
            del self._grid[key]

    # -- access -------------------------------------------------------------

    def node(self, node_id: NodeId) -> PhysicalNode:
        """The node with the given id (KeyError if absent)."""
        return self._nodes[node_id]

    def get(self, node_id: NodeId) -> Optional[PhysicalNode]:
        """The node with the given id, or ``None`` if absent: one
        lookup where ``has_node`` then ``node`` take two."""
        return self._nodes.get(node_id)

    def has_node(self, node_id: NodeId) -> bool:
        """Whether a node with this id exists."""
        return node_id in self._nodes

    @property
    def big_node(self) -> PhysicalNode:
        """The network's big node.

        Raises:
            LookupError: if no big node exists.
        """
        if self._big_id is None:
            raise LookupError("network has no big node")
        return self._nodes[self._big_id]

    @property
    def big_id(self) -> Optional[NodeId]:
        """Id of the big node, or ``None``."""
        return self._big_id

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[PhysicalNode]:
        return iter(self._nodes.values())

    def node_ids(self) -> List[NodeId]:
        """All node ids (alive or not), sorted."""
        return sorted(self._nodes)

    def alive_nodes(self) -> Iterator[PhysicalNode]:
        """All live nodes."""
        return (n for n in self._nodes.values() if n.alive)

    def alive_count(self) -> int:
        """Number of live nodes."""
        return sum(1 for _ in self.alive_nodes())

    @property
    def grid_bucket_count(self) -> int:
        """Number of occupied spatial-index buckets.

        Bounded by the number of nodes: emptied buckets are pruned, so
        churn/mobility workloads do not leak index memory.
        """
        return len(self._grid)

    # -- spatial queries -----------------------------------------------------

    def nodes_within(
        self,
        center: Vec2,
        radius: float,
        alive_only: bool = True,
    ) -> List[PhysicalNode]:
        """All nodes within ``radius`` of ``center`` (inclusive).

        Results are in canonical node-id order.
        """
        rows = self._candidate_rows(center, radius)
        if rows is None:
            return []
        dx = self._xs[rows] - center.x
        dy = self._ys[rows] - center.y
        mask = dx * dx + dy * dy <= radius * radius + 1e-9
        if alive_only:
            mask &= self._alive_arr[rows]
        selected = self._row_ids[rows[mask]]
        selected.sort()
        nodes = self._nodes
        return [nodes[node_id] for node_id in selected.tolist()]

    def nearest_node(
        self,
        center: Vec2,
        max_radius: float,
        alive_only: bool = True,
        exclude: Iterable[NodeId] = (),
    ) -> Optional[PhysicalNode]:
        """The node nearest ``center`` within ``max_radius``, or None.

        Exact-distance ties break toward the smaller node id — never
        by grid-bucket iteration order, which would be a replay/bisect
        determinism hazard.
        """
        excluded = set(exclude)
        best: Optional[PhysicalNode] = None
        best_key = (math.inf, math.inf)
        for node in self.nodes_within(center, max_radius, alive_only):
            if node.node_id in excluded:
                continue
            key = (node.position.distance_sq_to(center), node.node_id)
            if key < best_key:
                best = node
                best_key = key
        return best

    def _key(self, position: Vec2) -> _GridKey:
        return (
            int(math.floor(position.x / self._cell_size)),
            int(math.floor(position.y / self._cell_size)),
        )

    def _candidate_rows(
        self, center: Vec2, radius: float
    ) -> Optional[np.ndarray]:
        """Rows of every node in a grid bucket overlapping the query disk.

        The scan bounds use the *padded* radius ``sqrt(r^2 + 1e-9)`` so
        they cover exactly the accept predicate ``d^2 <= r^2 + 1e-9``:
        with the raw radius, a node passing on the epsilon slack could
        sit in a bucket one past the scan window and be silently
        dropped.  (The extra relative pad absorbs division rounding.)
        """
        pad = math.sqrt(radius * radius + 1e-9) * (1.0 + 1e-12)
        k_min_x = int(math.floor((center.x - pad) / self._cell_size))
        k_max_x = int(math.floor((center.x + pad) / self._cell_size))
        k_min_y = int(math.floor((center.y - pad) / self._cell_size))
        k_max_y = int(math.floor((center.y + pad) / self._cell_size))
        chunks: List[np.ndarray] = []
        for kx in range(k_min_x, k_max_x + 1):
            for ky in range(k_min_y, k_max_y + 1):
                arr = self._bucket_row_array((kx, ky))
                if arr is not None:
                    chunks.append(arr)
        if not chunks:
            return None
        if len(chunks) == 1:
            return chunks[0]
        return np.concatenate(chunks)

    # -- the physical graph G_p ------------------------------------------------

    def adjacency(self) -> Mapping[NodeId, Tuple[NodeId, ...]]:
        """The full ``G_p`` adjacency map, cached per topology version.

        Maps every node id (alive or not) to the ids of the *live*
        nodes within mutual transmission range, in ascending id order.
        The returned mapping is a read-only view; it stays valid until
        the next topology mutation.
        """
        return MappingProxyType(self._adjacency_map())

    def _adjacency_map(self) -> Dict[NodeId, Tuple[NodeId, ...]]:
        if self._adjacency_version != self._version:
            self._adjacency = self._build_adjacency()
            self._adjacency_version = self._version
        return self._adjacency

    def _build_adjacency(self) -> Dict[NodeId, Tuple[NodeId, ...]]:
        """One batched grid join builds all of ``G_p``.

        Every node pairs against the nine grid buckets covering its
        own cell's neighborhood via a sorted linearized-key join, then
        a single vectorized mutual-range filter keeps the real edges.
        A node's cell neighborhood covers its full range only while
        ``max_range <= cell_size`` — the construction guarantees this
        (``cell_size`` defaults to ``max(max_range, 1.0)``); when a
        caller picks a smaller cell, fall back to per-node queries.
        """
        adjacency: Dict[NodeId, Tuple[NodeId, ...]] = {
            node_id: () for node_id in self._nodes
        }
        n = len(self._rows)
        if n == 0:
            return adjacency
        rows = np.fromiter(
            self._rows.values(), dtype=np.int64, count=n
        )
        if float(np.max(self._ranges[rows])) > self._cell_size:
            return self._build_adjacency_per_node(adjacency)
        xs = self._xs[rows]
        ys = self._ys[rows]
        # Same expression as _key(): bit-identical cell assignment.
        kx = np.floor(xs / self._cell_size).astype(np.int64)
        ky = np.floor(ys / self._cell_size).astype(np.int64)
        keys = kx * _KEY_STRIDE + ky
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        a_parts: List[np.ndarray] = []
        b_parts: List[np.ndarray] = []
        base = np.arange(n, dtype=np.int64)
        for dkx in (-1, 0, 1):
            for dky in (-1, 0, 1):
                target = keys + (dkx * _KEY_STRIDE + dky)
                left = np.searchsorted(sorted_keys, target, side="left")
                right = np.searchsorted(sorted_keys, target, side="right")
                counts = right - left
                total = int(counts.sum())
                if total == 0:
                    continue
                a_idx = np.repeat(base, counts)
                starts = np.cumsum(counts) - counts
                positions = (
                    np.arange(total, dtype=np.int64)
                    - np.repeat(starts, counts)
                    + np.repeat(left, counts)
                )
                a_parts.append(a_idx)
                b_parts.append(order[positions])
        a_all = np.concatenate(a_parts)
        b_all = np.concatenate(b_parts)
        # The mutual-range predicate, exactly as in_mutual_range: the
        # hypot distance must not exceed either endpoint's max_range,
        # and adjacency lists contain live nodes only (a itself may be
        # dead — dead nodes keep their row in the candidate join).
        ra = rows[a_all]
        rb = rows[b_all]
        distance = np.hypot(self._xs[ra] - self._xs[rb], self._ys[ra] - self._ys[rb])
        keep = (
            (a_all != b_all)
            & (distance <= self._ranges[ra])
            & (distance <= self._ranges[rb])
            & self._alive_arr[rb]
        )
        a_ids = self._row_ids[ra[keep]]
        b_ids = self._row_ids[rb[keep]]
        pair_order = np.lexsort((b_ids, a_ids))
        a_ids = a_ids[pair_order]
        b_ids = b_ids[pair_order]
        if a_ids.shape[0]:
            boundaries = np.nonzero(np.diff(a_ids))[0] + 1
            neighbor_runs = np.split(b_ids, boundaries)
            run_owners = a_ids[np.concatenate(([0], boundaries))]
            for owner, run in zip(run_owners.tolist(), neighbor_runs):
                adjacency[owner] = tuple(run.tolist())
        return adjacency

    def _build_adjacency_per_node(
        self, adjacency: Dict[NodeId, Tuple[NodeId, ...]]
    ) -> Dict[NodeId, Tuple[NodeId, ...]]:
        for node in self._nodes.values():
            adjacency[node.node_id] = tuple(
                other.node_id
                for other in self.nodes_within(node.position, node.max_range)
                if other.node_id != node.node_id
                and node.in_mutual_range(other)
            )
        return adjacency

    def physical_neighbors(self, node_id: NodeId) -> List[PhysicalNode]:
        """Live nodes within mutual transmission range of ``node_id``."""
        if node_id not in self._nodes:
            raise KeyError(node_id)
        return [
            self._nodes[other_id]
            for other_id in self._adjacency_map()[node_id]
        ]

    def connected_to(
        self, source_id: NodeId, use_cache: bool = True
    ) -> FrozenSet[NodeId]:
        """Ids of live nodes connected to ``source_id`` in ``G_p``.

        Breadth-first search over mutual-range links; includes the
        source itself.  This realises the paper's *visible node*
        notion: a node is visible iff it is connected to the big node.

        The result is memoized per ``(component, topology_version)``:
        one BFS answers the query for every member of the component
        until the topology next changes.  ``use_cache=False`` forces a
        fresh BFS over direct spatial queries (the pre-cache code
        path, kept for benchmarks and consistency tests).
        """
        source = self._nodes[source_id]
        if not source.alive:
            return frozenset()
        if not use_cache:
            return frozenset(self._bfs_uncached(source_id))
        if self._components_version != self._version:
            self._components = {}
            self._components_version = self._version
        component = self._components.get(source_id)
        if component is None:
            adjacency = self._adjacency_map()
            seen: Set[NodeId] = {source_id}
            frontier = deque([source_id])
            while frontier:
                current = frontier.popleft()
                for neighbor_id in adjacency[current]:
                    if neighbor_id not in seen:
                        seen.add(neighbor_id)
                        frontier.append(neighbor_id)
            component = frozenset(seen)
            # Mutual-range links are symmetric, so every member shares
            # the component: one BFS primes the cache for all of them.
            for member_id in component:
                self._components[member_id] = component
        return component

    def _bfs_uncached(self, source_id: NodeId) -> Set[NodeId]:
        seen: Set[NodeId] = {source_id}
        frontier = deque([source_id])
        while frontier:
            current = frontier.popleft()
            node = self._nodes[current]
            for other in self.nodes_within(node.position, node.max_range):
                if (
                    other.node_id not in seen
                    and other.node_id != current
                    and node.in_mutual_range(other)
                ):
                    seen.add(other.node_id)
                    frontier.append(other.node_id)
        return seen

    def is_connected_to_big(self, node_id: NodeId) -> bool:
        """Whether a node is connected to the big node in ``G_p``."""
        if self._big_id is None:
            return False
        return node_id in self.connected_to(self._big_id)

    def broadcast_candidates(
        self, sender_id: NodeId, tx_range: float
    ) -> List[PhysicalNode]:
        """Live nodes a transmission from ``sender_id`` at ``tx_range``
        can reach (one-directional; excludes the sender).

        Unlike :meth:`physical_neighbors` this does not require the
        link to work in both directions — broadcast reception only
        needs the receiver inside the sender's range.  Candidate id
        lists are cached per ``(sender, range)`` within a topology
        version, which makes periodic heartbeat broadcasts at a fixed
        range O(result) instead of a fresh grid scan each time.
        """
        sender = self._nodes[sender_id]
        if self._reach_version != self._version:
            self._reach_cache = {}
            self._reach_version = self._version
        key = (sender_id, tx_range)
        candidate_ids = self._reach_cache.get(key)
        if candidate_ids is None:
            candidate_ids = tuple(
                other.node_id
                for other in self.nodes_within(sender.position, tx_range)
                if other.node_id != sender_id
            )
            self._reach_cache[key] = candidate_ids
        return [self._nodes[other_id] for other_id in candidate_ids]
