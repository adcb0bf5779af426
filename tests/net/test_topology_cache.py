"""Topology-version cache: consistency, invalidation, and index hygiene.

The `Network` caches the ``G_p`` adjacency map, connected components,
and broadcast-candidate lists behind a topology version counter.  These
tests pin down two things: the caches always agree with brute-force
recomputation (under arbitrary churn), and mutation actually
invalidates them.
"""

from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry import Vec2
from repro.net import Network


def brute_neighbors(net, node_id):
    """Reference implementation of physical_neighbors, no index/cache."""
    node = net.node(node_id)
    return {
        other.node_id
        for other in net
        if other.alive
        and other.node_id != node_id
        and node.in_mutual_range(other)
    }


def brute_connected(net, source_id):
    """Reference implementation of connected_to, no index/cache."""
    if not net.node(source_id).alive:
        return frozenset()
    seen = {source_id}
    frontier = deque([source_id])
    while frontier:
        current = frontier.popleft()
        for neighbor_id in brute_neighbors(net, current):
            if neighbor_id not in seen:
                seen.add(neighbor_id)
                frontier.append(neighbor_id)
    return frozenset(seen)


def assert_caches_consistent(net):
    for node in net:
        nid = node.node_id
        cached = {n.node_id for n in net.physical_neighbors(nid)}
        assert cached == brute_neighbors(net, nid), f"neighbors of {nid}"
        assert net.connected_to(nid) == brute_connected(net, nid), (
            f"component of {nid}"
        )
        assert net.connected_to(nid) == net.connected_to(nid, use_cache=False)


class TestTopologyVersion:
    def test_mutations_bump_version(self):
        net = Network(cell_size=10.0)
        v0 = net.topology_version
        node = net.add_node(Vec2(0, 0), 5.0)
        assert net.topology_version > v0
        v1 = net.topology_version
        net.move_node(node.node_id, Vec2(1, 1))
        assert net.topology_version > v1
        v2 = net.topology_version
        net.kill_node(node.node_id)
        assert net.topology_version > v2
        v3 = net.topology_version
        net.revive_node(node.node_id)
        assert net.topology_version > v3
        v4 = net.topology_version
        net.remove_node(node.node_id)
        assert net.topology_version > v4

    def test_noop_mutations_do_not_bump(self):
        net = Network(cell_size=10.0)
        node = net.add_node(Vec2(0, 0), 5.0)
        v = net.topology_version
        net.revive_node(node.node_id)  # already alive
        assert net.topology_version == v
        net.kill_node(node.node_id)
        v = net.topology_version
        net.kill_node(node.node_id)  # already dead
        assert net.topology_version == v
        net.revive_node(node.node_id)
        v = net.topology_version
        net.move_node(node.node_id, Vec2(0, 0))  # same position
        assert net.topology_version == v

    def test_queries_do_not_bump(self):
        net = Network(cell_size=10.0)
        a = net.add_node(Vec2(0, 0), 5.0)
        net.add_node(Vec2(3, 0), 5.0)
        v = net.topology_version
        net.physical_neighbors(a.node_id)
        net.connected_to(a.node_id)
        net.broadcast_candidates(a.node_id, 5.0)
        net.adjacency()
        assert net.topology_version == v

    def test_invalidate_caches(self):
        net = Network(cell_size=10.0)
        net.add_node(Vec2(0, 0), 5.0)
        v = net.topology_version
        net.invalidate_caches()
        assert net.topology_version > v


class TestCacheInvalidation:
    def test_kill_invalidates_connectivity(self):
        net = Network(cell_size=10.0)
        ids = [net.add_node(Vec2(i * 4.0, 0), 5.0).node_id for i in range(3)]
        assert net.connected_to(ids[0]) == set(ids)
        net.kill_node(ids[1])
        assert net.connected_to(ids[0]) == {ids[0]}
        net.revive_node(ids[1])
        assert net.connected_to(ids[0]) == set(ids)

    def test_move_invalidates_neighbors(self):
        net = Network(cell_size=10.0)
        a = net.add_node(Vec2(0, 0), 5.0)
        b = net.add_node(Vec2(3, 0), 5.0)
        assert [n.node_id for n in net.physical_neighbors(a.node_id)] == [
            b.node_id
        ]
        net.move_node(b.node_id, Vec2(100, 0))
        assert net.physical_neighbors(a.node_id) == []

    def test_add_and_remove_invalidate(self):
        net = Network(cell_size=10.0)
        a = net.add_node(Vec2(0, 0), 5.0)
        assert net.physical_neighbors(a.node_id) == []
        b = net.add_node(Vec2(2, 0), 5.0)
        assert [n.node_id for n in net.physical_neighbors(a.node_id)] == [
            b.node_id
        ]
        net.remove_node(b.node_id)
        assert net.physical_neighbors(a.node_id) == []

    def test_component_memo_shared_across_members(self):
        net = Network(cell_size=10.0)
        ids = [net.add_node(Vec2(i * 4.0, 0), 5.0).node_id for i in range(4)]
        first = net.connected_to(ids[0])
        # Same component object answers queries from every member.
        for nid in ids[1:]:
            assert net.connected_to(nid) is first


class TestBroadcastCandidates:
    def test_one_directional_range(self):
        net = Network(cell_size=10.0)
        a = net.add_node(Vec2(0, 0), 10.0)
        b = net.add_node(Vec2(8, 0), 5.0)  # a reaches b, b cannot reach a
        assert [n.node_id for n in net.broadcast_candidates(a.node_id, 10.0)] \
            == [b.node_id]
        assert net.broadcast_candidates(b.node_id, 5.0) == []
        # Mutual-range neighbours stay empty (regression vs physical_neighbors)
        assert net.physical_neighbors(a.node_id) == []

    def test_cache_invalidated_by_kill(self):
        net = Network(cell_size=10.0)
        a = net.add_node(Vec2(0, 0), 10.0)
        b = net.add_node(Vec2(5, 0), 10.0)
        assert len(net.broadcast_candidates(a.node_id, 10.0)) == 1
        net.kill_node(b.node_id)
        assert net.broadcast_candidates(a.node_id, 10.0) == []

    def test_distinct_ranges_cached_separately(self):
        net = Network(cell_size=10.0)
        a = net.add_node(Vec2(0, 0), 20.0)
        net.add_node(Vec2(5, 0), 20.0)
        net.add_node(Vec2(15, 0), 20.0)
        assert len(net.broadcast_candidates(a.node_id, 10.0)) == 1
        assert len(net.broadcast_candidates(a.node_id, 20.0)) == 2


class TestGridBucketHygiene:
    def test_remove_prunes_empty_buckets(self):
        net = Network(cell_size=10.0)
        node = net.add_node(Vec2(0, 0), 5.0)
        assert net.grid_bucket_count == 1
        net.remove_node(node.node_id)
        assert net.grid_bucket_count == 0

    def test_move_prunes_empty_buckets(self):
        net = Network(cell_size=10.0)
        node = net.add_node(Vec2(0, 0), 5.0)
        for i in range(1, 200):
            net.move_node(node.node_id, Vec2(i * 25.0, 0))
            assert net.grid_bucket_count == 1

    def test_bucket_count_bounded_under_churn(self):
        net = Network(cell_size=10.0)
        for cycle in range(50):
            ids = [
                net.add_node(Vec2(cycle * 100.0 + i * 3.0, 0), 5.0).node_id
                for i in range(10)
            ]
            for nid in ids:
                net.remove_node(nid)
        assert net.grid_bucket_count == 0
        # Mixed join/leave with survivors: bounded by the live population.
        keep = [net.add_node(Vec2(i * 50.0, 0), 5.0).node_id for i in range(5)]
        for cycle in range(50):
            nid = net.add_node(Vec2(-cycle * 70.0, 40.0), 5.0).node_id
            net.remove_node(nid)
        assert net.grid_bucket_count <= len(keep)


coords = st.floats(
    min_value=-200.0, max_value=200.0, allow_nan=False, allow_infinity=False
)
ranges = st.floats(min_value=1.0, max_value=80.0)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), coords, coords, ranges),
        st.tuples(st.just("remove"), st.integers(0, 30)),
        st.tuples(st.just("kill"), st.integers(0, 30)),
        st.tuples(st.just("revive"), st.integers(0, 30)),
        st.tuples(st.just("move"), st.integers(0, 30), coords, coords),
    ),
    min_size=1,
    max_size=25,
)


class TestCacheMatchesBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(ops)
    def test_randomized_churn(self, operations):
        """Cached queries equal brute force after every mutation."""
        net = Network(cell_size=37.0)
        live_ids = []
        for op in operations:
            if op[0] == "add":
                _, x, y, max_range = op
                live_ids.append(
                    net.add_node(Vec2(x, y), max_range).node_id
                )
            elif not live_ids:
                continue
            elif op[0] == "remove":
                nid = live_ids.pop(op[1] % len(live_ids))
                net.remove_node(nid)
            elif op[0] == "kill":
                net.kill_node(live_ids[op[1] % len(live_ids)])
            elif op[0] == "revive":
                net.revive_node(live_ids[op[1] % len(live_ids)])
            elif op[0] == "move":
                _, idx, x, y = op
                net.move_node(live_ids[idx % len(live_ids)], Vec2(x, y))
            assert_caches_consistent(net)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.tuples(coords, coords), min_size=2, max_size=15),
        st.floats(min_value=5.0, max_value=100.0),
    )
    # Within r + 1e-9 of the sender but past the documented predicate
    # d^2 <= r^2 + 1e-9: not a candidate.
    @example(points=[(0.0, 0.0), (5.0, 6.103515625e-05)], tx_range=5.0)
    def test_broadcast_candidates_match_bruteforce(self, points, tx_range):
        net = Network(cell_size=13.0)
        nodes = [net.add_node(Vec2(x, y), 50.0) for x, y in points]
        for node in nodes:
            expected = {
                other.node_id
                for other in net
                if other.alive
                and other.node_id != node.node_id
                and node.position.distance_sq_to(other.position)
                <= tx_range * tx_range + 1e-9
            }
            found = {
                n.node_id
                for n in net.broadcast_candidates(node.node_id, tx_range)
            }
            assert found == expected


class TestAdjacencyView:
    def test_read_only(self):
        net = Network(cell_size=10.0)
        net.add_node(Vec2(0, 0), 5.0)
        adjacency = net.adjacency()
        with pytest.raises(TypeError):
            adjacency[99] = ()

    def test_covers_dead_nodes(self):
        net = Network(cell_size=10.0)
        a = net.add_node(Vec2(0, 0), 5.0)
        b = net.add_node(Vec2(3, 0), 5.0)
        net.kill_node(a.node_id)
        adjacency = net.adjacency()
        # Dead node still listed, with its live neighbours (post-mortem
        # analysis semantics, mirroring physical_neighbors).
        assert adjacency[a.node_id] == (b.node_id,)
        assert adjacency[b.node_id] == ()
