"""Tests for nodes and the spatial-indexed network."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.geometry import Vec2
from repro.net import Network, PhysicalNode

coords = st.floats(
    min_value=-1000.0, max_value=1000.0, allow_nan=False, allow_infinity=False
)


class TestPhysicalNode:
    def test_distance(self):
        a = PhysicalNode(0, Vec2(0, 0), 10.0)
        b = PhysicalNode(1, Vec2(3, 4), 10.0)
        assert a.distance_to(b) == pytest.approx(5.0)

    def test_mutual_range_requires_both(self):
        a = PhysicalNode(0, Vec2(0, 0), 10.0)
        b = PhysicalNode(1, Vec2(8, 0), 5.0)
        assert not a.in_mutual_range(b)
        b.max_range = 9.0
        assert a.in_mutual_range(b)

    def test_can_reach_caps_at_max_range(self):
        node = PhysicalNode(0, Vec2(0, 0), 10.0)
        assert node.can_reach(Vec2(9, 0))
        assert node.can_reach(Vec2(9, 0), tx_range=100.0)
        assert not node.can_reach(Vec2(11, 0), tx_range=100.0)
        assert not node.can_reach(Vec2(9, 0), tx_range=5.0)


class TestNetworkPopulation:
    def test_add_and_lookup(self):
        net = Network(cell_size=10.0)
        node = net.add_node(Vec2(1, 2), 5.0)
        assert net.node(node.node_id).position == Vec2(1, 2)
        assert len(net) == 1

    def test_auto_ids_are_unique(self):
        net = Network(cell_size=10.0)
        ids = {net.add_node(Vec2(i, 0), 5.0).node_id for i in range(10)}
        assert len(ids) == 10

    def test_explicit_id(self):
        net = Network(cell_size=10.0)
        node = net.add_node(Vec2(0, 0), 5.0, node_id=42)
        assert node.node_id == 42
        # Auto ids continue above explicit ones.
        assert net.add_node(Vec2(1, 0), 5.0).node_id == 43

    def test_duplicate_id_rejected(self):
        net = Network(cell_size=10.0)
        net.add_node(Vec2(0, 0), 5.0, node_id=1)
        with pytest.raises(ValueError):
            net.add_node(Vec2(1, 1), 5.0, node_id=1)

    def test_big_node(self):
        net = Network(cell_size=10.0)
        with pytest.raises(LookupError):
            _ = net.big_node
        big = net.add_node(Vec2(0, 0), 5.0, is_big=True)
        assert net.big_node is big
        assert net.big_id == big.node_id

    def test_second_big_node_rejected(self):
        net = Network(cell_size=10.0)
        net.add_node(Vec2(0, 0), 5.0, is_big=True)
        with pytest.raises(ValueError):
            net.add_node(Vec2(1, 1), 5.0, is_big=True)

    def test_kill_and_revive(self):
        net = Network(cell_size=10.0)
        node = net.add_node(Vec2(0, 0), 5.0)
        net.kill_node(node.node_id)
        assert not node.alive
        assert net.alive_count() == 0
        net.revive_node(node.node_id)
        assert net.alive_count() == 1

    def test_remove_node(self):
        net = Network(cell_size=10.0)
        node = net.add_node(Vec2(0, 0), 5.0)
        net.remove_node(node.node_id)
        assert not net.has_node(node.node_id)
        assert net.nodes_within(Vec2(0, 0), 100.0) == []

    def test_invalid_cell_size(self):
        with pytest.raises(ValueError):
            Network(cell_size=0.0)


class TestSpatialQueries:
    def test_nodes_within_radius(self):
        net = Network(cell_size=10.0)
        near = net.add_node(Vec2(1, 0), 5.0)
        net.add_node(Vec2(100, 0), 5.0)
        found = net.nodes_within(Vec2(0, 0), 10.0)
        assert [n.node_id for n in found] == [near.node_id]

    def test_boundary_inclusive(self):
        net = Network(cell_size=10.0)
        node = net.add_node(Vec2(10, 0), 5.0)
        assert node in net.nodes_within(Vec2(0, 0), 10.0)

    def test_dead_nodes_excluded_by_default(self):
        net = Network(cell_size=10.0)
        node = net.add_node(Vec2(0, 0), 5.0)
        net.kill_node(node.node_id)
        assert net.nodes_within(Vec2(0, 0), 5.0) == []
        assert net.nodes_within(Vec2(0, 0), 5.0, alive_only=False) == [node]

    def test_query_spanning_many_grid_cells(self):
        net = Network(cell_size=3.0)
        ids = set()
        for i in range(-5, 6):
            for j in range(-5, 6):
                ids.add(net.add_node(Vec2(i * 4.0, j * 4.0), 5.0).node_id)
        found = {n.node_id for n in net.nodes_within(Vec2(0, 0), 100.0)}
        assert found == ids

    def test_move_node_updates_index(self):
        net = Network(cell_size=5.0)
        node = net.add_node(Vec2(0, 0), 5.0)
        net.move_node(node.node_id, Vec2(50, 50))
        assert net.nodes_within(Vec2(0, 0), 5.0) == []
        assert net.nodes_within(Vec2(50, 50), 5.0) == [node]

    def test_nearest_node(self):
        net = Network(cell_size=10.0)
        net.add_node(Vec2(5, 0), 5.0)
        nearest = net.add_node(Vec2(2, 0), 5.0)
        assert net.nearest_node(Vec2(0, 0), 10.0) is nearest

    def test_nearest_node_exclusion(self):
        net = Network(cell_size=10.0)
        a = net.add_node(Vec2(2, 0), 5.0)
        b = net.add_node(Vec2(5, 0), 5.0)
        found = net.nearest_node(Vec2(0, 0), 10.0, exclude=[a.node_id])
        assert found is b

    def test_nearest_node_none(self):
        net = Network(cell_size=10.0)
        assert net.nearest_node(Vec2(0, 0), 10.0) is None

    @given(st.lists(st.tuples(coords, coords), min_size=1, max_size=40))
    # Within r + 1e-9 of the center but past the documented predicate
    # d^2 <= r^2 + 1e-9: excluded.
    @example(points=[(13.0, 243.0000000005)])
    def test_matches_bruteforce(self, points):
        net = Network(cell_size=37.0)
        nodes = [net.add_node(Vec2(x, y), 5.0) for x, y in points]
        center = Vec2(13.0, -7.0)
        radius = 250.0
        expected = {
            n.node_id
            for n in nodes
            if n.position.distance_sq_to(center) <= radius * radius + 1e-9
        }
        found = {n.node_id for n in net.nodes_within(center, radius)}
        assert found == expected


class TestConnectivity:
    def build_chain(self, spacing, max_range):
        net = Network(cell_size=max_range)
        ids = []
        for i in range(5):
            node = net.add_node(
                Vec2(i * spacing, 0), max_range, is_big=(i == 0)
            )
            ids.append(node.node_id)
        return net, ids

    def test_chain_connected(self):
        net, ids = self.build_chain(spacing=5.0, max_range=6.0)
        reachable = net.connected_to(ids[0])
        assert reachable == set(ids)

    def test_chain_broken_by_distance(self):
        net, ids = self.build_chain(spacing=10.0, max_range=6.0)
        assert net.connected_to(ids[0]) == {ids[0]}

    def test_chain_broken_by_death(self):
        net, ids = self.build_chain(spacing=5.0, max_range=6.0)
        net.kill_node(ids[2])
        reachable = net.connected_to(ids[0])
        assert reachable == {ids[0], ids[1]}

    def test_is_connected_to_big(self):
        net, ids = self.build_chain(spacing=5.0, max_range=6.0)
        assert net.is_connected_to_big(ids[4])
        net.kill_node(ids[1])
        assert not net.is_connected_to_big(ids[4])

    def test_dead_source_unreachable(self):
        net, ids = self.build_chain(spacing=5.0, max_range=6.0)
        net.kill_node(ids[0])
        assert net.connected_to(ids[0]) == set()

    def test_physical_neighbors_mutual(self):
        net = Network(cell_size=10.0)
        a = net.add_node(Vec2(0, 0), 10.0)
        b = net.add_node(Vec2(8, 0), 5.0)  # hears a, but a can't hear b
        assert net.physical_neighbors(a.node_id) == []
        assert net.physical_neighbors(b.node_id) == []
