"""Unit tests for protocol state, snapshots, and the runtime wiring."""

import math

import pytest

from repro.core import (
    GS3Config,
    Gs3Runtime,
    Gs3Simulation,
    NodeStatus,
    ProtocolState,
    take_snapshot,
)
from repro.core.messages import (
    HeadAssignment,
    HeadIntraAlive,
    HeadSet,
    Org,
)
from repro.geometry import Vec2
from repro.net import Network, uniform_disk
from repro.sim import RngStreams

CFG = GS3Config(ideal_radius=100.0, radius_tolerance=25.0)


class TestNodeStatus:
    def test_head_like(self):
        assert NodeStatus.HEAD.is_head_like
        assert NodeStatus.WORK.is_head_like

    def test_not_head_like(self):
        for status in (
            NodeStatus.BOOTUP,
            NodeStatus.ASSOCIATE,
            NodeStatus.BIG_SLIDE,
            NodeStatus.BIG_MOVE,
        ):
            assert not status.is_head_like

    def test_head_like_for_every_member(self):
        # A member attribute set once per member, with this truth table.
        for status in NodeStatus:
            assert status.is_head_like is (status.value in ("head", "work"))


class TestProtocolState:
    def test_defaults(self):
        state = ProtocolState()
        assert state.status is NodeStatus.BOOTUP
        assert state.cell_axial is None
        assert state.children == set()

    def test_reset_clears_everything(self):
        state = ProtocolState()
        state.status = NodeStatus.WORK
        state.cell_axial = (1, 2)
        state.children = {5, 6}
        state.head_id = 9
        state.is_candidate = True
        state.root_position = Vec2(1, 1)
        state.reset()
        assert state.status is NodeStatus.BOOTUP
        assert state.cell_axial is None
        assert state.children == set()
        assert state.head_id is None
        assert not state.is_candidate
        assert state.root_position is None


class TestMessages:
    def test_messages_are_frozen(self):
        msg = Org(
            sender=1,
            head_position=Vec2(0, 0),
            il=Vec2(0, 0),
            axial=(0, 0),
            icc_icp=(0, 0),
            hops_to_root=0,
        )
        with pytest.raises(Exception):
            msg.sender = 2

    def test_headset_assignments(self):
        assignment = HeadAssignment(
            node_id=5, position=Vec2(1, 1), il=Vec2(0, 0), axial=(1, 0)
        )
        msg = HeadSet(
            sender=1,
            organizer_position=Vec2(0, 0),
            organizer_il=Vec2(0, 0),
            organizer_axial=(0, 0),
            organizer_icc_icp=(0, 0),
            organizer_hops=0,
            assignments=(assignment,),
        )
        assert msg.assignments[0].node_id == 5

    def test_intra_alive_defaults(self):
        msg = HeadIntraAlive(
            sender=1,
            position=Vec2(0, 0),
            axial=(0, 0),
            oil=Vec2(0, 0),
            current_il=Vec2(0, 0),
            icc_icp=(0, 0),
            candidates=(2, 3),
            hops_to_root=0,
        )
        assert msg.root_position is None
        assert msg.candidates == (2, 3)


class TestRuntime:
    def test_build_anchors_lattice_at_big_node(self):
        network = Network(cell_size=100.0)
        network.add_node(Vec2(50.0, -20.0), 300.0, is_big=True)
        runtime = Gs3Runtime.build(network, CFG, seed=3)
        assert runtime.lattice.origin == Vec2(50.0, -20.0)
        assert runtime.lattice.spacing == pytest.approx(
            math.sqrt(3) * CFG.ideal_radius
        )

    def test_gr_direction_unit(self):
        network = Network(cell_size=100.0)
        network.add_node(Vec2(0, 0), 300.0, is_big=True)
        runtime = Gs3Runtime.build(network, CFG)
        assert runtime.gr_direction.norm() == pytest.approx(1.0)

    def test_trace_stamps_time(self):
        network = Network(cell_size=100.0)
        network.add_node(Vec2(0, 0), 300.0, is_big=True)
        runtime = Gs3Runtime.build(network, CFG)
        runtime.sim.schedule(5.0, lambda: runtime.trace("x", node=0))
        runtime.sim.run()
        [record] = list(runtime.tracer.by_category("x"))
        assert record.time == 5.0


class TestSnapshot:
    @pytest.fixture(scope="class")
    def snap(self):
        deployment = uniform_disk(300.0, 1000, RngStreams(91))
        sim = Gs3Simulation.from_deployment(deployment, CFG, seed=91)
        sim.run_to_quiescence()
        return sim.snapshot()

    def test_views_cover_all_nodes(self, snap):
        assert len(snap.views) == 1001

    def test_heads_and_associates_partition(self, snap):
        head_ids = set(snap.heads)
        associate_ids = set(snap.associates)
        assert head_ids.isdisjoint(associate_ids)
        assert (
            len(head_ids) + len(associate_ids) + len(snap.bootup_ids)
            == 1001
        )

    def test_cells_mapping(self, snap):
        for head_id, members in snap.cells.items():
            for member in members:
                assert snap.views[member].head_id == head_id

    def test_cell_radius_of(self, snap):
        for head_id in snap.heads:
            radius = snap.cell_radius_of(head_id)
            assert radius >= 0.0

    def test_roots(self, snap):
        assert snap.roots == [snap.big_id]

    def test_member_count(self, snap):
        assert snap.member_count() == len(snap.heads) + len(
            snap.associates
        )

    def test_neighbor_heads_of(self, snap):
        big = snap.heads[snap.big_id]
        neighbors = snap.neighbor_heads_of(snap.big_id)
        assert len(neighbors) == 6
        for n in neighbors:
            assert n.cell_axial in snap.lattice.neighbors(big.cell_axial)
