"""Negative-case tests for the invariant checkers, and differentials
for their fast paths.

The integration tests prove the checkers pass on correct structures;
these prove they *fail* on corrupted ones, i.e. that the oracle
actually discriminates.  The last two classes pin the fast paths
inside ``invariants.py`` (I3's spatial nearest-head index and I1's
memoized ancestor walk) to their slow twins on churned runs.
"""

import math
import random

import pytest

from repro import GS3Config
from repro.core import (
    Gs3DynamicSimulation,
    NodeStatus,
    NodeView,
    StructureSnapshot,
    check_f4_coverage,
    check_i1_tree,
    check_i2_cell_radius,
    check_i2_children,
    check_i2_neighbors,
    check_i3_associate_optimality,
)
from repro.geometry import Disk, HexLattice, Vec2
from repro.net import Network, uniform_disk
from repro.sim import RngStreams

R = 100.0
RT = 25.0
SPACING = math.sqrt(3) * R
LATTICE = HexLattice(Vec2(0, 0), SPACING)


def head_view(node_id, axial, parent_id, position=None, hops=1, icc_icp=(0, 0)):
    il = LATTICE.point(axial)
    return NodeView(
        node_id=node_id,
        position=position if position is not None else il,
        status=NodeStatus.WORK,
        alive=True,
        is_big=(node_id == 0),
        cell_axial=axial,
        current_il=il,
        oil=il,
        icc_icp=icc_icp,
        parent_id=parent_id,
        hops_to_root=hops,
        head_id=None,
        is_candidate=False,
    )


def associate_view(node_id, position, head_id):
    return NodeView(
        node_id=node_id,
        position=position,
        status=NodeStatus.ASSOCIATE,
        alive=True,
        is_big=False,
        cell_axial=None,
        current_il=None,
        oil=None,
        icc_icp=(0, 0),
        parent_id=None,
        hops_to_root=0,
        head_id=head_id,
        is_candidate=False,
    )


def snapshot_of(views):
    return StructureSnapshot(
        time=0.0,
        ideal_radius=R,
        radius_tolerance=RT,
        lattice=LATTICE,
        big_id=0,
        views={v.node_id: v for v in views},
    )


def simple_tree():
    root = head_view(0, (0, 0), 0, hops=0)
    child = head_view(1, (1, 0), 0)
    return [root, child]


class TestTreeChecker:
    def test_valid_tree_passes(self):
        assert check_i1_tree(snapshot_of(simple_tree())) == []

    def test_empty_head_graph_fails(self):
        assert check_i1_tree(snapshot_of([])) != []

    def test_two_roots_fail(self):
        views = simple_tree()
        views[1] = head_view(1, (1, 0), 1)  # self-parent: second root
        assert any("root" in v for v in check_i1_tree(snapshot_of(views)))

    def test_cycle_detected(self):
        a = head_view(0, (0, 0), 1, hops=0)
        b = head_view(1, (1, 0), 0)
        violations = check_i1_tree(snapshot_of([a, b]))
        assert any("cycle" in v or "root" in v for v in violations)

    def test_dangling_parent_detected(self):
        views = [head_view(0, (0, 0), 0, hops=0), head_view(1, (1, 0), 99)]
        violations = check_i1_tree(snapshot_of(views))
        assert any("not a live head" in v for v in violations)

    def test_nonzero_root_hops_detected(self):
        root = head_view(0, (0, 0), 0, hops=3)
        violations = check_i1_tree(snapshot_of([root]))
        assert any("hops_to_root" in v for v in violations)


class TestNeighborChecker:
    def test_in_band_passes(self):
        assert check_i2_neighbors(snapshot_of(simple_tree())) == []

    def test_too_close_fails(self):
        root = head_view(0, (0, 0), 0, hops=0)
        near = head_view(
            1, (1, 0), 0, position=Vec2(SPACING - 3 * RT, 0)
        )
        assert check_i2_neighbors(snapshot_of([root, near])) != []

    def test_too_far_fails(self):
        root = head_view(0, (0, 0), 0, hops=0)
        far = head_view(1, (1, 0), 0, position=Vec2(SPACING + 3 * RT, 0))
        assert check_i2_neighbors(snapshot_of([root, far])) != []

    def test_different_icc_icp_uses_il_distance(self):
        # Mid-slide, one cell shifted: distance judged against the IL
        # distance rather than sqrt(3) R.
        root = head_view(0, (0, 0), 0, hops=0)
        shifted = head_view(1, (1, 0), 0, icc_icp=(1, 0))
        # Positions still at their (unshifted) ILs: |d - d_il| = 0 <= 2 R_t.
        assert check_i2_neighbors(snapshot_of([root, shifted])) == []


class TestChildrenChecker:
    def build_with_children(self, n_children, root_children=0):
        views = [head_view(0, (0, 0), 0, hops=0)]
        # Give head 1 a cell adjacent to the root.
        views.append(head_view(1, (1, 0), 0))
        ring2 = [(2, -1), (2, 0), (1, 1), (0, 2), (-1, 2), (2, -2)]
        for i in range(n_children):
            views.append(head_view(10 + i, ring2[i], 1, hops=2))
        return snapshot_of(views)

    def test_three_children_ok_static(self):
        assert check_i2_children(self.build_with_children(3)) == []

    def test_four_children_fail_static(self):
        assert check_i2_children(self.build_with_children(4)) != []

    def test_five_children_ok_dynamic(self):
        assert (
            check_i2_children(self.build_with_children(5), dynamic=True) == []
        )

    def test_six_children_fail_dynamic(self):
        assert (
            check_i2_children(self.build_with_children(6), dynamic=True) != []
        )


class TestCellRadiusChecker:
    def test_inner_bound_violation(self):
        head = head_view(0, (0, 0), 0, hops=0)
        far_assoc = associate_view(5, Vec2(R + 2 * RT, 0), 0)
        violations = check_i2_cell_radius(snapshot_of([head, far_assoc]))
        assert violations != []

    def test_within_bound_passes(self):
        head = head_view(0, (0, 0), 0, hops=0)
        ok_assoc = associate_view(5, Vec2(R, 0), 0)
        assert check_i2_cell_radius(snapshot_of([head, ok_assoc])) == []

    def test_boundary_cells_get_relaxed_bound(self):
        head = head_view(0, (0, 0), 0, hops=0)
        far_assoc = associate_view(5, Vec2(math.sqrt(3) * R, 0), 0)
        snap = snapshot_of([head, far_assoc])
        # Without field info the strict bound applies...
        assert check_i2_cell_radius(snap) != []
        # ...with a small field, the cell is boundary and the relaxed
        # bound sqrt(3) R + 2 R_t admits it.
        assert check_i2_cell_radius(snap, field=Disk(Vec2(0, 0), R)) == []


class TestAssociateOptimality:
    def test_closest_head_passes(self):
        views = simple_tree() + [associate_view(5, Vec2(30, 0), 0)]
        assert check_i3_associate_optimality(snapshot_of(views)) == []

    def test_wrong_head_fails(self):
        views = simple_tree() + [associate_view(5, Vec2(30, 0), 1)]
        assert check_i3_associate_optimality(snapshot_of(views)) != []

    def test_dead_head_reported(self):
        views = simple_tree() + [associate_view(5, Vec2(30, 0), 77)]
        violations = check_i3_associate_optimality(snapshot_of(views))
        assert any("dead/unknown" in v for v in violations)


class TestCoverageChecker:
    def build_network(self):
        net = Network(cell_size=100.0)
        net.add_node(Vec2(0, 0), 500.0, is_big=True)  # id 0
        net.add_node(LATTICE.point((1, 0)), 500.0)  # id 1
        net.add_node(Vec2(30, 0), 500.0)  # id 5... actually id 2
        return net

    def test_covered_network_passes(self):
        net = self.build_network()
        views = simple_tree() + [associate_view(2, Vec2(30, 0), 0)]
        assert check_f4_coverage(snapshot_of(views), net) == []

    def test_uncovered_visible_node_fails(self):
        net = self.build_network()
        uncovered = NodeView(
            node_id=2,
            position=Vec2(30, 0),
            status=NodeStatus.BOOTUP,
            alive=True,
            is_big=False,
            cell_axial=None,
            current_il=None,
            oil=None,
            icc_icp=(0, 0),
            parent_id=None,
            hops_to_root=0,
            head_id=None,
            is_candidate=False,
        )
        views = simple_tree() + [uncovered]
        violations = check_f4_coverage(snapshot_of(views), net)
        assert any("belongs to no cell" in v for v in violations)


def build_sim(seed=11, n=220, radius=190.0):
    deployment = uniform_disk(radius, n, RngStreams(seed))
    sim = Gs3DynamicSimulation.from_deployment(
        deployment, GS3Config(), seed=seed
    )
    return sim, deployment


def churn(sim, rng, ids, steps):
    for _ in range(steps):
        op = rng.choice(["kill", "kill", "revive", "move", "corrupt", "add"])
        victim = rng.choice(ids)
        if op == "kill":
            sim.kill_node(victim)
        elif op == "revive":
            sim.revive_node(victim)
        elif op == "corrupt":
            sim.corrupt_node(victim)
        elif op == "add":
            ids.append(
                sim.add_node(
                    Vec2(rng.uniform(-180, 180), rng.uniform(-180, 180))
                )
            )
        else:
            sim.move_node(
                victim,
                Vec2(rng.uniform(-180, 180), rng.uniform(-180, 180)),
            )


class TestSpatialI3EqualsScan:
    @pytest.mark.parametrize("seed", [1, 4])
    def test_spatial_matches_all_pairs(self, seed):
        sim, deployment = build_sim(seed=seed)
        sim.run_until_stable(window=50.0, max_time=30_000.0)
        rng = random.Random(seed)
        ids = [n.node_id for n in sim.network if not n.is_big]
        for _ in range(4):
            churn(sim, rng, ids, steps=6)
            sim.run_for(rng.choice([0.0, 2.0]))
            snapshot = sim.snapshot()
            for restrict, field in [(False, None), (True, deployment.field)]:
                spatial = check_i3_associate_optimality(
                    snapshot, restrict, field, spatial=True
                )
                scan = check_i3_associate_optimality(
                    snapshot, restrict, field, spatial=False
                )
                assert spatial == scan  # same content, same order


class TestMemoizedI1Tree:
    def test_broken_parent_graphs_match_reference(self):
        """Cycles, dead ancestors, and parentless chains produce the
        same messages the per-head walk did."""
        sim, deployment = build_sim(seed=6, n=150)
        sim.run_until_stable(window=50.0, max_time=30_000.0)
        rng = random.Random(17)
        heads = [
            node_id
            for node_id, view in sim.snapshot().heads.items()
            if not view.is_big
        ]
        # Wire a parent cycle and a dangling parent directly.
        if len(heads) >= 4:
            a, b, c, d = heads[:4]
            sim.runtime.nodes[a].state.parent_id = b
            sim.runtime.nodes[b].state.parent_id = a
            sim.runtime.nodes[c].state.parent_id = None
            sim.runtime.nodes[d].state.parent_id = 999_999
        snapshot = sim.snapshot()
        got = check_i1_tree(snapshot)
        expected = reference_i1_tree(snapshot)
        assert got == expected


def reference_i1_tree(snapshot):
    """The pre-memoization per-head walk, verbatim."""
    violations = []
    heads = snapshot.heads
    if not heads:
        return ["head graph is empty"]
    roots = snapshot.roots
    if len(roots) != 1:
        violations.append(f"expected exactly one root, found {roots}")
    else:
        root = roots[0]
        root_view = heads[root]
        big_view = snapshot.views.get(snapshot.big_id)
        if big_view is not None and big_view.is_head and root != snapshot.big_id:
            violations.append(
                f"big node {snapshot.big_id} is a head but root is {root}"
            )
        if root_view.hops_to_root != 0:
            violations.append(f"root {root} has hops_to_root != 0")
    for head_id in heads:
        seen = set()
        current = head_id
        while True:
            if current in seen:
                violations.append(f"parent cycle through head {head_id}")
                break
            seen.add(current)
            view = heads.get(current)
            if view is None:
                violations.append(
                    f"head {head_id} has ancestor {current} that is not a live head"
                )
                break
            if view.parent_id == current:
                break
            if view.parent_id is None:
                violations.append(f"head {current} has no parent")
                break
            current = view.parent_id
    return violations
