"""Tests for deployment generators and energy tracking."""

import math

import pytest

from repro.geometry import Disk, HexLattice, Vec2
from repro.net import (
    Deployment,
    EnergyConfig,
    EnergyTracker,
    carve_gaps,
    grid_jitter,
    poisson_disk,
    rt_gap_cells,
    uniform_disk,
)
from repro.sim import RngStreams


class TestUniformDisk:
    def test_count_and_bounds(self):
        deployment = uniform_disk(100.0, 500, RngStreams(1))
        assert len(deployment.small_positions) == 500
        assert all(
            p.norm() <= 100.0 + 1e-9 for p in deployment.small_positions
        )

    def test_big_node_at_center_by_default(self):
        deployment = uniform_disk(100.0, 10, RngStreams(1))
        assert deployment.big_position == Vec2(0, 0)

    def test_custom_big_position(self):
        deployment = uniform_disk(
            100.0, 10, RngStreams(1), big_position=Vec2(5, 5)
        )
        assert deployment.big_position == Vec2(5, 5)

    def test_deterministic(self):
        a = uniform_disk(100.0, 50, RngStreams(3))
        b = uniform_disk(100.0, 50, RngStreams(3))
        assert a.small_positions == b.small_positions

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            uniform_disk(100.0, -1, RngStreams(1))

    def test_roughly_uniform_radially(self):
        # With inverse-CDF sampling, ~25% of nodes fall inside r/2 disk.
        deployment = uniform_disk(100.0, 4000, RngStreams(5))
        inner = sum(1 for p in deployment.small_positions if p.norm() < 50.0)
        assert 0.2 < inner / 4000 < 0.3


class TestPoissonDisk:
    def test_mean_count(self):
        # lambda=2 per unit disk over field radius 20 -> mean 800 nodes.
        deployment = poisson_disk(20.0, 2.0, RngStreams(2))
        assert 650 < len(deployment.small_positions) < 950

    def test_zero_density(self):
        deployment = poisson_disk(10.0, 0.0, RngStreams(2))
        assert deployment.small_positions == ()

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError):
            poisson_disk(10.0, -1.0, RngStreams(1))

    def test_density_lambda_estimate(self):
        deployment = poisson_disk(20.0, 3.0, RngStreams(4))
        assert deployment.density_lambda() == pytest.approx(3.0, rel=0.25)


class TestGridJitter:
    def test_coverage_has_no_large_gaps(self):
        deployment = grid_jitter(50.0, spacing=5.0, jitter=1.0, rng_streams=RngStreams(1))
        # Every interior probe point should have a node within ~spacing.
        for probe in [Vec2(0, 0), Vec2(20, 20), Vec2(-30, 10)]:
            nearest = min(
                p.distance_to(probe) for p in deployment.small_positions
            )
            assert nearest < 7.0

    def test_invalid_spacing(self):
        with pytest.raises(ValueError):
            grid_jitter(10.0, spacing=0.0, jitter=0.0, rng_streams=RngStreams(1))


class TestCarveGaps:
    def test_removes_nodes_in_gap(self):
        deployment = grid_jitter(50.0, 5.0, 0.0, RngStreams(1))
        gap = Disk(Vec2(0, 0), 12.0)
        carved = carve_gaps(deployment, [gap])
        assert all(not gap.contains(p) for p in carved.small_positions)
        assert len(carved.small_positions) < len(deployment.small_positions)

    def test_big_node_untouched(self):
        deployment = grid_jitter(50.0, 5.0, 0.0, RngStreams(1))
        carved = carve_gaps(deployment, [Disk(Vec2(0, 0), 12.0)])
        assert carved.big_position == deployment.big_position


class TestRtGapCells:
    def test_dense_deployment_has_no_gaps(self):
        deployment = grid_jitter(60.0, 3.0, 0.5, RngStreams(1))
        lattice = HexLattice(Vec2(0, 0), math.sqrt(3) * 20.0)
        assert rt_gap_cells(deployment, lattice, radius_tolerance=6.0) == []

    def test_carved_gap_detected(self):
        deployment = grid_jitter(60.0, 3.0, 0.0, RngStreams(1))
        lattice = HexLattice(Vec2(0, 0), math.sqrt(3) * 20.0)
        target_il = lattice.point((1, 0))
        carved = carve_gaps(deployment, [Disk(target_il, 10.0)])
        gaps = rt_gap_cells(carved, lattice, radius_tolerance=6.0)
        assert any(g.is_close(target_il, tol=1e-6) for g in gaps)


class TestBuildNetwork:
    def test_big_node_is_id_zero(self):
        deployment = uniform_disk(50.0, 20, RngStreams(1))
        network = deployment.build_network(max_range=30.0)
        assert network.big_id == 0
        assert len(network) == 21

    def test_node_count_property(self):
        deployment = uniform_disk(50.0, 20, RngStreams(1))
        assert deployment.node_count == 21


class TestEnergyTracker:
    def test_drain_and_death(self):
        deaths = []
        tracker = EnergyTracker(
            EnergyConfig(initial=10.0), on_death=deaths.append
        )
        tracker.add_node(1)
        assert not tracker.drain(1, 5.0)
        assert tracker.remaining(1) == 5.0
        assert tracker.drain(1, 5.0)
        assert deaths == [1]
        assert tracker.is_depleted(1)

    def test_drain_dead_node_noop(self):
        tracker = EnergyTracker(EnergyConfig(initial=1.0))
        tracker.add_node(1)
        tracker.drain(1, 2.0)
        assert not tracker.drain(1, 1.0)  # already dead, no second death

    def test_role_rates(self):
        config = EnergyConfig(
            initial=100.0,
            head_drain=10.0,
            candidate_drain=2.0,
            associate_drain=1.0,
        )
        tracker = EnergyTracker(config)
        for node_id in (1, 2, 3):
            tracker.add_node(node_id)
        tracker.drain_role(1, "head")
        tracker.drain_role(2, "candidate")
        tracker.drain_role(3, "associate")
        assert tracker.remaining(1) == 90.0
        assert tracker.remaining(2) == 98.0
        assert tracker.remaining(3) == 99.0

    def test_heads_die_first(self):
        config = EnergyConfig(initial=100.0, head_drain=10.0, associate_drain=1.0)
        tracker = EnergyTracker(config)
        tracker.add_node(1)
        tracker.add_node(2)
        ticks_head = 0
        while not tracker.is_depleted(1):
            tracker.drain_role(1, "head")
            ticks_head += 1
        ticks_assoc = 0
        while not tracker.is_depleted(2):
            tracker.drain_role(2, "associate")
            ticks_assoc += 1
        assert ticks_head * 5 < ticks_assoc

    def test_custom_initial_and_depleted_list(self):
        tracker = EnergyTracker(EnergyConfig(initial=10.0))
        tracker.add_node(1, initial=1.0)
        tracker.add_node(2)
        tracker.drain(1, 1.0)
        assert tracker.depleted_nodes() == [1]

    def test_unknown_node(self):
        tracker = EnergyTracker(EnergyConfig())
        assert tracker.remaining(99) == 0.0
        assert not tracker.drain(99, 1.0)

    def test_remove_node(self):
        tracker = EnergyTracker(EnergyConfig())
        tracker.add_node(1)
        tracker.remove_node(1)
        assert tracker.remaining(1) == 0.0
