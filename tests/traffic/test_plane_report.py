"""Forwarding plane semantics and the traffic report."""

import pytest

from repro.core import GS3Config, Gs3DynamicSimulation
from repro.net import grid_jitter
from repro.sim import RngStreams
from repro.traffic import (
    ForwardingPlane,
    Packet,
    TERMINAL_OUTCOMES,
    fold_traffic_report,
    percentile,
    run_traffic_replicate,
)

CFG = GS3Config(ideal_radius=100.0, radius_tolerance=25.0)


@pytest.fixture(scope="module")
def configured():
    deployment = grid_jitter(240.0, 40.0, 6.0, RngStreams(77))
    sim = Gs3DynamicSimulation.from_deployment(deployment, CFG, seed=77)
    sim.run_until_stable(window=60.0, max_time=20_000.0)
    return sim


def _packet(network, pid, src, dst, created_at):
    pos = network.node(dst).position
    return Packet(
        pid=pid,
        kind="p2p",
        created_at=created_at,
        src=src,
        dst=dst,
        dst_pos=(pos.x, pos.y),
    )


def _far_pair(network):
    """Two alive small nodes more than one radio hop apart."""
    nodes = sorted(
        (n for n in network.alive_nodes() if not n.is_big),
        key=lambda n: n.position.x,
    )
    west, east = nodes[0], nodes[-1]
    assert west.position.distance_to(east.position) > 2.0 * 150.0
    return west.node_id, east.node_id


class TestForwardingPlane:
    def test_delivery_paths_are_well_formed(self, configured):
        sim = configured
        plane = ForwardingPlane(sim.runtime, {"router": "cell"})
        src, dst = _far_pair(sim.network)
        packet = _packet(sim.network, 9001, src, dst, sim.now)
        plane.inject(packet)
        sim.run_for(200.0)
        outcome, time, path = plane.records[9001]
        assert outcome == "delivered"
        assert path[0] == src
        assert path[-1] == dst
        assert len(path) == len(set(path))
        assert time > packet.created_at  # hops cost virtual time
        sim.runtime.radio.data_plane = None

    def test_ttl_expiry(self, configured):
        sim = configured
        plane = ForwardingPlane(
            sim.runtime, {"router": "cell", "ttl": 1}
        )
        src, dst = _far_pair(sim.network)
        plane.inject(_packet(sim.network, 9002, src, dst, sim.now))
        sim.run_for(200.0)
        outcome = plane.records[9002][0]
        assert outcome == "ttl_expired"
        sim.runtime.radio.data_plane = None

    def test_source_dead(self, configured):
        sim = configured
        plane = ForwardingPlane(sim.runtime, {"router": "cell"})
        src, dst = _far_pair(sim.network)
        sim.kill_node(src)
        plane.inject(_packet(sim.network, 9003, src, dst, sim.now))
        assert plane.records[9003][0] == "source_dead"
        sim.revive_node(src)
        sim.run_for(300.0)
        sim.runtime.radio.data_plane = None

    def test_self_addressed_delivers_immediately(self, configured):
        sim = configured
        plane = ForwardingPlane(sim.runtime, {"router": "cell"})
        src, _ = _far_pair(sim.network)
        plane.inject(_packet(sim.network, 9004, src, src, sim.now))
        outcome, _, path = plane.records[9004]
        assert outcome == "delivered"
        assert path == (src,)
        sim.runtime.radio.data_plane = None


class TestReplicateConservation:
    @pytest.fixture(scope="class")
    def outcome(self):
        from repro.sim import replicate_seed

        data = {
            "config": {"ideal_radius": 100.0, "radius_tolerance": 25.0},
            "deployment": {
                "kind": "uniform",
                "field_radius": 300.0,
                "n_nodes": 160,
            },
            "traffic": {
                "duration": 120.0,
                "drain": 120.0,
                "flows": {"rate": 0.15},
                "convergecast": {"rate": 0.08},
                "cbr": {"sources": 3, "interval": 30.0},
            },
        }
        result = run_traffic_replicate(
            {"data": data, "seed": replicate_seed(21, 0)}
        )
        assert "error" not in result["routers"]["cell"]
        return result

    def test_every_packet_accounted(self, outcome):
        for report in outcome["routers"].values():
            outcomes = report["outcomes"]
            total = sum(outcomes[k] for k in TERMINAL_OUTCOMES)
            assert total + outcomes["missing"] == report["generated"]

    def test_both_routers_ran_same_workload(self, outcome):
        reports = list(outcome["routers"].values())
        assert len(reports) == 2
        assert reports[0]["generated"] == reports[1]["generated"]
        assert outcome["generated"] == reports[0]["generated"]

    def test_report_shape(self, outcome):
        report = outcome["routers"]["cell"]
        assert set(report["delay"]) == {"mean", "p50", "p90", "p99", "max"}
        assert set(report["stretch"]) == {"p50", "p90", "max"}
        assert set(report["hops"]) == {"mean", "max"}
        assert report["delivery_ratio"] > 0.8  # no chaos: healthy
        assert report["stretch"]["p50"] >= 1.0 or report["stretch"]["p50"] == 0.0
        relay = report["relay"]
        assert relay["max_load"] >= max(
            (h["load"] for h in relay["top_hotspots"]), default=0
        )

    def test_by_kind_totals(self, outcome):
        report = outcome["routers"]["cell"]
        assert (
            sum(k["generated"] for k in report["by_kind"].values())
            == report["generated"]
        )


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.50) == 2.0
        assert percentile(values, 0.75) == 3.0
        assert percentile(values, 0.99) == 4.0

    def test_single_value(self):
        assert percentile([7.0], 0.99) == 7.0


class TestReportEdgeCases:
    def test_empty_workload(self):
        report = fold_traffic_report([], {}, (), {})
        assert report["generated"] == 0
        assert report["delivery_ratio"] == 0.0
        assert report["outcomes"]["missing"] == 0
