"""Regression pins for the PR-10 traffic accounting fixes.

Four bugs, four pins:

* path geometry read node positions at *report* time, so ``move``
  perturbations after a delivery corrupted its stretch;
* first-terminal-wins in ``_record`` could mask a real delivery behind
  an earlier non-delivered outcome;
* ``run_traffic_replicate`` took ``generated`` from the first router,
  reporting 0 whenever that router failed but others ran;
* data frames must never duplicate even when the channel's
  ``duplicate_prob`` is high (the plane assumes link-layer dedup).
"""

import pytest

from repro.core import GS3Config, Gs3DynamicSimulation
from repro.geometry import Vec2
from repro.net import ChannelFaultModel, Network, Radio, grid_jitter
from repro.sim import RngStreams
from repro.sim.parallel import ReplicateOutcome
from repro.traffic import (
    ForwardingPlane,
    Packet,
    TERMINAL_OUTCOMES,
    fold_traffic_report,
    run_traffic_replicate,
    summarize_traffic,
)
from repro.traffic.report import TrafficFold

CFG = GS3Config(ideal_radius=100.0, radius_tolerance=25.0)


@pytest.fixture(scope="module")
def configured():
    deployment = grid_jitter(240.0, 40.0, 6.0, RngStreams(77))
    sim = Gs3DynamicSimulation.from_deployment(deployment, CFG, seed=77)
    sim.run_until_stable(window=60.0, max_time=20_000.0)
    return sim


def _far_pair(network):
    nodes = sorted(
        (n for n in network.alive_nodes() if not n.is_big),
        key=lambda n: n.position.x,
    )
    return nodes[0].node_id, nodes[-1].node_id


class TestMoveGeometry:
    def test_report_geometry_survives_later_moves(self, configured):
        sim = configured
        plane = ForwardingPlane(sim.runtime, {"router": "cell"})
        src, dst = _far_pair(sim.network)
        pos = sim.network.node(dst).position
        packet = Packet(
            pid=9100,
            kind="p2p",
            created_at=sim.now,
            src=src,
            dst=dst,
            dst_pos=(pos.x, pos.y),
        )
        plane.inject(packet)
        sim.run_for(200.0)
        assert plane.terminals[9100][0] == "delivered"

        def report():
            return fold_traffic_report(
                [packet],
                dict(plane.terminals),
                tuple(plane.hop_log.entries()),
                dict(plane.relay_load),
            )

        before = report()
        assert before["stretch"]["p50"] >= 1.0  # multi-hop: real geometry
        # Drag the endpoints across the field after delivery.  Hop
        # positions were captured when each hop was logged, so the
        # report cannot change (the old one read the network *now*).
        for node_id, shift in ((src, 500.0), (dst, -500.0)):
            position = sim.network.node(node_id).position
            sim.move_node(node_id, Vec2(position.x + shift, position.y + shift))
        assert report() == before
        sim.runtime.radio.data_plane = None


class TestDeliveredUpgrade:
    def _packet(self):
        return Packet(
            pid=0, kind="p2p", created_at=0.0, src=1, dst=2, dst_pos=(9.0, 0.0)
        )

    def test_delivered_upgrades_earlier_outcome(self):
        fold = TrafficFold([self._packet()])
        fold.add_hop(0, 0, 1, 0.0, 0.0)
        fold.add_terminal(0, "dropped", 4.0)
        fold.add_terminal(0, "delivered", 6.0)
        report = fold.finish({})
        assert report["outcomes"]["delivered"] == 1
        assert report["outcomes"]["dropped"] == 0
        assert report["delay"]["max"] == 6.0

    def test_nothing_downgrades_delivered(self):
        fold = TrafficFold([self._packet()])
        fold.add_hop(0, 0, 1, 0.0, 0.0)
        fold.add_terminal(0, "delivered", 3.0)
        fold.add_terminal(0, "dropped", 5.0)
        fold.add_terminal(0, "delivered", 7.0)
        report = fold.finish({})
        assert report["outcomes"] == {
            **{name: 0 for name in TERMINAL_OUTCOMES},
            "delivered": 1,
            "missing": 0,
        }
        assert report["delay"]["max"] == 3.0  # first delivery's time kept

    def test_non_delivered_never_replaces_non_delivered(self):
        fold = TrafficFold([self._packet()])
        fold.add_terminal(0, "dropped", 2.0)
        fold.add_terminal(0, "ttl_expired", 4.0)
        assert fold.finish({})["outcomes"]["dropped"] == 1


class _CountingPlane:
    """Takes every ``str`` payload (the frames below are strings) and
    counts deliveries per payload."""

    frame_type = str

    def __init__(self):
        self.delivered = []

    def on_frame(self, payload, dest_id, sender_id):
        self.delivered.append(payload)


class TestDataFramesNeverDuplicate:
    def test_exactly_one_delivery_under_heavy_duplication(self):
        net = Network(cell_size=50.0)
        a = net.add_node(Vec2(0.0, 0.0), 50.0)
        b = net.add_node(Vec2(10.0, 0.0), 50.0)
        from repro.sim import Simulator

        sim = Simulator()
        rng = RngStreams(5)
        faults = ChannelFaultModel(rng, duplicate_prob=0.95)
        radio = Radio(net, sim, rng=rng, faults=faults)
        plane = _CountingPlane()
        radio.data_plane = plane
        sent = sum(
            radio.send_data(a.node_id, b.node_id, f"frame-{i}") == "sent"
            for i in range(50)
        )
        sim.run()
        assert sent == 50  # lossless channel: duplication is the only knob
        assert len(plane.delivered) == 50
        assert len(set(plane.delivered)) == 50
        assert faults.duplicates_sent == 0


class TestGeneratedFromFailedRouter:
    DATA = {
        "config": {"ideal_radius": 100.0, "radius_tolerance": 25.0},
        "deployment": {
            "kind": "uniform",
            "field_radius": 200.0,
            "n_nodes": 40,
        },
        "traffic": {"duration": 10.0, "flows": {"rate": 0.1}},
    }

    @staticmethod
    def _ok_report(generated):
        outcomes = {name: 0 for name in TERMINAL_OUTCOMES}
        outcomes["delivered"] = generated
        outcomes["missing"] = 0
        return {
            "generated": generated,
            "outcomes": outcomes,
            "delivery_ratio": 1.0,
            "by_kind": {},
            "delay": {"mean": 1.0, "p50": 1.0, "p90": 2.0, "p99": 2.0, "max": 3.0},
            "hops": {"mean": 2.0, "max": 4},
            "stretch": {"p50": 1.1, "p90": 1.3, "max": 1.5},
            "relay": {
                "relaying_nodes": 3,
                "transmissions": 9,
                "max_load": 7,
                "top_hotspots": [],
            },
            "chaos_events": 0,
        }

    def test_generated_taken_from_any_successful_router(self, monkeypatch):
        import repro.traffic.runner as runner_mod

        def fake_run_router(data, seed, traffic, chaos, has_chaos, router, **kw):
            if router == "cell":
                return {"error": "initial configuration did not stabilise"}
            return self._ok_report(42)

        monkeypatch.setattr(runner_mod, "_run_router", fake_run_router)
        result = runner_mod.run_traffic_replicate({"data": self.DATA, "seed": 1})
        assert result["generated"] == 42  # not 0 from the failed first router

    def test_generated_zero_only_when_every_router_failed(self, monkeypatch):
        import repro.traffic.runner as runner_mod

        monkeypatch.setattr(
            runner_mod,
            "_run_router",
            lambda *a, **kw: {"error": "boom"},
        )
        result = runner_mod.run_traffic_replicate({"data": self.DATA, "seed": 1})
        assert result["generated"] == 0

    def test_summarize_surfaces_router_errors_distinctly(self):
        failed = {
            "seed": 1,
            "generated": 42,
            "routers": {
                "cell": {"error": "initial configuration did not stabilise"},
                "hybrid": self._ok_report(42),
            },
        }
        healthy = {
            "seed": 2,
            "generated": 40,
            "routers": {
                "cell": self._ok_report(40),
                "hybrid": self._ok_report(40),
            },
        }
        summary = summarize_traffic(
            [
                ReplicateOutcome(index=0, ok=True, result=failed),
                ReplicateOutcome(index=1, ok=True, result=healthy),
            ]
        )
        cell = summary["routers"]["cell"]
        assert cell["reports"] == 1
        assert cell["unconfigured"] == 1
        assert cell["errors"] == {
            "initial configuration did not stabilise": 1
        }
        assert cell["generated"] == 40  # the failed replicate is excluded
        hybrid = summary["routers"]["hybrid"]
        assert hybrid["unconfigured"] == 0
        assert "errors" not in hybrid  # emitted only when nonempty
