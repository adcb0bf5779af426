"""Tests for the adversarial channel fault model and its radio wiring."""

import pytest

from repro.geometry import Vec2
from repro.net import (
    ChannelFaultConfig,
    ChannelFaultModel,
    GilbertElliottConfig,
    JamWindow,
    Network,
    Radio,
)
from repro.sim import RngStreams, Simulator, Tracer


def make_net(positions, max_range=50.0):
    net = Network(cell_size=max_range)
    nodes = [net.add_node(Vec2(*p), max_range) for p in positions]
    return net, nodes


def broadcast_deliveries(radio, sim, sender, receivers, payload="x"):
    """Run one broadcast to completion; returns [(receiver_id, payload)]."""
    received = []
    for node in receivers:
        radio.register(
            node.node_id,
            lambda p, s, nid=node.node_id: received.append((nid, p)),
        )
    radio.broadcast(sender.node_id, payload, tx_range=200.0)
    sim.run()
    return received


class TestDegenerateBernoulli:
    def test_matches_legacy_broadcast_loss_draw_for_draw(self):
        """`broadcast_loss=p` and `bernoulli_loss=p` are the same channel."""
        positions = [(0, 0)] + [(5 * i, 3 * i) for i in range(1, 9)]
        outcomes = []
        for build in ("legacy", "model"):
            net, nodes = make_net(positions)
            sim = Simulator()
            if build == "legacy":
                radio = Radio(
                    net, sim, rng=RngStreams(5), broadcast_loss=0.5
                )
            else:
                radio = Radio(
                    net,
                    sim,
                    faults=ChannelFaultConfig(bernoulli_loss=0.5).build(
                        RngStreams(5)
                    ),
                )
            outcomes.append(
                sorted(broadcast_deliveries(radio, sim, nodes[0], nodes[1:]))
            )
        assert outcomes[0] == outcomes[1]
        assert 0 < len(outcomes[0]) < 8  # the loss actually bit

    def test_is_degenerate_property(self):
        model = ChannelFaultModel(RngStreams(1), bernoulli_loss=0.1)
        assert model.is_degenerate_bernoulli
        model.add_jam_window(
            JamWindow(start=0.0, end=1.0, center=Vec2(0, 0), radius=1.0)
        )
        assert not model.is_degenerate_bernoulli


class TestGilbertElliott:
    def test_stationary_loss(self):
        ge = GilbertElliottConfig(
            p_enter_burst=0.02, p_exit_burst=0.3, loss_bad=0.8
        )
        assert ge.stationary_loss() == pytest.approx(
            0.8 * 0.02 / 0.32
        )
        quiet = GilbertElliottConfig(
            p_enter_burst=0.0, p_exit_burst=0.0, loss_good=0.25
        )
        assert quiet.stationary_loss() == 0.25

    def test_deterministic_alternation(self):
        """p_enter = p_exit = 1 flips state every delivery: the drop
        pattern is exactly good, bad, good, bad, ..."""
        model = ChannelFaultModel(
            RngStreams(3),
            gilbert_elliott=GilbertElliottConfig(
                p_enter_burst=1.0, p_exit_burst=1.0
            ),
        )
        a, b = Vec2(0, 0), Vec2(1, 0)
        fates = [model.drop_broadcast(0.0, a, b, 0) for _ in range(6)]
        assert fates == [False, True, False, True, False, True]
        assert model.loss_drops == 3

    def test_losses_cluster_in_bursts(self):
        """At matched average loss, the bursty chain produces longer
        loss runs than the memoryless channel."""

        def max_run(model, n=4000):
            a, b = Vec2(0, 0), Vec2(1, 0)
            longest = run = 0
            for _ in range(n):
                if model.drop_broadcast(0.0, a, b, 0):
                    run += 1
                    longest = max(longest, run)
                else:
                    run = 0
            return longest

        bursty = ChannelFaultModel(
            RngStreams(9),
            gilbert_elliott=GilbertElliottConfig(
                p_enter_burst=0.01, p_exit_burst=0.1
            ),
        )
        memoryless = ChannelFaultModel(RngStreams(9), bernoulli_loss=0.09)
        assert max_run(bursty) > max_run(memoryless)


class TestJamWindows:
    def test_drops_inside_window_and_expires(self):
        model = ChannelFaultModel(RngStreams(1))
        model.add_jam_window(
            JamWindow(start=10.0, end=20.0, center=Vec2(0, 0), radius=50.0)
        )
        inside, outside = Vec2(10, 0), Vec2(500, 0)
        assert not model.drop_broadcast(5.0, inside, inside, 0)
        assert model.drop_broadcast(15.0, inside, outside, 0)  # sender jammed
        assert model.drop_broadcast(15.0, outside, inside, 0)  # receiver jammed
        assert not model.drop_broadcast(15.0, outside, outside, 0)
        assert not model.drop_broadcast(20.0, inside, inside, 0)  # end-exclusive
        assert model.jam_drops == 2

    def test_jam_consumes_no_randomness(self):
        """Jam drops must not perturb the loss stream: the post-jam drop
        pattern equals an un-jammed run's pattern."""
        a, b = Vec2(0, 0), Vec2(1, 0)

        def pattern(jammed):
            model = ChannelFaultModel(RngStreams(7), bernoulli_loss=0.4)
            if jammed:
                model.add_jam_window(
                    JamWindow(
                        start=0.0, end=1.0, center=Vec2(0, 0), radius=10.0
                    )
                )
                for _ in range(5):
                    assert model.drop_broadcast(0.5, a, b, 0)
            return [model.drop_broadcast(2.0, a, b, 0) for _ in range(40)]

        assert pattern(jammed=True) == pattern(jammed=False)

    def test_expired_windows_pruned_on_add(self):
        model = ChannelFaultModel(RngStreams(1))
        model.add_jam_window(
            JamWindow(start=0.0, end=10.0, center=Vec2(0, 0), radius=1.0)
        )
        model.add_jam_window(
            JamWindow(start=50.0, end=60.0, center=Vec2(0, 0), radius=1.0)
        )
        assert len(model.jam_windows) == 1
        assert model.jam_windows[0].start == 50.0

    def test_rejects_degenerate_window(self):
        with pytest.raises(ValueError):
            JamWindow(start=5.0, end=5.0, center=Vec2(0, 0), radius=1.0)
        with pytest.raises(ValueError):
            JamWindow(start=0.0, end=5.0, center=Vec2(0, 0), radius=0.0)


class TestLatencyJitterAndDuplication:
    def test_broadcast_jitter_within_bounds(self):
        net, nodes = make_net([(0, 0), (10, 0)])
        sim = Simulator()
        radio = Radio(
            net,
            sim,
            faults=ChannelFaultConfig(latency_jitter=0.5).build(RngStreams(4)),
        )
        arrivals = []
        radio.register(nodes[1].node_id, lambda p, s: arrivals.append(sim.now))
        latencies = []
        for _ in range(30):
            sim_now = sim.now
            radio.broadcast(nodes[0].node_id, "x", tx_range=50.0)
            sim.run()
            latencies.append(arrivals[-1] - sim_now)
        assert all(1.0 <= lat <= 1.5 for lat in latencies)
        assert len({round(lat, 9) for lat in latencies}) > 1  # jitter varied

    def test_unicast_jitter_but_reliable(self):
        """Unicast never drops under a lossy model, but jitters."""
        net, nodes = make_net([(0, 0), (10, 0)])
        sim = Simulator()
        radio = Radio(
            net,
            sim,
            faults=ChannelFaultConfig(
                bernoulli_loss=0.9, latency_jitter=0.5
            ).build(RngStreams(4)),
        )
        arrivals = []
        radio.register(nodes[1].node_id, lambda p, s: arrivals.append(sim.now))
        for i in range(50):
            start = sim.now
            assert radio.unicast(nodes[0].node_id, nodes[1].node_id, i)
            sim.run()
            assert 1.0 <= arrivals[-1] - start <= 1.5
        assert len(arrivals) == 50  # every send delivered despite loss=0.9

    def test_duplication_delivers_twice_counts_once(self):
        net, nodes = make_net([(0, 0), (10, 0)])
        sim = Simulator()
        tracer = Tracer()
        radio = Radio(
            net,
            sim,
            tracer=tracer,
            faults=ChannelFaultConfig(duplicate_prob=1.0).build(RngStreams(4)),
        )
        received = []
        radio.register(nodes[1].node_id, lambda p, s: received.append(p))
        count = radio.broadcast(nodes[0].node_id, "x", tx_range=50.0)
        sim.run()
        assert count == 1  # duplicates don't inflate the return value
        assert received == ["x", "x"]
        assert tracer.count("msg.duplicate") == 1
        assert radio.faults.duplicates_sent == 1


class TestRadioWiring:
    def test_msg_lost_carries_sender(self):
        net, nodes = make_net([(0, 0), (10, 0)])
        sim = Simulator()
        tracer = Tracer()
        radio = Radio(
            net,
            sim,
            tracer=tracer,
            faults=ChannelFaultConfig(bernoulli_loss=1.0).build(RngStreams(1)),
        )
        radio.register(nodes[1].node_id, lambda p, s: None)
        radio.broadcast(nodes[0].node_id, "x", tx_range=50.0)
        sim.run()
        lost = list(tracer.by_category("msg.lost"))
        assert len(lost) == 1
        assert lost[0].node == nodes[1].node_id
        assert lost[0].detail("sender") == nodes[0].node_id

    def test_faults_and_broadcast_loss_mutually_exclusive(self):
        net, _ = make_net([(0, 0)])
        with pytest.raises(ValueError):
            Radio(
                net,
                Simulator(),
                broadcast_loss=0.1,
                faults=ChannelFaultConfig(bernoulli_loss=0.1).build(
                    RngStreams(1)
                ),
            )

    def test_ensure_fault_model_is_transparent_and_sticky(self):
        net, nodes = make_net([(0, 0), (10, 0)])
        sim = Simulator()
        radio = Radio(net, sim)
        assert radio.faults is None
        model = radio.ensure_fault_model()
        assert radio.ensure_fault_model() is model
        received = []
        radio.register(nodes[1].node_id, lambda p, s: received.append(p))
        radio.broadcast(nodes[0].node_id, "x", tx_range=50.0)
        sim.run()
        assert received == ["x"]  # transparent until windows arrive


class TestChannelFaultConfig:
    def test_from_dict_round_trip(self):
        data = {
            "gilbert_elliott": {
                "p_enter_burst": 0.02,
                "p_exit_burst": 0.3,
                "loss_bad": 0.8,
            },
            "latency_jitter": 0.25,
            "duplicate_prob": 0.01,
            "jam_windows": [
                {
                    "start": 10.0,
                    "end": 20.0,
                    "center": [5.0, -5.0],
                    "radius": 30.0,
                }
            ],
        }
        config = ChannelFaultConfig.from_dict(data)
        assert ChannelFaultConfig.from_dict(config.to_dict()) == config

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown channel fault keys"):
            ChannelFaultConfig.from_dict({"bernouli_loss": 0.1})

    def test_rejects_both_loss_models(self):
        with pytest.raises(ValueError, match="not both"):
            ChannelFaultConfig(
                bernoulli_loss=0.1,
                gilbert_elliott=GilbertElliottConfig(
                    p_enter_burst=0.1, p_exit_burst=0.1
                ),
            )

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            ChannelFaultConfig(bernoulli_loss=1.5)
        with pytest.raises(ValueError):
            ChannelFaultConfig(latency_jitter=-1.0)
        with pytest.raises(ValueError):
            GilbertElliottConfig(p_enter_burst=2.0, p_exit_burst=0.1)
