"""Tests for the radio and the channel reservation manager."""

import pytest

from repro.geometry import Vec2
from repro.net import LocalChannel, Network, Radio
from repro.sim import RngStreams, Simulator, Tracer


def make_net(positions, max_range=50.0):
    net = Network(cell_size=max_range)
    nodes = [net.add_node(Vec2(*p), max_range) for p in positions]
    return net, nodes


class TestBroadcast:
    def test_delivers_within_range(self):
        net, nodes = make_net([(0, 0), (10, 0), (100, 0)])
        sim = Simulator()
        radio = Radio(net, sim)
        received = []
        for node in nodes:
            radio.register(
                node.node_id,
                lambda payload, sender, nid=node.node_id: received.append(
                    (nid, payload, sender)
                ),
            )
        count = radio.broadcast(nodes[0].node_id, "hello", tx_range=20.0)
        sim.run()
        assert count == 1
        assert received == [(nodes[1].node_id, "hello", nodes[0].node_id)]

    def test_sender_does_not_hear_itself(self):
        net, nodes = make_net([(0, 0)])
        sim = Simulator()
        radio = Radio(net, sim)
        received = []
        radio.register(nodes[0].node_id, lambda p, s: received.append(p))
        radio.broadcast(nodes[0].node_id, "x", tx_range=20.0)
        sim.run()
        assert received == []

    def test_range_capped_by_max_range(self):
        net, nodes = make_net([(0, 0), (30, 0)], max_range=20.0)
        sim = Simulator()
        radio = Radio(net, sim)
        received = []
        radio.register(nodes[1].node_id, lambda p, s: received.append(p))
        radio.broadcast(nodes[0].node_id, "x", tx_range=100.0)
        sim.run()
        assert received == []

    def test_dead_sender_sends_nothing(self):
        net, nodes = make_net([(0, 0), (10, 0)])
        net.kill_node(nodes[0].node_id)
        sim = Simulator()
        radio = Radio(net, sim)
        assert radio.broadcast(nodes[0].node_id, "x", tx_range=20.0) == 0

    def test_dead_receiver_skipped(self):
        net, nodes = make_net([(0, 0), (10, 0)])
        net.kill_node(nodes[1].node_id)
        sim = Simulator()
        radio = Radio(net, sim)
        received = []
        radio.register(nodes[1].node_id, lambda p, s: received.append(p))
        radio.broadcast(nodes[0].node_id, "x", tx_range=20.0)
        sim.run()
        assert received == []

    def test_receiver_dying_in_flight_misses_message(self):
        net, nodes = make_net([(0, 0), (10, 0)])
        sim = Simulator()
        radio = Radio(net, sim)
        received = []
        radio.register(nodes[1].node_id, lambda p, s: received.append(p))
        radio.broadcast(nodes[0].node_id, "x", tx_range=20.0)
        net.kill_node(nodes[1].node_id)  # before delivery event fires
        sim.run()
        assert received == []

    def test_delivery_takes_hop_latency(self):
        net, nodes = make_net([(0, 0), (10, 0)])
        sim = Simulator()
        radio = Radio(net, sim, hop_latency=2.5)
        times = []
        radio.register(nodes[1].node_id, lambda p, s: times.append(sim.now))
        radio.broadcast(nodes[0].node_id, "x", tx_range=20.0)
        sim.run()
        assert times == [2.5]

    def test_broadcast_loss(self):
        net, nodes = make_net([(0, 0)] + [(10, i * 0.1) for i in range(200)])
        sim = Simulator()
        radio = Radio(
            net,
            sim,
            rng=RngStreams(7),
            broadcast_loss=0.5,
        )
        received = []
        for node in nodes[1:]:
            radio.register(node.node_id, lambda p, s: received.append(p))
        radio.broadcast(nodes[0].node_id, "x", tx_range=50.0)
        sim.run()
        # Roughly half should arrive; loose bounds to avoid flakiness.
        assert 60 <= len(received) <= 140

    def test_invalid_loss_rejected(self):
        net, _ = make_net([(0, 0)])
        with pytest.raises(ValueError):
            Radio(net, Simulator(), broadcast_loss=1.0)

    def test_message_counters(self):
        net, nodes = make_net([(0, 0), (10, 0)])
        sim = Simulator()
        tracer = Tracer()
        radio = Radio(net, sim, tracer=tracer)
        radio.register(nodes[1].node_id, lambda p, s: None)
        radio.broadcast(nodes[0].node_id, "x", tx_range=20.0)
        sim.run()
        assert tracer.count("msg.broadcast") == 1
        assert tracer.count("msg.deliver") == 1


class TestUnicast:
    def test_reliable_within_range(self):
        net, nodes = make_net([(0, 0), (10, 0)])
        sim = Simulator()
        radio = Radio(net, sim)
        received = []
        radio.register(nodes[1].node_id, lambda p, s: received.append((p, s)))
        ok = radio.unicast(nodes[0].node_id, nodes[1].node_id, "msg")
        sim.run()
        assert ok
        assert received == [("msg", nodes[0].node_id)]

    def test_out_of_range_fails(self):
        net, nodes = make_net([(0, 0), (100, 0)], max_range=20.0)
        sim = Simulator()
        radio = Radio(net, sim)
        assert not radio.unicast(nodes[0].node_id, nodes[1].node_id, "x")

    def test_dead_destination_fails(self):
        net, nodes = make_net([(0, 0), (10, 0)])
        net.kill_node(nodes[1].node_id)
        radio = Radio(net, Simulator())
        assert not radio.unicast(nodes[0].node_id, nodes[1].node_id, "x")

    def test_unknown_destination_fails(self):
        net, nodes = make_net([(0, 0)])
        radio = Radio(net, Simulator())
        assert not radio.unicast(nodes[0].node_id, 999, "x")

    def test_unregistered_receiver_drops_silently(self):
        net, nodes = make_net([(0, 0), (10, 0)])
        sim = Simulator()
        radio = Radio(net, sim)
        assert radio.unicast(nodes[0].node_id, nodes[1].node_id, "x")
        sim.run()  # must not raise


class TestChannelManager:
    """HEAD_ORG reservations with the mediator on the same simulator."""

    def test_grant_when_free(self):
        sim = Simulator()
        manager = LocalChannel(sim, 1.0)
        granted = []
        manager.request(1, Vec2(0, 0), 10.0, lambda lease: granted.append(1))
        sim.run()
        assert granted == [1]

    def test_conflicting_request_waits(self):
        sim = Simulator()
        manager = LocalChannel(sim, 1.0)
        order = []
        first_leases = []

        def on_first(lease):
            order.append("first")
            first_leases.append(lease)

        manager.request(1, Vec2(0, 0), 10.0, on_first)
        manager.request(2, Vec2(5, 0), 10.0, lambda l: order.append("second"))
        sim.run()
        assert order == ["first"]
        manager.release(first_leases[0])
        sim.run()
        assert order == ["first", "second"]

    def test_non_conflicting_requests_run_concurrently(self):
        sim = Simulator()
        manager = LocalChannel(sim, 1.0)
        granted = []
        leases = [
            manager.request(1, Vec2(0, 0), 10.0, lambda l: granted.append(1)),
            manager.request(2, Vec2(100, 0), 10.0, lambda l: granted.append(2)),
        ]
        sim.run()
        assert sorted(granted) == [1, 2]
        assert all(lease.active for lease in leases)

    def test_cancel_before_grant(self):
        sim = Simulator()
        manager = LocalChannel(sim, 1.0)
        granted = []
        blocker_leases = []
        manager.request(
            1, Vec2(0, 0), 10.0, lambda lease: blocker_leases.append(lease)
        )
        waiting = manager.request(
            2, Vec2(5, 0), 10.0, lambda l: granted.append(2)
        )
        sim.run()
        manager.release(waiting)  # cancel while queued
        manager.release(blocker_leases[0])
        sim.run()
        assert granted == []
        assert not waiting.active and not blocker_leases[0].active

    def test_release_idempotent(self):
        sim = Simulator()
        manager = LocalChannel(sim, 1.0)
        leases = []
        manager.request(1, Vec2(0, 0), 10.0, leases.append)
        sim.run()
        manager.release(leases[0])
        manager.release(leases[0])
        sim.run()
        assert leases[0].released and not leases[0].active
        # The second release sent nothing: a new request is granted.
        manager.request(2, Vec2(0, 0), 10.0, leases.append)
        sim.run()
        assert len(leases) == 2 and leases[1].active

    def test_fifo_among_conflicting(self):
        sim = Simulator()
        manager = LocalChannel(sim, 1.0)
        order = []
        leases = {}

        def grab(tag):
            def on_grant(lease):
                order.append(tag)
                leases[tag] = lease

            return on_grant

        manager.request(1, Vec2(0, 0), 10.0, grab("a"))
        manager.request(2, Vec2(1, 0), 10.0, grab("b"))
        manager.request(3, Vec2(2, 0), 10.0, grab("c"))
        sim.run()
        manager.release(leases["a"])
        sim.run()
        manager.release(leases["b"])
        sim.run()
        assert order == ["a", "b", "c"]

    def test_grants_take_effect_one_lookahead_later(self):
        """Request at t, grant at t + lookahead; a release frees the
        next lease one lookahead after it is made, keyed in the channel
        lane."""
        sim = Simulator()
        manager = LocalChannel(sim, 2.0)
        times = []
        leases = []

        def on_grant(lease):
            times.append(sim.now)
            leases.append(lease)

        manager.request(1, Vec2(0, 0), 10.0, on_grant)
        manager.request(2, Vec2(1, 0), 10.0, on_grant)
        sim.run()
        assert times == [2.0]
        sim.schedule(3.0, lambda: manager.release(leases[0]))
        sim.run()
        assert times == [2.0, 7.0]

class _RecordingPlane:
    """Takes every ``str`` payload (the frames below are strings);
    records (time, payload, dest, sender)."""

    frame_type = str

    def __init__(self, sim):
        self.sim = sim
        self.frames = []

    def on_frame(self, payload, dest_id, sender_id):
        self.frames.append((self.sim.now, payload, dest_id, sender_id))


class TestSendDataBatch:
    """send_data_batch == send_data item-by-item, draw-for-draw."""

    POSITIONS = [(0, 0), (10, 0), (20, 10), (120, 0)]

    def _rig(self, seed=11, kill=None):
        from repro.net import ChannelFaultModel
        from repro.sim import RngStreams

        net, nodes = make_net(self.POSITIONS)
        sim = Simulator()
        rng = RngStreams(seed)
        faults = ChannelFaultModel(
            rng, bernoulli_loss=0.3, latency_jitter=0.4
        )
        radio = Radio(net, sim, rng=rng, faults=faults)
        plane = _RecordingPlane(sim)
        radio.data_plane = plane
        if kill is not None:
            net.kill_node(nodes[kill].node_id)
        return net, nodes, sim, radio, plane

    def _items(self, nodes):
        # Mix of reachable, out-of-range, and repeated destinations.
        return [
            (nodes[1].node_id, "f0"),
            (nodes[3].node_id, "f1"),  # out of range
            (nodes[2].node_id, "f2"),
            (nodes[1].node_id, "f3"),
            (nodes[2].node_id, "f4"),
        ]

    def test_matches_sequential_send_data(self):
        _, nodes_a, sim_a, radio_a, plane_a = self._rig()
        _, nodes_b, sim_b, radio_b, plane_b = self._rig()
        sender = nodes_a[0].node_id
        seq = [
            radio_a.send_data(sender, dest, payload)
            for dest, payload in self._items(nodes_a)
        ]
        batch = radio_b.send_data_batch(sender, self._items(nodes_b))
        assert batch == seq
        assert "dropped" in seq or "sent" in seq  # channel exercised
        assert "unreachable" in seq
        sim_a.run()
        sim_b.run()
        assert plane_b.frames == plane_a.frames  # same payloads, same times

    def test_dead_sender_short_circuits(self):
        _, nodes, _, radio, plane = self._rig(kill=0)
        outcomes = radio.send_data_batch(
            nodes[0].node_id, self._items(nodes)
        )
        assert outcomes == ["sender_dead"] * 5
        assert plane.frames == []

    def test_dead_destination_unreachable(self):
        _, nodes, sim, radio, _ = self._rig(kill=1)
        outcomes = radio.send_data_batch(
            nodes[0].node_id, [(nodes[1].node_id, "x")]
        )
        assert outcomes == ["unreachable"]
