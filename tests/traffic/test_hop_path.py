"""The data plane's per-hop path: batched injection against one
injection per packet, the report's one-loop hop fold, and the records
a hop builds."""

import pickle

import pytest

from repro.core import GS3Config, Gs3DynamicSimulation
from repro.core.state import NodeStatus
from repro.net import ChannelFaultConfig, grid_jitter
from repro.sim import RngStreams
from repro.traffic import (
    DataFrame,
    ForwardingPlane,
    Packet,
    TrafficFold,
    fold_traffic_report,
)

CFG = GS3Config(ideal_radius=100.0, radius_tolerance=25.0)
#: Loss makes some transmissions drop; jitter makes every data send
#: draw from the sender's data jitter stream.
CHANNEL = ChannelFaultConfig(bernoulli_loss=0.1, latency_jitter=0.3)


def _inject_burst(batched: bool):
    """One burst unit from an associate whose head just died, injected
    batched or one packet at a time, then run out.

    The dead head makes the source hold the packets it cannot hand
    over directly (retries); loss drops some of the rest.  Returns the
    plane, the source and the next draw from the source's data jitter
    stream.
    """
    deployment = grid_jitter(240.0, 40.0, 6.0, RngStreams(77))
    sim = Gs3DynamicSimulation.from_deployment(
        deployment, CFG, seed=77, channel_faults=CHANNEL
    )
    sim.run_until_stable(window=60.0, max_time=20_000.0)
    network = sim.network
    src = min(
        node_id
        for node_id, node in sim.runtime.nodes.items()
        if node.alive
        and node.state.status is NodeStatus.ASSOCIATE
        and not network.node(node_id).is_big
    )
    sim.kill_node(sim.runtime.nodes[src].state.head_id)
    plane = ForwardingPlane(sim.runtime, {"router": "cell"})
    now = sim.now
    packets = []
    for pid, dst in enumerate(
        n.node_id for n in network.alive_nodes() if n.node_id != src
    ):
        pos = network.node(dst).position
        packets.append(Packet(pid, "burst", now, src, dst, (pos.x, pos.y)))
    if batched:
        plane.inject_batch(packets)
    else:
        for packet in packets:
            plane.inject(packet)
    sim.run_for(200.0)
    return plane, src, sim.runtime.radio.faults.data_latency(src)


class TestBatchedInjection:
    def test_batch_equals_one_injection_per_packet(self):
        batched, src, batched_draw = _inject_burst(batched=True)
        single, single_src, single_draw = _inject_burst(batched=False)
        assert src == single_src
        outcomes = [outcome for outcome, _ in batched.terminals.values()]
        # The case covers every branch of the batch: direct forwards,
        # channel drops and packets held for a retry.
        assert "delivered" in outcomes and "dropped" in outcomes
        assert batched.table.pid, "no packet was held for a retry"
        assert batched.terminals == single.terminals
        assert tuple(batched.hop_log.entries()) == tuple(
            single.hop_log.entries()
        )
        assert batched.relay_load == single.relay_load
        assert batched_draw == single_draw


def _packet(pid=0):
    return Packet(pid, "p2p", 0.0, 1, 2, (9.0, 0.0))


class TestFold:
    @pytest.mark.parametrize(
        "entries, message",
        [
            ([(0, 1, 1, 0.0, 0.0)], "starts at hop 1, not 0"),
            (
                [(0, 0, 1, 0.0, 0.0), (0, 2, 2, 3.0, 4.0)],
                "jumps from 0 to 2",
            ),
        ],
        ids=["late-start", "gap"],
    )
    def test_fold_raises_as_add_hop_does(self, entries, message):
        with pytest.raises(ValueError) as folded:
            fold_traffic_report([_packet()], {}, entries, {})
        fold = TrafficFold([_packet()])
        with pytest.raises(ValueError) as one_by_one:
            for entry in entries:
                fold.add_hop(*entry)
        assert message in str(folded.value)
        assert str(folded.value) == str(one_by_one.value)

    def test_fold_equals_one_add_hop_per_entry(self):
        packets = [_packet(0), _packet(1)]
        entries = [
            (0, 0, 1, 0.0, 0.0),
            (1, 0, 1, 0.0, 0.0),
            (0, 1, 5, 3.0, 4.0),
            (1, 1, 2, 9.0, 0.0),
            (0, 2, 2, 9.0, 0.0),
        ]
        terminals = {0: ("delivered", 4.0), 1: ("delivered", 2.5)}
        fold = TrafficFold(packets)
        for entry in entries:
            fold.add_hop(*entry)
        for pid, (outcome, time) in terminals.items():
            fold.add_terminal(pid, outcome, time)
        assert fold_traffic_report(
            packets, terminals, entries, {1: 2, 5: 1}
        ) == fold.finish({1: 2, 5: 1})


class TestRecords:
    def test_packet_and_frame_survive_a_pickle_round_trip(self):
        packet = _packet(7)
        frame = DataFrame(packet, 31, (1, 5), 2, 3)
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(packet, protocol)) == packet
            assert pickle.loads(pickle.dumps(frame, protocol)) == frame
