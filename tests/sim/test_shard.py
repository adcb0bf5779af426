"""Sharded execution: the byte-identity differential suite.

The contract under test (DESIGN.md § 9): a run at ``shards=N`` is
byte-identical to the unsharded in-process run — same
``state_digest``, same trace multiset, same scenario/chaos verdicts —
for every N and for both the inline and process-pool executors.
"""

import json
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Gs3DynamicSimulation
from repro.core.config import GS3Config
from repro.geometry import HexLattice, Vec2
from repro.net import deployment_from_spec
from repro.net.faults import ChannelFaultConfig
from repro.sim import RngStreams, state_digest
from repro.sim.engine import (
    CHANNEL_LANE,
    DATA_LANE_BASE,
    DRIVER_BASE,
    EXTERNAL_LANE,
    SimulationError,
)
from repro.sim.shard import (
    ShardedSimulation,
    ShardError,
    plan_partition,
    shard_seed,
)

CONFIG = GS3Config(ideal_radius=100.0, radius_tolerance=25.0)
DEPLOYMENT = {"kind": "uniform", "field_radius": 170.0, "n_nodes": 80}


def _trace_multiset(sim) -> Counter:
    return Counter(
        (r.time, r.category, r.node, r.details) for r in sim.tracer.records
    )


def _fingerprint(sim):
    """Everything the identity contract covers, as one comparable value.

    ``executed_events`` is deliberately absent: it counts *physical*
    events per shard, and a driver op replicated into mirror shards
    adds a few extra executions at higher shard counts without touching
    protocol state.  The contract is over protocol-visible state (the
    digest), the trace multiset, and verdicts.
    """
    return (
        state_digest(sim.snapshot()),
        sim.now,
        _trace_multiset(sim),
    )


def _drive(sim, perturb=True):
    """A fixed campaign: settle, batter the structure, settle again."""
    sim.start()
    sim.run_for(160.0)
    if perturb:
        snapshot = sim.snapshot()
        victim = next(
            v.node_id for v in snapshot.heads.values() if not v.is_big
        )
        sim.kill_node(victim)
        sim.run_for(80.0)
        sim.kill_region(Vec2(60.0, 40.0), 45.0)
        sim.run_for(80.0)
        joined = sim.add_node(Vec2(-40.0, 55.0))
        sim.corrupt_node(joined)
        sim.jam_region(Vec2(0.0, 0.0), 50.0, 40.0)
        sim.run_for(120.0)
    return _fingerprint(sim)


#: A field wide enough that shards hold only part of it: at two shards
#: 56 of its 301 nodes live in one stripe only.
WIDE = {"kind": "uniform", "field_radius": 400.0, "n_nodes": 300}


def _drive_wide(sim):
    """Ops that reach only some of the shards.

    The join at (-350, 20) lands in one stripe at two shards and in two
    stripes at four; moving node 3 by -40 in x adds a mirror stripe at
    both counts.
    """
    sim.start()
    sim.run_for(160.0)
    heads = sorted(
        v.node_id for v in sim.snapshot().heads.values() if not v.is_big
    )
    sim.kill_node(heads[0])
    sim.run_for(40.0)
    sim.kill_region(Vec2(250.0, 0.0), 50.0)
    sim.run_for(40.0)
    sim.revive_node(heads[0])
    sim.add_node(Vec2(-350.0, 20.0))
    sim.run_for(40.0)
    sim.corrupt_node(heads[-1])
    position = sim.network.node(3).position
    sim.move_node(3, Vec2(position.x - 40.0, position.y))
    sim.jam_region(Vec2(0.0, 0.0), 80.0, 40.0)
    sim.run_for(120.0)
    return _fingerprint(sim)


def _unsharded(spec, seed, channel=None):
    """The in-process run a ``ShardedSimulation`` must reproduce."""
    return Gs3DynamicSimulation.from_deployment(
        deployment_from_spec(spec, RngStreams(seed)),
        CONFIG,
        seed=seed,
        channel_faults=channel,
    )


def _run(shards, executor="inline", channel=None, seed=7, perturb=True):
    """Drive one run; ``shards=None`` is the unsharded in-process run."""
    if shards is None:
        return _drive(_unsharded(DEPLOYMENT, seed, channel), perturb)
    sim = ShardedSimulation(
        DEPLOYMENT,
        CONFIG,
        seed=seed,
        shards=shards,
        executor=executor,
        channel=channel,
    )
    try:
        return _drive(sim, perturb=perturb)
    finally:
        sim.close()


class TestByteIdentity:
    def test_shard_counts_agree_inline(self):
        baseline = _run(None)
        assert _run(1) == baseline
        assert _run(2) == baseline
        assert _run(4) == baseline

    def test_process_executor_agrees_with_inline(self):
        assert _run(3, executor="process") == _run(3, executor="inline")

    def test_identity_under_channel_faults(self):
        channel = ChannelFaultConfig.from_dict(
            {"latency_jitter": 0.3, "duplicate_prob": 0.02}
        )
        baseline = _run(None, channel=channel)
        assert _run(1, channel=channel) == baseline
        assert _run(2, channel=channel) == baseline
        assert _run(4, channel=channel) == baseline

    def test_identity_without_perturbations(self):
        baseline = _run(None, perturb=False)
        assert _run(1, perturb=False) == baseline
        assert _run(2, perturb=False) == baseline

    def test_partial_presence_agrees(self):
        """Ops that reach only some shards: kill, region kill, revive,
        a one-stripe join, corrupt, a move that adds a mirror stripe,
        and a jam."""
        baseline = _drive_wide(_unsharded(WIDE, 7))
        for shards in (2, 4):
            sim = ShardedSimulation(WIDE, CONFIG, seed=7, shards=shards)
            try:
                assert _drive_wide(sim) == baseline
            finally:
                sim.close()

    def test_process_executor_overlaps_multi_shard_ops(self, monkeypatch):
        """A driver op reaching several shards is sent to all of them
        before the first reply is read, and the run still equals the
        inline executor's."""
        import repro.sim.shard as shard_module

        inline = _drive_wide(ShardedSimulation(WIDE, CONFIG, seed=7, shards=4))
        frames = []
        send, recv = shard_module.send_frame, shard_module.recv_frame

        def logged_send(conn, msg, *args, **kwargs):
            frames.append("send")
            return send(conn, msg, *args, **kwargs)

        def logged_recv(conn, *args, **kwargs):
            reply = recv(conn, *args, **kwargs)
            frames.append("recv")
            return reply

        ops = []
        drive = ShardedSimulation._drive

        def marked(self, kind, desc):
            start = len(frames)
            result = drive(self, kind, desc)
            ops.append(frames[start:])
            return result

        monkeypatch.setattr(shard_module, "send_frame", logged_send)
        monkeypatch.setattr(shard_module, "recv_frame", logged_recv)
        monkeypatch.setattr(ShardedSimulation, "_drive", marked)
        sim = ShardedSimulation(WIDE, CONFIG, seed=7, shards=4,
                                executor="process")
        try:
            assert _drive_wide(sim) == inline
        finally:
            sim.close()
        assert any(op.count("send") > 1 for op in ops)
        for op in ops:
            assert op == ["send"] * (len(op) // 2) + ["recv"] * (len(op) // 2)

    def test_different_seeds_diverge(self):
        # Sanity: the fingerprint is sensitive enough to catch drift.
        assert _run(1, seed=7) != _run(1, seed=8)


class TestByteIdentityRandomized:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_nodes=st.integers(min_value=40, max_value=90),
        shards=st.sampled_from([2, 3, 4]),
        churn=st.lists(
            st.sampled_from(["kill", "revive", "join", "corrupt", "jam"]),
            min_size=0,
            max_size=3,
        ),
    )
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_topology_and_churn(self, seed, n_nodes, shards, churn):
        """Random deployments and churn sequences: N shards == 1 shard
        == the unsharded run."""
        spec = {
            "kind": "uniform",
            "field_radius": 160.0,
            "n_nodes": n_nodes,
        }

        def campaign(n):
            sim = (
                _unsharded(spec, seed)
                if n is None
                else ShardedSimulation(
                    spec, CONFIG, seed=seed, shards=n, executor="inline"
                )
            )
            try:
                sim.start()
                sim.run_for(150.0)
                rng = RngStreams(seed ^ 0x5EED).stream("test.churn")
                for action in churn:
                    if action == "kill":
                        alive = [
                            n.node_id
                            for n in sim.network.alive_nodes()
                            if not n.is_big
                        ]
                        if alive:
                            sim.kill_node(rng.choice(alive))
                    elif action == "revive":
                        dead = sorted(
                            n.node_id for n in sim.network if not n.alive
                        )
                        if dead:
                            sim.revive_node(rng.choice(dead))
                    elif action == "join":
                        sim.add_node(
                            Vec2(
                                rng.uniform(-100.0, 100.0),
                                rng.uniform(-100.0, 100.0),
                            )
                        )
                    elif action == "corrupt":
                        alive = [
                            n.node_id
                            for n in sim.network.alive_nodes()
                            if not n.is_big
                        ]
                        if alive:
                            sim.corrupt_node(rng.choice(alive))
                    elif action == "jam":
                        sim.jam_region(
                            Vec2(rng.uniform(-80, 80), rng.uniform(-80, 80)),
                            40.0,
                            30.0,
                        )
                    sim.run_for(40.0)
                return _fingerprint(sim)
            finally:
                getattr(sim, "close", lambda: None)()

        baseline = campaign(None)
        assert campaign(1) == baseline
        assert campaign(shards) == baseline


class TestSameTimeInjections:
    """Injector events armed at one instant after a run apply in
    arming order, unsharded and sharded alike."""

    def _campaign(self, shards):
        from repro.perturb.events import NodeJoin, NodeLeave, NodeRejoin
        from repro.perturb.injector import PerturbationInjector

        sim = (
            _unsharded(DEPLOYMENT, 7)
            if shards is None
            else ShardedSimulation(
                DEPLOYMENT, CONFIG, seed=7, shards=shards, executor="inline"
            )
        )
        try:
            sim.start()
            sim.run_for(160.0)
            victim = next(
                n.node_id for n in sim.network.alive_nodes() if not n.is_big
            )
            first_id = max(sim.network.node_ids()) + 1
            t = sim.now + 10.0
            PerturbationInjector(sim).schedule(
                [
                    NodeLeave(time=t, node_id=victim),
                    NodeRejoin(time=t, node_id=victim),
                    NodeJoin(time=t + 5.0, position=Vec2(-40.0, 55.0)),
                    NodeJoin(time=t + 5.0, position=Vec2(40.0, -55.0)),
                ]
            )
            sim.run_for(100.0)
            assert sim.network.node(victim).alive
            assert sim.network.node(first_id).position == Vec2(-40.0, 55.0)
            assert sim.network.node(first_id + 1).position == Vec2(
                40.0, -55.0
            )
            return _fingerprint(sim)
        finally:
            getattr(sim, "close", lambda: None)()

    def test_arming_order_and_identity(self):
        baseline = self._campaign(None)
        assert self._campaign(2) == baseline


class TestOneSnapshotPerCheck:
    def test_stabilize_queries_the_shards_once(self, monkeypatch):
        """The invariant check gets the structure and the gap cells
        from one snapshot round trip."""
        from repro.sim.shard import _InlineExecutor

        queries = []
        original = _InlineExecutor.query_all

        def counting(self, what, arg=None):
            queries.append(what)
            return original(self, what, arg)

        monkeypatch.setattr(_InlineExecutor, "query_all", counting)
        sim = ShardedSimulation(DEPLOYMENT, CONFIG, seed=7, shards=2)
        try:
            report = sim.stabilize(window=50.0, max_time=2_000.0)
        finally:
            sim.close()
        assert report.healed
        assert queries.count("snapshot") == 1


class TestScenarioAndChaosWiring:
    def test_scenario_replicate_identical_across_shards(self):
        from repro.scenario import run_scenario_replicate

        data = {
            "seed": 7,
            "config": {"ideal_radius": 100.0, "radius_tolerance": 25.0},
            "deployment": DEPLOYMENT,
            "settle_window": 90.0,
            "perturbations": [
                {"kind": "kill_head", "at": 200.0},
                {"kind": "join", "at": 400.0, "position": [30.0, 20.0]},
            ],
        }
        payloads = {}
        for shards in (None, 1, 4):
            d = dict(data)
            if shards is not None:
                d["shards"] = shards
            payloads[shards] = json.dumps(
                run_scenario_replicate({"data": d, "seed": 7}),
                sort_keys=True,
            )
        assert payloads[None] == payloads[1] == payloads[4]

    def test_chaos_verdict_identical_and_heals(self):
        from repro.perturb.chaos import run_chaos_replicate

        data = {
            "config": {"ideal_radius": 100.0, "radius_tolerance": 25.0},
            "deployment": DEPLOYMENT,
            "chaos": {
                "duration": 150.0,
                "kill_rate": 0.004,
                "join_rate": 0.002,
                "jam_rate": 0.002,
                "jam_radius": 40.0,
                "jam_duration": 40.0,
                "settle_window": 90.0,
                "heal_budget": 20000.0,
            },
        }
        verdicts = {}
        for shards in (None, 1, 4):
            d = dict(data)
            if shards is not None:
                d["shards"] = shards
            verdicts[shards] = run_chaos_replicate({"data": d, "seed": 11})
        assert verdicts[None] == verdicts[1] == verdicts[4]
        assert verdicts[None]["healed"]

    def test_shard_executor_never_in_scenario_digest(self):
        from repro.scenario import Scenario

        base = {
            "seed": 1,
            "config": {"ideal_radius": 100.0},
            "deployment": DEPLOYMENT,
            "perturbations": [],
            "shards": 2,
        }
        inline = Scenario.from_dict(dict(base, shard_executor="inline"))
        process = Scenario.from_dict(dict(base, shard_executor="process"))
        assert inline.canonical_digest() == process.canonical_digest()
        # ... and neither is the shard count: every shard count runs
        # the unsharded trajectory.
        unsharded = Scenario.from_dict(
            {k: v for k, v in base.items() if k != "shards"}
        )
        assert unsharded.canonical_digest() == inline.canonical_digest()
        four = Scenario.from_dict(dict(base, shards=4))
        assert four.canonical_digest() == inline.canonical_digest()

    def test_mobile_scenario_rejected(self):
        from repro.scenario import Scenario

        with pytest.raises(ValueError, match="mobile"):
            Scenario.from_dict(
                {
                    "seed": 1,
                    "deployment": DEPLOYMENT,
                    "perturbations": [],
                    "mobile": True,
                    "shards": 2,
                }
            )


class TestUnsupportedOperations:
    def _sim(self, shards=2):
        return ShardedSimulation(DEPLOYMENT, CONFIG, seed=7, shards=shards)

    def test_custom_mutator_rejected(self):
        sim = self._sim()
        try:
            sim.start()
            sim.run_for(120.0)
            victim = next(
                n.node_id for n in sim.network.alive_nodes() if not n.is_big
            )
            with pytest.raises(ShardError, match="mutator"):
                sim.corrupt_node(victim, mutator=lambda node, rng: None)
        finally:
            sim.close()

    def test_cross_region_move_rejected(self):
        sim = self._sim(shards=4)
        try:
            sim.start()
            sim.run_for(120.0)
            # A move across the whole field necessarily crosses a
            # stripe boundary at 4 shards.
            mover = next(
                n
                for n in sim.network.alive_nodes()
                if not n.is_big and n.position.x < -80.0
            )
            with pytest.raises(ShardError, match="cross-region"):
                sim.move_node(mover.node_id, Vec2(150.0, 0.0))
        finally:
            sim.close()

    def test_energy_model_rejected(self):
        sim = self._sim()
        try:
            with pytest.raises(ShardError):
                sim.attach_energy()
        finally:
            sim.close()


class TestClockNeverRunsBackwards:
    def test_past_deadline_rejected(self):
        sim = ShardedSimulation(DEPLOYMENT, CONFIG, seed=7, shards=2)
        try:
            sim.run_for(40.0)
            digest = state_digest(sim.snapshot())
            clock = sim.runtime.sim
            for go_back in (
                lambda: sim.run_for(-10.0),
                lambda: clock.run(until=30.0),
                lambda: clock.run_for(-10.0),
            ):
                with pytest.raises(SimulationError, match="before now"):
                    go_back()
            assert sim.now == 40.0
            assert state_digest(sim.snapshot()) == digest
        finally:
            sim.close()


class TestLaneNamespaces:
    def test_namespaces_pairwise_disjoint(self):
        """Node, data, channel, driver and external lanes never meet,
        for every node id below the data base (and their order is the
        documented one)."""
        node = (0, DATA_LANE_BASE - 1)
        data = (DATA_LANE_BASE, DATA_LANE_BASE + DATA_LANE_BASE - 1)
        channel = (CHANNEL_LANE, CHANNEL_LANE)
        driver = (DRIVER_BASE, EXTERNAL_LANE - 1)
        external = (EXTERNAL_LANE, EXTERNAL_LANE)
        ranges = [node, data, channel, driver, external]
        for lower, upper in zip(ranges, ranges[1:]):
            assert lower[0] <= lower[1] < upper[0] <= upper[1]


class TestPlanPartition:
    def _lattice(self):
        return HexLattice(Vec2(0.0, 0.0), CONFIG.lattice_spacing)

    def test_boundaries_sorted_and_cover(self):
        positions = [
            Vec2(x, y)
            for x in (-150.0, -50.0, 0.0, 50.0, 150.0)
            for y in (-50.0, 0.0, 50.0)
        ]
        part = plan_partition(self._lattice(), positions, 4, 120.0)
        assert part.shards == 4
        assert len(part.boundaries) == 3
        assert list(part.boundaries) == sorted(part.boundaries)
        qs = [self._lattice().fractional_axial(p)[0] for p in positions]
        owners = [part.owner_of(q) for q in qs]
        assert set(owners) <= set(range(4))
        # Ownership is monotone in q.
        paired = sorted(zip(qs, owners))
        assert [o for _, o in paired] == sorted(o for _, o in paired)

    def test_single_shard_owns_everything(self):
        positions = [Vec2(float(i * 10), 0.0) for i in range(20)]
        part = plan_partition(self._lattice(), positions, 1, 120.0)
        assert part.boundaries == ()
        assert all(
            part.owner_of(
                self._lattice().fractional_axial(p)[0]
            ) == 0
            for p in positions
        )

    def test_stripes_near_includes_neighbors_within_margin(self):
        positions = [Vec2(float(i * 20 - 200), 0.0) for i in range(21)]
        part = plan_partition(self._lattice(), positions, 2, 120.0)
        (boundary,) = part.boundaries
        # A point just left of the boundary is owned by 0 but mirrored
        # into 1; a point far away is not.
        near = part.stripes_near(boundary - part.margin / 2.0)
        assert near[0] == 0 and 1 in near
        far = part.stripes_near(boundary - 10.0 * part.margin)
        assert far == [0]

    def test_shard_seed_distinct_per_region(self):
        seeds = {shard_seed(7, k) for k in range(8)}
        assert len(seeds) == 8
        assert shard_seed(7, 0) != shard_seed(8, 0)

    def test_invalid_shard_count_rejected(self):
        with pytest.raises((ValueError, ShardError)):
            ShardedSimulation(DEPLOYMENT, CONFIG, seed=1, shards=0)
