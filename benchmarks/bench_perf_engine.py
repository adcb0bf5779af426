"""PERF — engine, radio, topology-cache, and sweep-scaling benchmarks.

Tracks the raw-speed trajectory of the simulator core across PRs:

* discrete-event engine throughput (events/sec) on the tuple-heap
  engine (``(time, seq, event)`` entries, ``__slots__`` records);
* radio delivery throughput (messages/sec through the shared
  ``partial``-bound deliver path), with an enabled tracer and with the
  one-predicate disabled-tracer fast path;
* broadcast fan-out (``radio_fanout``): receivers/sec of cell
  heartbeats from one head to 275 associates, each handled by a GS3-D
  node program's ``on_message`` (which answers with an associate
  heartbeat) — the receive path every real run pays for;
* cached vs uncached ``connected_to`` on a static 2000-node network;
* cached vs uncached visible-set sweeps (the shape of the I1/F4
  invariant checks, which recompute the reachable set per call);
* Monte Carlo sweep scaling: wall clock of a 16-replicate sweep at
  ``workers`` 0/1/4 through :class:`repro.sim.SweepRunner`, plus a
  determinism check that the aggregated payload is identical at every
  worker count.  ``cpu_count`` is recorded alongside so single-core
  containers are legible in the history.

* recurring-timer throughput (``timer_wheel``, the 100k-heartbeat
  shape): ``PeriodicTimer`` re-arms on the one event heap.  The row
  keeps the name of the calendar-queue wheel it once timed, so its
  history stays comparable;
* ``shard_scaling``: events/sec of the spatially-sharded executor at
  shards ∈ {1, 2, 4} on the 10k and 100k campaign deployments, with a
  cross-count state-digest byte-identity check.  On hosts with fewer
  than 4 CPUs the numbers are recorded and the speedup assertion is
  skipped (``scaling_meaningful: false``);
* the ``scale_100k`` campaign: 100k nodes deploy → self-configure →
  chaos → heal, pinning events/sec and the latency of the program's
  invariant check at scale.

Every section carries a ``provenance`` block (cpu_count, python/numpy
versions, package version) so numbers are interpretable across hosts.

Results land in ``results/BENCH_perf.json`` so later PRs can diff the
numbers.  Also runnable standalone::

    PYTHONPATH=src python benchmarks/bench_perf_engine.py [--smoke]
    PYTHONPATH=src python benchmarks/bench_perf_engine.py --scale-smoke

``--smoke`` shrinks every workload to a seconds-long CI smoke run and
writes nothing.  ``--scale-smoke`` runs a 10k-node scale campaign and
exits nonzero if the configuration does not stabilise or events/sec
regresses more than 2x against ``results/BENCH_scale_baseline.json``
(recorded on first run).
"""

import json
import math
import os
import random
import sys
import time

import pytest

from repro import GS3Config
from repro.core import (
    Gs3DynamicNode,
    Gs3DynamicSimulation,
    NodeStatus,
    check_static_invariant,
)
from repro.core.messages import HeadIntraAlive
from repro.core.runtime import Gs3Runtime
from repro.geometry import HexLattice, Vec2
from repro.net import Network, Radio, poisson_disk, rt_gap_cells, uniform_disk
from repro.sim import (
    RngStreams,
    Simulator,
    SweepRunner,
    Tracer,
    replicate_seed,
    sweep_results,
)

from conftest import RESULTS_DIR, bench_provenance, save_result

#: Static benchmark network size (per the perf acceptance criterion).
N_NODES = 2000
FIELD_RADIUS = 450.0
MAX_RANGE = 120.0

#: Monte Carlo sweep-scaling workload (fig7-shaped gap counting).
SWEEP_REPLICATES = 16
SWEEP_FIELD_RADIUS = 110.0
SWEEP_WORKER_COUNTS = (0, 1, 4)


def build_static_network(
    n_nodes: int = N_NODES, seed: int = 7
) -> Network:
    deployment = uniform_disk(FIELD_RADIUS, n_nodes - 1, RngStreams(seed))
    return deployment.build_network(max_range=MAX_RANGE)


def _timed(fn, repetitions: int) -> float:
    start = time.perf_counter()
    for _ in range(repetitions):
        fn()
    return time.perf_counter() - start


def bench_engine_events(n_events: int = 200_000) -> dict:
    """Raw event schedule+dispatch throughput of the Simulator."""
    sim = Simulator()

    def nop() -> None:
        pass

    start = time.perf_counter()
    for i in range(n_events):
        sim.schedule(float(i % 97) * 0.01, nop)
    sim.run()
    elapsed = time.perf_counter() - start
    return {
        "events": n_events,
        "seconds": elapsed,
        "events_per_sec": n_events / elapsed,
    }


def bench_timer_wheel(
    n_timers: int = 50_000, horizon: float = 100.0
) -> dict:
    """Recurring-timer throughput: the 100k-heartbeat shape.

    ``n_timers`` periodic timers (interval 10, staggered phases) fire
    until ``horizon``, each firing re-arming through
    ``Simulator.schedule_recurring`` on the one event heap.  Raced on
    this row, the calendar-queue timer wheel that once held these
    timers was never faster than the heap (EXPERIMENTS.md
    § ONE-QUEUE); this section tracks the recurring path on its own.
    """
    sim = Simulator()
    fired = [0]

    def tick() -> None:
        fired[0] += 1

    from repro.sim import PeriodicTimer

    timers = [
        PeriodicTimer(sim, interval=10.0, callback=tick).start(
            initial_delay=(i % 100) * 0.1
        )
        for i in range(n_timers)
    ]
    start = time.perf_counter()
    sim.run(until=horizon)
    elapsed = time.perf_counter() - start
    for timer in timers:
        timer.stop()
    return {
        "timers": n_timers,
        "horizon": horizon,
        "fires": fired[0],
        "seconds": elapsed,
        "fires_per_sec": fired[0] / elapsed,
    }


def bench_radio_delivery(
    n_messages: int = 50_000, tracer: Tracer = None
) -> dict:
    """Ping-pong unicast throughput through Radio's delivery path."""
    network = Network(cell_size=50.0)
    node_a = network.add_node(Vec2(0.0, 0.0), 50.0)
    node_b = network.add_node(Vec2(10.0, 0.0), 50.0)
    sim = Simulator()
    radio = Radio(
        network,
        sim,
        tracer=tracer if tracer is not None else Tracer(keep_records=False),
    )
    delivered = [0]

    def bounce(payload, sender_id):
        delivered[0] += 1
        if delivered[0] < n_messages:
            receiver = (
                node_a.node_id
                if sender_id == node_b.node_id
                else node_b.node_id
            )
            radio.unicast(receiver, sender_id, payload)

    radio.register(node_a.node_id, bounce)
    radio.register(node_b.node_id, bounce)
    start = time.perf_counter()
    radio.unicast(node_a.node_id, node_b.node_id, b"x")
    sim.run()
    elapsed = time.perf_counter() - start
    return {
        "messages": delivered[0],
        "seconds": elapsed,
        "messages_per_sec": delivered[0] / elapsed,
    }


def bench_broadcast_fanout(n_broadcasts: int = 200, receivers: int = 275) -> dict:
    """Cell heartbeats through the node programs' receive path.

    One head broadcasts ``head_intra_alive`` to ``receivers``
    associates of its cell (275 is the fan-out of a ``configure``
    broadcast in ``perfbench``).  Each associate's ``on_message``
    handles it as in a configured cell, answering its head with an
    ``associate_alive`` unicast that the head's ``on_message`` handles
    in turn; ``deliveries`` counts both.
    """
    cfg = GS3Config()
    deployment = uniform_disk(
        cfg.ideal_radius, receivers, RngStreams(receivers)
    )
    network = deployment.build_network(max_range=cfg.recommended_max_range)
    runtime = Gs3Runtime.build(network, cfg, keep_trace_records=False)
    origin = runtime.lattice.origin
    nodes = [Gs3DynamicNode(runtime, node_id) for node_id in range(len(network))]
    head = nodes[0]
    head.state.status = NodeStatus.WORK
    head.state.cell_axial = (0, 0)
    head.state.oil = head.state.current_il = origin
    head.state.parent_id = head.node_id
    for node in nodes[1:]:
        node.state.status = NodeStatus.ASSOCIATE
        node.state.head_id = head.node_id
        node.state.head_position = head.position
        node.state.cell_axial = (0, 0)
        node.state.current_il = origin
    beat = HeadIntraAlive(
        sender=head.node_id,
        position=head.position,
        axial=(0, 0),
        oil=origin,
        current_il=origin,
        icc_icp=(0, 0),
        candidates=(),
        hops_to_root=0,
        root_position=origin,
        root_epoch=1,
        root_heard_at=0.0,
    )
    sim = runtime.sim
    reached = 0
    start = time.perf_counter()
    for _ in range(n_broadcasts):
        reached += runtime.radio.broadcast(
            head.node_id, beat, tx_range=cfg.cell_broadcast_range
        )
        sim.run()
    elapsed = time.perf_counter() - start
    deliveries = runtime.tracer.counts["msg.deliver"]
    assert reached == n_broadcasts * receivers
    assert deliveries == 2 * reached  # every associate answered
    return {
        "broadcasts": n_broadcasts,
        "receivers": reached,
        "deliveries": deliveries,
        "seconds": elapsed,
        "receivers_per_sec": reached / elapsed,
        "deliveries_per_sec": deliveries / elapsed,
    }


def bench_connected_to(network: Network, repetitions: int = 30) -> dict:
    """Repeated component queries from the big node, cached vs not."""
    big = network.big_id
    uncached = _timed(
        lambda: network.connected_to(big, use_cache=False), repetitions
    )
    network.invalidate_caches()
    cached = _timed(lambda: network.connected_to(big), repetitions)
    return {
        "repetitions": repetitions,
        "uncached_s": uncached,
        "cached_s": cached,
        "speedup": uncached / cached if cached > 0 else float("inf"),
    }


def bench_visible_sweep(network: Network, repetitions: int = 10) -> dict:
    """The invariant-check shape: recompute the visible set, then test
    membership for a sample of nodes (cf. I1 connectivity / F4
    coverage, which do exactly this per check call)."""
    big = network.big_id
    sample = network.node_ids()[::10]

    def sweep(use_cache: bool) -> int:
        visible = network.connected_to(big, use_cache=use_cache)
        return sum(1 for node_id in sample if node_id in visible)

    uncached = _timed(lambda: sweep(False), repetitions)
    network.invalidate_caches()
    cached = _timed(lambda: sweep(True), repetitions)
    return {
        "repetitions": repetitions,
        "sampled_nodes": len(sample),
        "uncached_s": uncached,
        "cached_s": cached,
        "speedup": uncached / cached if cached > 0 else float("inf"),
    }


def bench_neighbor_sweep(network: Network, repetitions: int = 5) -> dict:
    """Full physical_neighbors sweep (the physical_graph_nx shape),
    cached adjacency vs rebuilt-each-sweep."""

    def sweep() -> int:
        return sum(
            len(network.physical_neighbors(node.node_id))
            for node in network.alive_nodes()
        )

    def sweep_uncached() -> int:
        network.invalidate_caches()
        return sweep()

    uncached = _timed(sweep_uncached, repetitions)
    network.invalidate_caches()
    cached = _timed(sweep, repetitions + 1) * repetitions / (repetitions + 1)
    return {
        "repetitions": repetitions,
        "uncached_s": uncached,
        "cached_s": cached,
        "speedup": uncached / cached if cached > 0 else float("inf"),
    }


def _mc_gap_replicate(spec) -> dict:
    """Sweep worker: fig7-shaped gap counting on one Poisson field.

    Pure CPU, fully determined by the replicate seed — the unit of the
    sweep-scaling and sweep-determinism measurements.
    """
    seed, field_radius = spec
    deployment = poisson_disk(field_radius, 2.0, RngStreams(seed))
    lattice = HexLattice(Vec2(0, 0), math.sqrt(3.0) * 8.0)
    return {
        "seed": seed,
        "gap_cells": [
            len(rt_gap_cells(deployment, lattice, rt))
            for rt in (0.4, 0.8, 1.2, 1.6)
        ],
    }


def bench_sweep_scaling(
    replicates: int = SWEEP_REPLICATES,
    field_radius: float = SWEEP_FIELD_RADIUS,
    worker_counts=SWEEP_WORKER_COUNTS,
) -> dict:
    """Wall clock + determinism of one Monte Carlo sweep per pool size.

    Since PR 8 the pool path runs through ``SupervisedPool`` (checksum
    frames, death/hang watchdogs, per-task dispatch), so this section
    also tracks the supervision layer's steady-state overhead versus
    the in-process baseline at ``workers=0``.
    """
    specs = [
        (replicate_seed(7, i), field_radius) for i in range(replicates)
    ]
    report = {
        "replicates": replicates,
        "cpu_count": os.cpu_count() or 1,
    }
    payloads = {}
    for workers in worker_counts:
        runner = SweepRunner(_mc_gap_replicate, workers=workers)
        start = time.perf_counter()
        outcomes = runner.run(specs)
        report[f"workers_{workers}_s"] = time.perf_counter() - start
        payloads[workers] = json.dumps(sweep_results(outcomes))
    first = next(iter(worker_counts))
    report["deterministic"] = all(
        payloads[w] == payloads[first] for w in worker_counts
    )
    serial = report.get("workers_1_s")
    parallel = report.get("workers_4_s")
    if serial and parallel:
        report["speedup_4_vs_1"] = serial / parallel
    return report


#: Scale-campaign geometry: sparse fields with a wide tolerance band at
#: ~20 nodes per cell (~6 expected nodes per R_t-disk, so coverage
#: holds w.h.p.) — the regime where per-node costs, not density, set
#: the slope.  ``heartbeat_interval`` is stretched so maintenance
#: traffic doesn't drown the configuration wave at 100k nodes.  Sparser
#: fields (12/cell) hit perpetual abandon/re-bootstrap churn at
#: coverage gaps and never quiesce; 20/cell stabilizes across seeds.
SCALE_CONFIG = dict(
    ideal_radius=100.0,
    radius_tolerance=50.0,
    heartbeat_interval=25.0,
)
SCALE_NODES_PER_CELL = 20.0
SCALE_BASELINE_FILE = "BENCH_scale_baseline.json"


def scale_deployment(n_nodes: int, seed: int = 23):
    """Sparse uniform field sized for ``SCALE_NODES_PER_CELL``."""
    config = GS3Config(**SCALE_CONFIG)
    cell_area = 1.5 * math.sqrt(3.0) * config.ideal_radius**2
    field_radius = math.sqrt(
        n_nodes * cell_area / (SCALE_NODES_PER_CELL * math.pi)
    )
    deployment = uniform_disk(field_radius, n_nodes - 1, RngStreams(seed))
    return config, deployment


def bench_scale(
    n_nodes: int,
    seed: int = 23,
    max_configure_time: float = 8_000.0,
    kill_fraction: float = 0.002,
    heal_time: float = 300.0,
    configure_wall_budget_s: float = 2_400.0,
) -> dict:
    """End-to-end scale campaign: deploy → self-configure → chaos →
    heal, with wall-clock, events/sec, and invariant-check latencies.

    The invariant check is the program's own, as ``stabilize`` runs
    it: one snapshot with its gap cells, then
    ``check_static_invariant``.  It is timed after configuration and
    after the heal; each is the first check on its topology, so each
    includes a ``G_p`` adjacency build.

    The campaign is honest about partial convergence: if the
    configuration wave doesn't quiesce within ``max_configure_time``
    virtual ticks the section records ``stable: false`` and carries on
    (chaos + healing still run against whatever structure exists).
    """
    config, deployment = scale_deployment(n_nodes, seed)
    t0 = time.perf_counter()
    sim = Gs3DynamicSimulation.from_deployment(
        deployment, config, seed=seed, keep_trace_records=False
    )
    sim.runtime.sim.max_events = 2_000_000_000
    build_s = time.perf_counter() - t0

    def check_invariants():
        snapshot, gaps = sim.snapshot_and_gaps()
        return snapshot, check_static_invariant(
            snapshot,
            sim.network,
            field=deployment.field,
            gap_axials=gaps,
            dynamic=True,
        )

    # Configure in window-sized chunks so long runs show progress on
    # stderr and a wall-clock budget bounds the worst case (a field
    # that never quiesces records stable=false instead of spinning).
    from repro.core import STRUCTURE_CHANGE_CATEGORIES

    window = 3.0 * config.heartbeat_interval
    t1 = time.perf_counter()
    stable = False
    sim.start()
    engine = sim.runtime.sim
    tracer = sim.runtime.tracer
    while engine.now < max_configure_time:
        sim.run_for(window)
        last_change = tracer.last_time(*STRUCTURE_CHANGE_CATEGORIES)
        wall = time.perf_counter() - t1
        print(
            f"scale[{n_nodes}] configure t={engine.now:.0f} "
            f"events={engine.executed_events:,} wall={wall:.0f}s "
            f"last_change={last_change}",
            file=sys.stderr,
            flush=True,
        )
        if last_change is not None and engine.now - last_change >= window:
            stable = True
            break
        if wall > configure_wall_budget_s:
            break
    configure_s = time.perf_counter() - t1
    configure_ticks = sim.runtime.sim.now
    t2 = time.perf_counter()
    snapshot, _ = check_invariants()
    configure_check_ms = (time.perf_counter() - t2) * 1e3
    heads = len(snapshot.heads)

    # Chaos: kill a slice of the field plus one jammed disk, then let
    # the self-healing run.
    rng = random.Random(seed * 7919 + 1)
    alive = [
        node.node_id
        for node in sim.network.alive_nodes()
        if not node.is_big
    ]
    kills = rng.sample(alive, max(1, int(len(alive) * kill_fraction)))
    t3 = time.perf_counter()
    for node_id in kills:
        sim.kill_node(node_id)
    jam_center = sim.network.node(rng.choice(alive)).position
    sim.jam_region(
        jam_center, 2.0 * config.ideal_radius, duration=heal_time / 2.0
    )
    sim.run_for(heal_time)
    heal_s = time.perf_counter() - t3
    t4 = time.perf_counter()
    _, violations = check_invariants()
    heal_check_ms = (time.perf_counter() - t4) * 1e3

    executed = sim.runtime.sim.executed_events
    run_wall = configure_s + heal_s
    return {
        "n_nodes": n_nodes,
        "field_radius": deployment.field.radius,
        "build_s": build_s,
        "configure": {
            "stable": stable,
            "ticks": configure_ticks,
            "wall_s": configure_s,
            "heads": heads,
        },
        "chaos": {
            "kills": len(kills),
            "jam_radius": 2.0 * config.ideal_radius,
            "heal_ticks": heal_time,
            "heal_wall_s": heal_s,
            "violations_after_heal": len(violations),
        },
        "events": {
            "executed": executed,
            "run_wall_s": run_wall,
            "events_per_sec": executed / run_wall,
        },
        "invariants": {
            "after_configure_ms": configure_check_ms,
            "after_heal_ms": heal_check_ms,
        },
    }


def bench_shard_scaling(
    n_nodes: int,
    shard_counts=(1, 2, 4),
    run_ticks: float = 120.0,
    seed: int = 23,
) -> dict:
    """Events/s of the spatially-sharded executor per shard count.

    Runs the scale-campaign deployment through
    :class:`repro.sim.ShardedSimulation` for a fixed virtual window at
    each shard count, recording throughput and a cross-count state
    digest (the byte-identity witness: every shard count must land on
    the same snapshot digest).  On hosts without enough cores the
    numbers are recorded honestly and ``scaling_meaningful`` is false —
    the artifact test skips its speedup assertion then (a 1-CPU
    container measuring ~1x is not a regression).
    """
    from repro.sim import ShardedSimulation, state_digest

    config = GS3Config(**SCALE_CONFIG)
    cell_area = 1.5 * math.sqrt(3.0) * config.ideal_radius**2
    field_radius = math.sqrt(
        n_nodes * cell_area / (SCALE_NODES_PER_CELL * math.pi)
    )
    spec = {
        "kind": "uniform",
        "field_radius": field_radius,
        "n_nodes": n_nodes - 1,
    }
    cpu_count = os.cpu_count() or 1
    executor = "process" if cpu_count > 1 else "inline"
    section = {
        "n_nodes": n_nodes,
        "run_ticks": run_ticks,
        "executor": executor,
        "scaling_meaningful": cpu_count >= 4,
    }
    digests = {}
    for shards in shard_counts:
        sim = ShardedSimulation(
            spec,
            config,
            seed=seed,
            shards=shards,
            executor=executor,
            keep_trace_records=False,
            max_events=2_000_000_000,
        )
        try:
            sim.start()
            start = time.perf_counter()
            sim.run_for(run_ticks)
            wall = time.perf_counter() - start
            executed = sim.executed_events
            digests[shards] = state_digest(sim.snapshot())
        finally:
            sim.close()
        section[f"shards_{shards}"] = {
            "executed": executed,
            "wall_s": wall,
            "events_per_sec": executed / wall,
        }
        print(
            f"shard_scaling[{n_nodes}] shards={shards} "
            f"events={executed:,} wall={wall:.1f}s",
            file=sys.stderr,
            flush=True,
        )
    first = shard_counts[0]
    section["deterministic"] = all(
        digests[s] == digests[first] for s in shard_counts
    )
    if 1 in shard_counts and 4 in shard_counts:
        base = section["shards_1"]["events_per_sec"]
        section["speedup_4_vs_1"] = (
            section["shards_4"]["events_per_sec"] / base
        )
    return section


def run_scale_smoke(n_nodes: int = 10_000) -> int:
    """CI guard: 10k-node campaign vs the recorded baseline.

    Fails (exit 1) when the configuration does not stabilise, or when
    events/sec drops below half the baseline — the ">2x regression"
    tripwire from the perf contract.  First run records the baseline;
    delete ``results/BENCH_scale_baseline.json`` to re-baseline
    deliberately.
    """
    report = bench_scale(n_nodes, max_configure_time=2_000.0)
    events_per_sec = report["events"]["events_per_sec"]
    print(json.dumps(report, indent=2))
    stable = report["configure"]["stable"]
    if not stable:
        print(
            f"scale-smoke: configuration not stable at "
            f"t={report['configure']['ticks']:.0f} -> FAIL"
        )
    baseline_path = RESULTS_DIR / SCALE_BASELINE_FILE
    if not baseline_path.exists():
        save_result(
            SCALE_BASELINE_FILE,
            json.dumps(
                {"n_nodes": n_nodes, "events_per_sec": events_per_sec},
                indent=2,
            )
            + "\n",
        )
        print("scale-smoke: baseline recorded")
        return 0 if stable else 1
    baseline = json.loads(baseline_path.read_text())
    floor = baseline["events_per_sec"] / 2.0
    verdict = "ok" if events_per_sec >= floor else "REGRESSION"
    print(
        f"scale-smoke: {events_per_sec:,.0f} events/s vs baseline "
        f"{baseline['events_per_sec']:,.0f} (floor {floor:,.0f}) "
        f"-> {verdict}"
    )
    return 0 if stable and events_per_sec >= floor else 1


def run_all(smoke: bool = False, scale_nodes: int = 100_000) -> dict:
    network = build_static_network(600 if smoke else N_NODES)
    scale = 0.1 if smoke else 1.0
    report = {
        "n_nodes": len(network),
        "engine": bench_engine_events(int(200_000 * scale)),
        "timer_wheel": bench_timer_wheel(
            int(50_000 * scale), 20.0 if smoke else 100.0
        ),
        "radio": bench_radio_delivery(int(50_000 * scale)),
        "radio_disabled_tracer": bench_radio_delivery(
            int(50_000 * scale),
            tracer=Tracer(keep_records=False, enabled=False),
        ),
        "radio_fanout": bench_broadcast_fanout(int(200 * scale)),
        "connected_to": bench_connected_to(
            network, max(3, int(30 * scale))
        ),
        "visible_sweep": bench_visible_sweep(
            network, max(2, int(10 * scale))
        ),
        "neighbor_sweep": bench_neighbor_sweep(
            network, max(2, int(5 * scale))
        ),
        "sweep_scaling": bench_sweep_scaling(
            replicates=4 if smoke else SWEEP_REPLICATES,
            field_radius=40.0 if smoke else SWEEP_FIELD_RADIUS,
        ),
        "shard_scaling": {
            "10k": bench_shard_scaling(
                1_000 if smoke else 10_000,
                run_ticks=40.0 if smoke else 120.0,
            ),
        },
    }
    if not smoke:
        # The 100k section is minutes of wall clock; smoke runs and CI
        # guard the slope with run_scale_smoke instead.
        report["shard_scaling"]["100k"] = bench_shard_scaling(
            scale_nodes, run_ticks=60.0
        )
        report["scale_100k"] = bench_scale(scale_nodes)
    return _stamp_provenance(report)


def _stamp_provenance(report: dict) -> dict:
    """Stamp the provenance block into every top-level section."""
    provenance = bench_provenance()
    for value in report.values():
        if isinstance(value, dict):
            value["provenance"] = provenance
    report["provenance"] = provenance
    return report


@pytest.mark.benchmark(group="perf_engine")
@pytest.mark.slow
def test_perf_engine_artifact(results_dir):
    report = run_all()
    save_result("BENCH_perf.json", json.dumps(report, indent=2) + "\n")
    # Acceptance: >= 3x on repeated connectivity / invariant workloads
    # over a static 2000-node network.
    assert report["connected_to"]["speedup"] >= 3.0
    assert report["visible_sweep"]["speedup"] >= 3.0
    # Sweep payloads must not depend on how the sweep was sharded.
    assert report["sweep_scaling"]["deterministic"]
    # Byte-identity contract: every shard count lands on the same
    # state digest, on every host.
    for section in report["shard_scaling"].values():
        if isinstance(section, dict) and "deterministic" in section:
            assert section["deterministic"]
    # Wall-clock scaling is only meaningful with real cores to scale
    # onto; single-core containers record honest numbers instead
    # (record-and-skip: the numbers land in the artifact either way).
    if report["sweep_scaling"]["cpu_count"] >= 4:
        assert report["sweep_scaling"]["speedup_4_vs_1"] >= 3.0
    for section in report["shard_scaling"].values():
        if isinstance(section, dict) and section.get("scaling_meaningful"):
            assert section["speedup_4_vs_1"] >= 1.5


if __name__ == "__main__":
    if "--scale-smoke" in sys.argv:
        sys.exit(run_scale_smoke())
    smoke = "--smoke" in sys.argv
    result = run_all(smoke=smoke)
    if smoke:
        print(json.dumps(result, indent=2))
    else:
        save_result("BENCH_perf.json", json.dumps(result, indent=2) + "\n")
