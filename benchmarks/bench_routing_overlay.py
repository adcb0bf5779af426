"""SVC-ROUTE — the routing/aggregation services over GS3.

Not a paper figure, but the paper's stated purpose for the structure
("a stable communication infrastructure for other services, such as
routing").  Measures, over the configured structure:

* delivery rate and geographic stretch of hierarchical cell-by-cell
  routing using only GS3's node-local state;
* convergecast relay-load balance (the uniform energy-dissipation
  motivation of Section 1);
* routing availability immediately after a head failure heals.
"""

import pytest

from repro.analysis import ascii_table, to_csv
from repro.core import GS3Config, Gs3DynamicSimulation
from repro.net import uniform_disk
from repro.routing import HierarchicalRouter, simulate_convergecast
from repro.sim import RngStreams

from conftest import save_result

CONFIG = GS3Config(ideal_radius=100.0, radius_tolerance=25.0)


def configure(seed=701, n_nodes=1100, field_radius=300.0):
    deployment = uniform_disk(field_radius, n_nodes, RngStreams(seed))
    sim = Gs3DynamicSimulation.from_deployment(
        deployment, CONFIG, seed=seed, keep_trace_records=False
    )
    sim.run_until_stable(window=60.0, max_time=5000.0)
    return sim


def sample_pairs(sim, count, seed):
    """``count`` random pairs farther apart than radio range.

    A closer pair goes in one direct hop, which says nothing about
    routing over the structure.
    """
    rng = RngStreams(seed).stream("pairs")
    nodes = list(sim.network.alive_nodes())
    reach = CONFIG.recommended_max_range
    pairs = []
    while len(pairs) < count:
        a, b = rng.choice(nodes), rng.choice(nodes)
        if a.position.distance_to(b.position) > reach:
            pairs.append((a.node_id, b.node_id))
    return pairs


@pytest.mark.benchmark(group="services")
def test_routing_overlay(benchmark, results_dir):
    results = {}

    def run():
        sim = configure()
        router = HierarchicalRouter(sim.runtime)
        rate, routes = router.evaluate(sample_pairs(sim, 150, 7))
        stretches = sorted(
            r.stretch(sim.runtime)
            for r in routes
            if r.delivered and r.source != r.destination
        )
        results["rate"] = rate
        results["median_stretch"] = stretches[len(stretches) // 2]
        results["p90_stretch"] = stretches[int(len(stretches) * 0.9)]
        results["mean_hops"] = sum(
            r.hop_count for r in routes if r.delivered
        ) / max(1, sum(1 for r in routes if r.delivered))
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        ["delivery rate", results["rate"]],
        ["median stretch", results["median_stretch"]],
        ["p90 stretch", results["p90_stretch"]],
        ["mean hops", results["mean_hops"]],
    ]
    save_result(
        "routing_overlay.txt",
        ascii_table(
            ["metric", "value"],
            rows,
            title="Hierarchical routing over GS3 "
            "(150 random pairs beyond radio range)",
        ),
    )
    save_result(
        "routing_overlay.csv",
        to_csv(["metric", "value"], rows),
    )
    assert results["rate"] >= 0.95
    assert results["median_stretch"] < 4.0


@pytest.mark.benchmark(group="services")
def test_convergecast_load_balance(benchmark, results_dir):
    results = {}

    def run():
        sim = configure(seed=702)
        snapshot = sim.snapshot()
        no_agg = simulate_convergecast(snapshot, aggregation_ratio=1.0)
        agg = simulate_convergecast(snapshot, aggregation_ratio=0.05)
        results["no_agg"] = no_agg
        results["agg"] = agg
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)
    no_agg, agg = results["no_agg"], results["agg"]
    rows = [
        [
            "no aggregation",
            no_agg.total_readings,
            no_agg.delivered_readings,
            no_agg.load_summary().mean,
            no_agg.load_summary().max,
        ],
        [
            "aggregation 5%",
            agg.total_readings,
            agg.delivered_readings,
            agg.load_summary().mean,
            agg.load_summary().max,
        ],
    ]
    save_result(
        "convergecast.txt",
        ascii_table(
            ["variant", "readings", "messages at root", "mean load", "max load"],
            rows,
            title="Convergecast over the head graph",
        ),
    )
    assert no_agg.delivery_rate >= 0.99
    assert agg.delivered_readings < no_agg.delivered_readings


@pytest.mark.benchmark(group="services")
def test_routing_after_healing(benchmark, results_dir):
    results = {}

    def run():
        sim = configure(seed=703)
        victim = next(
            v for v in sim.snapshot().heads.values() if not v.is_big
        )
        sim.kill_node(victim.node_id)
        sim.run_until_stable(window=120.0, max_time=sim.now + 20000.0)
        router = HierarchicalRouter(sim.runtime)
        rate, _ = router.evaluate(sample_pairs(sim, 100, 8))
        results["rate"] = rate
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)
    save_result(
        "routing_after_heal.txt",
        ascii_table(
            ["metric", "value"],
            [["delivery rate after head-kill heal", results["rate"]]],
        ),
    )
    assert results["rate"] >= 0.9
