"""BENCH — data-plane traffic: volume throughput + delay vs churn.

Drives the :mod:`repro.traffic` engine two ways:

* ``throughput`` — packet-volume sweep from ~10² to ~10⁵ generated
  packets per replicate (burst workload, cell router), recording
  wall-clock packets/s through the forwarding phase at each point,
  plus one streamed point (JSONL record spill) and one sharded point
  (whose ``barriers`` / ``op_dispatches`` counters show the epoch
  barrier dominating sharded data-plane cost);
* ``churn`` — per-kill-rate, per-router delivery ratio, delay
  percentiles (p50/p99 medians across replicates), and relay hotspot
  load over a 340-node field: the delay-vs-churn curve;
* ``meta`` — parameters so both curves are reproducible;
* ``provenance`` — cpu_count, python, numpy and package version, so
  the throughput numbers are read against the host that produced them.

Also runnable standalone::

    PYTHONPATH=src python benchmarks/bench_traffic.py [--smoke]

``--smoke`` shrinks the sweep to a CI-sized run, writes nothing, and
**guards throughput**: it exits nonzero when the largest smoke volume
point routes at less than half the packets/s recorded in the
checked-in ``results/BENCH_traffic_baseline.json``.
"""

import json
import os
import sys
import tempfile
import time

import pytest

from repro.traffic import (
    run_traffic_campaigns,
    run_traffic_replicate,
    summarize_traffic,
)

from conftest import bench_provenance, save_result

BASE_SEED = 37
REPLICATES = 3

#: Poisson kill rates (node deaths per unit time) swept for the
#: delay-vs-churn curve.  0.0 is the no-chaos baseline.
KILL_RATES = (0.0, 0.002, 0.004, 0.008)

#: Generated-packet targets for the volume sweep.  Burst rates carry a
#: 1.1x overshoot so the Poisson draw at BASE_SEED clears each target;
#: the top point must land at >= 1e5 generated packets.
VOLUME_TARGETS = (100, 1_000, 10_000, 100_000)
SMOKE_VOLUME_TARGETS = (100, 1_000)

_BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "results",
    "BENCH_traffic_baseline.json",
)


def point_data(kill_rate: float, smoke: bool = False) -> dict:
    data = {
        "seed": BASE_SEED,
        "config": {"ideal_radius": 100.0, "radius_tolerance": 25.0},
        # The 420-radius field stabilises in ~1.5 s under the lossy
        # channel at every replicate seed derived from BASE_SEED; smoke
        # shrinks the workload, not the deployment (smaller fields are
        # stabilisation-flaky).
        "deployment": {
            "kind": "uniform",
            "field_radius": 420.0,
            "n_nodes": 340,
        },
        "channel": {"bernoulli_loss": 0.05, "latency_jitter": 0.3},
        "traffic": {
            "duration": 120.0 if smoke else 300.0,
            "drain": 120.0 if smoke else 200.0,
            "flows": {"rate": 0.1 if smoke else 0.2},
            "convergecast": {"rate": 0.05 if smoke else 0.1},
            "cbr": {"sources": 2 if smoke else 4, "interval": 20.0},
        },
    }
    # The replicates that configure here do so by t ~ 450 ticks;
    # one that has not by 3,000 never does (replicate_seed(37, 1)
    # cycles through associate joins), and the default 50,000-tick
    # budget only made every point wait it out.  At rate 0 the block
    # holds the budget alone, and its campaign injects nothing.
    data["chaos"] = {"configure_budget": 3_000.0}
    if kill_rate > 0.0:
        data["chaos"].update(
            duration=data["traffic"]["duration"],
            kill_rate=kill_rate,
            jam_rate=0.002,
            jam_radius=60.0,
            jam_duration=60.0,
            settle_window=100.0,
            heal_budget=25_000.0,
        )
    return data


def volume_data(target: int) -> dict:
    """A burst workload sized to generate ~``target`` packets."""
    size = max(1, min(100, target // 100))
    rate = 1.1 * target / (200.0 * size)
    return {
        "seed": BASE_SEED,
        "config": {"ideal_radius": 100.0, "radius_tolerance": 25.0},
        "deployment": {
            "kind": "uniform",
            "field_radius": 260.0,
            "n_nodes": 140,
        },
        "channel": {"bernoulli_loss": 0.05, "latency_jitter": 0.3},
        "traffic": {
            "duration": 200.0,
            "drain": 150.0,
            "routers": ["cell"],
            "burst": {"rate": rate, "size": size},
        },
    }


def measure_volume(target: int, shards: int = 0, stream: bool = False) -> dict:
    """One volume replicate; packets/s is over the forwarding phase."""
    data = volume_data(target)
    if shards:
        data["shards"] = shards
    spec = {"data": data, "seed": BASE_SEED}
    tmp = None
    if stream:
        tmp = tempfile.TemporaryDirectory(prefix="bench-traffic-stream-")
        spec["stream_dir"] = tmp.name
    inst: dict = {}
    try:
        started = time.perf_counter()
        result = run_traffic_replicate(spec, instrumentation=inst)
        elapsed = time.perf_counter() - started
    finally:
        if tmp is not None:
            tmp.cleanup()
    report = result["routers"]["cell"]
    if "error" in report:
        raise RuntimeError(f"volume point {target} failed: {report['error']}")
    counters = inst["cell"]
    forward_s = counters["forward_wall_s"]
    point = {
        "target": target,
        "generated": result["generated"],
        "delivered": report["outcomes"]["delivered"],
        "replicate_wall_s": round(elapsed, 3),
        "stabilize_wall_s": round(counters["stabilize_wall_s"], 3),
        "forward_wall_s": round(forward_s, 3),
        "packets_per_s": (
            round(result["generated"] / forward_s, 1) if forward_s else 0.0
        ),
    }
    if shards:
        point["shards"] = shards
        point["barriers"] = counters["barriers"]
        point["op_dispatches"] = counters["op_dispatches"]
    if stream:
        point["streamed"] = True
    return point


def measure_throughput(smoke: bool = False) -> dict:
    """The volume sweep plus streamed and sharded reference points."""
    targets = SMOKE_VOLUME_TARGETS if smoke else VOLUME_TARGETS
    section = {"volume": [measure_volume(t) for t in targets]}
    if not smoke:
        # Same workloads off the hot path: the top point again with
        # JSONL record spill (memory-bounded volume runs), and the
        # 1e4 point through the sharded facade — its barriers >>
        # op_dispatches counters show the per-epoch barrier, not op
        # traffic, dominating sharded data-plane cost.
        section["streamed"] = measure_volume(targets[-1], stream=True)
        section["sharded"] = measure_volume(10_000, shards=2)
    return section


def run_all(smoke: bool = False) -> dict:
    replicates = 1 if smoke else REPLICATES
    kill_rates = KILL_RATES[:2] if smoke else KILL_RATES
    report = {
        "meta": {
            "replicates": replicates,
            "base_seed": BASE_SEED,
            "kill_rates": list(kill_rates),
            "volume_targets": list(
                SMOKE_VOLUME_TARGETS if smoke else VOLUME_TARGETS
            ),
            "deployment": point_data(0.0, smoke=smoke)["deployment"],
            "traffic": point_data(0.0, smoke=smoke)["traffic"],
        },
        "provenance": bench_provenance(),
        "throughput": measure_throughput(smoke=smoke),
        "churn": {},
    }
    for kill_rate in kill_rates:
        outcomes = run_traffic_campaigns(
            point_data(kill_rate, smoke=smoke),
            replicates=replicates,
            base_seed=BASE_SEED,
            workers=0,
        )
        summary = summarize_traffic(outcomes)
        report["churn"][f"{kill_rate:g}"] = summary
    return report


def check_throughput_guard(report: dict) -> int:
    """Exit status for --smoke: 1 on a >2x packets/s regression."""
    try:
        with open(_BASELINE_PATH) as handle:
            baseline = json.load(handle)
    except FileNotFoundError:
        print(f"throughput guard: no baseline at {_BASELINE_PATH}; skipping")
        return 0
    floor = baseline["smoke"]["packets_per_s"] / 2.0
    top = report["throughput"]["volume"][-1]
    if top["packets_per_s"] < floor:
        print(
            f"throughput guard FAILED: {top['packets_per_s']} packets/s at "
            f"target {top['target']} is below half the baseline "
            f"({baseline['smoke']['packets_per_s']} packets/s)"
        )
        return 1
    print(
        f"throughput guard ok: {top['packets_per_s']} packets/s "
        f">= {floor:g} (half of baseline)"
    )
    return 0


@pytest.mark.benchmark(group="traffic")
def test_traffic_artifact(results_dir):
    report = run_all()
    save_result("BENCH_traffic.json", json.dumps(report, indent=2) + "\n")
    # The top volume point must sustain >= 1e5 generated packets.
    top = report["throughput"]["volume"][-1]
    assert top["generated"] >= 100_000, report["throughput"]
    assert top["packets_per_s"] > 0, report["throughput"]
    for point in report["churn"].values():
        # Crashed replicates are harness bugs, not routing outcomes.
        assert point["crashed"] == 0, report
        assert set(point["routers"]) == {"cell", "hybrid"}, report
    # The no-chaos baseline must deliver the overwhelming majority.
    baseline = report["churn"]["0"]["routers"]
    assert all(r["delivery_ratio"] >= 0.85 for r in baseline.values()), report


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv
    result = run_all(smoke=smoke)
    if smoke:
        print(json.dumps(result, indent=2))
        sys.exit(check_throughput_guard(result))
    save_result("BENCH_traffic.json", json.dumps(result, indent=2) + "\n")
