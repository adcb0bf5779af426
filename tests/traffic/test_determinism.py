"""Traffic determinism: byte-identical at every worker/shard count,
and unsharded."""

import json

import pytest

from repro.traffic import run_traffic_campaigns, run_traffic_replicate

BASE = {
    "config": {"ideal_radius": 100.0, "radius_tolerance": 25.0},
    "deployment": {
        "kind": "uniform",
        "field_radius": 260.0,
        "n_nodes": 140,
    },
    "channel": {"bernoulli_loss": 0.05, "latency_jitter": 0.3},
    "chaos": {
        "duration": 100.0,
        "kill_rate": 0.004,
        "jam_rate": 0.002,
        "jam_radius": 50.0,
        "jam_duration": 50.0,
        "settle_window": 100.0,
        "heal_budget": 20000.0,
    },
    "traffic": {
        "duration": 100.0,
        "drain": 100.0,
        "flows": {"rate": 0.1},
        "convergecast": {"rate": 0.05},
        "cbr": {"sources": 2, "interval": 30.0},
    },
}


def _canon(result):
    return json.dumps(result, sort_keys=True)


class TestShardInvariance:
    @pytest.mark.slow
    def test_shard_count_does_not_change_report(self):
        results = {}
        for shards in (None, 1, 2, 4):
            data = dict(BASE)
            if shards is not None:
                data["shards"] = shards
            results[shards] = _canon(
                run_traffic_replicate({"data": data, "seed": 31})
            )
        assert results[None] == results[1] == results[2] == results[4]

    def test_repeat_run_is_byte_identical(self):
        data = dict(BASE)
        a = run_traffic_replicate({"data": data, "seed": 31})
        b = run_traffic_replicate({"data": data, "seed": 31})
        assert _canon(a) == _canon(b)
        # And actually exercised the channel under chaos.
        report = a["routers"]["cell"]
        assert report["generated"] > 0


class TestWorkerInvariance:
    def test_worker_count_does_not_change_sweep(self):
        data = dict(BASE)
        del data["chaos"]  # keep the sweep fast: channel faults only
        serial = run_traffic_campaigns(data, replicates=2, workers=0)
        parallel = run_traffic_campaigns(data, replicates=2, workers=2)
        assert [o.ok for o in serial] == [o.ok for o in parallel]
        assert _canon([o.result for o in serial]) == _canon(
            [o.result for o in parallel]
        )


#: Burst workload sized to generate >= 1e4 packets at seed 91.
VOLUME = {
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
        "burst": {"rate": 0.55, "size": 100},
    },
}


class TestVolumeDeterminism:
    """>= 1e4 packets through the batched hot path, byte-identical."""

    @pytest.mark.slow
    def test_workers_invariant_at_volume(self):
        serial = run_traffic_campaigns(VOLUME, replicates=1, workers=0)
        parallel = run_traffic_campaigns(VOLUME, replicates=1, workers=2)
        assert serial[0].result["generated"] >= 10_000
        assert _canon([o.result for o in serial]) == _canon(
            [o.result for o in parallel]
        )

    @pytest.mark.slow
    def test_shards_invariant_at_volume(self):
        results = {}
        for shards in (None, 1, 2, 4):
            data = dict(VOLUME)
            if shards is not None:
                data["shards"] = shards
            results[shards] = _canon(
                run_traffic_replicate({"data": data, "seed": 91})
            )
        assert results[None] == results[1] == results[2] == results[4]
        assert json.loads(results[None])["generated"] >= 10_000
