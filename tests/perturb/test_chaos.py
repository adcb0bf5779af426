"""Tests for chaos campaigns and stabilization verdicts."""

import math

import pytest

from repro.core import GS3Config, Gs3DynamicSimulation
from repro.geometry import Vec2
from repro.net import deployment_from_spec
from repro.perturb import (
    ChaosCampaign,
    ChaosConfig,
    RegionJam,
    PerturbationInjector,
    run_chaos_campaigns,
    run_chaos_replicate,
    summarize_verdicts,
)
from repro.sim import RngStreams
from repro.sim.parallel import ReplicateOutcome

SMALL = {
    "seed": 11,
    "config": {"ideal_radius": 100.0, "radius_tolerance": 25.0},
    "deployment": {
        "kind": "uniform",
        "field_radius": 130.0,
        "n_nodes": 160,
    },
    "chaos": {
        "duration": 250.0,
        "kill_rate": 0.004,
        "join_rate": 0.002,
        "settle_window": 80.0,
    },
}


class TestChaosConfig:
    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown chaos keys"):
            ChaosConfig.from_dict({"kill_rte": 0.1})

    def test_rejects_negative_rates_and_bad_jams(self):
        with pytest.raises(ValueError):
            ChaosConfig(kill_rate=-0.1)
        with pytest.raises(ValueError):
            ChaosConfig(jam_rate=0.1, jam_radius=0.0)
        with pytest.raises(ValueError):
            ChaosConfig(heal_budget=0.0)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"duration": math.inf},
            {"duration": math.nan},
            {"kill_rate": math.nan},
            {"join_rate": math.inf},
            {"jam_rate": 0.1, "jam_duration": math.inf},
            {"jam_rate": 0.1, "jam_radius": math.nan},
            {"move_rate": 0.1, "mean_move_step": 0.0},
            {"move_rate": 0.1, "mean_move_step": math.nan},
            {"settle_window": math.nan},
            {"configure_budget": math.inf},
            {"heal_budget": -5.0},
        ],
        ids=lambda o: "-".join(f"{k}={v}" for k, v in o.items()),
    )
    def test_rejects_non_finite_or_out_of_range_values(self, overrides):
        with pytest.raises(ValueError, match="finite"):
            ChaosConfig.from_dict(overrides)

    def test_round_trip(self):
        config = ChaosConfig(duration=100.0, kill_rate=0.01, jam_rate=0.001)
        assert ChaosConfig.from_dict(config.to_dict()) == config


class TestChaosCampaign:
    def _sim(self, seed=3):
        streams = RngStreams(seed)
        deployment = deployment_from_spec(
            {"kind": "uniform", "field_radius": 120.0, "n_nodes": 120},
            streams,
        )
        sim = Gs3DynamicSimulation.from_deployment(
            deployment,
            GS3Config(ideal_radius=100.0, radius_tolerance=25.0),
            seed=seed,
        )
        return sim, deployment, streams

    def test_schedule_is_seed_deterministic_and_sorted(self):
        sim, deployment, _ = self._sim()
        config = ChaosConfig(
            duration=500.0,
            kill_rate=0.01,
            join_rate=0.01,
            move_rate=0.005,
            jam_rate=0.004,
            jam_radius=30.0,
            jam_duration=50.0,
        )
        schedules = [
            ChaosCampaign(config, RngStreams(99)).events(
                sim.network, deployment.field, 10.0
            )
            for _ in range(2)
        ]
        assert schedules[0] == schedules[1]
        times = [e.time for e in schedules[0]]
        assert times == sorted(times)
        assert all(10.0 <= t < 510.0 for t in times)
        assert any(isinstance(e, RegionJam) for e in schedules[0])

    def test_zero_rates_mean_no_events(self):
        sim, deployment, streams = self._sim()
        campaign = ChaosCampaign(ChaosConfig(duration=500.0), streams)
        assert campaign.events(sim.network, deployment.field, 0.0) == []

    def test_region_jam_reaches_the_radio(self):
        sim, deployment, _ = self._sim()
        sim.run_until_stable(window=60.0, max_time=20_000.0)
        start = sim.now
        PerturbationInjector(sim).schedule(
            [
                RegionJam(
                    time=start + 5.0,
                    center=Vec2(0, 0),
                    radius=40.0,
                    duration=30.0,
                )
            ]
        )
        sim.run_for(10.0)
        faults = sim.runtime.radio.faults
        assert faults is not None
        assert len(faults.jam_windows) == 1
        assert faults.jam_windows[0].end == start + 35.0
        assert sim.tracer.count("perturb.jam") == 1


class TestRunChaosReplicate:
    def test_verdict_shape_and_health(self):
        verdict = run_chaos_replicate({"data": SMALL, "seed": 21})
        assert verdict["seed"] == 21
        assert verdict["healed"] is True
        assert verdict["timed_out"] is False
        assert verdict["healing_time"] is not None
        assert verdict["violations"] == []
        assert verdict["configured_at"] is not None
        assert verdict["events_injected"] >= 0
        assert verdict["cells_disturbed"] >= 0

    def test_identical_across_worker_counts(self):
        serial, pooled = (
            run_chaos_campaigns(SMALL, campaigns=2, workers=w)
            for w in (0, 2)
        )
        assert [o.result for o in serial] == [o.result for o in pooled]
        assert all(o.ok for o in serial)


class TestSummarizeVerdicts:
    def _outcome(self, index, ok=True, **verdict):
        base = {
            "seed": index,
            "healed": True,
            "timed_out": False,
            "healing_time": 100.0,
            "cells_disturbed": 2,
            "events_injected": 5,
            "violations": [],
            "last_change_category": None,
            "configured_at": 50.0,
        }
        base.update(verdict)
        if ok:
            return ReplicateOutcome(index, True, result=base, elapsed=0.1)
        return ReplicateOutcome(index, False, error="boom", elapsed=0.1)

    def test_percentiles_and_fractions(self):
        outcomes = [
            self._outcome(i, healing_time=t)
            for i, t in enumerate([10.0, 20.0, 30.0, 40.0])
        ] + [
            self._outcome(
                4,
                healed=False,
                timed_out=True,
                healing_time=None,
                violations=["I1"],
            ),
            self._outcome(5, ok=False),
        ]
        summary = summarize_verdicts(outcomes)
        assert summary["campaigns"] == 6
        assert summary["crashed"] == 1
        assert summary["healed"] == 4
        assert summary["healed_fraction"] == pytest.approx(4 / 5)
        assert summary["timed_out"] == 1
        assert summary["healing_time"] == {
            "p50": 20.0,
            "p90": 40.0,
            "max": 40.0,
        }

    def test_empty_and_unhealed(self):
        assert summarize_verdicts([])["healed_fraction"] == 0.0
        summary = summarize_verdicts(
            [self._outcome(0, healed=False, healing_time=None)]
        )
        assert summary["healing_time"] is None
