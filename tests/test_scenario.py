"""Tests for the declarative scenario runner."""

import json

import pytest

from repro.scenario import Scenario, ScenarioResult, run_scenario


def base_scenario(**overrides):
    data = {
        "seed": 5,
        "config": {"ideal_radius": 100.0, "radius_tolerance": 25.0},
        "deployment": {
            "kind": "uniform",
            "field_radius": 230.0,
            "n_nodes": 550,
        },
        "perturbations": [],
        "settle_window": 100.0,
    }
    data.update(overrides)
    return data


class TestParsing:
    def test_from_dict_defaults(self):
        scenario = Scenario.from_dict(base_scenario())
        assert scenario.seed == 5
        assert scenario.config.ideal_radius == 100.0
        assert not scenario.mobile

    def test_from_json(self):
        scenario = Scenario.from_json(json.dumps(base_scenario()))
        assert scenario.deployment_spec["n_nodes"] == 550

    def test_missing_perturbation_fields(self):
        with pytest.raises(ValueError):
            Scenario.from_dict(
                base_scenario(perturbations=[{"kind": "kill_head"}])
            )

    def test_channel_block_parsed(self):
        scenario = Scenario.from_dict(
            base_scenario(
                channel={"bernoulli_loss": 0.05, "latency_jitter": 0.2}
            )
        )
        assert scenario.channel is not None
        assert scenario.channel.bernoulli_loss == 0.05
        assert Scenario.from_dict(base_scenario()).channel is None

    def test_traffic_block_parsed_whenever_present(self):
        """``"traffic": {}`` is the default workload, the one the chaos
        and traffic replicates run; only an absent or null block is no
        workload."""
        from repro.traffic import TrafficConfig

        assert Scenario.from_dict(base_scenario(traffic={})).traffic == (
            TrafficConfig()
        )
        assert Scenario.from_dict(base_scenario(traffic=None)).traffic is None
        assert Scenario.from_dict(base_scenario()).traffic is None

    @pytest.mark.parametrize(
        "key", ["perturbation", "settle_windw", "chaos", "typo_key"]
    )
    def test_unknown_top_level_key_rejected(self, key):
        message = rf"unknown scenario keys \['{key}'\]"
        with pytest.raises(ValueError, match=message):
            Scenario.from_dict(base_scenario(**{key: {}}))

    def test_campaign_reads_its_chaos_block(self):
        from repro.perturb.chaos import parse_campaign

        scenario, chaos = parse_campaign(
            base_scenario(chaos={"kill_rate": 0.05})
        )
        assert scenario == Scenario.from_dict(base_scenario())
        assert chaos.kill_rate == 0.05
        with pytest.raises(ValueError, match="unknown scenario keys"):
            parse_campaign(base_scenario(chaoss={"kill_rate": 0.05}))

    def test_stable_result_payload_has_no_unstable_key(self):
        result = ScenarioResult(
            configured_at=5.0,
            perturbation_log=[],
            final_violations=[],
            final_cells=3,
        )
        assert "unstable" not in result.to_dict()
        assert result.ok()
        unsettled = ScenarioResult(None, [], [], 1, unstable="budget")
        assert unsettled.to_dict()["unstable"] == "budget"
        assert not unsettled.ok()

    def test_channel_block_typo_rejected_at_parse_time(self):
        with pytest.raises(ValueError, match="unknown channel fault keys"):
            Scenario.from_dict(base_scenario(channel={"bernouli_loss": 0.1}))

    def test_jam_and_churn_required_fields(self):
        with pytest.raises(ValueError, match="jam_region"):
            Scenario.from_dict(
                base_scenario(
                    perturbations=[
                        {"kind": "jam_region", "at": 1.0, "center": [0, 0]}
                    ]
                )
            )
        with pytest.raises(ValueError, match="churn"):
            Scenario.from_dict(
                base_scenario(perturbations=[{"kind": "churn", "at": 1.0}])
            )

    def test_unknown_deployment_kind(self):
        scenario = Scenario.from_dict(
            base_scenario(deployment={"kind": "nope", "field_radius": 1.0})
        )
        with pytest.raises(ValueError):
            scenario.build_deployment()

    def test_grid_deployment(self):
        scenario = Scenario.from_dict(
            base_scenario(
                deployment={
                    "kind": "grid",
                    "field_radius": 100.0,
                    "spacing": 20.0,
                    "jitter": 3.0,
                }
            )
        )
        deployment = scenario.build_deployment()
        assert deployment.node_count > 10

    def test_poisson_deployment(self):
        scenario = Scenario.from_dict(
            base_scenario(
                deployment={
                    "kind": "poisson",
                    "field_radius": 50.0,
                    "density_lambda": 0.2,
                }
            )
        )
        deployment = scenario.build_deployment()
        assert deployment.node_count >= 1


class TestExecution:
    def test_plain_configuration(self):
        result = run_scenario(Scenario.from_dict(base_scenario()))
        assert result.ok()
        assert result.final_cells >= 5
        assert result.perturbation_log == []

    def test_perturbation_sequence(self):
        scenario = Scenario.from_dict(
            base_scenario(
                perturbations=[
                    {"kind": "kill_head", "at": 300.0},
                    {"kind": "join", "at": 900.0, "position": [30.0, 30.0]},
                ]
            )
        )
        result = run_scenario(scenario)
        assert result.ok()
        assert [p["kind"] for p in result.perturbation_log] == [
            "kill_head",
            "join",
        ]
        for entry in result.perturbation_log:
            assert entry["healing_time"] >= 0.0

    def test_lossy_channel_with_jam_and_churn(self):
        scenario = Scenario.from_dict(
            base_scenario(
                deployment={
                    "kind": "uniform",
                    "field_radius": 130.0,
                    "n_nodes": 160,
                },
                channel={"bernoulli_loss": 0.05},
                perturbations=[
                    {
                        "kind": "jam_region",
                        "at": 300.0,
                        "center": [0.0, 60.0],
                        "radius": 40.0,
                        "duration": 50.0,
                    },
                    {
                        "kind": "churn",
                        "at": 500.0,
                        "duration": 150.0,
                        "leave_rate": 0.005,
                        "join_rate": 0.003,
                    },
                ],
            )
        )
        result = run_scenario(scenario)
        assert result.ok()
        assert [p["kind"] for p in result.perturbation_log] == [
            "jam_region",
            "churn",
        ]
        assert "jammed disk" in result.perturbation_log[0]["detail"]
        assert "churn events" in result.perturbation_log[1]["detail"]

    def test_unknown_perturbation_kind_rejected_at_parse_time(self):
        # A typo'd kind must fail before the expensive configuration
        # phase, not mid-run.
        with pytest.raises(ValueError, match="unknown perturbation kind"):
            Scenario.from_dict(
                base_scenario(perturbations=[{"kind": "meteor", "at": 10.0}])
            )

    def test_kill_head_without_candidate_is_a_clear_error(self):
        from types import SimpleNamespace

        from repro.scenario import _non_big_head

        big_only = SimpleNamespace(
            snapshot=lambda: SimpleNamespace(
                heads={0: SimpleNamespace(node_id=0, is_big=True)}
            )
        )
        with pytest.raises(ValueError, match="needs a non-big head"):
            _non_big_head(big_only, "kill_head")

    def test_mobile_scenario_moves_big(self):
        scenario = Scenario.from_dict(
            base_scenario(
                mobile=True,
                perturbations=[
                    {"kind": "move_big", "at": 300.0, "to": [173.2, 0.0]}
                ],
            )
        )
        result = run_scenario(scenario)
        assert result.perturbation_log[0]["kind"] == "move_big"
        assert result.final_cells >= 5
