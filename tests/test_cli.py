"""Tests for the command-line interface."""

import json
import os
import time

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_configure_defaults(self):
        args = build_parser().parse_args(["configure"])
        assert args.command == "configure"
        assert args.ideal_radius == 100.0

    def test_global_options(self):
        args = build_parser().parse_args(
            ["--seed", "7", "--nodes", "500", "configure"]
        )
        assert args.seed == 7
        assert args.nodes == 500

    def test_heal_choices(self):
        args = build_parser().parse_args(
            ["heal", "--perturbation", "corruption"]
        )
        assert args.perturbation == "corruption"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["heal", "--perturbation", "nope"])

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep", "scenario.json"])
        assert args.command == "sweep"
        assert args.replicates == 8
        assert args.workers is None
        assert args.chunk_size is None
        assert args.base_seed is None

    def test_sweep_options(self):
        args = build_parser().parse_args(
            [
                "sweep",
                "s.json",
                "--replicates",
                "4",
                "--workers",
                "0",
                "--chunk-size",
                "2",
                "--base-seed",
                "9",
            ]
        )
        assert args.replicates == 4
        assert args.workers == 0
        assert args.chunk_size == 2
        assert args.base_seed == 9

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos", "campaign.json"])
        assert args.command == "chaos"
        assert args.campaigns == 8
        assert args.budget is None
        assert args.workers is None
        assert args.base_seed is None

    def test_chaos_options(self):
        args = build_parser().parse_args(
            [
                "chaos",
                "c.json",
                "--campaigns",
                "3",
                "--budget",
                "5000",
                "--workers",
                "0",
                "--base-seed",
                "9",
            ]
        )
        assert args.campaigns == 3
        assert args.budget == 5000.0
        assert args.workers == 0
        assert args.base_seed == 9


class TestCommands:
    COMMON = ["--nodes", "600", "--field-radius", "250"]

    def test_figures(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out
        assert "fig8" in out

    def test_configure(self, capsys):
        code = main(["--seed", "5", *self.COMMON, "configure"])
        out = capsys.readouterr().out
        assert code == 0
        assert "cells" in out
        assert "fixpoint violations" in out

    def test_configure_with_svg(self, tmp_path, capsys):
        svg_path = tmp_path / "out.svg"
        code = main(
            ["--seed", "5", *self.COMMON, "configure", "--svg", str(svg_path)]
        )
        assert code == 0
        assert svg_path.exists()
        assert "<svg" in svg_path.read_text()

    def test_configure_with_map(self, capsys):
        code = main(["--seed", "5", *self.COMMON, "configure", "--map"])
        out = capsys.readouterr().out
        assert code == 0
        assert "#" in out

    def test_heal_head_kill(self, capsys):
        code = main(["--seed", "5", *self.COMMON, "heal"])
        out = capsys.readouterr().out
        assert code == 0
        assert "healing time" in out

    def test_sweep(self, tmp_path, capsys):
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(
            json.dumps(
                {
                    "seed": 5,
                    "config": {
                        "ideal_radius": 100.0,
                        "radius_tolerance": 25.0,
                    },
                    "deployment": {
                        "kind": "uniform",
                        "field_radius": 220.0,
                        "n_nodes": 500,
                    },
                    "perturbations": [],
                    "settle_window": 100.0,
                }
            )
        )
        report_path = tmp_path / "report.json"
        code = main(
            [
                "sweep",
                str(scenario_path),
                "--replicates",
                "2",
                "--workers",
                "0",
                "--json",
                str(report_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2 replicates" in out
        assert "2/2 healthy" in out
        report = json.loads(report_path.read_text())
        assert len(report["replicates"]) == 2
        # Distinct derived seeds per replicate.
        seeds = [r["seed"] for r in report["replicates"]]
        assert len(set(seeds)) == 2

    def test_sweep_crash_exits_2(self, tmp_path, capsys):
        """A replicate traceback must surface as exit code 2, not as a
        quietly 'unhealthy' run."""
        scenario_path = tmp_path / "crash.json"
        scenario_path.write_text(
            json.dumps(
                {
                    "seed": 5,
                    "deployment": {
                        "kind": "uniform",
                        "field_radius": 60.0,
                        "n_nodes": 0,  # big node only
                    },
                    # kill_head needs a non-big head; there is none.
                    "perturbations": [{"kind": "kill_head", "at": 10.0}],
                    "settle_window": 30.0,
                }
            )
        )
        code = main(
            ["sweep", str(scenario_path), "--replicates", "2", "--workers", "0"]
        )
        out = capsys.readouterr().out
        assert code == 2
        assert "2 crashed" in out
        assert "needs a non-big head" in out

    def test_chaos(self, tmp_path, capsys):
        campaign_path = tmp_path / "campaign.json"
        campaign_path.write_text(
            json.dumps(
                {
                    "seed": 5,
                    "config": {
                        "ideal_radius": 100.0,
                        "radius_tolerance": 25.0,
                    },
                    "deployment": {
                        "kind": "uniform",
                        "field_radius": 130.0,
                        "n_nodes": 160,
                    },
                    "chaos": {
                        "duration": 200.0,
                        "kill_rate": 0.005,
                        "settle_window": 80.0,
                    },
                }
            )
        )
        report_path = tmp_path / "verdicts.json"
        code = main(
            [
                "chaos",
                str(campaign_path),
                "--campaigns",
                "2",
                "--workers",
                "0",
                "--json",
                str(report_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2 campaigns" in out
        assert "2/2 healed" in out
        report = json.loads(report_path.read_text())
        assert report["summary"]["healed"] == 2
        assert report["summary"]["crashed"] == 0
        assert len(report["verdicts"]) == 2
        assert {v["seed"] for v in report["verdicts"]} != {5}

    def test_chaos_budget_override_can_convict(self, tmp_path, capsys):
        """An absurdly small healing budget forces a timeout verdict and
        exit code 1 (ran fine, did not heal)."""
        campaign_path = tmp_path / "campaign.json"
        campaign_path.write_text(
            json.dumps(
                {
                    "seed": 5,
                    "config": {
                        "ideal_radius": 100.0,
                        "radius_tolerance": 25.0,
                    },
                    "deployment": {
                        "kind": "uniform",
                        "field_radius": 130.0,
                        "n_nodes": 160,
                    },
                    "chaos": {
                        "duration": 200.0,
                        "kill_rate": 0.02,
                        # A jam window outlasting the chaos phase defers
                        # healing past the (tiny) budget below.
                        "jam_rate": 0.01,
                        "jam_radius": 50.0,
                        "jam_duration": 120.0,
                        "settle_window": 80.0,
                    },
                }
            )
        )
        code = main(
            [
                "chaos",
                str(campaign_path),
                "--campaigns",
                "1",
                "--workers",
                "0",
                "--budget",
                "1.0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "TIMEOUT" in out


class TestStoreAndReplayParser:
    def test_sweep_store_flags(self):
        args = build_parser().parse_args(
            ["sweep", "s.json", "--store", "runs", "--resume",
             "--retries", "2"]
        )
        assert args.store == "runs"
        assert args.resume is True
        assert args.retries == 2

    def test_store_flags_default_off(self):
        for command in ("sweep", "chaos"):
            args = build_parser().parse_args([command, "x.json"])
            assert args.store is None
            assert args.resume is False
            assert args.retries == 0

    def test_replay_requires_at(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["replay", "s.json"])
        args = build_parser().parse_args(
            ["replay", "s.json", "--at", "450", "--replay-seed", "7"]
        )
        assert args.at == 450.0
        assert args.replay_seed == 7

    def test_bisect_options(self):
        args = build_parser().parse_args(
            ["bisect", "s.json", "--predicate", "partition",
             "--t-max", "960", "--tol", "2"]
        )
        assert args.predicate == "partition"
        assert args.t_max == 960.0
        assert args.tol == 2.0
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["bisect", "s.json", "--predicate", "nope", "--t-max", "10"]
            )


class TestStoreAndReplayCommands:
    TINY = {
        "seed": 3,
        "config": {"ideal_radius": 100.0, "radius_tolerance": 25.0},
        "deployment": {
            "kind": "uniform",
            "field_radius": 160.0,
            "n_nodes": 80,
        },
        "perturbations": [{"kind": "kill_head", "at": 400.0}],
        "settle_window": 60.0,
    }

    def _scenario_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(self.TINY))
        return path

    def test_sweep_resume_is_byte_identical(self, tmp_path, capsys):
        scenario_path = self._scenario_file(tmp_path)
        store = tmp_path / "runs"
        reports = []
        for name, extra in (("a.json", []), ("b.json", ["--resume"])):
            report = tmp_path / name
            code = main(
                [
                    "sweep",
                    str(scenario_path),
                    "--replicates",
                    "2",
                    "--workers",
                    "0",
                    "--store",
                    str(store),
                    "--json",
                    str(report),
                    *extra,
                ]
            )
            assert code == 0
            reports.append(report.read_bytes())
        out = capsys.readouterr().out
        assert "cached: 0/2" in out
        assert "cached: 2/2" in out
        assert reports[0] == reports[1]
        report = json.loads(reports[1])
        assert report["provenance"]["kind"] == "sweep"
        assert report["provenance"]["base_seed"] == 3
        assert len(report["provenance"]["scenario_digest"]) == 64

    def test_replay_prints_digest(self, tmp_path, capsys):
        scenario_path = self._scenario_file(tmp_path)
        report_path = tmp_path / "replay.json"
        code = main(
            [
                "replay",
                str(scenario_path),
                "--at",
                "450",
                "--json",
                str(report_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "state_digest" in out
        report = json.loads(report_path.read_text())
        assert report["time"] == 450.0
        assert report["completed"] is False
        assert len(report["state_digest"]) == 64

    def test_bisect_without_onset_exits_1(self, tmp_path, capsys):
        scenario_path = self._scenario_file(tmp_path)
        # The healthy TINY run never partitions: no onset, exit 1.
        code = main(
            [
                "bisect",
                str(scenario_path),
                "--predicate",
                "partition",
                "--t-max",
                "100",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "never true" in out


class TestSupervisedExecutionFlags:
    def test_sweep_and_chaos_accept_the_supervise_flags(self):
        for command in ("sweep", "chaos"):
            args = build_parser().parse_args(
                [
                    command,
                    "s.json",
                    "--infra-chaos",
                    "kill@1,stall@3:1",
                    "--task-deadline",
                    "30",
                    "--infra-retries",
                    "3",
                ]
            )
            assert args.infra_chaos == "kill@1,stall@3:1"
            assert args.task_deadline == 30.0
            assert args.infra_retries == 3

    def test_supervise_flags_default_off(self):
        for command in ("sweep", "chaos"):
            args = build_parser().parse_args([command, "x.json"])
            assert args.infra_chaos is None
            assert args.task_deadline is None
            assert args.infra_retries is None

    def test_store_gc_older_than_flag(self):
        args = build_parser().parse_args(
            ["store", "gc", "runs", "--older-than", "7d", "--dry-run"]
        )
        assert args.older_than == "7d"
        assert args.dry_run is True


class TestSupervisedExecution:
    def _scenario(self, tmp_path):
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(
            json.dumps(
                {
                    "seed": 5,
                    "config": {
                        "ideal_radius": 100.0,
                        "radius_tolerance": 25.0,
                    },
                    "deployment": {
                        "kind": "uniform",
                        "field_radius": 220.0,
                        "n_nodes": 500,
                    },
                    "perturbations": [],
                    "settle_window": 100.0,
                }
            )
        )
        return scenario_path

    def test_surviving_a_killed_worker_is_byte_identical(
        self, tmp_path, capsys
    ):
        """The acceptance criterion: a sweep that loses a worker to
        SIGKILL finishes with a report byte-identical to the clean run."""
        scenario_path = self._scenario(tmp_path)
        clean_path = tmp_path / "clean.json"
        code = main(
            [
                "sweep",
                str(scenario_path),
                "--replicates",
                "2",
                "--workers",
                "2",
                "--json",
                str(clean_path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        chaos_path = tmp_path / "chaos.json"
        code = main(
            [
                "sweep",
                str(scenario_path),
                "--replicates",
                "2",
                "--workers",
                "2",
                "--infra-chaos",
                "kill@0",
                "--json",
                str(chaos_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "infra: 1 worker death(s)" in out
        assert chaos_path.read_bytes() == clean_path.read_bytes()

    def test_infra_chaos_without_a_process_backend_exits_2(
        self, tmp_path, capsys
    ):
        scenario_path = self._scenario(tmp_path)
        code = main(
            [
                "sweep",
                str(scenario_path),
                "--replicates",
                "1",
                "--workers",
                "0",
                "--infra-chaos",
                "kill@0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 2
        assert "needs a process backend" in out

    def test_bad_infra_chaos_spec_exits_2(self, tmp_path, capsys):
        scenario_path = self._scenario(tmp_path)
        code = main(
            [
                "sweep",
                str(scenario_path),
                "--replicates",
                "1",
                "--workers",
                "1",
                "--infra-chaos",
                "explode@9",
            ]
        )
        out = capsys.readouterr().out
        assert code == 2
        assert "unknown infra fault" in out


class TestCampaignDriver:
    CAMPAIGN = {
        "seed": 5,
        "config": {"ideal_radius": 100.0, "radius_tolerance": 25.0},
        "deployment": {
            "kind": "uniform",
            "field_radius": 130.0,
            "n_nodes": 160,
        },
        "chaos": {
            "duration": 200.0,
            "kill_rate": 0.005,
            "settle_window": 80.0,
        },
    }

    def test_shard_executor_never_forks_the_run_identity(
        self, tmp_path, capsys
    ):
        """The executor is execution policy: a sharded campaign stored
        with the inline executor resumes under the process executor,
        and both reports (provenance included) are byte-identical."""
        campaign_path = tmp_path / "campaign.json"
        campaign_path.write_text(json.dumps(self.CAMPAIGN))
        store = tmp_path / "runs"
        reports = []
        for executor, extra in (("inline", []), ("process", ["--resume"])):
            report = tmp_path / f"{executor}.json"
            code = main(
                [
                    "chaos",
                    str(campaign_path),
                    "--campaigns",
                    "1",
                    "--workers",
                    "0",
                    "--shards",
                    "2",
                    "--shard-executor",
                    executor,
                    "--store",
                    str(store),
                    "--json",
                    str(report),
                    *extra,
                ]
            )
            assert code == 0
            reports.append(report.read_bytes())
        out = capsys.readouterr().out
        assert "cached: 0/1" in out
        assert "cached: 1/1" in out
        assert reports[0] == reports[1]

    def test_shard_count_never_forks_the_run_identity(
        self, tmp_path, capsys
    ):
        """Unsharded and sharded runs are one trajectory: a campaign
        stored unsharded resumes at ``--shards 2``, byte-identical."""
        campaign_path = tmp_path / "campaign.json"
        campaign_path.write_text(json.dumps(self.CAMPAIGN))
        store = tmp_path / "runs"
        reports = []
        for extra in ([], ["--shards", "2", "--resume"]):
            report = tmp_path / f"report{len(reports)}.json"
            code = main(
                [
                    "chaos", str(campaign_path), "--campaigns", "1",
                    "--workers", "0", "--store", str(store),
                    "--json", str(report), *extra,
                ]
            )
            assert code == 0
            reports.append(report.read_bytes())
        out = capsys.readouterr().out
        assert "cached: 0/1" in out
        assert "cached: 1/1" in out
        assert reports[0] == reports[1]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep", "--replicates", "-3"], "--replicates must be >= 1"),
            (["chaos", "--campaigns", "0"], "--campaigns must be >= 1"),
            (["traffic", "--replicates", "0"], "--replicates must be >= 1"),
            (["sweep", "--resume"], "need --store"),
            (["chaos", "--retries", "3"], "need --store"),
            (["traffic", "--store", "runs", "--retries", "-1"],
             "--retries must be >= 0"),
            (["chaos", "--workers", "-1"], "workers must be >= 0"),
        ],
    )
    def test_rejects_empty_runs_and_orphan_flags(
        self, tmp_path, capsys, argv, message
    ):
        campaign_path = tmp_path / "campaign.json"
        campaign_path.write_text(json.dumps(self.CAMPAIGN))
        command, *flags = argv
        code = main([command, str(campaign_path), "--workers", "0", *flags])
        out = capsys.readouterr().out
        assert code == 2
        assert out.startswith("error: ")
        assert message in out
        assert out.count("\n") == 1


class TestMalformedInput:
    """A bad input file ends in one ``error: <path>: …`` line, exit 2."""

    SCENARIO = {
        "seed": 3,
        "config": {"ideal_radius": 100.0, "radius_tolerance": 25.0},
        "deployment": {"kind": "uniform", "field_radius": 120.0,
                       "n_nodes": 60},
        "perturbations": [],
        "traffic": {"duration": 10.0, "flows": {"rate": 0.1}},
    }

    COMMANDS = [
        ["scenario"],
        ["replay", "--at", "10"],
        ["bisect", "--t-max", "10"],
        ["sweep", "--workers", "0"],
        ["chaos", "--workers", "0"],
        ["traffic", "--workers", "0"],
    ]

    def _run(self, tmp_path, capsys, command, text):
        path = tmp_path / "input.json"
        path.write_text(text)
        code = main([command[0], str(path), *command[1:]])
        out = capsys.readouterr().out
        assert code == 2
        assert out.startswith(f"error: {path}: ")
        assert out.count("\n") == 1
        return out

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_trailing_comma(self, tmp_path, capsys, command):
        text = json.dumps(self.SCENARIO)[:-1] + ",}"
        self._run(tmp_path, capsys, command, text)

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_unknown_perturbation_kind(self, tmp_path, capsys, command):
        data = dict(self.SCENARIO, perturbations=[{"kind": "zap", "at": 1}])
        out = self._run(tmp_path, capsys, command, json.dumps(data))
        assert "unknown perturbation kind 'zap'" in out

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    @pytest.mark.parametrize(
        "step, message",
        [
            (
                {"kind": "churn", "at": 1, "duration": -300},
                "churn duration must be finite and >= 0",
            ),
            (
                {"kind": "jam_region", "at": 1, "center": [0, 0],
                 "radius": 50, "duration": -5},
                "jam_region duration must be finite and > 0",
            ),
            (
                {"kind": "jam_region", "at": 1, "center": [0, 0],
                 "radius": 50, "duration": 0},
                "jam_region duration must be finite and > 0",
            ),
        ],
        ids=["churn-negative", "jam-negative", "jam-zero"],
    )
    def test_bad_duration_rejected_before_running(
        self, tmp_path, capsys, command, step, message
    ):
        data = dict(self.SCENARIO, perturbations=[step])
        out = self._run(tmp_path, capsys, command, json.dumps(data))
        assert message in out

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_top_level_not_an_object(self, tmp_path, capsys, command):
        out = self._run(tmp_path, capsys, command, "[]")
        assert "expected a JSON object" in out

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_missing_file(self, tmp_path, capsys, command):
        path = tmp_path / "absent.json"
        code = main([command[0], str(path), *command[1:]])
        out = capsys.readouterr().out
        assert code == 2
        assert out.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("command", COMMANDS[3:], ids=lambda c: c[0])
    @pytest.mark.parametrize(
        "block, message",
        [({"kil_rate": 0.01}, "unknown chaos keys"), ([], "is an object")],
        ids=["typo", "list"],
    )
    def test_bad_chaos_block_rejected_before_any_replicate(
        self, tmp_path, capsys, monkeypatch, command, block, message
    ):
        import repro.sim

        started = []
        monkeypatch.setattr(
            repro.sim, "run_campaign", lambda *a, **k: started.append(1)
        )
        data = dict(self.SCENARIO, chaos=block)
        count = "--campaigns" if command[0] == "chaos" else "--replicates"
        out = self._run(
            tmp_path, capsys, command + [count, "2"], json.dumps(data)
        )
        assert message in out
        assert started == []

    def test_version_1_store_rejected(self, tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(self.SCENARIO))
        store = tmp_path / "runs"
        store.mkdir()
        (store / "manifest.json").write_text(
            json.dumps({"version": 1, "runs": {}})
        )
        code = main(
            ["sweep", str(path), "--workers", "0", "--store", str(store)]
        )
        out = capsys.readouterr().out
        assert code == 2
        assert out.startswith("error: ") and "manifest version 1" in out
        assert out.count("\n") == 1


class TestRefusedShardedOp:
    """An op a sharded run refuses mid-run ends in one ``error:`` line,
    exit 2, with the library's message."""

    SCENARIO = {
        "seed": 3,
        "config": {"ideal_radius": 100.0, "radius_tolerance": 25.0},
        "deployment": {"kind": "uniform", "field_radius": 170.0,
                       "n_nodes": 80},
        "perturbations": [
            {"kind": "move_node", "at": 200.0, "node_id": 3,
             "to": [-150.0, 0.0]}
        ],
        "shards": 4,
    }

    @pytest.mark.parametrize(
        "command",
        [["scenario"], ["replay", "--at", "2000"], ["bisect", "--t-max", "2000"]],
        ids=lambda c: c[0],
    )
    def test_cross_region_move(self, tmp_path, capsys, command):
        path = tmp_path / "move.json"
        path.write_text(json.dumps(self.SCENARIO))
        code = main([command[0], str(path), *command[1:]])
        out = capsys.readouterr().out
        assert code == 2
        assert out.startswith(
            "error: node 3 would cross from shard 1 to 0; "
            "cross-region moves are not supported"
        )
        assert out.count("\n") == 1


class TestStoreExpiryCli:
    def _populated_store(self, tmp_path):
        from repro.sim import RunStore, StoredRecord

        store_dir = tmp_path / "runs"
        store = RunStore(store_dir)
        store.register_run("stale", "sweep", "scn")
        store.append("stale", StoredRecord(seed=1, ok=True, result=1))
        store.update_run("stale", 1)
        old = time.time() - 3600.0
        for path in store.run_dir("stale").glob("shard-*.jsonl"):
            os.utime(path, (old, old))
        return store_dir

    def test_gc_older_than_expires(self, tmp_path, capsys):
        from repro.sim import RunStore

        store_dir = self._populated_store(tmp_path)
        code = main(
            ["store", "gc", str(store_dir), "--older-than", "30m"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "expired 1 run(s) older than 30m" in out
        assert "stale" not in RunStore(store_dir).runs()

    def test_gc_older_than_dry_run_keeps_everything(self, tmp_path, capsys):
        from repro.sim import RunStore

        store_dir = self._populated_store(tmp_path)
        code = main(
            [
                "store",
                "gc",
                str(store_dir),
                "--older-than",
                "30m",
                "--dry-run",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "would expire 1 run(s)" in out
        assert "stale" in RunStore(store_dir).runs()

    def test_gc_bad_age_exits_2(self, tmp_path, capsys):
        store_dir = self._populated_store(tmp_path)
        code = main(
            ["store", "gc", str(store_dir), "--older-than", "soon"]
        )
        out = capsys.readouterr().out
        assert code == 2
        assert "bad age" in out
