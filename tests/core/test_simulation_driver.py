"""Regression tests for the `Gs3Simulation` driver loop."""

from types import SimpleNamespace

import pytest

from repro.core import GS3Config, Gs3Simulation
from repro.geometry import Vec2
from repro.net import Network


class _DrainedSim:
    """A simulator whose queue empties mid-window."""

    pending_events = 0

    def __init__(self):
        self.now = 0.0

    def run_for(self, duration):
        self.now += duration / 2.0

    def next_event_time(self):
        return None


class _ZeroTracer:
    """The last structure change happened at exactly t=0.0."""

    last_time_by_category = {}

    def last_time(self, *categories):
        return 0.0


def _fake_driver():
    """A Gs3Simulation shell around the stub sim/tracer (no nodes)."""
    fake = Gs3Simulation.__new__(Gs3Simulation)
    fake.runtime = SimpleNamespace(sim=_DrainedSim(), tracer=_ZeroTracer())
    fake._started = True  # start() is a no-op on the stub
    return fake


class TestRunUntilStableZeroInstant:
    def test_queue_empty_branch_returns_zero_instant(self):
        """A convergence instant of 0.0 must not be replaced by sim.now.

        White-box: drives the ``next_event_time() is None`` branch
        directly, where the old ``last_time(...) or sim.now`` discarded
        the falsy float 0.0.
        """
        converged_at = _fake_driver().run_until_stable(window=50.0)
        assert converged_at == 0.0

    def test_stabilize_reports_zero_instant(self):
        """The non-raising companion keeps the same 0.0 contract."""
        report = _fake_driver().stabilize(
            window=50.0, check_invariants=False
        )
        assert report.stable
        assert report.converged_at == 0.0

    def test_big_node_only_network_converges_at_zero(self):
        """End to end: a lone big node organises instantly at t=0."""
        network = Network(cell_size=100.0)
        network.add_node(Vec2(0, 0), 200.0, is_big=True)
        sim = Gs3Simulation(network, GS3Config())
        converged_at = sim.run_until_stable(window=50.0)
        assert converged_at == 0.0


def count_snapshots(monkeypatch):
    """Count ``take_snapshot`` calls (both ``snapshot`` and
    ``snapshot_and_gaps`` take theirs through it)."""
    import repro.core.simulation as simulation_module

    taken = []
    original = simulation_module.take_snapshot

    def counting(runtime):
        taken.append(runtime)
        return original(runtime)

    monkeypatch.setattr(simulation_module, "take_snapshot", counting)
    return taken


class TestOneSnapshotPerCheck:
    """Every invariant verdict reads the structure and the gap cells
    from one snapshot (``snapshot_and_gaps``)."""

    #: Stabilising without a check takes no snapshot, so each count
    #: below is the verdicts' own.
    SCENARIO = {
        "seed": 7,
        "config": {"ideal_radius": 100.0, "radius_tolerance": 25.0},
        "deployment": {"kind": "uniform", "field_radius": 170.0,
                       "n_nodes": 80},
        "perturbations": [],
        "settle_window": 50.0,
    }

    def test_stabilize_takes_one_snapshot(self, monkeypatch):
        from repro.core import Gs3DynamicSimulation
        from repro.net import deployment_from_spec
        from repro.sim import RngStreams

        sim = Gs3DynamicSimulation.from_deployment(
            deployment_from_spec(
                {"kind": "uniform", "field_radius": 170.0, "n_nodes": 80},
                RngStreams(7),
            ),
            GS3Config(ideal_radius=100.0, radius_tolerance=25.0),
            seed=7,
        )
        taken = count_snapshots(monkeypatch)
        report = sim.stabilize(window=50.0, max_time=2_000.0)
        assert report.healed
        assert len(taken) == 1

    def test_scenario_verdict_takes_one_snapshot(self, monkeypatch):
        from repro.scenario import Scenario, run_scenario

        taken = count_snapshots(monkeypatch)
        result = run_scenario(Scenario.from_dict(self.SCENARIO))
        assert result.ok()
        assert len(taken) == 1

    def test_replay_verdict_takes_one_snapshot(self, monkeypatch):
        from repro.scenario import Scenario
        from repro.sim.replay import invariant_violated, replay_to

        taken = count_snapshots(monkeypatch)
        state = replay_to(Scenario.from_dict(self.SCENARIO), 7, 120.0)
        assert not invariant_violated(state)
        assert len(taken) == 1

    @pytest.mark.parametrize(
        "command, snapshots",
        # ``heal`` also takes one before the perturbation, to pick its
        # victim head.
        [("configure", 1), ("heal", 2)],
    )
    def test_cli_verdict_takes_one_snapshot(
        self, monkeypatch, capsys, command, snapshots
    ):
        from repro.cli import main

        taken = count_snapshots(monkeypatch)
        code = main(
            ["--seed", "5", "--nodes", "300", "--field-radius", "200",
             command]
        )
        assert code == 0, capsys.readouterr().out
        assert len(taken) == snapshots
