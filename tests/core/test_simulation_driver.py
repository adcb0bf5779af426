"""Regression tests for the `Gs3Simulation` driver loop."""

from types import SimpleNamespace

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


class TestOneSnapshotPerCheck:
    def test_stabilize_takes_one_snapshot(self, monkeypatch):
        """The invariant check reads the structure and the gap cells
        from one snapshot."""
        import repro.core.simulation as simulation_module
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
        taken = []
        original = simulation_module.take_snapshot

        def counting(runtime):
            taken.append(runtime)
            return original(runtime)

        monkeypatch.setattr(simulation_module, "take_snapshot", counting)
        report = sim.stabilize(window=50.0, max_time=2_000.0)
        assert report.healed
        assert len(taken) == 1
