"""perfbench's probes find every program name they patch, and put it back.

``perfbench/probes.py`` replaces public functions and methods by name —
the engine's ``schedule_recurring``, the radio's ``broadcast``, the
shard coordinator's ``_run`` … — for the life of one replicate.  A
program change that renames or deletes one of those names fails here,
in the test suite, and not only in a traced benchmark run.
"""

import importlib.util
import pathlib

import pytest

from repro.sim import PeriodicTimer
from repro.sim.engine import Simulator

PROBES = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "probes.py"

#: Names the benchmark's counters and spans depend on, by owner.
REQUIRED = {
    "repro.sim.engine.Simulator": (
        "schedule",
        "schedule_at",
        "schedule_recurring",
        "schedule_keyed",
        "run",
    ),
    "repro.sim.engine.Event": ("cancel",),
    "repro.sim.shard._ProcessExecutor": ("_recv_supervised",),
    "repro.sim.shard.ShardedSimulation": ("_run",),
    "repro.sim.shard._FacadeClock": ("schedule_at",),
    "repro.sim.shard": ("send_frame", "recv_frame"),
    "repro.traffic": ("generate_workload", "fold_traffic_report"),
    "repro.perturb.chaos": (
        "build_campaign_simulation",
        "run_chaos_replicate",
    ),
}


def _qualname(owner) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__}.{owner.__qualname__}"
    return owner.__name__


@pytest.fixture
def probes():
    spec = importlib.util.spec_from_file_location("perfbench_probes", PROBES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probes_install_count_and_restore(probes):
    engine_before = dict(vars(Simulator))
    patcher = probes.Patcher()
    try:
        probes.Phases(patcher)
        trace = probes.LayerTrace(patcher, probes.clock(), 0.0)
        saved = list(patcher._saved)
        patched = {}
        for owner, name, _ in saved:
            patched.setdefault(_qualname(owner), set()).add(name)
        for owner, names in REQUIRED.items():
            assert set(names) <= patched.get(owner, set()), owner

        # Under the probes a recurring arm counts apart from a one-shot
        # schedule, once each.
        sim = Simulator()
        timer = PeriodicTimer(sim, 1.0, lambda: None).start()
        sim.schedule(0.5, lambda: None)
        sim.run(until=3.5)
        timer.stop()
        assert trace.counts["engine.wheel"] == 4  # start + 3 re-arms
        assert trace.counts["engine.heap"] == 1
        assert trace.counts["engine.cancelled"] == 1
    finally:
        patcher.restore()
    # A name patched twice (by Phases, then by LayerTrace) is back to
    # what the first patch found.
    first = {}
    for owner, name, original in saved:
        first.setdefault((owner, name), original)
    for (owner, name), original in first.items():
        current = (
            owner.__dict__[name]
            if isinstance(owner, type)
            else getattr(owner, name)
        )
        assert current is original, (_qualname(owner), name)
    assert dict(vars(Simulator)) == engine_before
