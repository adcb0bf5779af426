"""Supervised shard executor: kill/stall/corrupt a worker, stay identical.

The contract (DESIGN.md § 10): shard workers are deterministic
functions of their spec and command journal, so a SIGKILLed or hung
worker is respawned at the epoch barrier, replayed, and the run's
fingerprint is **byte-identical** to an undisturbed inline run.  Past
the retry budget the campaign degrades ``process -> inline`` (recorded
as a structured degradation) instead of crashing — unless degradation
is disabled, in which case a :class:`ShardError` names the dead shard.
"""

from collections import Counter

import pytest

from repro.core.config import GS3Config
from repro.geometry import Vec2
from repro.sim import ShardError, state_digest
from repro.sim.shard import ShardedSimulation
from repro.sim.supervise import (
    InfraChaosConfig,
    RetryPolicy,
    ShardSupervision,
    drain_degradations,
)

CONFIG = GS3Config(ideal_radius=100.0, radius_tolerance=25.0)
DEPLOYMENT = {"kind": "uniform", "field_radius": 170.0, "n_nodes": 80}
SHARDS = 3
SEED = 11


def _fingerprint(sim):
    return (
        state_digest(sim.snapshot()),
        sim.now,
        Counter(
            (r.time, r.category, r.node, r.details)
            for r in sim.tracer.records
        ),
    )


def _drive(sim):
    """A short campaign: settle, kill a head, settle again."""
    sim.start()
    sim.run_for(120.0)
    snapshot = sim.snapshot()
    victim = next(
        v.node_id for v in snapshot.heads.values() if not v.is_big
    )
    sim.kill_node(victim)
    sim.run_for(60.0)
    return _fingerprint(sim)


def _run(executor="inline", supervise=None):
    sim = ShardedSimulation(
        DEPLOYMENT,
        CONFIG,
        seed=SEED,
        shards=SHARDS,
        executor=executor,
        supervise=supervise,
    )
    try:
        return _drive(sim), sim.supervision_log
    finally:
        sim.close()


@pytest.fixture(scope="module")
def baseline():
    fingerprint, _ = _run("inline")
    return fingerprint


class TestSupervisedRecovery:
    def test_killed_shard_worker_is_respawned_byte_identically(
        self, baseline
    ):
        supervise = ShardSupervision(
            policy=RetryPolicy(retries=2, base_delay=0.01),
            infra_chaos=InfraChaosConfig.parse("kill@2:1"),
        )
        fingerprint, log = _run("process", supervise)
        assert fingerprint == baseline
        assert log.worker_deaths == 1
        assert log.respawns == 1
        assert log.retries == 1
        assert not log.degraded

    def test_hung_shard_worker_trips_watchdog_byte_identically(
        self, baseline
    ):
        supervise = ShardSupervision(
            deadline=1.0,
            policy=RetryPolicy(retries=2, base_delay=0.01),
            infra_chaos=InfraChaosConfig(
                stall_at=1, stall_worker=0, stall_seconds=30.0
            ),
        )
        fingerprint, log = _run("process", supervise)
        assert fingerprint == baseline
        assert log.hangs == 1
        assert log.respawns == 1
        assert not log.degraded

    def test_corrupt_reply_frame_is_retried_byte_identically(
        self, baseline
    ):
        supervise = ShardSupervision(
            policy=RetryPolicy(retries=2, base_delay=0.01),
            infra_chaos=InfraChaosConfig.parse("corrupt@3:2"),
        )
        fingerprint, log = _run("process", supervise)
        assert fingerprint == baseline
        assert log.corrupt_frames == 1
        assert not log.degraded


class TestGracefulDegradation:
    def test_exhausted_budget_falls_back_inline_byte_identically(
        self, baseline
    ):
        drain_degradations()
        supervise = ShardSupervision(
            policy=RetryPolicy(retries=0),
            infra_chaos=InfraChaosConfig.parse("kill@2:1"),
            fallback_inline=True,
        )
        fingerprint, log = _run("process", supervise)
        assert fingerprint == baseline
        assert log.fallbacks == [1]
        notes = drain_degradations()
        assert any(
            n["kind"] == "shard_inline_fallback" and n["shard"] == 1
            for n in notes
        )

    def test_fallback_disabled_raises_a_shard_error_naming_the_shard(self):
        supervise = ShardSupervision(
            policy=RetryPolicy(retries=0),
            infra_chaos=InfraChaosConfig.parse("kill@2:1"),
            fallback_inline=False,
        )
        sim = ShardedSimulation(
            DEPLOYMENT,
            CONFIG,
            seed=SEED,
            shards=SHARDS,
            executor="process",
            supervise=supervise,
        )
        try:
            with pytest.raises(ShardError, match="shard 1"):
                _drive(sim)
        finally:
            sim.close()


    def test_fallback_inside_a_query_answers_every_shard(self):
        """A worker lost during a read-only query of every shard: the
        shards after it answer the query, not with their last
        journaled reply."""
        import os
        import signal

        def executed(kill):
            sim = ShardedSimulation(
                DEPLOYMENT,
                CONFIG,
                seed=SEED,
                shards=SHARDS,
                executor="process",
                supervise={"retries": 0, "fallback_inline": True},
            )
            try:
                sim.start()
                sim.run_for(30.0)
                if kill:
                    proc = sim._executor._procs[0]
                    os.kill(proc.pid, signal.SIGKILL)
                    proc.join()
                return sim._executor.query_all("executed")
            finally:
                sim.close()

        drain_degradations()
        assert executed(kill=True) == executed(kill=False)
        drain_degradations()


class TestSuperviseDictPlumbing:
    def test_scenario_shaped_dict_is_accepted(self, baseline):
        """The CLI folds --infra-chaos flags into a supervise dict."""
        supervise = {
            "deadline": None,
            "retries": 1,
            "infra_chaos": InfraChaosConfig.parse("kill@1:0").to_dict(),
            "fallback_inline": True,
        }
        fingerprint, log = _run("process", supervise)
        assert fingerprint == baseline
        assert log.worker_deaths == 1

    def test_unknown_supervise_keys_are_rejected(self):
        with pytest.raises(ValueError, match="unknown supervise keys"):
            ShardedSimulation(
                DEPLOYMENT,
                CONFIG,
                seed=SEED,
                shards=SHARDS,
                supervise={"dead_line": 3.0},
            )
