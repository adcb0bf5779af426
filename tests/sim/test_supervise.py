"""Supervised execution: frames, backoff, fault injection, quarantine.

Worker functions live at module level so they pickle across process
boundaries.  The byte-identity contract under test: a sweep that
*survives* injected infra faults (kill / stall / corrupt) produces
results indistinguishable from the fault-free run, and an exhausted
retry budget degrades to a structured quarantine outcome — never a
traceback crash of the campaign.
"""

import json
import math
import multiprocessing
import os
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    FrameCorruption,
    InfraChaosConfig,
    RetryPolicy,
    RngStreams,
    ShardSupervision,
    SupervisedPool,
    SupervisionLog,
    SweepRunner,
    backoff_delays,
    replicate_seed,
    run_sweep,
    sweep_results,
)
from repro.sim.supervise import (
    check_deadline,
    corrupt_bytes,
    drain_degradations,
    frame_bytes,
    note_degradation,
    recv_frame,
    send_frame,
)


def _seeded_draws(spec):
    seed, n = spec
    rng = RngStreams(seed).stream("mc")
    return [rng.random() for _ in range(n)]


def _suicidal(spec):
    """App-level worker suicide on every attempt: exhausts any budget."""
    os.kill(os.getpid(), signal.SIGKILL)


def _noting(spec):
    note_degradation({"kind": "test_note", "spec": spec})
    return spec


class TestFrames:
    def test_roundtrip(self):
        a, b = multiprocessing.Pipe()
        send_frame(a, {"x": [1, 2, 3]})
        assert recv_frame(b) == {"x": [1, 2, 3]}
        a.close()
        b.close()

    def test_corrupt_flag_is_detected(self):
        a, b = multiprocessing.Pipe()
        send_frame(a, ("done", 0, True, "payload"), corrupt=True)
        with pytest.raises(FrameCorruption):
            recv_frame(b)
        a.close()
        b.close()

    def test_truncated_frame_is_detected(self):
        a, b = multiprocessing.Pipe()
        a.send_bytes(b"\x01")
        with pytest.raises(FrameCorruption, match="truncated"):
            recv_frame(b)
        a.close()
        b.close()

    @given(st.binary(min_size=5, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_corrupt_bytes_always_breaks_the_checksum(self, payload):
        raw = frame_bytes(payload)
        a, b = multiprocessing.Pipe()
        try:
            a.send_bytes(corrupt_bytes(raw))
            with pytest.raises(FrameCorruption):
                recv_frame(b)
        finally:
            a.close()
            b.close()


class TestBackoff:
    @given(st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=100, deadline=None)
    def test_schedule_is_a_pure_function_of_the_seed(self, seed):
        policy = RetryPolicy(retries=4)
        assert backoff_delays(seed, policy) == backoff_delays(seed, policy)

    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_schedule_length_and_bounds(self, seed, retries):
        policy = RetryPolicy(
            retries=retries, base_delay=0.05, cap_delay=1.0, jitter=0.5
        )
        delays = backoff_delays(seed, policy)
        assert len(delays) == retries
        for k, delay in enumerate(delays):
            base = min(policy.cap_delay, policy.base_delay * 2**k)
            assert base <= delay <= base * (1.0 + policy.jitter)

    def test_different_seeds_jitter_differently(self):
        policy = RetryPolicy(retries=3)
        schedules = {backoff_delays(s, policy) for s in range(16)}
        assert len(schedules) > 1

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=1.0, cap_delay=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)


class TestInfraChaosConfig:
    def test_parse_defaults_worker_zero(self):
        chaos = InfraChaosConfig.parse("kill@1")
        assert chaos.kill_at == 1
        assert chaos.kill_worker == 0
        assert chaos.stall_at is None

    def test_parse_compound_spec(self):
        chaos = InfraChaosConfig.parse("kill@1,stall@3:1,corrupt@2:2")
        assert (chaos.kill_at, chaos.kill_worker) == (1, 0)
        assert (chaos.stall_at, chaos.stall_worker) == (3, 1)
        assert (chaos.corrupt_at, chaos.corrupt_worker) == (2, 2)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="unknown infra fault"):
            InfraChaosConfig.parse("explode@1")
        with pytest.raises(ValueError, match="bad --infra-chaos"):
            InfraChaosConfig.parse("kill@one")
        with pytest.raises(ValueError, match="empty"):
            InfraChaosConfig.parse(" , ")

    def test_shard_action_keys_on_worker_and_step(self):
        chaos = InfraChaosConfig.parse("kill@3:1")
        assert chaos.action(worker=1, step=3) == "kill"
        assert chaos.action(worker=0, step=3) is None
        assert chaos.action(worker=1, step=2) is None

    def test_pool_action_keys_on_step_alone(self):
        chaos = InfraChaosConfig.parse("corrupt@2:1")
        assert chaos.step_action(2) == "corrupt"
        assert chaos.step_action(1) is None

    def test_dict_roundtrip_rejects_unknown_keys(self):
        chaos = InfraChaosConfig.parse("stall@4:2")
        assert InfraChaosConfig.from_dict(chaos.to_dict()) == chaos
        with pytest.raises(ValueError, match="unknown infra-chaos keys"):
            InfraChaosConfig.from_dict({"nuke_at": 3})


class TestDeadline:
    """One check for every watchdog deadline: ``None`` or finite > 0."""

    @pytest.mark.parametrize("value", [-1.0, 0.0, math.nan, math.inf])
    def test_refused_by_every_consumer(self, value):
        message = "deadline must be finite and > 0"
        with pytest.raises(ValueError, match=message):
            check_deadline(value)
        with pytest.raises(ValueError, match=message):
            ShardSupervision.from_dict({"deadline": value})
        with pytest.raises(ValueError, match=message):
            SupervisedPool(_noting, workers=1, deadline=value)

    def test_none_and_positive_accepted(self):
        assert check_deadline(None) is None
        assert check_deadline(2) == 2.0
        assert ShardSupervision.from_dict({"deadline": 1.5}).deadline == 1.5
        assert ShardSupervision.from_dict({"retries": 1}).deadline is None
        assert SupervisedPool(_noting, workers=1, deadline=3).deadline == 3.0


class TestDegradationChannel:
    def test_note_and_drain(self):
        drain_degradations()
        note_degradation({"kind": "a"})
        note_degradation({"kind": "b"})
        assert drain_degradations() == ({"kind": "a"}, {"kind": "b"})
        assert drain_degradations() == ()

    def test_inline_runner_ships_notes_on_outcomes(self):
        outcomes = run_sweep(_noting, [10, 11], workers=0)
        assert [o.infra for o in outcomes] == [
            ({"kind": "test_note", "spec": 10},),
            ({"kind": "test_note", "spec": 11},),
        ]


class TestSupervisedPoolIdentity:
    """Surviving an injected infra fault leaves results byte-identical."""

    SPECS = [(replicate_seed(42, i), 20) for i in range(6)]

    def _baseline(self):
        return json.dumps(
            sweep_results(run_sweep(_seeded_draws, self.SPECS, workers=0))
        )

    def _supervised(self, chaos=None, deadline=None):
        runner = SweepRunner(
            _seeded_draws,
            workers=2,
            deadline=deadline,
            retry_policy=RetryPolicy(retries=2, base_delay=0.01),
            infra_chaos=chaos,
        )
        outcomes = runner.run(self.SPECS)
        return json.dumps(sweep_results(outcomes)), runner.last_supervision

    def test_clean_run_matches_inline(self):
        payload, log = self._supervised()
        assert payload == self._baseline()
        assert log.faults == 0 and not log.degraded

    def test_killed_worker_is_respawned_byte_identically(self):
        payload, log = self._supervised(InfraChaosConfig.parse("kill@1"))
        assert payload == self._baseline()
        assert log.worker_deaths == 1
        assert log.retries == 1
        assert log.respawns >= 1
        assert not log.degraded

    def test_corrupt_reply_frame_is_retried_byte_identically(self):
        payload, log = self._supervised(InfraChaosConfig.parse("corrupt@2"))
        assert payload == self._baseline()
        assert log.corrupt_frames == 1
        assert not log.degraded

    def test_hung_worker_trips_the_watchdog_byte_identically(self):
        chaos = InfraChaosConfig(stall_at=0, stall_seconds=20.0)
        payload, log = self._supervised(chaos, deadline=0.8)
        assert payload == self._baseline()
        assert log.hangs == 1
        assert not log.degraded

    def test_exhausted_budget_quarantines_not_crashes(self):
        log = SupervisionLog()
        pool = SupervisedPool(
            _suicidal,
            workers=1,
            policy=RetryPolicy(retries=1, base_delay=0.01),
            log=log,
        )
        emitted = []
        pool.run(
            [(0, {"seed": 5})],
            lambda *landed: emitted.append(landed),
        )
        assert len(emitted) == 1
        index, ok, payload, _elapsed, infra = emitted[0]
        assert (index, ok) == (0, False)
        assert "quarantined" in payload
        assert "retry budget (1) exhausted" in payload
        assert infra[0]["kind"] == "quarantined_replicate"
        assert infra[0]["attempts"] == 2
        assert log.quarantined == [0]
        assert log.worker_deaths == 2

    def test_quarantine_surfaces_as_failed_outcome_in_sweep(self):
        runner = SweepRunner(
            _suicidal,
            workers=1,
            retry_policy=RetryPolicy(retries=0, base_delay=0.01),
        )
        outcomes = runner.run([{"seed": 9}])
        assert not outcomes[0].ok
        assert "infra fault" in outcomes[0].error
        assert runner.last_supervision.quarantined == [0]

    def test_emit_lands_outcomes_as_they_complete(self):
        seen = []
        pool = SupervisedPool(_seeded_draws, workers=2)
        pool.run(
            list(enumerate(self.SPECS)),
            lambda index, *rest: seen.append(index),
        )
        assert sorted(seen) == list(range(len(self.SPECS)))


class TestSupervisedPoolTiming:
    def test_stall_recovery_is_bounded_by_the_deadline(self):
        """The watchdog, not the 20s stall, bounds wall-clock."""
        chaos = InfraChaosConfig(stall_at=0, stall_seconds=20.0)
        runner = SweepRunner(
            _seeded_draws,
            workers=2,
            deadline=0.5,
            retry_policy=RetryPolicy(retries=2, base_delay=0.01),
            infra_chaos=chaos,
        )
        start = time.monotonic()
        runner.run([(replicate_seed(3, i), 10) for i in range(4)])
        assert time.monotonic() - start < 10.0
        assert runner.last_supervision.hangs == 1
