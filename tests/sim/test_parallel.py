"""Tests for the parallel sweep runner.

Worker functions live at module level so they pickle across process
boundaries (required by the supervised worker pool).
"""

import json
import time

import pytest

from repro.sim import (
    RngStreams,
    SweepError,
    SweepRunner,
    replicate_seed,
    replicate_streams,
    run_sweep,
    sweep_results,
)


def _seeded_draws(spec):
    seed, n = spec
    rng = RngStreams(seed).stream("mc")
    return [rng.random() for _ in range(n)]


def _fail_on_odd(spec):
    if spec % 2:
        raise ValueError(f"boom {spec}")
    return spec * 10


def _sleepy(spec):
    time.sleep(0.01)
    return spec


class TestDeterminism:
    def test_identical_results_across_workers_and_chunking(self):
        """The acceptance property: byte-identical aggregate output for
        workers in {0, 1, 4}."""
        specs = [(replicate_seed(42, i), 20) for i in range(9)]
        payloads = set()
        for workers in (0, 1, 4):
            outcomes = run_sweep(_seeded_draws, specs, workers=workers)
            payloads.add(json.dumps(sweep_results(outcomes)))
        assert len(payloads) == 1

    def test_outcomes_ordered_by_index(self):
        specs = [(replicate_seed(1, i), 5) for i in range(7)]
        outcomes = run_sweep(_seeded_draws, specs, workers=2)
        assert [o.index for o in outcomes] == list(range(7))

    def test_replicate_seed_stable_and_distinct(self):
        seeds = [replicate_seed(7, i) for i in range(100)]
        assert seeds == [replicate_seed(7, i) for i in range(100)]
        assert len(set(seeds)) == 100
        assert replicate_seed(8, 0) != replicate_seed(7, 0)

    def test_replicate_streams_independent_of_sweep_shape(self):
        # The streams a replicate sees depend only on (master, index).
        a = replicate_streams(3, 5).stream("deploy").random()
        b = replicate_streams(3, 5).stream("deploy").random()
        assert a == b


class TestFailureCapture:
    def test_crashed_replicate_does_not_kill_the_sweep(self):
        outcomes = run_sweep(_fail_on_odd, [0, 1, 2, 3], workers=2)
        assert [o.ok for o in outcomes] == [True, False, True, False]
        assert outcomes[2].result == 20
        assert "boom 1" in outcomes[1].error
        assert "ValueError" in outcomes[1].error

    def test_in_process_fallback_captures_too(self):
        outcomes = run_sweep(_fail_on_odd, [1], workers=0)
        assert not outcomes[0].ok
        assert "boom 1" in outcomes[0].error

    def test_sweep_results_raises_loudly_on_failures(self):
        outcomes = run_sweep(_fail_on_odd, [0, 1, 3], workers=0)
        with pytest.raises(SweepError, match="2/3 replicates failed"):
            sweep_results(outcomes)

    def test_timing_recorded_per_replicate(self):
        outcomes = run_sweep(_sleepy, [1, 2], workers=0)
        assert all(o.elapsed >= 0.01 for o in outcomes)


class TestRunnerConfig:
    def test_empty_specs(self):
        assert run_sweep(_seeded_draws, []) == []

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(_seeded_draws, workers=-1)

    def test_workers_capped_by_spec_count(self):
        runner = SweepRunner(_seeded_draws, workers=64)
        assert runner.resolve_workers(3) == 3
        assert runner.resolve_workers(0) == 0

    def test_default_workers_use_cpu_count(self):
        import os

        runner = SweepRunner(_seeded_draws)
        cpu = os.cpu_count() or 1
        expected = cpu if cpu > 1 else 0
        assert runner.resolve_workers(10_000) == expected

    def test_default_workers_single_cpu_runs_in_process(self, monkeypatch):
        # A 1-worker pool is pure IPC overhead; the default on a 1-CPU
        # host must be in-process execution, not a vacuous pool.
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert SweepRunner(_seeded_draws).resolve_workers(8) == 0
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert SweepRunner(_seeded_draws).resolve_workers(16) == 8
        # An explicit workers=1 still forces a real pool.
        assert SweepRunner(_seeded_draws, workers=1).resolve_workers(8) == 1
