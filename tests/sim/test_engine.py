"""Tests for the discrete-event simulator and periodic timers."""

import pytest

from repro.sim import PeriodicTimer, RngStreams, SimulationError, Simulator
from repro.sim.engine import DRIVER_BASE, EXTERNAL_LANE


class TestScheduling:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_fifo_among_equal_times(self):
        sim = Simulator()
        order = []
        for tag in "abc":
            sim.schedule(1.0, lambda t=tag: order.append(t))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]
        assert sim.now == 5.0

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5.0, lambda: None)

    def test_call_soon_runs_at_current_time(self):
        sim = Simulator()
        times = []
        sim.schedule(2.0, lambda: sim.call_soon(lambda: times.append(sim.now)))
        sim.run()
        assert times == [2.0]

    def test_events_scheduled_during_run(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(1.0, lambda: order.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert order == ["first", "second"]
        assert sim.now == 2.0


class TestLanes:
    def test_equal_times_run_in_lane_order(self):
        sim = Simulator()
        order = []
        for lane in (7, 2, 5):
            sim.set_lane(lane)
            sim.schedule(1.0, lambda lane=lane: order.append(lane))
        sim.run()
        assert order == [2, 5, 7]

    def test_apply_runs_after_due_events_and_drains_follow_ups(self):
        """A driver op runs after the events due now (bar externally
        armed callbacks) and its same-time follow-ups finish before
        ``apply`` returns."""
        sim = Simulator()
        order = []
        sim.schedule(0.0, lambda: order.append("external"))
        previous = sim.set_lane(3)
        sim.schedule(0.0, lambda: order.append("node"))
        sim.set_lane(previous)

        def operation():
            order.append("op")
            sim.schedule(0.0, lambda: order.append("follow-up"))
            return 42

        assert sim.apply(DRIVER_BASE, operation) == 42
        assert order == ["node", "op", "follow-up"]
        sim.run()
        assert order == ["node", "op", "follow-up", "external"]

    def test_run_and_step_restore_the_callers_lane(self):
        """Events run in their own lanes, but a caller scheduling after
        ``run``/``step`` still claims from its own lane."""
        sim = Simulator()
        previous = sim.set_lane(3)
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.set_lane(previous)
        sim.step()
        assert sim.current_lane == EXTERNAL_LANE
        sim.run()
        assert sim.current_lane == EXTERNAL_LANE

    def test_same_time_driver_ops_run_in_arming_order(self):
        """Two callbacks armed outside any event at one instant each
        apply an op; the first op and its follow-ups finish before the
        second op starts."""
        sim = Simulator()
        previous = sim.set_lane(3)
        sim.schedule(5.0, lambda: None)
        sim.set_lane(previous)
        sim.run(until=5.0)
        order = []

        def arm(name, lane):
            def operation():
                order.append(name)
                sim.schedule(0.0, lambda: order.append(name + " follow-up"))

            sim.schedule_at(10.0, lambda: sim.apply(lane, operation))

        arm("first", DRIVER_BASE)
        arm("second", DRIVER_BASE + 1)
        sim.run()
        assert order == [
            "first", "first follow-up", "second", "second follow-up"
        ]


class TestCancellation:
    def test_cancelled_event_not_run(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert not handle.active

    def test_handle_reports_time(self):
        sim = Simulator()
        handle = sim.schedule(4.5, lambda: None)
        assert handle.time == 4.5


class TestHandleLifecycle:
    def test_active_means_pending(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        assert handle.active
        sim.run()
        # Executed events are no longer pending, even though they were
        # never cancelled.
        assert not handle.active

    def test_cancel_after_execution_is_noop(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        handle.cancel()
        assert not handle.active
        assert sim.pending_events == 0

    def test_pending_events_counter(self):
        sim = Simulator()
        handles = [sim.schedule(float(i), lambda: None) for i in range(5)]
        assert sim.pending_events == 5
        handles[0].cancel()
        handles[0].cancel()  # idempotent: one decrement only
        assert sim.pending_events == 4
        sim.step()
        assert sim.pending_events == 3
        sim.run()
        assert sim.pending_events == 0

    def test_timer_active_consistent_with_handle(self):
        sim = Simulator()
        timer = PeriodicTimer(sim, 1.0, lambda: None)
        assert not timer.active
        timer.start()
        assert timer.active
        sim.run(until=3.5)
        assert timer.active  # rearmed after each firing
        timer.stop()
        assert not timer.active

    def test_timer_inactive_after_stopiteration(self):
        sim = Simulator()

        def tick():
            raise StopIteration

        timer = PeriodicTimer(sim, 1.0, tick).start()
        sim.run(until=5.0)
        assert not timer.active
        assert sim.pending_events == 0


class TestRunControl:
    def test_run_until_stops_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, lambda: fired.append(1))
        sim.run(until=5.0)
        assert fired == []
        assert sim.now == 5.0
        sim.run()
        assert fired == [1]

    def test_run_for(self):
        sim = Simulator()
        sim.schedule(3.0, lambda: None)
        sim.run_for(2.0)
        assert sim.now == 2.0
        sim.run_for(2.0)
        assert sim.now == 4.0

    def test_past_deadline_rejected(self):
        # The clock never runs backwards, with events pending or not.
        sim = Simulator()
        sim.schedule(20.0, lambda: None)
        sim.run(until=15.0)
        with pytest.raises(SimulationError, match="before now"):
            sim.run(until=5.0)
        with pytest.raises(SimulationError, match="before now"):
            sim.run_for(-10.0)
        assert sim.now == 15.0
        assert sim.pending_events == 1
        sim.run(until=15.0)  # a deadline at now is no step back
        assert sim.now == 15.0
        bare = Simulator()
        bare.run_for(15.0)
        with pytest.raises(SimulationError, match="before now"):
            bare.run_for(-10.0)
        assert bare.now == 15.0
        sim.run()
        assert sim.now == 20.0

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_next_event_time(self):
        sim = Simulator()
        assert sim.next_event_time() is None
        sim.schedule(7.0, lambda: None)
        assert sim.next_event_time() == 7.0

    def test_executed_events_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.executed_events == 5

    def test_max_events_guard(self):
        sim = Simulator(max_events=10)

        def loop():
            sim.schedule(1.0, loop)

        sim.schedule(1.0, loop)
        with pytest.raises(SimulationError):
            sim.run()


class TestPeriodicTimer:
    def test_fires_repeatedly(self):
        sim = Simulator()
        times = []
        timer = PeriodicTimer(sim, 2.0, lambda: times.append(sim.now))
        timer.start()
        sim.run(until=7.0)
        assert times == [2.0, 4.0, 6.0]

    def test_initial_delay(self):
        sim = Simulator()
        times = []
        PeriodicTimer(sim, 5.0, lambda: times.append(sim.now)).start(
            initial_delay=1.0
        )
        sim.run(until=7.0)
        assert times == [1.0, 6.0]

    def test_stop(self):
        sim = Simulator()
        times = []
        timer = PeriodicTimer(sim, 1.0, lambda: times.append(sim.now))
        timer.start()
        sim.schedule(2.5, timer.stop)
        sim.run(until=10.0)
        assert times == [1.0, 2.0]
        assert not timer.active

    def test_callback_can_stop_via_stopiteration(self):
        sim = Simulator()
        count = []

        def tick():
            count.append(1)
            if len(count) == 3:
                raise StopIteration

        PeriodicTimer(sim, 1.0, tick).start()
        sim.run(until=10.0)
        assert len(count) == 3

    def test_zero_interval_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            PeriodicTimer(sim, 0.0, lambda: None).start()


class TestPeriodicTimerJitter:
    def test_jitter_spreads_firings(self):
        sim = Simulator()
        times = []
        rng = RngStreams(7).stream("timer.jitter")
        PeriodicTimer(
            sim, 10.0, lambda: times.append(sim.now), jitter=2.0, rng=rng
        ).start()
        sim.run(until=100.0)
        assert len(times) >= 5
        gaps = [b - a for a, b in zip(times, times[1:])]
        for gap in gaps:
            assert 8.0 <= gap <= 12.0
        # Jitter actually perturbs the period (not silently ignored).
        assert any(abs(gap - 10.0) > 1e-9 for gap in gaps)

    def test_jitter_deterministic_under_rng_streams(self):
        def run_once():
            sim = Simulator()
            times = []
            rng = RngStreams(3).stream("timer.jitter")
            PeriodicTimer(
                sim, 5.0, lambda: times.append(sim.now), jitter=1.0, rng=rng
            ).start()
            sim.run(until=60.0)
            return times

        assert run_once() == run_once()

    def test_nonzero_jitter_without_rng_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            PeriodicTimer(sim, 1.0, lambda: None, jitter=0.5).start()

    def test_jitter_must_be_smaller_than_interval(self):
        sim = Simulator()
        rng = RngStreams(0).stream("timer.jitter")
        with pytest.raises(SimulationError):
            PeriodicTimer(
                sim, 1.0, lambda: None, jitter=1.0, rng=rng
            ).start()
        with pytest.raises(SimulationError):
            PeriodicTimer(
                sim, 1.0, lambda: None, jitter=-0.1, rng=rng
            ).start()

    def test_zero_jitter_keeps_exact_period(self):
        sim = Simulator()
        times = []
        PeriodicTimer(sim, 2.0, lambda: times.append(sim.now)).start()
        sim.run(until=7.0)
        assert times == [2.0, 4.0, 6.0]
