"""Recurring timers: ``schedule_recurring`` vs ``schedule``.

``PeriodicTimer`` arms each firing through
``Simulator.schedule_recurring``, which puts it on the one event heap
exactly as ``Simulator.schedule`` does.  The contract is that the
recurring path is *semantically invisible*: events keep their
``(time, seq)`` keys from the shared counter, the run loop executes
the smallest key, handles cancel the same way, and ``pending_events``
stays exact.  These tests pin that equivalence, the
``PeriodicTimer.start()`` re-arm leak fix, and the ``max_events``
ceiling.  The recurring path once had its own bucketed timer wheel;
the "wheel" and "bucket" in test names refer to it, and the cases
still run the shapes that stressed it (deadlines inside a bucket,
firings on a bucket boundary).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import PeriodicTimer, SimulationError, Simulator

DELAYS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.0, 2.0, 3.75, 7.0])


@st.composite
def mixed_case(draw):
    """A mix of one-shot and recurring events with pre-cancellations."""
    n = draw(st.integers(min_value=1, max_value=40))
    events = draw(
        st.lists(
            st.tuples(st.booleans(), DELAYS), min_size=n, max_size=n
        )
    )
    pre_cancels = draw(st.sets(st.integers(0, n - 1), max_size=n))
    return events, pre_cancels


class TestWheelHeapEquivalence:
    @given(mixed_case())
    @settings(max_examples=200, deadline=None)
    def test_execution_order_matches_single_heap(self, case):
        """Interleaved schedule/schedule_recurring executes in the
        exact (time, seq) order a single heap would produce."""
        events, pre_cancels = case
        sim = Simulator()
        executed = []
        handles = []
        for i, (recurring, delay) in enumerate(events):
            cb = lambda i=i: executed.append(i)
            if recurring:
                handles.append(sim.schedule_recurring(delay, cb))
            else:
                handles.append(sim.schedule(delay, cb))
        for i in pre_cancels:
            handles[i].cancel()
        assert sim.pending_events == len(events) - len(pre_cancels)
        sim.run()
        expected = [
            i
            for i in sorted(
                range(len(events)), key=lambda i: (events[i][1], i)
            )
            if i not in pre_cancels
        ]
        assert executed == expected
        assert sim.pending_events == 0
        assert all(not h.active for h in handles)

    @given(mixed_case())
    @settings(max_examples=100, deadline=None)
    def test_run_until_deadline_equivalent(self, case):
        """run(until=...) stops at the same point for both paths."""
        events, pre_cancels = case
        deadline = 2.0

        def build(use_recurring):
            sim = Simulator()
            executed = []
            handles = []
            for i, (recurring, delay) in enumerate(events):
                cb = lambda i=i, e=executed: e.append(i)
                if recurring and use_recurring:
                    handles.append(sim.schedule_recurring(delay, cb))
                else:
                    handles.append(sim.schedule(delay, cb))
            for i in pre_cancels:
                handles[i].cancel()
            return sim, executed

        recurring_sim, recurring_exec = build(True)
        heap_sim, heap_exec = build(False)
        assert recurring_sim.run(until=deadline) == heap_sim.run(until=deadline)
        assert recurring_exec == heap_exec
        assert recurring_sim.pending_events == heap_sim.pending_events
        assert recurring_sim.next_event_time() == heap_sim.next_event_time()
        # Drain the rest; the tails agree too.
        recurring_sim.run()
        heap_sim.run()
        assert recurring_exec == heap_exec

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_pending_counter_tracks_brute_force(self, data):
        """schedule/schedule_recurring/cancel/step keep the O(1)
        counter equal to the brute-force live count."""
        sim = Simulator()
        handles = []
        live = 0
        for _ in range(data.draw(st.integers(1, 40))):
            action = data.draw(
                st.sampled_from(["schedule", "recurring", "cancel", "step"])
            )
            if action == "schedule":
                handles.append(sim.schedule(data.draw(DELAYS), lambda: None))
                live += 1
            elif action == "recurring":
                handles.append(
                    sim.schedule_recurring(data.draw(DELAYS), lambda: None)
                )
                live += 1
            elif action == "cancel" and handles:
                handle = handles[data.draw(st.integers(0, len(handles) - 1))]
                if handle.active:
                    live -= 1
                handle.cancel()
            elif action == "step":
                if sim.step():
                    live -= 1
            assert sim.pending_events == live
            assert sim.pending_events == sum(1 for h in handles if h.active)

    def test_mid_run_cancellation_of_wheel_event(self):
        sim = Simulator()
        executed = []
        victim = sim.schedule_recurring(2.0, lambda: executed.append("victim"))
        sim.schedule(1.0, victim.cancel)
        sim.schedule_recurring(3.0, lambda: executed.append("survivor"))
        sim.run()
        assert executed == ["survivor"]
        assert sim.pending_events == 0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_recurring(-0.5, lambda: None)

    def test_next_event_time_sees_wheel(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.schedule_recurring(2.0, lambda: None)
        assert sim.next_event_time() == 2.0

    def test_next_event_time_skips_cancelled_wheel_entry(self):
        sim = Simulator()
        handle = sim.schedule_recurring(2.0, lambda: None)
        sim.schedule_recurring(4.0, lambda: None)
        handle.cancel()
        assert sim.next_event_time() == 4.0

    def test_wheel_only_run_advances_clock_to_until(self):
        sim = Simulator()
        timer = PeriodicTimer(sim, 1.0, lambda: None)
        timer.start()
        assert sim.run(until=10.5) == 10.5
        timer.stop()
        assert sim.run(until=12.0) == 12.0


class TestManyTimers:
    def test_large_population_fires_in_order(self):
        """A few thousand staggered recurring timers fire in exact
        global time order, interleaved with one-shot traffic."""
        sim = Simulator()
        fired = []
        rng = random.Random(7)
        timers = []
        for i in range(2000):
            interval = 5.0 + rng.random()
            timer = PeriodicTimer(
                sim, interval, lambda i=i: fired.append((sim.now, i))
            )
            timer.start(initial_delay=rng.random() * interval)
            timers.append(timer)
        for _ in range(200):
            sim.schedule(rng.random() * 40.0, lambda: fired.append((sim.now, -1)))
        sim.run(until=40.0)
        assert fired == sorted(fired, key=lambda pair: pair[0])
        assert len(fired) > 2000 * 5  # several full periods elapsed
        for timer in timers:
            assert timer.active
            timer.stop()
        assert sim.pending_events == 0


class TestPeriodicTimerRearm:
    def test_start_on_armed_timer_cancels_old_chain(self):
        """Regression: start() on an armed timer must not leak the old
        pending firing into a duplicate chain."""
        sim = Simulator()
        fires = []
        timer = PeriodicTimer(sim, 10.0, lambda: fires.append(sim.now))
        timer.start()
        assert sim.pending_events == 1
        timer.start()  # re-arm while armed: old firing cancelled
        assert sim.pending_events == 1
        sim.run(until=100.0)
        # One firing per interval — a leaked chain would double this.
        assert len(fires) == 10
        timer.stop()

    def test_restart_from_callback_does_not_duplicate(self):
        """start() from inside the callback wins over the tail re-arm."""
        sim = Simulator()
        fires = []

        def callback():
            fires.append(sim.now)
            if len(fires) == 1:
                timer.start(initial_delay=3.0)  # reschedule self

        timer = PeriodicTimer(sim, 10.0, callback)
        timer.start()
        sim.run(until=60.0)
        timer.stop()
        assert sim.pending_events == 0
        # t=10 (restart +3), then 13, 23, 33, 43, 53.
        assert fires == [10.0, 13.0, 23.0, 33.0, 43.0, 53.0]

    def test_stop_then_start_single_chain(self):
        sim = Simulator()
        fires = []
        timer = PeriodicTimer(sim, 5.0, lambda: fires.append(sim.now))
        timer.start()
        timer.stop()
        timer.start()
        sim.run(until=26.0)
        timer.stop()
        assert fires == [5.0, 10.0, 15.0, 20.0, 25.0]


class TestWheelEdgeCases:
    def test_recurring_exactly_on_bucket_boundary(self):
        """Firings landing exactly on multiples of the period stay
        exact and keep their key order against one-shots at the same
        time."""
        sim = Simulator()
        order = []
        timer = PeriodicTimer(sim, 10.0, lambda: order.append(("timer", sim.now)))
        timer.start(initial_delay=10.0)  # fires at exact multiples of 10
        for t in (10.0, 20.0, 30.0):
            sim.schedule(t, lambda t=t: order.append(("oneshot", t)))
        sim.run(until=35.0)
        timer.stop()
        # The timer armed first at each boundary, so its seq is lower
        # than the later-scheduled one-shot at t=10; re-arms claim new
        # seqs, so subsequent boundaries run the one-shot first.
        assert order == [
            ("timer", 10.0),
            ("oneshot", 10.0),
            ("oneshot", 20.0),
            ("timer", 20.0),
            ("oneshot", 30.0),
            ("timer", 30.0),
        ]
        assert sim.now == 35.0

    def test_interval_hint_retune_mid_run_is_ignored(self):
        """A timer armed mid-run with a much shorter period than the
        first one fires on its own period, and the merged stream stays
        in time order."""
        sim = Simulator()
        fires = []
        slow = PeriodicTimer(sim, 16.0, lambda: fires.append(("slow", sim.now)))
        slow.start(initial_delay=16.0)
        sim.run(until=20.0)
        # Mid-run: a much finer timer.
        fast = PeriodicTimer(sim, 3.0, lambda: fires.append(("fast", sim.now)))
        fast.start(initial_delay=1.0)
        sim.run(until=40.0)
        slow.stop()
        fast.stop()
        assert [f for f in fires if f[0] == "slow"] == [
            ("slow", 16.0),
            ("slow", 32.0),
        ]
        assert [f for f in fires if f[0] == "fast"] == [
            ("fast", 21.0),
            ("fast", 24.0),
            ("fast", 27.0),
            ("fast", 30.0),
            ("fast", 33.0),
            ("fast", 36.0),
            ("fast", 39.0),
        ]
        # The merged stream is globally time-ordered.
        times = [t for _, t in fires]
        assert times == sorted(times)

    def test_run_for_ends_inside_bucket(self):
        """``run_for`` stopping between recurring firings executes only
        the entries at or before the deadline; the rest drain on the
        next run."""
        sim = Simulator()
        fired = []
        # The deadline at 14 cuts the four firings in two.
        for delay in (11.0, 13.0, 17.0, 19.0):
            sim.schedule_recurring(delay, lambda d=delay: fired.append(d))
        sim.run_for(14.0)
        assert fired == [11.0, 13.0]
        assert sim.now == 14.0
        assert sim.pending_events == 2
        sim.run()
        assert fired == [11.0, 13.0, 17.0, 19.0]
        assert sim.pending_events == 0

    def test_periodic_chain_survives_mid_bucket_deadline(self):
        """A periodic timer whose next firing sits past a deadline
        keeps its chain across run() calls."""
        sim = Simulator()
        fires = []
        timer = PeriodicTimer(sim, 4.0, lambda: fires.append(sim.now))
        timer.start()
        sim.run(until=10.0)  # between the firings at 8 and 12
        assert fires == [4.0, 8.0]
        sim.run(until=21.0)
        timer.stop()
        assert fires == [4.0, 8.0, 12.0, 16.0, 20.0]


class TestWritableMaxEvents:
    def test_default_and_write(self):
        sim = Simulator()
        assert sim.max_events == 50_000_000
        sim.max_events = 123
        assert sim.max_events == 123

    def test_rejects_non_positive(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.max_events = 0
        with pytest.raises(SimulationError):
            sim.max_events = -5

    def test_ceiling_enforced_and_raisable(self):
        sim = Simulator()
        sim.max_events = 10

        def rearm():
            sim.schedule(1.0, rearm)

        sim.schedule(1.0, rearm)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(until=1_000.0)
        # The tripping event is consumed without running its callback,
        # so the chain is broken; a raised ceiling lets a fresh chain
        # run further before tripping again.
        executed = sim.executed_events
        sim.max_events = executed + 10
        sim.schedule(1.0, rearm)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(until=1_000.0)
        assert sim.executed_events > executed

    def test_recurring_counts_against_ceiling(self):
        sim = Simulator()
        sim.max_events = 5
        timer = PeriodicTimer(sim, 1.0, lambda: None)
        timer.start()
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(until=100.0)
        timer.stop()
