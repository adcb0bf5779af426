"""Differential test: delivery runs vs one event per receiver.

A delivery run (``Simulator.schedule_run``/``resume_run``, which the
radio uses for every send of more than one delivery) schedules a
send's receivers as one queue entry that the engine merges into the
event order receiver by receiver.  The reference model schedules the
same receivers under the same keys the way the engine did before runs
existed — one ``schedule_keyed`` event per receiver — and both must
execute the same ``(time, lane, label)`` sequence and report the same
``executed_events``, ``pending_events`` and ``next_event_time()`` at
every stop, however a run is cut: by ``run(until)``, by ``step()``, by
``apply()``, by a handler's zero-delay follow-up in a lower lane, by a
recurring timer due at the same instant, by a jittered arrival, or by
``max_events``.
"""

from functools import partial

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import SimulationError, Simulator
from repro.sim.engine import DRIVER_BASE

#: Node lanes: a handler's follow-up lands in the receiver's lane, below
#: or above the sending lane.
LANES = st.integers(0, 12)
#: Few distinct times, so that arrivals, timers and cuts collide.
TIMES = (0.0, 0.5, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0)
JITTER = (0.0, 0.25, 0.5, 0.5)
ACTIONS = ("none", "none", "soon", "later", "cancel", "send", "timer")
#: Nested sends stop here, so every case drains.
MAX_SENDS = 12


@st.composite
def case(draw):
    sends = draw(
        st.lists(
            st.tuples(
                st.sampled_from(TIMES[:5]),
                LANES,
                st.lists(LANES, min_size=1, max_size=40),
                st.none()
                | st.lists(st.sampled_from(JITTER), min_size=40, max_size=40),
            ),
            min_size=1,
            max_size=4,
        )
    )
    return {
        "sends": sends,
        "actions": draw(
            st.lists(st.sampled_from(ACTIONS), min_size=1, max_size=30)
        ),
        "events": draw(
            st.lists(st.tuples(st.sampled_from(TIMES), LANES), max_size=8)
        ),
        "cancelled": draw(st.sets(st.integers(0, 7))),
        "timers": draw(
            st.lists(st.tuples(st.sampled_from(TIMES[2:]), LANES), max_size=4)
        ),
        "stops": draw(
            st.lists(
                st.one_of(
                    st.tuples(
                        st.just("run"), st.sampled_from(TIMES + (1.1, 3.75))
                    ),
                    st.tuples(st.just("step"), st.integers(1, 6)),
                    st.tuples(st.just("apply"), st.booleans()),
                ),
                max_size=8,
            )
        ),
        "max_events": draw(st.none() | st.integers(1, 200)),
    }


class World:
    """One execution of a case; ``runs`` picks the scheduling path."""

    def __init__(self, case, runs: bool):
        self.case = case
        self.runs = runs
        self.sim = Simulator()
        self.log = []
        self.deliveries = 0
        self.sends = 0
        self.handles = []
        self.ops = 0

    # -- the program ------------------------------------------------------

    def send(self, receivers, jitter) -> None:
        """Send from the current lane, as the radio does."""
        sim = self.sim
        label = self.sends
        self.sends += 1
        lane, seq = sim.claim_key(None, len(receivers))
        items = [
            (
                sim.now + 1.0 + (jitter[i] if jitter else 0.0),
                (lane, seq + i),
                dest,
                (label, i),
            )
            for i, dest in enumerate(receivers)
        ]
        if self.runs:
            items.sort(reverse=True)
            sim.schedule_run(items, partial(self.resume, lane))
        else:
            for time, key, dest, payload in items:
                sim.schedule_keyed(
                    time, key, partial(self.receive, lane, dest, payload), dest
                )

    def resume(self, sender) -> None:
        self.sim.resume_run(self.receive, sender)

    def receive(self, sender, dest, payload) -> None:
        sim = self.sim
        self.log.append((sim.now, sim.current_lane, "recv", sender, payload))
        actions = self.case["actions"]
        action = actions[self.deliveries % len(actions)]
        self.deliveries += 1
        if action == "soon":
            sim.call_soon(partial(self.mark, ("soon", payload)))
        elif action == "later":
            sim.schedule(0.25, partial(self.mark, ("later", payload)))
        elif action == "cancel" and self.handles:
            self.handles[payload[1] % len(self.handles)].cancel()
        elif action == "send" and self.sends < MAX_SENDS:
            self.send(
                [dest, (dest + 5) % 13, dest, (dest + 9) % 13],
                (0.5, 0.0, 0.25, 0.0) if payload[1] % 2 else None,
            )
        elif action == "timer":
            sim.schedule_recurring(
                0.5, partial(self.tick, ("timer", payload), 1), 0.5
            )

    def mark(self, label) -> None:
        self.log.append((self.sim.now, self.sim.current_lane, label))

    def tick(self, label, left: int) -> None:
        self.mark(label)
        if left:
            self.sim.schedule_recurring(
                0.5, partial(self.tick, label, left - 1), 0.5
            )

    # -- the driver --------------------------------------------------------

    def boot(self) -> None:
        sim = self.sim
        for time, lane, receivers, jitter in self.case["sends"]:
            sim.set_lane(lane)
            sim.schedule(time, partial(self.send, receivers, jitter))
        for i, (time, lane) in enumerate(self.case["events"]):
            sim.set_lane(lane)
            self.handles.append(
                sim.schedule(time, partial(self.mark, ("event", i)))
            )
        for i, (time, lane) in enumerate(self.case["timers"]):
            sim.set_lane(lane)
            sim.schedule_recurring(
                time, partial(self.tick, ("wheel", i), 2), 0.5
            )
        for i in self.case["cancelled"]:
            if i < len(self.handles):
                self.handles[i].cancel()
        sim.set_lane(None)
        if self.case["max_events"] is not None:
            sim.max_events = self.case["max_events"]

    def stop(self, what) -> None:
        sim = self.sim
        self.log.append(
            (
                what,
                sim.now,
                sim.executed_events,
                sim.pending_events,
                sim.next_event_time(),
            )
        )

    def apply(self, send: bool) -> None:
        def operation():
            self.sim.call_soon(partial(self.mark, ("op", self.ops)))
            if send:
                self.send([3, 1, 3, 11], None)

        self.sim.apply(DRIVER_BASE + self.ops, operation)
        self.ops += 1

    def execute(self):
        sim = self.sim
        self.boot()
        try:
            for kind, arg in self.case["stops"]:
                if kind == "run":
                    sim.run(until=max(arg, sim.now))
                elif kind == "step":
                    for _ in range(arg):
                        sim.step()
                else:
                    self.apply(arg)
                self.stop(kind)
            sim.run()
            self.stop("drained")
        except SimulationError as error:
            assert "max_events" in str(error)
            self.stop("max_events")
        return self.log


def _case(sends, stops, actions=("none",), max_events=None):
    return {
        "sends": sends,
        "actions": list(actions),
        "events": [],
        "cancelled": set(),
        "timers": [],
        "stops": stops,
        "max_events": max_events,
    }


#: One jittered send, arriving at 1.0, 1.25 and 1.5.
_JITTERED = [(0.0, 5, [1, 2, 3], [0.0, 0.25, 0.5])]


@given(case())
@example(_case(_JITTERED, [("run", 1.25)]))
@example(_case(_JITTERED, [("step", 2), ("apply", True), ("run", 1.1)]))
@example(_case(_JITTERED, [("run", 1.0)], max_events=2))
@settings(max_examples=300, deadline=None)
def test_runs_match_one_event_per_receiver(case):
    expected = World(case, runs=False).execute()
    assert World(case, runs=True).execute() == expected


def test_a_lower_lane_follow_up_cuts_a_run():
    """Receiver 0 of a send from lane 5 schedules a zero-delay event in
    lane 0, which sorts before the send's next receiver."""
    case = _case([(0.0, 5, [0, 7, 8], None)], [], ("soon", "none", "none"))
    log = World(case, runs=True).execute()
    assert World(case, runs=False).execute() == log
    order = [entry for entry in log if entry[0] == 1.0]
    assert [entry[2] for entry in order] == [
        "recv", ("soon", (0, 0)), "recv", "recv"
    ]


def test_counters_count_receivers():
    """A run of three counts as three pending events, then three
    executed ones; ``max_events`` trips on the receiver crossing it."""
    sim = Simulator(max_events=2)
    got = []
    sim.set_lane(0)
    key = sim.claim_key(None, 3)
    items = [
        (1.0, (0, key[1] + i), dest, dest) for i, dest in enumerate((4, 5, 6))
    ]
    items.sort(reverse=True)
    sim.schedule_run(
        items,
        lambda: sim.resume_run(
            lambda sender, dest, payload: got.append(dest), 0
        ),
    )
    sim.set_lane(None)
    assert sim.pending_events == 3
    assert sim.step()
    assert (got, sim.executed_events, sim.pending_events) == ([4], 1, 2)
    try:
        sim.run()
    except SimulationError:
        pass
    else:  # pragma: no cover - the guard must trip
        raise AssertionError("max_events did not trip")
    assert (got, sim.executed_events, sim.pending_events) == ([4, 5], 3, 0)
    assert sim.next_event_time() is None
