"""Discrete-event simulation engine.

The GS3 protocols are specified as guarded-command programs whose
modules execute atomically.  We reproduce that execution model with a
classic discrete-event simulator: every module execution, message
delivery, and timer expiry is an *event* at a virtual time, and events
are executed one at a time in ``(time, key)`` order, which preserves
the paper's atomicity assumption.

Virtual time is measured in abstract *ticks*; the network layer charges
one tick per local message exchange, so convergence times measured in
ticks are directly comparable to the paper's diffusion-time bounds
(theta(D_b), O(D_p), ...).

Event order.  Every event carries a key ``(origin_lane, origin_seq)``
claimed from the *lane* that scheduled it, and equal-time ties break on
that key.  The run loop switches the current lane to each event's
execution lane before invoking its callback, so whatever a callback
schedules claims from that lane.  A lane's counter advances only with
that lane's own deterministic execution, so the key an event gets does
not depend on how the rest of the event population interleaves — which
is what lets a spatially sharded run (``repro.sim.shard``) reproduce
the in-process run's execution order exactly, at any shard count.

Lanes come in disjoint namespaces, listed in the order their events
run at one instant:

* node lanes ``0 <= n < DATA_LANE_BASE`` — node ``n``'s protocol
  events (its boot, timers, and message handlers);
* data lanes ``DATA_LANE_BASE + n`` — node ``n``'s data-plane sends
  and retries;
* ``CHANNEL_LANE`` — HEAD_ORG channel grants;
* driver lanes ``DRIVER_BASE + k`` — driver operation ``k`` (a
  perturbation, a packet injection) and every follow-on event it
  schedules, such as a joined node's heartbeats;
* ``EXTERNAL_LANE`` — callbacks armed from outside any event: the
  perturbation and packet injectors of a run, and every event of a
  bare simulator (whose events then run in plain FIFO order).

Performance notes: heap entries are plain ``(time, key, event)``
tuples, so ``heapq`` orders them with C tuple comparison and never
falls back to rich comparison on the event record itself (keys are
unique, so the record is never compared).  ``Event`` is a
``__slots__`` record, and the ``run`` loop binds the heap operations
locally (see ``benchmarks/results/BENCH_perf.json``).

Recurring timers (one heartbeat per node — 100k of them at target
scale) do not live on the one-shot heap at all: they go through a
bucketed *timer wheel* (a calendar queue keyed by ``time //
bucket_width``).  Each bucket is a small heap, and a secondary heap of
per-bucket minima merges the wheel with the one-shot heap in the run
loop.  Re-arming a heartbeat then costs ``O(log bucket)`` on a bucket
holding only the timers due in one wheel slot, instead of ``O(log n)``
on a global heap holding every pending timer in the system.  A wheel
entry claims its key at arm time exactly like a one-shot event, and the
run loop always executes the smallest ``(time, key)`` across both
structures, so the wheel never changes a run's event order.

Delivery runs.  A radio send reaches many receivers (~275 per heartbeat
broadcast on a dense field), and the receivers of one send claim
consecutive keys from one lane.  Such a send is one queue entry, a
*delivery run* (:meth:`Simulator.schedule_run`): a cursor over its
receivers in ``(time, key)`` order that sits in the heap under its
smallest remaining ``(time, key)``.  The run loop pops it like any
event; :meth:`Simulator.resume_run` then delivers receiver after
receiver while the next one still sorts before the heap head and the
wheel minimum, and pushes the cursor back under its next receiver
otherwise — a k-way merge of the sends into the one event order.  The
counters keep their units: :attr:`Simulator.executed_events` counts
every receiver, :attr:`Simulator.pending_events` every undelivered one,
``max_events`` trips on the receiver that crosses it, and
:meth:`Simulator.step` delivers exactly one receiver (DESIGN.md § 8).
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple, TypeVar

__all__ = [
    "CHANNEL_LANE",
    "DATA_LANE_BASE",
    "DRIVER_BASE",
    "EXTERNAL_LANE",
    "Event",
    "EventHandle",
    "PeriodicTimer",
    "SimulationError",
    "Simulator",
]

#: Node ``n``'s data-plane lane is ``DATA_LANE_BASE + n``.  Node ids
#: stay below this base, so node and data lanes never meet.
DATA_LANE_BASE = 1 << 58
#: The lane channel grants are keyed in.
CHANNEL_LANE = 1 << 59
#: Driver operation ``k`` runs in lane ``DRIVER_BASE + k``.
DRIVER_BASE = 1 << 60
#: The lane of callbacks armed from outside any event.
EXTERNAL_LANE = 1 << 61

_T = TypeVar("_T")


class SimulationError(RuntimeError):
    """Raised for invalid scheduling requests or runaway simulations."""


class Event:
    """A scheduled callback, doubling as its own cancellation handle.

    Heap ordering lives in the ``(time, key)`` tuple wrapped around the
    record, not on the record itself.  ``lane`` is the execution lane
    the run loop switches to before invoking ``callback``.
    ``cancelled`` and ``consumed`` are mutually exclusive: an event is
    *pending* until it is either cancelled (before it runs) or consumed
    (when the simulator pops and executes it).  Folding the handle into
    the record keeps the schedule path at one allocation per event.
    A delivery run's event also carries the run's undelivered ``items``
    (the slot is left unset on every other event).
    """

    __slots__ = (
        "time", "callback", "cancelled", "consumed", "lane", "items", "_sim"
    )

    def __init__(
        self,
        sim: "Simulator",
        time: float,
        callback: Callable[[], None],
        lane: int,
    ):
        self._sim = sim
        self.time = time
        self.callback = callback
        self.cancelled = False
        self.consumed = False
        self.lane = lane

    @property
    def active(self) -> bool:
        """Whether the event is still pending (not cancelled, not yet
        executed)."""
        return not self.cancelled and not self.consumed

    def cancel(self) -> None:
        """Cancel the event; a no-op if it already ran or was cancelled."""
        if not self.cancelled and not self.consumed:
            self.cancelled = True
            self._sim._live -= 1


#: The object :meth:`Simulator.schedule` returns.  Kept as a distinct
#: name for callers that only care about the cancel/active surface.
EventHandle = Event


class Simulator:
    """Event heap plus virtual clock.

    The simulator is deliberately minimal: protocol logic lives in the
    network and core packages and registers plain callbacks.  Fairness
    (the paper's weak-fairness assumption on guarded commands) follows
    from FIFO execution of equal-timestamp events within a lane.
    """

    def __init__(
        self,
        max_events: int = 50_000_000,
        timer_bucket_width: Optional[float] = None,
    ):
        self._queue: List[Tuple[float, Tuple[int, int], Event]] = []
        # Scheduling from outside any event claims from EXTERNAL_LANE;
        # drivers switch lanes with ``set_lane`` (node boot) or
        # ``apply`` (driver operations).
        self._lane: Optional[int] = EXTERNAL_LANE
        self._lane_counters: dict = {}
        self._now = 0.0
        self._executed = 0
        self._live = 0
        self._max_events = max_events
        # What a delivery run (``resume_run``) may consume before it
        # hands control back: receivers while ``_executed < _budget``
        # (``max_events`` in ``run``, one in ``step``), and times up to
        # ``_horizon`` (``run``'s ``until``).
        self._budget = max_events
        self._horizon = float("inf")
        # The event whose callback runs now (a delivery run's callback
        # resumes it through ``resume_run``).
        self._event: Optional[Event] = None
        self._running = False
        # -- timer wheel (recurring events) --------------------------------
        # Buckets keyed by int(time // width); each bucket is a heap of
        # (time, key, event) entries.  ``_wheel_minheap`` holds
        # (time, key, bucket_key) for every entry that has ever been a
        # bucket minimum (stale entries are dropped lazily), and
        # ``_wheel_min`` caches the exact current global minimum so the
        # run loop can merge wheel and heap with two comparisons.
        self._wheel_width = timer_bucket_width
        self._wheel_buckets: dict = {}
        self._wheel_minheap: List[tuple] = []
        self._wheel_min: Optional[tuple] = None

    # -- clock -----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in ticks."""
        return self._now

    @property
    def executed_events(self) -> int:
        """Number of events executed so far."""
        return self._executed

    @property
    def max_events(self) -> int:
        """Runaway-loop guard: executing more events than this raises.

        Writable so scale campaigns (100k-node runs burn >50M events
        legitimately) can raise the ceiling without rebuilding the
        simulator the runtime already wired up.
        """
        return self._max_events

    @max_events.setter
    def max_events(self, value: int) -> None:
        if value <= 0:
            raise SimulationError(
                f"max_events must be positive, got {value}"
            )
        self._max_events = value

    @property
    def pending_events(self) -> int:
        """Number of events still pending (excluding cancelled ones).

        O(1): a live counter maintained on schedule/cancel/execute, not
        a heap scan — this is polled inside convergence loops.
        """
        return self._live

    # -- lanes -------------------------------------------------------------

    @property
    def current_lane(self) -> Optional[int]:
        """The lane whose counter new events claim keys from."""
        return self._lane

    def set_lane(self, lane: Optional[int]) -> Optional[int]:
        """Switch the current lane; returns the previous lane.

        Used by drivers that schedule from *outside* any event callback
        (node boot); within callbacks the run loop sets the lane to the
        executing event's lane automatically.  ``None`` forbids
        scheduling outside events altogether.
        """
        previous = self._lane
        self._lane = lane
        return previous

    def claim_key(
        self, lane: Optional[int] = None, count: int = 1
    ) -> Tuple[int, int]:
        """Claim the next ``(origin_lane, origin_seq)`` key from the
        current lane — or an explicit ``lane`` — without scheduling
        anything.

        ``count`` claims that many consecutive keys at once and returns
        the first; the others are ``(lane, seq + 1)``, ...  The radio
        claims one key per delivery so lane counters advance
        identically whether the destination is local or lives in
        another shard (where the event is injected with
        :meth:`schedule_keyed` at a barrier).  The data plane passes an
        explicit lane from its own namespace: protocol lane counters
        replay on every shard mirroring a node, while data events run
        only on the owner, so letting them claim from ambient protocol
        lanes would desynchronise the replicas.
        """
        if lane is None:
            lane = self._lane
            if lane is None:
                raise SimulationError("scheduling requires a lane context")
        counters = self._lane_counters
        n = counters.get(lane, 0)
        counters[lane] = n + count
        return (lane, n)

    def schedule_keyed(
        self,
        time: float,
        key: Tuple[int, int],
        callback: Callable[[], None],
        lane: int,
    ) -> EventHandle:
        """Schedule ``callback`` at ``time`` under a pre-claimed key.

        ``lane`` is the *execution* lane the run loop switches to before
        invoking the callback (for a radio delivery: the destination
        node's lane).
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before now={self._now}"
            )
        event = Event(self, time, callback, lane)
        heapq.heappush(self._queue, (time, key, event))
        self._live += 1
        return event

    def schedule_run(
        self, items: List[tuple], callback: Callable[[], None]
    ) -> None:
        """Schedule a delivery run: many keyed deliveries as one entry.

        ``items`` are ``(time, key, lane, payload)`` tuples with
        pre-claimed keys, sorted in *descending* ``(time, key)`` order
        (the next item last, so delivering pops from the end).  The run
        enters the heap under its first item, through
        :meth:`schedule_keyed`, and ``callback`` must call
        :meth:`resume_run`.  Every item counts as one pending event;
        a run cannot be cancelled.
        """
        time, key, lane, _ = items[-1]
        event = self.schedule_keyed(time, key, callback, lane)
        event.items = items
        self._live += len(items) - 1

    def resume_run(
        self, body: Callable[[Any, int, Any], None], arg: Any
    ) -> None:
        """Deliver the running run's items while each is the next event.

        Called from a run's callback: the run loop has just popped the
        run's event as the last of its ``items`` — set the clock and
        the lane and counted it — so that item goes to ``body(arg,
        lane, payload)`` at once.  Each later item is delivered in
        turn, with the same bookkeeping, while it still sorts before
        the heap head and the wheel minimum, lies within ``run``'s
        ``until`` and within the event budget (one event per
        :meth:`step`).  Once one does not, the event goes back in the
        heap under that item, so the run loop resumes the run exactly
        where the order says.
        """
        event = self._event
        queue = self._queue
        items = event.items
        item = items.pop()
        now = item[0]
        try:
            body(arg, item[2], item[3])
            while items:
                item = items[-1]
                # Heap entries are (time, key, event) and wheel minima
                # (time, key); keys are unique, so both comparisons
                # are decided by time and key.
                if queue and queue[0] < item:
                    break
                wheel_min = self._wheel_min
                if wheel_min is not None and wheel_min < item:
                    break
                executed = self._executed
                if executed >= self._budget:
                    break
                time = item[0]
                if time != now:
                    if time > self._horizon:
                        break
                    self._now = now = time
                self._executed = executed + 1
                self._live -= 1
                self._lane = lane = item[2]
                items.pop()
                body(arg, lane, item[3])
        finally:
            if items:
                self._requeue(event)

    def _requeue(self, event: Event) -> None:
        """Put a run's event back in the heap under its next item."""
        time, key, lane, _ = event.items[-1]
        event.time = time
        event.lane = lane
        event.consumed = False
        heapq.heappush(self._queue, (time, key, event))

    def _exceeded(self, event: Event) -> SimulationError:
        """The ``max_events`` error for the just-counted ``event``.

        The event is consumed without running, as any event that
        crosses the limit; for a delivery run that is only its next
        receiver, and the later ones stay pending.
        """
        items = getattr(event, "items", None)
        if items:
            items.pop()
            if items:
                self._requeue(event)
        return SimulationError(
            f"exceeded max_events={self._max_events}; "
            "likely a runaway protocol loop"
        )

    def apply(self, lane: int, operation: Callable[[], _T]) -> _T:
        """Run a driver operation now, in ``lane``; return its result.

        The operation runs after every event due now (bar callbacks
        armed from outside, which are themselves driver callbacks), and
        every same-time event it causes runs before this returns — so
        operations applied one after another never interleave.  Call it
        from outside the run loop or from a callback armed outside;
        ``lane`` must be fresh (a driver lane nothing else uses).
        """
        previous = self._lane
        self._run_due()
        self._lane = lane
        try:
            result = operation()
        finally:
            self._lane = previous
        self._run_due()
        return result

    def _run_due(self) -> None:
        """Execute the pending events at ``now`` that sort below
        :data:`EXTERNAL_LANE`."""
        bound = (self._now, (EXTERNAL_LANE,))
        queue = self._queue
        while True:
            while queue and queue[0][2].cancelled:
                heapq.heappop(queue)
            head = queue[0][:2] if queue else None
            wheel = self._wheel_peek()
            if wheel is not None and (head is None or wheel < head):
                head = wheel
            if head is None or head >= bound:
                return
            self.step()

    # -- scheduling --------------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        _push=heapq.heappush,
    ) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` ticks from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: delay={delay}")
        time = self._now + delay
        # ``claim_key``, inlined: this is the hot scheduling path.
        lane = self._lane
        if lane is None:
            raise SimulationError("scheduling requires a lane context")
        counters = self._lane_counters
        n = counters.get(lane, 0)
        counters[lane] = n + 1
        event = Event(self, time, callback, lane)
        _push(self._queue, (time, (lane, n), event))
        self._live += 1
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        _push=heapq.heappush,
    ) -> EventHandle:
        """Schedule ``callback`` at absolute virtual time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before now={self._now}"
            )
        key = self.claim_key()
        event = Event(self, time, callback, key[0])
        _push(self._queue, (time, key, event))
        self._live += 1
        return event

    def call_soon(self, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at the current time (after pending
        same-time events of the current lane)."""
        return self.schedule(0.0, callback)

    # -- the timer wheel ---------------------------------------------------

    def schedule_recurring(
        self,
        delay: float,
        callback: Callable[[], None],
        interval_hint: Optional[float] = None,
    ) -> EventHandle:
        """Schedule ``callback`` via the timer wheel.

        Semantically identical to :meth:`schedule` (same clock, same
        lane key, same cancellation handle, counted by
        :attr:`pending_events`), but the pending entry lives in a
        calendar-queue bucket instead of the global heap — the arming
        path for *recurring* timers, where the population is large and
        long-lived.  ``interval_hint`` sizes the wheel's buckets on
        first use (the timer's period is the natural choice); it is
        ignored once the width is fixed.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: delay={delay}")
        if self._wheel_width is None:
            hint = interval_hint if interval_hint else delay
            self._wheel_width = hint if hint > 0 else 1.0
        time = self._now + delay
        seq = self.claim_key()
        event = Event(self, time, callback, seq[0])
        key = int(time // self._wheel_width)
        bucket = self._wheel_buckets.get(key)
        entry = (time, seq, event)
        if bucket is None:
            self._wheel_buckets[key] = [entry]
            heapq.heappush(self._wheel_minheap, (time, seq, key))
        else:
            heapq.heappush(bucket, entry)
            if bucket[0] is entry:
                # New bucket minimum: publish it to the merge heap (the
                # superseded minimum's entry goes stale and is dropped
                # lazily).
                heapq.heappush(self._wheel_minheap, (time, seq, key))
        wheel_min = self._wheel_min
        if wheel_min is None or (time, seq) < wheel_min:
            self._wheel_min = (time, seq)
        self._live += 1
        return event

    def _wheel_pop(self) -> Optional[Event]:
        """Pop the event at the wheel's current minimum key.

        Returns the event (which may be cancelled — the caller skips it
        exactly like a cancelled heap entry) or ``None`` if the wheel
        is empty.  Maintains the ``_wheel_min`` cache.
        """
        minheap = self._wheel_minheap
        buckets = self._wheel_buckets
        popped: Optional[Event] = None
        while minheap:
            time, seq, key = minheap[0]
            bucket = buckets.get(key)
            if (
                bucket is None
                or bucket[0][0] != time
                or bucket[0][1] != seq
            ):
                # Stale: this entry stopped being its bucket's minimum
                # (a smaller insert superseded it, or the bucket is
                # gone).  The *current* minimum of every bucket is
                # always present in the merge heap, so just drop it.
                heapq.heappop(minheap)
                continue
            if popped is None:
                heapq.heappop(minheap)
                entry = heapq.heappop(bucket)
                popped = entry[2]
                if bucket:
                    head = bucket[0]
                    heapq.heappush(minheap, (head[0], head[1], key))
                else:
                    del buckets[key]
                continue  # loop once more to normalise the new top
            self._wheel_min = (time, seq)
            return popped
        self._wheel_min = None
        return popped

    def _wheel_peek(self) -> Optional[tuple]:
        """Exact minimum (time, key) of a *live* wheel entry, or None.

        Unlike ``_wheel_min`` (which may reference a cancelled entry,
        mirroring the heap's lazy deletion), this discards cancelled
        entries — the :meth:`next_event_time` semantics.
        """
        while True:
            wheel_min = self._wheel_min
            if wheel_min is None:
                return None
            key = int(wheel_min[0] // self._wheel_width)
            bucket = self._wheel_buckets.get(key)
            if bucket is not None and bucket[0][2].cancelled:
                self._wheel_pop()
                continue
            return wheel_min

    # -- execution ---------------------------------------------------------

    def step(self) -> bool:
        """Execute the next pending event.

        The current lane is restored on return, as in :meth:`run`.

        Returns:
            ``True`` if an event was executed, ``False`` if the queue
            was empty.
        """
        queue = self._queue
        entry_lane = self._lane
        while True:
            wheel_min = self._wheel_min
            if queue:
                head = queue[0]
                if wheel_min is not None and (
                    wheel_min[0] < head[0]
                    or (wheel_min[0] == head[0] and wheel_min[1] < head[1])
                ):
                    time = wheel_min[0]
                    event = self._wheel_pop()
                else:
                    heapq.heappop(queue)
                    time = head[0]
                    event = head[2]
            elif wheel_min is not None:
                time = wheel_min[0]
                event = self._wheel_pop()
            else:
                return False
            if event is None or event.cancelled:
                continue
            event.consumed = True
            self._live -= 1
            self._now = time
            self._executed += 1
            if self._executed > self._max_events:
                raise self._exceeded(event)
            self._lane = event.lane
            self._event = event
            # A delivery run delivers only this one receiver.
            entry_budget = self._budget
            self._budget = self._executed
            try:
                event.callback()
            finally:
                self._lane = entry_lane
                self._budget = entry_budget
            return True

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queues drain or virtual time passes ``until``.

        The current lane is restored on return: events run in their own
        lanes, and whatever the caller schedules afterwards still claims
        from the lane it had (outside any event, :data:`EXTERNAL_LANE`).

        Returns:
            The virtual time when the run stopped.

        Raises:
            SimulationError: if ``until`` is before the current time;
                the clock never runs backwards.
        """
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        if until is not None and until < self._now:
            raise SimulationError(
                f"cannot run until {until} before now={self._now}"
            )
        self._running = True
        entry_lane = self._lane
        queue = self._queue
        pop = heapq.heappop
        max_events = self._budget = self._max_events
        no_deadline = until is None
        self._horizon = float("inf") if no_deadline else until
        try:
            while True:
                # Pick the globally smallest (time, key) across the
                # one-shot heap and the timer wheel; with an empty
                # wheel this costs one attribute load and a None test
                # per event over the pure-heap loop.
                wheel_min = self._wheel_min
                if queue:
                    head = queue[0]
                    event = head[2]
                    if event.cancelled:
                        pop(queue)
                        continue
                    if wheel_min is not None and (
                        wheel_min[0] < head[0]
                        or (
                            wheel_min[0] == head[0]
                            and wheel_min[1] < head[1]
                        )
                    ):
                        time = wheel_min[0]
                        from_wheel = True
                    else:
                        time = head[0]
                        from_wheel = False
                elif wheel_min is not None:
                    time = wheel_min[0]
                    from_wheel = True
                else:
                    break
                if not no_deadline and time > until:
                    self._now = until
                    break
                if from_wheel:
                    event = self._wheel_pop()
                    if event is None or event.cancelled:
                        continue
                else:
                    pop(queue)
                event.consumed = True
                self._live -= 1
                self._now = time
                self._executed += 1
                if self._executed > max_events:
                    raise self._exceeded(event)
                self._lane = event.lane
                self._event = event
                event.callback()
        finally:
            self._running = False
            self._lane = entry_lane
        if (
            until is not None
            and self._now < until
            and not self._queue
            and self._wheel_min is None
        ):
            self._now = until
        return self._now

    def run_for(self, duration: float) -> float:
        """Run for ``duration`` ticks of virtual time."""
        return self.run(until=self._now + duration)

    def _peek(self) -> Optional[Event]:
        queue = self._queue
        while queue:
            event = queue[0][2]
            if event.cancelled:
                heapq.heappop(queue)
                continue
            return event
        return None

    def next_event_time(self) -> Optional[float]:
        """Timestamp of the next pending event, or ``None``.

        Considers both the one-shot heap and the timer wheel.
        """
        event = self._peek()
        wheel_key = self._wheel_peek()
        if event is None:
            return wheel_key[0] if wheel_key is not None else None
        if wheel_key is not None and wheel_key[0] < event.time:
            return wheel_key[0]
        return event.time


@dataclass
class PeriodicTimer:
    """A repeating timer built on :class:`Simulator`.

    Protocol heartbeats (HEAD_INTRA_CELL, HEAD_INTER_CELL, the periodic
    SANITY_CHECK) all run on periodic timers.  The timer stops either
    when :meth:`stop` is called or when the callback raises
    ``StopIteration``.

    A nonzero ``jitter`` spreads each period uniformly over
    ``interval ± jitter`` (it desynchronises heartbeats that would
    otherwise collide in lockstep).  Jitter draws come from ``rng`` —
    pass a named stream from
    :class:`~repro.sim.rng.RngStreams` to keep runs deterministic;
    arming a jittered timer without an rng is rejected loudly rather
    than silently ignoring the jitter.
    """

    sim: Simulator
    interval: float
    callback: Callable[[], None]
    jitter: float = 0.0
    rng: Optional[random.Random] = None
    _handle: Optional[EventHandle] = None
    _stopped: bool = False

    def start(self, initial_delay: Optional[float] = None) -> "PeriodicTimer":
        """Arm the timer; first firing after ``initial_delay`` (default:
        one jittered interval).

        Re-starting an already-armed timer first cancels the pending
        firing: without the cancel, the old handle was silently
        overwritten and its firing chain kept re-arming alongside the
        new one — every restart leaked a duplicate, permanently doubled
        heartbeat.
        """
        if self.interval <= 0:
            raise SimulationError(
                f"timer interval must be positive, got {self.interval}"
            )
        if not 0.0 <= self.jitter < self.interval:
            raise SimulationError(
                f"jitter must be in [0, interval), got {self.jitter} "
                f"with interval {self.interval}"
            )
        if self.jitter > 0 and self.rng is None:
            raise SimulationError(
                "nonzero jitter requires an rng (e.g. "
                "RngStreams.stream('timer.jitter')) for deterministic draws"
            )
        if self._handle is not None:
            self._handle.cancel()
        delay = self._next_delay() if initial_delay is None else initial_delay
        self._stopped = False
        self._handle = self.sim.schedule_recurring(
            delay, self._fire, interval_hint=self.interval
        )
        return self

    def _next_delay(self) -> float:
        if self.jitter > 0 and self.rng is not None:
            return self.interval + self.rng.uniform(-self.jitter, self.jitter)
        return self.interval

    def stop(self) -> None:
        """Disarm the timer."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    @property
    def active(self) -> bool:
        """Whether a future firing is pending.

        Consistent with :attr:`EventHandle.active`: ``True`` only while
        the next-firing event is actually scheduled and uncancelled
        (inside the callback itself the old firing is consumed and the
        next not yet armed, so ``active`` is momentarily ``False``).
        """
        return (
            not self._stopped
            and self._handle is not None
            and self._handle.active
        )

    def _fire(self) -> None:
        if self._stopped:
            return
        try:
            self.callback()
        except StopIteration:
            self.stop()
            return
        # Re-arm unless the callback stopped the timer — or re-started
        # it itself (the handle is then already live; re-arming over it
        # would leak a second firing chain, the same bug class start()
        # guards against).
        if not self._stopped and (
            self._handle is None or not self._handle.active
        ):
            self._handle = self.sim.schedule_recurring(
                self._next_delay(), self._fire, interval_hint=self.interval
            )
