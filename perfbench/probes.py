"""Outside-in probes: phase timestamps and the per-layer span trace.

Nothing here edits the program.  Probes replace public functions and
methods, at the names their callers look up, for the life of one
replicate process:

* :class:`Phases` is always installed.  It wraps a handful of calls
  that each run once or twice per replicate (``start``, ``stabilize``,
  the first perturbation, workload generation, the report fold), which
  is all the end-to-end metrics need.
* :class:`LayerTrace` is installed only for a traced run.  It records a
  span — name, start, end, parent — around every call into a layer's
  public functions and around every scheduled callback, attributed to
  the module that owns the callback.  A layer's self time is its span
  time minus the time of the spans nested inside it.

Forked shard workers inherit the patched functions; an at-fork hook
puts the originals back in the child, so only coordinator-side spans
are recorded and the workers run the plain program.
"""

from __future__ import annotations

import itertools
import os
import struct
import time
import zlib
from array import array
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["LayerTrace", "Patcher", "Phases"]

clock = time.perf_counter


class Patcher:
    """Replaces attributes and puts every original back on ``restore``."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []
        os.register_at_fork(after_in_child=self.restore)

    def patch(self, owner: Any, name: str, make: Callable[[Any], Any]) -> None:
        """Set ``owner.name = make(original)``.

        For a class, ``name`` must be defined on that class itself;
        a classmethod keeps its binding.
        """
        if isinstance(owner, type):
            original = owner.__dict__[name]
        else:
            original = getattr(owner, name)
        self._saved.append((owner, name, original))
        if isinstance(original, classmethod):
            setattr(owner, name, classmethod(make(original.__func__)))
        else:
            setattr(owner, name, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class Phases:
    """Host and virtual timestamps of the phases of one replicate."""

    def __init__(self, patcher: Patcher):
        from repro.core.simulation import Gs3Simulation
        from repro.perturb.injector import PerturbationInjector
        from repro.sim.shard import ShardedSimulation
        import repro.traffic

        self.booted: Optional[float] = None
        #: ``(host enter, host exit, report, virtual enter)`` per
        #: ``stabilize`` call.
        self.stabilizes: List[Tuple[float, float, Any, float]] = []
        #: ``(host, virtual)`` time of the first perturbation applied.
        self.first_perturbation: Optional[Tuple[float, float]] = None
        self.generate_started: Optional[float] = None
        #: Host ``(enter, exit)`` of ``fold_traffic_report``.
        self.fold: Optional[Tuple[float, float]] = None
        self.fold_inputs: Optional[Tuple[Any, Any]] = None
        #: Called with the simulation after its last ``stabilize``.
        self.after_heal: Optional[Callable[[Any], None]] = None
        #: Runs the booting ``start`` call as ``on_boot(start, sim)``.
        self.on_boot: Optional[Callable[[Callable, Any], None]] = None
        phases = self

        def make_start(original):
            def start(self):
                if phases.booted is not None:
                    return original(self)
                if phases.on_boot is None:
                    original(self)
                else:
                    phases.on_boot(original, self)
                phases.booted = clock()

            return start

        def make_stabilize(original):
            def stabilize(self, *args, **kwargs):
                entered, now = clock(), self.now
                report = original(self, *args, **kwargs)
                phases.stabilizes.append((entered, clock(), report, now))
                if len(phases.stabilizes) == 2 and phases.after_heal:
                    phases.after_heal(self)
                return report

            return stabilize

        def make_apply(original):
            def _make_apply(self, event):
                apply = original(self, event)
                simulation = self.simulation

                def apply_perturbation():
                    if phases.first_perturbation is None:
                        phases.first_perturbation = (clock(), simulation.now)
                    apply()

                return apply_perturbation

            return _make_apply

        def make_generate(original):
            def generate_workload(*args, **kwargs):
                if phases.generate_started is None:
                    phases.generate_started = clock()
                return original(*args, **kwargs)

            return generate_workload

        def make_fold(original):
            def fold_traffic_report(packets, terminals, *rest):
                started = clock()
                report = original(packets, terminals, *rest)
                phases.fold = (started, clock())
                phases.fold_inputs = (packets, terminals)
                return report

            return fold_traffic_report

        for cls in (Gs3Simulation, ShardedSimulation):
            patcher.patch(cls, "start", make_start)
            patcher.patch(cls, "stabilize", make_stabilize)
        patcher.patch(PerturbationInjector, "_make_apply", make_apply)
        patcher.patch(repro.traffic, "generate_workload", make_generate)
        patcher.patch(repro.traffic, "fold_traffic_report", make_fold)


# -- the span trace ---------------------------------------------------------

ROOT = "root"

_NETWORK_QUERIES = (
    "nodes_within",
    "nearest_node",
    "adjacency",
    "physical_neighbors",
    "connected_to",
    "is_connected_to_big",
    "broadcast_candidates",
)
_NETWORK_MUTATIONS = (
    "add_node",
    "add_nodes",
    "remove_node",
    "kill_node",
    "revive_node",
    "move_node",
    "invalidate_caches",
)
_FAULT_METHODS = (
    "extra_latency",
    "data_latency",
    "extra_copies",
    "jammed",
)


def _callback_layer(fn: Any) -> str:
    """The span name of a scheduled callback, from the module owning it."""
    module = getattr(fn, "__module__", "") or ""
    qualname = getattr(fn, "__qualname__", "")
    if module == "repro.net.radio":
        return "radio.deliver"
    if module.startswith("repro.core") or module == "repro.sim.engine":
        # ``PeriodicTimer._fire`` drives the GS3-D heartbeats.
        return "protocol.timer"
    if module == "repro.traffic.plane":
        return "plane.retry"
    if module == "repro.traffic.runner":
        return "plane.injector"
    if module == "repro.perturb.injector" or qualname.endswith(
        "apply_perturbation"
    ):
        return "chaos.apply"
    return "other.callback"


class LayerTrace:
    """Span recorder plus the probes that feed it."""

    def __init__(self, patcher: Patcher, started: float, import_s: float):
        """Record from ``started``; ``import_s`` is the time before it."""
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.calls: List[int] = []
        self.self_s: List[float] = []
        self.total_s: List[float] = []
        #: Plain counters measured at the same boundaries.
        self.counts: Dict[str, int] = {}
        #: Raw spans, one row per span: id, name id, parent id, start, end.
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._ids_counter = itertools.count(1)
        self._stack: List[list] = [[self.name_id(ROOT), started, 0.0, 0]]
        self.import_s = import_s
        self._install(patcher)

    # -- recording ------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return nid

    def _span_functions(self):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        total_s = self.total_s
        next_id = self._ids_counter.__next__
        add_id = self.span_id.append
        add_name = self.span_name.append
        add_parent = self.span_parent.append
        add_start = self.span_start.append
        add_end = self.span_end.append

        def enter(nid: int) -> None:
            stack.append([nid, clock(), 0.0, next_id()])

        def leave() -> None:
            end = clock()
            nid, start, child, sid = stack.pop()
            duration = end - start
            self_s[nid] += duration - child
            total_s[nid] += duration
            calls[nid] += 1
            parent = stack[-1]
            parent[2] += duration
            add_id(sid)
            add_name(nid)
            add_parent(parent[3])
            add_start(start)
            add_end(end)

        return enter, leave

    def finish(self, end: float) -> float:
        """Close the root span at ``end``; returns the traced wall."""
        root = self._stack[0]
        duration = end - root[1]
        self.self_s[root[0]] += duration - root[2]
        self.total_s[root[0]] += duration
        self.calls[root[0]] += 1
        return duration + self.import_s

    def self_of(self, *names: str) -> float:
        return sum(
            self.self_s[self._ids[n]] for n in names if n in self._ids
        )

    def calls_of(self, *names: str) -> int:
        return sum(self.calls[self._ids[n]] for n in names if n in self._ids)

    def names_with(self, prefix: str) -> List[str]:
        return [n for n in self.names if n.startswith(prefix)]

    def write(self, path: str) -> None:
        """Write every span, gzipped: a names header, then five columns.

        Layout: ``<I`` header length, newline-joined span names, ``<Q``
        span count, then the columns id (int64), name index (int32),
        parent id (int64), start and end (float64, ``perf_counter``
        seconds), each little-endian.
        """
        header = "\n".join(self.names).encode()
        columns = (
            self.span_id,
            self.span_name,
            self.span_parent,
            self.span_start,
            self.span_end,
        )
        body = struct.pack("<Q", len(self.span_id)) + b"".join(
            column.tobytes() for column in columns
        )
        with open(path, "wb") as out:
            out.write(struct.pack("<I", len(header)) + header)
            out.write(zlib.compress(body, 1))

    # -- probes ------------------------------------------------------------

    def _install(self, patcher: Patcher) -> None:
        import multiprocessing.connection as mp_connection

        import repro.core.invariants
        import repro.net
        import repro.perturb.chaos
        import repro.sim.shard
        import repro.traffic
        import repro.traffic.runner
        from repro.core.simulation import Gs3Simulation
        from repro.core.dynamic import Gs3DynamicSimulation
        from repro.net.faults import ChannelFaultModel
        from repro.net.radio import Radio
        from repro.net.topology import Network
        from repro.perturb.chaos import ChaosCampaign
        from repro.routing.hybrid import WAIT, CellRouter
        from repro.sim.engine import Event, Simulator
        from repro.sim.shard import (
            ShardedSimulation,
            _FacadeClock,
            _ProcessExecutor,
        )
        from repro.traffic.plane import ForwardingPlane

        enter, leave = self._span_functions()
        name_id = self.name_id
        counts = self.counts

        def spanned(name: str):
            nid = name_id(name)

            def make(original):
                def wrapper(*args, **kwargs):
                    enter(nid)
                    try:
                        return original(*args, **kwargs)
                    finally:
                        leave()

                return wrapper

            return make

        # -- scheduled callbacks (engine and sharded facade clock) ------
        owners: Dict[Any, int] = {}

        def run_callback(nid: int, callback) -> None:
            enter(nid)
            try:
                callback()
            finally:
                leave()

        def traced(callback):
            fn = callback.func if type(callback) is partial else callback
            fn = getattr(fn, "__func__", fn)
            code = getattr(fn, "__code__", fn)
            nid = owners.get(code)
            if nid is None:
                nid = owners[code] = name_id(_callback_layer(fn))
            return partial(run_callback, nid, callback)

        def counting_schedule(counter: str, position: int):
            def make(original):
                def schedule(self, *args, **kwargs):
                    counts[counter] = counts.get(counter, 0) + 1
                    args = list(args)
                    args[position] = traced(args[position])
                    return original(self, *args, **kwargs)

                return schedule

            return make

        patcher.patch(Simulator, "schedule", counting_schedule("engine.heap", 1))
        patcher.patch(Simulator, "schedule_at", counting_schedule("engine.heap", 1))
        patcher.patch(
            Simulator, "schedule_recurring", counting_schedule("engine.wheel", 1)
        )
        patcher.patch(
            Simulator, "schedule_keyed", counting_schedule("engine.heap", 2)
        )
        patcher.patch(
            _FacadeClock, "schedule_at", counting_schedule("facade.ops", 1)
        )
        patcher.patch(Simulator, "run", spanned("engine.run"))

        def make_cancel(original):
            def cancel(self):
                counts["engine.cancelled"] = counts.get("engine.cancelled", 0) + 1
                return original(self)

            return cancel

        patcher.patch(Event, "cancel", make_cancel)

        # -- radio -------------------------------------------------------
        kinds: Dict[type, int] = {}

        def run_handler(handler, payload, sender_id):
            kind = type(payload)
            nid = kinds.get(kind)
            if nid is None:
                nid = kinds[kind] = name_id("protocol." + kind.__name__)
            enter(nid)
            try:
                return handler(payload, sender_id)
            finally:
                leave()

        def make_register(original):
            def register(self, node_id, handler):
                return original(self, node_id, partial(run_handler, handler))

            return register

        patcher.patch(Radio, "register", make_register)
        broadcast_nid = name_id("radio.broadcast")

        def make_broadcast(original):
            def broadcast(self, *args, **kwargs):
                enter(broadcast_nid)
                try:
                    scheduled = original(self, *args, **kwargs)
                finally:
                    leave()
                counts["radio.receivers"] = (
                    counts.get("radio.receivers", 0) + scheduled
                )
                return scheduled

            return broadcast

        patcher.patch(Radio, "broadcast", make_broadcast)
        patcher.patch(Radio, "unicast", spanned("radio.unicast"))
        patcher.patch(Radio, "send_data", spanned("radio.send_data"))
        batch_nid = name_id("radio.send_data_batch")

        def make_send_batch(original):
            def send_data_batch(self, sender_id, items):
                counts["radio.batch_frames"] = (
                    counts.get("radio.batch_frames", 0) + len(items)
                )
                enter(batch_nid)
                try:
                    return original(self, sender_id, items)
                finally:
                    leave()

            return send_data_batch

        patcher.patch(Radio, "send_data_batch", make_send_batch)

        # -- channel faults ------------------------------------------------
        def dropping(name: str):
            nid = name_id(name)

            def make(original):
                def draw(*args, **kwargs):
                    enter(nid)
                    try:
                        dropped = original(*args, **kwargs)
                    finally:
                        leave()
                    if dropped:
                        counts[name + ".drops"] = counts.get(name + ".drops", 0) + 1
                    return dropped

                return draw

            return make

        patcher.patch(
            ChannelFaultModel, "drop_broadcast", dropping("faults.drop_broadcast")
        )
        patcher.patch(ChannelFaultModel, "drop_data", dropping("faults.drop_data"))
        for method in _FAULT_METHODS:
            patcher.patch(ChannelFaultModel, method, spanned("faults." + method))

        # -- topology --------------------------------------------------------
        for method in _NETWORK_QUERIES:
            patcher.patch(Network, method, spanned("topology.query." + method))
        for method in _NETWORK_MUTATIONS:
            patcher.patch(Network, method, spanned("topology.mutate." + method))

        # -- invariants, chaos, traffic ---------------------------------------
        patcher.patch(
            repro.core.invariants,
            "check_static_invariant",
            spanned("invariants.check"),
        )
        patcher.patch(ChaosCampaign, "inject", spanned("chaos.inject"))
        generate_nid = name_id("traffic.generate")

        def make_generate(original):
            def generate_workload(*args, **kwargs):
                enter(generate_nid)
                try:
                    packets = original(*args, **kwargs)
                finally:
                    leave()
                counts["traffic.generated"] = (
                    counts.get("traffic.generated", 0) + len(packets)
                )
                return packets

            return generate_workload

        patcher.patch(repro.traffic, "generate_workload", make_generate)
        fold_nid = name_id("report.fold")

        def make_fold(original):
            def fold_traffic_report(packets, terminals, hop_entries, relay_load):
                hop_entries = tuple(hop_entries)
                counts["report.hops"] = (
                    counts.get("report.hops", 0) + len(hop_entries)
                )
                enter(fold_nid)
                try:
                    return original(packets, terminals, hop_entries, relay_load)
                finally:
                    leave()

            return fold_traffic_report

        patcher.patch(repro.traffic, "fold_traffic_report", make_fold)
        injected_nid = name_id("plane.inject")

        def make_inject_batch(original):
            def inject_batch(self, packets):
                counts["plane.injected"] = (
                    counts.get("plane.injected", 0) + len(packets)
                )
                enter(injected_nid)
                try:
                    return original(self, packets)
                finally:
                    leave()

            return inject_batch

        def make_inject(original):
            def inject(self, packet):
                counts["plane.injected"] = counts.get("plane.injected", 0) + 1
                enter(injected_nid)
                try:
                    return original(self, packet)
                finally:
                    leave()

            return inject

        patcher.patch(ForwardingPlane, "inject_batch", make_inject_batch)
        patcher.patch(ForwardingPlane, "inject", make_inject)
        patcher.patch(ForwardingPlane, "on_frame", spanned("plane.on_frame"))
        for name in ("attach_plane", "schedule_packets"):
            patcher.patch(repro.traffic.runner, name, spanned("plane.setup"))
        patcher.patch(repro.traffic.runner, "collect_traffic", spanned("campaign.collect"))
        decide_nid = name_id("router.decide")

        def make_decide(original):
            def decide(self, *args, **kwargs):
                enter(decide_nid)
                try:
                    verdict = original(self, *args, **kwargs)
                finally:
                    leave()
                if verdict[0] == WAIT:
                    counts["router.waits"] = counts.get("router.waits", 0) + 1
                return verdict

            return decide

        patcher.patch(CellRouter, "decide", make_decide)

        # -- setup and the campaign loop ------------------------------------------
        patcher.patch(repro.net, "deployment_from_spec", spanned("setup.deploy"))
        patcher.patch(
            repro.perturb.chaos, "build_campaign_simulation", spanned("setup.build")
        )
        patcher.patch(
            repro.perturb.chaos, "run_chaos_replicate", spanned("campaign.replicate")
        )
        for cls in (Gs3Simulation, ShardedSimulation):
            patcher.patch(cls, "stabilize", spanned("campaign.stabilize"))
            patcher.patch(cls, "snapshot", spanned("campaign.snapshot"))
        patcher.patch(
            Gs3DynamicSimulation, "from_deployment", spanned("setup.build")
        )

        # -- sharded coordinator ------------------------------------------------
        patcher.patch(ShardedSimulation, "_run", spanned("shard.coord"))
        # Blocked on a worker's reply; the frame decode nests inside.
        patcher.patch(
            _ProcessExecutor, "_recv_supervised", spanned("shard.wait")
        )
        patcher.patch(repro.sim.shard, "send_frame", spanned("shard.send"))
        patcher.patch(repro.sim.shard, "recv_frame", spanned("shard.recv"))

        def make_send_bytes(original):
            def send_bytes(self, buf, *args, **kwargs):
                counts["shard.frames"] = counts.get("shard.frames", 0) + 1
                counts["shard.bytes"] = counts.get("shard.bytes", 0) + len(buf)
                return original(self, buf, *args, **kwargs)

            return send_bytes

        def make_recv_bytes(original):
            def recv_bytes(self, *args, **kwargs):
                raw = original(self, *args, **kwargs)
                counts["shard.frames"] = counts.get("shard.frames", 0) + 1
                counts["shard.bytes"] = counts.get("shard.bytes", 0) + len(raw)
                return raw

            return recv_bytes

        base = mp_connection._ConnectionBase
        patcher.patch(base, "send_bytes", make_send_bytes)
        patcher.patch(base, "recv_bytes", make_recv_bytes)

        #: ``start`` is wrapped by :class:`Phases`; it hands the first
        #: (booting) call to this span.
        boot_nid = name_id("setup.boot")

        def boot(original, simulation):
            enter(boot_nid)
            try:
                original(simulation)
            finally:
                leave()

        self.boot = boot
