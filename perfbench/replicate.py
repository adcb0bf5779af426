"""One replicate of one workload, in its own process.

``run.py`` starts this script once per replicate and reads the JSON
object it prints as its last line.  The replicate runs the workload's
campaign through :func:`repro.perturb.chaos.run_chaos_replicate`, checks
its outputs, and reports the end-to-end metrics; with ``--trace`` it
also installs the span probes of :mod:`probes` and reports the
per-layer table.  Untraced, it samples the host's speed from its first
line on (:mod:`hostspeed`) and reports host times in reference seconds,
with the host seconds beside them.

Usage (from the checkout root, with ``src`` and ``perfbench`` on
``PYTHONPATH``)::

    python3 perfbench/replicate.py --workload chaos --seed 11 --index 0 \\
        --t0 <perf_counter before spawn> [--trace]

With ``--trace`` the spans go to ``.perfbench/<workload>.spans.gz``.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time

from hostspeed import HostSpeed

HERE = os.path.dirname(os.path.abspath(__file__))


def _peak_rss_mb() -> float:
    """This process's peak RSS plus that of its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _delays(packets, terminals):
    created = {p.pid: p.created_at for p in packets}
    return sorted(
        t - created[pid]
        for pid, (outcome, t) in terminals.items()
        if outcome == "delivered"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    # Sampling starts before the program is imported, so that setup_s
    # is corrected too.  A traced run is not corrected: the bursts would
    # land inside its spans.
    speed = None if args.trace else HostSpeed()

    import repro.perturb.chaos
    import repro.traffic  # noqa: F401 - probes patch its attributes
    from repro.sim import percentile, replicate_seed, state_digest

    from probes import LayerTrace, Patcher, Phases
    from workloads import WORKLOADS

    imported = time.perf_counter()
    workload = WORKLOADS[args.workload]
    seed = replicate_seed(args.seed, args.index)
    patcher = Patcher()
    # Phase probes go in first, so the span probes wrap them and the
    # phase bookkeeping (the final digest included) is inside a span.
    phases = Phases(patcher)
    trace = None
    if args.trace:
        trace = LayerTrace(patcher, imported, imported - args.t0)
        phases.on_boot = trace.boot
    captured = {}

    def after_heal(simulation):
        captured["state"] = state_digest(simulation.snapshot())
        captured["events"] = (
            simulation.executed_events
            if hasattr(simulation, "barrier_count")
            else simulation.runtime.sim.executed_events
        )
        captured["emits"] = sum(simulation.tracer.counts.values())
        captured["barriers"] = getattr(simulation, "barrier_count", 0)
        captured["op_dispatches"] = getattr(simulation, "op_dispatches", 0)

    phases.after_heal = after_heal
    verdict = repro.perturb.chaos.run_chaos_replicate(
        {"data": workload.data, "seed": seed}
    )

    errors = []
    report = verdict.get("traffic") or {}
    stabilizes = phases.stabilizes
    if verdict["configured_at"] is None or not stabilizes[0][2].stable:
        errors.append("initial configuration not stable within its budget")
    if not verdict["healed"]:
        errors.append(
            f"not healed: violations={list(verdict['violations'])[:3]}"
        )
    if len(stabilizes) != 2 or phases.first_perturbation is None:
        errors.append("chaos window injected nothing or heal never ran")
    missing = 0
    if phases.fold_inputs is None or not report:
        errors.append("no traffic report")
    else:
        packets, terminals = phases.fold_inputs
        pids = {packet.pid for packet in packets}
        if len(pids) != report["generated"] or not pids.issuperset(terminals):
            errors.append(
                "terminal outcomes or pids disagree with the packets generated"
            )
        # The program reports a frame in flight to a node that dies
        # before it arrives as ``missing``; only a workload that kills
        # nodes may have any.
        missing = report["outcomes"]["missing"]
        if missing and not workload.data["chaos"].get("kill_rate"):
            errors.append(f"{missing} packets without a terminal outcome")
        if len(stabilizes) == 2:
            heal_tick = stabilizes[1][3]
            late = sum(1 for _, t in terminals.values() if t > heal_tick)
            if late:
                errors.append(
                    f"{late} packets ended after the heal began: "
                    "packets_per_s would time the heal"
                )

    def host_s(start, end):
        """Host seconds of the program's work in ``[start, end]``."""
        return end - start - (speed.own_s(start, end) if speed else 0.0)

    def reference_s(start, end):
        """The same, scaled to the reference host speed."""
        return host_s(start, end) * (speed.factor(start, end) if speed else 1.0)

    windows = {}
    metrics = {}
    if not errors:
        delays = _delays(*phases.fold_inputs)
        if (
            percentile(delays, 0.50) != report["delay"]["p50"]
            or percentile(delays, 0.99) != report["delay"]["p99"]
        ):
            errors.append("delay percentiles disagree with the report")
        heal_report = stabilizes[1][2]
        first_host, first_tick = phases.first_perturbation
        heal_ticks = heal_report.converged_at - first_tick
        if heal_ticks <= 0.0:
            errors.append("no structure change after the first perturbation")
        windows = {
            "setup_s": [(args.t0, phases.booted)],
            "configure_s": [(phases.booted, stabilizes[0][1])],
            "heal_s": [(first_host, stabilizes[1][1])],
            # Generation to the heal, when every packet has ended,
            # plus the report fold.
            "packets_per_s": [
                (phases.generate_started, stabilizes[1][0]),
                phases.fold,
            ],
        }
        metrics = {
            "configure_ticks": verdict["configured_at"],
            "heal_ticks": heal_ticks,
            "delay_p50": percentile(delays, 0.50),
            "delay_p99": percentile(delays, 0.99),
            "delay_p999": percentile(delays, 0.999),
        }
    digest = hashlib.sha256(
        json.dumps(
            {"state": captured.get("state"), "verdict": verdict},
            sort_keys=True,
        ).encode()
    ).hexdigest()
    checked = time.perf_counter()
    if speed is not None:
        speed.stop()
    windows["wall_s"] = [(args.t0, checked)]
    # The same windows in host seconds, printed beside the metrics and
    # used for the tracing overhead.
    host = {}
    for name, spans in windows.items():
        metrics[name] = sum(reference_s(*window) for window in spans)
        host[name] = sum(host_s(*window) for window in spans)
    if "setup_s" in windows and speed is not None:
        # Set-up holds a dozen bursts, most of them while modules load
        # from disk: the speed over the whole replicate is steadier.
        metrics["setup_s"] = host["setup_s"] * speed.factor(args.t0, checked)
    if "packets_per_s" in windows:
        metrics["packets_per_s"] = report["generated"] / metrics["packets_per_s"]
        host["packets_per_s"] = report["generated"] / host["packets_per_s"]
    metrics["peak_rss_mb"] = _peak_rss_mb()

    result = {
        "workload": args.workload,
        "seed": seed,
        "errors": errors,
        "digest": digest,
        "metrics": metrics,
        "host": host,
        "generated": report.get("generated", 0),
        "delivered": report.get("outcomes", {}).get("delivered", 0),
        "missing": missing,
        "perturbations": verdict.get("events_injected", 0),
    }
    if trace is not None:
        from layers import layer_table

        wall = trace.finish(checked)
        result["layers"] = layer_table(trace, captured, wall)
        result["spans"] = {
            name: [trace.calls[i], trace.self_s[i], trace.total_s[i]]
            for i, name in enumerate(trace.names)
        }
        out_dir = os.path.join(os.path.dirname(HERE), ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        trace.write(os.path.join(out_dir, f"{args.workload}.spans.gz"))
    patcher.restore()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
