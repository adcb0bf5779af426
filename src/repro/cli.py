"""Command-line interface: ``python -m repro <command>``.

Commands:

``configure``
    Self-configure a random deployment with GS3-S and report the
    structure (optionally writing an SVG rendering).
``heal``
    Configure with GS3-D, inject a perturbation (head kill, region
    kill, or corruption), and report the healing outcome.
``figures``
    Print the analytical Figure 7 and Figure 8 series.
``scenario`` / ``sweep``
    Run a declarative JSON scenario once, or as a Monte Carlo sweep of
    seeded replicates.  Like ``replay`` and ``bisect``, these run no
    data plane and refuse a scenario with a ``traffic`` block.
``chaos``
    Run seeded chaos campaigns (Poisson churn + channel faults) and
    report per-campaign stabilization verdicts.
``traffic``
    Drive a data-plane workload over the configured structure and
    report delivery / delay / hotspot metrics per router.
``replay``
    Deterministically re-execute one replicate to a virtual instant
    and print its canonical state digest.
``bisect``
    Binary-search virtual time for the first instant a predicate
    (invariant violation, head-tree partition) becomes true.
``store``
    Maintain a durable run store: ``store gc`` drops superseded
    records (earlier attempts of retried replicates) and compacts the
    shards in place, atomically; ``store gc --older-than AGE`` expires
    whole runs idle longer than AGE (``--dry-run`` lists them).

``sweep``, ``chaos`` and ``traffic`` share one driver and one set of
execution flags.  ``--store DIR`` persists every replicate outcome to
a durable :class:`~repro.sim.RunStore`; ``--resume`` serves
already-completed replicates from the store (aggregation stays
byte-identical to an uninterrupted run) and ``--retries N``
re-executes crashed replicates up to ``N`` extra times.  Outcomes
flush to the store *as they land*, so Ctrl-C / SIGTERM exits with
code 130 and everything already finished is served on the next
``--resume``.

The three and ``replay`` accept ``--shards N`` to run each replicate
on the spatially-sharded executor — results are byte-identical to the
unsharded run at every shard count, so neither ``--shards`` nor
``--shard-executor`` (the inline or process backend) affects results,
the run-store key, or the provenance digest.

Process-backed runs are *supervised* (:mod:`repro.sim.supervise`): a
SIGKILLed, hung (``--task-deadline``), or frame-corrupting worker is
detected and its work retried with deterministic backoff
(``--infra-retries``); past the budget a sweep quarantines the
replicate and a sharded campaign falls back to the inline executor —
recorded in the report's ``provenance.infra`` block, never a crash.
``--infra-chaos 'kill@1,stall@3:1'`` injects such faults on purpose;
a run that completes under injected faults is byte-identical to the
fault-free run.

Exit codes for ``sweep``, ``chaos`` and ``traffic``: 2 on rejected
input (a replicate count below 1, ``--resume`` / ``--retries``
without ``--store``, a bad ``--infra-chaos`` or ``--task-deadline``)
or when any replicate crashed with a traceback, 1 when all ran but
some ended unhealthy/unhealed/unconfigured, 0 otherwise; 130 when
interrupted by SIGINT/SIGTERM.  ``bisect`` exits 0 when an onset was
found, 1 when the predicate never became true by ``--t-max``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis import (
    ascii_table,
    figure7_curve,
    figure8_curve,
    neighbor_distance_statistics,
    render_structure_map,
    snapshot_to_clusters,
    structure_quality,
)
from .core import (
    GS3Config,
    Gs3DynamicSimulation,
    Gs3Simulation,
    check_static_fixpoint,
    check_static_invariant,
)
from .geometry import Vec2
from .net import uniform_disk
from .sim import RngStreams, ShardError

__all__ = ["main", "build_parser"]


def _shard_parent() -> argparse.ArgumentParser:
    """The ``--shards`` / ``--shard-executor`` flags.

    ``--shards N`` runs each replicate on the spatially-sharded
    executor and ``--shard-executor`` picks its worker backend.  Both
    are execution policy: results are byte-identical to the unsharded
    run, and neither joins the run identity.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="run on the sharded executor with N spatial shards "
        "(results byte-identical to the default in-process run)",
    )
    parent.add_argument(
        "--shard-executor",
        choices=("inline", "process"),
        default="inline",
        help="sharded worker backend (default inline; never affects "
        "results)",
    )
    return parent


def _campaign_parent(
    shards: argparse.ArgumentParser,
) -> argparse.ArgumentParser:
    """The flags ``sweep`` / ``chaos`` / ``traffic`` share.

    The supervised-execution flags route to whichever process backend
    the invocation uses: with ``--shards N --shard-executor process``
    they configure the shard supervisor (``--infra-chaos`` steps =
    epoch indices, worker = shard index); otherwise they configure the
    sweep pool (steps = replicate indices).  Completed runs are
    byte-identical to fault-free runs by the supervision determinism
    contract.
    """
    parent = argparse.ArgumentParser(add_help=False, parents=[shards])
    parent.add_argument("path", help="path to the scenario-shaped JSON")
    parent.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool size; 0 runs in-process, default = cpu count",
    )
    parent.add_argument(
        "--base-seed",
        type=int,
        default=None,
        help="master seed for replicate derivation "
        "(default: the file's seed)",
    )
    parent.add_argument(
        "--json", metavar="PATH", help="write the report as JSON"
    )
    parent.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="persist replicate outcomes to a durable run store at DIR",
    )
    parent.add_argument(
        "--resume",
        action="store_true",
        help="serve already-completed replicates from --store instead of "
        "re-executing them (results stay byte-identical)",
    )
    parent.add_argument(
        "--retries",
        type=int,
        default=0,
        help="with --resume, re-execute crashed replicates up to N extra "
        "times (default 0)",
    )
    parent.add_argument(
        "--infra-chaos",
        metavar="SPEC",
        default=None,
        help="inject infrastructure faults: comma-joined kind@step[:worker]"
        " with kinds kill|stall|corrupt (e.g. 'kill@1', 'stall@3:1'); "
        "needs a process backend (--workers >= 1 or --shard-executor "
        "process)",
    )
    parent.add_argument(
        "--task-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-task wall-clock watchdog: a worker silent for longer is "
        "killed and its task retried (default: no hang watchdog)",
    )
    parent.add_argument(
        "--infra-retries",
        type=int,
        default=None,
        metavar="N",
        help="infra-fault retry budget per task before degrading "
        "(quarantine / inline fallback; default 2)",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GS3 reproduction (Zhang & Arora, PODC 2002)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--ideal-radius", type=float, default=100.0, metavar="R"
    )
    parser.add_argument(
        "--radius-tolerance", type=float, default=25.0, metavar="RT"
    )
    parser.add_argument("--field-radius", type=float, default=400.0)
    parser.add_argument("--nodes", type=int, default=2000)
    sub = parser.add_subparsers(dest="command", required=True)
    shards = _shard_parent()
    campaign = _campaign_parent(shards)

    configure = sub.add_parser(
        "configure", help="run GS3-S self-configuration"
    )
    configure.add_argument(
        "--svg", metavar="PATH", help="write an SVG rendering"
    )
    configure.add_argument(
        "--map", action="store_true", help="print the ASCII structure map"
    )

    heal = sub.add_parser("heal", help="inject a perturbation and heal")
    heal.add_argument(
        "--perturbation",
        choices=("head-kill", "region-kill", "corruption"),
        default="head-kill",
    )
    heal.add_argument("--region-radius", type=float, default=100.0)

    sub.add_parser("figures", help="print the Figure 7/8 series")

    scenario = sub.add_parser(
        "scenario", help="run a declarative JSON scenario file"
    )
    scenario.add_argument("path", help="path to the scenario JSON")

    sweep = sub.add_parser(
        "sweep",
        parents=[campaign],
        help="run a scenario as a Monte Carlo sweep of seeded replicates",
    )
    sweep.add_argument(
        "--replicates",
        type=int,
        default=8,
        help="number of seeded replicates (default 8)",
    )

    chaos = sub.add_parser(
        "chaos",
        parents=[campaign],
        help="run seeded chaos campaigns and report stabilization verdicts "
        "(the file may carry 'chaos' and 'channel' blocks)",
    )
    chaos.add_argument(
        "--campaigns",
        type=int,
        default=8,
        help="number of seeded campaign replicates (default 8)",
    )
    chaos.add_argument(
        "--budget",
        type=float,
        default=None,
        help="override the healing budget (ticks after the chaos window)",
    )

    traffic = sub.add_parser(
        "traffic",
        parents=[campaign],
        help="drive a data-plane workload over the configured structure "
        "and report delivery / delay / hotspot metrics per router (the "
        "file needs a 'traffic' block and may carry 'chaos' and "
        "'channel' blocks)",
    )
    traffic.add_argument(
        "--replicates",
        type=int,
        default=1,
        help="number of seeded replicates (default 1)",
    )
    traffic.add_argument(
        "--router",
        choices=("cell", "hybrid", "both"),
        default=None,
        help="override the routers raced per replicate "
        "(default: the file's 'routers' list, else both)",
    )

    replay = sub.add_parser(
        "replay",
        parents=[shards],
        help="re-execute one replicate to a virtual instant and print "
        "its canonical state digest",
    )
    replay.add_argument("path", help="path to the scenario JSON")
    replay.add_argument(
        "--at",
        type=float,
        required=True,
        metavar="T",
        help="virtual time to replay to",
    )
    replay.add_argument(
        "--replay-seed",
        type=int,
        default=None,
        help="replicate seed (default: the scenario file's seed)",
    )
    replay.add_argument(
        "--json", metavar="PATH", help="write the replay report as JSON"
    )
    replay.add_argument(
        "--check",
        metavar="PREDICATE",
        default=None,
        help="evaluate a named predicate (invariant | partition | "
        "root_stale) on the replayed state and exit 1 if it holds — "
        "the CI wedge-heal smoke is `replay ... --check partition`",
    )

    store = sub.add_parser(
        "store", help="maintain a durable run store"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_gc = store_sub.add_parser(
        "gc",
        help="drop superseded records (earlier attempts of retried "
        "replicates) and compact the shards",
    )
    store_gc.add_argument("dir", help="run-store directory")
    store_gc.add_argument(
        "--run",
        metavar="DIGEST",
        default=None,
        help="compact only this run (default: every run in the manifest)",
    )
    store_gc.add_argument(
        "--dry-run",
        action="store_true",
        help="count superseded records without rewriting anything",
    )
    store_gc.add_argument(
        "--older-than",
        metavar="AGE",
        default=None,
        help="instead of compacting, expire whole runs idle longer than "
        "AGE (e.g. 7d, 12h, 30m, 45s, or plain seconds); honors "
        "--dry-run",
    )

    bisect = sub.add_parser(
        "bisect",
        help="binary-search virtual time for the first instant a "
        "predicate becomes true",
    )
    bisect.add_argument("path", help="path to the scenario JSON")
    bisect.add_argument(
        "--predicate",
        choices=("invariant", "partition"),
        default="invariant",
        help="what to search for: an SI/DI invariant violation, or a "
        "head that cannot reach a tree root (default: invariant)",
    )
    bisect.add_argument(
        "--t-max",
        type=float,
        required=True,
        help="upper bound of the search window (virtual ticks)",
    )
    bisect.add_argument(
        "--t-min",
        type=float,
        default=0.0,
        help="lower bound of the search window (default 0)",
    )
    bisect.add_argument(
        "--tol",
        type=float,
        default=1.0,
        help="resolution of the onset instant in ticks (default 1)",
    )
    bisect.add_argument(
        "--replay-seed",
        type=int,
        default=None,
        help="replicate seed (default: the scenario file's seed)",
    )
    bisect.add_argument(
        "--json", metavar="PATH", help="write the bisection report as JSON"
    )
    return parser


def _config(args) -> GS3Config:
    return GS3Config(
        ideal_radius=args.ideal_radius,
        radius_tolerance=args.radius_tolerance,
    )


def _deployment(args):
    return uniform_disk(
        args.field_radius, args.nodes, RngStreams(args.seed)
    )


def cmd_configure(args) -> int:
    config = _config(args)
    deployment = _deployment(args)
    sim = Gs3Simulation.from_deployment(deployment, config, seed=args.seed)
    sim.run_to_quiescence()
    snapshot, gaps = sim.snapshot_and_gaps()
    distances = neighbor_distance_statistics(snapshot)
    quality = structure_quality(snapshot_to_clusters(snapshot))
    violations = check_static_fixpoint(
        snapshot,
        sim.network,
        field=deployment.field,
        gap_axials=gaps,
    )
    print(
        ascii_table(
            ["metric", "value"],
            [
                ["nodes", deployment.node_count],
                ["cells", len(snapshot.heads)],
                ["convergence ticks", sim.now],
                ["neighbour distance mean", distances.mean],
                ["cell radius mean", quality.radius.mean],
                ["cell radius max", quality.radius.max],
                ["fixpoint violations", len(violations)],
            ],
            title="GS3-S self-configuration",
        )
    )
    if args.map:
        print()
        print(
            render_structure_map(
                snapshot.head_positions(),
                [v.position for v in snapshot.associates.values()],
            )
        )
    if args.svg:
        from .analysis.svg import write_structure_svg

        write_structure_svg(snapshot, args.svg)
        print(f"\nSVG written to {args.svg}")
    return 0 if not violations else 1


def cmd_heal(args) -> int:
    config = _config(args)
    deployment = _deployment(args)
    sim = Gs3DynamicSimulation.from_deployment(
        deployment, config, seed=args.seed
    )
    sim.run_until_stable(window=60.0, max_time=5000.0)
    snapshot = sim.snapshot()
    victim = next(v for v in snapshot.heads.values() if not v.is_big)
    start = sim.now
    if args.perturbation == "head-kill":
        sim.kill_node(victim.node_id)
        what = f"killed head {victim.node_id}"
    elif args.perturbation == "region-kill":
        center = victim.position
        count = len(sim.kill_region(center, args.region_radius))
        what = f"killed {count} nodes in radius {args.region_radius}"
    else:
        sim.corrupt_node(victim.node_id)
        what = f"corrupted head {victim.node_id}"
    healed_at = sim.run_until_stable(
        window=150.0, max_time=sim.now + 60000.0
    )
    after, gaps = sim.snapshot_and_gaps()
    violations = check_static_invariant(
        after,
        sim.network,
        field=deployment.field,
        gap_axials=gaps,
        dynamic=True,
    )
    print(
        ascii_table(
            ["metric", "value"],
            [
                ["perturbation", what],
                ["healing time (ticks)", max(0.0, healed_at - start)],
                ["cells after", len(after.heads)],
                ["head claims", sim.tracer.count("head.claim")],
                ["sanity resets", sim.tracer.count("sanity.reset")],
                ["invariant violations", len(violations)],
            ],
            title="GS3-D self-healing",
        )
    )
    return 0 if not violations else 1


def cmd_scenario(args) -> int:
    from .scenario import run_scenario

    result = run_scenario(_load_scenario(args.path))
    configured = result.configured_at
    rows = [["configured at", "never" if configured is None else configured]]
    for entry in result.perturbation_log:
        rows.append(
            [
                entry["kind"],
                f"heal {entry['healing_time']:.0f} ticks, "
                f"{entry['cells_changed']} cells changed",
            ]
        )
    if result.unstable is not None:
        rows.append(["unstable", result.unstable])
    rows.append(["final cells", result.final_cells])
    rows.append(["invariant violations", len(result.final_violations)])
    print(ascii_table(["step", "outcome"], rows, title="Scenario run"))
    return 0 if result.ok() else 1


def cmd_sweep(args) -> int:
    from .scenario import run_scenario_replicate

    return _run_campaigns(
        args,
        "sweep",
        "replicates",
        run_scenario_replicate,
        _scenario_identity,
        _sweep_report,
    )


def cmd_chaos(args) -> int:
    from .perturb import run_chaos_replicate
    from .perturb.chaos import ChaosConfig
    from .sim import campaign_identity

    def with_budget(data):
        if args.budget is None:
            return data
        chaos = dict(data.get("chaos", {}), heal_budget=args.budget)
        ChaosConfig.from_dict(chaos)  # a bad --budget fails here, once
        return dict(data, chaos=chaos)

    return _run_campaigns(
        args,
        "chaos",
        "campaigns",
        run_chaos_replicate,
        campaign_identity,
        _chaos_report,
        prepare=with_budget,
    )


def cmd_traffic(args) -> int:
    from .sim import campaign_identity
    from .traffic import run_traffic_replicate

    def with_routers(data):
        if data.get("traffic") is None:
            raise ValueError("workload file has no 'traffic' block")
        if args.router is None:
            return data
        routers = ["cell", "hybrid"] if args.router == "both" else [args.router]
        return dict(data, traffic=dict(data["traffic"], routers=routers))

    return _run_campaigns(
        args,
        "traffic",
        "replicates",
        run_traffic_replicate,
        campaign_identity,
        _traffic_report,
        prepare=with_routers,
    )


def _run_campaigns(
    args, kind, count_flag, fn, identity_of, report, prepare=None
) -> int:
    """The shared body of ``sweep`` / ``chaos`` / ``traffic``.

    Loads the scenario-shaped JSON, folds in the shard and supervision
    flags (and the command's own through ``prepare``), runs
    ``args.<count_flag>`` seeded replicates of ``fn`` through
    :func:`~repro.sim.run_campaign` with SIGTERM routed to the
    interrupt path, then prints the supervision summary, the command's
    table and summary lines, the cache count and every crash.
    ``report(outcomes, base_seed, workers)`` prints the table and
    summary and returns ``(payload, ok)``: the JSON body beside the
    provenance block, and whether every replicate ended healthy.  The
    run store and the provenance digest both key on
    ``identity_of(data)``.
    """
    import json as _json

    from .sim import (
        RunStore,
        RunStoreError,
        SupervisionLog,
        SweepRunner,
        run_campaign,
        run_provenance,
    )

    count = getattr(args, count_flag)
    data = _load_input(args.path, _parse_campaign)
    try:
        if count < 1:
            raise ValueError(f"--{count_flag} must be >= 1, got {count}")
        if args.retries < 0:
            raise ValueError(f"--retries must be >= 0, got {args.retries}")
        if args.store is None and (args.resume or args.retries):
            raise ValueError("--resume and --retries need --store")
        workers = SweepRunner(None, workers=args.workers).resolve_workers(
            count
        )
        data = _apply_shard_flags(data, args)
        if prepare is not None:
            data = prepare(data)
        data, pool_kwargs = _apply_supervise_flags(data, args, workers)
        # The flags may have changed what the file said: check again.
        _parse_campaign(data)
        identity = identity_of(data)
        store = None if args.store is None else RunStore(args.store)
    except (ValueError, RunStoreError) as exc:
        print(f"error: {exc}")
        return 2
    base_seed = (
        args.base_seed
        if args.base_seed is not None
        else int(data.get("seed", 0))
    )
    supervision = SupervisionLog()
    restore_signals = _graceful_signals()
    try:
        outcomes = run_campaign(
            fn,
            kind,
            data,
            count,
            identity,
            base_seed=base_seed,
            workers=args.workers,
            store=store,
            resume=args.resume,
            retries=args.retries,
            supervision_log=supervision,
            **pool_kwargs,
        )
    except KeyboardInterrupt:
        # Completed replicates were recorded as they landed; say so and
        # exit with the conventional interrupted-by-signal code.
        if args.store is not None:
            print(
                f"\ninterrupted: completed {count_flag} are flushed to "
                f"{args.store}; rerun with --store {args.store} --resume "
                f"to serve them"
            )
        else:
            print("\ninterrupted (no --store: partial work discarded)")
        return 130
    finally:
        restore_signals()
    infra_note = supervision.summary()
    if infra_note:
        print(infra_note)
    payload, ok = report(outcomes, base_seed, workers)
    if args.store is not None:
        cached = sum(1 for o in outcomes if o.cached)
        print(f"cached: {cached}/{len(outcomes)} served from {args.store}")
    crashed = [o for o in outcomes if not o.ok]
    for outcome in crashed:
        print(f"\n{count_flag[:-1]} {outcome.index} crashed:\n{outcome.error}")
    if args.json:
        payload["provenance"] = run_provenance(
            kind,
            identity,
            base_seed=base_seed,
            replicates=count,
            workers=workers,
            infra=_infra_provenance(outcomes),
        )
        with open(args.json, "w", encoding="utf-8") as handle:
            _json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"\nJSON written to {args.json}")
    if crashed:
        return 2
    return 0 if ok else 1


def _scenario_identity(data):
    """A sweep's run identity: the *parsed* scenario.

    Formatting or key order in the source JSON never forks it, and
    ``Scenario.to_dict`` never emits the execution-policy keys.  The
    parse refuses a ``chaos`` or ``traffic`` block
    (:func:`_parse_scenario`) before any replicate runs.
    """
    return _parse_scenario(data).to_dict()


def _wall(outcome) -> str:
    """A table's ``wall`` cell: seconds spent, or ``cached``."""
    return "cached" if outcome.cached else f"{outcome.elapsed:.1f}s"


def _results(outcomes) -> list:
    """Per-replicate JSON payloads in replicate order."""
    return [o.result if o.ok else {"error": o.error} for o in outcomes]


def _sweep_report(outcomes, base_seed, workers):
    from .sim import replicate_seed

    rows = []
    for outcome in outcomes:
        if outcome.ok:
            result = outcome.result
            configured = result["configured_at"]
            rows.append(
                [
                    outcome.index,
                    result["seed"],
                    _sweep_status(result),
                    "-" if configured is None else f"{configured:.0f}",
                    len(result["perturbation_log"]),
                    result["final_cells"],
                    _wall(outcome),
                ]
            )
        else:
            rows.append(
                [outcome.index, replicate_seed(base_seed, outcome.index),
                 "CRASHED", "-", "-", "-", _wall(outcome)]
            )
    print(
        ascii_table(
            [
                "replicate",
                "seed",
                "status",
                "configured at",
                "perturbations",
                "final cells",
                "wall",
            ],
            rows,
            title=f"Sweep: {len(outcomes)} replicates, workers={workers}",
        )
    )
    healthy = sum(
        1 for o in outcomes if o.ok and _sweep_status(o.result) == "ok"
    )
    crashed = sum(1 for o in outcomes if not o.ok)
    print(f"\n{healthy}/{len(outcomes)} healthy, {crashed} crashed")
    payload = {"base_seed": base_seed, "replicates": _results(outcomes)}
    return payload, healthy == len(outcomes)


def _sweep_status(result) -> str:
    """A healthy replicate is ``ok``; one whose configure or heal ran
    out its budget is ``unstable``; else ``violations``."""
    if "unstable" in result:
        return "unstable"
    return "violations" if result["final_violations"] else "ok"


def _chaos_report(outcomes, base_seed, workers):
    from .perturb import summarize_verdicts

    rows = []
    for outcome in outcomes:
        if not outcome.ok:
            rows.append(
                [outcome.index, "CRASHED", "-", "-", "-", "-", _wall(outcome)]
            )
            continue
        v = outcome.result
        heal = (
            f"{v['healing_time']:.0f}"
            if v["healing_time"] is not None
            else "-"
        )
        status = "healed" if v["healed"] else (
            "TIMEOUT" if v["timed_out"] else "BROKEN"
        )
        rows.append(
            [
                outcome.index,
                status,
                heal,
                v["cells_disturbed"],
                v["events_injected"],
                len(v["violations"]),
                _wall(outcome),
            ]
        )
    print(
        ascii_table(
            [
                "campaign",
                "verdict",
                "healing time",
                "cells disturbed",
                "events",
                "violations",
                "wall",
            ],
            rows,
            title=f"Chaos: {len(outcomes)} campaigns",
        )
    )
    summary = summarize_verdicts(outcomes)
    print(
        f"\n{summary['healed']}/{summary['campaigns']} healed "
        f"({summary['healed_fraction']:.0%}), "
        f"{summary['timed_out']} timed out, "
        f"{summary['crashed']} crashed"
    )
    times = summary["healing_time"]
    if times is not None:
        print(
            f"healing time p50={times['p50']:.0f} "
            f"p90={times['p90']:.0f} max={times['max']:.0f} ticks"
        )
    payload = {"summary": summary, "verdicts": _results(outcomes)}
    return payload, summary["healed"] == summary["campaigns"]


def _traffic_report(outcomes, base_seed, workers):
    from .traffic import summarize_traffic

    rows = []
    for outcome in outcomes:
        if not outcome.ok:
            rows.append(
                [outcome.index, "-", "CRASHED", "-", "-", "-", "-", "-",
                 _wall(outcome)]
            )
            continue
        for router, report in sorted(outcome.result["routers"].items()):
            if "error" in report:
                rows.append(
                    [outcome.index, router, "UNCONFIGURED",
                     "-", "-", "-", "-", "-", _wall(outcome)]
                )
                continue
            delay = report["delay"]
            rows.append(
                [
                    outcome.index,
                    router,
                    f"{report['delivery_ratio']:.1%}",
                    f"{delay['p50']:.1f}",
                    f"{delay['p90']:.1f}",
                    f"{delay['p99']:.1f}",
                    f"{report['stretch']['p50']:.2f}",
                    report["relay"]["max_load"],
                    _wall(outcome),
                ]
            )
    print(
        ascii_table(
            [
                "replicate",
                "router",
                "delivery",
                "delay p50",
                "p90",
                "p99",
                "stretch p50",
                "hotspot",
                "wall",
            ],
            rows,
            title=f"Traffic: {len(outcomes)} replicates",
        )
    )
    summary = summarize_traffic(outcomes)
    for router, agg in sorted(summary["routers"].items()):
        print(
            f"\n{router}: {agg['delivered']}/{agg['generated']} delivered "
            f"({agg['delivery_ratio']:.1%}), "
            f"delay p50~{agg['delay_p50_median']:.1f} "
            f"p99~{agg['delay_p99_median']:.1f} "
            f"max={agg['delay_max']:.1f} ticks, "
            f"hotspot max load {agg['hotspot_max_load']}"
        )
    if summary["crashed"]:
        print(f"\n{summary['crashed']} replicate(s) crashed")
    unconfigured = sum(
        agg["unconfigured"] for agg in summary["routers"].values()
    )
    payload = {"summary": summary, "replicates": _results(outcomes)}
    return payload, not unconfigured


def _apply_shard_flags(data, args):
    """Fold ``--shards`` / ``--shard-executor`` into a scenario dict.

    Both ride along for this invocation only and never join the run
    identity.
    """
    if args.shards is None:
        return data
    data = dict(data)
    data["shards"] = args.shards
    data["shard_executor"] = args.shard_executor
    return data


def _apply_supervise_flags(data, args, pool_workers: int):
    """Route the supervised-execution flags to the right process layer.

    Returns ``(data, pool_kwargs)``: with ``--shards N
    --shard-executor process`` the knobs fold into the scenario dict's
    ``supervise`` block (shard supervisor; never digest-relevant),
    otherwise they become :class:`~repro.sim.SweepRunner` keyword
    arguments for the supervised pool of ``pool_workers`` processes.
    Raises ``ValueError`` for a bad ``--infra-chaos`` spec, a
    ``--task-deadline`` that is not finite and > 0 (whichever backend
    runs), or when fault injection has no process backend to inject
    into.
    """
    from .sim import InfraChaosConfig, RetryPolicy
    from .sim.supervise import check_deadline

    chaos_spec = args.infra_chaos
    deadline = check_deadline(args.task_deadline)
    retries = args.infra_retries
    if chaos_spec is None and deadline is None and retries is None:
        return data, {}
    chaos = InfraChaosConfig.parse(chaos_spec) if chaos_spec else None
    sharded_process = (
        args.shards is not None and args.shard_executor == "process"
    )
    if sharded_process:
        supervise = {}
        if deadline is not None:
            supervise["deadline"] = deadline
        if retries is not None:
            supervise["retries"] = retries
        if chaos is not None:
            supervise["infra_chaos"] = chaos.to_dict()
        data = dict(data)
        data["supervise"] = supervise
        return data, {}
    if pool_workers == 0:
        if chaos is not None:
            raise ValueError(
                "--infra-chaos needs a process backend: run with "
                "--workers >= 1 or --shards N --shard-executor process"
            )
        return data, {}
    kwargs = {}
    if deadline is not None:
        kwargs["deadline"] = deadline
    if retries is not None:
        kwargs["retry_policy"] = RetryPolicy(retries=retries)
    if chaos is not None:
        kwargs["infra_chaos"] = chaos
    return data, kwargs


def _infra_provenance(outcomes) -> Optional[dict]:
    """The provenance ``infra`` block: degradation events, or ``None``.

    Quarantined replicates and process→inline fallbacks changed what
    the run delivered, so they are stamped on the report; mere
    survived faults (retries, respawns) leave the report byte-identical
    to a fault-free run and contribute nothing here.
    """
    events = []
    for outcome in outcomes:
        events.extend(dict(e) for e in outcome.infra)
    return {"degradations": events} if events else None


def _graceful_signals():
    """Route SIGTERM through the KeyboardInterrupt handling (if possible).

    Returns an undo callable.  Completed replicates are recorded to the
    run store *as they land*, so all the interrupt path has to do is
    let the supervisor tear down its workers and exit 130.
    """
    import signal as _signal

    def _on_sigterm(signum, frame):
        raise KeyboardInterrupt

    try:
        previous = _signal.signal(_signal.SIGTERM, _on_sigterm)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        return lambda: None
    return lambda: _signal.signal(_signal.SIGTERM, previous)


class _BadInput(Exception):
    """An input file that does not load or parse.

    :func:`main` prints it as one ``error: <path>: <message>`` line and
    exits 2.
    """


def _load_input(path: str, parse):
    """``parse`` the JSON in ``path``; any failure is a :class:`_BadInput`."""
    import json as _json

    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = _json.load(handle)
        if not isinstance(data, dict):
            raise _BadInput(f"{path}: expected a JSON object")
        return parse(data)
    except KeyError as exc:
        raise _BadInput(f"{path}: missing key {exc}") from None
    except (OSError, ValueError, TypeError) as exc:
        raise _BadInput(f"{path}: {exc}") from None


def _parse_scenario(data):
    """Parse a scenario for ``scenario``, ``sweep``, ``replay`` or
    ``bisect``.

    Their runner (:class:`~repro.scenario.ScenarioExecution`) runs no
    chaos campaign and attaches no data plane, so a ``chaos`` or
    ``traffic`` block is refused, not ignored.
    """
    from .scenario import Scenario

    if "chaos" in data:
        raise ValueError(
            "a 'chaos' block is a chaos campaign: run it with "
            "'repro chaos' or 'repro traffic'"
        )
    scenario = Scenario.from_dict(data)
    if scenario.traffic is not None:
        raise ValueError(
            "a 'traffic' block needs a data plane: run it with "
            "'repro traffic' or 'repro chaos'"
        )
    return scenario


def _load_scenario(path: str):
    return _load_input(path, _parse_scenario)


def _parse_campaign(data):
    """Check a sweep/chaos/traffic description before any replicate runs.

    Parses everything each replicate would, through the replicates' own
    :func:`~repro.perturb.chaos.parse_campaign`: the scenario blocks
    (``config``, ``deployment``, ``channel``, ``traffic`` …), the
    execution policy, the ``chaos`` block and the sharding limits.
    Returns ``data`` unchanged.
    """
    from .perturb.chaos import parse_campaign

    parse_campaign(data)
    return data


def cmd_replay(args) -> int:
    import json as _json

    from .sim.replay import PREDICATES, replay_to, state_digest

    check = getattr(args, "check", None)
    if check is not None and check not in PREDICATES:
        known = ", ".join(sorted(PREDICATES))
        print(f"unknown predicate {check!r} (known: {known})")
        return 2
    scenario = _load_scenario(args.path)
    if args.shards is not None:
        from dataclasses import replace as _replace

        try:
            scenario = _replace(
                scenario,
                shards=args.shards,
                shard_executor=args.shard_executor,
            )
        except ValueError as exc:
            print(f"error: {exc}")
            return 2
    seed = args.replay_seed if args.replay_seed is not None else scenario.seed
    state = replay_to(scenario, seed, args.at)
    digest = state_digest(state.snapshot)
    report = {
        "scenario_digest": scenario.canonical_digest(),
        "seed": seed,
        "requested_time": args.at,
        "time": state.time,
        "completed": state.completed,
        "state_digest": digest,
        "cells": len(state.snapshot.heads),
        "roots": len(state.snapshot.roots),
    }
    verdict = None
    if check is not None:
        verdict = bool(PREDICATES[check](state))
        report[f"check:{check}"] = verdict
    print(
        ascii_table(
            ["field", "value"],
            [[k, v] for k, v in report.items()],
            title=f"Replay to t={args.at}",
        )
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            _json.dump(report, handle, indent=2, sort_keys=True)
        print(f"\nJSON written to {args.json}")
    if verdict:
        print(f"\npredicate {check!r} holds at t={state.time}: FAIL")
        return 1
    return 0


def cmd_bisect(args) -> int:
    import json as _json

    from .sim.replay import PREDICATES, bisect_onset, state_digest

    scenario = _load_scenario(args.path)
    seed = args.replay_seed if args.replay_seed is not None else scenario.seed
    result = bisect_onset(
        scenario,
        seed,
        PREDICATES[args.predicate],
        t_max=args.t_max,
        t_min=args.t_min,
        tol=args.tol,
    )
    report = result.to_dict()
    report["scenario_digest"] = scenario.canonical_digest()
    report["seed"] = seed
    report["predicate"] = args.predicate
    if result.state is not None:
        report["onset_state_digest"] = state_digest(result.state.snapshot)
    rows = [
        ["predicate", args.predicate],
        ["seed", seed],
        ["replays", result.replays],
        ["bisect steps", result.bisect_steps],
    ]
    if result.onset is None:
        rows.append(["onset", f"never true by t={args.t_max}"])
    else:
        rows.append(["onset", f"t = {result.onset}"])
        rows.append(["false until", result.lo])
        rows.append(["onset state digest", report["onset_state_digest"]])
    print(ascii_table(["field", "value"], rows, title="Onset bisection"))
    if result.onset is not None:
        print(
            f"\nreproduce with: repro replay {args.path} "
            f"--replay-seed {seed} --at {result.onset}"
        )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            _json.dump(report, handle, indent=2, sort_keys=True)
        print(f"\nJSON written to {args.json}")
    return 0 if result.onset is not None else 1


def cmd_store(args) -> int:
    from .sim import RunStore, parse_age

    if args.store_command == "gc":
        store = RunStore(args.dir)
        if args.older_than is not None:
            try:
                older_than = parse_age(args.older_than)
            except ValueError as exc:
                print(f"error: {exc}")
                return 2
            report = store.expire(older_than, dry_run=args.dry_run)
            rows = [
                [
                    digest[:16],
                    "?" if entry["age"] is None else f"{entry['age']:.0f}s",
                    entry["records"],
                    "expire" if entry["expired"] else "keep",
                ]
                for digest, entry in sorted(report.items())
            ]
            verb = "would expire" if args.dry_run else "expired"
            print(
                ascii_table(
                    ["run", "age", "records", "action"],
                    rows or [["(no runs)", "-", 0, "-"]],
                    title="Run-store expiry"
                    + (" (dry run)" if args.dry_run else ""),
                )
            )
            expired = [d for d, e in report.items() if e["expired"]]
            print(
                f"\n{verb} {len(expired)} run(s) older than "
                f"{args.older_than}"
            )
            return 0
        report = store.gc(run_digest=args.run, dry_run=args.dry_run)
        rows = [
            [digest[:16], stats["kept"], stats["dropped"]]
            for digest, stats in sorted(report.items())
        ]
        verb = "would drop" if args.dry_run else "dropped"
        print(
            ascii_table(
                ["run", "kept", verb],
                rows or [["(no runs)", 0, 0]],
                title="Run-store gc" + (" (dry run)" if args.dry_run else ""),
            )
        )
        total = sum(s["dropped"] for s in report.values())
        print(f"\n{verb} {total} superseded record(s)")
        return 0
    return 2  # pragma: no cover - argparse enforces choices


def cmd_figures(args) -> int:
    ratios = [0.005 + 0.0025 * i for i in range(19)]
    fig7 = figure7_curve(ratios, args.ideal_radius, 10.0)
    fig8 = figure8_curve(ratios, args.ideal_radius, 10.0)
    print(
        ascii_table(
            ["Rt/R", "fig7 ratio", "fig8 diameter"],
            [[r, a, b] for (r, a), (_, b) in zip(fig7, fig8)],
            title="Figures 7 and 8 (analytical, lambda=10)",
        )
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (_BadInput, ShardError) as exc:
        # A bad input file, or an operation a sharded run refuses.
        print(f"error: {exc}")
        return 2


def _dispatch(args) -> int:
    if args.command == "configure":
        return cmd_configure(args)
    if args.command == "heal":
        return cmd_heal(args)
    if args.command == "figures":
        return cmd_figures(args)
    if args.command == "scenario":
        return cmd_scenario(args)
    if args.command == "sweep":
        return cmd_sweep(args)
    if args.command == "chaos":
        return cmd_chaos(args)
    if args.command == "traffic":
        return cmd_traffic(args)
    if args.command == "replay":
        return cmd_replay(args)
    if args.command == "bisect":
        return cmd_bisect(args)
    if args.command == "store":
        return cmd_store(args)
    return 2  # pragma: no cover - argparse enforces choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
