"""The repository benchmark: one command runs a workload and checks it.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload configure --seed 23 --seconds 30 --trace 0
    python3 perfbench/run.py --workload chaos --seed 11 --seconds 30 --trace 1

Workloads (see :mod:`workloads` for why each exists and which layers it
loads or bypasses): ``configure``, ``chaos``, ``traffic``,
``configure_shard2``.

A run starts one process per replicate (``replicate.py``), one after
the other, and never more than one at a time.

``--trace 0``
    Measures ``round(seconds / replicate_s)`` replicates with distinct
    seeds derived from ``--seed`` (the sweep scheme of
    :func:`repro.sim.replicate_seed`), then runs the first one again;
    the two runs of that input must produce the same digest.  Times are
    medians over every replicate process, in reference seconds: host
    seconds corrected for the shared host's drifting speed (see
    :mod:`hostspeed`; the uncorrected medians are printed too).
    Simulated metrics are nearest-rank medians over the distinct
    replicates; ``delivery_ratio`` pools their packets.  Prints every
    end-to-end metric.
``--trace 1``
    Runs the first replicate untraced, then traced with the span
    probes of :mod:`probes`; their digests must agree.  Prints every
    per-layer metric, including the tracing overhead (traced ÷ untraced
    wall − 1) and the share of traced wall the layer self times cover.
    Spans go to ``.perfbench/<workload>.spans.gz`` (format in
    :meth:`probes.LayerTrace.write`).

To rerun one workload traced, on the held-out seed the workload names::

    python3 perfbench/run.py --workload traffic --seed 2038 --seconds 30 --trace 1

Every run prints a human-readable table, then, as its last line, one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; metric names and units are those of ``BENCHMARK.json``.
A replicate fails when it crashes, exceeds its wall-clock cap, fails an
output check (stable configuration, zero invariant violations after the
heal, a ``healed`` verdict, terminal outcomes only for generated
packets and all before the heal, none missing unless the workload kills
nodes) or disagrees with another run of the same input.

Run outside a checkout that holds ``src/repro``, it exits with code 2
and prints no result.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import bypass_errors  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Host-time metrics, in reference seconds (see :mod:`hostspeed`).
_HOST = ("setup_s", "configure_s", "heal_s", "packets_per_s", "wall_s")
#: Metrics that are the median over every replicate process.
_TIMED = _HOST + ("peak_rss_mb",)
#: Simulated metrics: the nearest-rank median over distinct replicates.
#: With an even count it takes the lower middle value instead of
#: averaging two that may sit in two modes: ``configured_at`` on the
#: lossy field, or a delay tail that one replicate's loss burst fills.
#: On ``chaos`` ~0.02–0.09 % of packets outlast the 3-hop cluster
#: (retries after loss), so a p99.9 over the pooled packets of a run
#: fell beyond it in three runs of ten; a replicate's own p99.9 does so
#: only in the replicates a burst hit.
_SIMULATED = ("configure_ticks", "heal_ticks", "delay_p50", "delay_p99", "delay_p999")
#: Host seconds after which a run starts no more replicates and cuts the
#: running one short, so every run ends well within three minutes.
RUN_DEADLINE_S = 150.0
#: A replicate still running after this many host seconds (three times
#: as many traced) is killed and counted as failed, so a change that
#: stops stabilising fails the run instead of hanging it.
REPLICATE_CAP_S = 60.0


def _percentile(values, q):
    """Nearest rank, the repository's convention (``ceil(q*n) - 1``).

    A copy of :func:`repro.sim.percentile`: this process never imports
    the program, so it can refuse cleanly outside a checkout.
    """
    return values[max(0, math.ceil(q * len(values)) - 1)]


def _spawn(workload, seed, index, deadline, trace=False):
    """Run one replicate process; returns its result dict or an error.

    The process is killed, and the replicate counted as failed, when it
    outlives :data:`REPLICATE_CAP_S` or the run's ``deadline``
    (a ``perf_counter`` instant).
    """
    cmd = [
        sys.executable,
        os.path.join(HERE, "replicate.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--index", str(index),
    ]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), HERE]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    t0 = time.perf_counter()
    cap = min(REPLICATE_CAP_S * (3.0 if trace else 1.0), deadline - t0)
    if cap <= 0.0:
        return {"errors": [f"replicate {index} not run: run deadline passed"]}
    proc = subprocess.Popen(
        cmd + ["--t0", repr(t0)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=cap)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.communicate()
        return {"errors": [f"replicate {index} exceeded its {cap:.0f} s cap"]}
    if proc.returncode != 0 or not out.strip():
        tail = err.strip().splitlines()[-1:] if err.strip() else ["no output"]
        return {"errors": [f"replicate {index} exited {proc.returncode}: {tail[0]}"]}
    return json.loads(out.strip().splitlines()[-1])


def _provenance(workload, seed, seeds):
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    data = WORKLOADS[workload].data
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "executor": (
            f"shards={data['shards']} {data.get('shard_executor', 'inline')}"
            if "shards" in data
            else "single process"
        ),
        "seed": seed,
        "replicate_seeds": seeds,
        "held_out_seed": WORKLOADS[workload].held_out_seed,
    }


def _end_to_end(results):
    """End-to-end metrics and their sample counts from good replicates."""
    metrics = {
        name: statistics.median(r["metrics"][name] for r in results)
        for name in _TIMED
    }
    host = {
        name: statistics.median(r["host"][name] for r in results)
        for name in _HOST
    }
    distinct = {r["seed"]: r for r in results}.values()
    generated = sum(r["generated"] for r in distinct)
    delivered = sum(r["delivered"] for r in distinct)
    for name in _SIMULATED:
        metrics[name] = _percentile(
            sorted(r["metrics"][name] for r in distinct), 0.5
        )
    metrics["delivery_ratio"] = delivered / generated
    samples = {
        "replicate processes": len(results),
        "distinct replicates": len(distinct),
        "generated packets": generated,
        "delivered packets": delivered,
        "fewest delivered beyond p99 in a replicate": min(
            r["delivered"] - math.ceil(0.99 * r["delivered"]) for r in distinct
        ),
        "fewest delivered beyond p99.9 in a replicate": min(
            r["delivered"] - math.ceil(0.999 * r["delivered"]) for r in distinct
        ),
        "packets in flight to a node that died": sum(
            r["missing"] for r in distinct
        ),
    }
    return metrics, samples, host


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(
            f"error: no program source under {os.path.join(ROOT, 'src')}; "
            "run from a checkout of the repository",
            file=sys.stderr,
        )
        return 2

    workload = WORKLOADS[args.workload]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    started = time.perf_counter()
    deadline = started + RUN_DEADLINE_S
    if args.trace:
        plain = _spawn(args.workload, args.seed, 0, deadline)
        traced = _spawn(args.workload, args.seed, 0, deadline, trace=True)
        runs = [plain, traced]
        seeds = [plain.get("seed")]
    else:
        count = max(1, round(args.seconds / workload.replicate_s))
        runs = [
            _spawn(args.workload, args.seed, i, deadline)
            for i in list(range(count)) + [0]
        ]
        seeds = [r.get("seed") for r in runs[:count]]
    first, repeat = runs[0], runs[-1]
    if not first["errors"] and not repeat["errors"]:
        if first["digest"] != repeat["digest"]:
            repeat["errors"].append(
                "two runs of the same input produced different digests"
            )

    print(f"workload {args.workload}: {why}")
    print("provenance " + json.dumps(_provenance(args.workload, args.seed, seeds)))
    computed = {}
    if args.trace:
        if not traced["errors"]:
            computed = dict(traced["layers"])
            if not plain["errors"]:
                computed["trace.overhead"] = (
                    traced["host"]["wall_s"] / plain["host"]["wall_s"] - 1.0
                )
            traced["errors"] += bypass_errors(args.workload, computed)
            if computed["trace.coverage"] < 0.95:
                traced["errors"].append(
                    f"layer self times cover {computed['trace.coverage']:.1%} "
                    "of traced wall, under 95 %"
                )
            spans = sorted(
                traced["spans"].items(), key=lambda kv: -kv[1][1]
            )[:12]
            print("top spans by self time (calls, self s, total s):")
            for name, (calls, self_s, total_s) in spans:
                print(f"  {name:34s} {calls:>10d} {self_s:10.3f} {total_s:10.3f}")
    else:
        good = [r for r in runs if not r["errors"]]
        if good:
            computed, samples, host = _end_to_end(good)
            print("samples " + json.dumps(samples))
            print(
                "host seconds (medians, before the host-speed correction) "
                + json.dumps(host)
            )
    if all(not r["errors"] for r in runs):
        unlisted = sorted(set(computed) ^ {m["name"] for m in listed})
        if unlisted:
            runs[-1]["errors"].append(
                "computed metrics differ from BENCHMARK.json: " + ", ".join(unlisted)
            )
    metrics = {m["name"]: computed.get(m["name"], 0.0) for m in listed}
    for m in listed:
        print(f"  {m['name']:36s} {metrics[m['name']]:>16.6g} {m['unit']}")
    errors = [error for r in runs for error in r["errors"]]
    for error in errors:
        print(f"FAILED: {error}")
    print(f"elapsed {time.perf_counter() - started:.1f} s")
    failed = sum(1 for r in runs if r["errors"])
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(runs),
                "failed": failed,
                "metrics": {
                    m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
