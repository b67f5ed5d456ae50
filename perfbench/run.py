#!/usr/bin/env python3
"""Benchmark for wienerbounds: end-to-end metrics, or a per-layer traced split.

Run from the root of a checkout (standard library only):

    python3 perfbench/run.py --workload verify_labeled --seed 1 --seconds 20 --trace 0

Workloads: verify_labeled, classes_unlabeled, tree_sweep and graph_queries
(README.md next to this file says why each exists).  A pass of any workload
takes about a second or less, so a run holds many.  With ``--trace 0`` the
passes repeat while another one fits in ``--seconds``, and the run reports
setup_s, wall_s (the fastest pass), items_per_s and peak_rss_mb.  With
``--trace 1`` each untraced pass is followed by one traced split, under the
same budget, and the run reports the median of each per-layer metric plus
the tracing overhead.  Every pass checks its output against known values.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it give the run context and a readable
table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 20  # half before the measured passes, half after
# counts that must repeat exactly between traced splits of the same inputs
EXACT_COUNTS = (
    "enumeration.stream_graphs",
    "enumeration.canon_calls",
    "extremal.argset_masks",
    "extremal.ipc_bytes",
    "enumeration.trees",
    "graphs.distance_distribution_calls",
    "indices.generalized_wiener_calls",
    "extremal.moves",
)


def git_revision() -> str:
    """HEAD of the checkout, or "none" when git cannot tell."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def load_units() -> tuple[dict, dict]:
    """End-to-end and per-layer metric units by name, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def self_check(workload, rep) -> bool:
    """The checks must catch a wrong expected value on a real output."""
    corrupted = dict(workload.expected)
    corrupted[workload.corrupt_key] += 1
    return any(not ok for _, ok in workload.check(rep.output, corrupted))


def probe_setup(workloads, workload, seed: int, count: int, checks: list) -> list[float]:
    """Wall times of ``count`` fresh processes that only do the set-up."""
    samples = []
    for _ in range(count):
        wall, code, _, _ = workloads.run_child([sys.executable, *workload.setup_argv(seed)])
        checks.append(("setup_probe", code == 0))
        samples.append(wall)
    return samples


def traced_split(workloads, workload, inputs, rep):
    """One traced split; an exception fails it instead of ending the run."""
    try:
        return workload.traced(inputs, rep)
    except Exception:
        workloads.report_exception(workload.name)
        return workloads.Traced({}, [("traced_split", False)], 0.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1, help="graph_queries input seed")
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "wienerbounds" / "__init__.py").is_file():
        print(f"error: no wienerbounds package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    import wienerbounds

    if not Path(wienerbounds.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported {wienerbounds.__file__}, not the checkout's", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        workload.prepare(args.seed)
        return 0
    end_to_end_units, per_layer_units = load_units()
    units = {**end_to_end_units, **per_layer_units}

    checks: list = []
    setup_samples = []
    if not args.trace:
        setup_samples += probe_setup(workloads, workload, args.seed, SETUP_PROBES // 2, checks)
    inputs = workload.prepare(args.seed)
    # one pass at least (with its traced split); more while another fits in the budget
    reps, traces = [], []
    start = time.perf_counter()
    while True:
        if reps:
            reps[-1].output = None  # only the last output is read again
        reps.append(workload.run(inputs))
        if args.trace:
            traces.append(traced_split(workloads, workload, inputs, reps[-1]))
        typical = statistics.median(rep.wall_s for rep in reps)
        if traces:
            typical += statistics.median(t.wall_s for t in traces)
        if time.perf_counter() - start + typical > args.seconds:
            break
    if not args.trace:
        setup_samples += probe_setup(workloads, workload, args.seed, SETUP_PROBES - SETUP_PROBES // 2, checks)
    for rep in reps:
        checks += rep.checks
    for t in traces:
        checks += t.checks
    if traces:
        checks += [(f"repeats:{name}", len({t.metrics.get(name) for t in traces}) == 1) for name in EXACT_COUNTS]
    if not self_check(workload, reps[-1]):
        print("error: the checks accepted a corrupted expected value", file=sys.stderr)
        return 1

    def metric(name, value):
        return {"value": value, "unit": units[name]}

    walls = [rep.wall_s for rep in reps]
    wall_s = min(walls)
    if traces:
        metrics = {name: metric(name, 0) for name in per_layer_units}
        for name in metrics:
            values = [t.metrics[name] for t in traces if name in t.metrics]
            if values:
                metrics[name] = metric(name, statistics.median_low(values))
        trace_wall = statistics.median(t.wall_s for t in traces)
        metrics["trace.wall_s"] = metric("trace.wall_s", trace_wall)
        metrics["trace.overhead_s"] = metric("trace.overhead_s", trace_wall - statistics.median(walls))
    else:
        metrics = {
            "setup_s": metric("setup_s", statistics.median(setup_samples)),
            "wall_s": metric("wall_s", wall_s),
            "items_per_s": metric("items_per_s", workload.items / wall_s),
            "peak_rss_mb": metric("peak_rss_mb", max(rep.peak_rss_kb for rep in reps) / 1024),
        }
    failed = sum(1 for _, ok in checks if not ok)
    # printed for reading, outside the metrics object that regressions are judged on
    shown = {
        "wall_median_s": {"value": statistics.median(walls), "unit": "s"},
        "fail_ratio": {"value": failed / len(checks), "unit": "ratio"},
    }
    latencies = [x for rep in reps for x in rep.latencies_s]
    if len(latencies) >= 1000:  # p99 then has at least 10 samples beyond it
        cuts = statistics.quantiles(latencies, n=100)
        shown["op_p50_ms"] = {"value": cuts[49] * 1e3, "unit": "ms"}
        shown["op_p99_ms"] = {"value": cuts[98] * 1e3, "unit": "ms"}
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "samples": {
            "setup_s": len(setup_samples),
            "passes": len(reps),
            "traced_splits": len(traces),
            "op_latency": len(latencies),
        },
    }

    print(json.dumps({"context": context}))
    for name, m in {**metrics, **shown}.items():
        print(f"{name:40s} {m['value']!r:>24} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(checks), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
