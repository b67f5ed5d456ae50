"""The four benchmark workloads: inputs, untraced passes, checks and traced splits.

run.py imports this module only after putting the checkout's ``src/`` first
on ``sys.path``, so ``wienerbounds`` below is the code under test.  Every
per-layer number is measured from outside the package: by timing calls into
its public functions, by draining its generators on their own, or (for
graph_queries) by rebinding the names that ``extremal`` and ``indices``
import to timing wrappers for the length of one traced pass.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import resource
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

from wienerbounds import closed_forms, enumeration, extremal, graphs, indices
from wienerbounds.families import tadpole, triangle_star
from wienerbounds.weights import parse_weight_spec

perf = time.perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
JOBS = 2  # worker processes for the sharded scans: the container's nproc
PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024
RSS_POLL_S = 0.1


@dataclass
class Rep:
    """One untraced pass over a workload body."""

    wall_s: float
    checks: list  # (name, passed) pairs
    output: object  # what the checks read; the self-check reads it again
    peak_rss_kb: int
    latencies_s: list = field(default_factory=list)


@dataclass
class Traced:
    """One traced pass: per-layer metrics, its own checks and its wall time."""

    metrics: dict
    checks: list
    wall_s: float


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def tree_rss_kb(root: int) -> int:
    """Summed resident set of ``root`` and all its descendants, from /proc."""
    try:
        names = os.listdir("/proc")
    except OSError:
        return 0
    children: dict[int, list[int]] = {}
    rss: dict[int, int] = {}
    for name in names:
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as fh:
                stat = fh.read()
        except OSError:
            continue  # the process ended between listdir and open
        # fields after the parenthesised command name: state ppid ... rss is 22nd
        fields = stat[stat.rindex(b")") + 2 :].split()
        pid = int(name)
        children.setdefault(int(fields[1]), []).append(pid)
        rss[pid] = int(fields[21]) * PAGE_KB
    total = 0
    stack = [root]
    while stack:
        pid = stack.pop()
        total += rss.get(pid, 0)
        stack.extend(children.get(pid, ()))
    return total


class RssSampler(threading.Thread):
    """Polls the summed RSS of a child process tree until stopped."""

    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self.pid = pid
        self.peak_kb = 0
        self._done = threading.Event()

    def run(self) -> None:
        while True:
            self.peak_kb = max(self.peak_kb, tree_rss_kb(self.pid))
            if self._done.wait(RSS_POLL_S):
                return

    def stop(self) -> None:
        self._done.set()
        self.join()


def run_child(argv: list[str], sample_rss: bool = False) -> tuple[float, int, str, int]:
    """Run ``argv`` from the checkout root and wait for it.

    Returns wall seconds, exit code, stdout and the peak RSS in KiB of the
    child's process tree (its own peak from wait4 when not sampling).
    """
    start = perf()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(), cwd=HERE.parent)
    sampler = RssSampler(proc.pid) if sample_rss else None
    try:
        if sampler:
            sampler.start()
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf() - start
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        if sampler:
            sampler.stop()
        proc.stdout.close()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    peak = max(sampler.peak_kb if sampler else 0, usage.ru_maxrss)
    return wall, code, out.decode(), peak


def self_peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def failed_checks(names) -> list:
    return [(name, False) for name in names]


def report_exception(workload: str) -> None:
    print(f"{workload}: operation raised", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def parse_json(text: str) -> dict:
    try:
        value = json.loads(text)
    except ValueError:
        return {}
    return value if isinstance(value, dict) else {}


class Workload:
    """Interface shared by the workloads; see README.md for why each exists."""

    name: str
    items: int  # work items in one pass, for items_per_s
    expected: dict
    corrupt_key: str  # expected value the harness self-check alters

    def setup_argv(self, seed: int) -> list[str]:
        """Interpreter arguments that repeat this workload's set-up and exit."""
        return [str(HERE / "run.py"), "--workload", self.name, "--seed", str(seed), "--setup-only"]

    def prepare(self, seed: int):
        return None

    def run(self, inputs) -> Rep:
        raise NotImplementedError

    def check(self, output, expected: dict) -> list:
        raise NotImplementedError

    def traced(self, inputs, rep: Rep) -> Traced:
        raise NotImplementedError


class CliWorkload(Workload):
    """A CLI subprocess; set-up is a bare import of the CLI module."""

    argv: list[str]
    check_keys: tuple[str, ...]

    def setup_argv(self, seed: int) -> list[str]:
        return ["-c", "import wienerbounds.cli"]

    def run(self, inputs) -> Rep:
        wall, code, out, peak = run_child([sys.executable, *self.argv], sample_rss=True)
        output = (code, out)
        return Rep(wall, self.check(output, self.expected), output, peak)

    def check(self, output, expected: dict) -> list:
        code, text = output
        report = parse_json(text)
        checks = [("returncode", code == expected["returncode"])]
        checks += [(key, report.get(key) == expected[key]) for key in self.check_keys]
        return checks


class VerifyLabeled(CliWorkload):
    name = "verify_labeled"
    n = 7
    items = 68_295  # labeled unicyclic graphs on 7 vertices, OEIS A057500
    argv = ["-m", "wienerbounds", "verify", "--n", "7", "--weight", "power:1", "--jobs", str(JOBS)]
    check_keys = ("all_ok", "graphs_scanned", "cycle_length_sum", "min_value", "max_value")
    expected = {
        "returncode": 0,
        "all_ok": True,
        "graphs_scanned": 68_295,
        # sum over cycle lengths k of k * N_k, where N_k = C(n,k) (k-1)!/2 * k n^(n-k-1)
        # graphs have a k-cycle (N_n = (n-1)!/2)
        "cycle_length_sum": 252_105,
        "min_value": "35",  # triangle_star(7): 7 h(1) + 14 h(2)
        "max_value": "51",  # tadpole(3, 7): (n^3 - 7n + 12) / 6
    }
    corrupt_key = "graphs_scanned"

    def traced(self, inputs, rep: Rep) -> Traced:
        n, k = self.n, JOBS
        h = parse_weight_spec("power:1")
        start = perf()
        stream_s = 0.0
        stream_graphs = 0
        for i in range(k):
            t = perf()
            for _ in enumeration.iter_unicyclic_edge_masks(n, (i, k)):
                stream_graphs += 1
            stream_s += perf() - t
        parts, busy = [], []
        for i in range(k):
            t = perf()
            parts.append(extremal.scan_extremes(n, [h], (i, k)))
            busy.append(perf() - t)
        # what Pool.map pickles back from the workers: computed, not measured
        ipc_bytes = sum(len(pickle.dumps(p)) for p in parts)
        t = perf()
        merged = parts[0]
        for part in parts[1:]:
            merged = merged.merged(part)
        merge_s = perf() - t
        sc = merged.per_weight[0]
        t = perf()
        min_forms = {enumeration.canonical_form(enumeration.graph_from_masks(n, m)) for m in sc.argmin_masks}
        max_forms = {enumeration.canonical_form(enumeration.graph_from_masks(n, m)) for m in sc.argmax_masks}
        canon_s = perf() - t
        canon_calls = len(sc.argmin_masks) + len(sc.argmax_masks)
        t = perf()
        parallel = extremal.scan_extremes_parallel(n, [h], k)
        parallel_s = perf() - t
        wall = perf() - start

        report = {
            "all_ok": min_forms == {enumeration.canonical_form(triangle_star(n))}
            and max_forms == {enumeration.canonical_form(tadpole(3, n))},
            "graphs_scanned": merged.graphs_scanned,
            "cycle_length_sum": merged.cycle_length_sum,
            "min_value": str(sc.min_value),
            "max_value": str(sc.max_value),
        }
        checks = self.check((0, json.dumps(report)), self.expected)
        checks += [
            ("stream_graphs", stream_graphs == self.expected["graphs_scanned"]),
            ("parallel_equals_serial_shards", parallel == merged),
        ]
        shard_graphs = [p.graphs_scanned for p in parts]
        metrics = {
            "enumeration.stream_s": stream_s,
            "enumeration.stream_graphs": stream_graphs,
            "extremal.shard_busy_s": sum(busy),
            "extremal.shard_busy_max_s": max(busy),
            "extremal.distance_fold_s": sum(busy) - stream_s,
            "extremal.shard_graphs_max_ratio": max(shard_graphs) * k / sum(shard_graphs),
            "extremal.parallel_scan_s": parallel_s,
            "extremal.parallel_efficiency": sum(busy) / (k * parallel_s),
            "extremal.ipc_bytes": ipc_bytes,
            "extremal.argset_masks": canon_calls,
            "extremal.merge_s": merge_s,
            "enumeration.canon_calls": canon_calls,
            "enumeration.canon_s": canon_s,
            "enumeration.canon_useful_ratio": (len(min_forms) + len(max_forms)) / canon_calls,
            "cli.overhead_s": rep.wall_s - parallel_s - canon_s,
        }
        return Traced(metrics, checks, wall)


class ClassesUnlabeled(CliWorkload):
    name = "classes_unlabeled"
    n = 6
    items = 3_660  # labeled graphs canonicalised, OEIS A057500
    argv = ["-m", "wienerbounds", "enumerate", "--unlabeled", "--n", "6", "--count-only"]
    check_keys = ("unlabeled_count",)
    expected = {"returncode": 0, "unlabeled_count": 13}  # OEIS A001429
    corrupt_key = "unlabeled_count"

    def traced(self, inputs, rep: Rep) -> Traced:
        n = self.n
        start = perf()
        t = perf()
        stream_graphs = sum(1 for _ in enumeration.iter_unicyclic_edge_masks(n))
        stream_s = perf() - t
        t = perf()
        for _ in enumeration.enumerate_unicyclic_labeled(n):
            pass
        drain_s = perf() - t
        canon_s = 0.0
        canon_calls = 0
        forms = set()
        for g in enumeration.enumerate_unicyclic_labeled(n):
            t = perf()
            form = enumeration.canonical_form(g)
            canon_s += perf() - t
            canon_calls += 1
            forms.add(form)
        wall = perf() - start

        checks = self.check((0, json.dumps({"unlabeled_count": len(forms)})), self.expected)
        checks += [
            ("stream_graphs", stream_graphs == self.items),
            ("canon_calls", canon_calls == self.items),
        ]
        metrics = {
            "enumeration.stream_s": stream_s,
            "enumeration.stream_graphs": stream_graphs,
            "enumeration.graph_build_s": drain_s - stream_s,
            "enumeration.canon_calls": canon_calls,
            "enumeration.canon_s": canon_s,
            "enumeration.canon_useful_ratio": len(forms) / canon_calls,
        }
        return Traced(metrics, checks, wall)


class TreeSweep(Workload):
    name = "tree_sweep"
    n = 7
    items = 7**5  # labeled trees on 7 vertices, n^(n-2)
    expected = {"trees": 7**5, "paths": math.factorial(7) // 2, "violations": 0}
    corrupt_key = "trees"

    def check(self, output, expected: dict) -> list:
        if output is None:
            return failed_checks(expected)
        return [
            ("trees", output.trees == expected["trees"]),
            ("paths", output.paths == expected["paths"]),
            ("violations", len(output.violations) == expected["violations"]),
        ]

    def run(self, inputs) -> Rep:
        start = perf()
        try:
            scan = enumeration.scan_tree_path_property(self.n)
        except Exception:
            report_exception(self.name)
            scan = None
        checks = self.check(scan, self.expected)
        return Rep(perf() - start, checks, scan, self_peak_rss_kb())

    def traced(self, inputs, rep: Rep) -> Traced:
        k = JOBS
        start = perf()
        parts = [enumeration.scan_tree_path_property(self.n, (i, k)) for i in range(k)]
        wall = perf() - start
        merged = parts[0]
        for part in parts[1:]:
            merged = merged.merged(part)
        metrics = {
            "enumeration.tree_sweep_s": rep.wall_s,
            "enumeration.trees": merged.trees,
            "enumeration.shard_rank_overhead": wall / rep.wall_s,
        }
        return Traced(metrics, self.check(merged, self.expected), wall)


class Probe:
    """Call count and inclusive seconds of one rebound function."""

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0

    def wrap(self, fn):
        def timed(*args, **kwargs):
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += perf() - start
                self.calls += 1

        return timed


# probe name -> the (module, attribute) bindings it replaces while tracing
GRAPH_QUERY_PROBES = {
    "generalized_wiener": ((indices, "generalized_wiener"), (extremal, "generalized_wiener")),
    "distance_distribution": ((indices, "distance_distribution"),),
    "major_vertex_report": ((extremal, "major_vertex_report"),),
    "find_cycle": ((extremal, "find_cycle"),),
    "moves": ((extremal, "apply_terminal_merge"), (extremal, "apply_tail_rebalance")),
    "closed_forms": ((closed_forms, "tadpole_closed_form"),),
}
GRAPH_QUERY_CHECKS = ("unicyclic", "degrees", "closed_form", "bound", "equality_iff_tadpole3")


class GraphQueries(Workload):
    name = "graph_queries"
    n = 40
    items = 32  # ops per pass: local search, five named indices and a closed form each
    expected = {
        "n": 40,
        "max_degree": 3,
        "max_degree3_vertices": 1,
        "bound": 10_622,  # tadpole_closed_form(3, 40) = (n^3 - 7n + 12) / 6
    }
    corrupt_key = "bound"

    def prepare(self, seed: int):
        rng = Random(seed)
        h = parse_weight_spec("power:1")
        return [enumeration.random_unicyclic(self.n, rng) for _ in range(self.items)], h

    @staticmethod
    def op(g, h):
        """One per-graph request, as the CLI serves it in three calls.

        ``search`` runs local_search_max, ``compute --all-named`` gives the
        five named indices of its result, and ``closed-form --family tadpole``
        evaluates the closed form of the tadpole it reached.
        """
        result = extremal.local_search_max(g, h)
        t = perf()
        named = (
            indices.wiener(result),
            indices.hyper_wiener(result),
            indices.harary(result),
            indices.reciprocal_wiener(result),
            indices.tsz_index(result),
        )
        named_s = perf() - t
        r = graphs.find_cycle(result).length
        closed = closed_forms.tadpole_closed_form(r, result.n, h).value
        return (result, r, named[0].value, closed), named_s

    def check(self, output, expected: dict) -> list:
        h = parse_weight_spec("power:1")
        bound = closed_forms.tadpole_closed_form(3, expected["n"], h).value
        checks = [("bound_closed_form", bound == expected["bound"])]
        for outcome in output:
            if outcome is None:
                checks += failed_checks(GRAPH_QUERY_CHECKS)
                continue
            result, r, w, closed = outcome
            degrees = [result.degree(v) for v in range(result.n)]
            unicyclic = result.n == expected["n"] and graphs.is_unicyclic(result)
            # a unicyclic graph with one degree-3 vertex and none higher is a
            # cycle with one pendant path: isomorphic to tadpole(r, n), and to
            # tadpole(3, n) iff r = 3
            shape_ok = (
                max(degrees) <= expected["max_degree"]
                and degrees.count(3) <= expected["max_degree3_vertices"]
            )
            checks += [
                ("unicyclic", unicyclic),
                ("degrees", shape_ok),
                ("closed_form", unicyclic and shape_ok and w == closed),
                ("bound", w <= expected["bound"]),
                ("equality_iff_tadpole3", (w == expected["bound"]) == (shape_ok and r == 3)),
            ]
        return checks

    def _pass(self, inputs) -> tuple[list, list, float]:
        graphs_in, h = inputs
        outputs, latencies = [], []
        named_s = 0.0
        for g in graphs_in:
            t = perf()
            try:
                outcome, named = self.op(g, h)
            except Exception:
                report_exception(self.name)
                outputs.append(None)
                continue
            latencies.append(perf() - t)
            named_s += named
            outputs.append(outcome)
        return outputs, latencies, named_s

    def run(self, inputs) -> Rep:
        start = perf()
        outputs, latencies, _ = self._pass(inputs)
        checks = self.check(outputs, self.expected)
        return Rep(perf() - start, checks, outputs, self_peak_rss_kb(), latencies)

    def traced(self, inputs, rep: Rep) -> Traced:
        probes = {name: Probe() for name in GRAPH_QUERY_PROBES}
        saved = []
        try:
            for name, bindings in GRAPH_QUERY_PROBES.items():
                for module, attr in bindings:
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, probes[name].wrap(original))
            start = perf()
            outputs, _, named_s = self._pass(inputs)
            wall = perf() - start
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)
        checks = self.check(outputs, self.expected)
        metrics = {
            "indices.generalized_wiener_calls": probes["generalized_wiener"].calls,
            "indices.generalized_wiener_s": probes["generalized_wiener"].seconds,
            "indices.named_s": named_s,
            "graphs.distance_distribution_calls": probes["distance_distribution"].calls,
            "graphs.major_vertex_report_s": probes["major_vertex_report"].seconds,
            "graphs.find_cycle_s": probes["find_cycle"].seconds,
            "extremal.moves": probes["moves"].calls,
            "extremal.move_s": probes["moves"].seconds,
            "closed_forms.s": probes["closed_forms"].seconds,
        }
        return Traced(metrics, checks, wall)


WORKLOADS = {w.name: w for w in (VerifyLabeled(), ClassesUnlabeled(), TreeSweep(), GraphQueries())}
