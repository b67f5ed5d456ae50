"""Command-line interface.

Subcommands: compute, construct, closed-form, enumerate, verify, lemmas,
search.  Exit codes: 0 success (and, for verify/lemmas, every claim
holding), 1 claim violation (the counterexample is part of the report),
2 usage or input error, 141 stdout closed early (128 + SIGPIPE, nothing
printed).  Data goes to stdout, diagnostics to stderr.
Exact integer values serialize as decimal strings in JSON so
consumers never round them through floats.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from typing import Sequence

from . import enumeration, extremal, families
from .closed_forms import (
    cycle_closed_form,
    path_closed_form,
    tadpole_closed_form,
    triangle_star_closed_form,
)
from .graphs import Graph, GraphError, distance_distribution, format_edge_list, parse_edge_list
from .indices import IndexValue, generalized_wiener, index_from_distribution, named_indices
from .weights import PowerWeight, parse_weight_spec

USAGE_ERROR = 2
CLAIM_VIOLATION = 1

# Closed forms are summed term by term: the tadpole at r = n/2 has about
# n^2/8 terms, about a second at n = 4,000.  The dominance sweep evaluates
# every tadpole 4 <= r <= n <= nmax, about two seconds at nmax = 100.
CLOSED_FORM_MAX_N = 4000
LEMMAS_MAX_NMAX = 100
# An exact power:E term is an integer of about E log2(n) bits.  At both
# limits above, power:50 takes under twice as long as power:1, and power:100
# over three times as long.  Every subcommand that takes a weight holds to it.
MAX_EXACT_EXPONENT = 50


def _emit_json(payload) -> None:
    # a float that overflowed to inf or nan is no JSON: ValueError, exit 2
    print(json.dumps(payload, sort_keys=True, allow_nan=False))


def _emit_rows(rows: list[dict], fmt: str, header: Sequence[str] = ()) -> None:
    """A JSON list, or one line per row; csv first names the fields, taken from
    the first row or, when there is none, from ``header``."""
    if fmt == "json":
        _emit_json(rows)
        return
    for row in rows:  # refused as JSON refuses it: exit 2 before any row is written
        for x in row.values():
            if isinstance(x, float) and not math.isfinite(x):
                raise ValueError(f"float value {x} is out of range")
    out = csv.writer(sys.stdout, delimiter="," if fmt == "csv" else "\t", lineterminator="\n")
    if fmt == "csv":
        out.writerow(rows[0] if rows else header)
    out.writerows(row.values() for row in rows)  # null is an empty field


def _emit_record(payload: dict, fmt: str) -> None:
    """One record: a JSON object, or a one-row table under csv and plain."""
    if fmt == "json":
        _emit_json(payload)
    else:
        _emit_rows([payload], fmt)


def _index_row(iv: IndexValue) -> dict:
    return {"index_name": iv.index_name, "value": iv.to_json_value(), "mode": iv.mode}


def _load_graph(path: str) -> Graph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_edge_list(fh.read())
    except OSError as exc:
        raise GraphError(f"cannot read {path}: {exc}") from exc


def _parse_weight(spec: str):
    """The weight of ``spec``, refusing an exact exponent above
    MAX_EXACT_EXPONENT before any term, scan or distance is computed."""
    h = parse_weight_spec(spec)
    if isinstance(h, PowerWeight) and h.exact and h.exponent > MAX_EXACT_EXPONENT:
        raise ValueError(
            f"{h.description} exceeds the exact exponent limit {MAX_EXACT_EXPONENT}"
        )
    return h


def _parse_shard(text: str) -> tuple[int, int]:
    try:
        i, k = text.split("/")
        return int(i), int(k)
    except ValueError:
        raise ValueError(f"bad shard spec {text!r}, expected i/k") from None


def _cmd_compute(args) -> int:
    if args.q is not None and not args.all_named:
        raise ValueError("--q applies only with --all-named")
    g = _load_graph(args.graph)
    h = _parse_weight(args.weight) if args.weight else None
    if h is None and not args.all_named:
        raise ValueError("nothing to compute: pass --weight and/or --all-named")
    dist = distance_distribution(g)  # one distribution serves every row
    values = [index_from_distribution(dist, h)] if h is not None else []
    if args.all_named:
        values += named_indices(dist, args.q)
    _emit_rows([_index_row(iv) for iv in values], args.format)
    return 0


def _cmd_construct(args) -> int:
    if args.r is not None and args.family != "grn":
        raise ValueError(f"--r applies only to the grn family, not {args.family}")
    if args.r is None and args.family == "grn":
        raise ValueError("--r is required for the grn family")
    if args.family == "grn":
        g = families.tadpole(args.r, args.n)
    else:
        named = {"path": families.path, "cycle": families.cycle, "star": families.star,
                 "jn": families.triangle_star}
        g = named[args.family](args.n)
    text = format_edge_list(g)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return 0


def _cmd_closed_form(args) -> int:
    if args.n > CLOSED_FORM_MAX_N:
        raise ValueError(f"--n {args.n} exceeds the closed-form limit {CLOSED_FORM_MAX_N}")
    if args.r is not None and args.formula != "F":
        raise ValueError(f"--r applies only to formula F, not {args.formula}")
    if args.r is None and args.formula == "F":
        raise ValueError("--r is required for formula F")
    h = _parse_weight(args.weight)
    if args.formula == "F":
        iv = tadpole_closed_form(args.r, args.n, h)
    else:
        named = {"path": path_closed_form, "cycle": cycle_closed_form, "jn": triangle_star_closed_form}
        iv = named[args.formula](args.n, h)
    _emit_rows([_index_row(iv)], args.format)
    return 0


def _cmd_enumerate(args) -> int:
    shard = _parse_shard(args.shard) if args.shard else None
    if args.unlabeled and shard is not None:
        raise ValueError("--unlabeled takes no --shard: a shard is a set of Prufer ranks")
    if args.count_only:
        if args.unlabeled:
            count = sum(1 for _ in enumeration.iter_unicyclic_classes(args.n))
            payload = {"n": args.n, "unlabeled_count": count}
        else:
            count = 0
            cyclen = 0
            for _masks, r in enumeration.iter_unicyclic_edge_masks(args.n, shard):
                count += 1
                cyclen += r
            payload = {"n": args.n, "labeled_count": count, "cycle_length_sum": cyclen}
        _emit_record(payload, args.format)
        return 0
    stream = (
        enumeration.enumerate_unicyclic_unlabeled(args.n)
        if args.unlabeled
        else enumeration.enumerate_unicyclic_labeled(args.n, shard)
    )
    for g in stream:
        edges = list(g.edges())
        if args.format == "json":
            _emit_json({"edges": edges})
        else:
            print(" ".join(f"{u}-{v}" for u, v in edges))
    return 0


def _report_payload(report: extremal.VerificationReport, fmt: str) -> dict:
    """The verify record: a shard's partial scan, or a whole scan and its claims."""
    summary, sc = report.summary, report.scan
    lo, hi = report.min_value, report.max_value
    head = {"n": summary.n, "weight": report.weight.description}
    totals = {
        "graphs_scanned": summary.graphs_scanned,
        "cycle_length_sum": summary.cycle_length_sum,
    }
    counts = {"argmin_count": sc.argmin_count, "argmax_count": sc.argmax_count}
    if report.shard is not None:
        return {
            **head,
            "shard": "/".join(map(str, report.shard)),
            "partial": True,
            **totals,
            **counts,
            # an empty shard has no extreme
            "min_value": None if lo is None else lo.to_json_value(),
            "max_value": None if hi is None else hi.to_json_value(),
        }
    examples = {}
    for key, side in (("argmin_example", sc.lo), ("argmax_example", sc.hi)):
        edges = enumeration.graph_from_masks(summary.n, side.example).edges()
        examples[key] = (
            [list(e) for e in edges] if fmt == "json" else " ".join(f"{u}-{v}" for u, v in edges)
        )
    payload = {
        **head,
        "monotonicity": report.monotonicity.value,
        **totals,
        "min_value": lo.to_json_value(),
        "max_value": hi.to_json_value(),
        "mode": lo.mode,
        **counts,
        "argmin_classes": len(sc.lo.classes),
        "argmax_classes": len(sc.hi.classes),
        **examples,
        "applicable": report.applicable,
    }
    if report.applicable:
        payload.update(
            {
                "expected_min": report.expected_min.to_json_value(),
                "expected_max": report.expected_max.to_json_value(),
                "min_value_ok": report.min_value_ok,
                "min_unique_ok": report.min_unique_ok,
                "max_value_ok": report.max_value_ok,
                "max_unique_ok": report.max_unique_ok,
                "all_ok": report.claims_ok(),
            }
        )
    return payload


def _cmd_verify(args) -> int:
    given = [flag for flag, v in (("--jobs", args.jobs), ("--tol", args.tol)) if v is not None]
    if args.shard and given:
        raise ValueError(
            f"--shard takes no {' or '.join(given)}: a shard is one serial partial scan "
            "with no claim to check"
        )
    jobs = 1 if args.jobs is None else args.jobs
    tol = 1e-9 if args.tol is None else args.tol
    cpus = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"--jobs {jobs}: need at least one worker")
    if jobs > cpus:
        raise ValueError(f"--jobs {jobs} exceeds the {cpus} CPUs of this machine")
    if not 0 <= tol < math.inf:  # also refuses nan
        raise ValueError(f"--tol {tol}: a tolerance must be finite and not negative")
    h = _parse_weight(args.weight)
    shard = _parse_shard(args.shard) if args.shard else None
    report = extremal.verify_theorem(args.n, h, jobs=jobs, rel_tol=tol, shard=shard)
    _emit_record(_report_payload(report, args.format), args.format)
    ok = report.claims_ok()
    return 0 if ok is None or ok else CLAIM_VIOLATION


def _cmd_lemmas(args) -> int:
    if args.nmax > LEMMAS_MAX_NMAX:
        raise ValueError(f"--nmax {args.nmax} exceeds the sweep limit {LEMMAS_MAX_NMAX}")
    h = _parse_weight(args.weight)
    results = extremal.check_f3_dominance(args.nmax, h)
    violations = [(r, n) for r, n, ok in results if not ok]
    payload = {
        "nmax": args.nmax,
        "weight": h.description,
        "pairs_checked": len(results),
        "violations": [list(v) for v in violations],
    }
    if args.format == "json":
        _emit_json(payload)
    else:
        rows = [{"r": r, "n": n, "ok": ok} for r, n, ok in results]
        _emit_rows(rows, args.format, header=("r", "n", "ok"))
    return CLAIM_VIOLATION if violations else 0


def _cmd_search(args) -> int:
    if args.format != "json":
        raise ValueError(f"search nests its moves, so it prints only json, not {args.format}")
    g = _load_graph(args.graph)
    h = _parse_weight(args.weight)
    moves: list[dict] = []

    def on_move(move, before, after):
        moves.append(
            {
                "kind": move.kind,
                "vertices": list(move.vertices),
                "value_before": str(before),
                "value_after": str(after),
            }
        )

    start_value = generalized_wiener(g, h)
    payload = {"weight": h.description, "initial_value": start_value.to_json_value()}
    try:
        result = extremal.local_search_max(g, h, on_move=on_move)
    except extremal.ProofMoveError as exc:  # a move that fails is a claim violation
        _emit_json({**payload, "moves": moves, "violation": str(exc)})
        return CLAIM_VIOLATION
    final_value = generalized_wiener(result, h)
    _emit_json(
        {
            **payload,
            "final_value": final_value.to_json_value(),
            "moves": moves,
            "final_edges": [list(e) for e in result.edges()],
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wienerbounds",
        description="Weighted Wiener indices on graphs and exhaustive extremal checks "
        "over unicyclic graphs.",
    )
    parser.add_argument(
        "--format", choices=("plain", "json", "csv"), default="json", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute indices of a graph from an edge-list file")
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--weight", help="weight spec, e.g. power:1, q1:0.5, table:1,2,3")
    p.add_argument("--all-named", action="store_true", help="also emit every named index")
    p.add_argument("--q", type=float, help="q for the q-variants under --all-named")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("construct", help="write a named family member as an edge list")
    p.add_argument("--family", required=True, choices=("path", "cycle", "star", "jn", "grn"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, help="cycle length for the grn family")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("closed-form", help="evaluate a closed-form index value")
    p.add_argument("--formula", required=True, choices=("path", "cycle", "jn", "F"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, help="cycle length for formula F")
    p.add_argument("--weight", required=True)
    p.set_defaults(func=_cmd_closed_form)

    p = sub.add_parser("enumerate", help="stream labeled (or unlabeled) unicyclic graphs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--unlabeled", action="store_true", help="one graph per isomorphism class")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--shard", help="process only Prufer ranks == i mod k, as i/k")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="exhaustively verify the extremal bounds for one n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--weight", required=True)
    p.add_argument(
        "--shard", help="emit a mergeable partial scan of the classes with index == i mod k, as i/k"
    )
    p.add_argument("--jobs", type=int, help="worker processes for the scan (default 1)")
    p.add_argument("--tol", type=float, help="relative tolerance for float weights (default 1e-9)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("lemmas", help="sweep the closed-form dominance comparisons")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--weight", required=True)
    p.set_defaults(func=_cmd_lemmas)

    p = sub.add_parser("search", help="maximize an index by branch-relocation local search")
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--weight", required=True)
    p.set_defaults(func=_cmd_search)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return USAGE_ERROR if exc.code not in (0,) else 0
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the exit-time flush
        return code
    except ValueError as exc:  # GraphError, WeightError and EnumerationCapError among them
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OverflowError as exc:  # a float weight beyond the range of a double
        print(f"error: float weight overflow: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BrokenPipeError:
        # the reader went away: what is still buffered goes to devnull, and
        # the exit code is the shell's for a writer killed by SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + 13


if __name__ == "__main__":
    sys.exit(main())
