"""Exhaustive verification of the extremal bounds on unicyclic graphs.

For a strictly monotone weight function the triangle-with-pendant-stars
family and the short-cycle tadpole family are the two extremes of the
weighted Wiener index over all unicyclic graphs with n >= 6 vertices
(which one is min and which is max depends on the direction of
monotonicity), each attained by exactly one isomorphism class.  This
module checks those claims by scanning every isomorphism class once, each
standing for its n!/|Aut| labeled copies, whole or by shards, with the scan
over every labeled graph kept as the oracle that gives an equal summary.
It also sweeps the closed-form dominance comparisons and implements the
branch-relocation moves that drive a maximizing local search.
"""

from __future__ import annotations

import math
import operator
from functools import reduce
from typing import Callable, NamedTuple, Sequence

from .closed_forms import tadpole_closed_form, triangle_star_closed_form
from .enumeration import (
    MAX_CLASS_N,
    check_n,
    class_key,
    iter_unicyclic_classes,
    iter_unicyclic_edge_masks,
    representative_masks,
)
from .families import tadpole, triangle_star
from .graphs import (
    DisconnectedGraphError,
    Graph,
    GraphError,
    NotUnicyclicError,
    _pendant_walk,
    bfs_distances,
    find_cycle,
    is_connected,
    is_unicyclic,
    major_vertex_report,
)
from .indices import IndexValue, generalized_wiener, index_value
from .records import Record
from .weights import Monotonicity, WeightFunction, classify_monotonicity


class NonMonotoneWeightError(ValueError):
    """The operation needs a strictly monotone weight function."""


class ProofMoveError(ValueError):
    """A branch-relocation move was applied outside its preconditions."""


# ---------------------------------------------------------------------------
# exhaustive scan


class Extreme(Record):
    """One side of a scan: the extreme value so far, the ``class_key`` of each
    attaining isomorphism class, and the number of attaining labeled graphs.

    ``better(a, b)`` is true when value a beats value b: operator.lt on the
    min side, operator.gt on the max side.  A tie is a set union, so no field
    depends on the sharding, and the labeled and class scans give equal sides.
    """

    _fields = ("better", "value", "classes", "count")

    def __init__(
        self,
        better: Callable[[object, object], bool],
        value: object = None,
        classes: set | None = None,
        count: int = 0,
    ):
        self.better = better
        self.value = value
        self.classes = set() if classes is None else classes
        self.count = count

    def offer(self, value, classes: set, count: int) -> None:
        """Fold in ``count`` labeled graphs of one value, of the classes keyed ``classes``."""
        current = self.value
        if current is None or self.better(value, current):
            self.value = value
            self.classes = set(classes)
            self.count = count
        elif value == current:
            self.classes |= classes
            self.count += count

    def merged(self, other: "Extreme") -> "Extreme":
        out = Extreme(self.better, self.value, set(self.classes), self.count)
        if other.count:
            out.offer(other.value, other.classes, other.count)
        return out


class WeightScan(Record):
    """Per-weight aggregate of one exhaustive scan (mergeable across shards)."""

    _fields = ("description", "lo", "hi")

    def __init__(self, description: str, lo: Extreme | None = None, hi: Extreme | None = None):
        self.description = description
        self.lo = Extreme(operator.lt) if lo is None else lo  # each scan its own sides
        self.hi = Extreme(operator.gt) if hi is None else hi

    # the flat names that scan callers read
    min_value = property(lambda self: self.lo.value)
    max_value = property(lambda self: self.hi.value)
    # the representative of each attaining class, in class-key order
    argmin_masks = property(lambda self: list(map(representative_masks, sorted(self.lo.classes))))
    argmax_masks = property(lambda self: list(map(representative_masks, sorted(self.hi.classes))))
    argmin_count = property(lambda self: self.lo.count)
    argmax_count = property(lambda self: self.hi.count)

    def merged(self, other: "WeightScan") -> "WeightScan":
        if other.description != self.description:
            raise ValueError("cannot merge scans of different weights")
        return WeightScan(self.description, self.lo.merged(other.lo), self.hi.merged(other.hi))


class ScanSummary(NamedTuple):
    """Whole-scan aggregate: totals plus one WeightScan per weight function."""

    n: int
    graphs_scanned: int
    cycle_length_sum: int
    per_weight: list[WeightScan]

    def merged(self, other: "ScanSummary") -> "ScanSummary":
        if other.n != self.n:
            raise ValueError("cannot merge scans for different n")
        return ScanSummary(
            self.n,
            self.graphs_scanned + other.graphs_scanned,
            self.cycle_length_sum + other.cycle_length_sum,
            [a.merged(b) for a, b in zip(self.per_weight, other.per_weight)],
        )


def _weight_tables(n: int, weights: Sequence[WeightFunction]) -> list[list]:
    """Evaluate each weight at 1..n-2, every unicyclic distance (``_strict_monotonicity``)."""
    return [[0] + [h(k) for k in range(1, n - 1)] for h in weights]


def _offer(tables: list, scans: list[WeightScan], counts, copies: int, key) -> None:
    """Fold each weight over the unordered pair counts left to right from
    int 0, the one rule both scans share so that their float values agree to
    the bit (``reduce``, as from Python 3.12 ``sum`` compensates rounding; a
    zero count adds a zero, as every weight value is finite), and offer the value
    to both sides of its scan for ``copies`` labeled graphs.  ``key()`` gives
    the class key; it is called only when a side ties or beats its running
    extreme, and at most once."""
    found = None
    for tab, sc in zip(tables, scans):
        val = reduce(operator.add, map(operator.mul, counts, tab), 0)
        for side in (sc.lo, sc.hi):
            if side.value is None or not side.better(side.value, val):
                found = found or {key()}
                side.offer(val, found, copies)


def scan_extremes(
    n: int,
    weights: Sequence[WeightFunction],
    shard: tuple[int, int] | None = None,
) -> ScanSummary:
    """Scan every labeled unicyclic graph on n vertices, tracking min/max of
    each weighted index and the classes of the attaining labeled graphs (a
    graph is keyed only when its value ties or beats a running extreme).
    This is the labeled oracle: its summary equals ``scan_classes``'s."""
    stream = iter_unicyclic_edge_masks(n, shard)  # refuses a bad n or shard on the call
    tables = _weight_tables(n, weights)
    scans = [WeightScan(h.description) for h in weights]
    graphs = 0
    cyclen_sum = 0
    counts = [0] * n
    for masks, cyclen in stream:
        graphs += 1
        cyclen_sum += cyclen
        for d in range(n):
            counts[d] = 0
        for s in range(n):
            seen = frontier = 1 << s
            above = -2 << s  # each pair counted once, from its smaller end
            d = 0
            while True:
                m = 0
                while frontier:
                    b = frontier & -frontier
                    m |= masks[b.bit_length() - 1]
                    frontier ^= b
                m &= ~seen
                if not m:
                    break
                seen |= m
                d += 1
                counts[d] += (m & above).bit_count()
                frontier = m
        _offer(tables, scans, counts, 1, lambda: class_key(n, masks))
    return ScanSummary(n, graphs, cyclen_sum, scans)


def scan_classes(
    n: int,
    weights: Sequence[WeightFunction],
    shard: tuple[int, int] | None = None,
) -> ScanSummary:
    """The ``scan_extremes`` summary from one pass over the isomorphism
    classes: each class is offered once, counting for its n!/|Aut| labeled
    copies.  The weight is folded over d = 1, 2, ... as ``scan_extremes``
    folds it, so float extremes are the same to the bit.  Shard (i, k) takes
    the classes i, i + k, i + 2k, ... of the class stream."""
    classes = iter_unicyclic_classes(n, shard)  # refuses a bad n or shard on the call
    tables = _weight_tables(n, weights)
    scans = [WeightScan(h.description) for h in weights]
    orbit = math.factorial(n)
    graphs = 0
    cyclen_sum = 0
    for r, key, aut, counts in classes:
        copies = orbit // aut
        graphs += copies
        cyclen_sum += r * copies
        _offer(tables, scans, counts, copies, lambda: key)
    return ScanSummary(n, graphs, cyclen_sum, scans)


# Below this n the whole class scan takes no longer than starting the worker
# processes, so verify runs it in process whatever ``jobs`` asks for.  On a
# 2-CPU container, one worker against two: n = 11 0.021 s vs 0.025 s,
# n = 12 0.057 s vs 0.059 s, n = 13 0.163 s vs 0.134 s.
CLASS_FANOUT_MIN_N = 13


def _fan_out(scan, n: int, weights: Sequence[WeightFunction], jobs: int) -> ScanSummary:
    """Run ``scan`` (``scan_extremes`` or ``scan_classes``) over the shards
    i/jobs in worker processes and merge the partial results."""
    if jobs <= 1:
        return scan(n, weights)
    import multiprocessing  # here, not at the top: most runs never fork

    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(jobs) as pool:
        parts = pool.starmap(scan, [(n, list(weights), (i, jobs)) for i in range(jobs)])
    return reduce(ScanSummary.merged, parts)


def scan_extremes_parallel(
    n: int, weights: Sequence[WeightFunction], jobs: int
) -> ScanSummary:
    """The labeled oracle ``scan_extremes``, fanned out over worker processes."""
    check_n(n)
    return _fan_out(scan_extremes, n, weights, jobs)


# ---------------------------------------------------------------------------
# bound verification


class VerificationReport(NamedTuple):
    """Outcome of one min/max verification for one weight: the scan's totals
    and its WeightScan, and the bound claims checked against them.  The
    claims apply to a whole scan at n >= 6; a shard's report is a partial
    scan with no claim checked."""

    weight: WeightFunction
    monotonicity: Monotonicity
    summary: ScanSummary  # graphs_scanned and cycle_length_sum of the scan
    scan: WeightScan
    shard: tuple[int, int] | None = None
    expected_min: IndexValue | None = None
    expected_max: IndexValue | None = None
    min_value_ok: bool | None = None
    min_unique_ok: bool | None = None
    max_value_ok: bool | None = None
    max_unique_ok: bool | None = None

    # the extremes as index values (None on an empty shard)
    min_value = property(lambda self: self._index(self.scan.min_value, "min"))
    max_value = property(lambda self: self._index(self.scan.max_value, "max"))

    def _index(self, value, side: str) -> IndexValue | None:
        if value is None:
            return None
        return index_value(value, self.weight, f"{side}[{self.weight.description}]")

    @property
    def applicable(self) -> bool:
        """Whether the bound claims were checked."""
        return self.expected_min is not None

    def claims_ok(self) -> bool | None:
        """True/False when the bound claims apply, else None."""
        if not self.applicable:
            return None
        return bool(
            self.min_value_ok
            and self.min_unique_ok
            and self.max_value_ok
            and self.max_unique_ok
        )


def _values_match(a, b, rel_tol: float) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(float(a), float(b), rel_tol=rel_tol, abs_tol=1e-12)
    return a == b


def _attained_by_class_only(n: int, side: Extreme, expected: Graph, aut: int) -> bool:
    """Whether the graphs attaining ``side`` are exactly the labeled copies of
    ``expected``, whose automorphism group has order ``aut``.

    The class keys say that ``expected`` is the only attaining class; the
    orbit count n!/aut, kept apart from the keys, checks it by a second route.
    """
    return side.count == math.factorial(n) // aut and side.classes == {
        class_key(n, expected.adjacency_masks())
    }


def _strict_monotonicity(h: WeightFunction, n: int) -> Monotonicity:
    """The direction of ``h`` on 1..max(2, n - 2), refusing an h not strictly monotone
    there: a shortest path in a unicyclic graph on n vertices misses a cycle vertex."""
    upto = max(2, n - 2)
    mono = classify_monotonicity(h, upto)
    if mono is Monotonicity.NEITHER:
        raise NonMonotoneWeightError(
            f"weight {h.description!r} is not strictly monotone on 1..{upto}; "
            "the extremal characterization does not apply"
        )
    return mono


def _verify(
    n: int,
    weights: Sequence[WeightFunction],
    jobs: int,
    rel_tol: float,
    shard: tuple[int, int] | None,
) -> list[VerificationReport]:
    check_n(n, MAX_CLASS_N, "class-engine")
    monotonicities = [_strict_monotonicity(h, n) for h in weights]
    if shard is None:
        summary = _fan_out(scan_classes, n, weights, jobs if n >= CLASS_FANOUT_MIN_N else 1)
    else:
        summary = scan_classes(n, weights, shard)
    reports = []
    for h, mono, sc in zip(weights, monotonicities, summary.per_weight):
        claims: dict = {}
        if shard is None and n >= 6:
            # (closed form, graph, |Aut|): Aut(J_n) swaps the two bare triangle
            # vertices and permutes the n-3 pendants; Aut(F_3,n) only swaps
            star = (triangle_star_closed_form(n, h), triangle_star(n), 2 * math.factorial(n - 3))
            tad = (tadpole_closed_form(3, n, h), tadpole(3, n), 2)
            increasing = mono is Monotonicity.STRICTLY_INCREASING
            (min_cf, min_g, min_aut), (max_cf, max_g, max_aut) = (
                (star, tad) if increasing else (tad, star)
            )
            claims = dict(
                expected_min=min_cf,
                expected_max=max_cf,
                min_value_ok=_values_match(sc.min_value, min_cf.value, rel_tol),
                min_unique_ok=_attained_by_class_only(n, sc.lo, min_g, min_aut),
                max_value_ok=_values_match(sc.max_value, max_cf.value, rel_tol),
                max_unique_ok=_attained_by_class_only(n, sc.hi, max_g, max_aut),
            )
        reports.append(VerificationReport(h, mono, summary, sc, shard, **claims))
    return reports


def verify_theorem_many(
    n: int,
    weights: Sequence[WeightFunction],
    jobs: int = 1,
    rel_tol: float = 1e-9,
) -> list[VerificationReport]:
    """Verify the extremal bounds for several weights over one scan of the
    isomorphism classes, fanned out over ``jobs`` worker processes from
    n = CLASS_FANOUT_MIN_N on (a smaller scan runs in process)."""
    return _verify(n, weights, jobs, rel_tol, None)


def verify_theorem(
    n: int,
    h: WeightFunction,
    jobs: int = 1,
    rel_tol: float = 1e-9,
    shard: tuple[int, int] | None = None,
) -> VerificationReport:
    """Exhaustively verify the two-sided bound and its uniqueness for one
    weight.  With ``shard`` (i, k), scan only the classes i, i + k, ... in
    process and check no claim: the report is a mergeable partial scan."""
    return _verify(n, [h], jobs, rel_tol, shard)[0]


# ---------------------------------------------------------------------------
# closed-form dominance sweep


def check_f3_dominance(
    n_max: int, h: WeightFunction
) -> list[tuple[int, int, bool]]:
    """Compare the r=3 tadpole closed form against every longer cycle length.

    For strictly increasing h, ok means the r=3 value is strictly greater
    than the value at r; for strictly decreasing h the comparison reverses.
    The comparison is strict, so an exact tie returns ok = False.  (4, 4) is
    the known tie: C_4 and the paw (the triangle with one pendant vertex)
    share the distance distribution {1: 4, 2: 2}.  Returns (r, n, ok) for
    every pair 4 <= r <= n <= n_max, in (n, r) order.  The weight is checked
    on 1..max(2, n_max - 2), what the closed forms read, even with no pair.
    """
    increasing = _strict_monotonicity(h, n_max) is Monotonicity.STRICTLY_INCREASING
    results = []
    for n in range(4, n_max + 1):
        f3 = tadpole_closed_form(3, n, h).value
        for r in range(4, n + 1):
            fr = tadpole_closed_form(r, n, h).value
            ok = (f3 > fr) if increasing else (f3 < fr)
            results.append((r, n, ok))
    return results


# ---------------------------------------------------------------------------
# branch-relocation moves


class ProofMove(NamedTuple):
    """One applied relocation move, for tracing a local search."""

    kind: str  # "terminal-merge" or "tail-rebalance"
    vertices: tuple[int, ...]


def _relocate(g: Graph, path: list[int], dest: int) -> Graph:
    """Detach the pendant path ``path`` (anchor first, leaf last) from its
    anchor and re-attach it beyond ``dest``.  The detached labels are reused
    in ascending order along the new path, so the result is deterministic
    and has the same vertex and edge counts.

    The result is built from copies of the input's rows, not re-validated
    edge by edge: the move can make a loop or a duplicate edge only if
    ``dest`` is on the path or a detached vertex keeps an edge off it, and
    both raise ProofMoveError."""
    if dest in path:
        raise ProofMoveError(f"destination {dest} lies on the moved path")
    rows = [list(row) for row in g.adj]
    for a, b in zip(path, path[1:]):
        rows[a].remove(b)
        rows[b].remove(a)
    attach = dest
    for v in sorted(path[1:]):
        if rows[v]:
            raise ProofMoveError(f"vertex {v} of the moved path has an edge off it")
        rows[attach].append(v)
        rows[v].append(attach)
        attach = v
    return Graph(g.n, tuple(tuple(sorted(row)) for row in rows), g.edge_count)


def apply_terminal_merge(g: Graph, w: int, u1: int, u2: int) -> Graph:
    """Move the pendant branch from major vertex ``w`` to its terminal
    end-vertex ``u1`` so that it extends the path beyond terminal ``u2``.

    Preserves the vertex count, and unicyclicity when the input is unicyclic.
    """
    if not 0 <= w < g.n:
        raise ProofMoveError(f"vertex {w} out of range for n={g.n}")
    if g.degree(w) < 3:
        raise ProofMoveError(f"vertex {w} has degree {g.degree(w)} < 3")
    if u1 == u2:
        raise ProofMoveError("the two terminal vertices must differ")
    if not is_connected(g):
        raise DisconnectedGraphError("terminal merge needs a connected graph")
    paths = []
    for u in (u1, u2):  # terminal: an end-vertex whose pendant walk ends at w
        leaf = 0 <= u < g.n and g.degree(u) == 1
        if not (leaf and (walk := _pendant_walk(g, u, g.adj[u][0]))[-1] == w):
            raise ProofMoveError(f"vertex {u} is not a terminal vertex of {w}")
        paths.append(walk[::-1])
    return _relocate(g, paths[0], u2)


def _cycle_tail(g: Graph, v: int, cycle: set[int]) -> list[int]:
    """The pendant path hanging at cycle vertex ``v`` (degree 3), v first."""
    off = [y for y in g.adj[v] if y not in cycle]
    if g.degree(v) != 3 or len(off) != 1:
        raise ProofMoveError(f"vertex {v} must be a cycle vertex of degree 3 with one tail")
    tail = _pendant_walk(g, v, off[0])
    if g.degree(tail[-1]) != 1:
        raise ProofMoveError(f"tail at vertex {v} is not a path")
    return tail


def apply_tail_rebalance(g: Graph, v1: int, v2: int) -> Graph:
    """Relocation step for two degree-3 cycle vertices with path tails.

    Order the anchors by (D, l, label) into A < B, with l the tail length
    and D the plain distance sum from the anchor to every vertex off both
    tails; A's whole tail then moves beyond the leaf of B's.  The move is
    not proven weight-free: on some graphs the index drops under a strictly
    increasing weight (the 36-vertex residual pinned in ``test_extremal``),
    so callers check it.
    """
    try:
        cycle = set(find_cycle(g).vertices)
    except NotUnicyclicError:
        raise ProofMoveError("tail rebalance needs a unicyclic graph") from None
    if v1 not in cycle or v2 not in cycle or v1 == v2:
        raise ProofMoveError(f"vertices {v1}, {v2} must be distinct cycle vertices")
    tails = [_cycle_tail(g, v, cycle) for v in (v1, v2)]
    excluded = set(tails[0] + tails[1])

    def order(tail: list[int]) -> tuple[int, int, int]:
        dist = bfs_distances(g, tail[0])
        return sum(dist[x] for x in range(g.n) if x not in excluded), len(tail) - 1, tail[0]

    ta, tb = sorted(tails, key=order)
    return _relocate(g, ta, tb[-1])


def local_search_max(
    g0: Graph,
    h: WeightFunction,
    on_move: Callable[[ProofMove, object, object], None] | None = None,
) -> Graph:
    """Greedy maximization of the weighted index by branch relocation.

    Repeatedly applies the lexicographically smallest terminal merge while
    some major vertex keeps two or more terminal end-vertices, then merges
    cycle tails pairwise.  Every applied move must strictly increase the
    index (checked; a failure raises ProofMoveError).  The result is always
    a cycle with at most one pendant path.
    """
    if not is_unicyclic(g0):
        raise GraphError("local search needs a unicyclic graph")
    mono = _strict_monotonicity(h, g0.n)
    if mono is not Monotonicity.STRICTLY_INCREASING:
        raise NonMonotoneWeightError(
            f"local_search_max needs a strictly increasing weight, got {mono.value}"
        )
    g = g0
    value = generalized_wiener(g, h).value
    for _ in range(4 * g0.n * g0.n):  # safety bound; strict increase terminates it
        report = major_vertex_report(g)
        if report.multi_terminal_majors:
            w = min(report.multi_terminal_majors)
            u1, u2 = sorted(report.terminals[w])[:2]
            move = ProofMove("terminal-merge", (w, u1, u2))
            g_next = apply_terminal_merge(g, w, u1, u2)
        else:
            # no major is off the cycle or of degree > 3: the lowest major in such a
            # hanging part has only bare paths below it, so it would have two terminals
            if len(report.majors) < 2:
                return g
            v1, v2 = sorted(report.majors)[:2]
            move = ProofMove("tail-rebalance", (v1, v2))
            g_next = apply_tail_rebalance(g, v1, v2)
        value_next = generalized_wiener(g_next, h).value
        if not value_next > value:
            raise ProofMoveError(
                f"move {move.kind} at {move.vertices} did not increase the index "
                f"({value!r} -> {value_next!r})"
            )
        if on_move is not None:
            on_move(move, value, value_next)
        g, value = g_next, value_next
    raise ProofMoveError("local search exceeded its move budget")
