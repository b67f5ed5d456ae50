"""Independent oracles for the test suite, built on networkx.

Everything here recomputes results from first principles (per-pair BFS,
brute-force subset enumeration) so the package's distribution-based fast
paths are checked against a second route.  ``backtrack_canonical_form`` is
the general-purpose canonical form the package used before its leaf-peeling
class key, kept here as the isomorphism oracle for it, and
``bfs_major_vertex_report`` is the distance-based terminal rule the package
used before its pendant-path walk.  ``prufer_leaf_order`` is the textbook
least-leaf Prufer decode, for the tree sweep's own decoders.
``bfs_distance_distribution`` is the
per-source BFS distribution the package used before its leaf-peeling kernel.
``egf_distance_totals`` counts the pairs at each distance over all labeled
unicyclic graphs by generating functions alone, with no graph built.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import networkx as nx

from wienerbounds.graphs import DistanceDistribution, Graph, MajorVertexReport, bfs_distances


def to_nx(g: Graph) -> nx.Graph:
    ng = nx.Graph()
    ng.add_nodes_from(range(g.n))
    ng.add_edges_from(g.edges())
    return ng


def pair_distances(g: Graph) -> dict[tuple[int, int], int]:
    """Exact distance of every unordered pair, via networkx BFS."""
    ng = to_nx(g)
    out = {}
    for u in range(g.n):
        lengths = nx.single_source_shortest_path_length(ng, u)
        for v in range(u + 1, g.n):
            out[(u, v)] = lengths[v]
    return out


def bfs_distance_distribution(g: Graph) -> DistanceDistribution:
    """Oracle: the distance distribution from one BFS per vertex, the way
    the package built it before its leaf-peeling kernel.  Raises
    DisconnectedGraphError, through ``bfs_distances`` from vertex 0, on a
    disconnected graph."""
    counts: dict[int, int] = {}
    for s in range(g.n):
        dist = bfs_distances(g, s)
        for v in range(s + 1, g.n):
            d = dist[v]
            counts[d] = counts.get(d, 0) + 1
    return DistanceDistribution(counts, g.n)


def distance_counts(g: Graph) -> dict[int, int]:
    counts: dict[int, int] = {}
    for d in pair_distances(g).values():
        counts[d] = counts.get(d, 0) + 1
    return counts


def weighted_index(g: Graph, h) -> object:
    """Per-pair evaluation of sum h(d(u, v)); independent of the package's
    distribution-based path."""
    total = 0
    for d in pair_distances(g).values():
        total += h(d)
    return total


def power_index(g: Graph, exponent: int):
    total = 0
    for d in pair_distances(g).values():
        total += Fraction(d) ** exponent
    return total


def all_connected_n_edge_graphs(n: int) -> list[frozenset[tuple[int, int]]]:
    """Every connected labeled graph on n vertices with exactly n edges,
    by brute force over all n-subsets of the possible edges."""
    pairs = list(itertools.combinations(range(n), 2))
    out = []
    for subset in itertools.combinations(pairs, n):
        ng = nx.Graph()
        ng.add_nodes_from(range(n))
        ng.add_edges_from(subset)
        if nx.is_connected(ng):
            out.append(frozenset(subset))
    return out


def unicyclic_stream(n: int, shard: tuple[int, int] | None = None) -> list:
    """The labeled unicyclic stream from its definition: for each Prufer
    sequence in rank order (ranks i mod k under shard (i, k)) and each
    non-edge (u, v) in ascending order, keep tree + (u, v) iff (u, v) is the
    smallest edge of its cycle.  Returns the (adjacency bitmasks, cycle
    length) pairs in that order."""
    out = []
    seqs = itertools.product(range(n), repeat=n - 2)
    for rank, seq in enumerate(seqs):
        if shard is not None and rank % shard[1] != shard[0]:
            continue
        tree = nx.from_prufer_sequence(list(seq))
        for u, v in itertools.combinations(range(n), 2):
            if tree.has_edge(u, v):
                continue
            g = tree.copy()
            g.add_edge(u, v)
            cycle = [tuple(sorted(e)) for e in nx.find_cycle(g)]
            if min(cycle) == (u, v):
                masks = tuple(sum(1 << y for y in g[x]) for x in range(n))
                out.append((masks, len(cycle)))
    return out


def tadpole3_reduced(n: int, h) -> object:
    """The r = 3 tadpole closed form after simplification by hand:
    n h(1) + sum_{j=2}^{n-2} (n-j) h(j).  A second route to
    ``tadpole_closed_form(3, n, h)``, which is evaluated term by term."""
    return n * h(1) + sum((n - j) * h(j) for j in range(2, n - 1))


def egf_distance_totals(n: int) -> list[int]:
    """Unordered vertex pairs at each distance d = 0..n-2, summed over every
    labeled unicyclic graph on n vertices, as n!/2 [x^n](A_d + B_d).

    T(x) = x e^T(x) is the EGF of rooted labeled trees, T = sum k^(k-1) x^k/k!.
    A pair (u, v) at distance d >= 1 is read as its u-v path with a rooted
    tree hung on each vertex, and the cycle (the unicyclic EGF is
    1/2 sum_{r>=3} T^r / r; Flajolet and Sedgewick, Analytic Combinatorics,
    2009, section II.5).  Ordered pairs:

    - A_d = (d + 1) T^(d+3) / (2 (1 - T)^2): u and v in the tree of one
      cycle vertex c.  The d + 1 path vertices, the j >= 0 vertices from the
      path's top to c, and the other r - 1 >= 2 cycle vertices in one of two
      directions; d + 1 choices of the top.
    - B_d = sum_{g=1}^{d} (d - g + 1) (T^(d+g+1) / (1 - T) + [g >= 2] T^(d+g) / 2):
      u and v in the trees of two cycle vertices g steps apart, at depths
      summing to d - g.  The far arc has at least g interior vertices, or
      exactly g - 1 on the even cycle r = 2g, whose two arcs tie.
    """
    t = [Fraction(0)] + [Fraction(k ** (k - 1), math.factorial(k)) for k in range(1, n + 1)]

    def times(a: list, b: list) -> list:  # the product, up to x^n
        out = [Fraction(0)] * (n + 1)
        for i, x in enumerate(a):
            for j in range(n + 1 - i):
                out[i + j] += x * b[j]
        return out

    powers = [[Fraction(1)] + [Fraction(0)] * n]  # T^0 .. T^2n; T^m = O(x^m)
    for _ in range(2 * n):
        powers.append(times(powers[-1], t))
    geometric = [sum(p[i] for p in powers) for i in range(n + 1)]  # 1 / (1 - T)
    squared = times(geometric, geometric)  # 1 / (1 - T)^2

    def coef(m: int, series: list) -> Fraction:  # [x^n] T^m * series
        return sum(powers[m][i] * series[n - i] for i in range(n + 1))

    totals = [0]
    for d in range(1, n - 1):
        ordered = (d + 1) * coef(d + 3, squared) / 2 + sum(
            (d - g + 1) * (coef(d + g + 1, geometric) + (g >= 2) * powers[d + g][n] / 2)
            for g in range(1, d + 1)
        )
        unordered = math.factorial(n) * ordered / 2
        assert unordered.denominator == 1
        totals.append(int(unordered))
    return totals


def bfs_major_vertex_report(g: Graph) -> MajorVertexReport:
    """Oracle: the terminal rule from its definition.  An end-vertex u is
    terminal for major vertex v when u is strictly closer to v than to every
    other major vertex, with distances from one BFS per major vertex; a tie
    disqualifies u everywhere.  Raises DisconnectedGraphError, through
    ``bfs_distances``, on a disconnected graph with a major vertex."""
    majors = sorted(v for v in range(g.n) if len(g.adj[v]) >= 3)
    leaves = [v for v in range(g.n) if len(g.adj[v]) == 1]
    terminals: dict[int, list[int]] = {v: [] for v in majors}
    if majors:
        dist_to_major = {w: bfs_distances(g, w) for w in majors}
        for u in leaves:
            best = min(majors, key=lambda w: dist_to_major[w][u])
            d_best = dist_to_major[best][u]
            if all(dist_to_major[w][u] > d_best for w in majors if w != best):
                terminals[best].append(u)
    return MajorVertexReport(
        frozenset(majors),
        {v: tuple(ts) for v, ts in terminals.items()},
        frozenset(v for v, ts in terminals.items() if len(ts) > 1),
    )


def prufer_leaf_order(seq, n: int) -> list[int]:
    """Oracle: the leaves a least-leaf Prufer decode on n vertices takes, one
    per label of ``seq``, each the ``min`` of the current leaves.  The
    degrees are 1 plus the count in ``seq``, so ``seq`` may be a head, a
    sequence cut short, decoded on its own degrees."""
    left = [1] * n
    for s in seq:
        left[s] += 1
    order = []
    for s in seq:
        leaf = min(v for v in range(n) if left[v] == 1)
        order.append(leaf)
        left[leaf] = 0
        left[s] -= 1
    return order


# ---------------------------------------------------------------------------
# isomorphism oracle: backtracking canonical form


def _ranks(items: list) -> list[int]:
    order = {s: i for i, s in enumerate(sorted(set(items)))}
    return [order[s] for s in items]


def _refined_colors(g: Graph) -> list[int]:
    """Iterated neighbourhood refinement starting from degree ranks."""
    colors = _ranks([len(a) for a in g.adj])
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in g.adj[v])))
            for v in range(g.n)
        ]
        new = _ranks(sigs)
        if new == colors:
            return colors
        colors = new


def backtrack_canonical_form(g: Graph) -> bytes:
    """Oracle: canonical byte string by a general backtracking search, for any
    simple graph.  The package's leaf-peeling canonical_form is checked
    against it.  Edge list under the minimizing relabeling.

    Vertices are assigned positions color class by color class (classes from
    neighbourhood refinement, which any isomorphism preserves); within that
    constraint a backtracking search minimizes the adjacency bit string read
    position by position.  Two graphs get equal bytes iff they are isomorphic.
    """
    n = g.n
    if n == 1:
        return bytes([1])
    adjsets = [set(a) for a in g.adj]
    colors = _refined_colors(g)
    pos_color = sorted(colors)
    by_color: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)

    best: list[int] | None = None
    cur = [0] * (n - 1)
    assigned: list[int] = []
    used = [False] * n

    def dfs(p: int) -> None:
        nonlocal best
        if p == n:
            if best is None or cur < best:
                best = cur[:]
            return
        if p == 0:
            for v in by_color[pos_color[0]]:
                used[v] = True
                assigned.append(v)
                dfs(1)
                assigned.pop()
                used[v] = False
            return
        cands = []
        seen_twins = set()
        for v in by_color[pos_color[p]]:
            if used[v]:
                continue
            av = adjsets[v]
            chunk = 0
            for w in assigned:
                chunk = (chunk << 1) | (1 if w in av else 0)
            # vertices with identical neighbourhoods are swapped by an
            # automorphism, so one representative per chunk suffices
            twin_key = (chunk, frozenset(av))
            if twin_key in seen_twins:
                continue
            seen_twins.add(twin_key)
            cands.append((chunk, v))
        m = min(c for c, _ in cands)
        if best is not None:
            pre = cur[: p - 1]
            bpre = best[: p - 1]
            if pre > bpre or (pre == bpre and m > best[p - 1]):
                return
        cur[p - 1] = m
        for chunk, v in cands:
            if chunk != m:
                continue
            used[v] = True
            assigned.append(v)
            dfs(p + 1)
            assigned.pop()
            used[v] = False

    dfs(0)
    assert best is not None
    edges = []
    for p in range(1, n):
        chunk = best[p - 1]
        for i in range(p):
            if chunk >> (p - 1 - i) & 1:
                edges.append((i, p))
    edges.sort()
    out = bytearray([n])
    for a, b in edges:
        out.append(a)
        out.append(b)
    return bytes(out)
