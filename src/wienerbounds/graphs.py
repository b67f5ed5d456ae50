"""Core graph type, shortest-path machinery and unicyclic structure analysis.

Graphs are finite, undirected and simple, with dense integer vertex labels
0..n-1. Connectivity is not enforced by the type: parsing accepts any simple
graph, and every distance-based operation rejects disconnected input with an
explicit error instead of returning a wrong answer.

The distance distribution needs no BFS from every vertex.  Peeling leaves
strips a connected graph to its core (its cycle, a tree centre, or the
2-core of a graph with several cycles), and each peeled vertex folds its
hanging tree into its parent as a packed depth polynomial, counting the
pairs it closes on the way.  Pairs across two core vertices' trees are the
product of their depth polynomials shifted by the core distance: a fold by
gap around a cycle, one BFS per core vertex for any other core.

A ``Graph`` never changes, so it derives each of these facts once, on first
use: its connectivity (one BFS from vertex 0), and its cycle and distance
distribution (one leaf peel between them).  A relocation move hands its
result a distribution derived from its input's (``_moved_distribution``:
the moved path's delta, from the bare walk and the BFS rows the move
already has), so that graph peels only if its cycle is asked for.  The
facts live outside the three fields, so they never enter ``==``, ``hash``,
``repr`` or a pickle, and the one cached distribution is handed to every
caller, read-only.
"""

from __future__ import annotations

import operator
import struct
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .records import FrozenRecord

# Vertex counts from outside input stop here, before any per-vertex
# allocation: a header "n 1000000000" or one huge label must not reserve 10^9
# adjacency sets, and every distance query is quadratic in n anyway.
MAX_VERTICES = 100_000


class GraphError(ValueError):
    """Invalid graph input or a graph that violates an operation's contract."""


class EdgeListParseError(GraphError):
    """Malformed edge-list text; carries the 1-based offending line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DisconnectedGraphError(GraphError):
    """A distance-based operation was applied to a disconnected graph."""


class NotUnicyclicError(GraphError):
    """The operation is only defined for connected graphs with one cycle."""


class Graph(FrozenRecord):
    """Immutable simple graph: vertex count plus sorted adjacency lists."""

    _fields = ("n", "adj", "edge_count")

    def __init__(self, n: int, adj: tuple[tuple[int, ...], ...], edge_count: int):
        self.__dict__.update(n=n, adj=adj, edge_count=edge_count)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from edges, rejecting loops, duplicates and n outside 1..MAX_VERTICES."""
        if not 1 <= n <= MAX_VERTICES:
            raise GraphError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")
        neighbours: list[set[int]] = [set() for _ in range(n)]
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u} is not allowed")
            if v in neighbours[u]:
                raise GraphError(f"duplicate edge ({u}, {v})")
            neighbours[u].add(v)
            neighbours[v].add(u)
            m += 1
        return cls(n, tuple(tuple(sorted(s)) for s in neighbours), m)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate edges as (u, v) with u < v, in sorted order."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def degree_sequence(self) -> tuple[int, ...]:
        """Degrees sorted in descending order."""
        return tuple(sorted((len(a) for a in self.adj), reverse=True))

    def adjacency_masks(self) -> list[int]:
        """Per-vertex neighbour sets as bitmasks (bit u of masks[v] set iff uv edge)."""
        masks = [0] * self.n
        for v in range(self.n):
            m = 0
            for u in self.adj[v]:
                m |= 1 << u
            masks[v] = m
        return masks

    def __reduce__(self):
        """Pickle the fields alone, never the facts derived from them."""
        return Graph, (self.n, self.adj, self.edge_count)

    # Facts derived on first use.  cached_property keeps each in the instance
    # __dict__, not in a field; a derivation that raises keeps nothing, so a bad
    # graph fails alike on every call.  Each fact is O(n) in size: the O(n^2)
    # adjacency bitmasks are rebuilt where a derivation needs them, and the
    # peeled pairs of the core go once the distribution is folded from them.

    @cached_property
    def _connected(self) -> bool:
        """Whether one BFS from vertex 0 reaches every vertex."""
        return len(_bfs(self.adj, 0)[1]) == self.n

    @cached_property
    def _core(self) -> tuple[int, list[tuple[int, int]], list[int]]:
        """``peel_leaves`` of this graph, which must be connected, and the
        ``cycle_order`` of its core when that core is one cycle (else []).
        Kept only until its last reader is done: ``_fold_distribution``, or
        ``_cycle`` on a graph whose distribution a move derived."""
        masks = self.adjacency_masks()
        alive, peeled = peel_leaves(masks)
        return alive, peeled, cycle_order(masks, alive) if self.edge_count == self.n else []

    @cached_property
    def _cycle(self) -> CycleInfo:
        if not is_unicyclic(self):
            raise NotUnicyclicError(
                f"graph with n={self.n}, m={self.edge_count} is not connected-unicyclic"
            )
        cycle = CycleInfo(tuple(self._core[2]))
        if "_distribution" in self.__dict__:  # no fold will come to read the peel
            del self.__dict__["_core"]
        return cycle

    @cached_property
    def _distribution(self) -> DistanceDistribution:
        return _fold_distribution(self)


class DistanceDistribution(FrozenRecord):
    """Counts of unordered vertex pairs at each distance k >= 1.

    For a connected graph the counts sum to n(n-1)/2 and counts[1] equals
    the number of edges.  ``counts`` is a read-only view of a private copy,
    so one distribution can be shared by every caller.
    """

    _fields = ("counts", "n")

    def __init__(self, counts: Mapping[int, int], n: int):
        self.__dict__.update(counts=MappingProxyType(dict(counts)), n=n)

    def __reduce__(self):
        return DistanceDistribution, (dict(self.counts), self.n)

    def __hash__(self) -> int:
        """By n and the counts, as ``==`` compares them: the read-only view does not hash."""
        return hash((frozenset(self.counts.items()), self.n))

    def total_pairs(self) -> int:
        return sum(self.counts.values())

    @property
    def max_distance(self) -> int:
        return max(self.counts) if self.counts else 0


class CycleInfo(NamedTuple):
    """The unique cycle of a unicyclic graph, in cyclic vertex order."""

    vertices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.vertices)


class MajorVertexReport(NamedTuple):
    """Major vertices (degree >= 3) and their terminal end-vertices.

    An end-vertex u is terminal for major vertex v when u is strictly closer
    to v than to every other major vertex: in a connected graph, when v is
    the first major vertex on u's pendant path.  ``multi_terminal_majors``
    holds the majors with terminal degree greater than one.
    """

    majors: frozenset[int]
    terminals: dict[int, tuple[int, ...]]
    multi_terminal_majors: frozenset[int]

    def terminal_degree(self, v: int) -> int:
        return len(self.terminals.get(v, ()))


def parse_edge_list(text: str) -> Graph:
    """Parse line-oriented edge-list text into a Graph.

    Each non-comment line is ``u v`` with non-negative integer labels; lines
    starting with ``#`` are comments.  An optional header line ``n <count>``
    fixes the vertex count (needed for isolated high-label vertices);
    otherwise the vertex count is one plus the largest label seen.
    Connectivity is not required here.
    """
    header_n: int | None = None
    edges: list[tuple[int, int]] = []
    max_label = -1
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "n":
            if len(parts) != 2 or header_n is not None:
                raise EdgeListParseError("bad or repeated header, expected 'n <count>'", line_no)
            try:
                header_n = int(parts[1])
            except ValueError:
                raise EdgeListParseError(f"bad vertex count {parts[1]!r}", line_no) from None
            if header_n < 1:
                raise EdgeListParseError(f"vertex count must be >= 1, got {header_n}", line_no)
            continue
        if len(parts) != 2:
            raise EdgeListParseError(f"expected 'u v', got {line!r}", line_no)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(f"non-integer vertex label in {line!r}", line_no) from None
        if u < 0 or v < 0:
            raise EdgeListParseError(f"negative vertex label in {line!r}", line_no)
        edges.append((u, v))
        max_label = max(max_label, u, v)
    if header_n is None and max_label < 0:
        raise GraphError("empty edge list and no 'n <count>' header")
    n = max_label + 1 if header_n is None else header_n
    if max_label >= n:
        raise GraphError(f"label {max_label} exceeds declared vertex count {n}")
    return Graph.from_edges(n, edges)


def format_edge_list(g: Graph) -> str:
    """Serialize a graph in the edge-list text format accepted by parse_edge_list."""
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _bfs(adj: Sequence[Sequence[int]], source: int) -> tuple[list[int], list[int]]:
    """Distances from ``source`` along the adjacency lists ``adj`` (-1 where
    unreached), and the reached vertices in BFS order."""
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = [source]
    for x in queue:  # the loop reads what it appends
        dx = dist[x] + 1
        for y in adj[x]:
            if dist[y] < 0:
                dist[y] = dx
                queue.append(y)
    return dist, queue


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Shortest-path distances from ``source`` to every vertex.

    Raises DisconnectedGraphError naming the least unreachable vertex.
    """
    if not (0 <= source < g.n):
        raise GraphError(f"vertex {source} out of range for n={g.n}")
    dist, queue = _bfs(g.adj, source)
    if len(queue) < g.n:
        raise DisconnectedGraphError(
            f"vertex {dist.index(-1)} is unreachable from vertex {source}"
        )
    return dist


def is_connected(g: Graph) -> bool:
    """Whether the graph is connected; one BFS from vertex 0 per graph."""
    return g._connected


def _field_width(n: int) -> int:
    """Bits per packed coefficient on n vertices: the fewest whole bytes holding n(n - 1),
    which bounds every folded value (depths <= n, pairs <= C(n, 2), twice that in the halved
    core sum) and leaves counts <= C(n, 2) a top bit."""
    return max(8, ((n * (n - 1)).bit_length() + 7) // 8 * 8)


# struct codes of the field sizes that one unpack reads whole, little-endian
_STRUCT_CODES = {2: "H", 4: "I", 8: "Q"}


def _coefficients(poly: int, count: int, width: int) -> tuple[int, ...]:
    """The one decoder: coefficients 0..count-1 of ``poly``, ``width`` bits apart, little-endian."""
    size = width // 8
    raw = poly.to_bytes(count * size, "little")
    if size == 1:
        return tuple(raw)
    if size in _STRUCT_CODES:
        return struct.unpack(f"<{count}{_STRUCT_CODES[size]}", raw)
    return tuple([int.from_bytes(raw[i : i + size], "little") for i in range(0, len(raw), size)])


def cycle_pairs(depths: list[int], width: int) -> int:
    """Pairs across the trees hung around a cycle, as a packed polynomial.

    ``depths[i]`` is the depth polynomial of the tree at the i-th cycle
    vertex, in cyclic order, with coefficients ``width`` bits apart.  Trees
    ``gap`` steps apart pair at depth a + depth b + gap, so each gap adds
    the products of the depth polynomials that far apart, shifted by gap.
    The ring starts just after the heaviest tree, so its large products
    come last in each gap's sum and the cost does not depend on where the
    ring was cut.
    """
    r = len(depths)
    start = depths.index(max(depths)) + 1
    ring = depths[start:] + depths[:start]
    ring += ring
    pairs = 0
    for gap in range(1, r // 2 + 1):
        span = gap if 2 * gap == r else r  # a half-way pair once, not twice
        across = sum(map(operator.mul, ring, ring[gap : gap + span]))  # stops after span
        pairs += across << (width * gap)
    return pairs


def distance_distribution(g: Graph) -> DistanceDistribution:
    """Unordered pair counts by distance; requires connectivity.  Derived once
    per graph (``_fold_distribution``), and every call returns that one
    read-only distribution."""
    return g._distribution


def _fold_distribution(g: Graph) -> DistanceDistribution:
    """The distance-distribution kernel behind ``distance_distribution``.

    ``peel_leaves`` strips the graph to its core, children first.  Each vertex
    carries the depth polynomial of the tree it holds so far, coefficient d counting
    its vertices d levels down, packed ``width`` bits apart (``_field_width``).
    Folding v into its parent p adds D[p] * (D[v] << width): a vertex a below v and
    one b below p are a + 1 + b apart.  Then D[p] += D[v] << width.  Core vertices i
    and j pair their trees as D[i] * D[j] shifted by d(i, j): by gap around a cycle
    (``cycle_pairs``), or else from one BFS over the core per core vertex (a tree
    centre, or a core with several cycles), which counts each pair from both ends
    and halves the sum.
    """
    n = g.n
    if not is_connected(g):
        bfs_distances(g, 0)  # raises DisconnectedGraphError naming the least unreached vertex
    width = _field_width(n)
    alive, peeled, cycle = g._core
    depths = [1] * n
    pairs = 0
    for v, p in peeled:
        below = depths[v] << width
        pairs += depths[p] * below
        depths[p] += below
    if g.edge_count == n:  # connected with one cycle: the core is that cycle
        pairs += cycle_pairs([depths[v] for v in cycle], width)
    else:  # a tree centre, or a core with several cycles
        inner = [[y for y in nbrs if alive >> y & 1] for nbrs in g.adj] if peeled else g.adj
        twice = [0] * n  # core pairs by distance, counted from both ends
        for i in range(n):
            if not alive >> i & 1:
                continue
            dist, queue = _bfs(inner, i)  # the core holds every shortest path between its vertices
            trees = [0] * (dist[queue[-1]] + 1)  # the core trees by distance from i
            for y in queue:
                trees[dist[y]] += depths[y]
            for d in range(1, len(trees)):
                twice[d] += depths[i] * trees[d]
        pairs += sum(c << (width * d) for d, c in enumerate(twice)) >> 1
    if g.edge_count == n:
        g._cycle  # derive the cycle from this peel before its pairs go
    g.__dict__.pop("_core", None)  # n peeled pairs that no later query reads
    return _unpacked(pairs, n, width)


def _unpacked(pairs: int, n: int, width: int) -> DistanceDistribution:
    """The distribution of the packed pair polynomial ``pairs`` on n vertices, up to its degree."""
    coefs = _coefficients(pairs, -(-pairs.bit_length() // width), width)
    return DistanceDistribution({d: c for d, c in enumerate(coefs) if c}, n)


def _moved_distribution(
    g: Graph, path: Sequence[int], onto: Sequence[int], dists: tuple[list[int], list[int]]
) -> DistanceDistribution:
    """The distance distribution of ``g`` once its pendant path ``path`` = (a, p_1, ..., p_k),
    anchor first and leaf last, is detached from a and hung beyond d, the last vertex of
    ``onto``, derived from ``g``'s own distribution.  ``g`` must be connected.

    Lemma.  Let R = G - {p_1, ..., p_k}, S = x + ... + x^k and D_R(v) = sum over y in R of
    x^d_R(v, y).  The moved graph G' has the distribution of G plus S * (D_R(d) - D_R(a)).

    Proof.  P is pendant, in G at a and in G' at d: its only edge into R is the one at p_1, and
    every p_i but the leaf p_k has degree 2.  So a walk between two vertices of R that enters P
    leaves it again where it came in, and no shortest one enters it: every pair within R is d_R
    apart in G and in G' alike, and R is connected because G is.  P is a path of k vertices in
    both graphs, whatever labels the moved path carries, so its own pairs keep their distances.
    A path from p_i into R runs through a in G and through d in G', so p_i is i + d_R(a, y) from
    y in R before the move and i + d_R(d, y) after it.  Only these pairs change: S * D_R(a)
    becomes S * D_R(d).

    ``onto`` = (c, v_1, ..., v_m = d) is a walk of G that meets P at most in c = a, with
    v_1..v_{m-1} of degree 2 and d a leaf when m > 0; [d], for any d off P, is one.  Every path
    from d to the rest of R runs through c, so D_R(d) = x^m * (D_R(c) - T) + T, with
    T = 1 + x + ... + x^m for the walk's own vertices.  ``dists`` holds the BFS distances over G
    from a and from c, one list twice when c = a.  The p_i are i steps beyond a and t + i beyond
    c, with t = d(c, a), so D_R(a) = D_G(a) - S and D_R(c) = D_G(c) - x^t * S.  The polynomials
    are packed ``_field_width`` apart.  The delta may have negative coefficients, but the sum is
    the packed distribution of G', whose counts lie in 0..C(n, 2), so it decodes exactly.
    """
    w = _field_width(g.n)
    from_a, from_c = dists
    c, m = onto[0], len(onto) - 1
    old = sum(count << w * k for k, count in distance_distribution(g).counts.items())
    dga = sum(1 << w * t for t in from_a)  # D_G(a)
    dgc = dga if c == path[0] else sum(1 << w * t for t in from_c)  # D_G(c)
    s = sum(1 << w * i for i in range(1, len(path)))
    bare = sum(1 << w * j for j in range(m + 1))  # T
    drd = (1 << w * m) * (dgc - (1 << w * from_a[c]) * s - bare) + bare  # D_R(d)
    return _unpacked(old + s * (drd - (dga - s)), g.n, w)


def is_unicyclic(g: Graph) -> bool:
    """Connected with exactly as many edges as vertices."""
    return g.edge_count == g.n and is_connected(g)


def peel_leaves(masks: Sequence[int]) -> tuple[int, list[tuple[int, int]]]:
    """Strip leaves layer by layer from a connected graph (adjacency
    bitmasks) down to its core: until no leaf is left (a cycle, or the
    2-core of a graph with several cycles) or, in a tree, until at most two
    vertices are (its centre).  Returns the core's bitmask and each peeled
    vertex's (vertex, parent) pair in peel order, children first."""
    n = len(masks)
    deg = [m.bit_count() for m in masks]
    tree = sum(deg) == 2 * n - 2
    alive = (1 << n) - 1
    peeled = []
    layer = [v for v in range(n) if deg[v] == 1]
    while layer and not (tree and alive.bit_count() <= 2):
        for v in layer:
            alive ^= 1 << v
        nxt = []
        for v in layer:
            p = (masks[v] & alive).bit_length() - 1
            peeled.append((v, p))
            deg[p] -= 1
            if deg[p] == 1:
                nxt.append(p)
        layer = nxt
    return alive, peeled


def cycle_order(masks: Sequence[int], alive: int) -> list[int]:
    """The vertices of ``alive``, a cycle in the graph of ``masks``, in
    cyclic order from the smallest label, stepping first toward its
    smaller neighbour on the cycle."""
    start = (alive & -alive).bit_length() - 1
    nbrs = masks[start] & alive
    order = [start, (nbrs & -nbrs).bit_length() - 1]
    for _ in range(alive.bit_count() - 2):  # each step leaves the previous vertex
        order.append((masks[order[-1]] & alive & ~(1 << order[-2])).bit_length() - 1)
    return order


def find_cycle(g: Graph) -> CycleInfo:
    """The unique cycle of a unicyclic graph: the core left by peel_leaves,
    in ``cycle_order``.  Derived once per graph."""
    return g._cycle


def _pendant_walk(g: Graph, start: int, step: int) -> list[int]:
    """The walk start, step, ... that goes on through degree-2 vertices and
    stops at the first vertex of another degree.  ``start`` must not have
    degree 2, so the walk ends, at the latest back at ``start``."""
    walk = [start, step]
    while len(g.adj[walk[-1]]) == 2:
        a, b = g.adj[walk[-1]]
        walk.append(a if b == walk[-2] else b)
    return walk


def major_vertex_report(g: Graph) -> MajorVertexReport:
    """Classify major vertices and their terminal end-vertices.  Every path out
    of an end-vertex starts along its pendant path, so the major vertex where
    that walk ends is strictly nearer to it than any other."""
    majors = [v for v in range(g.n) if len(g.adj[v]) >= 3]
    terminals: dict[int, list[int]] = {v: [] for v in majors}
    if majors:
        if not is_connected(g):
            raise DisconnectedGraphError("major vertex report needs a connected graph")
        for u in range(g.n):
            if len(g.adj[u]) == 1:
                terminals[_pendant_walk(g, u, g.adj[u][0])[-1]].append(u)
    return MajorVertexReport(
        frozenset(majors),
        {v: tuple(ts) for v, ts in terminals.items()},
        frozenset(v for v, ts in terminals.items() if len(ts) > 1),
    )


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """New graph with vertex v renamed to perm[v]; perm must be a permutation."""
    if sorted(perm) != list(range(g.n)):
        raise GraphError("perm is not a permutation of 0..n-1")
    return Graph.from_edges(g.n, ((perm[u], perm[v]) for u, v in g.edges()))
