"""Exhaustive generation of labeled trees, labeled unicyclic graphs, and
isomorphism classes of unicyclic graphs.

Labeled unicyclic graphs on n vertices are generated as (spanning tree, chord)
pairs: every labeled tree comes from its Prufer sequence, and its chords
are the (u, v), u < v, that close a cycle whose least vertex is u and in
which v is below u's other neighbour; each is reached directly from u's
tree edges.  That chord is the cycle's lexicographically smallest edge, so
each labeled unicyclic graph has exactly one such pair and the stream is
duplicate-free without keeping a global seen-set.

Sequence indices shard deterministically: shard (i, k) of the stream
processes Prufer ranks congruent to i mod k, shard (i, k) of the tree sweep
the heads (first n - 3 labels) congruent to i mod k, and per-shard
aggregates merge associatively.  The tree sweep decodes each head once,
and a tree only from where that decode takes its last label as a leaf.

The class engine builds each isomorphism class of unicyclic graphs once,
as rooted trees around a cycle, with its automorphism count and distance
counts, and never a labeled graph; its shard (i, k) takes the classes
congruent to i mod k.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from random import Random
from typing import Iterator, NamedTuple, Sequence

from .graphs import Graph, GraphError, cycle_order, cycle_pairs, is_connected, peel_leaves
from .graphs import _coefficients, _field_width

# The labeled scans stop here: n = 9 is 33,779,340 labeled unicyclic
# graphs (OEIS A057500) and n = 10 is 880,107,840, hours on two workers.
MAX_SCAN_N = 9


class EnumerationCapError(ValueError):
    """Requested n is above the limit of a scan: MAX_SCAN_N for the labeled
    scans, MAX_CLASS_N for the class engine."""


def check_n(n: int, cap: int = MAX_SCAN_N, engine: str = "enumeration", lo: int = 3) -> None:
    """Refuse an n that a scan does not take: below lo (3: no unicyclic
    graph) or above its cap, MAX_SCAN_N for the labeled scans and
    MAX_CLASS_N for the class engine.  Every scan entry point calls this
    first, before it builds a table, a tree or a worker."""
    if n < lo:
        raise ValueError(f"need n >= {lo}, got {n}")
    if n > cap:
        raise EnumerationCapError(f"n={n} exceeds the {engine} cap {cap}")


def check_shard(shard: tuple[int, int] | None) -> None:
    """Refuse a shard (i, k) outside 0 <= i < k; every sharded stream checks it on the call."""
    if shard is not None and not 0 <= shard[0] < shard[1]:
        raise ValueError(f"bad shard {shard[0]}/{shard[1]}: need 0 <= i < k")


def _decode_prufer(seq: Sequence[int], n: int) -> list[int]:
    """Linear-time Prufer decode of a labeled tree on n vertices into its
    adjacency bitmasks: bit v of masks[u] is set iff uv is an edge.

    ``left[v]`` starts at v's degree and counts v's edges not yet joined,
    so v is a leaf at 1.  ``prufer_to_tree``, ``random_unicyclic`` and
    ``_chord_closures`` call this.  The tree sweep decodes on its own, each
    head once in ``scan_tree_path_property`` and each tree from where it
    leaves that decode in ``_terminal_branches``: it reads only the order
    of the leaves, not masks.
    """
    left = [1] * n
    for s in seq:
        left[s] += 1
    masks = [0] * n
    ptr = 0
    while left[ptr] != 1:
        ptr += 1
    leaf = ptr
    for s in seq:
        masks[leaf] |= 1 << s
        masks[s] |= 1 << leaf
        left[s] -= 1
        left[leaf] -= 1
        if left[s] == 1 and s < ptr:
            leaf = s
        else:
            ptr += 1
            while left[ptr] != 1:
                ptr += 1
            leaf = ptr
    masks[leaf] |= 1 << (n - 1)
    masks[n - 1] |= 1 << leaf
    return masks


def prufer_to_tree(seq: Sequence[int]) -> Graph:
    """Decode a Prufer sequence of length n-2 into its labeled tree on n vertices."""
    seq = list(seq)
    n = len(seq) + 2
    for s in seq:
        if not (0 <= s < n):
            raise ValueError(f"label {s} out of range 0..{n - 1}")
    return graph_from_masks(n, _decode_prufer(seq, n))


def _prufer_sequences(n: int, shard: tuple[int, int] | None) -> Iterator[tuple[int, ...]]:
    """All n-vertex Prufer sequences in rank order, optionally one shard of them.

    product() is lexicographic, which is rank order, so shard (i, k) is the
    stride-k slice starting at rank i.
    """
    check_shard(shard)
    i, k = shard or (0, 1)
    return itertools.islice(itertools.product(range(n), repeat=n - 2), i, None, k)


def iter_unicyclic_edge_masks(
    n: int, shard: tuple[int, int] | None = None
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Stream (adjacency bitmasks, cycle length) for every labeled unicyclic graph.

    This is the raw engine behind enumerate_unicyclic_labeled; the bitmask
    form keeps exhaustive scans cheap.  A bad n or shard raises here, on the
    call, not on the first next().
    """
    check_n(n)
    return _chord_closures(n, _prufer_sequences(n, shard))


def _chord_closures(
    n: int, seqs: Iterator[tuple[int, ...]]
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Each tree of ``seqs`` plus each chord that is the smallest edge of its cycle.

    Chord (u, v), u < v, is that edge iff u is the least vertex of the cycle
    and v is below w, u's other cycle neighbour.  So for each tree edge
    (u, w) with u < w, a level walk from w through vertices above u reaches
    every such v: each v < w at tree distance d >= 2 from u closes a cycle
    of length d + 1.  Chords come in (u, v) order.
    """
    for seq in seqs:
        amask = _decode_prufer(seq, n)
        for u in range(n - 2):
            above = -2 << u  # the vertices u + 1 .. n - 1
            chords = []
            ws = amask[u] & above
            while ws:
                w = ws & -ws  # the bit of w
                ws ^= w
                level = seen = w
                d = 1  # tree distance from u
                while level:
                    hits = level & (w - 1)
                    while hits:
                        b = hits & -hits
                        chords.append((b.bit_length() - 1, d + 1))
                        hits ^= b
                    nxt = 0
                    while level:
                        b = level & -level
                        nxt |= amask[b.bit_length() - 1]
                        level ^= b
                    level = nxt & above & ~seen
                    seen |= level
                    d += 1
            chords.sort()
            for v, cyclen in chords:
                amask[u] |= 1 << v
                amask[v] |= 1 << u
                yield tuple(amask), cyclen
                amask[u] &= ~(1 << v)
                amask[v] &= ~(1 << u)


def graph_from_masks(n: int, masks: Sequence[int]) -> Graph:
    """Rebuild a Graph from adjacency bitmasks (trusted input, no validation)."""
    adj = []
    m_total = 0
    for v in range(n):
        m = masks[v]
        row = []
        while m:
            b = m & -m
            row.append(b.bit_length() - 1)
            m ^= b
        m_total += len(row)
        adj.append(tuple(row))
    return Graph(n, tuple(adj), m_total // 2)


def enumerate_unicyclic_labeled(
    n: int, shard: tuple[int, int] | None = None
) -> Iterator[Graph]:
    """Every labeled connected unicyclic graph on n vertices, exactly once."""
    return (graph_from_masks(n, masks) for masks, _cyclen in iter_unicyclic_edge_masks(n, shard))


def random_unicyclic(n: int, rng: Random) -> Graph:
    """A random labeled unicyclic graph: random Prufer tree plus a random chord.

    Sampling is easy to reproduce but not uniform over unicyclic graphs.
    """
    if n < 3:
        raise ValueError(f"unicyclic graphs need n >= 3, got {n}")
    seq = [rng.randrange(n) for _ in range(n - 2)]
    masks = _decode_prufer(seq, n)
    while True:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v and not masks[u] >> v & 1:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
            return graph_from_masks(n, masks)


# ---------------------------------------------------------------------------
# isomorphism classes


def class_key(n: int, masks: Sequence[int]) -> tuple[str, ...]:
    """Complete isomorphism invariant of a connected graph with at most one
    cycle, given by its adjacency bitmasks; other graphs get no defined key.

    ``peel_leaves`` strips leaves one layer at a time until a cycle (no leaf
    left) or a tree centre (at most two vertices) remains.  Each vertex gets
    the AHU code of the rooted tree it carries: "(" + its children's codes,
    sorted and joined, + ")".  A tree's key is its centre codes, sorted; a
    unicyclic graph's key is its cycle of codes read from the
    lexicographically least rotation or reflection.  Two graphs of the domain
    have equal keys iff they are isomorphic.
    """
    alive, peeled = peel_leaves(masks)
    kids: list[list[str]] = [[] for _ in range(n)]
    for v, p in peeled:
        kids[p].append("(" + "".join(sorted(kids[v])) + ")")
    code = {v: "(" + "".join(sorted(kids[v])) + ")" for v in range(n) if alive >> v & 1}
    if len(code) <= 2:  # a tree centre; a cycle keeps at least three vertices
        return tuple(sorted(code.values()))
    ring = [code[x] for x in cycle_order(masks, alive)]
    r = len(ring)
    first = min(ring)
    return tuple(
        min(s[i : i + r] for s in (ring * 2, ring[::-1] * 2) for i in range(r) if s[i] == first)
    )


def _key_edges(key: Sequence[str]) -> list[tuple[int, int]]:
    """The sorted edges of the fixed representative of the class keyed ``key``.

    It is decoded in preorder: the core (centre or cycle) takes labels
    0..c-1 in key order, then each subtree is labelled as its code is read.
    """
    c = len(key)
    edges = [(i, i + 1) for i in range(c - 1)]
    if c >= 3:
        edges.append((0, c - 1))
    label = c
    for i, code in enumerate(key):
        stack = [i]
        for ch in code[1:-1]:
            if ch == "(":
                edges.append((stack[-1], label))
                stack.append(label)
                label += 1
            else:
                stack.pop()
    edges.sort()
    return edges


def representative_masks(key: Sequence[str]) -> tuple[int, ...]:
    """Adjacency bitmasks of the ``canonical_form`` representative of the
    class keyed ``key`` (each code holds one "(" per vertex)."""
    masks = [0] * sum(code.count("(") for code in key)
    for a, b in _key_edges(key):
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    return tuple(masks)


def canonical_form(g: Graph) -> bytes:
    """Canonical byte string: n, then the sorted edge pairs of a fixed
    representative of the isomorphism class, decoded from ``class_key``.

    Two graphs get equal bytes iff they are isomorphic, and the bytes decode
    to an isomorphic copy.  The domain is the connected graphs with at most
    one cycle and at most 255 vertices (one byte per label); any other graph
    raises GraphError.
    """
    n = g.n
    if n > 255:
        raise GraphError(f"canonical_form writes labels as bytes: at most 255 vertices, got {n}")
    if g.edge_count not in (n - 1, n) or not is_connected(g):
        raise GraphError("canonical_form needs a connected graph with at most one cycle")
    out = bytearray([n])
    for a, b in _key_edges(class_key(n, g.adjacency_masks())):
        out.append(a)
        out.append(b)
    return bytes(out)


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    return canonical_form(g1) == canonical_form(g2)


# ---------------------------------------------------------------------------
# the class engine: each isomorphism class once, without a labeled graph

# The class engine stops here: n = 17 is 880,840 classes (OEIS A001429),
# verified under power:1 in 13-17 s on two workers and 16-21 s on one, at
# about 62 MB peak RSS on a 2-CPU machine (each worker repeats the whole
# walk); each further n has about three times as many.
MAX_CLASS_N = 17

class _RootedTree(NamedTuple):
    """One rooted tree: its size, AHU code, automorphism count, and as
    packed polynomials its vertices by depth and its vertex pairs by distance."""

    size: int
    code: str
    aut: int
    depths: int
    pairs: int


def _rooted_trees(max_size: int, width: int) -> list[_RootedTree]:
    """Every rooted tree on 1..max_size vertices, sorted by AHU code; fields ``width`` bits apart.

    A tree on m vertices is a root over a multiset of smaller trees whose
    sizes add up to m - 1.  Trees are built by size, so a multiset taken in
    non-increasing index order is taken in non-increasing (size, index)
    order, and is generated once.  |Aut| is the product of the children's
    counts times k! for each child that hangs k times.
    """
    trees: list[_RootedTree] = []
    ends = [0]  # trees[: ends[s]] are those on at most s vertices
    picks: list[int] = []

    def forests(room: int, top: int) -> Iterator[None]:
        """Fill ``picks`` with each multiset of trees below index ``top`` on ``room`` vertices."""
        if not room:
            yield
            return
        for j in range(min(top, ends[room]) - 1, -1, -1):
            picks.append(j)
            yield from forests(room - trees[j].size, j + 1)
            picks.pop()

    for m in range(1, max_size + 1):
        for _ in forests(m - 1, len(trees)):
            kids = [trees[j] for j in picks]
            below = sum(k.depths for k in kids)  # the kids' vertices, by depth below them
            across = (below * below - sum(k.depths * k.depths for k in kids)) >> 1
            aut = 1
            for j, same in itertools.groupby(picks):
                hung = len(list(same))
                aut *= trees[j].aut**hung * math.factorial(hung)
            code = "(" + "".join(sorted(k.code for k in kids)) + ")"
            pairs = sum(k.pairs for k in kids) + (below << width) + (across << 2 * width)
            trees.append(_RootedTree(m, code, aut, 1 + (below << width), pairs))
        ends.append(len(trees))
    return sorted(trees, key=lambda t: t.code)


def _bracelets(r: int, n: int, by_size: list[list[int]]) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every sequence of r tree ranks whose tree sizes add up to n and that
    is least among its rotations and reflections, with the number of those
    that fix it; ``by_size[s]`` lists the ranks of size s in order.

    The necklaces (least among their rotations) come from the prenecklace
    recursion of Fredricksen, Kessler and Maiorana: position t repeats
    a[t - p] or exceeds it, and a prefix whose sizes cannot still add up to
    n is cut.  A necklace is kept when no rotation of its reversal reads
    smaller; each rotation of the reversal that reads the same is a fixing
    reflection.
    """
    a = [0] * (r + 1)  # a[1..r]; a[0] = 0 lets the first rank be any

    def necklaces(t: int, p: int, used: int) -> Iterator[tuple[tuple[int, ...], int]]:
        room = n - used - (r - t)  # the largest size left for position t
        lo = a[t - p]
        for s in range(room if t == r else 1, room + 1):
            ranks = by_size[s]
            for j in ranks[bisect_left(ranks, lo) :]:
                a[t] = j
                q = p if j == lo else t
                if t < r:
                    yield from necklaces(t + 1, q, used + s)
                elif r % q == 0:  # a necklace of period q
                    yield tuple(a[1:]), q

    for seq, period in necklaces(1, 1, 0):
        rev = seq[::-1]
        mirrors = 0
        for x in range(r):
            if rev[x] == seq[0]:
                turn = rev[x:] + rev[:x]
                if turn < seq:
                    break
                mirrors += turn == seq
        else:
            yield seq, r // period + mirrors


def iter_unicyclic_classes(
    n: int, shard: tuple[int, int] | None = None
) -> Iterator[tuple[int, tuple[str, ...], int, tuple[int, ...]]]:
    """Each isomorphism class of unicyclic graphs on n vertices once, as
    (cycle length r, class_key, |Aut|, unordered pair counts by distance
    0..n-2).

    A class is r rooted trees around a cycle, read as the sequence of their
    AHU codes that is least among its rotations and reflections: exactly
    ``class_key``.  Pairs inside a tree come with the tree; a pair across
    trees i and j is a vertex at depth a and one at depth b, at distance
    a + b + the cycle distance of i and j, so those counts are the product
    of the two depth polynomials, shifted.  |Aut| is the product of the
    trees' automorphism counts times the number of rotations and reflections
    that fix the sequence.  Classes come by r, then in necklace order, and
    shard (i, k) takes the classes i, i + k, i + 2k, ...  A bad n or shard
    raises on the call.
    """
    check_n(n, MAX_CLASS_N, "class-engine")
    check_shard(shard)
    return _classes(n, shard or (0, 1))


def _classes(n: int, shard: tuple[int, int]):
    width = _field_width(n)
    trees = _rooted_trees(n - 2, width)  # the other r - 1 >= 2 trees hold a vertex each
    by_size: list[list[int]] = [[] for _ in range(n - 1)]
    for rank, t in enumerate(trees):
        by_size[t.size].append(rank)
    first, step = shard
    index = -1
    for r in range(3, n + 1):
        for seq, aut in _bracelets(r, n, by_size):
            index += 1
            if index % step != first:
                continue
            pairs = cycle_pairs([trees[j].depths for j in seq], width)
            for j in seq:
                aut *= trees[j].aut
                pairs += trees[j].pairs
            yield r, tuple(trees[j].code for j in seq), aut, _coefficients(pairs, n - 1, width)


def enumerate_unicyclic_unlabeled(n: int) -> Iterator[Graph]:
    """One graph per isomorphism class, in class-stream order: the
    ``canonical_form`` representative of each class."""
    classes = iter_unicyclic_classes(n)  # refuses a bad n on the call
    return (graph_from_masks(n, representative_masks(key)) for _r, key, _aut, _c in classes)


# ---------------------------------------------------------------------------
# exhaustive tree sweep for the path characterization


class TreeScan(NamedTuple):
    """Aggregate of one tree sweep: totals plus any counterexample sequences."""

    n: int
    trees: int
    paths: int
    violations: tuple[tuple[int, ...], ...]

    def merged(self, other: "TreeScan") -> "TreeScan":
        if other.n != self.n:
            raise ValueError("cannot merge scans for different n")
        return TreeScan(
            self.n,
            self.trees + other.trees,
            self.paths + other.paths,
            self.violations + other.violations,
        )


def _terminal_branches(
    head: Sequence[int],
    j: int,
    last: int,
    deg: list[int],
    left: list[int],
    bare: list[int],
    ptr: int,
    leaf: int,
) -> int:
    """The first major vertex (degree >= 3) found with two bare branches
    below it, or -1 if there is none, in the tree of the Prufer sequence
    ``head + (last,)``, rooted at n - 1, decoded from step j: ``left``,
    ``bare``, ``ptr`` and ``leaf`` are its state as step j takes ``leaf``
    (read only: steps run on copies), and ``deg`` holds the head's degrees,
    as no step reads the tree's at ``last``.  At j = len(head) only the last
    step, ``leaf`` to ``last``, is left.  A major can be vertex 0: test ``< 0``.

    A branch is bare when it is a path hanging from the major.  The sweep's
    own decode builds no adjacency: it keeps the ``left`` counts of
    ``_decode_prufer`` and, per vertex v, ``bare[v]``, the number of v's
    children whose subtree is a bare path.  When a step removes leaf l and
    joins it to s, every child of l is already joined, so the branch from s
    through l is bare iff l has at most one child and that child's branch
    is bare: ``bare[l] + 1 == deg[l] <= 2``.  A bare count reaches 2 only at
    a vertex's second join, so it repeats in the sequence and is a major.

    The verdict is exact.  A bare branch below a major v is a pendant path,
    so its leaf is terminal for v: every witness found is a real one.  A
    deepest major vertex has only bare branches below it, and at least two
    of them, so a witness is found iff the tree has a major vertex, the same
    verdict as walking each leaf to its major.
    """
    if j < len(head):
        left = left[:]
        bare = bare[:]
        for s in head[j:]:
            if bare[leaf] + 1 == deg[leaf] <= 2:
                bare[s] += 1
                if bare[s] == 2:
                    return s
            left[s] -= 1
            if left[s] == 1 and s < ptr:
                leaf = s
            else:
                ptr += 1
                while left[ptr] != 1:
                    ptr += 1
                leaf = ptr
    # The step that joins leaf to last may complete the first witness; the
    # last edge, leaf to n - 1, never does: n - 1 has all but one child by
    # then, and a major has two bare ones among those or a major below them.
    if bare[leaf] + 1 == deg[leaf] <= 2 and bare[last] == 1:
        return last
    return -1


def scan_tree_path_property(
    n: int, shard: tuple[int, int] | None = None
) -> TreeScan:
    """Check over all labeled n-vertex trees that only paths lack a major
    vertex with two or more terminal end-vertices.

    The sweep goes by head, the first n - 3 labels of a Prufer sequence,
    and decodes each head once, on its own degrees from its least fresh
    label (one it leaves out).  A tree is a path iff no label repeats: a
    head of n - 3 distinct labels and a fresh last label, counted without a
    decode.  Any other tree ``head + (last,)`` has the head's degrees plus
    one at ``last``.  Until the head's decode takes ``last`` as a leaf, the
    two have equal ``left`` counts but at ``last``, where the tree's is at
    least 2, so they take the same leaves to the same labels and keep equal
    ``bare`` counts (``deg[leaf]`` agrees at each leaf taken).  When the
    head's decode takes ``last`` at step j, at its start, as a label below
    ``ptr`` that just became a leaf, or by its scan, the tree's count there
    is 2: it takes the next label above ``ptr`` whose count is 1 and resumes
    from step j in ``_terminal_branches``.  That needs no bump at ``last``:
    later scans start above ``ptr`` >= ``last``, which is no later head
    label and no leaf, so no step reads its count or degree.

    So a tree whose last label is not taken by the head's witness, the first
    step that gives a vertex its second bare branch, passes with it.  With
    no witness, a tree whose last label is never taken shares the whole
    decode and is decided at its last step.  Shard (i, k) takes heads i,
    i + k, i + 2k, ... in rank order, each with all n last labels.
    Violations, trees with no major that has two bare branches, come in
    (head, last) order; there should be none.
    """
    check_n(n, lo=2)
    check_shard(shard)
    i, k = shard or (0, 1)
    if n == 2:  # one tree, the edge: a path with an empty sequence and no head
        return TreeScan(2, int(i == 0), int(i == 0), ())
    violations: list[tuple[int, ...]] = []
    trees = 0
    paths = 0
    for head in itertools.islice(itertools.product(range(n), repeat=n - 3), i, None, k):
        deg = [1] * n
        for s in head:
            deg[s] += 1
        simple = deg.count(1) == 3  # n - 3 labels, none repeated: 3 fresh lasts make paths
        trees += n
        paths += 3 * simple
        left, bare = deg[:], [0] * n
        ptr = leaf = deg.index(1)
        taken = 0  # the leaves the head's decode has taken
        for j, s in enumerate(head):
            taken |= 1 << leaf
            if not simple or deg[leaf] > 1:  # head + (leaf,) is no path and leaves here
                nxt = ptr + 1
                while left[nxt] != 1:
                    nxt += 1
                if _terminal_branches(head, j, leaf, deg, left, bare, nxt, nxt) < 0:
                    violations.append((*head, leaf))
            if bare[leaf] + 1 == deg[leaf] <= 2:
                bare[s] += 1
                if bare[s] == 2:
                    break  # the witness of every tree whose last is not taken
            left[s] -= 1
            if left[s] == 1 and s < ptr:
                leaf = s
            else:
                ptr += 1
                while left[ptr] != 1:
                    ptr += 1
                leaf = ptr
        else:  # no witness: the last step decides each tree still in the decode
            for last in range(n):
                if taken >> last & 1 or simple and deg[last] == 1:
                    continue
                at = leaf
                if last == leaf:  # the last step takes last: the tree leaves there
                    at = ptr + 1
                    while left[at] != 1:
                        at += 1
                if _terminal_branches(head, n - 3, last, deg, left, bare, at, at) < 0:
                    violations.append((*head, last))
    return TreeScan(n, trees, paths, tuple(sorted(violations)))
