"""Exhaustive generation of labeled trees and unicyclic graphs.

Unicyclic graphs on n vertices are generated as (spanning tree, chord)
pairs: every labeled tree comes from its Prufer sequence, and its chords
are the (u, v), u < v, that close a cycle whose least vertex is u and in
which v is below u's other neighbour; each is reached directly from u's
tree edges.  That chord is the cycle's lexicographically smallest edge, so
each labeled unicyclic graph has exactly one such pair and the stream is
duplicate-free without keeping a global seen-set.

Sequence indices shard deterministically: shard (i, k) processes Prufer
ranks congruent to i mod k, and per-shard aggregates merge associatively.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from random import Random
from typing import Iterator, Sequence

from .graphs import Graph, GraphError, is_connected, peel_leaves

# The exhaustive scans stop here: n = 9 is 33,779,340 labeled unicyclic
# graphs (OEIS A057500) and n = 10 is 880,107,840, hours on two workers.
MAX_SCAN_N = 9


class EnumerationCapError(ValueError):
    """Requested n is above MAX_SCAN_N, the limit of the exhaustive scans."""


def check_scan_n(n: int) -> None:
    """Refuse an n that no exhaustive scan takes: below 3 (no unicyclic graph)
    or above MAX_SCAN_N.  Every scan entry point calls this first, before it
    builds a table or starts a worker."""
    if n < 3:
        raise ValueError(f"unicyclic graphs need n >= 3, got {n}")
    if n > MAX_SCAN_N:
        raise EnumerationCapError(f"n={n} exceeds the enumeration cap {MAX_SCAN_N}")


def _decode_prufer(seq: Sequence[int], n: int) -> tuple[list[int], list[int]]:
    """Linear-time Prufer decode of a labeled tree on n vertices.

    Returns the adjacency bitmasks (bit v of masks[u] set iff uv is an
    edge) and the vertex degrees.
    """
    deg = [1] * n
    for s in seq:
        deg[s] += 1
    left = deg[:]
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
    return masks, deg


def prufer_to_tree(seq: Sequence[int]) -> Graph:
    """Decode a Prufer sequence of length n-2 into its labeled tree on n vertices."""
    seq = list(seq)
    n = len(seq) + 2
    for s in seq:
        if not (0 <= s < n):
            raise ValueError(f"label {s} out of range 0..{n - 1}")
    return graph_from_masks(n, _decode_prufer(seq, n)[0])


def _prufer_sequences(n: int, shard: tuple[int, int] | None) -> Iterator[tuple[int, ...]]:
    """All n-vertex Prufer sequences in rank order, optionally one shard of them.

    product() is lexicographic, which is rank order, so shard (i, k) is the
    stride-k slice starting at rank i.
    """
    seqs = itertools.product(range(n), repeat=n - 2)
    if shard is None:
        return seqs
    i, k = shard
    if not (0 <= i < k):
        raise ValueError(f"bad shard {i}/{k}")
    return itertools.islice(seqs, i, None, k)


def iter_unicyclic_edge_masks(
    n: int, shard: tuple[int, int] | None = None
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Stream (adjacency bitmasks, cycle length) for every labeled unicyclic graph.

    This is the raw engine behind enumerate_unicyclic_labeled; the bitmask
    form keeps exhaustive scans cheap.  A bad n or shard raises here, on the
    call, not on the first next().
    """
    check_scan_n(n)
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
        amask = _decode_prufer(seq, n)[0]
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
    masks = _decode_prufer(seq, n)[0]
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
    ring = []
    x = prev = min(code)
    for _ in code:  # walk the cycle from its lowest vertex
        ring.append(code[x])
        prev, x = x, (masks[x] & alive & ~(1 << prev)).bit_length() - 1
    r = len(ring)
    first = min(ring)
    return tuple(
        min(s[i : i + r] for s in (ring * 2, ring[::-1] * 2) for i in range(r) if s[i] == first)
    )


def canonical_form(g: Graph) -> bytes:
    """Canonical byte string: n, then the sorted edge pairs of a fixed
    representative of the isomorphism class.

    The representative is decoded from ``class_key`` in preorder: the core
    (centre or cycle) takes labels 0..c-1 in key order, then each subtree is
    labelled as its code is read.  Two graphs get equal bytes iff they are
    isomorphic, and the bytes decode to an isomorphic copy.  The domain is the
    connected graphs with at most one cycle and at most 255 vertices (one
    byte per label); any other graph raises GraphError.
    """
    n = g.n
    if n > 255:
        raise GraphError(f"canonical_form writes labels as bytes: at most 255 vertices, got {n}")
    if g.edge_count not in (n - 1, n) or not is_connected(g):
        raise GraphError("canonical_form needs a connected graph with at most one cycle")
    key = class_key(n, g.adjacency_masks())
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
    out = bytearray([n])
    for a, b in edges:
        out.append(a)
        out.append(b)
    return bytes(out)


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    return canonical_form(g1) == canonical_form(g2)


def enumerate_unicyclic_unlabeled(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class: the first labeled graph of
    each class in stream order."""
    stream = iter_unicyclic_edge_masks(n)  # refuses a bad n on the call

    def firsts() -> Iterator[Graph]:
        seen: set[tuple[str, ...]] = set()
        for masks, _cyclen in stream:
            key = class_key(n, masks)
            if key not in seen:
                seen.add(key)
                yield graph_from_masks(n, masks)

    return firsts()


# ---------------------------------------------------------------------------
# exhaustive tree sweep for the path characterization


@dataclass(frozen=True)
class TreeScan:
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


def scan_tree_path_property(
    n: int, shard: tuple[int, int] | None = None
) -> TreeScan:
    """Check over all labeled n-vertex trees that only paths lack a major
    vertex with two or more terminal end-vertices.

    Paths have no degree >= 3 vertex at all, so their terminal structure is
    empty by definition.  For every other tree, each leaf is walked to the
    first vertex of degree >= 3 on its pendant path (in a tree this is its
    unique strictly-nearest major vertex); a violation is recorded if no
    major collects two leaves.  Returned sequences should always be empty.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    violations: list[tuple[int, ...]] = []
    trees = 0
    paths = 0
    rng = range(n)
    for seq in _prufer_sequences(n, shard):
        trees += 1
        if len(set(seq)) == n - 2:  # no repeated label: every degree <= 2
            paths += 1
            continue
        amask, deg = _decode_prufer(seq, n)
        tcount = [0] * n
        found = False
        for u in rng:
            if deg[u] != 1:
                continue
            prev = -1
            x = u
            while deg[x] < 3:
                m = amask[x]
                if prev >= 0:
                    m &= ~(1 << prev)
                prev = x
                x = m.bit_length() - 1
            tcount[x] += 1
            if tcount[x] > 1:
                found = True
                break
        if not found:
            violations.append(tuple(seq))
    return TreeScan(n, trees, paths, tuple(violations))
