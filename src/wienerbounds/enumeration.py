"""Exhaustive generation of labeled trees and unicyclic graphs.

Unicyclic graphs on n vertices are generated as (spanning tree, chord)
pairs: every labeled tree comes from its Prufer sequence, and a chord is
kept only when it is the lexicographically smallest edge of the cycle it
closes.  Each labeled unicyclic graph has exactly one such pair (one per
cycle edge, of which one is minimal), so the stream is duplicate-free
without keeping a global seen-set.

Sequence indices shard deterministically: shard (i, k) processes Prufer
ranks congruent to i mod k, and per-shard aggregates merge associatively.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from random import Random
from typing import Iterator, Sequence

from .graphs import Graph

DEFAULT_LABELED_CAP = 9
DEFAULT_UNLABELED_CAP = 8
HARD_CAP = 10


class EnumerationCapError(ValueError):
    """Requested n exceeds the enumeration cap."""

    def __init__(self, n: int, cap: int):
        super().__init__(f"n={n} exceeds the enumeration cap {cap}")
        self.n = n
        self.cap = cap


def _check_cap(n: int, cap: int) -> None:
    cap = min(cap, HARD_CAP)
    if n > cap:
        raise EnumerationCapError(n, cap)


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
    n: int,
    shard: tuple[int, int] | None = None,
    cap: int = DEFAULT_LABELED_CAP,
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (adjacency bitmasks, cycle length) for every labeled unicyclic graph.

    This is the raw engine behind enumerate_unicyclic_labeled; the bitmask
    form keeps exhaustive scans cheap.
    """
    if n < 3:
        raise ValueError(f"unicyclic graphs need n >= 3, got {n}")
    _check_cap(n, cap)
    rng = range(n)
    pair_rng = [(u, v) for u in rng for v in range(u + 1, n)]
    for seq in _prufer_sequences(n, shard):
        amask = _decode_prufer(seq, n)[0]
        # parent/depth arrays rooted at 0, for tree-path walks
        parent = [0] * n
        depth = [0] * n
        stack = [0]
        seen = 1
        while stack:
            x = stack.pop()
            m = amask[x] & ~seen
            dx = depth[x] + 1
            while m:
                b = m & -m
                y = b.bit_length() - 1
                parent[y] = x
                depth[y] = dx
                stack.append(y)
                seen |= b
                m ^= b
        for u, v in pair_rng:
            if amask[u] >> v & 1:
                continue
            # chord (u, v) closes the cycle = tree path u..v plus the chord;
            # accept only the lexicographically smallest cycle edge as chord
            code = u * n + v
            a, b = u, v
            da, db = depth[a], depth[b]
            mince = code
            cyclen = 1
            while da > db:
                pa = parent[a]
                c = (a * n + pa) if a < pa else (pa * n + a)
                if c < mince:
                    mince = c
                a = pa
                da -= 1
                cyclen += 1
            while db > da:
                pb = parent[b]
                c = (b * n + pb) if b < pb else (pb * n + b)
                if c < mince:
                    mince = c
                b = pb
                db -= 1
                cyclen += 1
            while a != b:
                pa = parent[a]
                c = (a * n + pa) if a < pa else (pa * n + a)
                if c < mince:
                    mince = c
                a = pa
                pb = parent[b]
                c = (b * n + pb) if b < pb else (pb * n + b)
                if c < mince:
                    mince = c
                b = pb
                cyclen += 2
            if mince != code:
                continue
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
    n: int,
    shard: tuple[int, int] | None = None,
    cap: int = DEFAULT_LABELED_CAP,
) -> Iterator[Graph]:
    """Every labeled connected unicyclic graph on n vertices, exactly once."""
    for masks, _cyclen in iter_unicyclic_edge_masks(n, shard, cap):
        yield graph_from_masks(n, masks)


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
# canonical forms


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


def canonical_form(g: Graph) -> bytes:
    """Canonical byte string: edge list under the minimizing relabeling.

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


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    return canonical_form(g1) == canonical_form(g2)


def enumerate_unicyclic_unlabeled(
    n: int, cap: int = DEFAULT_UNLABELED_CAP
) -> Iterator[Graph]:
    """One representative per isomorphism class, filtered by canonical form."""
    _check_cap(n, cap)
    seen: set[bytes] = set()
    for g in enumerate_unicyclic_labeled(n, cap=cap):
        key = canonical_form(g)
        if key not in seen:
            seen.add(key)
            yield g


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
