"""Deterministic constructors for the named graph families.

Labelings are fixed so that serialized fixtures stay byte-stable:
paths run 0-1-...-(n-1), cycles close with the edge (n-1, 0), stars are
centered at 0, and composite families attach at vertex 0.  Edges are passed
as generators, so Graph.from_edges refuses an oversized n before any is built.
"""

from __future__ import annotations

from itertools import chain

from .graphs import Graph


def path(n: int) -> Graph:
    """Path on n >= 1 vertices, 0-1-...-(n-1)."""
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    """Cycle on n >= 3 vertices, 0-1-...-(n-1)-0."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return Graph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def star(n: int) -> Graph:
    """Star on n >= 2 vertices with center 0."""
    if n < 2:
        raise ValueError(f"star needs n >= 2, got {n}")
    return Graph.from_edges(n, ((0, i) for i in range(1, n)))


def triangle_star(n: int) -> Graph:
    """Triangle 0-1-2 with n-3 pendant vertices attached to vertex 0.

    Degree sequence: one vertex of degree n-1, two of degree 2, n-3 leaves.
    """
    if n < 4:
        raise ValueError(f"triangle-star needs n >= 4, got {n}")
    return Graph.from_edges(n, chain([(0, 1), (0, 2), (1, 2)], ((0, i) for i in range(3, n))))


def tadpole(r: int, n: int) -> Graph:
    """Cycle 0..r-1 with a pendant path of n-r vertices attached at vertex 0.

    tadpole(n, n) is exactly cycle(n).
    """
    if not (3 <= r <= n):
        raise ValueError(f"tadpole needs 3 <= r <= n, got r={r}, n={n}")
    ring = ((i, (i + 1) % r) for i in range(r))
    tail = ((i - 1 if i > r else 0, i) for i in range(r, n))
    return Graph.from_edges(n, chain(ring, tail))
