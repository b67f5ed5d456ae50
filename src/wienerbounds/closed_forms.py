"""Closed-form index values for paths, cycles, and the two extremal unicyclic families.

The tadpole formula is evaluated term by term exactly as the two parity
cases are written (no algebraic simplification), with the usual convention
that a sum whose upper limit is below its lower limit is empty.  This keeps
the evaluation an independent check against graphs built explicitly.
"""

from __future__ import annotations

from typing import Callable, Union

from .indices import IndexValue, index_value
from .weights import WeightFunction


def _sum(lo: int, hi: int, term: Callable[[int], Union[int, float]]):
    """sum of term(j) for j = lo..hi inclusive; empty when hi < lo."""
    total = 0
    for j in range(lo, hi + 1):
        total += term(j)
    return total


def path_closed_form(n: int, h: WeightFunction) -> IndexValue:
    """Weighted Wiener index of the n-vertex path: sum (n-k) h(k), k = 1..n-1."""
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    total = _sum(1, n - 1, lambda k: (n - k) * h(k))
    return index_value(total, h, f"path-closed-form(n={n})")


def cycle_closed_form(n: int, h: WeightFunction) -> IndexValue:
    """Weighted Wiener index of the n-vertex cycle, split by parity of n."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    if n % 2 == 1:
        total = _sum(1, (n - 1) // 2, lambda j: n * h(j))
    else:
        total = _sum(1, n // 2 - 1, lambda j: n * h(j)) + (n // 2) * h(n // 2)
    return index_value(total, h, f"cycle-closed-form(n={n})")


def triangle_star_closed_form(n: int, h: WeightFunction) -> IndexValue:
    """Weighted Wiener index of the triangle with n-3 pendants at one vertex.

    Equals n h(1) + n(n-3)/2 h(2): the n adjacent pairs plus every other
    pair at distance two.
    """
    if n < 4:
        raise ValueError(f"triangle-star needs n >= 4, got {n}")
    total = n * h(1) + (n * (n - 3) // 2) * h(2)
    return index_value(total, h, f"triangle-star-closed-form(n={n})")


def tadpole_closed_form(r: int, n: int, h: WeightFunction) -> IndexValue:
    """Weighted Wiener index of the cycle C_r with a pendant path of n-r vertices.

    Odd r:
        sum_{j=1}^{(r-1)/2} r h(j)
        + sum_{j=1}^{n-r} (n-r+1-j) h(j)
        + 2 sum_{k=1}^{n-r} sum_{j=1}^{(r-1)/2} h(k+j)
    Even r:
        sum_{j=1}^{r/2-1} r h(j) + (r/2) h(r/2)
        + sum_{j=1}^{n-r} (n-r+1-j) h(j)
        + 2 sum_{k=1}^{n-r} sum_{j=1}^{r/2-1} h(k+j)
        + sum_{k=1}^{n-r} h(r/2 + k)
    """
    if not (3 <= r <= n):
        raise ValueError(f"need 3 <= r <= n, got r={r}, n={n}")
    t = n - r  # pendant path vertex count
    if r % 2 == 1:
        half = (r - 1) // 2
        total = _sum(1, half, lambda j: r * h(j))
        total += _sum(1, t, lambda j: (t + 1 - j) * h(j))
        total += 2 * _sum(1, t, lambda k: _sum(1, half, lambda j: h(k + j)))
    else:
        half = r // 2
        total = _sum(1, half - 1, lambda j: r * h(j)) + half * h(half)
        total += _sum(1, t, lambda j: (t + 1 - j) * h(j))
        total += 2 * _sum(1, t, lambda k: _sum(1, half - 1, lambda j: h(k + j)))
        total += _sum(1, t, lambda k: h(half + k))
    return index_value(total, h, f"tadpole-closed-form(r={r},n={n})")

