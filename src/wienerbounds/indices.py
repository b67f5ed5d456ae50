"""Distance-based topological indices, all computed from the distance distribution.

Every index here is sum-over-pairs of some weight of the pairwise distance,
so one distance distribution per graph serves every weight.  The
distribution comes from ``graphs.distance_distribution``, which peels the
leaves, folds the hanging trees as packed depth polynomials and searches
only the core that remains.
Integer-valued weights are accumulated exactly.  Hyper-Wiener and
Tratch-Stankevich-Zefirov weight distance d by the binomials C(d+1, 2) and
C(d+2, 3), so both are integer sums over one distribution.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple, Union

from .graphs import DistanceDistribution, Graph, distance_distribution
from .weights import Number, PowerWeight, QWienerWeight, WeightFunction


class IndexValue(NamedTuple):
    """An index result: exact integer or float, with a display name."""

    value: Number
    mode: str  # "exact" or "float"
    index_name: str

    def to_json_value(self) -> Union[str, float]:
        """Exact values serialize as decimal strings to survive JSON consumers."""
        if self.mode == "exact":
            return str(self.value)
        return float(self.value)


def index_value(total: Number, h: WeightFunction, name: str) -> IndexValue:
    """``total`` as a value of weight ``h``: exact when h is, else a float."""
    if h.exact:
        return IndexValue(total, "exact", name)
    return IndexValue(float(total), "float", name)


def index_from_distribution(
    dist: DistanceDistribution, h: WeightFunction, name: str | None = None
) -> IndexValue:
    """Evaluate sum_k counts[k] * h(k) over a precomputed distribution."""
    if isinstance(h, QWienerWeight) and h.variant == 2 and h.diameter is None:
        h = h.with_diameter(dist.max_distance)
    total: Number = 0
    for k in sorted(dist.counts):
        total += dist.counts[k] * h(k)
    return index_value(total, h, name if name is not None else h.description)


def generalized_wiener(g: Graph, h: WeightFunction, name: str | None = None) -> IndexValue:
    """The weighted Wiener index sum h(d(u, v)) over unordered vertex pairs."""
    return index_from_distribution(distance_distribution(g), h, name)


def _hyper_wiener(dist: DistanceDistribution) -> IndexValue:
    value = sum(c * comb(d + 1, 2) for d, c in dist.counts.items())
    return IndexValue(value, "exact", "hyper-wiener")


def _tsz(dist: DistanceDistribution) -> IndexValue:
    value = sum(c * comb(d + 2, 3) for d, c in dist.counts.items())
    return IndexValue(value, "exact", "tsz")


def named_indices(dist: DistanceDistribution, q: float | None = None) -> list[IndexValue]:
    """Every named index of one distribution: Wiener, hyper-Wiener, Harary,
    reciprocal Wiener and TSZ, then the three q-Wiener variants when q is given."""
    rows = [
        index_from_distribution(dist, PowerWeight(1), "wiener"),
        _hyper_wiener(dist),
        index_from_distribution(dist, PowerWeight(-2), "harary"),
        index_from_distribution(dist, PowerWeight(-1), "reciprocal-wiener"),
        _tsz(dist),
    ]
    if q is not None:
        rows += [
            index_from_distribution(dist, QWienerWeight(q, v), f"q-wiener-{v}") for v in (1, 2, 3)
        ]
    return rows


def wiener(g: Graph) -> IndexValue:
    """Classic Wiener index: sum of all pairwise distances."""
    return generalized_wiener(g, PowerWeight(1), name="wiener")


def hyper_wiener(g: Graph) -> IndexValue:
    """Hyper-Wiener index (W^1 + W^2) / 2 = sum C(d+1, 2), an exact integer."""
    return _hyper_wiener(distance_distribution(g))


def harary(g: Graph) -> IndexValue:
    """Harary index: sum of inverse squared distances."""
    return generalized_wiener(g, PowerWeight(-2), name="harary")


def reciprocal_wiener(g: Graph) -> IndexValue:
    """Reciprocal Wiener index: sum of inverse distances."""
    return generalized_wiener(g, PowerWeight(-1), name="reciprocal-wiener")


def q_wiener(g: Graph, q: float, variant: int) -> IndexValue:
    """q-Wiener index, variants 1..3; variant 2 uses the graph's diameter."""
    return generalized_wiener(g, QWienerWeight(q, variant), name=f"q-wiener-{variant}")


def tsz_index(g: Graph) -> IndexValue:
    """Tratch-Stankevich-Zefirov index (2 W^1 + 3 W^2 + W^3) / 6 = sum C(d+2, 3),
    an exact integer."""
    return _tsz(distance_distribution(g))
