"""The facts a ``Graph`` derives once: connectivity, core, cycle and distance
distribution.

They are kept outside the three fields, so equality, hashing, repr and
pickling see only the fields; a failed derivation keeps nothing; and each
graph runs at most one BFS from vertex 0 and one leaf peel, whichever public
functions ask for them and in whatever order.
"""

from __future__ import annotations

import itertools
import pickle
import random

import pytest

import oracles
from wienerbounds import graphs, indices
from wienerbounds.enumeration import prufer_to_tree, random_unicyclic
from wienerbounds.extremal import local_search_max
from wienerbounds.families import cycle, path, star, tadpole, triangle_star
from wienerbounds.graphs import (
    DisconnectedGraphError,
    Graph,
    NotUnicyclicError,
    cycle_pairs,
    distance_distribution,
    find_cycle,
    is_connected,
    is_unicyclic,
    major_vertex_report,
    relabel,
)
from wienerbounds.weights import PowerWeight

FACTS = ("_connected", "_core", "_cycle", "_distribution")


def fill(g: Graph) -> None:
    """Ask for every derived fact the graph has, as the public functions do."""
    is_connected(g)
    if not is_connected(g):
        return
    major_vertex_report(g)
    distance_distribution(g)
    if is_unicyclic(g):
        find_cycle(g)


def sample_graphs() -> list[Graph]:
    rng = random.Random(17)
    out = [random_unicyclic(n, rng) for n in (3, 5, 12, 40)]
    out += [prufer_to_tree([rng.randrange(9) for _ in range(7)]), star(6), path(2)]
    out += [Graph.from_edges(5, itertools.combinations(range(5), 2))]
    out += [Graph.from_edges(6, [(0, 1), (1, 2), (4, 5)]), Graph.from_edges(1, [])]
    return out


@pytest.mark.parametrize("g", sample_graphs(), ids=lambda g: f"n{g.n}m{g.edge_count}")
def test_facts_stay_out_of_eq_hash_repr_and_pickle(g):
    twin = Graph(g.n, g.adj, g.edge_count)
    before = (repr(g), hash(g), pickle.dumps(g))
    fill(g)
    assert set(g.__dict__) - {"n", "adj", "edge_count"} <= set(FACTS)
    assert "_connected" in g.__dict__
    assert (repr(g), hash(g), pickle.dumps(g)) == before
    assert g == twin and twin == g and hash(twin) == hash(g)
    back = pickle.loads(pickle.dumps(g))
    assert back == g and repr(back) == repr(g)
    assert not set(back.__dict__) & set(FACTS)  # a pickle carries the fields alone


def test_cached_distribution_equals_the_bfs_oracle():
    rng = random.Random(20261019)
    unicyclic = [random_unicyclic(rng.randrange(3, 41), rng) for _ in range(200)]
    others = []
    for _ in range(200):  # trees and cores with several cycles
        n = rng.randrange(2, 31)
        edges = set(prufer_to_tree([rng.randrange(n) for _ in range(n - 2)]).edges())
        for _ in range(rng.choice((0, 2, 3))):
            edges.add(tuple(sorted(rng.sample(range(n), 2))))
        others.append(Graph.from_edges(n, edges))
    assert {g.edge_count - g.n for g in others} >= {-1, 1, 2}
    for g in unicyclic + others:
        first = distance_distribution(g)
        assert first == oracles.bfs_distance_distribution(g), list(g.edges())
        assert distance_distribution(g) is first
        assert "_core" not in g.__dict__  # the peeled pairs go once the fold is done
        assert indices.wiener(g).value == sum(d * c for d, c in first.counts.items())


def test_shared_distribution_is_read_only_and_pickles():
    g = tadpole(4, 9)
    dist = distance_distribution(g)
    with pytest.raises(TypeError):
        dist.counts[1] = 0  # type: ignore[index]
    assert dist.counts == {1: 9, 2: 8, 3: 6, 4: 5, 5: 4, 6: 3, 7: 1}
    back = pickle.loads(pickle.dumps(dist))
    assert back == dist and back.counts == dist.counts
    assert distance_distribution(g) is dist


def test_a_failure_is_not_cached_and_raises_the_same_text_again():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (4, 5), (0, 3), (0, 2)])
    for _ in range(2):
        with pytest.raises(DisconnectedGraphError, match=r"^vertex 4 is unreachable from vertex 0$"):
            distance_distribution(g)
        with pytest.raises(NotUnicyclicError, match=r"^graph with n=6, m=5 is not connected-unicyclic$"):
            find_cycle(g)
        with pytest.raises(DisconnectedGraphError, match=r"^major vertex report needs a connected graph$"):
            major_vertex_report(g)
        assert not is_connected(g)
    assert "_distribution" not in g.__dict__ and "_cycle" not in g.__dict__


class Counted:
    """Counts calls of ``graphs._bfs`` and ``graphs.peel_leaves``."""

    def __init__(self, monkeypatch):
        self.bfs = self.peel = 0
        bfs, peel = graphs._bfs, graphs.peel_leaves

        def counted_bfs(adj, source):
            self.bfs += 1
            return bfs(adj, source)

        def counted_peel(masks):
            self.peel += 1
            return peel(masks)

        monkeypatch.setattr(graphs, "_bfs", counted_bfs)
        monkeypatch.setattr(graphs, "peel_leaves", counted_peel)


QUERIES = {
    "is_connected": is_connected,
    "is_unicyclic": is_unicyclic,
    "major_vertex_report": major_vertex_report,
    "find_cycle": find_cycle,
    "distance_distribution": distance_distribution,
    "generalized_wiener": lambda g: indices.generalized_wiener(g, PowerWeight(2)),
    "named": lambda g: (
        indices.wiener(g),
        indices.hyper_wiener(g),
        indices.harary(g),
        indices.reciprocal_wiener(g),
        indices.tsz_index(g),
        indices.q_wiener(g, 0.5, 2),
    ),
}


@pytest.mark.parametrize("order", [list(QUERIES), list(QUERIES)[::-1], ["find_cycle", "named"]])
def test_one_bfs_and_one_peel_per_unicyclic_graph(monkeypatch, order):
    counted = Counted(monkeypatch)
    rng = random.Random(5)
    shapes = [random_unicyclic(n, rng) for n in range(3, 30)]
    shapes += [cycle(7), tadpole(3, 10), triangle_star(8)]
    for g in shapes:
        counted.bfs = counted.peel = 0
        for _ in range(2):
            for name in order:
                QUERIES[name](g)
        assert (counted.bfs, counted.peel) == (1, 1), (order, list(g.edges()))


def test_a_local_search_derives_each_graph_once(monkeypatch):
    """Every graph of the search, the start and each move's result, gets one
    connectivity BFS and one peel; the only other BFS are the two anchor BFS
    of each tail rebalance."""
    counted = Counted(monkeypatch)
    rng = random.Random(1)
    for _ in range(5):
        g0 = random_unicyclic(40, rng)
        moves = []
        counted.bfs = counted.peel = 0
        local_search_max(g0, PowerWeight(1), on_move=lambda move, a, b: moves.append(move.kind))
        built = 1 + len(moves)
        assert counted.peel == built
        assert counted.bfs == built + 2 * moves.count("tail-rebalance")


@pytest.mark.parametrize("r, n", [(750, 1500), (9, 30), (40, 41)])
def test_tail_position_on_the_ring_leaves_the_distribution_alone(r, n):
    """The tail of tadpole(r, n) relabelled to hang at cycle position 0, r/2
    or r - 1: the fold starts its ring after the heaviest tree, so all three
    placements cost alike, and they must give the same counts."""
    base = tadpole(r, n)
    dists = []
    for k in (0, r // 2, r - 1):
        perm = [(v + k) % r if v < r else v for v in range(n)]
        g = relabel(base, perm)
        assert find_cycle(g).vertices[k] in g.adj[r]  # the tail's first vertex hangs at k
        dists.append(distance_distribution(g))
    assert dists[0] == dists[1] == dists[2] == distance_distribution(base)
    if n <= 41:
        assert dists[0] == oracles.bfs_distance_distribution(base)


def test_cycle_pairs_is_the_same_for_every_rotation_and_reflection():
    rng = random.Random(3)
    width = 16
    for r in range(3, 12):
        depths = [rng.choice((1, 1, 1 + (1 << width), rng.randrange(1, 1 << 40))) for _ in range(r)]
        want = cycle_pairs(depths, width)
        for k in range(r):
            turned = depths[k:] + depths[:k]
            assert cycle_pairs(turned, width) == want
            assert cycle_pairs(turned[::-1], width) == want
