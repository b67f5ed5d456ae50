"""The leaf-peeling distance kernel against the per-source BFS oracle.

``distance_distribution`` folds the hanging trees as packed depth
polynomials and searches only the core; ``oracles.bfs_distance_distribution``
runs one BFS from every vertex.  They must agree on every graph, and fail
alike on a disconnected one.
"""

from __future__ import annotations

import itertools
import random

import pytest

import oracles
from wienerbounds.enumeration import graph_from_masks, iter_unicyclic_edge_masks, prufer_to_tree
from wienerbounds.families import cycle, path, star
from wienerbounds import graphs
from wienerbounds.graphs import DisconnectedGraphError, Graph, distance_distribution, is_connected


def complete(n: int) -> Graph:
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


def assert_same(g: Graph) -> None:
    """Equal distributions, or equal DisconnectedGraphError text."""
    try:
        expected = oracles.bfs_distance_distribution(g)
    except DisconnectedGraphError as err:
        with pytest.raises(DisconnectedGraphError) as got:
            distance_distribution(g)
        assert str(got.value) == str(err), f"edges={list(g.edges())}"
        return
    assert distance_distribution(g) == expected, f"n={g.n} edges={list(g.edges())}"


def test_every_labeled_graph_up_to_6_vertices():
    connected = {}
    for n in range(1, 7):
        pairs = list(itertools.combinations(range(n), 2))
        connected[n] = 0
        for bits in range(1 << len(pairs)):
            g = Graph.from_edges(n, (e for k, e in enumerate(pairs) if bits >> k & 1))
            connected[n] += is_connected(g)
            assert_same(g)
    # OEIS A001187: connected labeled graphs
    assert connected == {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26_704}


def test_every_labeled_unicyclic_graph_up_to_7_vertices():
    checked = 0
    for n in range(3, 8):
        for masks, _cyclen in iter_unicyclic_edge_masks(n):
            assert_same(graph_from_masks(n, masks))
            checked += 1
    assert checked == 72_193


def test_random_connected_graphs():
    """Seeded random trees on 2..60 vertices plus 0..3 extra edges: trees,
    unicyclic graphs and cores with several cycles, with trees hanging off."""
    rng = random.Random(20261019)
    cycles = set()
    for _ in range(2000):
        n = rng.randrange(2, 61)
        edges = set(prufer_to_tree([rng.randrange(n) for _ in range(n - 2)]).edges())
        for _ in range(rng.randrange(4)):
            edges.add(tuple(sorted(rng.sample(range(n), 2))))
        assert_same(Graph.from_edges(n, edges))
        cycles.add(len(edges) - n + 1)
    assert cycles == {0, 1, 2, 3}


def test_families():
    graphs = [Graph.from_edges(1, []), path(2)]
    graphs += [f(n) for n in range(3, 30) for f in (cycle, path, star)]
    graphs += [complete(n) for n in range(1, 16)]
    for g in graphs:
        assert_same(g)
    assert distance_distribution(Graph.from_edges(1, [])).counts == {}


def test_disconnected_names_the_least_unreachable_vertex():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (4, 5)])
    with pytest.raises(DisconnectedGraphError, match=r"^vertex 3 is unreachable from vertex 0$"):
        distance_distribution(g)
    assert_same(g)


@pytest.mark.parametrize(
    "make, expected",
    [
        (lambda: star(600), {1: 599, 2: 179_101}),
        (lambda: complete(400), {1: 79_800}),
        (lambda: star(70_000), {1: 69_999, 2: 2_449_895_001}),
    ],
    ids=["star600", "K400", "star70000"],
)
def test_counts_above_16_bits(make, expected):
    """Each has a count above 2^16, so a fixed 16-bit packing would carry.
    The first two take 3-byte fields and star(70 000) 5-byte ones.  The
    star's counts are n - 1 and C(n - 1, 2), checked without the oracle,
    which would run 70,000 BFS."""
    g = make()
    got = distance_distribution(g)
    assert got.counts == expected
    if g.n <= 600:
        assert got == oracles.bfs_distance_distribution(g)


@pytest.mark.parametrize(
    "n, width",
    [(1, 8), (16, 8), (17, 16), (256, 16), (257, 24), (4_096, 24), (4_097, 32), (65_537, 40)],
)
def test_field_width_is_the_least_whole_bytes_holding_n_times_n_minus_1(n, width):
    assert graphs._field_width(n) == width


@pytest.mark.parametrize("size", range(1, 9))
def test_decoder_matches_shift_and_mask(size):
    """Distinct coefficients, each using its field's top and bottom bit,
    come back in order for every whole-byte width."""
    width = 8 * size
    coefs = [(1 << (width - 1)) | (1 + 37 * d) % (1 << (width - 1)) for d in range(9)]
    poly = sum(c << (width * d) for d, c in enumerate(coefs))
    mask = (1 << width) - 1
    expected = tuple((poly >> (width * d)) & mask for d in range(11))
    assert expected == (*coefs, 0, 0)
    assert graphs._coefficients(poly, 11, width) == expected
