"""The isomorphism-class engine against its second routes: the labeled scan,
OEIS counts, and networkx on each class's representative."""

import itertools
import math
import multiprocessing
from collections import Counter
from functools import lru_cache

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

from wienerbounds import enumeration, graphs
from wienerbounds.enumeration import (
    class_key,
    graph_from_masks,
    iter_unicyclic_classes,
    iter_unicyclic_edge_masks,
    representative_masks,
    scan_tree_path_property,
)
from wienerbounds.extremal import scan_classes, scan_extremes_parallel
from wienerbounds.graphs import distance_distribution, find_cycle
from wienerbounds.indices import generalized_wiener
from wienerbounds.weights import PowerWeight, QWienerWeight, TableWeight

import oracles

JOBS = min(2, multiprocessing.cpu_count())

# unicyclic classes (A001429) and labeled unicyclic graphs (A057500) on n vertices
A001429 = {3: 1, 4: 2, 5: 5, 6: 13, 7: 33, 8: 89, 9: 240, 10: 657, 11: 1806, 12: 5026,
           13: 13999, 14: 39260}
A057500 = {3: 1, 4: 15, 5: 222, 6: 3660, 7: 68295, 8: 1436568, 9: 33779340, 10: 880107840}
A000081 = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719]  # rooted trees on 1..10 vertices
A000055 = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159]  # free trees on 1..14 vertices


def a057500(n):
    """A057500(n) = sum over j = 0..n-3 of (n - 1)! n^j / (2 j!), each term an exact integer."""
    terms = [divmod(math.factorial(n - 1) * n**j, 2 * math.factorial(j)) for j in range(n - 2)]
    assert all(rest == 0 for _q, rest in terms)
    return sum(q for q, _rest in terms)


def weights(n):
    # the last weight scores every graph n, so every class ties on both sides;
    # it is (1.0, 0.0, 0.0, 0.0) padded with zeros to the n - 2 distances
    return [
        PowerWeight(1),
        PowerWeight(2),
        PowerWeight(-1),
        QWienerWeight(0.5, 1),
        TableWeight((1.0,) + (0.0,) * max(3, n - 3)),
    ]


@lru_cache(maxsize=None)
def labeled_scan(n):
    return scan_extremes_parallel(n, weights(n), JOBS)


@pytest.mark.parametrize("n", range(3, 9))
def test_scan_classes_equals_the_labeled_oracle(n):
    labeled, classes = labeled_scan(n), scan_classes(n, weights(n))
    assert classes == labeled
    for a, b in zip(classes.per_weight, labeled.per_weight, strict=True):
        # the same fold order makes float extremes equal to the bit, and of one type
        assert type(a.min_value) is type(b.min_value) and type(a.max_value) is type(b.max_value)
    ties = classes.per_weight[-1]
    assert ties.lo.count == ties.hi.count == A057500[n]
    assert len(ties.lo.classes) == len(ties.hi.classes) == A001429[n]


@pytest.mark.parametrize("n", range(3, 9))
def test_examples_attain_the_reported_value(n):
    # every representative the report may print attains its side, one per attaining class
    for h, sc in zip(weights(n), scan_classes(n, weights(n)).per_weight):
        for side, masks in ((sc.lo, sc.argmin_masks), (sc.hi, sc.argmax_masks)):
            for m in masks:
                assert generalized_wiener(graph_from_masks(n, m), h).value == side.value
            assert sorted(class_key(n, m) for m in masks) == sorted(side.classes)


@pytest.mark.parametrize("n", range(3, 15))
def test_class_counts_match_A001429(n):
    keys = [key for _r, key, _aut, _counts in iter_unicyclic_classes(n)]
    assert len(keys) == len(set(keys)) == A001429[n]


@pytest.mark.parametrize("n", range(3, 15))
def test_orbit_sums_match_A057500_and_the_cycle_length_sum(n):
    total = cyclen_sum = 0
    for r, _key, aut, _counts in iter_unicyclic_classes(n):
        total += math.factorial(n) // aut
        cyclen_sum += r * math.factorial(n) // aut
    assert total == a057500(n) == A057500.get(n, total)
    # each labeled graph is r (tree, chord) pairs, one per cycle edge
    assert cyclen_sum == n ** (n - 2) * (n * (n - 1) // 2 - (n - 1))


@pytest.mark.parametrize("n", range(3, 15))
def test_distance_totals_match_the_egf_identity(n):
    """Each class's pair counts, times its n!/|Aut| labeled copies, summed
    over the classes: the totals that generating functions give alone."""
    totals = [0] * (n - 1)
    for _r, _key, aut, counts in iter_unicyclic_classes(n):
        copies = math.factorial(n) // aut
        for d, c in enumerate(counts):
            totals[d] += copies * c
    assert totals == oracles.egf_distance_totals(n)


@pytest.mark.parametrize("n", range(3, 8))
def test_each_class_is_its_orbit_in_the_labeled_stream(n):
    orbit = Counter()
    cyclen = {}
    for masks, r in iter_unicyclic_edge_masks(n):
        key = class_key(n, masks)
        orbit[key] += 1
        cyclen[key] = r
    classes = list(iter_unicyclic_classes(n))
    assert {key: math.factorial(n) // aut for _r, key, aut, _c in classes} == orbit
    assert {key: r for r, key, _aut, _c in classes} == cyclen


def check_class(n, r, key, aut, counts, max_aut=None):
    """One class against its representative: the key round trip, the cycle
    length, the BFS distance counts and, unless it exceeds ``max_aut``, |Aut|
    from networkx, which lists every automorphism."""
    masks = representative_masks(key)
    g = graph_from_masks(n, masks)
    assert class_key(n, masks) == key
    assert find_cycle(g).length == r
    assert len(counts) == n - 1 and counts[0] == 0  # distances 0..n-2
    assert {d: c for d, c in enumerate(counts) if c} == oracles.distance_counts(g)
    if max_aut is None or aut <= max_aut:
        ng = oracles.to_nx(g)
        assert sum(1 for _ in GraphMatcher(ng, ng).isomorphisms_iter()) == aut


@pytest.mark.parametrize("n", range(3, 9))
def test_each_class_against_networkx(n):
    for r, key, aut, counts in iter_unicyclic_classes(n):
        check_class(n, r, key, aut, counts)


def test_classes_sampled_at_the_cap_against_networkx():
    # every 40,000th class at the cap: at n = 18, 63 of the 2,497,405, with
    # cycle lengths 3 to 10; four have an |Aut| above 10,000 (the largest
    # 79,833,600), too many to list
    n = enumeration.MAX_CLASS_N
    sample = list(iter_unicyclic_classes(n, (0, 40000)))
    assert len(sample) >= 8
    for r, key, aut, counts in sample:
        check_class(n, r, key, aut, counts, max_aut=10_000)


def test_rooted_trees_match_A000081_and_their_codes():
    decoded = []
    for width in (8, 16):  # the field width for n <= 16, and for n = 17 and 18
        trees = enumeration._rooted_trees(len(A000081), width)
        assert Counter(t.size for t in trees) == dict(enumerate(A000081, start=1))
        codes = [t.code for t in trees]
        assert codes == sorted(set(codes))
        decoded.append([])
        for t in trees:
            depths, pairs = (graphs._coefficients(p, t.size, width) for p in (t.depths, t.pairs))
            # a rooted tree's pairs add up to C(size, 2) and its depths to its size
            assert sum(pairs) == math.comb(t.size, 2)
            assert sum(depths) == t.size
            decoded[-1].append((t.code, depths, pairs))
    assert decoded[0] == decoded[1]


def test_lemma_r_on_the_rooted_tree_table():
    """Lemma R on every rooted tree on at most 12 vertices.  Among the trees
    on s vertices, the path rooted at an end strictly tail-dominates every
    other tree's depth vector and weakly dominates its pair vector; every
    other tree dominates the star rooted at its centre the same way.  The
    pair half is weak because a path rooted inside has the pairs of the
    end-rooted one: the trees with the path's pairs are its (s + 1) // 2
    rootings."""
    width = 8
    trees = enumeration._rooted_trees(12, width)
    assert len(trees) == 7813  # A000081 summed over sizes 1..12
    by_size: dict[int, list] = {}
    for t in trees:
        depths, pairs = (graphs._coefficients(p, t.size, width) for p in (t.depths, t.pairs))
        by_size.setdefault(t.size, []).append((depths, pairs))
    for s, vectors in by_size.items():
        path = ((1,) * s, (0, *range(s - 1, 0, -1)))
        star = (((1, s - 1) + (0,) * s)[:s], ((0, s - 1, math.comb(s - 1, 2)) + (0,) * s)[:s])
        for extreme in (path, star):  # each is the only tree with its depths
            assert [v for v in vectors if v[0] == extreme[0]] == [extreme], s
        assert sum(p == path[1] for _d, p in vectors) == (s + 1) // 2, s
        for depths, pairs in vectors:
            if depths != path[0]:
                assert oracles.tail_dominates(path[0], depths)
                assert oracles.tail_dominates(path[1], pairs)
            if depths != star[0]:
                assert oracles.tail_dominates(depths, star[0])
                assert oracles.tail_dominates(pairs, star[1])


def test_each_rooted_tree_against_networkx():
    """Every rooted tree on at most 8 vertices, decoded with its root at
    vertex 0: |Aut| counts the isomorphisms that fix the root, and the
    depths and pairs are BFS counts."""
    trees = enumeration._rooted_trees(8, 8)
    assert len(trees) == sum(A000081[:8]) == 200
    for t in trees:
        ng = oracles.to_nx(graph_from_masks(t.size, representative_masks((t.code,))))
        fixing = sum(1 for m in GraphMatcher(ng, ng).isomorphisms_iter() if m[0] == 0)
        assert fixing == t.aut, t.code
        depths = Counter(nx.single_source_shortest_path_length(ng, 0).values())
        pairs = Counter(
            d for u, row in nx.all_pairs_shortest_path_length(ng) for v, d in row.items() if u < v
        )
        for poly, counts in ((t.depths, depths), (t.pairs, pairs)):
            decoded = graphs._coefficients(poly, t.size, 8)
            assert decoded == tuple(counts[d] for d in range(t.size)), t.code


def test_rooted_tree_automorphisms_sum_to_cayley():
    """Every rooted tree on at most 14 vertices: m! / |Aut| counts its
    labelings, and over the trees on m vertices these add up to the m^(m-1)
    rooted labeled trees (Cayley), so no |Aut| is off, past networkx's reach."""
    trees = enumeration._rooted_trees(14, 8)
    assert len(trees) == 53272  # A000081 summed over sizes 1..14
    labelings = Counter()
    for t in trees:
        count, rest = divmod(math.factorial(t.size), t.aut)
        assert rest == 0, t.code
        labelings[t.size] += count
    assert labelings == {m: m ** (m - 1) for m in range(1, 15)}


def test_free_trees_from_the_rooted_table():
    """Every free tree on at most 14 vertices from the rooted-tree table: a
    centred tree is one rooted tree at its centre, where its pair diameter
    is twice its depth; a bicentred tree is an unordered pair of rooted
    trees of equal depth joined at their roots, the central edge, its |Aut|
    doubled when the two are the same tree.  The counts are A000055, and
    m! / |Aut| adds up to the m^(m-2) labeled trees (Cayley): a second route
    to the tree sweep's ``trees``."""
    width = 8
    by_root: dict[tuple[int, int], list] = {}  # (size, depth): the rooted trees
    free, labelings = Counter(), Counter()
    for t in enumeration._rooted_trees(14, width):
        depths, pairs = (graphs._coefficients(p, t.size, width) for p in (t.depths, t.pairs))
        depth = max(d for d, c in enumerate(depths) if c)
        if max((d for d, c in enumerate(pairs) if c), default=0) == 2 * depth:
            free[t.size] += 1
            labelings[t.size] += math.factorial(t.size) // t.aut
        by_root.setdefault((t.size, depth), []).append(t)
    for (a, depth), halves in by_root.items():
        for b in range(a, 15 - a):
            others = by_root.get((b, depth), [])
            pairs = (
                itertools.combinations_with_replacement(halves, 2)
                if a == b
                else itertools.product(halves, others)
            )
            for x, y in pairs:
                free[a + b] += 1
                labelings[a + b] += math.factorial(a + b) // (x.aut * y.aut * (1 + (x is y)))
    assert free == dict(enumerate(A000055, start=1))
    assert labelings == {m: m ** max(m - 2, 0) for m in range(1, 15)}
    for n in range(2, 8):
        assert scan_tree_path_property(n).trees == labelings[n]


def test_shards_take_every_kth_class():
    full = [key for _r, key, _aut, _c in iter_unicyclic_classes(8)]
    for k in (1, 2, 3, 7):
        for i in range(k):
            shard = [key for _r, key, _aut, _c in iter_unicyclic_classes(8, (i, k))]
            assert shard == full[i::k]


@pytest.mark.parametrize("shard", [(3, 3), (-1, 2), (0, 0)])
def test_bad_shard_refused_on_the_call(shard):
    with pytest.raises(ValueError, match="bad shard"):
        iter_unicyclic_classes(6, shard)


def test_unlabeled_representatives_are_the_canonical_form_representatives():
    reps = list(enumeration.enumerate_unicyclic_unlabeled(6))
    assert len(reps) == 13
    for g in reps:
        blob = enumeration.canonical_form(g)
        assert blob[0] == 6 and list(g.edges()) == list(zip(blob[1::2], blob[2::2]))
    assert not any(
        nx.is_isomorphic(oracles.to_nx(a), oracles.to_nx(b))
        for i, a in enumerate(reps)
        for b in reps[i + 1 :]
    )
