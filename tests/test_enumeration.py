import inspect
import itertools
import math
import pickle
import random
import sys
import textwrap
import types

import networkx as nx
import pytest

from wienerbounds import enumeration
from wienerbounds.enumeration import (
    EnumerationCapError,
    TreeScan,
    canonical_form,
    enumerate_unicyclic_labeled,
    enumerate_unicyclic_unlabeled,
    iter_unicyclic_edge_masks,
    prufer_to_tree,
    random_unicyclic,
    scan_tree_path_property,
)
from wienerbounds.families import cycle, path, star, tadpole, triangle_star
from wienerbounds.graphs import Graph, GraphError, is_unicyclic, relabel

import oracles


def naive_prufer_decode(seq):
    """Textbook decode: repeatedly join the smallest leaf to the next label."""
    n = len(seq) + 2
    deg = [1] * n
    for s in seq:
        deg[s] += 1
    edges = []
    seq = list(seq)
    while seq:
        leaf = min(v for v in range(n) if deg[v] == 1)
        s = seq.pop(0)
        edges.append((min(leaf, s), max(leaf, s)))
        deg[leaf] -= 1
        deg[s] -= 1
    last = [v for v in range(n) if deg[v] == 1]
    edges.append((last[0], last[1]))
    return sorted(edges)


def witness_step(seq, order, n):
    """The first step of a decode, given its leaf order, that joins a second
    pendant path (each vertex below it has at most one child) to one vertex,
    or None: the step at which the sweep finds its witness."""
    children = [[] for _ in range(n)]
    for step, (leaf, s) in enumerate(zip(order, seq)):
        children[s].append(leaf)
        pendant = 0
        for v in children[s]:
            while len(children[v]) == 1:
                v = children[v][0]
            pendant += not children[v]
        if pendant >= 2:
            return step
    return None


def first_repeat(seq):
    """The second place of the first label to repeat in seq, or None."""
    seen = set()
    for step, s in enumerate(seq):
        if s in seen:
            return step
        seen.add(s)
    return None


def rank_sequence(rank, n, length):
    """The sequence of ``length`` labels below n at ``rank``: its base-n digits."""
    return tuple(rank // n**p % n for p in reversed(range(length)))


def past_the_ranks(count):
    """Shards (i, k) with k >= count ranks, each of which holds rank i alone, or nothing."""
    strides = [count, count + 1, sys.maxsize, sys.maxsize + 1, 10**20]
    ranks = (0, 4, 5, count - 1, count)
    return [pytest.param((i, k), id=f"{i}/{k}") for k in strides for i in ranks if i < k]


def reported_in_one_shard(scan, bad):
    """``scan(6)`` reports the trees ``bad`` alone, and for each k <= 4 exactly
    one shard i/k reports them, the others nothing; the shards merge to it."""
    serial = scan(6)
    assert serial == TreeScan(6, 6**4, math.factorial(6) // 2, bad)
    for k in range(1, 5):
        shards = [scan(6, shard=(i, k)) for i in range(k)]
        assert sorted(s.violations for s in shards) == [()] * (k - 1) + [bad], (bad, k)
        merged = shards[0]
        for s in shards[1:]:
            merged = merged.merged(s)
        assert merged == serial


class TestPrufer:
    def test_empty_sequence(self):
        assert list(prufer_to_tree([]).edges()) == [(0, 1)]

    def test_repeated_center_is_star(self):
        assert prufer_to_tree([0, 0]) == star(4)

    def test_path_sequence(self):
        assert prufer_to_tree([1, 2]) == path(4)

    def test_matches_naive_decode_exhaustively(self):
        for n in (4, 5, 6):
            for seq in itertools.product(range(n), repeat=n - 2):
                got = sorted(prufer_to_tree(seq).edges())
                assert got == naive_prufer_decode(seq), seq

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            prufer_to_tree([4, 0])


class TestLabeledEnumeration:
    def test_triangle_only_for_n3(self):
        graphs = list(enumerate_unicyclic_labeled(3))
        assert len(graphs) == 1 and graphs[0] == cycle(3)

    @pytest.mark.parametrize("n,count", [(4, 15), (5, 222), (6, 3660)])
    def test_counts_and_edge_sets_match_bruteforce(self, n, count):
        expected = set(oracles.all_connected_n_edge_graphs(n))
        got = [frozenset(g.edges()) for g in enumerate_unicyclic_labeled(n)]
        assert len(got) == len(set(got)) == count
        assert set(got) == expected

    @pytest.mark.parametrize("shard", [None, (0, 3), (1, 3), (2, 3)])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_stream_matches_its_definition(self, n, shard):
        # masks, cycle lengths and order, against tree + chord via networkx
        assert list(iter_unicyclic_edge_masks(n, shard)) == oracles.unicyclic_stream(n, shard)

    def test_cycle_length_sum_identity(self):
        # each graph arises from one (tree, chord) pair per cycle edge
        for n in range(3, 8):
            total = 0
            for _masks, cyclen in iter_unicyclic_edge_masks(n):
                total += cyclen
            pairs = n ** (n - 2) * (n * (n - 1) // 2 - (n - 1))
            assert total == pairs

    def test_everything_emitted_is_unicyclic(self):
        for n in range(3, 7):
            for g in enumerate_unicyclic_labeled(n):
                assert is_unicyclic(g)

    def test_shards_partition_the_stream(self):
        full = [frozenset(g.edges()) for g in enumerate_unicyclic_labeled(5)]
        sharded = []
        for i in range(3):
            sharded.extend(
                frozenset(g.edges()) for g in enumerate_unicyclic_labeled(5, shard=(i, 3))
            )
        assert sorted(map(sorted, sharded)) == sorted(map(sorted, full))
        assert len(sharded) == len(full)

    def test_cap_refusal_names_cap(self):
        with pytest.raises(EnumerationCapError, match="cap 9"):
            next(iter(enumerate_unicyclic_labeled(10)))

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            next(iter(enumerate_unicyclic_labeled(2)))

    @pytest.mark.parametrize("n", [2, 10, 22])
    @pytest.mark.parametrize("entry", [iter_unicyclic_edge_masks, enumerate_unicyclic_labeled])
    def test_bad_n_refused_on_the_call_not_on_the_first_next(self, entry, n):
        message = "n >= 3" if n < 3 else f"n={n} exceeds the enumeration cap 9"
        with pytest.raises(ValueError, match=message):
            entry(n)

    @pytest.mark.parametrize("n", [2, enumeration.MAX_CLASS_N + 1, 22])
    @pytest.mark.parametrize(
        "entry", [enumeration.iter_unicyclic_classes, enumerate_unicyclic_unlabeled]
    )
    def test_class_engine_refuses_bad_n_on_the_call(self, monkeypatch, entry, n):
        def no_trees(*args, **kwargs):
            raise AssertionError("a rooted tree was built")

        monkeypatch.setattr(enumeration, "_rooted_trees", no_trees)
        cap = enumeration.MAX_CLASS_N
        message = "n >= 3" if n < 3 else f"n={n} exceeds the class-engine cap {cap}"
        with pytest.raises(ValueError, match=message):
            entry(n)  # the call alone, never iterated

    def test_bad_shard_refused_on_the_call(self):
        with pytest.raises(ValueError, match="bad shard"):
            iter_unicyclic_edge_masks(5, (3, 3))

    @pytest.mark.parametrize("shard", past_the_ranks(6**4))
    def test_a_shard_past_the_ranks_holds_rank_i_alone(self, shard):
        # islice overflowed once i + k passed sys.maxsize, and refused a k above it
        i, _k = shard
        seqs = [rank_sequence(i, 6, 4)] if i < 6**4 else []
        expected = list(enumeration._chord_closures(6, seqs))
        assert list(iter_unicyclic_edge_masks(6, shard)) == expected

    def test_cap_error_survives_a_pickle_round_trip(self):
        # a worker's exception reaches the parent process pickled
        with pytest.raises(EnumerationCapError) as info:
            iter_unicyclic_edge_masks(10)
        back = pickle.loads(pickle.dumps(info.value))
        assert type(back) is EnumerationCapError and back.args == info.value.args


class TestCanonicalForms:
    def test_cycle_relabeling(self):
        assert canonical_form(cycle(4)) == canonical_form(relabel(cycle(4), [2, 0, 3, 1]))

    def test_invariance_under_random_relabelings(self):
        rng = random.Random(2024)
        samples = [cycle(8), cycle(9), tadpole(4, 9), triangle_star(9), path(7), star(8)]
        # vertex 3 hangs off the triangle and carries a 2-path and a cherry:
        # two subtrees of one height whose codes must be sorted to compare
        edges = [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (4, 5), (3, 6), (6, 7), (6, 8)]
        samples.append(Graph.from_edges(9, edges))
        samples += [random_unicyclic(rng.randrange(5, 10), rng) for _ in range(10)]
        for g in samples:
            base = canonical_form(g)
            for _ in range(20):
                perm = list(range(g.n))
                rng.shuffle(perm)
                assert canonical_form(relabel(g, perm)) == base

    def test_distinguishes_non_isomorphic(self):
        assert canonical_form(cycle(6)) != canonical_form(tadpole(3, 6))
        assert canonical_form(tadpole(4, 6)) != canonical_form(tadpole(5, 6))
        assert canonical_form(path(5)) != canonical_form(star(5))

    def test_agrees_with_networkx_pairwise(self):
        rng = random.Random(11)
        graphs = [random_unicyclic(6, rng) for _ in range(12)]
        for g1, g2 in itertools.combinations(graphs, 2):
            ours = canonical_form(g1) == canonical_form(g2)
            theirs = nx.is_isomorphic(oracles.to_nx(g1), oracles.to_nx(g2))
            assert ours == theirs

    def test_bytes_decode_to_an_isomorphic_copy(self):
        g = tadpole(5, 8)
        blob = canonical_form(g)
        n = blob[0]
        edges = [(blob[i], blob[i + 1]) for i in range(1, len(blob), 2)]
        assert canonical_form(Graph.from_edges(n, edges)) == canonical_form(g)

    @pytest.mark.parametrize("n,classes", [(2, 1), (3, 1), (4, 2), (5, 3), (6, 6), (7, 11)])
    def test_free_tree_counts(self, n, classes):
        # OEIS A000055: unlabeled trees on n vertices, from all n^(n-2) labeled ones
        forms = {
            canonical_form(prufer_to_tree(seq))
            for seq in itertools.product(range(n), repeat=n - 2)
        }
        assert len(forms) == classes

    @pytest.mark.parametrize(
        "n,edges",
        [
            (4, [(0, 1), (2, 3)]),  # too few edges
            (4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]),  # too many edges
            (4, [(0, 1), (1, 2), (0, 2)]),  # n - 1 edges: a triangle and a lone vertex
            (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),  # two triangles
            (6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (4, 5)]),  # two cycles and an edge
            (5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]),  # two cycles and a lone vertex
        ],
    )
    def test_rejects_graphs_outside_the_domain(self, n, edges):
        with pytest.raises(GraphError, match="at most one cycle"):
            canonical_form(Graph.from_edges(n, edges))

    def test_vertex_limit_is_checked_before_any_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the class key was computed")

        monkeypatch.setattr(enumeration, "class_key", no_work)
        with pytest.raises(GraphError, match="at most 255 vertices"):
            canonical_form(path(300))

    def test_largest_byte_sized_graph(self):
        blob = canonical_form(path(255))
        assert blob[0] == 255 and len(blob) == 1 + 2 * 254


class TestUnlabeledEnumeration:
    def test_n3_one_class(self):
        assert list(enumerate_unicyclic_unlabeled(3)) == [cycle(3)]

    def test_n4_two_classes(self):
        assert len(list(enumerate_unicyclic_unlabeled(4))) == 2

    def test_n5_five_classes(self):
        reps = list(enumerate_unicyclic_unlabeled(5))
        assert len(reps) == 5
        # independent grouping of the labeled stream by networkx isomorphism
        nx_reps = []
        for g in enumerate_unicyclic_labeled(5):
            ng = oracles.to_nx(g)
            if not any(nx.is_isomorphic(ng, r) for r in nx_reps):
                nx_reps.append(ng)
        assert len(nx_reps) == 5

    def test_n6_thirteen_classes(self):
        assert len(list(enumerate_unicyclic_unlabeled(6))) == 13

    def test_n7_thirtythree_classes(self):
        # 1, 2, 5, 13, 33 classes for n = 3..7
        assert len(list(enumerate_unicyclic_unlabeled(7))) == 33

    def test_representatives_pairwise_distinct(self):
        reps = list(enumerate_unicyclic_unlabeled(5))
        for g1, g2 in itertools.combinations(reps, 2):
            assert not nx.is_isomorphic(oracles.to_nx(g1), oracles.to_nx(g2))


class TestRandomUnicyclic:
    def test_samples_are_unicyclic(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randrange(3, 10)
            g = random_unicyclic(n, rng)
            assert g.n == n and is_unicyclic(g)

    def test_deterministic_for_fixed_seed(self):
        assert random_unicyclic(7, random.Random(9)) == random_unicyclic(7, random.Random(9))


class TestTreeScan:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_totals_and_no_violations(self, n):
        scan = scan_tree_path_property(n)
        assert scan.trees == n ** (n - 2)
        assert scan.paths == (1 if n == 2 else math.factorial(n) // 2)
        assert scan.violations == ()

    def test_sharded_merge_matches_full(self):
        full = scan_tree_path_property(6)
        merged = scan_tree_path_property(6, shard=(0, 4))
        for i in range(1, 4):
            merged = merged.merged(scan_tree_path_property(6, shard=(i, 4)))
        assert merged == full

    @pytest.mark.parametrize("shard", past_the_ranks(6**3))
    def test_a_shard_past_the_heads_holds_head_i_alone(self, shard):
        i, _k = shard
        if i < 6**3:
            paths = 3 * (len(set(rank_sequence(i, 6, 3))) == 3)  # 3 fresh lasts of distinct labels
            assert scan_tree_path_property(6, shard) == TreeScan(6, 6, paths, ())
        else:
            assert scan_tree_path_property(6, shard) == TreeScan(6, 0, 0, ())

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_the_first_witness_is_the_first_repeat(self, n):
        # the lemma in scan_tree_path_property's docstring, on the least-leaf
        # decode of every head (n - 3 labels) and every sequence (n - 2)
        for length in (n - 3, n - 2):
            for seq in itertools.product(range(n), repeat=length):
                order = oracles.prufer_leaf_order(seq, n)
                assert witness_step(seq, order, n) == first_repeat(seq), seq

    @pytest.mark.parametrize("n", [6, 7])
    def test_the_first_witness_does_not_depend_on_the_leaf_order(self, n):
        # each decode takes the leaf that a seeded random ranking of the
        # vertices puts first, not the least one
        rng = random.Random(n)
        for _ in range(4):
            rank = list(range(n))
            rng.shuffle(rank)
            for head in itertools.product(range(n), repeat=n - 3):
                order = oracles.prufer_leaf_order(head, n, key=rank.__getitem__)
                assert witness_step(head, order, n) == first_repeat(head), (head, rank)

    def test_merge_rejects_mixed_n(self):
        with pytest.raises(ValueError):
            TreeScan(4, 1, 1, ()).merged(TreeScan(5, 1, 1, ()))

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_terminal_branches_match_the_bfs_oracle(self, n):
        for seq in itertools.product(range(n), repeat=n - 2):
            report = oracles.bfs_major_vertex_report(prufer_to_tree(seq))
            if len(set(seq)) == n - 2:  # a path: the sweep counts it without the check
                assert not report.majors, seq
                continue
            deg = [1] * n
            for s in seq:
                deg[s] += 1
            first = deg.index(1)  # the least leaf: the whole decode, from step 0
            witness = enumeration._terminal_branches(
                seq[:-1], 0, seq[-1], deg, deg, [0] * n, first, first
            )
            assert witness in report.multi_terminal_majors, seq
            assert witness == seq[first_repeat(seq)], seq

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_each_tree_resumes_the_head_decode_where_it_leaves_it(self, monkeypatch, n):
        # Against the oracle decodes: only heads of distinct labels send
        # trees to _terminal_branches.  Each tree sent at step j takes the
        # head's leaves before j, leaves the head's decode at j (or never, at
        # the last step), resumes at its own leaf there and gets its last
        # label, its first repeat, as its witness.  No tree of a repeating
        # head is sent: its first witness is the head's first repeat.
        check = enumeration._terminal_branches
        sent = {}

        def spy(head, j, last, deg, left, bare, ptr, leaf):
            witness = check(head, j, last, deg, left, bare, ptr, leaf)
            sent.setdefault((*head, last), []).append((j, leaf, witness))
            return witness

        monkeypatch.setattr(enumeration, "_terminal_branches", spy)
        assert scan_tree_path_property(n).violations == ()
        wrong = []
        for seq in itertools.product(range(n), repeat=n - 2):
            head, last = seq[:-1], seq[-1]
            if first_repeat(seq) is None:  # a path: counted without a decode
                if seq in sent:
                    wrong.append(seq)
                continue
            order = oracles.prufer_leaf_order(seq, n)
            step = witness_step(seq, order, n)
            if first_repeat(head) is not None:  # decided by the head's decode
                if seq in sent or step != first_repeat(head):
                    wrong.append(seq)
                continue
            if len(sent.get(seq, ())) != 1:
                wrong.append(seq)
                continue
            # the head's own decode, and the leaf it would join to a last label
            taken = oracles.prufer_leaf_order(head, n)
            taken.append(min(set(range(n)) - set(taken)))
            ((j, leaf, witness),) = sent[seq]
            leaves_here = taken[j] == last or (j == n - 3 and last not in taken)
            if not (
                order[:j] == taken[:j]
                and leaves_here
                and order[j] == leaf
                and step == n - 3
                and witness == last
            ):
                wrong.append(seq)
        assert wrong == [], f"{len(wrong)} trees, first {wrong[:3]}"

    def test_a_rejected_tree_is_reported_in_one_shard(self, monkeypatch):
        # Each planted set, on heads of distinct labels, with the step at
        # which its trees leave the head's decode (3 = n - 3 is the last
        # step): a tree of the first such head; one the decode's scan takes,
        # not a label below ptr; a tree resumed at the last step; a tree its
        # head's decode never takes, decided by the last step alone, of the
        # last such head; and two trees of one head, resumed as 2 then 0 but
        # reported in (head, last) order.
        check = enumeration._terminal_branches
        planted = [
            {(0, 1, 2, 0): 1},
            {(0, 2, 4, 2): 2},
            {(0, 1, 2, 2): 3},
            {(5, 4, 3, 5): 3},
            {(2, 1, 0, 0): 3, (2, 1, 0, 2): 1},
        ]
        for steps in planted:
            seen = {}

            def rejecting(head, j, last, deg, left, bare, ptr, leaf, steps=steps, seen=seen):
                if (*head, last) in steps:
                    seen[(*head, last)] = j
                    return -1
                return check(head, j, last, deg, left, bare, ptr, leaf)

            monkeypatch.setattr(enumeration, "_terminal_branches", rejecting)
            reported_in_one_shard(scan_tree_path_property, tuple(sorted(steps)))
            assert seen == steps

    @pytest.mark.parametrize(
        "old, new, head",
        [
            # the witness moves to step 0, before the head's first repeat
            ("bare[s] += 1", "bare[s] += 1 + (head == PLANTED and j == 0)", (1, 1, 2)),
            # the decode misses its witness, and finds none later
            ("if bare[s] == 2:", "if bare[s] == 2 and head != PLANTED:", (3, 0, 3)),
            # a head of distinct labels gets a witness, after its tree
            # (0, 1, 2, 0) resumed at step 1 and was rejected
            ("bare[s] += 1", "bare[s] += 1 + (head == PLANTED and j == 2)", (0, 1, 2)),
        ],
        ids=["moved", "missed", "distinct"],
    )
    def test_a_head_off_its_first_repeat_reports_all_its_trees(self, old, new, head):
        # a source mutant of the sweep whose decode of one head breaks the
        # lemma: that head decides none of its n trees, and reports each
        # once, its tree (*head, head[0]) too if it was sent and rejected
        check = enumeration._terminal_branches

        def rejecting(head_, j, last, *state):
            return -1 if (*head_, last) == (*head, head[0]) else check(head_, j, last, *state)

        source = textwrap.dedent(inspect.getsource(scan_tree_path_property))
        assert source.count(old) == 1
        namespace = {**vars(enumeration), "PLANTED": head, "_terminal_branches": rejecting}
        exec(compile(source.replace(old, new), enumeration.__file__, "exec"), namespace)
        bad = tuple((*head, last) for last in range(6))
        reported_in_one_shard(namespace["scan_tree_path_property"], bad)

    @pytest.mark.parametrize("n", [10, 22])
    def test_keeps_the_labeled_cap(self, monkeypatch, n):
        def no_sequences(*args, **kwargs):
            raise AssertionError("a Prufer sequence or head was generated")

        # the product and slice that ``_ranked`` draws every sequence and head from
        monkeypatch.setattr(
            enumeration, "itertools", types.SimpleNamespace(product=no_sequences, islice=no_sequences)
        )
        with pytest.raises(EnumerationCapError, match=f"n={n} exceeds the enumeration cap 9"):
            scan_tree_path_property(n)
