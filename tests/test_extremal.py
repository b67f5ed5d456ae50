import itertools
import math
import random
import re
import subprocess
import sys

import pytest

from wienerbounds import extremal
from wienerbounds.closed_forms import tadpole_closed_form, triangle_star_closed_form
from wienerbounds.enumeration import (
    MAX_CLASS_N,
    canonical_form,
    class_key,
    enumerate_unicyclic_unlabeled,
    random_unicyclic,
)
from wienerbounds.extremal import (
    NonMonotoneWeightError,
    ProofMoveError,
    apply_tail_rebalance,
    apply_terminal_merge,
    check_f3_dominance,
    local_search_max,
    scan_extremes,
    verify_theorem,
    verify_theorem_many,
)
from wienerbounds.families import cycle, star, tadpole, triangle_star
from wienerbounds.graphs import (
    DisconnectedGraphError,
    Graph,
    bfs_distances,
    distance_distribution,
    find_cycle,
    is_unicyclic,
    major_vertex_report,
)
from wienerbounds.indices import generalized_wiener, wiener
from wienerbounds.weights import (
    PowerWeight,
    QWienerWeight,
    TableWeight,
    WeightFunction,
    parse_weight_spec,
)


def keys(g: Graph) -> set:
    """The class key of ``g``, as the one-element set a scan side holds."""
    return {class_key(g.n, g.adjacency_masks())}


class TestVerifyTheorem:
    def test_n6_identity_weight(self):
        report = verify_theorem(6, PowerWeight(1))
        assert report.min_value.value == 24
        assert report.max_value.value == 31
        assert report.summary.graphs_scanned == 3660
        assert report.scan.argmin_count == 60
        assert report.scan.argmax_count == 360
        assert report.scan.lo.classes == keys(triangle_star(6))
        assert report.scan.hi.classes == keys(tadpole(3, 6))
        assert report.claims_ok() is True

    def test_n6_squared_weight(self):
        report = verify_theorem(6, PowerWeight(2))
        assert report.min_value.value == 42
        assert report.max_value.value == 81
        assert report.claims_ok() is True

    def test_n6_decreasing_swaps_direction(self):
        report = verify_theorem(6, PowerWeight(-1))
        assert report.claims_ok() is True
        assert report.scan.lo.classes == keys(tadpole(3, 6))
        assert report.scan.hi.classes == keys(triangle_star(6))
        assert report.expected_min.value == pytest.approx(
            tadpole_closed_form(3, 6, PowerWeight(-1)).value
        )

    def test_n6_q_bracket(self):
        report = verify_theorem(6, QWienerWeight(2.0, 1))
        assert report.claims_ok() is True

    def test_n6_inverse_square(self):
        report = verify_theorem(6, PowerWeight(-2))
        assert report.claims_ok() is True
        assert report.scan.hi.classes == keys(triangle_star(6))

    def test_n6_damped_q_kernel_with_fixed_diameter(self):
        # [k]_2 * 2^(4-k) = 16 - 2^(4-k): strictly increasing in k
        report = verify_theorem(6, QWienerWeight(2.0, 2, diameter=4))
        assert report.monotonicity.value == "strictly-increasing"
        assert report.claims_ok() is True

    def test_n3_has_single_graph(self):
        report = verify_theorem(3, PowerWeight(1))
        assert report.summary.graphs_scanned == 1
        assert report.min_value.value == report.max_value.value == 3
        assert report.applicable is False

    def test_small_n_not_applicable(self):
        report = verify_theorem(5, PowerWeight(1))
        assert report.applicable is False
        assert report.claims_ok() is None
        assert report.summary.graphs_scanned == 222
        assert report.expected_min is None

    def test_refuses_non_monotone(self):
        with pytest.raises(NonMonotoneWeightError):
            verify_theorem(6, PowerWeight(0))
        with pytest.raises(NonMonotoneWeightError):
            verify_theorem(6, TableWeight((1.0, 1.0, 2.0, 3.0)))

    def test_shards_scan_their_classes_and_check_no_claim(self):
        full = verify_theorem(6, PowerWeight(1))
        parts = [verify_theorem(6, PowerWeight(1), shard=(i, 3)) for i in range(3)]
        assert all(p.applicable is False and p.claims_ok() is None for p in parts)
        assert sum(p.summary.graphs_scanned for p in parts) == full.summary.graphs_scanned
        merged = parts[0].scan.merged(parts[1].scan).merged(parts[2].scan)
        assert merged == full.scan

    def test_many_matches_single(self):
        many = verify_theorem_many(6, [PowerWeight(1), PowerWeight(2)])
        assert many[0].min_value.value == 24
        assert many[1].max_value.value == 81
        assert all(r.claims_ok() for r in many)

    @pytest.mark.parametrize("n", [2, 10, 22])
    def test_bad_n_refused_before_any_table_or_worker(self, monkeypatch, n):
        import multiprocessing

        def forbidden(*args, **kwargs):
            raise AssertionError("a weight table or a process context was requested")

        monkeypatch.setattr(extremal, "_weight_tables", forbidden)
        monkeypatch.setattr(multiprocessing, "get_context", forbidden)
        h = PowerWeight(1)
        for call in (
            lambda: scan_extremes(n, [h]),
            lambda: scan_extremes(n, [h], (0, 2)),
            lambda: extremal.scan_extremes_parallel(n, [h], 2),
        ):
            with pytest.raises(ValueError, match="n >= 3" if n < 3 else "enumeration cap 9"):
                call()

    @pytest.mark.parametrize("n", [2, MAX_CLASS_N + 1, 22])
    def test_class_engine_refuses_bad_n_before_any_table_or_worker(self, monkeypatch, n):
        import multiprocessing

        from wienerbounds import enumeration

        def forbidden(*args, **kwargs):
            raise AssertionError("a table, a tree or a process context was requested")

        monkeypatch.setattr(extremal, "_weight_tables", forbidden)
        monkeypatch.setattr(enumeration, "_rooted_trees", forbidden)
        monkeypatch.setattr(multiprocessing, "get_context", forbidden)
        h = PowerWeight(1)
        for call in (
            lambda: extremal.scan_classes(n, [h]),
            lambda: extremal.scan_classes(n, [h], (0, 2)),
            lambda: verify_theorem_many(n, [h], jobs=2),
            lambda: verify_theorem_many(n, [h], jobs=1),
        ):
            with pytest.raises(
                ValueError, match="n >= 3" if n < 3 else f"class-engine cap {MAX_CLASS_N}"
            ):
                call()

    def test_importing_the_package_does_not_import_multiprocessing(self):
        """Only a fan-out over workers needs it, and verify below
        CLASS_FANOUT_MIN_N never fans out."""
        probe = "import sys, wienerbounds.cli; print('multiprocessing' in sys.modules)"
        r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert (r.returncode, r.stdout) == (0, "False\n")

    def test_parallel_matches_serial(self, monkeypatch):
        serial = verify_theorem(6, PowerWeight(1), jobs=1)
        monkeypatch.setattr(extremal, "CLASS_FANOUT_MIN_N", 6)  # fan n = 6 out
        parallel = verify_theorem(6, PowerWeight(1), jobs=2)
        assert serial == parallel

    def test_class_scan_forks_workers_only_from_the_fan_out_n(self, monkeypatch):
        import multiprocessing

        contexts = []
        real = multiprocessing.get_context

        def counted(method):
            contexts.append(method)
            return real(method)

        monkeypatch.setattr(multiprocessing, "get_context", counted)
        monkeypatch.setattr(extremal, "CLASS_FANOUT_MIN_N", 6)
        verify_theorem(5, PowerWeight(1), jobs=2)
        assert contexts == []  # below the fan-out n: in process
        verify_theorem(6, PowerWeight(1), jobs=2)
        assert contexts == ["fork"]
        verify_theorem(6, PowerWeight(1), jobs=1)
        assert contexts == ["fork"]

    def test_scan_extremes_against_per_pair_oracle(self):
        # recompute every n=5 value with networkx per-pair BFS and compare
        # the scanner's extremes and every field of both sides
        import oracles
        from wienerbounds.enumeration import enumerate_unicyclic_labeled

        values = {}
        for g in enumerate_unicyclic_labeled(5):
            values[tuple(g.adjacency_masks())] = sum(oracles.pair_distances(g).values())
        lo, hi = min(values.values()), max(values.values())
        sc = scan_extremes(5, [PowerWeight(1)]).per_weight[0]
        assert (sc.min_value, sc.max_value) == (lo, hi)
        for side, extreme in ((sc.lo, lo), (sc.hi, hi)):
            attaining = [m for m, v in values.items() if v == extreme]
            assert side.count == len(attaining)
            assert side.classes == {class_key(5, masks) for masks in attaining}
            assert class_key(5, side.example) in side.classes

    def test_shard_merge_matches_full(self):
        h = PowerWeight(1)
        full = scan_extremes(6, [h])
        merged = scan_extremes(6, [h], shard=(0, 3))
        for i in range(1, 3):
            merged = merged.merged(scan_extremes(6, [h], shard=(i, 3)))
        assert merged.graphs_scanned == full.graphs_scanned == 3660
        assert merged.cycle_length_sum == full.cycle_length_sum
        a, b = merged.per_weight[0], full.per_weight[0]
        assert (a.min_value, a.max_value) == (b.min_value, b.max_value)
        assert (a.argmin_count, a.argmax_count) == (b.argmin_count, b.argmax_count)
        assert sorted(a.argmin_masks) == sorted(b.argmin_masks)

    def test_merge_refuses_a_different_n_or_weight(self):
        part = extremal.scan_classes(5, [PowerWeight(1)])
        with pytest.raises(ValueError, match="cannot merge scans for different n"):
            part.merged(extremal.scan_classes(4, [PowerWeight(1)]))
        with pytest.raises(ValueError, match="cannot merge scans of different weights"):
            part.merged(extremal.scan_classes(5, [PowerWeight(2)]))
        with pytest.raises(ValueError, match="cannot merge scans of different weights"):
            part.per_weight[0].merged(extremal.scan_classes(5, [PowerWeight(-1)]).per_weight[0])

    @pytest.mark.parametrize("n, argmin, argmax", [(6, 60, 360), (7, 105, 2520)])
    def test_attaining_counts_are_orbit_sizes(self, n, argmin, argmax):
        # n!/|Aut|: |Aut(J_n)| = 2 (n-3)!, |Aut(F_3,n)| = 2
        sc = scan_extremes(n, [PowerWeight(1)]).per_weight[0]
        assert sc.argmin_count == math.factorial(n) // (2 * math.factorial(n - 3)) == argmin
        assert sc.argmax_count == math.factorial(n) // 2 == argmax

    def test_all_ties_report_every_class(self):
        # h(1) = 1, h(k > 1) = 0 scores every graph n, so both sides hold all of them
        sc = scan_extremes(6, [TableWeight((1.0, 0.0, 0.0, 0.0))]).per_weight[0]
        keys = {class_key(6, g.adjacency_masks()) for g in enumerate_unicyclic_unlabeled(6)}
        for side in (sc.lo, sc.hi):
            assert side.value == 6
            assert side.count == 3660
            assert len(side.classes) == 13
            assert set(side.classes) == keys

    def test_uniqueness_needs_the_full_orbit_of_the_expected_class(self):
        sc = scan_extremes(6, [PowerWeight(1)]).per_weight[0]
        unique = extremal._attained_by_class_only
        assert unique(6, sc.hi, tadpole(3, 6), 2) is True
        assert unique(6, sc.hi, triangle_star(6), 2 * math.factorial(3)) is False
        assert unique(6, sc.hi, tadpole(3, 6), 1) is False  # count != 6!/1


class LargestArgument(WeightFunction):
    """h(k) = k, exact, remembering the largest k it was asked for."""

    exact = True
    description = "largest-argument"

    def __init__(self):
        self.top = 0

    def __call__(self, k: int) -> int:
        self.top = max(self.top, k)
        return k


class TestDiameterRule:
    """Every weight check runs on 1..max(2, n - 2), the distances of a
    unicyclic graph on n vertices, and nothing reads a distance past it."""

    def test_closed_forms_read_no_distance_past_the_unicyclic_diameter(self):
        for n in range(3, 41):
            h = LargestArgument()
            for r in range(3, n + 1):
                tadpole_closed_form(r, n, h)
            if n >= 4:
                triangle_star_closed_form(n, h)
            assert h.top == n - 2, n  # F_{3,n} reads its tail's end, and no form reads past it

    def test_the_sweep_checks_exactly_the_distances_its_closed_forms_read(self):
        for n_max in range(1, 13):
            h = LargestArgument()
            check_f3_dominance(n_max, h)
            assert h.top == max(2, n_max - 2), n_max

    def test_verify_checks_exactly_the_distances_of_its_scan(self):
        for n in range(3, 9):
            h = LargestArgument()
            verify_theorem(n, h)
            assert h.top == max(2, n - 2), n


class TestDominanceSweep:
    def test_identity_weight_only_boundary_pair_fails(self):
        results = check_f3_dominance(30, PowerWeight(1))
        violations = [(r, n) for r, n, ok in results if not ok]
        assert violations == [(4, 4)]

    @pytest.mark.parametrize("exponent", [2, -1, -2])
    def test_other_strict_weights(self, exponent):
        results = check_f3_dominance(20, PowerWeight(exponent))
        violations = [(r, n) for r, n, ok in results if not ok]
        assert violations == [(4, 4)]

    def test_boundary_pair_is_an_exact_tie(self):
        # the 4-cycle and the triangle with one pendant share the distance
        # distribution {1: 4, 2: 2}, so no strict comparison can separate them
        assert distance_distribution(cycle(4)).counts == {1: 4, 2: 2}
        assert distance_distribution(tadpole(3, 4)).counts == {1: 4, 2: 2}
        for h in (PowerWeight(1), PowerWeight(-2), QWienerWeight(0.5, 1)):
            assert (
                tadpole_closed_form(3, 4, h).value == tadpole_closed_form(4, 4, h).value
            )

    def test_not_monotone_in_cycle_length(self):
        h = PowerWeight(1)
        f12 = tadpole_closed_form(12, 13, h).value
        f11 = tadpole_closed_form(11, 13, h).value
        assert f12 - f11 == 5 > 0

    def test_empty_below_four(self):
        assert check_f3_dominance(3, PowerWeight(1)) == []

    def test_refuses_non_monotone(self):
        with pytest.raises(NonMonotoneWeightError):
            check_f3_dominance(10, PowerWeight(0))


class TestTerminalMerge:
    def test_hand_example_on_triangle_star(self):
        g = triangle_star(6)
        moved = apply_terminal_merge(g, 0, 3, 4)
        assert sorted(moved.edges()) == [(0, 1), (0, 2), (0, 4), (0, 5), (1, 2), (3, 4)]
        assert wiener(moved).value > wiener(g).value
        assert is_unicyclic(moved) and moved.n == g.n

    def test_rejects_without_major(self):
        with pytest.raises(ProofMoveError):
            apply_terminal_merge(cycle(5), 0, 1, 2)

    def test_rejects_non_terminal(self):
        g = tadpole(3, 7)  # single tail: vertex 0 has exactly one terminal
        with pytest.raises(ProofMoveError):
            apply_terminal_merge(g, 0, 6, 5)

    def test_random_merges_strictly_increase(self):
        rng = random.Random(314)
        h = PowerWeight(1)
        done = 0
        while done < 120:
            g = random_unicyclic(rng.randrange(5, 10), rng)
            report = major_vertex_report(g)
            if not report.multi_terminal_majors:
                continue
            w = rng.choice(sorted(report.multi_terminal_majors))
            u1, u2 = rng.sample(report.terminals[w], 2)
            moved = apply_terminal_merge(g, w, u1, u2)
            assert moved.n == g.n and is_unicyclic(moved)
            assert generalized_wiener(moved, h).value > generalized_wiener(g, h).value
            done += 1

    def test_rejects_equal_terminals(self):
        with pytest.raises(ProofMoveError, match="^the two terminal vertices must differ$"):
            apply_terminal_merge(triangle_star(6), 0, 3, 3)

    @pytest.mark.parametrize("w", [6, -6])
    def test_rejects_w_outside_the_graph(self, w):
        with pytest.raises(ProofMoveError, match=f"vertex {w} out of range for n=6"):
            apply_terminal_merge(triangle_star(6), w, 3, 4)

    def test_disconnected_input_raises(self):
        g = Graph.from_edges(7, [(0, 1), (0, 2), (0, 3), (1, 2), (5, 6)])
        with pytest.raises(DisconnectedGraphError):
            apply_terminal_merge(g, 0, 3, 4)

    def test_checks_only_its_two_vertices(self, monkeypatch):
        """The merge walks u1 and u2 to w itself: local search builds one
        major-vertex report per step, not a second one inside each merge."""
        calls = []
        real = extremal.major_vertex_report
        monkeypatch.setattr(extremal, "major_vertex_report", lambda g: calls.append(g) or real(g))
        rng = random.Random(1)
        moves = []
        searches = 5
        for _ in range(searches):
            local_search_max(
                random_unicyclic(40, rng), PowerWeight(1), on_move=lambda m, a, b: moves.append(m)
            )
        # one report per move, and one more per search for the step that stops
        assert len(calls) == len(moves) + searches


class TestTailRebalance:
    def test_two_tail_merge(self):
        g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (2, 6)])
        out = apply_tail_rebalance(g, 0, 2)
        assert is_unicyclic(out) and out.n == 7
        assert wiener(out).value == 48 > 46 == wiener(g).value
        # one tail absorbed the other: a single degree-3 vertex remains
        assert sum(1 for v in range(7) if out.degree(v) == 3) == 1

    def test_unbalanced_shift_case(self):
        # third tail at vertex 3 skews the outside distance sums
        g = Graph.from_edges(
            10,
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
             (0, 5), (5, 6), (6, 7),   # long tail at 0
             (2, 8),                   # short tail at 2
             (3, 9)],                  # extra tail, not part of the pair
        )
        d = {
            v: sum(x for i, x in enumerate(bfs_distances(g, v)) if i in (1, 3, 4, 9))
            for v in (0, 2)
        }
        assert d[0] != d[2]
        out = apply_tail_rebalance(g, 0, 2)
        assert is_unicyclic(out) and out.n == 10
        assert wiener(out).value > wiener(g).value

    def test_random_rebalances_strictly_increase(self):
        rng = random.Random(2718)
        done = 0
        while done < 60:
            g = random_unicyclic(rng.randrange(6, 10), rng)
            cyc = set(find_cycle(g).vertices)
            deg3 = sorted(
                v for v in cyc
                if g.degree(v) == 3 and not major_vertex_report(g).multi_terminal_majors
            )
            ok_tails = []
            for v in deg3:
                try:
                    from wienerbounds.extremal import _cycle_tail

                    _cycle_tail(g, v, cyc)
                    ok_tails.append(v)
                except ProofMoveError:
                    pass
            if len(ok_tails) < 2:
                continue
            v1, v2 = rng.sample(ok_tails, 2)
            out = apply_tail_rebalance(g, v1, v2)
            assert is_unicyclic(out)
            assert wiener(out).value > wiener(g).value
            done += 1

    def test_rejects_degree_mismatch(self):
        with pytest.raises(ProofMoveError):
            apply_tail_rebalance(tadpole(4, 6), 0, 1)

    # a triangle 0-1-2 with a tail 1-6 and a branching tail 0-3, 3-4, 3-5
    BRANCHED = Graph.from_edges(7, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (3, 5), (1, 6)])

    @pytest.mark.parametrize(
        "g, v1, v2, message",
        [
            (star(4), 0, 1, "tail rebalance needs a unicyclic graph"),
            (BRANCHED, 1, 1, "vertices 1, 1 must be distinct cycle vertices"),
            (BRANCHED, 1, 3, "vertices 1, 3 must be distinct cycle vertices"),
            (BRANCHED, 0, 1, "tail at vertex 0 is not a path"),
        ],
        ids=["tree", "same-vertex", "off-cycle", "branching-tail"],
    )
    def test_refusals(self, g, v1, v2, message):
        with pytest.raises(ProofMoveError, match=f"^{re.escape(message)}$"):
            apply_tail_rebalance(g, v1, v2)


def tail_counts(g):
    """T_k, the number of vertex pairs at distance >= k, for k = 2..n - 1."""
    counts = distance_distribution(g).counts
    return {k: sum(c for d, c in counts.items() if d >= k) for k in range(2, g.n)}


def strictly_tail_dominates(new, old):
    """Every T_k of ``new`` is at least that of ``old`` and one is larger: by
    Abel summation, the index then grows under every increasing weight."""
    a, b = tail_counts(new), tail_counts(old)
    return all(a[k] >= b[k] for k in b) and a != b


# G12: the one class up to n = 12 where moving only the length excess of
# the nearer anchor's tail dropped T_5; the whole-tail move dominates
G12_KEY = ("((()))", "(())", "(())", "()", "((()))", "()")
G12_EDGES = [(0, 1), (0, 5), (0, 6), (1, 2), (1, 8), (2, 3), (2, 9), (3, 4), (4, 5), (4, 10),
             (6, 7), (10, 11)]

# the one search of the random-search recipe whose tail rebalance still fails:
# seed 1428 gives n = 36, and the move at (1, 5) drops the index under q3:1.5
RESIDUAL_SEED = 1428


def recipe_graph(seed: int) -> Graph:
    """The random-search recipe: ``Random(seed)``, n = randint(3, 44), then
    ``random_unicyclic(n, rng)``."""
    rng = random.Random(seed)
    return random_unicyclic(rng.randint(3, 44), rng)


def is_tadpole_shape(g: Graph) -> bool:
    """A cycle with at most one pendant path: no degree above 3 and at most
    one vertex of degree 3."""
    degs = g.degree_sequence()
    return is_unicyclic(g) and degs[0] <= 3 and degs.count(3) <= 1


class TestMovesOnClassRepresentatives:
    """Every move on every class representative, judged by tail dominance."""

    def test_every_terminal_merge_strictly_tail_dominates(self):
        merges = 0
        for n in range(4, 13):
            for g in enumerate_unicyclic_unlabeled(n):
                report = major_vertex_report(g)
                for w in sorted(report.multi_terminal_majors):
                    for u1, u2 in itertools.permutations(report.terminals[w], 2):
                        moved = apply_terminal_merge(g, w, u1, u2)
                        assert strictly_tail_dominates(moved, g), (n, g.edges(), w, u1, u2)
                        merges += 1
        assert merges == 46202

    def test_every_tail_rebalance_strictly_tail_dominates(self):
        pairs = {}
        for n in range(4, 15):
            pairs[n] = 0
            for g in enumerate_unicyclic_unlabeled(n):
                report = major_vertex_report(g)
                if report.multi_terminal_majors:
                    continue
                # with no two-terminal major, every major is a degree-3 cycle vertex
                cyc = set(find_cycle(g).vertices)
                assert all(v in cyc and g.degree(v) == 3 for v in report.majors), keys(g)
                for v1, v2 in itertools.combinations(sorted(report.majors), 2):
                    pairs[n] += 1
                    out = apply_tail_rebalance(g, v1, v2)
                    assert strictly_tail_dominates(out, g), (keys(g), (v1, v2))
        assert pairs == {
            4: 0, 5: 1, 6: 6, 7: 12, 8: 35, 9: 71, 10: 168, 11: 332, 12: 752, 13: 1515,
            14: 3299,
        }

    def test_the_old_length_excess_class_now_dominates(self):
        g = Graph.from_edges(12, G12_EDGES)
        assert class_key(12, g.adjacency_masks()) == G12_KEY
        out = apply_tail_rebalance(g, 0, 1)
        # the nearer anchor 0 moves its whole tail 0-6-7 beyond leaf 8 of 1-8
        assert sorted(out.edges()) == sorted(set(G12_EDGES) - {(0, 6)} | {(6, 8)})
        assert distance_distribution(g).counts == {1: 12, 2: 16, 3: 17, 4: 12, 5: 7, 6: 2}
        assert distance_distribution(out).counts == {
            1: 12, 2: 15, 3: 15, 4: 11, 5: 7, 6: 3, 7: 2, 8: 1
        }
        assert strictly_tail_dominates(out, g)


class TestRandomSearches:
    """Local search on the random-search recipe, under the weights that
    broke the length-excess move."""

    # seeds whose search failed a tail rebalance under the length-excess move
    FIXED_Q3 = [147, 390, 456, 484, 494, 498, 573, 683, 698, 786, 863, 964, 983, 1168,
                1232, 1235, 1240, 1257, 1289, 1448, 1492]
    FIXED_POWER2 = [498, 573, 964, 983]

    @pytest.mark.parametrize(
        "spec, seeds", [("q3:1.5", FIXED_Q3), ("power:2", FIXED_POWER2)], ids=["q3", "power2"]
    )
    def test_once_failing_seeds_reach_the_tadpole_shape(self, spec, seeds):
        h = parse_weight_spec(spec)
        for seed in seeds:  # local_search_max raises on a move that does not raise the index
            assert is_tadpole_shape(local_search_max(recipe_graph(seed), h)), seed

    def test_the_known_residual_still_fails(self):
        """No pair rule tested so far is complete: the whole-tail move also
        drops the index here, so the search reports it."""
        g = recipe_graph(RESIDUAL_SEED)
        assert g.n == 36
        with pytest.raises(ProofMoveError, match=r"^move tail-rebalance at \(1, 5\) "):
            local_search_max(g, parse_weight_spec("q3:1.5"))


class TestLocalSearch:
    def test_from_triangle_star(self):
        g = triangle_star(8)
        result = local_search_max(g, PowerWeight(1))
        assert is_unicyclic(result)
        assert wiener(result).value == tadpole_closed_form(3, 8, PowerWeight(1)).value
        assert canonical_form(result) == canonical_form(tadpole(3, 8))

    def test_already_tadpole_is_fixed_point(self):
        g = tadpole(5, 9)
        assert local_search_max(g, PowerWeight(1)) == g

    def test_random_seeds_reach_tadpole_shape(self):
        rng = random.Random(8080)
        h = PowerWeight(1)
        bound = tadpole_closed_form(3, 8, h).value
        target = canonical_form(tadpole(3, 8))
        for _ in range(20):
            g0 = random_unicyclic(8, rng)
            result = local_search_max(g0, h)
            degs = result.degree_sequence()
            assert degs[0] <= 3
            assert sum(1 for d in degs if d == 3) <= 1
            value = wiener(result).value
            assert value <= bound
            assert (value == bound) == (canonical_form(result) == target)

    def test_refuses_decreasing_weight(self):
        with pytest.raises(NonMonotoneWeightError):
            local_search_max(triangle_star(7), PowerWeight(-1))

    def test_move_trace_reports_strict_increases(self):
        trace = []
        local_search_max(
            triangle_star(8),
            PowerWeight(1),
            on_move=lambda m, a, b: trace.append((m.kind, a, b)),
        )
        assert trace
        assert all(b > a for _, a, b in trace)
        values = [a for _, a, _ in trace] + [trace[-1][2]]
        assert values == sorted(values)
