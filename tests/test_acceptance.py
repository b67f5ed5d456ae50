"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criterion 4 checks that the r = 3 closed form strictly
dominates every pair with 4 <= r <= n <= 30 except the corner r = n = 4,
where the comparison is an exact tie: the 4-cycle and the triangle with one
pendant vertex share the distance distribution {1: 4, 2: 2} (see also
tests/test_extremal.py::TestDominanceSweep).
"""

import math
import multiprocessing
import random
import time

from wienerbounds.closed_forms import tadpole_closed_form, triangle_star_closed_form
from wienerbounds.enumeration import (
    canonical_form,
    enumerate_unicyclic_labeled,
    random_unicyclic,
    scan_tree_path_property,
)
from wienerbounds.extremal import (
    apply_terminal_merge,
    check_f3_dominance,
    local_search_max,
    verify_theorem_many,
)
from wienerbounds.families import tadpole, triangle_star
from wienerbounds.graphs import distance_distribution, major_vertex_report
from wienerbounds.indices import index_from_distribution, wiener
from wienerbounds.weights import PowerWeight, QWienerWeight

JOBS = min(2, multiprocessing.cpu_count())


def _report(k: int, name: str, t0: float) -> None:
    print(f"ACCEPTANCE {k} ({name}): PASS ({time.time() - t0:.2f}s)")


def test_criterion_1_identity_weight_closed_forms():
    t0 = time.time()
    h = PowerWeight(1)
    for n in range(6, 51):
        low = triangle_star_closed_form(n, h).value
        high = tadpole_closed_form(3, n, h).value
        assert low == n * (n - 2), f"n={n}: lower closed form {low} != {n * (n - 2)}"
        assert high * 6 == n**3 - 7 * n + 12, (
            f"n={n}: upper closed form {high} != (n^3-7n+12)/6"
        )
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"criterion 1 exceeded 1 s ({elapsed:.2f}s)"
    _report(1, "identity-weight closed forms, n = 6..50", t0)


def test_criterion_2_closed_form_equals_graph_value():
    t0 = time.time()
    exact_weights = [PowerWeight(1), PowerWeight(2), PowerWeight(3)]
    float_weights = [PowerWeight(-1), QWienerWeight(0.5, 1)]
    for n in range(3, 13):
        for r in range(3, n + 1):
            g = tadpole(r, n)
            dist = distance_distribution(g)
            for h in exact_weights:
                closed = tadpole_closed_form(r, n, h).value
                direct = index_from_distribution(dist, h).value
                assert closed == direct, (r, n, h.description)
            for h in float_weights:
                closed = tadpole_closed_form(r, n, h).value
                direct = index_from_distribution(dist, h).value
                assert math.isclose(closed, direct, rel_tol=1e-9), (r, n, h.description)
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"criterion 2 exceeded 5 s ({elapsed:.2f}s)"
    _report(2, "tadpole closed form == graph value, 3 <= r <= n <= 12", t0)


def test_criterion_3_exhaustive_theorem_verification():
    t0 = time.time()
    expected_counts = {6: 3660, 7: 68295, 8: 1436568}
    weights = [PowerWeight(1), PowerWeight(2), PowerWeight(-1)]
    for n in (6, 7, 8):
        reports = verify_theorem_many(n, weights, jobs=JOBS)
        for rep in reports:
            scanned = rep.summary.graphs_scanned
            assert scanned == expected_counts[n], (
                f"n={n}: scanned {scanned}, expected {expected_counts[n]}"
            )
            # every unicyclic graph arises from one (tree, chord) pair per cycle edge
            pairs = n ** (n - 2) * (n * (n - 1) // 2 - (n - 1))
            assert rep.summary.cycle_length_sum == pairs
            assert rep.claims_ok() is True, (
                f"n={n}, weight {rep.weight.description}: "
                f"min={rep.min_value.value} (expected {rep.expected_min.value}, "
                f"{len(rep.scan.lo.classes)} classes), "
                f"max={rep.max_value.value} (expected {rep.expected_max.value}, "
                f"{len(rep.scan.hi.classes)} classes)"
            )
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"criterion 3 exceeded 2 min ({elapsed:.1f}s)"
    _report(3, "exhaustive bound + uniqueness verification, n = 6, 7, 8", t0)


def test_criterion_4_dominance_sweep():
    t0 = time.time()
    pairs = [(r, n) for n in range(4, 31) for r in range(4, n + 1)]
    assert len(pairs) == 378
    # C4 and the triangle with one pendant share the distribution {1: 4, 2: 2}
    tie_dists = [distance_distribution(tadpole(r, 4)) for r in (3, 4)]
    # h(k) = k^E is strictly increasing for E > 0 and strictly decreasing for E < 0
    for exponent in (1, 2, -1, -2):
        h = PowerWeight(exponent)
        results = check_f3_dominance(30, h)
        assert [(r, n) for r, n, _ in results] == pairs, h.description
        non_strict = [(r, n) for r, n, ok in results if not ok]
        assert non_strict == [(4, 4)], (
            f"{h.description}: strict dominance must fail only at the r = n = 4 "
            f"tie, but fails at {non_strict}"
        )
        for r, n in pairs:
            f3 = tadpole_closed_form(3, n, h).value
            fr = tadpole_closed_form(r, n, h).value
            if (r, n) == (4, 4):
                assert f3 == fr, f"{h.description}: (4, 4) is {f3} vs {fr}, not a tie"
                for dist in tie_dists:
                    assert index_from_distribution(dist, h).value == f3, h.description
            else:
                assert (f3 > fr) if exponent > 0 else (f3 < fr), (
                    f"{h.description}: r=3 value {f3} does not strictly dominate "
                    f"{fr} at (r, n) = ({r}, {n})"
                )
    elapsed = time.time() - t0
    assert elapsed < 2.0, f"criterion 4 exceeded 2 s ({elapsed:.2f}s)"
    _report(4, "closed-form dominance sweep, 4 <= r <= n <= 30, tie at r = n = 4", t0)


def test_criterion_5_example_regression():
    t0 = time.time()
    h = PowerWeight(1)
    diff = tadpole_closed_form(12, 13, h).value - tadpole_closed_form(11, 13, h).value
    assert diff == 5
    _report(5, "closed-form difference at (12,13) vs (11,13) equals 5", t0)


def test_criterion_6_pair_count_identity():
    t0 = time.time()
    h = PowerWeight(0)
    for g in enumerate_unicyclic_labeled(6):
        dist = distance_distribution(g)
        assert index_from_distribution(dist, h).value == 15
    for n in range(3, 31):
        for r in range(3, n + 1):
            assert tadpole_closed_form(r, n, h).value == n * (n - 1) // 2
    _report(6, "pair-count identity over n=6 scan and closed forms to n=30", t0)


def test_criterion_7_q_limit():
    t0 = time.time()
    for n in range(3, 7):
        for g in enumerate_unicyclic_labeled(n):
            dist = distance_distribution(g)
            w = index_from_distribution(dist, PowerWeight(1)).value
            for q in (1 - 1e-6, 1 + 1e-6):
                for variant in (1, 2, 3):
                    qv = index_from_distribution(dist, QWienerWeight(q, variant)).value
                    assert abs(qv - w) <= 1e-3 * n * n, (n, q, variant)
    _report(7, "q-Wiener limit toward the plain index, n <= 6", t0)


def test_criterion_8_proof_moves():
    t0 = time.time()
    rng = random.Random(20250809)
    h = PowerWeight(1)
    merges_done = 0
    attempts = 0
    while merges_done < 1000:
        attempts += 1
        assert attempts < 20000, "could not collect 1000 valid merge instances"
        g = random_unicyclic(rng.randrange(5, 10), rng)
        report = major_vertex_report(g)
        if not report.multi_terminal_majors:
            continue
        w = rng.choice(sorted(report.multi_terminal_majors))
        u1, u2 = rng.sample(report.terminals[w], 2)
        moved = apply_terminal_merge(g, w, u1, u2)
        before = index_from_distribution(distance_distribution(g), h).value
        after = index_from_distribution(distance_distribution(moved), h).value
        assert after > before, (sorted(g.edges()), (w, u1, u2))
        merges_done += 1

    bound = tadpole_closed_form(3, 8, h).value
    target = canonical_form(tadpole(3, 8))
    for _ in range(100):
        g0 = random_unicyclic(8, rng)
        result = local_search_max(g0, h)
        degs = result.degree_sequence()
        assert degs[0] <= 3 and sum(1 for d in degs if d == 3) <= 1
        value = wiener(result).value
        assert value <= bound
        assert (value == bound) == (canonical_form(result) == target)
    _report(8, "1000 strict merges and 100 local searches", t0)


def test_criterion_9_tree_sweep():
    t0 = time.time()
    for n in range(2, 9):
        scan = scan_tree_path_property(n)
        assert scan.violations == (), f"n={n}: {scan.violations[:3]}"
        assert scan.trees == n ** (n - 2)
        assert scan.paths == (1 if n == 2 else math.factorial(n) // 2)
    # n = 9 sharded across workers
    n = 9
    with multiprocessing.get_context("fork").Pool(JOBS) as pool:
        parts = pool.starmap(
            scan_tree_path_property, [(n, (i, JOBS)) for i in range(JOBS)]
        )
    scan = parts[0]
    for part in parts[1:]:
        scan = scan.merged(part)
    assert scan.violations == ()
    assert scan.trees == n ** (n - 2)
    assert scan.paths == math.factorial(n) // 2
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"criterion 9 exceeded 30 s ({elapsed:.1f}s)"
    _report(9, "path characterization over all labeled trees, n <= 9", t0)
