import random

import pytest

from wienerbounds.closed_forms import (
    cycle_closed_form,
    path_closed_form,
    tadpole_closed_form,
    triangle_star_closed_form,
)
from wienerbounds.families import cycle, path, tadpole, triangle_star
from wienerbounds.indices import generalized_wiener
from wienerbounds.weights import PowerWeight, QWienerWeight, TableWeight

import oracles


class TestPathForm:
    def test_p4(self):
        assert path_closed_form(4, PowerWeight(1)).value == 10

    def test_single_vertex_is_zero(self):
        assert path_closed_form(1, PowerWeight(1)).value == 0
        assert path_closed_form(1, PowerWeight(-2)).value == 0.0

    def test_p3_squared(self):
        assert path_closed_form(3, PowerWeight(2)).value == 6

    def test_agrees_with_graphs_up_to_30(self):
        for n in range(2, 31):
            g = path(n)
            for h in (PowerWeight(1), PowerWeight(2)):
                assert path_closed_form(n, h).value == generalized_wiener(g, h).value


class TestCycleForm:
    def test_c5(self):
        assert cycle_closed_form(5, PowerWeight(1)).value == 15

    def test_c6(self):
        assert cycle_closed_form(6, PowerWeight(1)).value == 27

    def test_c3_any_weight(self):
        h = TableWeight((7.5,))
        assert cycle_closed_form(3, h).value == pytest.approx(3 * 7.5)

    def test_agrees_with_graphs_up_to_30(self):
        for n in range(3, 31):
            g = cycle(n)
            for h in (PowerWeight(1), PowerWeight(2)):
                assert cycle_closed_form(n, h).value == generalized_wiener(g, h).value


class TestTriangleStarForm:
    def test_values(self):
        assert triangle_star_closed_form(6, PowerWeight(1)).value == 24
        assert triangle_star_closed_form(4, PowerWeight(1)).value == 8
        assert triangle_star_closed_form(6, PowerWeight(2)).value == 42

    def test_agrees_with_graphs_up_to_30(self):
        for n in range(4, 31):
            g = triangle_star(n)
            for h in (PowerWeight(1), PowerWeight(2)):
                assert (
                    triangle_star_closed_form(n, h).value
                    == generalized_wiener(g, h).value
                )

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            triangle_star_closed_form(3, PowerWeight(1))


class TestTadpoleForm:
    def test_smallest_tail(self):
        assert tadpole_closed_form(3, 6, PowerWeight(1)).value == 31

    def test_no_tail_reduces_to_cycle(self):
        for n in range(3, 13):
            for h in (PowerWeight(1), PowerWeight(2)):
                assert (
                    tadpole_closed_form(n, n, h).value == cycle_closed_form(n, h).value
                )

    def test_example_difference(self):
        h = PowerWeight(1)
        diff = tadpole_closed_form(12, 13, h).value - tadpole_closed_form(11, 13, h).value
        assert diff == 5

    @pytest.mark.parametrize(
        "r,coeffs",
        [
            (12, [13, 14, 14, 14, 14, 8, 1]),
            (11, [13, 14, 15, 15, 15, 4, 2]),
        ],
    )
    def test_distance_coefficients_at_n13(self, r, coeffs):
        # indicator tables extract the per-distance coefficient of the formula
        for d, want in enumerate(coeffs, start=1):
            table = tuple(1.0 if k == d else 0.0 for k in range(1, 8))
            assert tadpole_closed_form(r, 13, TableWeight(table)).value == want

    def test_matches_graph_for_all_small_cases(self):
        rng = random.Random(1405)
        random_table = TableWeight(tuple(rng.uniform(0.1, 5.0) for _ in range(11)))
        weights = [
            PowerWeight(1),
            PowerWeight(2),
            PowerWeight(3),
            PowerWeight(-1),
            random_table,
        ]
        for n in range(3, 13):
            for r in range(3, n + 1):
                g = tadpole(r, n)
                for h in weights:
                    closed = tadpole_closed_form(r, n, h).value
                    direct = generalized_wiener(g, h).value
                    if h.exact:
                        assert closed == direct, (r, n, h.description)
                    else:
                        assert closed == pytest.approx(direct, rel=1e-9)

    def test_matches_per_pair_oracle_spot(self):
        for r, n in ((3, 6), (4, 5), (5, 9), (6, 11)):
            want = oracles.weighted_index(tadpole(r, n), PowerWeight(1))
            assert tadpole_closed_form(r, n, PowerWeight(1)).value == want

    def test_pair_count_identity_up_to_30(self):
        h = PowerWeight(0)
        for n in range(3, 31):
            for r in range(3, n + 1):
                assert tadpole_closed_form(r, n, h).value == n * (n - 1) // 2

    def test_reduced_form_matches(self):
        rng = random.Random(77)
        random_table = TableWeight(tuple(rng.uniform(0.1, 3.0) for _ in range(29)))
        for n in range(3, 31):
            for h in (PowerWeight(1), PowerWeight(2), random_table):
                full = tadpole_closed_form(3, n, h).value
                reduced = oracles.tadpole3_reduced(n, h)
                if h.exact:
                    assert full == reduced
                else:
                    assert full == pytest.approx(reduced, rel=1e-12)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            tadpole_closed_form(2, 5, PowerWeight(1))
        with pytest.raises(ValueError):
            tadpole_closed_form(6, 5, PowerWeight(1))

    def test_float_mode_for_q_weights(self):
        iv = tadpole_closed_form(4, 8, QWienerWeight(0.5, 1))
        assert iv.mode == "float"
        assert iv.value == pytest.approx(
            generalized_wiener(tadpole(4, 8), QWienerWeight(0.5, 1)).value
        )
