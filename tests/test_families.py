import tracemalloc

import pytest

from wienerbounds.families import cycle, path, star, tadpole, triangle_star
from wienerbounds.graphs import MAX_VERTICES, GraphError, find_cycle, is_unicyclic
from wienerbounds.indices import wiener


class TestBasicFamilies:
    def test_path2(self):
        g = path(2)
        assert g.edge_count == 1 and list(g.edges()) == [(0, 1)]

    def test_cycle3(self):
        g = cycle(3)
        assert g.edge_count == 3 and g.degree_sequence() == (2, 2, 2)

    def test_star4(self):
        assert star(4).degree_sequence() == (3, 1, 1, 1)

    def test_minimums_rejected(self):
        with pytest.raises(ValueError):
            path(0)
        with pytest.raises(ValueError):
            cycle(2)
        with pytest.raises(ValueError):
            star(1)

    def test_paths_and_stars_are_not_unicyclic(self):
        assert not is_unicyclic(path(5))
        assert not is_unicyclic(star(5))

    @pytest.mark.parametrize(
        "build",
        [path, cycle, star, triangle_star, lambda n: tadpole(3, n), lambda n: tadpole(n, n)],
        ids=["path", "cycle", "star", "triangle_star", "tadpole_3", "tadpole_full"],
    )
    def test_oversized_n_refused_before_any_edge_is_built(self, build):
        # an edge list of MAX_VERTICES tuples takes about 10 MB
        tracemalloc.start()
        try:
            with pytest.raises(GraphError, match=str(MAX_VERTICES)):
                build(MAX_VERTICES + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


class TestTriangleStar:
    def test_smallest_equals_tadpole(self):
        assert triangle_star(4) == tadpole(3, 4)

    def test_distribution_at_6(self):
        from wienerbounds.graphs import distance_distribution

        assert distance_distribution(triangle_star(6)).counts == {1: 6, 2: 9}

    def test_wiener_5(self):
        assert wiener(triangle_star(5)).value == 15 == 5 * 3

    def test_degree_sequence(self):
        for n in range(4, 12):
            g = triangle_star(n)
            assert is_unicyclic(g)
            expected = tuple(sorted([n - 1, 2, 2] + [1] * (n - 3), reverse=True))
            assert g.degree_sequence() == expected

    def test_rejects_n3(self):
        with pytest.raises(ValueError):
            triangle_star(3)


class TestGoldenSerializations:
    # labelings are part of the contract: serialized fixtures must stay
    # byte-stable across releases
    def test_tadpole36_text(self):
        from wienerbounds.graphs import format_edge_list

        assert format_edge_list(tadpole(3, 6)) == (
            "n 6\n0 1\n0 2\n0 3\n1 2\n3 4\n4 5\n"
        )

    def test_triangle_star5_text(self):
        from wienerbounds.graphs import format_edge_list

        assert format_edge_list(triangle_star(5)) == (
            "n 5\n0 1\n0 2\n0 3\n0 4\n1 2\n"
        )

    def test_path1_text_roundtrip(self):
        from wienerbounds.graphs import format_edge_list, parse_edge_list

        text = format_edge_list(path(1))
        assert text == "n 1\n"
        assert parse_edge_list(text) == path(1)


class TestTadpole:
    def test_full_cycle_case(self):
        for n in range(3, 10):
            assert tadpole(n, n) == cycle(n)

    def test_wiener_values(self):
        assert wiener(tadpole(3, 6)).value == 31
        assert wiener(tadpole(4, 5)).value == 16

    def test_cycle_lengths(self):
        for n in range(3, 13):
            for r in range(3, n + 1):
                g = tadpole(r, n)
                assert is_unicyclic(g)
                assert find_cycle(g).length == r

    def test_degree_three_count(self):
        for n in range(3, 11):
            for r in range(3, n + 1):
                g = tadpole(r, n)
                deg3 = sum(1 for v in range(n) if g.degree(v) == 3)
                assert deg3 == (1 if r < n else 0)
                assert max(g.degree_sequence()) <= 3

    def test_range_validation(self):
        with pytest.raises(ValueError):
            tadpole(2, 4)
        with pytest.raises(ValueError):
            tadpole(5, 4)
