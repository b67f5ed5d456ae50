import itertools
import random

import pytest

from wienerbounds.enumeration import (
    graph_from_masks,
    iter_unicyclic_edge_masks,
    prufer_to_tree,
    random_unicyclic,
)
from wienerbounds import graphs
from wienerbounds.families import cycle, path, star, tadpole, triangle_star
from wienerbounds.graphs import (
    MAX_VERTICES,
    DisconnectedGraphError,
    EdgeListParseError,
    Graph,
    GraphError,
    NotUnicyclicError,
    bfs_distances,
    distance_distribution,
    find_cycle,
    format_edge_list,
    is_connected,
    is_unicyclic,
    major_vertex_report,
    parse_edge_list,
    peel_leaves,
    relabel,
)

import oracles


class TestParsing:
    def test_smallest_path(self):
        g = parse_edge_list("0 1\n1 2")
        assert g.n == 3
        assert g.edge_count == 2
        assert list(g.edges()) == [(0, 1), (1, 2)]

    def test_triangle(self):
        g = parse_edge_list("0 1\n1 2\n2 0")
        assert g.n == 3
        assert g.edge_count == 3

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            parse_edge_list("0 0")

    def test_duplicate_rejected(self):
        with pytest.raises(GraphError):
            parse_edge_list("0 1\n1 0")

    def test_comments_and_blank_lines(self):
        g = parse_edge_list("# a triangle\n\n0 1\n# middle\n1 2\n2 0\n")
        assert g.edge_count == 3

    def test_header_allows_isolated_vertices(self):
        g = parse_edge_list("n 5\n0 1")
        assert g.n == 5
        assert not is_connected(g)

    def test_header_too_small(self):
        with pytest.raises(GraphError):
            parse_edge_list("n 2\n0 5")

    def test_malformed_line_reports_number(self):
        with pytest.raises(EdgeListParseError) as err:
            parse_edge_list("0 1\nbogus line here\n")
        assert err.value.line_no == 2

    def test_non_integer_label(self):
        with pytest.raises(EdgeListParseError):
            parse_edge_list("0 x")

    def test_roundtrip(self):
        g = tadpole(4, 9)
        assert parse_edge_list(format_edge_list(g)) == g

    @pytest.mark.parametrize(
        "text, line_no, message",
        [
            ("n 3 4", 1, "bad or repeated header, expected 'n <count>'"),
            ("n 3\nn 3", 2, "bad or repeated header, expected 'n <count>'"),
            ("n x", 1, "bad vertex count 'x'"),
            ("n 0", 1, "vertex count must be >= 1, got 0"),
            ("-1 2", 1, "negative vertex label in '-1 2'"),
            ("", None, "empty edge list and no 'n <count>' header"),
        ],
    )
    def test_refusals_match_their_message_and_line(self, text, line_no, message):
        with pytest.raises(GraphError) as err:
            parse_edge_list(text)
        if line_no is None:
            assert not isinstance(err.value, EdgeListParseError)
            assert str(err.value) == message
        else:
            assert err.value.line_no == line_no
            assert str(err.value) == f"line {line_no}: {message}"


class TestDistances:
    def test_path_endpoint(self):
        assert bfs_distances(path(4), 0) == [0, 1, 2, 3]

    def test_cycle5_multiset(self):
        for v in range(5):
            assert sorted(bfs_distances(cycle(5), v)) == [0, 1, 1, 2, 2]

    def test_cycle6_multiset(self):
        for v in range(6):
            assert sorted(bfs_distances(cycle(6), v)) == [0, 1, 1, 2, 2, 3]

    def test_disconnected_names_vertex(self):
        g = parse_edge_list("n 4\n0 1\n2 3")
        with pytest.raises(DisconnectedGraphError, match=r"vertex \d"):
            bfs_distances(g, 0)

    def test_symmetry_on_random_unicyclic(self):
        rng = random.Random(20240811)
        for _ in range(25):
            g = random_unicyclic(rng.randrange(4, 10), rng)
            for u in range(g.n):
                du = bfs_distances(g, u)
                for v in range(u + 1, g.n):
                    assert du[v] == bfs_distances(g, v)[u]

    def test_matches_oracle_on_random_unicyclic(self):
        rng = random.Random(7)
        for _ in range(20):
            g = random_unicyclic(8, rng)
            expected = oracles.distance_counts(g)
            assert distance_distribution(g).counts == expected


class TestDistribution:
    def test_cycle6(self):
        assert distance_distribution(cycle(6)).counts == {1: 6, 2: 6, 3: 3}

    def test_triangle_star6(self):
        assert distance_distribution(triangle_star(6)).counts == {1: 6, 2: 9}

    def test_single_edge(self):
        assert distance_distribution(path(2)).counts == {1: 1}

    def test_pair_count_identity(self):
        rng = random.Random(99)
        graphs = [cycle(7), star(6), tadpole(5, 11), path(9)]
        graphs += [random_unicyclic(7, rng) for _ in range(10)]
        for g in graphs:
            dist = distance_distribution(g)
            assert dist.total_pairs() == g.n * (g.n - 1) // 2
            assert dist.counts[1] == g.edge_count

    def test_diameter(self):
        assert distance_distribution(cycle(8)).max_distance == 4
        assert distance_distribution(tadpole(3, 7)).max_distance == 5


class TestUnicyclic:
    def test_examples(self):
        assert is_unicyclic(cycle(3))
        assert not is_unicyclic(path(4))
        assert is_unicyclic(triangle_star(6))
        assert not is_unicyclic(parse_edge_list("n 4\n0 1\n1 2\n2 0"))  # isolated vertex

    def test_vertex_count_bound(self, monkeypatch):
        # one past the bound is refused by every route that sets the count
        for build in (
            lambda: Graph.from_edges(MAX_VERTICES + 1, []),
            lambda: parse_edge_list(f"n {MAX_VERTICES + 1}\n0 1"),
            lambda: parse_edge_list(f"0 {MAX_VERTICES}"),
        ):
            with pytest.raises(GraphError, match=str(MAX_VERTICES)):
                build()
        monkeypatch.setattr(graphs, "MAX_VERTICES", 5)
        assert parse_edge_list("0 4").n == 5
        with pytest.raises(GraphError):
            parse_edge_list("0 5")

    def test_find_cycle_families(self):
        for n in range(3, 13):
            for r in range(3, n + 1):
                assert find_cycle(tadpole(r, n)).length == r

    def test_find_cycle_cycle(self):
        info = find_cycle(cycle(7))
        assert info.length == 7
        assert sorted(info.vertices) == list(range(7))

    def test_find_cycle_triangle_star(self):
        assert sorted(find_cycle(triangle_star(6)).vertices) == [0, 1, 2]

    def test_cycle_order_is_cyclic(self):
        info = find_cycle(tadpole(5, 8))
        verts = info.vertices
        g = tadpole(5, 8)
        for i, v in enumerate(verts):
            assert verts[(i + 1) % len(verts)] in g.adj[v]

    def test_rejects_non_unicyclic(self):
        with pytest.raises(NotUnicyclicError):
            find_cycle(path(5))

    def test_cycle_starts_at_its_smallest_label_toward_the_smaller_neighbour(self):
        g = Graph.from_edges(7, [(1, 5), (1, 6), (3, 6), (3, 5), (0, 3), (0, 2), (4, 6)])
        assert find_cycle(g).vertices == (1, 5, 3, 6)

    def test_cycle_matches_networkx_on_random_unicyclic(self):
        import networkx as nx

        rng = random.Random(7)
        for _ in range(50):
            g = random_unicyclic(rng.randrange(3, 14), rng)
            verts = find_cycle(g).vertices
            oracle = {v for e in nx.find_cycle(nx.Graph(list(g.edges()))) for v in e[:2]}
            assert set(verts) == oracle and len(verts) == len(oracle)
            assert verts[0] == min(oracle)
            assert verts[1] == min(v for v in g.adj[verts[0]] if v in oracle)
            for i, v in enumerate(verts):
                assert verts[i - 1] in g.adj[v]


class TestPeelLeaves:
    def test_unicyclic_peels_down_to_its_cycle(self):
        alive, peeled = peel_leaves(tadpole(3, 6).adjacency_masks())
        assert alive == 0b111
        assert peeled == [(5, 4), (4, 3), (3, 0)]

    def test_tree_peels_down_to_its_centre(self):
        assert peel_leaves(path(5).adjacency_masks()) == (0b00100, [(0, 1), (4, 3), (1, 2), (3, 2)])
        assert peel_leaves(path(4).adjacency_masks())[0] == 0b0110
        assert peel_leaves(star(5).adjacency_masks())[0] == 0b00001
        assert peel_leaves(path(1).adjacency_masks()) == (0b1, [])


class TestMajorVertices:
    def test_path_has_none(self):
        report = major_vertex_report(path(5))
        assert report.majors == frozenset()
        assert report.multi_terminal_majors == frozenset()

    def test_star_center(self):
        report = major_vertex_report(star(5))
        assert report.majors == {0}
        assert report.terminal_degree(0) == 4
        assert report.multi_terminal_majors == {0}

    def test_tadpole37_single_terminal(self):
        report = major_vertex_report(tadpole(3, 7))
        assert report.majors == {0}
        assert report.terminal_degree(0) == 1
        assert report.multi_terminal_majors == frozenset()

    def test_two_majors_split_terminals(self):
        g = Graph.from_edges(
            9,
            [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6), (5, 7), (5, 8)],
        )
        report = major_vertex_report(g)
        assert report.majors == {0, 5}
        assert set(report.terminals[0]) == {1, 2}
        assert set(report.terminals[5]) == {6, 7, 8}
        assert report.multi_terminal_majors == {0, 5}

    def test_trees_up_to_7_match_path_characterization(self):
        # exhaustive cross-check of the distance-based definition
        for tree in _labeled_trees(7):
            is_path = all(d <= 2 for d in tree.degree_sequence())
            empty = not oracles.bfs_major_vertex_report(tree).multi_terminal_majors
            assert empty == is_path, f"edges={list(tree.edges())}"

    @pytest.mark.parametrize("family", ["trees", "unicyclic", "random"])
    def test_pendant_walk_matches_bfs_oracle(self, family):
        graphs_in = {
            "trees": lambda: _labeled_trees(7),
            "unicyclic": lambda: (
                graph_from_masks(n, masks)
                for n in range(3, 8)
                for masks, _ in iter_unicyclic_edge_masks(n)
            ),
            "random": lambda: _random_connected(2000, random.Random(93441)),
        }[family]()
        checked = 0
        for g in graphs_in:
            report = major_vertex_report(g)
            assert report == oracles.bfs_major_vertex_report(g), f"edges={list(g.edges())}"
            assert all(list(ts) == sorted(ts) for ts in report.terminals.values())
            checked += 1
        assert checked == {"trees": 18_248, "unicyclic": 72_193, "random": 2000}[family]

    def test_disconnected_with_a_major_vertex_raises(self):
        g = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (4, 5)])
        for report in (major_vertex_report, oracles.bfs_major_vertex_report):
            with pytest.raises(DisconnectedGraphError):
                report(g)


def _labeled_trees(n_max: int):
    """Every labeled tree on 2..n_max vertices, by Prufer sequence."""
    for n in range(2, n_max + 1):
        for seq in itertools.product(range(n), repeat=n - 2):
            yield prufer_to_tree(seq)


def _random_connected(count: int, rng: random.Random):
    """Seeded random trees on 2..59 vertices, most with a few extra edges
    (several cycles), so leaves hang off majors on and off cycles."""
    for _ in range(count):
        n = rng.randrange(2, 60)
        edges = set(prufer_to_tree([rng.randrange(n) for _ in range(n - 2)]).edges())
        for _ in range(rng.randrange(4)):
            u, v = sorted(rng.sample(range(n), 2))
            edges.add((u, v))
        yield Graph.from_edges(n, edges)


class TestMisc:
    def test_relabel_preserves_structure(self):
        g = tadpole(4, 7)
        perm = [3, 0, 6, 2, 5, 1, 4]
        h = relabel(g, perm)
        assert h.edge_count == g.edge_count
        assert sorted(h.degree_sequence()) == sorted(g.degree_sequence())

    def test_from_edges_validation(self):
        with pytest.raises(GraphError):
            Graph.from_edges(3, [(0, 3)])
        with pytest.raises(GraphError):
            Graph.from_edges(3, [(1, 1)])
        with pytest.raises(GraphError):
            Graph.from_edges(0, [])
