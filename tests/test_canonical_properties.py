"""Property tests: the leaf-peeling canonical form against two isomorphism oracles.

On random unicyclic graphs and trees with at most 12 vertices,
``canonical_form`` must not change under relabelling, must decode to an
isomorphic copy, and must split pairs exactly as the backtracking oracle and
``networkx.is_isomorphic`` do.
"""

from random import Random

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from wienerbounds.enumeration import canonical_form, prufer_to_tree, random_unicyclic
from wienerbounds.graphs import Graph, relabel

import oracles


def build(kind, n, seed):
    rng = Random(seed)
    if kind == "tree":
        return prufer_to_tree([rng.randrange(n) for _ in range(n - 2)])
    return random_unicyclic(n, rng)


def decode(blob):
    return Graph.from_edges(blob[0], zip(blob[1::2], blob[2::2]))


@st.composite
def graph_pairs(draw):
    """Two graphs of one kind and size, plus a relabelling of the first.

    Small n makes isomorphic pairs common, so both outcomes get exercised.
    """
    kind = draw(st.sampled_from(["tree", "unicyclic"]))
    n = draw(st.integers(2 if kind == "tree" else 3, 12))
    seeds = st.integers(0, 2**32 - 1)
    g1, g2 = build(kind, n, draw(seeds)), build(kind, n, draw(seeds))
    return g1, g2, draw(st.permutations(range(n)))


@settings(max_examples=300, deadline=None)
@given(graph_pairs())
def test_canonical_form_agrees_with_the_oracles(pair):
    g1, g2, perm = pair
    form1, form2 = canonical_form(g1), canonical_form(g2)
    oracle1, oracle2 = map(oracles.backtrack_canonical_form, (g1, g2))
    assert canonical_form(relabel(g1, perm)) == form1
    assert oracles.backtrack_canonical_form(decode(form1)) == oracle1
    assert (form1 == form2) == (oracle1 == oracle2)
    assert (form1 == form2) == nx.is_isomorphic(oracles.to_nx(g1), oracles.to_nx(g2))
