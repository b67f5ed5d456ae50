"""Property tests for the index layer on random graphs and random weights.

A weighted index depends only on the distance distribution, so it must not
change under relabelling; the closed forms must equal the index of the graph
they describe under any table weight; and an exact value must come back
unchanged from its JSON form.
"""

import json
from fractions import Fraction
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from wienerbounds.closed_forms import (
    cycle_closed_form,
    path_closed_form,
    tadpole_closed_form,
    triangle_star_closed_form,
)
from wienerbounds.enumeration import random_unicyclic
from wienerbounds.families import cycle, path, tadpole, triangle_star
from wienerbounds.graphs import relabel
from wienerbounds.indices import generalized_wiener, hyper_wiener, tsz_index
from wienerbounds.weights import PowerWeight, TableWeight

seeds = st.integers(0, 2**32 - 1)
exponents = st.integers(-2, 4)


@st.composite
def relabelled(draw):
    """A random unicyclic graph and a permutation of its vertices."""
    n = draw(st.integers(3, 12))
    return random_unicyclic(n, Random(draw(seeds))), draw(st.permutations(range(n)))


@settings(max_examples=200, deadline=None)
@given(relabelled(), exponents)
def test_index_is_invariant_under_relabelling(pair, k):
    g, perm = pair
    h = PowerWeight(k)
    assert generalized_wiener(relabel(g, perm), h) == generalized_wiener(g, h)


# family -> (closed form, graph) for n vertices and cycle length r
FAMILIES = {
    "path": lambda n, r, h: (path_closed_form(n, h), path(n)),
    "cycle": lambda n, r, h: (cycle_closed_form(n, h), cycle(n)),
    "triangle_star": lambda n, r, h: (triangle_star_closed_form(n, h), triangle_star(n)),
    "tadpole": lambda n, r, h: (tadpole_closed_form(r, n, h), tadpole(r, n)),
}


@st.composite
def family_and_table(draw):
    """A family, a size, a cycle length and a table weight covering every
    distance of the family.  Integer table values keep every sum exact, so
    the two routes must agree to the last bit."""
    family = draw(st.sampled_from(sorted(FAMILIES)))
    n = draw(st.integers(4, 16))
    r = draw(st.integers(3, n))
    values = draw(st.lists(st.integers(-1000, 1000), min_size=n - 1, max_size=n - 1))
    return family, n, r, TableWeight(tuple(values))


@settings(max_examples=200, deadline=None)
@given(family_and_table())
def test_closed_forms_equal_the_built_graph_under_table_weights(case):
    family, n, r, h = case
    closed, graph = FAMILIES[family](n, r, h)
    assert closed.value == generalized_wiener(graph, h).value


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 12), seeds, st.integers(0, 4))
def test_exact_values_round_trip_through_json(n, seed, k):
    g = random_unicyclic(n, Random(seed))
    for iv in (generalized_wiener(g, PowerWeight(k)), hyper_wiener(g), tsz_index(g)):
        assert iv.mode == "exact"
        text = json.loads(json.dumps(iv.to_json_value()))
        assert isinstance(text, str) and Fraction(text) == iv.value
