"""The package's record classes: equality, hashing, repr, pickling and
immutability by their fields, and what importing the CLI loads.
"""

from __future__ import annotations

import operator
import pickle
import subprocess
import sys

import pytest

from wienerbounds.enumeration import TreeScan, _RootedTree
from wienerbounds.extremal import (
    Extreme,
    ProofMove,
    ScanSummary,
    VerificationReport,
    WeightScan,
)
from wienerbounds.families import cycle
from wienerbounds.graphs import (
    CycleInfo,
    DistanceDistribution,
    Graph,
    MajorVertexReport,
    distance_distribution,
)
from wienerbounds.indices import IndexValue
from wienerbounds.weights import Monotonicity, PowerWeight, QWienerWeight, TableWeight

TRIANGLE = ((1, 2), (0, 2), (0, 1))
EMPTY_SIDES = (
    "lo=Extreme(better=<built-in function lt>, value=None, classes=set(), count=0), "
    "hi=Extreme(better=<built-in function gt>, value=None, classes=set(), count=0)"
)


def summary(graphs: int = 1) -> ScanSummary:
    return ScanSummary(3, graphs, 3, [WeightScan("power:1")])


def report(shard: tuple[int, int]) -> VerificationReport:
    return VerificationReport(
        PowerWeight(1), Monotonicity.STRICTLY_INCREASING, summary(), WeightScan("power:1"), shard
    )


# (build the record afresh, the record with one field changed, its repr)
CASES = {
    "Graph": (
        lambda: Graph(3, TRIANGLE, 3),
        lambda: Graph(3, TRIANGLE, 2),
        "Graph(n=3, adj=((1, 2), (0, 2), (0, 1)), edge_count=3)",
    ),
    "DistanceDistribution": (
        lambda: DistanceDistribution({1: 3}, 3),
        lambda: DistanceDistribution({1: 3}, 4),
        "DistanceDistribution(counts=mappingproxy({1: 3}), n=3)",
    ),
    "CycleInfo": (
        lambda: CycleInfo((0, 1, 2)),
        lambda: CycleInfo((0, 2, 1)),
        "CycleInfo(vertices=(0, 1, 2))",
    ),
    "MajorVertexReport": (
        lambda: MajorVertexReport(frozenset({0}), {0: (3, 4)}, frozenset({0})),
        lambda: MajorVertexReport(frozenset({0}), {0: (3, 4)}, frozenset()),
        "MajorVertexReport(majors=frozenset({0}), terminals={0: (3, 4)}, "
        "multi_terminal_majors=frozenset({0}))",
    ),
    "PowerWeight": (
        lambda: PowerWeight(2),
        lambda: PowerWeight(-2),
        "PowerWeight(exponent=2)",
    ),
    "QWienerWeight": (
        lambda: QWienerWeight(0.5, 2, 4),
        lambda: QWienerWeight(0.5, 2, 5),
        "QWienerWeight(q=0.5, variant=2, diameter=4)",
    ),
    "TableWeight": (
        lambda: TableWeight((1.0, 2.5)),
        lambda: TableWeight((1.0, 3.0)),
        "TableWeight(values=(1.0, 2.5))",
    ),
    "IndexValue": (
        lambda: IndexValue(7, "exact", "wiener"),
        lambda: IndexValue(7, "float", "wiener"),
        "IndexValue(value=7, mode='exact', index_name='wiener')",
    ),
    "Extreme": (
        lambda: Extreme(operator.lt, 5, {("()",)}, 2),
        lambda: Extreme(operator.lt, 5, {("()",)}, 3),
        "Extreme(better=<built-in function lt>, value=5, classes={('()',)}, count=2)",
    ),
    "WeightScan": (
        lambda: WeightScan("power:1"),
        lambda: WeightScan("power:2"),
        f"WeightScan(description='power:1', {EMPTY_SIDES})",
    ),
    "ScanSummary": (
        summary,
        lambda: summary(2),
        "ScanSummary(n=3, graphs_scanned=1, cycle_length_sum=3, "
        f"per_weight=[WeightScan(description='power:1', {EMPTY_SIDES})])",
    ),
    "VerificationReport": (
        lambda: report((0, 2)),
        lambda: report((1, 2)),
        "VerificationReport(weight=PowerWeight(exponent=1), "
        "monotonicity=<Monotonicity.STRICTLY_INCREASING: 'strictly-increasing'>, "
        "summary=ScanSummary(n=3, graphs_scanned=1, cycle_length_sum=3, "
        f"per_weight=[WeightScan(description='power:1', {EMPTY_SIDES})]), "
        f"scan=WeightScan(description='power:1', {EMPTY_SIDES}), shard=(0, 2), "
        "expected_min=None, expected_max=None, min_value_ok=None, min_unique_ok=None, "
        "max_value_ok=None, max_unique_ok=None)",
    ),
    "ProofMove": (
        lambda: ProofMove("terminal-merge", (0, 3, 4)),
        lambda: ProofMove("tail-rebalance", (0, 3, 4)),
        "ProofMove(kind='terminal-merge', vertices=(0, 3, 4))",
    ),
    "_RootedTree": (
        lambda: _RootedTree(1, "()", 1, 1, 0),
        lambda: _RootedTree(1, "()", 2, 1, 0),
        "_RootedTree(size=1, code='()', aut=1, depths=1, pairs=0)",
    ),
    "TreeScan": (
        lambda: TreeScan(4, 16, 12, ()),
        lambda: TreeScan(4, 16, 11, ()),
        "TreeScan(n=4, trees=16, paths=12, violations=())",
    ),
}
# the records whose fields are all hashable, and the field of each frozen one
HASHABLE = {"Graph", "CycleInfo", "PowerWeight", "QWienerWeight", "TableWeight"}
HASHABLE |= {"DistanceDistribution", "IndexValue", "ProofMove", "_RootedTree", "TreeScan"}
FROZEN_FIELD = {
    "Graph": "n",
    "DistanceDistribution": "counts",
    "CycleInfo": "vertices",
    "MajorVertexReport": "majors",
    "PowerWeight": "exponent",
    "QWienerWeight": "q",
    "TableWeight": "values",
    "IndexValue": "value",
    "VerificationReport": "shard",
    "ProofMove": "kind",
    "_RootedTree": "aut",
    "TreeScan": "trees",
}


@pytest.mark.parametrize("name", CASES)
def test_equal_fields_are_equal_and_one_changed_field_is_not(name):
    make, changed, _ = CASES[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert a != changed() and not a == changed()
    if name in HASHABLE:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("name", CASES)
def test_repr_is_pinned(name):
    make, _, text = CASES[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", CASES)
def test_pickle_round_trip_is_equal(name):
    make, _, text = CASES[name]
    back = pickle.loads(pickle.dumps(make()))
    assert back == make() and type(back) is type(make()) and repr(back) == text


@pytest.mark.parametrize("name", FROZEN_FIELD)
def test_assigning_a_field_of_a_frozen_record_raises(name):
    record = CASES[name][0]()
    field = FROZEN_FIELD[name]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, 99)
    assert getattr(record, field) is before and record == CASES[name][0]()


def test_equal_distance_distributions_hash_equal():
    """A distribution hashes by n and its counts, as ``==`` compares them, so
    one built apart, in another order or back from a pickle finds it in a set
    and as a dict key."""
    c5 = distance_distribution(cycle(5))
    twins = [
        DistanceDistribution({1: 5, 2: 5}, 5),
        DistanceDistribution({2: 5, 1: 5}, 5),
        pickle.loads(pickle.dumps(c5)),
    ]
    for twin in twins:
        assert twin == c5 and hash(twin) == hash(c5)
        assert twin in {c5} and {c5: "C5"}[twin] == "C5"
    assert len({c5, *twins, DistanceDistribution({1: 5, 2: 5}, 6)}) == 2


def test_weight_scans_never_share_a_side():
    a, b = WeightScan("x"), WeightScan("x")
    assert a.lo is not b.lo and a.hi is not b.hi
    a.lo.offer(1, {("()",)}, 1)
    assert b.lo == Extreme(operator.lt) and a.lo != b.lo


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys; before = set(sys.modules); import wienerbounds.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    added = set(run.stdout.split())
    assert {m for m in added if m.partition(".")[0] == "wienerbounds"} == {
        "wienerbounds",
        "wienerbounds.cli",
    }
    assert not added & {"dataclasses", "inspect"}
