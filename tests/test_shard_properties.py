"""Property tests: the k shards of a scan, labeled or by class, merged in any
order, give the serial scan."""

from functools import lru_cache, reduce

from hypothesis import given, settings
from hypothesis import strategies as st

from wienerbounds.enumeration import scan_tree_path_property
from wienerbounds.extremal import scan_classes, scan_extremes
from wienerbounds.weights import PowerWeight

WEIGHTS = (PowerWeight(1), PowerWeight(-1))  # one exact, one float


@lru_cache(maxsize=None)
def serial_scan(n, scan=scan_extremes):
    return scan(n, WEIGHTS)


def merge_shards(scan, n, k, order):
    return reduce(lambda a, b: a.merged(b), [scan(n, (i, k)) for i in order])


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([4, 5, 6]), k=st.integers(1, 7), data=st.data())
def test_extreme_scan_shards_merge_to_serial(n, k, data):
    order = data.draw(st.permutations(range(k)))
    merged = merge_shards(lambda n, shard: scan_extremes(n, WEIGHTS, shard), n, k, order)
    assert merged == serial_scan(n)


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([4, 5, 6, 7, 8]), k=st.integers(1, 7), data=st.data())
def test_class_scan_shards_merge_to_serial(n, k, data):
    order = data.draw(st.permutations(range(k)))
    merged = merge_shards(lambda n, shard: scan_classes(n, WEIGHTS, shard), n, k, order)
    serial = serial_scan(n, scan_classes)
    assert merged == serial


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([4, 5, 6]), k=st.integers(1, 7), data=st.data())
def test_tree_sweep_shards_merge_to_serial(n, k, data):
    order = data.draw(st.permutations(range(k)))
    merged = merge_shards(scan_tree_path_property, n, k, order)
    serial = scan_tree_path_property(n)
    assert (merged.n, merged.trees, merged.paths) == (serial.n, serial.trees, serial.paths)
    assert sorted(merged.violations) == sorted(serial.violations) == []
