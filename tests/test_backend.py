"""The full-family subset-query index."""

import tracemalloc

import pytest

from groupsight import generate_family
from groupsight.backend import FamilyIndex


class TestKernelContract:
    def test_empty_family_never_defective(self):
        idx = FamilyIndex(5, [])
        assert not idx.contains_defective([0, 1, 2, 3, 4])
        assert idx.count_contained([0, 1, 2], 2) == 0

    def test_query_order_is_irrelevant(self):
        idx = FamilyIndex(6, [(1, 4), (0, 2, 5)])
        assert idx.contains_defective([4, 1])
        assert idx.contains_defective([1, 4])
        assert idx.contains_defective([5, 2, 0])
        assert not idx.contains_defective([5, 2, 1])

    def test_duplicate_query_nodes_counted_once(self):
        idx = FamilyIndex(6, [(1, 4)])
        assert idx.contains_defective([4, 1, 4, 1])
        assert idx.count_contained([1, 1, 4], 2) == 1

    def test_out_of_range_node_rejected(self):
        idx = FamilyIndex(4, [(0, 1)])
        with pytest.raises(ValueError):
            idx.contains_defective([0, 4])
        with pytest.raises(ValueError):
            idx.contains_defective([-1])

    def test_count_contained_by_size(self):
        idx = FamilyIndex(8, [(0, 1), (2, 3), (0, 2, 4)])
        q = [0, 1, 2, 3, 4]
        assert idx.count_contained(q, 2) == 2
        assert idx.count_contained(q, 3) == 1
        assert idx.count_contained(q, 4) == 0
        assert idx.n_sets == 3
        # Each query holds the minimum of (0, 2, 4) and only part of its tail.
        assert idx.count_contained([0, 2, 3, 5], 3) == 0
        assert not idx.contains_defective([0, 2, 5])
        from_lists = FamilyIndex(8, [[0, 1], [2, 3], [0, 2, 4]])
        for nodes in ([0, 2, 3, 5], [0, 2, 5], q, [1, 2, 3]):
            assert from_lists.contains_defective(nodes) == idx.contains_defective(nodes)
            for k in (2, 3):
                got = from_lists.count_contained(nodes, k)
                assert got == idx.count_contained(nodes, k)


def test_index_allocates_under_200_bytes_per_set():
    # A frozenset of 5 allocates about 740 bytes, a tail tuple about 80.
    fam = generate_family(1000, {5: 20_000}, seed=7)
    tracemalloc.start()
    try:
        idx = FamilyIndex(fam.universe_size, fam.planted)
        allocated, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert idx.n_sets == 20_000
    assert allocated / idx.n_sets < 200
