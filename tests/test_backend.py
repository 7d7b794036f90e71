"""The full-family subset-query index."""

import pytest

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
