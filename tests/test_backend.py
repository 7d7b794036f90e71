"""The row store that answers a planted family's subset queries."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupsight import InvalidKError, ValidationError, generate_family
from groupsight.backend import FamilyIndex

from conftest import brute_truth


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
        # Each query holds the minimum of (0, 2, 4) and only part of the rest.
        assert idx.count_contained([0, 2, 3, 5], 3) == 0
        assert not idx.contains_defective([0, 2, 5])
        from_lists = FamilyIndex(8, [[0, 1], [2, 3], [0, 2, 4]])
        for nodes in ([0, 2, 3, 5], [0, 2, 5], q, [1, 2, 3]):
            assert from_lists.contains_defective(nodes) == idx.contains_defective(nodes)
            for k in (2, 3):
                got = from_lists.count_contained(nodes, k)
                assert got == idx.count_contained(nodes, k)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_count_contained_matches_brute_force_up_to_size_8(self, data):
        n = data.draw(st.integers(8, 24))
        sets = data.draw(st.lists(
            st.sets(st.integers(0, n - 1), min_size=2, max_size=8), max_size=30))
        planted = [tuple(sorted(p)) for p in sets]
        idx = FamilyIndex(n, planted)
        for _ in range(5):
            nodes = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
            assert idx.contains_defective(nodes) == brute_truth(planted, nodes)
            for k in range(2, 9):
                inside = sum(len(p) == k and set(p) <= set(nodes) for p in planted)
                assert idx.count_contained(nodes, k) == inside


def reference_check(universe_size, planted) -> tuple[type, str] | None:
    """The error the store raises for `planted`, found set by set: the
    first set that fails a check, and the first check it fails."""
    for p in planted:
        if len(p) < 2:
            return InvalidKError, "planted sets must have size >= 2"
        if any(b <= a for a, b in zip(p, p[1:])):
            return ValidationError, "planted sets must be strictly ascending"
        if any(v < 0 or v >= universe_size for v in p):
            return ValidationError, "planted set member out of range"
    return None


class TestSetChecks:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_first_failing_set_and_check_match_the_reference(self, data):
        # Sets, ascending or not, with members a little past either end of
        # the range: several sets fail, and falls sit inside sets as well as
        # between them.
        n = data.draw(st.integers(1, 12))
        member = st.integers(-2, n + 1)
        one_set = st.lists(member, max_size=5).map(sorted) | st.lists(member, max_size=5)
        planted = data.draw(st.lists(one_set, max_size=8))
        expected = reference_check(n, planted)
        members = np.array([v for p in planted for v in p], dtype=np.int64)
        sizes = np.array([len(p) for p in planted], dtype=np.intp)
        for build in (lambda: FamilyIndex(n, planted),
                      lambda: FamilyIndex(n, members, sizes)):
            try:
                build()
            except ValidationError as exc:
                assert (type(exc), str(exc)) == expected
            else:
                assert expected is None


def test_index_allocates_under_200_bytes_per_set():
    # A frozenset of 5 allocates about 740 bytes, a row of the store 11.
    fam = generate_family(1000, {5: 20_000}, seed=7)
    tracemalloc.start()
    try:
        idx = FamilyIndex(fam.universe_size, fam.planted)
        allocated, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert allocated / 20_000 < 200
