"""The row store that answers a planted family's subset queries."""

import json
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupsight import InvalidKError, PlantedFamily, ValidationError, backend, generate_family
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


def test_generation_peaks_under_28_bytes_per_set():
    # The padded member columns take 10 bytes a set, a tier's keys 8, and
    # `np.insert` a copy of those keys: 27.2 in all. The store's uint32
    # order (4) and its sort keys (8) come after the keys are gone. Built
    # from one flat member array, with intp offsets and whole-family check
    # masks, the peak was about 60.
    generate_family(20, {2: 5}, seed=1)  # the once-per-process replay check
    tracemalloc.start()
    try:
        generate_family(1000, {5: 100_000}, seed=7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 100_000 < 28


def test_store_build_peaks_under_13_bytes_per_set():
    # Beyond the padded columns it takes over: the sort keys (8 bytes a
    # set) and the uint32 order (4), held together once. An intp order
    # would make that 16; an argsort's radix buffer is not traced at all.
    count = 200_000
    store = generate_family(1000, {5: count}, seed=7)._index
    padded, sizes = np.array(store.columns), store.sizes.astype(np.intp)
    tracemalloc.start()
    try:
        FamilyIndex(1000, padded, sizes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / count < 13


class TestOrder:
    def test_order_is_uint32_from_every_entry_point(self, tmp_path):
        path = tmp_path / "family.json"
        generate_family(40, {2: 10, 3: 10}, seed=3).save(path)
        builds = {
            "constructor": lambda: FamilyIndex(40, [(0, 1), (2, 3, 4)]),
            "generate_family": lambda: generate_family(40, {2: 10, 3: 10}, seed=3)._index,
            "load": lambda: PlantedFamily.load(path)._index,
            "from_json_dict": lambda: PlantedFamily.from_json_dict(
                json.loads(path.read_text()))._index,
        }
        for name, build in builds.items():
            assert build().order.dtype == np.uint32, name

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_order_is_the_stable_argsort_of_the_minima(self, data):
        # A small universe and 20 to 100 sets, so most sets share their
        # minimum with many others, repeats included. Past 16 rows an
        # unstable sort (numpy's quicksort) reorders equal minima.
        n = data.draw(st.integers(2, 8))
        every = [p for k in range(2, n + 1) for p in combinations(range(n), k)]
        planted = data.draw(st.lists(st.sampled_from(every), min_size=20, max_size=100))
        store = FamilyIndex(n, planted)
        first = np.array([p[0] for p in planted], dtype=np.intp)
        assert np.array_equal(store.order, np.argsort(first, kind="stable"))
        rows = [tuple(sorted(set(row))) for row in zip(*(c.tolist() for c in store.columns))]
        assert rows == [tuple(planted[i]) for i in store.order.tolist()]

    def test_more_than_2_to_the_32_raises_before_any_allocation(self):
        # Zero-stride views stand for 2**32 + 1 sets without holding them.
        many = 2**32 + 1
        builds = (
            lambda: FamilyIndex(many, [(0, 1)]),
            lambda: FamilyIndex(10, np.broadcast_to(np.uint8(1), (2, many)),
                                np.broadcast_to(np.intp(2), many)),
        )
        for build in builds:
            tracemalloc.start()
            try:
                with pytest.raises(ValidationError, match="2\\*\\*32"):
                    build()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 10_000


@pytest.mark.parametrize("universe_size, counts, column", [
    pytest.param(1000, {2: 300, 3: 300, 5: 3000}, np.uint16, id="int64-keys"),
    pytest.param(1000, {3: 20, 7: 20, 8: 20}, np.uint16, id="void-keys"),
    pytest.param(10, {}, np.uint8, id="empty"),
    pytest.param(70_000, {2: 50, 3: 50}, np.uint32, id="32-bit-columns"),
])
def test_generated_store_equals_the_one_built_from_planted(universe_size, counts, column):
    family = generate_family(universe_size, counts, seed=5)
    built, rebuilt = family._index, FamilyIndex(universe_size, family.planted)
    assert len(built.columns) == len(rebuilt.columns) == max(counts, default=0)
    for a, b in zip((*built.columns, built.starts, built.sizes, built.order),
                    (*rebuilt.columns, rebuilt.starts, rebuilt.sizes, rebuilt.order)):
        assert a.dtype == b.dtype and a.flags.c_contiguous and b.flags.c_contiguous
        assert np.array_equal(a, b)
    assert all(col.dtype == column for col in built.columns)


def test_every_family_build_calls_the_store_constructor_once(monkeypatch, tmp_path):
    # A class put in place of `backend.FamilyIndex` (a timed subclass, say)
    # sees each build, so each must go through the constructor.
    calls = []

    class Counting(backend.FamilyIndex):
        def __init__(self, *args, **kwargs):
            calls.append(1)
            super().__init__(*args, **kwargs)

    path = tmp_path / "family.json"
    generate_family(40, {2: 10, 3: 10}, seed=3).save(path)
    monkeypatch.setattr(backend, "FamilyIndex", Counting)
    builds = {
        "generate_family": lambda: generate_family(40, {2: 10, 3: 10}, seed=3),
        "PlantedFamily": lambda: PlantedFamily(40, ((0, 1), (2, 3, 4))),
        "load": lambda: PlantedFamily.load(path),
        "from_json_dict": lambda: PlantedFamily.from_json_dict(json.loads(path.read_text())),
    }
    for name, build in builds.items():
        calls.clear()
        family = build()
        assert calls == [1], name
        assert type(family._index) is Counting, name
