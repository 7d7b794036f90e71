"""The antichain rule on set keys, against the tuple walk it replaced.

Generation and validation test nesting on integer (or, for wide
families, byte-string) keys of each set with `searchsorted`. The
references here walk every candidate's `combinations` in Python instead,
one set at a time, which is how both worked before.
"""

import json
import pickle
import tracemalloc
from itertools import combinations
from math import comb
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupsight import InfeasibleCountsError, PlantedFamily, ValidationError, generate_family
from groupsight import backend, oracle
from groupsight.oracle import (
    _CHUNK, _SizeKeys, _Smaller, _decode_keys, _draw_sets, _nested, _set_keys,
)
from groupsight.rng import ROLE_FAMILY, spawn_generator


def nests(p, present, sizes) -> bool:
    """Does canonical `p` contain a smaller set of `present`?"""
    return any(not present.isdisjoint(combinations(p, k)) for k in sizes if k < len(p))


def reference_offender(planted):
    """The set `validate_antichain` must name, or None for an antichain.

    The first set repeating an earlier one; if none, the first set that
    contains a smaller planted set.
    """
    present = set()
    for p in planted:
        if p in present:
            return p
        present.add(p)
    sizes = set(map(len, planted))
    return next((p for p in planted if nests(p, present, sizes)), None)


def reference_generate(universe_size, counts, seed, attempts_per_set=1000):
    """`generate_family`'s planted sets, tested one candidate at a time."""
    counts = {k: c for k, c in counts.items() if c}
    rng = spawn_generator(seed, ROLE_FAMILY)
    accepted = []
    for k in sorted(counts):
        target = counts[k]
        smaller = set(accepted)
        tier = set()
        budget = attempts_per_set * target
        while len(tier) < target:
            if budget <= 0:
                raise InfeasibleCountsError(
                    f"retry budget exhausted generating size-{k} sets "
                    f"({len(tier)}/{target} placed)"
                )
            batch = min(target - len(tier), budget, _CHUNK)
            budget -= batch
            for cand in map(tuple, _draw_sets(rng, universe_size, k, batch).tolist()):
                if cand not in tier and not nests(cand, smaller, counts):
                    tier.add(cand)
        accepted.extend(sorted(tier))
    return tuple(accepted)


def outcome(make):
    """The value `make()` returns, or the type and text of what it raises."""
    try:
        return make()
    except ValidationError as exc:
        return type(exc), str(exc)


def validation_outcome(universe_size, planted):
    return outcome(
        lambda: PlantedFamily(universe_size=universe_size, planted=planted).validate_antichain()
    )


def expected_validation(planted):
    offender = reference_offender(planted)
    if offender is None:
        return None
    message = f"family is not an antichain of distinct sets (offending set {offender})"
    return ValidationError, message


@st.composite
def small_families(draw):
    """Random planted sets over a few nodes, with nests and repeats mixed in."""
    n = draw(st.integers(min_value=2, max_value=12))
    canonical_set = st.integers(min_value=2, max_value=min(n, 5)).flatmap(
        lambda k: st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)
    ).map(lambda s: tuple(sorted(s)))
    planted = draw(st.lists(canonical_set, max_size=12, unique=True))
    for _ in range(draw(st.integers(0, 3))):
        if not planted:
            break
        p = planted[draw(st.integers(0, len(planted) - 1))]
        if draw(st.booleans()):
            planted.insert(draw(st.integers(0, len(planted))), p)
        else:
            extra = draw(st.sets(st.integers(0, n - 1), max_size=3))
            planted.insert(draw(st.integers(0, len(planted))), tuple(sorted(set(p) | extra)))
    return n, tuple(planted)


class TestValidationMatchesReference:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(family=small_families())
    def test_same_verdict_and_same_offending_set(self, family):
        n, planted = family
        assert validation_outcome(n, planted) == expected_validation(planted)

    @pytest.mark.parametrize(
        "planted, offender",
        [
            # A nest comes earlier, but a repeat is named first.
            (((0, 1), (0, 1, 2), (3, 4), (5, 6), (3, 4)), (3, 4)),
            # Of two repeated sets, the one whose second copy comes first.
            (((0, 1), (2, 3), (2, 3), (0, 1)), (2, 3)),
            # Of two nests, the earlier in `planted` order, not by size.
            (((2, 3), (0, 2, 3, 5), (1, 2, 3), (7, 8)), (0, 2, 3, 5)),
        ],
        ids=["repeat-before-nest", "first-second-copy", "first-nest"],
    )
    def test_named_offender(self, planted, offender):
        assert reference_offender(planted) == offender
        assert validation_outcome(10, planted) == expected_validation(planted)


class TestValidationInSlices:
    """Validation keys and checks each size `backend._SPAN` store rows at a
    time; an offender is named the same however the rows are cut."""

    @pytest.mark.parametrize("span", [1, 3])
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(family=small_families())
    def test_same_offending_set_at_any_span(self, span, family):
        n, planted = family
        with patch.object(backend, "_SPAN", span):
            assert validation_outcome(n, planted) == expected_validation(planted)

    @pytest.mark.parametrize(
        "planted, offender",
        [
            # Rows go by minimum member, so with two rows a slice the copies
            # of (0, 1, 2) are rows 0 and 2, in different slices.
            (((0, 1, 2), (0, 1, 3), (0, 1, 2), (5, 6)), (0, 1, 2)),
            # (4, 5, 6)'s second copy comes first in `planted` but lies in a
            # later slice than (0, 1, 2)'s copies.
            (((4, 5, 6), (0, 1, 2), (0, 1, 3), (4, 5, 6), (0, 1, 2)), (4, 5, 6)),
            # (6, 7, 8) nests (7, 8) and comes before (0, 1, 2), which
            # nests (1, 2) in the first slice.
            (((1, 2), (7, 8), (6, 7, 8), (3, 4, 5), (0, 1, 2)), (6, 7, 8)),
        ],
        ids=["repeat-across-slices", "repeat-in-a-later-slice", "nest-in-a-later-slice"],
    )
    def test_named_offender_across_slices(self, planted, offender):
        assert reference_offender(planted) == offender
        with patch.object(backend, "_SPAN", 2):
            assert validation_outcome(10, planted) == expected_validation(planted)

    def test_peaks_under_20_bytes_per_set(self):
        # The largest size's keys take 8 bytes a set, sorted in place; a
        # slice's temporaries are bounded by `backend._SPAN`. Stacking each
        # size's member rows and sorting a copy of its keys peaked at 35.
        family = generate_family(1000, {5: 300_000}, seed=7)
        tracemalloc.start()
        try:
            family.validate_antichain()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / 300_000 < 20


class TestValidationReadsTheStore:
    """A family made from its store is validated there and keeps no tuples."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(family=small_families())
    def test_unpickled_family_names_the_reference_offender(self, family):
        n, planted = family
        clone = pickle.loads(pickle.dumps(PlantedFamily(universe_size=n, planted=planted)))
        assert outcome(clone.validate_antichain) == expected_validation(planted)
        assert "planted" not in vars(clone)

    @pytest.mark.parametrize(
        "planted",
        [
            ((0, 1), (0, 1, 2), (3, 4), (5, 6), (3, 4)),
            ((0, 1), (2, 3), (2, 3), (0, 1)),
            # The 3-set's second copy comes before the 2-set's.
            ((5, 6), (0, 1, 2), (0, 1, 2), (5, 6)),
            ((2, 3), (0, 2, 3, 5), (1, 2, 3), (7, 8)),
            ((0, 1, 4, 6, 8), (3, 5), (4, 8)),
        ],
        ids=["repeat-before-nest", "first-second-copy", "repeats-of-two-sizes",
             "first-nest", "pair-in-five-set"],
    )
    def test_loaded_family_names_the_offender_without_its_tuples(
        self, tmp_path, monkeypatch, planted
    ):
        validated = []
        validate = PlantedFamily.validate_antichain

        def recording(fam):
            validated.append(fam)
            validate(fam)

        monkeypatch.setattr(PlantedFamily, "validate_antichain", recording)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"universe_size": 10, "planted": planted, "seed": None}))
        assert outcome(lambda: PlantedFamily.load(path)) == expected_validation(planted)
        assert "planted" not in vars(validated[0])


class TestGenerationMatchesReference:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(min_value=5, max_value=40),
        counts=st.dictionaries(st.integers(2, 5), st.integers(0, 60), max_size=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_same_family_or_same_error(self, n, counts, seed):
        counts = {k: min(c, comb(n, k)) for k, c in counts.items()}

        def ours():
            return generate_family(n, counts, seed, attempts_per_set=20).planted

        def reference():
            return reference_generate(n, counts, seed, attempts_per_set=20)

        assert outcome(ours) == outcome(reference)

    # A tier counts its distinct sets only once fewer than `_CHUNK` are
    # missing; targets of at most 60 never reach the uncounted batches at
    # the real `_CHUNK`, so these smaller ones run both kinds of batch.
    @pytest.mark.parametrize("chunk", [1, 3, 8])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(min_value=5, max_value=40),
        counts=st.dictionaries(st.integers(2, 5), st.integers(0, 60), max_size=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_same_family_or_same_error_in_small_batches(self, chunk, n, counts, seed):
        counts = {k: min(c, comb(n, k)) for k, c in counts.items()}

        def ours():
            with patch.object(oracle, "_CHUNK", chunk):
                return generate_family(n, counts, seed, attempts_per_set=20).planted

        def reference():
            return reference_generate(n, counts, seed, attempts_per_set=20)

        assert outcome(ours) == outcome(reference)


# Each side of the int64 key limit, for the largest size below the top
# one (the widest key that generation looks up) and for the top size
# (the widest key that validation sorts).
EDGE_FAMILIES = [
    pytest.param(1000, {2: 40, 6: 60, 7: 60}, id="n1000-k6-fits-k7-wide"),
    pytest.param(1000, {3: 20, 7: 40, 8: 40}, id="n1000-k7-wide-k8"),
    pytest.param(20_000, {2: 50, 4: 60, 5: 60}, id="n20000-k4-fits-k5-wide"),
    pytest.param(20_000, {3: 40, 5: 40, 6: 40}, id="n20000-k5-wide"),
]


class TestKeyWidth:
    @pytest.mark.parametrize(
        "universe_size, width, dtype",
        [
            (2**21, 3, np.int64),  # n**3 is 2**63: every key fits
            (2**21 + 1, 3, np.void),
            (1000, 6, np.int64),
            (1000, 7, np.void),
            (1000, 8, np.void),
            (20_000, 4, np.int64),
            (20_000, 5, np.void),
            (70_000, 2, np.int64),
            (2**32 + 5, 2, np.void),
        ],
    )
    def test_keys_sort_and_match_as_the_tuples_do(self, universe_size, width, dtype):
        rng = np.random.default_rng(universe_size + width)
        rows = np.sort(rng.integers(0, universe_size, size=(300, width)), axis=1)
        # The largest ascending row, thrice.
        rows[:3] = np.arange(universe_size - width, universe_size)
        rows[3] = np.arange(width)
        rows[4] = rows[5]
        keys = _set_keys(rows.T, universe_size)
        assert keys.dtype.type is dtype
        assert keys.shape == (300,)
        tuples = list(map(tuple, rows.tolist()))
        assert [tuples[i] for i in np.argsort(keys, kind="stable")] == sorted(tuples)
        equal = keys[:, None] == keys[None, :]
        assert (equal == (rows[:, None, :] == rows[None, :, :]).all(axis=2)).all()

    @pytest.mark.parametrize(
        "universe_size, width",
        [(2**21, 3), (2**21 + 1, 3), (1000, 6), (1000, 7), (256, 4), (2**32 + 5, 2)],
    )
    def test_decoded_columns_invert_the_keys(self, universe_size, width):
        rng = np.random.default_rng(universe_size + width)
        rows = np.sort(rng.integers(0, universe_size, size=(300, width)), axis=1)
        rows[:3] = np.arange(universe_size - width, universe_size)
        rows[3] = np.arange(width)
        # The columns a tier takes of the family's padded columns: rows of a
        # wider array, in its column type.
        padded = np.zeros((width + 1, 310), np.min_scalar_type(universe_size))
        _decode_keys(_set_keys(rows.T, universe_size), universe_size, padded[:width, 5:305])
        assert np.array_equal(padded[:width, 5:305], rows.T)
        assert not padded[width].any() and not padded[:, :5].any()

    @pytest.mark.parametrize("universe_size, counts", EDGE_FAMILIES)
    def test_generation_matches_reference(self, universe_size, counts):
        family = generate_family(universe_size, counts, seed=7)
        assert family.planted == reference_generate(universe_size, counts, seed=7)
        family.validate_antichain()

    @pytest.mark.parametrize("universe_size, counts", EDGE_FAMILIES)
    def test_validation_names_a_nested_set(self, universe_size, counts):
        planted = generate_family(universe_size, counts, seed=7).planted
        top = max(counts)
        for inner_size in sorted(counts)[:-1]:
            inner = next(p for p in planted if len(p) == inner_size)
            fill = (v for v in range(universe_size) if v not in inner)
            outer = tuple(sorted(inner + tuple(next(fill) for _ in range(top - inner_size))))
            bad = planted[:-3] + (outer,) + planted[-3:]
            assert validation_outcome(universe_size, bad) == expected_validation(bad)
            assert reference_offender(bad) == outer

    @pytest.mark.parametrize("universe_size, counts", EDGE_FAMILIES)
    def test_validation_names_a_repeated_top_set(self, universe_size, counts):
        planted = generate_family(universe_size, counts, seed=7).planted
        bad = planted + (planted[-5],)
        assert validation_outcome(universe_size, bad) == expected_validation(bad)
        assert reference_offender(bad) == planted[-5]


def tier_keys(count, seed):
    """`count` distinct sorted int64 keys of 3-sets over 10,000 nodes."""
    rng = np.random.default_rng(seed)
    keys = np.empty(0, dtype=np.int64)
    while len(keys) < count:
        rows = np.sort(rng.integers(0, 10_000, size=(count, 3)), axis=1)
        rows = rows[(rows[:, 1:] != rows[:, :-1]).all(axis=1)]
        keys = np.unique(np.concatenate((keys, _set_keys(rows.T, 10_000))))
    return np.sort(rng.permutation(keys)[:count])


class TestSizeKeys:
    """The bitmap only filters: `holds` answers as `np.isin` does."""

    # 1 and 400 keys get 64 to 128 slots each; 2**14 keys are the fewest that
    # the 2**20-slot cap limits, to 64 each; 70,000 keys get the cap, which
    # the rule of 8 to 16 slots per key also gives them.
    @pytest.mark.parametrize("count, slots", [
        (1, 128), (400, 2**15), (2**14, 2**20), (70_000, 2**20),
    ])
    def test_int64_tier_answers_as_isin(self, count, slots):
        keys = tier_keys(count, seed=count)
        tier = _SizeKeys(keys)
        assert len(tier.bitmap) == slots
        assert len(tier.bitmap) >= 1 << (8 * count).bit_length()
        rng = np.random.default_rng(count + 1)
        others = np.setdiff1d(tier_keys(20_000, seed=count + 2), keys)
        passed = tier.bitmap[tier._slots(others)]
        # Absent keys whose slot a present key set, which only the
        # `searchsorted` check turns away.
        colliding = others[passed]
        assert colliding.size
        queries = np.concatenate((
            rng.choice(keys, 500), rng.choice(colliding, 500), rng.choice(others[~passed], 500),
        ))
        rng.shuffle(queries)
        for q in (queries, queries.reshape(150, 10), queries[:1]):
            assert np.array_equal(tier.holds(q), np.isin(q, keys))
        assert not tier.holds(colliding).any()

    def test_void_tier_answers_as_isin(self):
        rng = np.random.default_rng(5)
        n = 2**32 + 5
        rows = np.sort(rng.integers(0, n, size=(600, 2)), axis=1)
        keys = _set_keys(rows.T, n)
        assert keys.dtype.type is np.void
        tier = _SizeKeys(np.unique(keys[:300]))
        assert tier.bitmap is None
        for q in (keys, keys.reshape(60, 10)):
            assert np.array_equal(tier.holds(q), np.isin(q, keys[:300]))


def smaller_of(universe_size, sets):
    """`_Smaller` of the canonical `sets`, one size after another."""
    smaller = _Smaller(universe_size)
    for j in sorted(set(map(len, sets))):
        rows = np.array(sorted({s for s in sets if len(s) == j}), dtype=np.int64)
        smaller.add(j, np.sort(_set_keys(rows.T, universe_size)))
    return smaller


def batch_of_rows(rng, pool, k, sets, count):
    """`count` random ascending width-k rows over `pool`, and one superset
    of each of 40 of `sets`."""
    rows = [sorted(rng.choice(pool, k, replace=False).tolist()) for _ in range(count)]
    for i in rng.integers(0, len(sets), 40).tolist():
        rest = [v for v in pool if v not in sets[i]]
        extra = rng.choice(rest, k - len(sets[i]), replace=False).tolist()
        rows.append(sorted(sets[i] + tuple(extra)))
    return np.array(rows, dtype=np.int64)


class TestHeadPairFilter:
    """`_nested` answers as `nests` does, whether or not its head-pair
    lookup turns a row away."""

    @staticmethod
    def assert_nested_as_reference(universe_size, sets, rows):
        expected = [nests(tuple(r), set(sets), set(map(len, sets))) for r in rows.tolist()]
        assert any(expected) and not all(expected)
        smaller = smaller_of(universe_size, sets)
        # Member columns as generation holds them (int64 rows of a block,
        # here a strided view) and as validation takes them from the row
        # store (its column type).
        column = np.min_scalar_type(universe_size)
        for part in (rows, rows[:1], rows[:0]):
            for columns in (part.T, np.ascontiguousarray(part.T, dtype=column)):
                assert _nested(columns, smaller).tolist() == expected[:len(part)]

    @pytest.mark.parametrize("universe_size, counts, k", [
        (12, {2: 12, 3: 40}, 4), (20, {2: 10, 3: 120, 4: 100}, 5),
    ])
    def test_dense_family_where_most_pairs_are_head_pairs(self, universe_size, counts, k):
        sets = generate_family(universe_size, counts, seed=3).planted
        smaller = smaller_of(universe_size, sets)
        pairs = _set_keys(np.array(list(combinations(range(universe_size), 2))).T, universe_size)
        assert smaller.heads.holds(pairs).mean() > 0.5
        rows = batch_of_rows(np.random.default_rng(k), range(universe_size), k, sets, 300)
        self.assert_nested_as_reference(universe_size, sets, rows)

    @pytest.mark.parametrize("k", [3, 5])
    def test_only_pairs_below(self, k):
        sets = generate_family(30, {2: 60}, seed=4).planted
        rows = batch_of_rows(np.random.default_rng(k), range(30), k, sets, 300)
        self.assert_nested_as_reference(30, sets, rows)

    def test_void_pair_keys(self):
        n = 2**32 + 5
        pool = [*range(8), *range(n - 8, n)]
        rng = np.random.default_rng(6)
        sets = sorted({tuple(sorted(rng.choice(pool, j, replace=False).tolist()))
                       for j in (2, 2, 3) for _ in range(8)})
        assert _set_keys(np.array([[0], [n - 1]]), n).dtype.type is np.void
        rows = batch_of_rows(rng, pool, 4, sets, 200)
        self.assert_nested_as_reference(n, sets, rows)

    @pytest.mark.parametrize("universe_size, counts", EDGE_FAMILIES)
    def test_wide_keys_of_the_edge_families(self, universe_size, counts):
        top = max(counts)
        planted = generate_family(universe_size, counts, seed=7).planted
        sets = [p for p in planted if len(p) < top]
        rows = batch_of_rows(np.random.default_rng(top), range(universe_size), top, sets, 200)
        self.assert_nested_as_reference(universe_size, sets, rows)


class TestCompleteTiers:
    """Tiers drawn until every set of the size is planted repeat most draws."""

    @pytest.mark.parametrize("universe_size, k", [(12, 2), (9, 3), (60, 2)])
    def test_generation_matches_reference(self, universe_size, k):
        counts = {k: comb(universe_size, k)}
        planted = generate_family(universe_size, counts, seed=11).planted
        assert planted == reference_generate(universe_size, counts, seed=11)
        assert planted == tuple(combinations(range(universe_size), k))
