"""Planted families, the noisy oracle, sampling, and serialization."""

import dataclasses
import json
import math
import pickle
import random
import re
import tempfile
from itertools import combinations
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupsight import (
    InfeasibleCountsError,
    InvalidKError,
    Oracle,
    PlantedFamily,
    ReplayError,
    SampleSizeError,
    ValidationError,
    expected_planted_count,
    generate_family,
    sample,
    spawn_generator,
)
from groupsight import TestLedger as Ledger
from groupsight import backend, draws, oracle
from groupsight.backend import FamilyIndex
from groupsight.oracle import _CHUNK, _draw_sets
from groupsight.rng import ROLE_FAMILY

from conftest import (
    brute_is_antichain,
    brute_truth,
    make_family,
    mask_of,
    nodes_of,
    random_antichain_family,
)

BUDGET_CASES = [
    # All pairs over {0,1,2} planted; no 3-set can avoid containing one.
    pytest.param(3, {2: 3, 3: 1}, dict(seed=0, attempts_per_set=50), "0/1", id="all-pairs"),
    pytest.param(6, {2: 9, 3: 8}, dict(seed=1), "1/8", id="dense"),
    pytest.param(8, {2: 20, 3: 12}, dict(seed=4, attempts_per_set=3), "0/12", id="tight-budget"),
]


class TestGenerateFamily:
    def test_empty_family_answers_non_defective(self):
        fam = generate_family(10, {2: 0, 3: 0}, seed=1)
        assert fam.planted == ()
        oracle = Oracle(fam)
        ledger = Ledger()
        rng = spawn_generator(0, 0)
        assert not oracle.is_defective([0, 1, 2], ledger, rng)
        assert ledger.negatives == 1

    def test_equal_size_sets_are_distinct_pairs(self):
        fam = generate_family(6, {2: 3}, seed=5)
        assert len(fam.planted) == 3
        assert len(set(fam.planted)) == 3
        assert all(len(p) == 2 for p in fam.planted)
        assert brute_is_antichain(fam.planted)

    def test_mixed_sizes_form_antichain_by_exhaustive_pairwise_check(self):
        fam = generate_family(20, {2: 5, 3: 5}, seed=11)
        assert fam.counts_by_k == {2: 5, 3: 5}
        # All 25 ordered (2-set, 3-set) pairs, plus same-size pairs.
        twos = [set(p) for p in fam.planted if len(p) == 2]
        threes = [set(p) for p in fam.planted if len(p) == 3]
        assert not any(a <= b for a in twos for b in threes)
        assert brute_is_antichain(fam.planted)

    def test_generation_is_deterministic(self):
        a = generate_family(50, {2: 10, 3: 7, 4: 2}, seed=42)
        b = generate_family(50, {2: 10, 3: 7, 4: 2}, seed=42)
        assert a.planted == b.planted
        c = generate_family(50, {2: 10, 3: 7, 4: 2}, seed=43)
        assert c.planted != a.planted

    def test_rejects_defective_singletons(self):
        with pytest.raises(InvalidKError):
            generate_family(10, {1: 5}, seed=0)

    def test_rejects_counts_beyond_binomial(self):
        with pytest.raises(InfeasibleCountsError):
            generate_family(4, {2: 7}, seed=0)  # C(4,2) = 6

    @pytest.mark.parametrize("universe_size, counts, kwargs, placed", BUDGET_CASES)
    def test_retry_budget_exhaustion_raises(self, universe_size, counts, kwargs, placed):
        # The placed count pins how many candidates the tier drew and kept.
        with pytest.raises(InfeasibleCountsError, match=rf"\({placed} placed\)"):
            generate_family(universe_size, counts, **kwargs)

    # Below `_CHUNK` missing sets a tier counts its distinct sets; these
    # batch sizes also run the uncounted batches before that.
    @pytest.mark.parametrize("chunk", [1, 3, 8])
    @pytest.mark.parametrize("universe_size, counts, kwargs, placed", BUDGET_CASES)
    def test_retry_budget_exhaustion_raises_in_small_batches(
        self, monkeypatch, chunk, universe_size, counts, kwargs, placed
    ):
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        with pytest.raises(InfeasibleCountsError, match=rf"\({placed} placed\)"):
            generate_family(universe_size, counts, **kwargs)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(min_value=6, max_value=30),
        c2=st.integers(min_value=0, max_value=6),
        c3=st.integers(min_value=0, max_value=5),
        c4=st.integers(min_value=0, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_generated_families_are_always_antichains(self, n, c2, c3, c4, seed):
        # Dense random requests can be legitimately unsatisfiable; a clean
        # infeasibility error is an acceptable outcome there.
        try:
            fam = generate_family(n, {2: c2, 3: c3, 4: c4}, seed=seed)
        except InfeasibleCountsError:
            return
        assert fam.counts_by_k == {
            k: c for k, c in {2: c2, 3: c3, 4: c4}.items() if c
        }
        assert brute_is_antichain(fam.planted)
        fam.validate_antichain()


class TestDrawSets:
    """The batched draw replays `choice(n, k, replace=False)` exactly."""

    @staticmethod
    def assert_same_stream(n, k, count, seed=0):
        rng, ref = spawn_generator(seed, n, k), spawn_generator(seed, n, k)
        got = _draw_sets(rng, n, k, count)
        expected = [np.sort(ref.choice(n, k, replace=False)) for _ in range(count)]
        np.testing.assert_array_equal(got, np.array(expected))
        np.testing.assert_equal(rng.bit_generator.state, ref.bit_generator.state)

    @pytest.mark.parametrize(
        "n, k, count",
        [
            (2, 2, _CHUNK + 1),
            (3, 2, _CHUNK + 1),
            (5, 5, _CHUNK + 1),
            (40, 3, 2 * _CHUNK + 7),
            (40, 39, 100),
            (1000, 5, _CHUNK + 1),
            (1000, 1000, 5),
            (10_000, 2, _CHUNK + 1),
            (10_000, 201, 20),
            (10_000, 10_000, 2),
            (20_000, 400, 5),  # the largest k numpy still draws by Floyd
            (20_000, 401, 5),  # numpy's tail shuffle: one `choice` per row
        ],
    )
    def test_matches_successive_choice_calls(self, n, k, count):
        self.assert_same_stream(n, k, count)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(min_value=2, max_value=10_000))
    def test_matches_choice_on_random_sizes(self, data, n):
        k = data.draw(st.integers(min_value=2, max_value=min(n, 64)))
        count = data.draw(st.integers(min_value=1, max_value=40))
        self.assert_same_stream(n, k, count, seed=data.draw(st.integers(0, 2**32 - 1)))

    def test_family_crossing_chunks_matches_one_at_a_time_draws(self):
        # The loop generate_family ran before batching: one `sample` per
        # candidate, dropping repeats and triples that hold a planted pair.
        rng = spawn_generator(31, ROLE_FAMILY)
        pairs, triples = set(), set()
        while len(pairs) < 1500:
            pairs.add(tuple(sorted(sample(range(200), 2, rng))))
        while len(triples) < 1200:
            cand = tuple(sorted(sample(range(200), 3, rng)))
            if pairs.isdisjoint(combinations(cand, 2)):
                triples.add(cand)
        fam = generate_family(200, {2: 1500, 3: 1200}, seed=31)
        assert fam.planted == tuple(sorted(pairs)) + tuple(sorted(triples))

    def test_family_shares_one_int_object_per_node(self):
        fam = generate_family(1000, {2: 400, 5: 3000}, seed=3)
        assert len({id(v) for p in fam.planted for v in p}) <= 1000


class TestRawWordDraw:
    """`_Lemire.draw` gives the values and leaves the generator state of
    `integers(0, highs)` over `count` rows of bounds."""

    @staticmethod
    def assert_same_as_integers(highs, count, seed=0, pending=False):
        rng, ref = spawn_generator(seed, 9), spawn_generator(seed, 9)
        if pending:
            # Leaves half of a 64-bit output cached for the next 32-bit word.
            for g in (rng, ref):
                g.integers(0, 2**32, dtype=np.uint32)
        got = draws._Lemire(np.array(highs)).draw(rng, count)
        expected = ref.integers(0, np.tile(np.array(highs, dtype=np.int64), count))
        np.testing.assert_array_equal(got.T, expected.reshape(count, len(highs)))
        np.testing.assert_equal(rng.bit_generator.state, ref.bit_generator.state)

    @pytest.mark.parametrize("pending", [False, True])
    @pytest.mark.parametrize("highs", [
        [1, 2, 3, 4, 4, 3, 2],  # the bounds of choice(4, 4): n == k
        [1],
        [5, 1, 1, 7],
        [996, 997, 998, 999, 1000, 5, 4, 3, 2],
    ])
    def test_matches_integers(self, highs, pending):
        self.assert_same_as_integers(highs, 300, pending=pending)

    @pytest.mark.parametrize("pending", [False, True])
    def test_rejected_words_shift_the_draws_after_them(self, pending):
        # Near 2**32 a word is rejected with probability up to one half
        # (2**31 + 1); 2**32 takes a word as it is, and 2**32 - 1 rejects
        # only a word whose product has low half 0.
        highs = [2**31 + 1, 3 * 2**30, 7, 2**32 - 1, 2**32, 1]
        bounds = draws._Lemire(np.array(highs))
        rng, plain = spawn_generator(1, 9), spawn_generator(1, 9)
        bounds.draw(rng, 200)
        plain.integers(0, 2**32, size=200 * bounds.words, dtype=np.uint32)
        # More words were taken than there are draws, so some were rejected.
        after = [g.integers(0, 2**32, size=4, dtype=np.uint32) for g in (rng, plain)]
        assert not np.array_equal(*after)
        self.assert_same_as_integers(highs, 200, seed=1, pending=pending)

    def test_empty_batch_takes_no_word(self):
        self.assert_same_as_integers([5, 4, 3, 2], 0, pending=True)
        assert draws._Lemire(np.array([5, 4])).draw(spawn_generator(0), 0).shape == (2, 0)

    @pytest.mark.parametrize("n, k", [(2**32, 3), (2**32 + 5, 2)])
    def test_bounds_beyond_one_word(self, n, k):
        # A bound of 2**32 still takes one word; above it, `choice` per row.
        TestDrawSets.assert_same_stream(n, k, 5)


class TestReplayCheck:
    """The first `generate_family` call in a process checks `_draw_sets`
    against `choice` itself."""

    def test_case_holds_a_bound_of_one_and_a_floyd_collision(self):
        n, k, count = draws._REPLAY_CASE
        assert n == k
        highs = np.concatenate((np.arange(1, n + 1), np.arange(k, 1, -1)))
        rng = spawn_generator(0, ROLE_FAMILY)
        rows = rng.integers(0, np.tile(highs, count)).reshape(count, -1)[:, :k]
        # Two equal draws of Floyd's: a fix-up replaced one of them, or an
        # earlier draw.
        assert any(len(set(row)) < k for row in rows.tolist())

    def test_passes_on_this_numpy(self):
        draws._check_replay()

    def test_reference_one_draw_apart_raises(self):
        def reference(rng, n, k, first=[]):
            if not first:
                first.append(rng.integers(2))
            return draws._choice_row(rng, n, k)

        with pytest.raises(ReplayError, match=re.escape(f"numpy {np.__version__}")):
            draws._check_replay(reference)

    def test_runs_once_per_process(self, monkeypatch):
        calls = []
        monkeypatch.setattr(draws, "_check_replay", lambda: calls.append(1))
        draws._replay_checked.cache_clear()
        try:
            for seed in (1, 2):
                generate_family(20, {2: 5}, seed=seed)
        finally:
            draws._replay_checked.cache_clear()
        assert calls == [1]

    def test_a_failed_check_raises_on_every_call(self, monkeypatch):
        def mismatch():
            raise ReplayError("numpy 0.0: differs")

        monkeypatch.setattr(draws, "_check_replay", mismatch)
        draws._replay_checked.cache_clear()
        try:
            for _ in range(2):
                with pytest.raises(ReplayError):
                    generate_family(20, {2: 5}, seed=1)
        finally:
            draws._replay_checked.cache_clear()


class TestFamilySeed:
    """The constructor, JSON records and `generate_family` take one seed
    rule: None or an integer at least 0, not a bool."""

    BAD = pytest.mark.parametrize("seed", ["x", True, -3], ids=["string", "bool", "negative"])
    MESSAGE = "^family seed must be null or an integer >= 0$"

    @BAD
    def test_constructor(self, seed):
        with pytest.raises(ValidationError, match=self.MESSAGE):
            PlantedFamily(10, ((0, 1),), seed=seed)

    @BAD
    def test_json_record(self, seed):
        with pytest.raises(ValidationError, match=self.MESSAGE):
            PlantedFamily.from_json_dict({"universe_size": 10, "planted": [[0, 1]], "seed": seed})

    @BAD
    def test_generate_family(self, seed):
        with pytest.raises(ValidationError, match=self.MESSAGE):
            generate_family(10, {2: 3}, seed=seed)

    def test_numpy_integer_is_kept_as_an_int(self, tmp_path):
        fam = PlantedFamily(10, ((0, 1),), seed=np.uint8(3))
        assert type(fam.seed) is int
        assert type(generate_family(10, {2: 3}, seed=np.int64(3)).seed) is int
        fam.save(tmp_path / "fam.json")
        assert PlantedFamily.load(tmp_path / "fam.json") == PlantedFamily(10, ((0, 1),), seed=3)

    def test_none_draws_fresh_entropy_and_records_no_seed(self):
        fam = generate_family(30, {2: 20, 3: 20}, seed=None)
        assert fam.seed is None
        assert fam.counts_by_k == {2: 20, 3: 20}
        fam.validate_antichain()


class TestContainsDefective:
    def test_superset_of_planted_pair(self):
        fam = make_family(10, [{1, 2}])
        assert fam.contains_defective([1, 2, 3])

    def test_partial_overlap_is_not_defective(self):
        fam = make_family(10, [{1, 2}])
        assert not fam.contains_defective([1, 3])

    def test_exact_match(self):
        fam = make_family(10, [{1, 2}, {3, 4, 5}])
        assert fam.contains_defective([3, 4, 5])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_monotone_in_supersets_and_matches_brute_force(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        n = rng.randrange(8, 30)
        from conftest import random_antichain_family

        fam = random_antichain_family(rng, n, sizes=(2, 3, 4, 5, 6, 7))
        s = rng.sample(range(n), rng.randrange(1, n + 1))
        extra = [v for v in range(n) if v not in s]
        t = s + rng.sample(extra, rng.randrange(len(extra) + 1))
        assert fam.contains_defective(s) == brute_truth(fam.planted, s)
        if fam.contains_defective(s):
            assert fam.contains_defective(t)
        for k in (2, 3, 4, 5, 6, 7):
            inside = sum(1 for p in fam.planted if len(p) == k and set(p) <= set(s))
            assert fam.count_contained(s, k) == inside


    def test_list_tuple_and_frozenset_give_one_answer(self):
        # A run hands the oracle the frozenset it registers; a whole
        # family must answer it as it answers the same nodes in a list.
        fam = make_family(12, [{0, 1}, {2, 3, 4}, {5, 6, 7, 8}])
        rng = random.Random(17)
        for _ in range(200):
            nodes = rng.sample(range(12), rng.randrange(1, 13))
            forms = [nodes, tuple(nodes), frozenset(nodes)]
            truth = brute_truth(fam.planted, nodes)
            assert [fam.contains_defective(f) for f in forms] == [truth] * 3
            for k in (2, 3, 4):
                assert len({fam.count_contained(f, k) for f in forms}) == 1
            answers = []
            for f in forms:
                ledger = Ledger()
                answers.append((Oracle(fam, p_fn=0.4).is_defective(
                    f, ledger, spawn_generator(9, len(nodes))), ledger))
            assert answers[0] == answers[1] == answers[2]
        with pytest.raises(ValidationError):
            fam.contains_defective(frozenset({0, 12}))


class TestProjection:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_truth_matches_brute_force_on_subsets_of_the_sample(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        n = rng.randrange(5, 30)
        fam = random_antichain_family(
            rng, n, max_sets=data.draw(st.integers(0, 25)), sizes=(2, 3, 4, 5)
        )
        s = rng.sample(range(n), data.draw(st.integers(0, n)))
        proj = fam.project(s)
        assert proj.nodes == tuple(s)
        # Bit i of each set's mask stands for s[i].
        assert sorted(sorted(nodes_of(s, p)) for p in proj.sets) == sorted(
            list(p) for p in fam.planted if set(p) <= set(s)
        )
        sizes = [p.bit_count() for p in proj.sets]
        assert sizes == sorted(sizes)
        for _ in range(20):
            q = rng.sample(s, rng.randrange(len(s) + 1))
            assert proj.contains_defective(mask_of(s, q)) == brute_truth(fam.planted, q)
        inside = mask_of(s, s[: rng.randrange(len(s) + 1)])
        for bad in (inside | 1 << rng.randrange(len(s), len(s) + 70), -1 - inside):
            with pytest.raises(ValidationError):
                proj.contains_defective(bad)

    def test_empty_family(self):
        proj = generate_family(10, {}, seed=0).project([1, 4, 7])
        assert proj.sets == ()
        assert not proj.contains_defective(0b111)

    def test_sample_holding_no_planted_set(self):
        fam = make_family(10, [{0, 1}, {2, 3, 4}, {5, 6, 7, 8, 9}])
        proj = fam.project([0, 2, 3, 5, 6, 7, 8])
        assert proj.sets == ()
        assert not proj.contains_defective((1 << 7) - 1)

    def test_mask_query_outside_the_sample_rejected(self):
        proj = make_family(10, [{0, 1}, {2, 3}]).project([3, 0, 2, 1])
        assert proj.sets == (0b1010, 0b0101)
        assert proj.contains_defective(0b1010)
        assert not proj.contains_defective(0b0011)
        for bad in (0b11010, 1 << 9, -1):
            with pytest.raises(ValidationError):
                proj.contains_defective(bad)

    def test_sample_out_of_range_rejected(self):
        fam = make_family(10, [{0, 1}])
        for bad in ([0, 10], [-1, 3]):
            with pytest.raises(ValidationError):
                fam.project(bad)

    def test_sample_with_a_repeated_node_rejected(self):
        # A node held twice would have two bits, and a mask one of them.
        with pytest.raises(ValidationError):
            make_family(10, [{0, 1}]).project([0, 1, 0])

    def test_oracle_over_projection_charges_and_rejects_like_the_full_one(self):
        fam = make_family(12, [{0, 1}, {2, 3, 4}, {6, 7}])
        s = [0, 1, 2, 3, 4, 5]
        full, local = Oracle(fam, p_fn=0.3), Oracle(fam.project(s), p_fn=0.3)
        pyrng = random.Random(5)
        full_ledger, local_ledger = Ledger(), Ledger()
        full_rng, local_rng = spawn_generator(8, 0), spawn_generator(8, 0)
        for _ in range(300):
            q = pyrng.sample(s, pyrng.randrange(len(s) + 1))
            assert full.is_defective(q, full_ledger, full_rng) == local.is_defective(
                mask_of(s, q), local_ledger, local_rng
            )
        assert full_ledger == local_ledger
        with pytest.raises(ValidationError):
            local.is_defective(0b1 | 1 << 6 | 1 << 7, local_ledger, local_rng)
        assert full_ledger == local_ledger

    def test_mixed_sizes_in_any_order_match_brute_force(self):
        # Sizes 2 to 5 interleaved, minimum members out of order.
        planted = (
            (3, 9, 14, 20, 25), (0, 7), (5, 6, 11), (1, 8, 12, 19),
            (2, 10, 13, 21, 29), (0, 15, 22), (4, 16, 23, 27), (1, 17),
            (6, 12, 18, 24, 28), (2, 11, 26), (3, 5),
        )
        fam = make_family(30, planted)
        pyrng = random.Random(41)
        for _ in range(300):
            s = pyrng.sample(range(30), pyrng.randrange(31))
            proj = fam.project(s)
            inside = [p for p in planted if set(p) <= set(s)]
            assert set(proj.sets) == {mask_of(s, p) for p in inside}
            assert len(proj.sets) == len(inside)
            assert [p.bit_count() for p in proj.sets] == sorted(len(p) for p in inside)
            q = pyrng.sample(s, pyrng.randrange(len(s) + 1))
            assert proj.contains_defective(mask_of(s, q)) == brute_truth(planted, q)

    @staticmethod
    def assert_same_store_and_answers(fam, clone):
        assert clone == fam
        store, clone_store = fam.index(), clone.index()
        assert len(clone_store.columns) == len(store.columns)
        for col, clone_col in zip(
            (*store.columns, store.starts, store.sizes),
            (*clone_store.columns, clone_store.starts, clone_store.sizes),
        ):
            assert clone_col.dtype == col.dtype and np.array_equal(clone_col, col)
        pyrng, n = random.Random(3), fam.universe_size
        for _ in range(50):
            s = pyrng.sample(range(n), pyrng.randrange(n + 1))
            assert clone.project(s).sets == fam.project(s).sets
            assert clone.contains_defective(s) == fam.contains_defective(s)
            for k in (2, 3, 4, 5):
                assert clone.count_contained(s, k) == fam.count_contained(s, k)

    def test_pickled_family_carries_its_store(self):
        fam = generate_family(40, {2: 6, 3: 4, 5: 10}, seed=9)
        clone = pickle.loads(pickle.dumps(fam))
        assert type(clone.index()) is FamilyIndex
        self.assert_same_store_and_answers(fam, clone)

    def test_family_pickles_with_a_run_time_subclass_as_its_store(self, monkeypatch):
        # A timing wrapper may put a `type()`-made subclass in the class's
        # place; that subclass has no importable name.
        timed = type("FamilyIndex", (FamilyIndex,), {})
        monkeypatch.setattr(backend, "FamilyIndex", timed)
        fam = generate_family(40, {2: 6, 3: 4, 5: 10}, seed=9)
        assert type(fam.index()) is timed
        self.assert_same_store_and_answers(fam, pickle.loads(pickle.dumps(fam)))

    def test_generated_family_equals_the_family_of_its_tuples(self):
        fam = generate_family(300, {2: 40, 3: 60, 5: 2500}, seed=4)
        rebuilt = PlantedFamily(fam.universe_size, fam.planted, fam.seed)
        assert rebuilt == fam and hash(rebuilt) == hash(fam)
        clone = pickle.loads(pickle.dumps(fam))
        assert clone == fam and hash(clone) == hash(fam)
        store, rebuilt_store = fam.index(), rebuilt.index()
        for col, rebuilt_col in zip(
            (*store.columns, store.starts, store.sizes, store.order),
            (*rebuilt_store.columns, rebuilt_store.starts, rebuilt_store.sizes,
             rebuilt_store.order),
            strict=True,
        ):
            assert rebuilt_col.dtype == col.dtype
            assert np.array_equal(rebuilt_col, col)

    def test_planted_of_a_generated_family_is_made_once_when_read(self):
        fam = generate_family(60, {2: 10, 3: 10, 5: 300}, seed=31)
        assert "planted" not in vars(fam)
        planted = fam.planted
        assert fam.planted is planted
        assert [len(p) for p in planted] == [2] * 10 + [3] * 10 + [5] * 300

    def test_pickled_family_leaves_its_tuples_behind(self):
        fam = make_family(9, [(0, 5), (1, 2, 3), (4, 8)], seed=2)
        clone = pickle.loads(pickle.dumps(fam))
        assert "planted" not in vars(clone)
        assert clone.planted == fam.planted
        assert clone == fam and hash(clone) == hash(fam)

    def test_replace_rebuilds_index_and_row_store(self):
        fam = PlantedFamily(6, ((1, 2),))
        assert fam.contains_defective([1, 2])
        other = dataclasses.replace(fam, planted=((3, 4),))
        assert other.index() is not fam.index()
        assert not other.contains_defective([1, 2])
        assert other.contains_defective([3, 4])
        assert other.project([1, 2, 3, 4]).sets == (0b1100,)
        with pytest.raises(TypeError):
            PlantedFamily(6, ((3, 4),), _index=fam.index())


class TestIsDefective:
    def test_noise_free_positive(self):
        fam = make_family(8, [{0, 1}])
        oracle = Oracle(fam, p_fn=0.0)
        ledger = Ledger()
        assert oracle.is_defective([0, 1, 5], ledger, spawn_generator(1, 0))
        assert (ledger.positives, ledger.negatives) == (1, 0)

    def test_noise_free_negative(self):
        fam = make_family(8, [{0, 1}])
        oracle = Oracle(fam, p_fn=0.0)
        ledger = Ledger()
        assert not oracle.is_defective([0, 2], ledger, spawn_generator(1, 0))
        assert (ledger.positives, ledger.negatives) == (0, 1)

    def test_false_negative_rate_monte_carlo(self):
        fam = make_family(8, [{0, 1}])
        oracle = Oracle(fam, p_fn=0.5)
        ledger = Ledger()
        rng = spawn_generator(123, 0)
        calls = 10_000
        hits = sum(oracle.is_defective([0, 1], ledger, rng) for _ in range(calls))
        assert 0.48 <= hits / calls <= 0.52
        assert ledger.positives == hits
        assert ledger.negatives == calls - hits

    def test_ledger_conservation(self):
        fam = make_family(12, [{0, 1}, {2, 3, 4}])
        oracle = Oracle(fam, p_fn=0.3)
        ledger = Ledger()
        rng = spawn_generator(7, 0)
        pyrng = random.Random(99)
        calls = 500
        for _ in range(calls):
            s = pyrng.sample(range(12), pyrng.randrange(1, 6))
            oracle.is_defective(s, ledger, rng)
        assert ledger.positives + ledger.negatives == calls

    def test_zero_noise_matches_truth_everywhere(self):
        fam = make_family(9, [{0, 1}, {4, 5, 6}])
        oracle = Oracle(fam, p_fn=0.0)
        rng = spawn_generator(3, 0)
        from itertools import combinations

        for k in range(1, 5):
            for s in combinations(range(9), k):
                ledger = Ledger()
                assert oracle.is_defective(s, ledger, rng) == fam.contains_defective(s)

    def test_false_negatives_charged_as_negatives(self):
        fam = make_family(8, [{0, 1}])
        oracle = Oracle(fam, p_fn=0.999)
        ledger = Ledger()
        rng = spawn_generator(5, 0)
        results = [oracle.is_defective([0, 1], ledger, rng) for _ in range(200)]
        assert ledger.negatives == results.count(False)
        assert ledger.positives == results.count(True)

    def test_invalid_p_fn_rejected(self):
        fam = make_family(8, [{0, 1}])
        with pytest.raises(ValidationError):
            Oracle(fam, p_fn=1.0)
        with pytest.raises(ValidationError):
            Oracle(fam, p_fn=-0.1)


class TestSample:
    def test_full_draw_is_a_permutation(self):
        rng = spawn_generator(11, 0)
        pool = [3, 6, 9, 12, 15]
        out = sample(pool, 5, rng)
        assert sorted(out) == sorted(pool)

    def test_single_draw_uniformity(self):
        rng = spawn_generator(13, 0)
        pool = list(range(5))
        draws = 20_000
        counts = [0] * 5
        for _ in range(draws):
            counts[sample(pool, 1, rng)[0]] += 1
        p = 1 / 5
        sigma = math.sqrt(p * (1 - p) / draws)
        for c in counts:
            assert abs(c / draws - p) <= 3 * sigma

    def test_order_is_random_not_sorted(self):
        rng = spawn_generator(17, 0)
        positions_of_min = [sample(range(8), 8, rng).index(0) for _ in range(200)]
        assert len(set(positions_of_min)) > 4

    def test_count_exceeding_pool_raises(self):
        with pytest.raises(SampleSizeError):
            sample([1, 2, 3], 4, spawn_generator(0, 0))

    @pytest.mark.parametrize(
        "pool",
        [
            range(60),
            range(7, 67),
            list(range(100, 160)),
            tuple(range(0, 180, 3)),
            np.arange(500, 560, dtype=np.uint16),
        ],
        ids=["range-n", "range-a-b", "list", "tuple", "ndarray"],
    )
    def test_draws_are_choice_on_positions(self, pool):
        rng, ref = spawn_generator(23, 1), spawn_generator(23, 1)
        for count in (0, 1, 5, 17, 60):
            got = sample(pool, count, rng)
            expected = [int(pool[i]) for i in ref.choice(len(pool), count, replace=False)]
            assert got == expected
            assert all(type(v) is int for v in got)
        np.testing.assert_equal(rng.bit_generator.state, ref.bit_generator.state)


class TestSerialization:
    def test_round_trip_is_lossless(self, tmp_path):
        fam = generate_family(40, {2: 6, 3: 4}, seed=9)
        path = tmp_path / "fam.json"
        fam.save(path)
        loaded = PlantedFamily.load(path)
        assert loaded.universe_size == fam.universe_size
        assert loaded.planted == fam.planted
        assert loaded.seed == fam.seed
        loaded.save(tmp_path / "fam2.json")
        assert (tmp_path / "fam2.json").read_text() == path.read_text()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: PlantedFamily(10, (), seed=5),
            lambda: make_family(12, [(0, 1), (2, 3, 4)], seed=None),
            # Sets of mixed sizes, not in the store's order.
            lambda: PlantedFamily(
                12, ((5, 9), (0, 1, 2, 3), (4, 10), (1, 6, 7), (0, 11), (2, 6, 8)), seed=4
            ),
            # 1,000 2-sets, then 3-sets: chunk 0 ends 24 sets into the 3-sets.
            lambda: generate_family(100, {2: 1000, 3: 1100}, seed=2),
            # The sizes of `generate --k7 20 --k8 20`, whose set keys are wide.
            lambda: generate_family(1000, {7: 20, 8: 20}, seed=0),
        ],
        ids=["empty", "seed-none", "unsorted-mixed", "chunk-boundary", "wide-keys"],
    )
    def test_save_writes_json_dumps_of_the_record(self, tmp_path, make):
        fam = make()
        path = tmp_path / "fam.json"
        fam.save(path)
        record = {
            "universe_size": fam.universe_size,
            "planted": [list(p) for p in fam.planted],
            "seed": fam.seed,
        }
        assert path.read_text() == json.dumps(record) + "\n"
        PlantedFamily.load(path).save(tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_loaded_family_holds_no_tuples(self, tmp_path):
        fam = generate_family(300, {2: 40, 3: 60, 5: 2500}, seed=4)
        path = tmp_path / "fam.json"
        fam.save(path)
        loaded = PlantedFamily.load(path)
        assert "planted" not in vars(loaded)
        store, loaded_store = fam.index(), loaded.index()
        for col, loaded_col in zip(
            (*store.columns, store.starts, store.sizes, store.order),
            (*loaded_store.columns, loaded_store.starts, loaded_store.sizes,
             loaded_store.order),
            strict=True,
        ):
            assert loaded_col.dtype == col.dtype
            assert np.array_equal(loaded_col, col)
        assert loaded.planted == fam.planted
        assert loaded == fam and hash(loaded) == hash(fam)
        clone = pickle.loads(pickle.dumps(loaded))
        assert clone == fam and hash(clone) == hash(fam)

    def test_load_rejects_non_antichain(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "universe_size": 10,
            "planted": [[1, 2], [1, 2, 3]],
            "seed": 0,
        }))
        with pytest.raises(ValidationError):
            PlantedFamily.load(path)

    def test_load_rejects_duplicates(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({
            "universe_size": 10,
            "planted": [[1, 2], [1, 2]],
            "seed": None,
        }))
        with pytest.raises(ValidationError):
            PlantedFamily.load(path)

    def test_load_rejects_pair_nested_in_five_set(self, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text(json.dumps({
            "universe_size": 10,
            "planted": [[0, 1, 4, 6, 8], [3, 5], [4, 8]],
            "seed": None,
        }))
        with pytest.raises(ValidationError, match=r"offending set \(0, 1, 4, 6, 8\)"):
            PlantedFamily.load(path)

    def test_family_validates_members(self):
        with pytest.raises(ValidationError):
            make_family(4, [{1, 5}])
        with pytest.raises(InvalidKError):
            PlantedFamily(universe_size=4, planted=((2,),))


def _outcome(read) -> tuple:
    """What `read()` gives: the family and its row store's arrays, or the
    type and message of the error it raises."""
    try:
        fam = read()
    except Exception as exc:  # every error either path raises is compared
        return "error", type(exc), str(exc)
    store = fam.index()
    arrays = (*store.columns, store.starts, store.sizes, store.order)
    return ("family", fam.universe_size, fam.seed, fam.planted,
            [(a.dtype, a.tolist()) for a in arrays])


def _read_both_ways(path) -> tuple[tuple, tuple]:
    """The outcomes of `load` and of `json.loads` + `from_json_dict`."""
    return (_outcome(lambda: PlantedFamily.load(path)),
            _outcome(lambda: PlantedFamily.from_json_dict(json.loads(path.read_text()))))


# How `family_files` writes a member it replaces, given the member m.
_MEMBER_TOKENS = {
    "18-digit member": lambda m: str(10**17 + m),
    "19-digit member": lambda m: str(10**18 + m),
    "member above 2**63": lambda m: str(2**63 + m),
    "leading zero": lambda m: f"0{m}",
    "minus zero": lambda m: "-0",
    "float member": lambda m: f"{m}.0",
    "true member": lambda m: "true",
}
# Each change `family_files` makes to the bytes `save` writes, and whether
# `load` still reads the file straight into the row store. Only a file in
# that layout, with no integer longer than 18 digits, is read so.
_FAST_PATH = {
    "as saved": True,
    "18-digit member": True,
    "19-digit member": False,
    "member above 2**63": False,
    "leading zero": False,
    "minus zero": False,
    "float member": False,
    "true member": False,
    "seed above 2**63": False,
    "universe above 2**63": False,
    "compact": False,
    "indented": False,
    "extra blank": False,
    "blank in a set": False,
    "member between sets": False,
    "member before the sets": False,
    "member after the sets": False,
    "unclosed set": False,
    "empty set": False,
    "no newline": False,
    "two newlines": False,
    "crlf": False,
    "truncated": False,
}


@st.composite
def family_files(draw) -> tuple[str, str]:
    """A change of `_FAST_PATH` and the family file it makes of a random
    record, which `load` may accept or reject.

    The records hold random sets, ascending or not, with members in the
    universe or up to a few past it, so the store's checks and antichain
    validation reject many of them; some are empty or have a null seed.
    """
    n = draw(st.integers(0, 30))
    ascending = draw(st.booleans())
    top = draw(st.sampled_from([max(n - 1, 0), n + 2]))
    # Ascending sets are mostly of a valid size, so more records reach
    # antichain validation.
    one_set = st.lists(st.integers(0, top), min_size=min(1 + ascending, top + 1),
                       max_size=5, unique=ascending)
    planted = draw(st.lists(one_set.map(sorted) if ascending else one_set, max_size=10))
    seed = draw(st.none() | st.integers(0, 10**18 - 1))
    change = draw(st.sampled_from(list(_FAST_PATH)))
    if change == "seed above 2**63":
        seed = 2**64 + (seed or 0)
    if change == "universe above 2**63":
        n += 2**64
    if change == "blank in a set" and all(len(p) < 2 for p in planted):
        planted.append([0, 1])
    while change in ("member between sets", "member before the sets",
                     "member after the sets", "unclosed set") and len(planted) < 2:
        planted.append([0, 1])
    if change == "empty set":
        planted.insert(draw(st.integers(0, len(planted))), [])
    record = {"universe_size": n, "planted": planted, "seed": seed}
    token = None
    if change in _MEMBER_TOKENS:
        if not planted:
            planted.append([0, 1])
        i = draw(st.integers(0, len(planted) - 1))
        j = draw(st.integers(0, len(planted[i]) - 1))
        token = _MEMBER_TOKENS[change](planted[i][j])
        planted[i][j] = "@"
    if change == "compact":
        text = json.dumps(record, separators=(",", ":")) + "\n"
    elif change == "indented":
        text = json.dumps(record, indent=1) + "\n"
    else:
        text = json.dumps(record) + "\n"
    if token is not None:
        text = text.replace('"@"', token)
    if change == "extra blank":
        spots = [i + 1 for i, c in enumerate(text) if c in ",[:"]
        at = draw(st.sampled_from(spots))
        text = text[:at] + " " + text[at:]
    elif change == "blank in a set":
        at = re.search(r"\d, (?=\d)", text).end()
        text = text[:at] + " " + text[at:]
    elif change == "member between sets":
        text = text.replace("], [", "], 7, [", 1)
    elif change == "member before the sets":
        text = text.replace('"planted": [[', '"planted": [7, [', 1)
    elif change == "member after the sets":
        text = text.replace(']], "seed"', '], 7], "seed"', 1)
    elif change == "unclosed set":
        text = text.replace("], [", ", [", 1)
    elif change == "no newline":
        text = text[:-1]
    elif change == "two newlines":
        text += "\n"
    elif change == "crlf":
        text = text[:-1] + "\r\n"
    elif change == "truncated":
        text = text[:draw(st.integers(0, len(text) - 2))]
    return change, text


class TestSavedLayoutReader:
    """`load` reads the bytes `save` writes straight into the row store;
    every other file goes through `json.loads` and `from_json_dict`."""

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(file=family_files(), slice_bytes=st.sampled_from([4, 24, 100, oracle._SLICE]))
    def test_both_paths_accept_and_reject_alike(self, file, slice_bytes):
        # Small slices make every set, and every defect, cross a slice edge.
        change, text = file
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(oracle, "_SLICE", slice_bytes):
            path = Path(tmp) / "fam.json"
            path.write_bytes(text.encode())
            fast = oracle._read_saved(path.read_bytes()) is not None
            assert fast == _FAST_PATH[change]
            loaded, parsed = _read_both_ways(path)
            assert loaded == parsed

    @pytest.mark.parametrize(
        "make",
        [
            lambda: PlantedFamily(10, (), seed=None),
            lambda: make_family(12, [(0, 1), (2, 3, 4)], seed=10**18 - 1),
            # Members that need 32-bit columns.
            lambda: generate_family(70_000, {2: 50, 3: 50}, seed=1),
            # Set keys too wide for int64.
            lambda: generate_family(1000, {7: 20, 8: 20}, seed=0),
            # About 0.75 MB of sets, more than one slice.
            lambda: generate_family(1000, {2: 40, 5: 30_000}, seed=5),
        ],
        ids=["empty", "big-seed", "32-bit-columns", "wide-keys", "two-slices"],
    )
    def test_saved_files_take_the_fast_path(self, tmp_path, monkeypatch, make):
        path = tmp_path / "fam.json"
        make().save(path)
        assert oracle._read_saved(path.read_bytes()) is not None
        loaded, parsed = _read_both_ways(path)
        assert loaded == parsed and loaded[0] == "family"
        # No list per set: `json` is not called.
        monkeypatch.setattr(oracle.json, "loads", None)
        assert _outcome(lambda: PlantedFamily.load(path)) == loaded

    def test_fast_path_builds_and_validates_through_live_names(self, tmp_path, monkeypatch):
        # A store class or validation put in place at run time (a timed one,
        # say) is the one `load` uses.
        path = tmp_path / "fam.json"
        generate_family(30, {2: 5, 3: 5}, seed=1).save(path)
        calls = []

        class Store(backend.FamilyIndex):
            def __init__(self, *args):
                calls.append("store")
                super().__init__(*args)

        validate = PlantedFamily.validate_antichain
        monkeypatch.setattr(backend, "FamilyIndex", Store)
        monkeypatch.setattr(PlantedFamily, "validate_antichain",
                            lambda fam: calls.append("validate") or validate(fam))
        assert type(PlantedFamily.load(path).index()) is Store
        assert calls == ["store", "validate"]

    def test_out_of_range_member_of_a_later_slice(self, tmp_path, monkeypatch):
        # Members parsed before the slice that holds a member too large for
        # the store's column type are widened, and the store names the
        # first offending set.
        monkeypatch.setattr(oracle, "_SLICE", 8)
        path = tmp_path / "fam.json"
        path.write_text('{"universe_size": 10, "planted": [[0, 1], [2, 3], '
                        '[4, 300], [5, 6, 100000000000000000]], "seed": 7}\n')
        members = oracle._read_saved(path.read_bytes())[1]
        assert members.dtype == np.int64
        assert members.tolist() == [0, 1, 2, 3, 4, 300, 5, 6, 10**17]
        loaded, parsed = _read_both_ways(path)
        assert loaded == parsed == (
            "error", ValidationError, "planted set member out of range")


class TestFamilyChecks:
    """Each family with one defect raises the same error, whatever builds it."""

    SIZE = (InvalidKError, "planted sets must have size >= 2")
    ORDER = (ValidationError, "planted sets must be strictly ascending")
    RANGE = (ValidationError, "planted set member out of range")

    DEFECTS = [
        pytest.param(10, ((0, 1), (3,), (4, 5, 6)), SIZE, id="size-1"),
        pytest.param(10, ((0, 1), ()), SIZE, id="empty-set"),
        pytest.param(10, ((0, 1), (2, 5, 4)), ORDER, id="descending"),
        pytest.param(10, ((2, 3, 3, 7), (0, 1)), ORDER, id="repeated-member"),
        pytest.param(10, ((4, 5), (-1, 2, 3)), RANGE, id="negative-member"),
        pytest.param(10, ((0, 1), (2, 10)), RANGE, id="member-equals-n"),
        pytest.param(1000, ((3, 4), (5, 70_000)), RANGE, id="member-70000"),
    ]
    # Defects of type, which only sets given as sequences can have: an array
    # of members holds one type, which settles it.
    MEMBER = (ValidationError, "planted set members must be integers")
    UNIVERSE = (ValidationError, "universe_size must be an integer")
    TYPE_DEFECTS = [
        pytest.param(10, ((2.9, 3.2),), MEMBER, id="float-members"),
        pytest.param(10, ((0, 1), (2, 3.0)), MEMBER, id="integral-float-member"),
        pytest.param(10, (("0", "1"),), MEMBER, id="string-members"),
        pytest.param(10, ((True, 2),), MEMBER, id="bool-member"),
        pytest.param(10.0, ((0, 1),), UNIVERSE, id="float-universe"),
        pytest.param(True, (), UNIVERSE, id="bool-universe"),
        pytest.param("10", ((0, 1),), UNIVERSE, id="string-universe"),
    ]

    @pytest.mark.parametrize("universe_size, planted, expected", DEFECTS + TYPE_DEFECTS)
    def test_single_defect(self, universe_size, planted, expected):
        exc_type, message = expected
        with pytest.raises(ValidationError) as info:
            PlantedFamily(universe_size=universe_size, planted=planted)
        assert type(info.value) is exc_type
        assert str(info.value) == message

    @pytest.mark.parametrize("universe_size, planted, expected", DEFECTS)
    def test_single_defect_in_members_and_sizes(self, universe_size, planted, expected):
        # The store built from all members one after another, as `load`
        # builds it, checks the sets as the one built from tuples does.
        exc_type, message = expected
        members = np.array([v for p in planted for v in p], dtype=np.int64)
        with pytest.raises(ValidationError) as info:
            FamilyIndex(universe_size, members, [len(p) for p in planted])
        assert type(info.value) is exc_type
        assert str(info.value) == message

    def test_nonpositive_universe(self):
        with pytest.raises(ValidationError, match="^universe_size must be positive$"):
            PlantedFamily(universe_size=0, planted=())

    def test_sets_given_as_lists_are_kept_as_tuples(self, tmp_path):
        # So the family hashes, and equals the one built from tuples, its
        # pickled copy and the family its file loads back as; a numpy
        # universe size is kept as an int, which the file can hold.
        fam = PlantedFamily(10, ((0, 1), (2, 3, 4)), seed=3)
        listed = PlantedFamily(np.int64(10), [[0, 1], np.array([2, 3, 4])], seed=3)
        assert listed.planted == ((0, 1), (2, 3, 4))
        assert listed == fam and hash(listed) == hash(fam)
        clone = pickle.loads(pickle.dumps(listed))
        assert clone == listed and hash(clone) == hash(listed)
        listed.save(tmp_path / "fam.json")
        assert PlantedFamily.load(tmp_path / "fam.json") == listed


class TestExpectationLaw:
    def test_monte_carlo_mean_matches_closed_form(self):
        fam = make_family(12, [{0, 1}, {2, 3}, {4, 5}])
        n, m, k = 12, 6, 2
        expected = float(expected_planted_count(n, m, k, 3))
        rng = spawn_generator(29, 0)
        draws = 30_000
        total = 0
        for _ in range(draws):
            total += fam.count_contained(sample(range(n), m, rng), k)
        mean = total / draws
        q = math.comb(m, k) / math.comb(n, k)
        sigma = math.sqrt(3 * q * (1 - q) / draws)
        assert abs(mean - expected) <= 3 * sigma
