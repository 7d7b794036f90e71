"""Substream derivation: reproducible, role-separated streams.

`stream_keys` replays numpy's SeedSequence hash, so it is checked here
against `SeedSequence` and `spawn_generator` themselves.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupsight import (
    ROLE_INIT, ROLE_RC, ROLE_SIGHT, ExperimentConfig, ReplayError, generate_family,
    rng, run_pair, spawn_generator,
)
from groupsight.rng import ROLE_INIT_NOISE, reset_generator, stream_keys


def test_same_key_yields_identical_streams():
    a = spawn_generator(42, 16, 3, ROLE_INIT)
    b = spawn_generator(42, 16, 3, ROLE_INIT)
    assert a.random(8).tolist() == b.random(8).tolist()
    assert a.integers(0, 1000, 8).tolist() == b.integers(0, 1000, 8).tolist()


def test_roles_produce_distinct_streams():
    draws = {
        role: spawn_generator(42, 16, 3, role).random(4).tolist()
        for role in (ROLE_INIT, ROLE_SIGHT, ROLE_RC)
    }
    assert draws[ROLE_INIT] != draws[ROLE_SIGHT]
    assert draws[ROLE_SIGHT] != draws[ROLE_RC]


def test_run_index_and_seed_separate_streams():
    base = spawn_generator(1, 10, 0, ROLE_INIT).random(4).tolist()
    assert spawn_generator(1, 10, 1, ROLE_INIT).random(4).tolist() != base
    assert spawn_generator(2, 10, 0, ROLE_INIT).random(4).tolist() != base


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        spawn_generator(-1, 0)


# Seeds at the edges of numpy's word encoding: one word, the last
# one-word value, two words, beyond 2^46, three words, four words (the
# entropy pool's size) up to the last four-word value, and five words,
# where the seed outgrows the pool.
EDGE_SEEDS = [
    0, 2**32 - 1, 2**32, 2**46 + 12345, 2**64 + 7, 2**96, 2**128 - 1, 2**128,
    2**130 + 2**90 + 3,
]
EDGE_WORDS = [0, 1, 2**32 - 1]


def reference_key(seed, *key):
    return np.random.SeedSequence(seed, spawn_key=key).generate_state(2, np.uint64)


@pytest.mark.parametrize("seed", EDGE_SEEDS)
@pytest.mark.parametrize("words", [1, 2, 3])
def test_stream_keys_match_seed_sequence_at_edges(seed, words):
    columns = [np.array(EDGE_WORDS) for _ in range(words)]
    columns[-1] = columns[-1][::-1]
    keys = stream_keys(seed, *columns)
    assert keys.dtype == np.uint64 and keys.shape == (len(EDGE_WORDS), 2)
    for i, row in enumerate(keys):
        key = tuple(int(col[i]) for col in columns)
        assert row.tolist() == reference_key(seed, *key).tolist()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seed=st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**70)),
    rows=st.integers(1, 4).flatmap(lambda words: st.lists(
        st.lists(st.one_of(st.sampled_from(EDGE_WORDS), st.integers(0, 2**32 - 1)),
                 min_size=words, max_size=words),
        min_size=1, max_size=5,
    )),
)
def test_stream_keys_match_seed_sequence(seed, rows):
    columns = [np.array(col, dtype=np.int64) for col in zip(*rows)]
    keys = stream_keys(seed, *columns)
    assert [row.tolist() for row in keys] == [
        reference_key(seed, *row).tolist() for row in rows
    ]


def test_stream_keys_broadcast_scalar_entries():
    pairs = np.arange(3, 9)
    keys = stream_keys(42, 16, pairs, ROLE_SIGHT)
    for row, j in zip(keys, pairs):
        assert row.tolist() == stream_keys(42, 16, int(j), ROLE_SIGHT)[0].tolist()
        assert row.tolist() == reference_key(42, 16, int(j), ROLE_SIGHT).tolist()


def test_stream_keys_reject_a_negative_seed_as_spawn_generator_does():
    with pytest.raises(ValueError) as reference:
        spawn_generator(-1, 0)
    with pytest.raises(ValueError, match=str(reference.value)):
        stream_keys(-1, 0)


@pytest.mark.parametrize("column", [2**32, np.array([0, 2**32]), 2**64, -1,
                                    np.array([-1, 3]), 1.0, np.zeros((2, 2), int)])
def test_stream_keys_reject_entries_numpy_would_not_hash_as_one_word(column):
    # numpy encodes 2^32 and above as two or more words, which would make
    # the column ragged.
    with pytest.raises(ValueError, match="spawn key entries must be integers"):
        stream_keys(1, 0, column)


def test_reset_generator_draws_like_spawn_generator():
    gen = np.random.Generator(np.random.Philox(key=0))
    for key in [(16, 3, ROLE_INIT), (2**32 - 1, 0, ROLE_RC), (7, ROLE_INIT_NOISE)]:
        for draw in (
            lambda g: g.random(5).tolist(),
            lambda g: g.integers(0, 1000, 7).tolist(),
            lambda g: g.choice(40, 8, replace=False).tolist(),
        ):
            reset_generator(gen, stream_keys(2**40 + 9, *key)[0].tolist())
            assert draw(gen) == draw(spawn_generator(2**40 + 9, *key))


def test_reset_generator_keeps_key_words_above_2_53():
    # Philox(key=...) given a list of ints above 2**53 rounds them through
    # float64 (numpy 2.4.6 seeds [12016621291982073856, 4694391726189250560]
    # here), so the reference is the key as a uint64 array.
    key = [12016621291982073722, 4694391726189250763]
    gen = np.random.Generator(np.random.Philox(key=0))
    reset_generator(gen, key)
    ref = np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
    assert gen.bit_generator.state["state"]["key"].tolist() == key
    assert gen.integers(0, 2**63, 8).tolist() == ref.integers(0, 2**63, 8).tolist()
    assert gen.random(4).tolist() == ref.random(4).tolist()


def test_reset_clears_a_cached_32_bit_half():
    gen = np.random.Generator(np.random.Philox(key=0))
    key = stream_keys(5, 8, 1, ROLE_INIT)[0].tolist()
    reset_generator(gen, key)
    gen.random(dtype=np.float32)
    assert gen.bit_generator.state["has_uint32"] == 1
    reset_generator(gen, key)
    ref = spawn_generator(5, 8, 1, ROLE_INIT)
    assert gen.bit_generator.state["has_uint32"] == 0
    assert gen.random(dtype=np.float32) == ref.random(dtype=np.float32)
    assert gen.integers(0, 2**31, 3).tolist() == ref.integers(0, 2**31, 3).tolist()
    assert gen.random(4).tolist() == ref.random(4).tolist()


class OneWordMore(np.random.SeedSequence):
    """A SeedSequence that hashes one spawn-key word more than numpy's."""

    def __init__(self, entropy=None, *, spawn_key=()):
        super().__init__(entropy, spawn_key=(*spawn_key, 0))


def spawn_one_word_more(master_seed, *key):
    return np.random.Generator(np.random.Philox(OneWordMore(master_seed, spawn_key=key)))


class TestStreamKeysCheck:
    """The first paired run in a process checks `stream_keys` against
    `spawn_generator`'s Philox keys."""

    def test_seeds_span_the_four_to_five_word_edge(self):
        assert set(rng._CHECK_SEEDS) <= set(EDGE_SEEDS)
        assert [(seed.bit_length() + 31) // 32 for seed in rng._CHECK_SEEDS] == [4, 5]

    def test_passes_on_this_numpy(self):
        rng._check_stream_keys()

    def test_a_seed_sequence_one_word_apart_raises(self):
        with pytest.raises(ReplayError, match=re.escape(f"numpy {np.__version__}")):
            rng._check_stream_keys(spawn_one_word_more)

    def test_runs_once_per_process(self, monkeypatch):
        calls = []
        monkeypatch.setattr(rng, "_check_stream_keys", lambda: calls.append(1))
        family = generate_family(30, {2: 10}, seed=1)
        config = ExperimentConfig(a0_grid=(8,), runs_per_cell=2, k_max=3)
        rng._stream_keys_checked.cache_clear()
        try:
            for pair_id in (0, 1):
                run_pair(family, config, 8, pair_id)
        finally:
            rng._stream_keys_checked.cache_clear()
        assert calls == [1]

    def test_a_failed_check_raises_on_every_paired_run(self, monkeypatch):
        monkeypatch.setattr(rng._check_stream_keys, "__defaults__", (spawn_one_word_more,))
        family = generate_family(30, {2: 10}, seed=1)
        config = ExperimentConfig(a0_grid=(8,), runs_per_cell=2, k_max=3)
        rng._stream_keys_checked.cache_clear()
        try:
            for _ in range(2):
                with pytest.raises(ReplayError):
                    run_pair(family, config, 8, 0)
        finally:
            rng._stream_keys_checked.cache_clear()
