"""Splittable, counter-based random streams.

Every stochastic component draws from an independent Philox substream
derived from (master seed, *key), where the key encodes the run's
coordinates (initial set size, run index, stream role). Substreams with
the same derivation are value-identical no matter where or in what order
they are instantiated, which is what makes paired runs and parallel
execution reproducible.

`spawn_generator` is the reference definition of a substream: numpy's
`SeedSequence(master_seed, spawn_key=key)` hashed to a 128-bit Philox
key. A Philox stream is wholly identified by that key (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011), so `stream_keys`
takes the master seed's entropy pool from numpy's own `SeedSequence`,
replays only the hashing of the spawn-key words as elementwise uint32
arithmetic, and so derives the keys of many substreams in one pass;
`reset_generator` points a reused generator at the start of any of them.
The first paired run in a process checks the replay against
`spawn_generator` itself (`_check_stream_keys`).
"""

from __future__ import annotations

import operator
from functools import cache

import numpy as np

from .errors import ReplayError

# Stream roles. INIT is shared by both algorithms of a paired run (it
# produces the initial sample); INIT_NOISE supplies the Bernoulli draw
# for the initial test, keyed without the initial set size so that cells
# of different sizes share it (common random numbers); SIGHT and RC are
# private continuation streams; FAMILY seeds generation.
ROLE_INIT = 0
ROLE_SIGHT = 1
ROLE_RC = 2
ROLE_FAMILY = 3
ROLE_INIT_NOISE = 4


def spawn_generator(master_seed: int | None, *key: int) -> np.random.Generator:
    """Return the Philox generator for substream (master_seed, *key).

    A master seed of None takes fresh entropy from the operating system,
    as `SeedSequence(None)` does.
    """
    if master_seed is not None and master_seed < 0:
        raise ValueError("master_seed must be nonnegative")
    seq = np.random.SeedSequence(master_seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(seq))


# The constants of numpy's SeedSequence hash (O'Neill's `seed_seq`).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715


def _const_column(init: int, mult: int, start: int) -> np.ndarray:
    """Constants start..start+4 of the chain init * mult**i, as a uint32 column."""
    stop = start + _POOL_SIZE + 1
    consts = [init * pow(mult, i, 1 << 32) & _MASK32 for i in range(start, stop)]
    return np.array(consts, np.uint32)[:, None]


def _key_column(value) -> np.ndarray:
    """One spawn-key entry as uint32 words; numpy would split larger values."""
    col = np.asarray(value)
    if col.ndim > 1:
        raise ValueError("spawn key entries must be integers or 1-D arrays")
    if col.dtype.kind not in "iu" or col.size and (col.min() < 0 or col.max() > _MASK32):
        raise ValueError("spawn key entries must be integers in [0, 2**32)")
    return col.astype(np.uint32)


def stream_keys(master_seed: int, *key) -> np.ndarray:
    """Philox keys of the substreams (master_seed, *key), one row per substream.

    Each entry of `key` is an integer or a 1-D integer array, and the
    arrays have one length. Row i is the (lo, hi) uint64 key that
    `spawn_generator(master_seed, *key_i)` seeds its Philox with, where
    key_i takes the i-th value of every array entry.
    """
    master_seed = operator.index(master_seed)
    if master_seed < 0:
        raise ValueError("master_seed must be nonnegative")
    if not key:
        raise ValueError("a spawn key needs at least one entry")
    columns = [_key_column(v) for v in key]
    # With a spawn key numpy pads the seed's words to the pool size with
    # zeros, which hash as the missing words of an unspawned sequence, so
    # the pool after the seed is the unspawned one. Mixing it made one
    # hashmix call per pool word for each seed word, counting at least
    # `_POOL_SIZE` seed words.
    pool = np.random.SeedSequence(master_seed).pool[:, None]
    words = max(1, (master_seed.bit_length() + 31) // 32)
    calls = _POOL_SIZE * max(_POOL_SIZE, words)
    # Each spawn-key word is hashed once per pool word, with consecutive
    # constants, and mixed into that word; broadcasting makes the pool one
    # column per substream.
    for col in columns:
        consts = _const_column(_INIT_A, _MULT_A, calls)
        calls += _POOL_SIZE
        h = (col ^ consts[:-1]) * consts[1:]
        h ^= h >> 16
        pool = _MIX_MULT_L * pool - _MIX_MULT_R * h
        pool ^= pool >> 16
    # generate_state(2, np.uint64): four words, one per pool word.
    consts = _const_column(_INIT_B, _MULT_B, 0)
    state = (pool ^ consts[:-1]) * consts[1:]
    state ^= state >> 16
    # Read word pairs as little-endian uint64, as generate_state does.
    return np.ascontiguousarray(state.T).astype("<u4").view("<u8").astype(np.uint64)


# Seeds `_check_stream_keys` derives keys for: the last one of four words,
# which fills numpy's entropy pool, and the first of five, which outgrows it.
_CHECK_SEEDS = (2**128 - 1, 2**128)


def _check_stream_keys(spawn=spawn_generator) -> None:
    """Raise ReplayError unless `stream_keys` gives, for a few substreams
    of each of `_CHECK_SEEDS`, the Philox keys that `spawn` seeds its
    generators with; the keys' spawn-key words include both ends of a word."""
    words = np.array([0, 1, _MASK32])
    for seed in _CHECK_SEEDS:
        keys = stream_keys(seed, words, ROLE_INIT)
        seeded = [spawn(seed, w, ROLE_INIT).bit_generator.state["state"]["key"]
                  for w in words.tolist()]
        if not np.array_equal(keys, seeded):
            raise ReplayError(
                f"numpy {np.__version__}: SeedSequence no longer hashes spawn keys as "
                "paired runs replay it, so a seed would not give its runs"
            )


@cache
def _stream_keys_checked() -> None:
    """`_check_stream_keys`, once per process; it raises again until it passes."""
    _check_stream_keys()


def reset_generator(generator: np.random.Generator, key) -> None:
    """Point a Philox `generator` at the start of the substream with `key`.

    The counter, the output buffer and any cached 32-bit half go back to
    their state in a freshly seeded Philox, so the generator then draws
    exactly what `Generator(Philox(key=np.array(key, dtype=np.uint64)))`
    would. `key` may be a list of two ints: the state takes each word
    exactly, where `Philox(key=...)` given such a list rounds a word above
    2**53 through float64.
    """
    generator.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
