"""Batches of candidate sets drawn as numpy's `Generator.choice` draws them.

Family generation (`oracle.generate_family`) draws each candidate set as
the sorted `choice(n, k, replace=False)`, up to 1,024 at a time. A batch
replays numpy's algorithm exactly, draw for draw, from the raw 32-bit
words of one `Generator.integers` call, and holds its sets as k member
columns. The first generation in a process checks the replay against
`choice` itself.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .errors import ReplayError
from .rng import ROLE_FAMILY, spawn_generator


class _Lemire:
    """A row of bounded draws, as `Generator.integers(0, highs)` makes
    them, replayed from raw 32-bit words.

    For an exclusive bound s in [2, 2**32], numpy takes the next 32-bit
    word w (`next_uint32`) and, by Lemire's multiply-shift ("Fast random
    integer generation in an interval", ACM TOMACS 2019), returns
    (w * s) >> 32, unless the low 32 bits of w * s fall below 2**32 mod
    s: then it rejects w and tries the next word. A bound of 1 takes no
    word and gives 0.
    """

    __slots__ = ("highs", "thresholds", "live", "words")

    def __init__(self, highs: np.ndarray):
        # As columns: row r of a batch's block is draw r of every row.
        self.highs = np.asarray(highs, dtype=np.uint64).reshape(-1, 1)
        self.thresholds = ((1 << 32) % self.highs).astype(np.uint32)
        live = self.highs[:, 0] > 1
        # The draws that take a word, or None when all do.
        self.live = None if live.all() else live
        self.words = int(live.sum())

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """`count` rows of the draws, as uint64, one row of the result per
        bound: the transpose of `rng.integers(0, np.tile(highs, count))`
        reshaped to `count` rows, and `rng` is left as that call leaves it.

        The words of all rows come from one `integers(0, 2**32,
        dtype=np.uint32)` call, which takes `next_uint32` once per word
        as the bounded draws do. A rejected word (fewer than 1 in 4
        million at bounds up to 1000) is dropped: that draw and every
        later one take the word after the one they had, and one more
        word is drawn for the last.
        """
        width = len(self.highs)
        words = rng.integers(0, 2**32, size=count * self.words, dtype=np.uint32)
        while True:
            if self.live is None:
                rows = words.reshape(count, width)
            else:
                rows = np.zeros((count, width), dtype=np.uint32)
                rows[:, self.live] = words.reshape(count, self.words)
            block = np.multiply(rows.T, self.highs, order="C")
            rejected = block.astype(np.uint32) < self.thresholds
            if not rejected.any():
                return np.right_shift(block, 32, out=block)
            # The first rejected word in stream order: row by row, then
            # draw by draw within a row.
            row, at = divmod(int(np.flatnonzero(rejected.T)[0]), width)
            if self.live is not None:
                at = int(np.count_nonzero(self.live[:at]))
            p = row * self.words + at
            more = rng.integers(0, 2**32, size=1, dtype=np.uint32)
            words = np.concatenate((words[:p], words[p + 1:], more))


def _sorting_network(k: int) -> list[tuple[int, int]]:
    """Batcher's odd-even merge sort on k wires, as compare-exchange
    pairs (i, j), i < j (Knuth, TAOCP 3, section 5.3.4). For k = 2..8 it
    has the fewest comparators any network has: 1, 3, 5, 9, 12, 16, 19."""
    pairs = []
    p = 1
    while p < k:
        d = p
        while d >= 1:
            for j in range(d % p, k - d, 2 * d):
                for i in range(j, j + min(d, k - j - d)):
                    if i // (2 * p) == (i + d) // (2 * p):
                        pairs.append((i, i + d))
            d //= 2
        p *= 2
    return pairs


@cache
def _draw_plan(
    n: int, k: int
) -> tuple[_Lemire, tuple[tuple[int, int, int], ...], list[int]]:
    """The bounds of one `choice(n, k, replace=False)` row, and its
    sorting network on the rows of a batch's block.

    The bounds are Floyd's, n-k+1 .. n, then the shuffle's, k .. 2. The
    network runs in place on the block, whose rows k.. (the shuffle
    draws, unused) give it a spare row: each step (a, b, s) puts the
    minimum of rows a and b in row s and their maximum in row b, and row
    a is the next spare. `where[c]` is the row that then holds member c.
    """
    lemire = _Lemire(np.concatenate((np.arange(n - k + 1, n + 1), np.arange(k, 1, -1))))
    where = list(range(k))
    spare = k
    steps = []
    for i, j in _sorting_network(k):
        steps.append((where[i], where[j], spare))
        where[i], spare = spare, where[i]
    return lemire, tuple(steps), where


def _draw_sets(
    rng: np.random.Generator, n: int, k: int, count: int
) -> np.ndarray:
    """`count` rows, each the sorted `rng.choice(n, k, replace=False)`,
    as the transpose of a block of k contiguous member columns.

    Consumes the stream exactly as `count` successive `choice` calls do
    (see `oracle.generate_family`). numpy's `choice` runs Floyd's
    algorithm, k draws from [0, j] for j = n-k .. n-1, each replaced by j
    when already taken, and then shuffles with k-1 more draws, which go
    unused here. `_Lemire` replays all of them from raw words, as rows of
    a block: row c is Floyd's draw c of every set. Floyd's fix-up
    compares row c with the rows above it, and a compare-exchange
    network sorts each set.
    Where `choice` shuffles a tail instead (n > 10000 and k > n // 50),
    or a bound exceeds the 32 bits of a word (n > 2**32), `choice` is
    called once per set.
    """
    if n > 10000 and k > n // 50 or n > 2**32:
        rows = [np.sort(rng.choice(n, k, replace=False)) for _ in range(count)]
        return np.array(rows, dtype=np.int64).reshape(count, k)
    lemire, steps, where = _draw_plan(n, k)
    block = lemire.draw(rng, count).view(np.int64)
    for c in range(1, k):
        np.putmask(block[c], np.logical_or.reduce(block[:c] == block[c]), n - k + c)
    rows = list(block)
    for a, b, s in steps:
        np.minimum(rows[a], rows[b], out=rows[s])
        np.maximum(rows[a], rows[b], out=rows[b])
    return block.take(where, axis=0).T


def _choice_row(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """One candidate as numpy draws it: the sorted `choice(n, k, replace=False)`."""
    return np.sort(rng.choice(n, k, replace=False))


# (n, k, count) of the batch `_check_replay` draws: n == k, so each row's
# first draw has a bound of 1 and takes no word, and Floyd's draws collide
# in the second row.
_REPLAY_CASE = (4, 4, 2)


def _check_replay(reference=_choice_row) -> None:
    """Raise ReplayError unless `_draw_sets` draws the batch of
    `_REPLAY_CASE` as `reference`, called once per row on a twin
    generator, does, and leaves the generator where it leaves the twin."""
    n, k, count = _REPLAY_CASE
    rng, twin = (spawn_generator(0, ROLE_FAMILY) for _ in range(2))
    rows = [reference(twin, n, k) for _ in range(count)]
    drawn = _draw_sets(rng, n, k, count)
    # The next words agree only if both generators stand at the same place.
    after = [g.integers(0, 2**32, size=2, dtype=np.uint32) for g in (rng, twin)]
    if np.array_equal(drawn, rows) and np.array_equal(*after):
        return
    raise ReplayError(
        f"numpy {np.__version__}: Generator.choice(n, k, replace=False) no longer "
        "draws as family generation replays it, so a seed would not give its family"
    )


@cache
def _replay_checked() -> None:
    """`_check_replay`, once per process; it raises again until it passes."""
    _check_replay()
