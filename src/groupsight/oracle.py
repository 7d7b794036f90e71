"""Planted-family test problems and the noisy defectiveness oracle.

A test problem is a family of planted node sets forming an antichain
(no planted set contains another), so every planted set is a *minimal*
defective set by construction. The oracle answers "is this node set
defective?", true when the set contains some planted set, optionally
corrupted by Bernoulli false negatives, and charges every answer to a
positive/negative test ledger.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np

# Looked up as `backend.FamilyIndex` when a family is built, so a class put in
# its place (a timed subclass, say) takes effect.
from . import backend
from .backend import FamilyProjection
from .draws import _draw_sets, _replay_checked
from .errors import (
    InfeasibleCountsError,
    InvalidKError,
    SampleSizeError,
    ValidationError,
)
from .rng import ROLE_FAMILY, spawn_generator

KSet = tuple[int, ...]


@dataclass(frozen=True)
class PlantedFamily:
    """Immutable ground truth: the antichain of minimal defective sets.

    The sets live in the row store (`backend.FamilyIndex`), which checks
    them on construction and answers every query; a pickled family
    carries the store alone. `planted` holds them as canonical (strictly
    ascending) tuples over the node range [0, universe_size). The
    universe size and every member must be an int or a numpy integer,
    not a bool; the universe size is kept as an int. A family built from
    sets given as sequences keeps them as a tuple of tuples; one
    generated, loaded or unpickled makes them from the store when
    `planted` is first read, and keeps them. The store is not a
    constructor argument, so `dataclasses.replace` builds it afresh for
    the new sets. The seed, here as in a JSON record and in
    `generate_family`, is None or an integer at least 0 (an int or a
    numpy integer, kept as an int, but not a bool).
    """

    universe_size: int
    planted: tuple[KSet, ...]
    seed: int | None = None
    _index: backend.FamilyIndex = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        object.__setattr__(
            self, "_index", backend.FamilyIndex(self.universe_size, self.planted)
        )
        object.__setattr__(self, "universe_size", int(self.universe_size))
        object.__setattr__(self, "planted", tuple(map(tuple, self.planted)))
        object.__setattr__(self, "seed", _family_seed(self.seed))

    @classmethod
    def _of_store(cls, store: backend.FamilyIndex, seed: int | None) -> "PlantedFamily":
        """The family of the sets in `store`, whose `planted` is made when read."""
        family = object.__new__(cls)
        for name, value in (
            ("universe_size", store.universe_size), ("seed", seed), ("_index", store)
        ):
            object.__setattr__(family, name, value)
        return family

    def __getattr__(self, name: str):
        # Called only for a missing attribute: `planted` of a family made by
        # `_of_store` or unpickled, which is then built once and kept.
        if name != "planted":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        sets: list[KSet] = []
        for chunk in self._chunks():
            sets += map(tuple, chunk)
        planted = tuple(sets)
        object.__setattr__(self, "planted", planted)
        return planted

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("planted", None)
        return state

    def _chunks(self) -> Iterator[list[list[int]]]:
        """The planted sets in `planted` order, `_CHUNK` at a time, as lists.

        Row i of the store is planted set `order[i]`, so the inverse
        permutation reads the rows in `planted` order. Every set takes
        its members from one list of int objects, one per node, so equal
        members are one object.
        """
        store = self._index
        nodes = np.array(range(self.universe_size), dtype=object)
        rows = np.empty_like(store.order)
        rows[store.order] = np.arange(len(rows))
        for lo in range(0, len(rows), _CHUNK):
            part = rows[lo:lo + _CHUNK]
            sizes = store.sizes.take(part)
            width = int(sizes.max())
            members = np.column_stack([col.take(part) for col in store.columns[:width]])
            sets = nodes[members].tolist()
            if sizes.min() < width:
                sets = [s[:k] for s, k in zip(sets, sizes.tolist())]
            yield sets

    def index(self) -> backend.FamilyIndex:
        """The row store that answers the family's subset queries."""
        return self._index

    def project(self, nodes: Sequence[int]) -> FamilyProjection:
        """The planted sets lying inside `nodes`, as masks over its positions.

        `nodes` must be distinct integers in [0, universe_size): ints or
        numpy integers (kept as ints), not bools; otherwise ValidationError.
        """
        return self._index.project(nodes)

    @property
    def counts_by_k(self) -> dict[int, int]:
        sizes, counts = np.unique(self._index.sizes, return_counts=True)
        return dict(zip(sizes.tolist(), counts.tolist()))

    def contains_defective(self, nodes: Sequence[int]) -> bool:
        """Noise-free truth: does `nodes` contain some planted set?"""
        return self._index.contains_defective(nodes)

    def count_contained(self, nodes: Sequence[int], k: int) -> int:
        """Number of planted k-sets fully inside `nodes`."""
        return self._index.count_contained(nodes, k)

    def validate_antichain(self) -> None:
        """Raise unless the family is an antichain of distinct sets.

        Each planted set must contain exactly one planted set: itself.
        The error names the first set, in `planted` order, that repeats
        an earlier one, or if none does, the first that contains a
        smaller planted set. Both checks run on `_set_keys` of the row
        store, one size at a time and `backend._SPAN` rows at a time
        (`FamilyIndex.tier_slices`), and `store.order` gives each row's
        position in `planted`, so `planted` is not made. A size's keys
        are one array, sorted in place to find repeats; only the smaller
        sizes' are kept, as the nesting check's lookups.
        """
        store = self._index
        n = self.universe_size
        # Not `np.unique`: its first call in a process imports `numpy.ma`.
        counts = np.bincount(store.sizes)
        sizes = np.flatnonzero(counts).tolist()
        ordered: dict[int, np.ndarray] = {}
        # (position in `planted`, set) of the first offender of each size.
        repeated: list[tuple[int, KSet]] = []
        for k in sizes:
            keys = np.empty(counts[k], _set_keys(np.empty((k, 0), np.intp), n).dtype)
            at = 0
            for _, _, columns in store.tier_slices(k):
                keys[at:at + columns.shape[1]] = _set_keys(columns, n)
                at += columns.shape[1]
            keys.sort()
            if (keys[1:] == keys[:-1]).any():
                repeated.append(_first_repeat(store, k))
            if k != sizes[-1]:
                ordered[k] = keys
            del keys
        if repeated:
            raise _not_antichain(min(repeated)[1])
        smaller = _Smaller(n)
        nesting: list[tuple[int, KSet]] = []
        for j, k in zip(sizes, sizes[1:]):
            smaller.add(j, ordered.pop(j))
            for rows, mine, columns in store.tier_slices(k):
                for lo in range(0, columns.shape[1], _CHUNK):
                    chunk = columns[:, lo:lo + _CHUNK]
                    hit = np.flatnonzero(_nested(chunk, smaller))
                    if hit.size:
                        place = store.order[rows].compress(mine)[lo:lo + _CHUNK]
                        nesting.append(_first(place, chunk, hit))
        if nesting:
            raise _not_antichain(min(nesting)[1])

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "PlantedFamily":
        """Family of a JSON record; every number in it must be an exact integer.

        The members are read, and checked, as the constructor reads them
        (`backend._members`), and the row store is built from them with no
        tuple per set: `planted` is made when first read, as for a
        generated family.
        """
        try:
            universe_size = data["universe_size"]
            planted = data["planted"]
            seed = data.get("seed")
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed family record: {exc}") from exc
        # The types are gathered at C speed, and tested list by list only
        # when some set is not a list exactly.
        if not (isinstance(planted, list) and (
            set(map(type, planted)) <= {list}
            or all(isinstance(p, list) for p in planted)
        )):
            raise ValidationError("family record 'planted' is not a list of lists")
        members, sizes = backend._members(universe_size, planted)
        seed = _family_seed(seed)
        return cls._validated(backend.FamilyIndex(universe_size, members, sizes), seed)

    @classmethod
    def _validated(cls, store: backend.FamilyIndex, seed: int | None) -> "PlantedFamily":
        """The family of the sets in `store`, once `validate_antichain` passes."""
        fam = cls._of_store(store, seed)
        fam.validate_antichain()
        return fam

    def save(self, path: str | Path) -> None:
        """Write the family's JSON record and a newline.

        The file holds `json.dumps` of {"universe_size", "planted",
        "seed"}, written from the row store `_CHUNK` sets at a time.
        """
        head = '{"universe_size": %s, "planted": [' % json.dumps(self.universe_size)
        tail = '], "seed": %s}\n' % json.dumps(self.seed)
        with Path(path).open("w") as out:
            out.write(head)
            for i, sets in enumerate(self._chunks()):
                if i:
                    out.write(", ")
                out.write(json.dumps(sets)[1:-1])
            out.write(tail)

    @classmethod
    def load(cls, path: str | Path) -> "PlantedFamily":
        """The family in the JSON file at `path`.

        A file in exactly the layout `save` writes is read straight into
        the row store (`_read_saved`), with no list per set. Any other
        file goes through `json.loads` and `from_json_dict`, so both paths
        accept the same files and raise the same errors.
        """
        saved = _read_saved(Path(path).read_bytes())
        if saved is None:
            return cls.from_json_dict(json.loads(Path(path).read_text()))
        universe_size, members, sizes, seed = saved
        return cls._validated(backend.FamilyIndex(universe_size, members, sizes), seed)


def _is_int(value) -> bool:
    """An exact integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


# The file `save` writes, around the sets: every integer in plain decimal
# of at most 18 digits, which any int64 holds.
_SAVED_HEAD = re.compile(rb'\{"universe_size": (0|[1-9][0-9]{0,17}), "planted": \[')
_SAVED_TAIL = re.compile(rb'\], "seed": (null|0|[1-9][0-9]{0,17})\}\n')
_MAX_DIGITS = 18

# Most bytes of sets `_read_saved` parses at once.
_SLICE = 1 << 19

# The kind of each byte of the sets: a digit, "[", "]", ",", " " or other.
_DIGIT, _OPEN, _CLOSE, _COMMA, _SPACE, _OTHER = range(6)
_KIND = np.full(256, _OTHER, dtype=np.uint8)
_KIND[np.frombuffer(b"0123456789", np.uint8)] = _DIGIT
_KIND[np.frombuffer(b"[], ", np.uint8)] = _OPEN, _CLOSE, _COMMA, _SPACE
# The byte pairs, as `6 * kind + next kind`, that sets joined by ", " hold.
_PAIRS = np.zeros(36, dtype=bool)
_PAIRS[[6 * kind + after for kind, after in (
    (_OPEN, _DIGIT), (_DIGIT, _DIGIT), (_DIGIT, _COMMA), (_DIGIT, _CLOSE),
    (_COMMA, _SPACE), (_SPACE, _DIGIT), (_SPACE, _OPEN), (_CLOSE, _COMMA),
)]] = True


def _read_saved(data: bytes) -> tuple[int, np.ndarray, np.ndarray, int | None] | None:
    """(universe_size, members, sizes, seed) of a family file in exactly
    the layout `save` writes, or None for any other file.

    The layout is `{"universe_size": N, "planted": [`, the sets as
    `[a, b, ...]` joined by ", ", then `], "seed": S}` and a newline,
    with S an integer or null; an integer has no sign, leading zero,
    point or exponent, and at most 18 digits. The sets are checked and
    parsed `_SLICE` bytes at a time, each slice ending at a set's "]".
    `members` holds the members of every set one after another, as the
    store's column type when they all fit it and as int64 otherwise, so
    that the store's checks name the first out-of-range set, as they do
    for the lists `json.loads` makes.
    """
    head = _SAVED_HEAD.match(data)
    # No '"' can occur among the sets, so the last match is the tail.
    end = data.rfind(b'], "seed": ')
    tail = _SAVED_TAIL.fullmatch(data, end) if head and end >= head.end() else None
    if tail is None:
        return None
    universe_size = int(head[1])
    lo = head.end()
    # Exact for bytes in the layout, where the sets hold one member more
    # than there are commas. Bytes that are not make some slice return
    # None, and the slices before it fit.
    members = np.empty(data.count(b",", lo, end) + (lo < end),
                       dtype=np.min_scalar_type(universe_size))
    sizes = np.empty(data.count(b"[", lo, end), dtype=np.intp)
    top = int(np.iinfo(members.dtype).max)
    at = count = 0
    while lo < end:
        hi = end
        if end - lo > _SLICE:
            cut = data.rfind(b"], [", lo, lo + _SLICE)
            if cut < 0:
                cut = data.find(b"], [", lo + _SLICE, end)
            if cut >= 0:
                hi = cut + 1
        sets = _parse_sets(np.frombuffer(data, np.uint8, hi - lo, lo))
        if sets is None:
            return None
        values, counts = sets
        if int(values.max()) > top and members.dtype != np.int64:
            members = members.astype(np.int64)
        members[at:at + len(values)] = values
        sizes[count:count + len(counts)] = counts
        at += len(values)
        count += len(counts)
        # Past the ", " that `cut` found before the next set.
        lo = hi + 2
    seed = None if tail[1] == b"null" else int(tail[1])
    return universe_size, members, sizes, seed


def _parse_sets(text: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The members, as int64, and the sizes of the sets in `text`, bytes
    of sets `[a, b, ...]` joined by ", "; None for any other bytes.

    The byte pairs are checked against `_PAIRS`. Every "]" but the last
    must then be followed by ", [": with the pairs, that makes the
    brackets alternate and leaves in each set only numbers joined by
    ", ". Each array is dropped once used: a slice's temporaries can set
    the peak of a `load`.
    """
    # Indexing, not `take`: `take` first copies uint8 indices to intp.
    kind = _KIND[text]
    if not (kind[0] == _OPEN and kind[-1] == _CLOSE):
        return None
    pairs = kind[:-1] * 6
    pairs += kind[1:]
    if not _PAIRS[pairs].all():
        return None
    del pairs
    opens = np.flatnonzero(kind == _OPEN)
    closes = np.flatnonzero(kind == _CLOSE)
    if len(opens) != len(closes) or not (opens[1:] == closes[:-1] + 3).all():
        return None
    digit = kind == _DIGIT
    del kind
    # The text starts and ends with a bracket, so every number has both ends.
    first = np.flatnonzero(digit[1:] > digit[:-1])
    first += 1
    last = np.flatnonzero(digit[:-1] > digit[1:])
    del digit
    counts = np.diff(first.searchsorted(opens), append=len(first))
    zero = text.take(first) == b"0"[0]
    # Each number's digits after its first, made in place of `first`.
    more = np.subtract(last, first, out=first)
    longest = int(more.max())
    if longest >= _MAX_DIGITS or more.compress(zero).any():
        return None
    values = text.take(last).astype(np.int64)
    values -= b"0"[0]
    for place in range(1, longest + 1):
        last -= 1
        digits = text.take(last, mode="clip")
        digits -= b"0"[0]
        digits[more < place] = 0
        values += digits * np.int64(10**place)
    return values, counts


def _set_keys(columns, universe_size: int) -> np.ndarray:
    """One key per set whose ascending members are `columns[0]`,
    `columns[1]`, ...: two or more equal-shaped arrays, or the rows of
    one array.

    Keys of sets of one size j sort as the sets do as tuples, and equal
    keys mean equal sets. The key is the set in mixed radix
    `universe_size`, an int64 when universe_size**j fits; otherwise it
    is the set's big-endian bytes, a void scalar that compares bytewise.
    """
    j = len(columns)
    if universe_size**j <= 2**63:
        keys = np.multiply(columns[0], universe_size, dtype=np.int64)
        keys += columns[1]
        for c in range(2, j):
            keys *= universe_size
            keys += columns[c]
        return keys
    digit = np.min_scalar_type(universe_size - 1).newbyteorder(">")
    wide = np.stack(columns, axis=-1).astype(digit)
    return wide.view(f"V{digit.itemsize * j}").reshape(wide.shape[:-1])


def _decode_keys(keys: np.ndarray, universe_size: int, out: np.ndarray) -> None:
    """Write member c of each set whose `_set_keys` are `keys` into row c
    of `out`. Int64 keys are used up: each remainder is cast as it is
    written, and `keys` takes each quotient in place."""
    if keys.dtype != np.int64:
        out[...] = keys.view(f">u{keys.itemsize // len(out)}").reshape(len(keys), -1).T
        return
    for c in range(len(out) - 1, 0, -1):
        np.remainder(keys, universe_size, out=out[c], casting="unsafe")
        keys //= universe_size
    out[0] = keys


# 2**64 divided by the golden ratio, rounded to odd: the hash multiplier.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


class _SizeKeys:
    """The sorted `_set_keys` of the planted sets of one size, or of the
    head pairs of planted sets (see `_Smaller`).

    `holds` answers membership for a whole array of keys. Int64 keys also
    set bits in a bitmap indexed by a multiplicative hash (Knuth, TAOCP 3,
    section 6.4), so that most absent keys are turned away before
    `searchsorted`. The bitmap has 64 to 128 slots per key, up to 2**20
    slots (1 MB of bool), and never fewer than 8 per key. For a tier of
    400 keys it has 82 per key, and about 1% of absent keys reach
    `searchsorted`, against 9% with 8 to 16 per key.
    """

    __slots__ = ("keys", "bitmap", "shift")

    def __init__(self, keys: np.ndarray):
        self.keys = keys
        self.bitmap = None
        if keys.dtype == np.int64:
            bits = max((8 * len(keys)).bit_length(),
                       min((64 * len(keys)).bit_length(), 20))
            self.shift = np.uint64(64 - bits)
            self.bitmap = np.zeros(1 << bits, dtype=bool)
            self.bitmap[self._slots(keys)] = True

    def _slots(self, keys: np.ndarray) -> np.ndarray:
        return (keys.view(np.uint64) * _GOLDEN) >> self.shift

    def holds(self, queries: np.ndarray) -> np.ndarray:
        """Mask of the keys in `queries` that are among `keys`."""
        if self.bitmap is None:
            return _among(self.keys, queries)
        found = self.bitmap[self._slots(queries)]
        maybe = np.nonzero(found)
        found[maybe] = _among(self.keys, queries[maybe])
        return found


def _among(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Mask of the `queries` that are among the sorted `keys`."""
    if not len(keys):
        return np.zeros(queries.shape, dtype=bool)
    return keys.take(keys.searchsorted(queries), mode="clip") == queries


class _Smaller:
    """The planted sets below the size of the rows `_nested` tests.

    `tiers` maps each size to a `_SizeKeys` of its sets' keys, and
    `heads` holds the keys of their head pairs (a set's two smallest
    members), all sizes in one `_SizeKeys`. A size-2 set is its own head
    pair.
    """

    __slots__ = ("universe_size", "tiers", "heads")

    def __init__(self, universe_size: int):
        self.universe_size = universe_size
        self.tiers: dict[int, _SizeKeys] = {}
        self.heads: _SizeKeys | None = None

    def add(self, k: int, keys: np.ndarray) -> None:
        """Add the distinct sets of size k whose `_set_keys` are the sorted
        `keys`. A set's head pair is the leading two digits of its key."""
        self.tiers[k] = _SizeKeys(keys)
        if keys.dtype == np.int64:
            pairs = keys // self.universe_size ** (k - 2)
        else:
            digits = keys.view(f">u{keys.itemsize // k}").reshape(len(keys), k)
            pairs = _set_keys(digits.T[:2], self.universe_size)
        if self.heads is not None:
            pairs = np.concatenate((self.heads.keys, pairs))
        pairs.sort()
        self.heads = _SizeKeys(pairs[_heads(pairs)])


def _nested(columns: np.ndarray, smaller: _Smaller) -> np.ndarray:
    """Mask of the sets, one per column of the member rows `columns`
    (row c holds each set's member c, ascending down the rows), that
    contain a set of `smaller`.

    Every set of `smaller` is smaller than these. A set can contain one
    only if it contains its head pair, so the keys of each set's C(k, 2)
    pairs, made from two gathers of member rows, are looked up among
    `smaller.heads` first; when every set of `smaller` is a pair, a hit
    is the answer. Otherwise only the sets with a hit are tested size by
    size: size 2 looks up the same pair keys, and each larger size j
    keys every j-member combination of those sets at once and looks
    them all up together.
    """
    if not smaller.tiers:
        return np.zeros(columns.shape[1], dtype=bool)
    k = len(columns)
    n = smaller.universe_size
    pairs = _set_keys(columns[_combinations(k, 2)], n)
    hit = smaller.heads.holds(pairs).any(axis=0)
    if list(smaller.tiers) == [2]:
        # Every head pair is a set.
        return hit
    maybe = np.flatnonzero(hit)
    columns, pairs = columns.take(maybe, axis=1), pairs.take(maybe, axis=1)
    found = np.zeros(len(maybe), dtype=bool)
    for j, tier in smaller.tiers.items():
        subsets = pairs if j == 2 else _set_keys(columns[_combinations(k, j)], n)
        found |= tier.holds(subsets).any(axis=0)
    hit[maybe] = found
    return hit


@cache
def _combinations(k: int, j: int) -> np.ndarray:
    """The j-element combinations of k members, as j rows: row c holds
    member c of each combination."""
    return np.array(list(combinations(range(k), j)), dtype=np.intp).T


def _heads(ordered: np.ndarray) -> np.ndarray:
    """Mask of the first key of each run of equal keys in sorted `ordered`."""
    heads = np.ones(len(ordered), dtype=bool)
    # The operator, not the ufunc: only it compares void keys.
    heads[1:] = ordered[1:] != ordered[:-1]
    return heads


def _first_repeat(store: backend.FamilyIndex, k: int) -> tuple[int, KSet]:
    """Of the sets of size k that repeat an earlier one, the one first in
    `planted` order, as (position, set).

    Equal sets share their minimum, so the store keeps them in `planted`
    order: all but the first of each key repeat one.
    """
    places, parts = zip(*(
        (store.order[rows].compress(mine), columns)
        for rows, mine, columns in store.tier_slices(k)
    ))
    columns = np.concatenate(parts, axis=1)
    keys = _set_keys(columns, store.universe_size)
    order = np.argsort(keys, kind="stable")
    ordered = keys.take(order)
    again = order[1:][ordered[1:] == ordered[:-1]]
    return _first(np.concatenate(places), columns, again)


def _first(
    place: np.ndarray, columns: np.ndarray, which: np.ndarray
) -> tuple[int, KSet]:
    """Of the sets `which` among the member rows `columns`, the one first
    in `planted` order, as (position, set).

    `place[i]` is the position in `planted` of the set in column i.
    """
    i = which[np.argmin(place.take(which))]
    return int(place[i]), tuple(columns[:, i].tolist())


def _not_antichain(p: KSet) -> ValidationError:
    return ValidationError(
        f"family is not an antichain of distinct sets (offending set {p})"
    )


@dataclass
class TestLedger:
    """Counts of charged positive and negative tests for one run."""

    positives: int = 0
    negatives: int = 0

    @property
    def total(self) -> int:
        return self.positives + self.negatives

    def cost(self, rho: float) -> float:
        """Time units at positive:negative cost ratio `rho` (negatives cost 1)."""
        return self.positives * rho + self.negatives


@dataclass(frozen=True)
class Oracle:
    """Defectiveness oracle over a planted family.

    `is_defective` draws fresh Bernoulli noise on every call and charges
    the ledger: a true answer flipped to negative by noise is charged as
    a negative test, because that is the behavior the caller observes.
    Answers are never memoized here; any per-run bookkeeping belongs to
    the search algorithms. The truth comes from `family`: a whole planted
    family answers a query given as nodes from its row store, and a
    projection onto a sample S answers a query given as a mask over S's
    positions, the form every test of a run takes, from the masks of the
    few planted sets inside S. A sampler run reads S from the projection,
    so it takes only an oracle over one.
    """

    family: PlantedFamily | FamilyProjection
    p_fn: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.p_fn < 1.0:
            raise ValidationError("p_fn must lie in [0, 1)")

    def is_defective(
        self, query: Sequence[int] | int, ledger: TestLedger, rng: np.random.Generator
    ) -> bool:
        if self.family.contains_defective(query):
            if self.p_fn > 0.0 and rng.random() < self.p_fn:
                ledger.negatives += 1
                return False
            ledger.positives += 1
            return True
        ledger.negatives += 1
        return False


def sample(pool: Sequence[int], count: int, rng: np.random.Generator) -> list[int]:
    """Draw `count` distinct elements of `pool`, in uniformly random order.

    The order is significant: the deterministic sampler binary-searches
    over positions of the returned list.
    """
    idx = _choose(len(pool), count, rng)
    if isinstance(pool, range) and pool.start == 0 and pool.step == 1:
        return idx
    return [int(pool[i]) for i in idx]


def _choose(n: int, count: int, rng: np.random.Generator) -> list[int]:
    """The positions `sample` draws from a pool of `n`: `count` distinct
    integers in [0, n), in uniformly random order."""
    if count > n:
        raise SampleSizeError(f"cannot sample {count} elements from a pool of {n}")
    if count < 0:
        raise ValidationError("sample count must be nonnegative")
    return rng.choice(n, size=count, replace=False).tolist()


# Most candidate sets one `_draw_sets` call draws in `generate_family`, and
# most sets validation tests or `save` writes at once; it bounds what a
# batch's arrays and row lists hold in memory.
_CHUNK = 1024


def _candidate_keys(
    rng: np.random.Generator, k: int, count: int, smaller: _Smaller
) -> np.ndarray:
    """The keys of `count` drawn candidates of size k that nest no set of
    `smaller`, repeats included."""
    n = smaller.universe_size
    columns = _draw_sets(rng, n, k, count).T
    return _set_keys(columns, n)[~_nested(columns, smaller)]


def _family_seed(seed) -> int | None:
    """`seed` if None, else as an int: it must be an int or a numpy integer,
    not a bool, and at least 0; otherwise ValidationError."""
    if seed is None:
        return None
    if not backend._is_integer(seed) or seed < 0:
        raise ValidationError("family seed must be null or an integer >= 0")
    return int(seed)


def generate_family(
    universe_size: int,
    counts_by_k: Mapping[int, int],
    seed: int | None,
    *,
    attempts_per_set: int = 1000,
) -> PlantedFamily:
    """Rejection-sample a planted antichain with the requested counts.

    Sizes are generated in ascending order, so a candidate only needs to
    avoid (a) duplicating an accepted set of its own size and (b)
    containing an accepted smaller set; equal-size sets can never nest.
    Candidates violating either are discarded and redrawn. Deterministic
    given the seed, which is None (fresh entropy from the operating
    system; the family then records no seed) or an integer at least 0.
    Each batch is tested for (b) at once on set keys (`_nested`, as
    `validate_antichain` does). For (a), a tier counts its distinct keys
    only once fewer than `_CHUNK` sets are missing even if none repeats:
    it then sorts them, drops the repeats, and inserts each later batch's
    new keys where `searchsorted` places them. A tier's sorted keys, in
    tuple order, are decoded into its slice of the family's padded
    member columns (`_decode_keys`), from which the row store is built:
    `planted` is made when first read.

    Each candidate is the sorted `rng.choice(universe_size, k,
    replace=False)`, but a tier draws up to `_CHUNK` candidates at once,
    as k member columns, with `draws._draw_sets`, which replays `choice`
    draw for draw and leaves the generator where `count` `choice` calls
    leave it. A batch never holds more candidates than the tier still
    needs or its budget allows, so the family is the one that drawing
    one candidate at a time makes. The first call in a process checks
    the replay against `choice` itself (`draws._check_replay`) and
    raises ReplayError if numpy draws otherwise.
    """
    seed = _family_seed(seed)
    counts = {}
    for k, c in counts_by_k.items():
        k, c = int(k), int(c)
        if k < 2:
            raise InvalidKError("planted sets must have size >= 2 (no defective 1-sets)")
        if c < 0:
            raise ValidationError("counts must be nonnegative")
        if c > 0:
            counts[k] = c
    if counts and universe_size < max(counts):
        raise ValidationError("universe_size must be at least the largest set size")
    for k, c in counts.items():
        if c > comb(universe_size, k):
            raise InfeasibleCountsError(
                f"{c} sets of size {k} exceed C({universe_size},{k})"
            )

    _replay_checked()
    rng = spawn_generator(seed, ROLE_FAMILY)
    column = np.min_scalar_type(universe_size)
    sizes = sorted(counts)
    # The padded member columns of the family, tier after tier (`backend._padded`).
    padded = np.empty((max(sizes, default=0), sum(counts.values())), column)
    placed = 0
    # The finished tiers, all smaller than k.
    smaller = _Smaller(universe_size)
    for k in sizes:
        target = counts[k]
        budget = attempts_per_set * target
        # The keys kept before the count starts, repeats included. A full
        # batch cannot overshoot `target` while `_CHUNK` sets would be
        # missing even if no kept key repeated, so until then nothing is
        # counted.
        keys = np.empty(target, _set_keys(np.empty((k, 0), column), universe_size).dtype)
        kept = 0
        while target - kept >= _CHUNK and budget > 0:
            batch = min(budget, _CHUNK)
            budget -= batch
            new = _candidate_keys(rng, k, batch, smaller)
            keys[kept:kept + len(new)] = new
            kept += len(new)
        # The tier's distinct keys, sorted.
        keys = keys[:kept]
        keys.sort()
        keys = keys[_heads(keys)]
        while len(keys) < target:
            if budget <= 0:
                raise InfeasibleCountsError(
                    f"retry budget exhausted generating size-{k} sets "
                    f"({len(keys)}/{target} placed)"
                )
            batch = min(target - len(keys), budget, _CHUNK)
            budget -= batch
            new = _candidate_keys(rng, k, batch, smaller)
            new = new[~_among(keys, new)]
            # Near a tier's end most batches draw only repeats.
            if new.size:
                new.sort()
                new = new[_heads(new)]
                keys = np.insert(keys, keys.searchsorted(new), new)
        if k != sizes[-1]:
            smaller.add(k, keys)
            keys = keys.copy()
        tier = padded[:, placed:placed + target]
        _decode_keys(keys, universe_size, tier[:k])
        tier[k:] = tier[k - 1]
        placed += target
        # Not kept beside the row store built below, where the peak RSS is.
        del keys
    set_sizes = np.repeat(np.array(sizes, column), [counts[k] for k in sizes])
    store = backend.FamilyIndex(universe_size, padded, set_sizes)
    return PlantedFamily._of_store(store, seed)
