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
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import chain, combinations
from math import comb
from pathlib import Path

import numpy as np

# Looked up as `backend.FamilyIndex` when an index is built, so a replaced class
# (perfbench's tracer swaps in a timed subclass) takes effect.
from . import backend
from .errors import (
    InfeasibleCountsError,
    InvalidKError,
    SampleSizeError,
    ValidationError,
)
from .rng import ROLE_FAMILY, spawn_generator

KSet = tuple[int, ...]


class FamilyProjection:
    """The planted sets lying inside one node sample S.

    Answers containment queries for subsets of S from the few planted
    sets S holds, smallest first. A query with a node outside S raises
    ValidationError instead of answering.
    """

    __slots__ = ("nodes", "sets")

    def __init__(self, nodes: frozenset[int], sets: tuple[frozenset[int], ...]):
        self.nodes = nodes
        self.sets = sets

    def contains_defective(self, nodes: Sequence[int]) -> bool:
        """Noise-free truth: does `nodes`, a subset of S, contain a planted set?"""
        present = frozenset(nodes)
        if not present <= self.nodes:
            raise ValidationError("query is not a subset of the projected sample")
        for p in self.sets:
            if p <= present:
                return True
        return False


@dataclass(frozen=True)
class PlantedFamily:
    """Immutable ground truth: the antichain of minimal defective sets.

    `planted` holds canonical (strictly ascending) tuples over the node
    range [0, universe_size). Construction checks them on the row store
    behind `project` (see `_row_store`), which it builds once and keeps
    in `_rows`; a pickled family carries the store. The subset-query
    index is never pickled; worker processes rebuild it on first use.
    Neither is a constructor argument, so `dataclasses.replace` builds
    both afresh for the new sets.
    """

    universe_size: int
    planted: tuple[KSet, ...]
    seed: int | None = None
    _index: object = field(default=None, init=False, compare=False, repr=False)
    _rows: object = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.universe_size < 1:
            raise ValidationError("universe_size must be positive")
        object.__setattr__(
            self, "_rows", _row_store(self.universe_size, self.planted)
        )

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_index"] = None
        return state

    def index(self):
        """Full-family subset-query index, built on first use."""
        if self._index is None:
            idx = backend.FamilyIndex(self.universe_size, self.planted)
            object.__setattr__(self, "_index", idx)
        return self._index

    def project(self, nodes: Sequence[int]) -> FamilyProjection:
        """The planted sets lying inside `nodes`, for queries on its subsets.

        One gather takes the rows whose minimum is in `nodes`, of every
        size at once; each further column then keeps the rows whose
        member there is in `nodes` too. The sets come smallest first.
        """
        given = np.array(nodes, dtype=np.intp)
        if given.size and (given.min() < 0 or given.max() >= self.universe_size):
            raise ValidationError("node out of range")
        inside = np.zeros(self.universe_size, dtype=bool)
        inside[given] = True
        members = np.flatnonzero(inside)
        columns, starts = self._rows
        lo = starts.take(members)
        counts = starts.take(members + 1) - lo
        offsets = np.cumsum(counts) - counts
        picked = np.arange(counts.sum()) + np.repeat(lo - offsets, counts)
        for col in columns[1:]:
            picked = picked.compress(inside.take(col.take(picked)))
        rows = zip(*(col.take(picked).tolist() for col in columns))
        sets = sorted(map(frozenset, rows), key=len)
        return FamilyProjection(frozenset(members.tolist()), tuple(sets))

    @property
    def counts_by_k(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for p in self.planted:
            counts[len(p)] = counts.get(len(p), 0) + 1
        return dict(sorted(counts.items()))

    def contains_defective(self, nodes: Sequence[int]) -> bool:
        """Noise-free truth: does `nodes` contain some planted set?"""
        return self.index().contains_defective(nodes)

    def count_contained(self, nodes: Sequence[int], k: int) -> int:
        """Number of planted k-sets fully inside `nodes`."""
        return self.index().count_contained(nodes, k)

    def validate_antichain(self) -> None:
        """Raise unless the family is an antichain of distinct sets.

        Each planted set must contain exactly one planted set: itself.
        """
        present: set[KSet] = set()
        for p in self.planted:
            if p in present:
                raise _not_antichain(p)
            present.add(p)
        sizes = set(map(len, self.planted))
        for p in self.planted:
            if _nests(p, present, sizes):
                raise _not_antichain(p)

    def to_json_dict(self) -> dict:
        return {
            "universe_size": self.universe_size,
            "planted": [list(p) for p in self.planted],
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "PlantedFamily":
        """Family of a JSON record; every number in it must be an exact integer."""
        try:
            universe_size = data["universe_size"]
            planted = data["planted"]
            seed = data.get("seed")
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed family record: {exc}") from exc
        if not (isinstance(planted, list) and all(isinstance(p, list) for p in planted)):
            raise ValidationError("family record 'planted' is not a list of lists")
        planted = tuple(map(tuple, planted))
        if not _is_int(universe_size):
            raise ValidationError("family record 'universe_size' is not an integer")
        if not all(map(_is_int, chain.from_iterable(planted))):
            raise ValidationError("family record 'planted' has a non-integer member")
        if seed is not None and not _is_int(seed):
            raise ValidationError("family record 'seed' is not null or an integer")
        fam = cls(universe_size=universe_size, planted=planted, seed=seed)
        fam.validate_antichain()
        return fam

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict()) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "PlantedFamily":
        return cls.from_json_dict(json.loads(Path(path).read_text()))


def _is_int(value) -> bool:
    """An exact integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _row_store(
    universe_size: int, planted: Sequence[KSet]
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """(columns, starts) of the planted sets, after checking each one.

    Row i of `columns` is one planted set, padded to the largest size by
    repeating its last member, so `frozenset(row)` is the set. Rows are
    grouped by minimum member: rows starts[v]:starts[v + 1] are the sets
    whose minimum is v. Each column is a contiguous array of the smallest
    unsigned type holding universe_size.

    The first planted set that is smaller than 2, not strictly ascending
    or out of range raises, with the first of those checks it fails.
    """
    sizes = np.fromiter(map(len, planted), dtype=np.intp, count=len(planted))
    ends = np.cumsum(sizes)
    # A member outside the column type is out of range; int64 holds it
    # for the checks below, which name the first offending set.
    for dtype in (np.min_scalar_type(universe_size), np.int64):
        try:
            flat = np.fromiter(
                chain.from_iterable(planted),
                dtype=dtype,
                count=int(ends[-1]) if ends.size else 0,
            )
            break
        except OverflowError:
            pass
    else:
        raise ValidationError("planted set member out of range")

    def owner(positions: np.ndarray) -> np.ndarray:
        return np.searchsorted(ends, positions, side="right")

    falls = np.flatnonzero(flat[1:] <= flat[:-1])
    left, right = owner(falls), owner(falls + 1)
    checks = (
        (np.flatnonzero(sizes < 2),
         InvalidKError, "planted sets must have size >= 2"),
        (left[left == right],
         ValidationError, "planted sets must be strictly ascending"),
        (owner(np.flatnonzero((flat < 0) | (flat >= universe_size))),
         ValidationError, "planted set member out of range"),
    )
    failed = [(bad[0], rank) for rank, (bad, _, _) in enumerate(checks) if bad.size]
    if failed:
        _, exc, message = checks[min(failed)[1]]
        raise exc(message)

    heads = ends - sizes
    order = np.argsort(flat[heads], kind="stable")
    heads, last = heads[order], ends[order] - 1
    columns = tuple(
        flat.take(np.minimum(heads + j, last))
        for j in range(int(sizes.max()) if sizes.size else 0)
    )
    starts = np.zeros(universe_size + 1, dtype=np.intp)
    if columns:
        np.cumsum(np.bincount(columns[0], minlength=universe_size), out=starts[1:])
    return columns, starts


def _nests(p: KSet, present: set[KSet], sizes: Iterable[int]) -> bool:
    """Does canonical `p` contain a smaller set of `present`?

    `sizes` must include every size in `present`.
    """
    return any(not present.isdisjoint(combinations(p, k)) for k in sizes if k < len(p))


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
    the search algorithms. The truth comes from `family`, either a whole
    planted family or its projection onto a sample whose subsets are the
    only queries a run will make.
    """

    family: PlantedFamily | FamilyProjection
    p_fn: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.p_fn < 1.0:
            raise ValidationError("p_fn must lie in [0, 1)")

    def is_defective(
        self, nodes: Sequence[int], ledger: TestLedger, rng: np.random.Generator
    ) -> bool:
        if self.family.contains_defective(nodes):
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
    n = len(pool)
    if count > n:
        raise SampleSizeError(f"cannot sample {count} elements from a pool of {n}")
    if count < 0:
        raise ValidationError("sample count must be nonnegative")
    idx = rng.choice(n, size=count, replace=False).tolist()
    if isinstance(pool, range) and pool.start == 0 and pool.step == 1:
        return idx
    return [int(pool[i]) for i in idx]


# Most candidate rows one `_draw_sets` call draws in `generate_family`; it
# bounds what a batch's arrays and row lists hold in memory.
_CHUNK = 1024


def _draw_sets(
    rng: np.random.Generator, n: int, k: int, count: int
) -> np.ndarray:
    """`count` rows, each the sorted `rng.choice(n, k, replace=False)`.

    Consumes the stream exactly as `count` successive `choice` calls do
    (see `generate_family`). Per row, columns 0..k-1 of the batched draw
    are Floyd's draws from [0, j] for j = n-k .. n-1, each replaced by j
    when already taken; the k-1 shuffle draws after them go unused.
    """
    if n > 10000 and k > n // 50:
        return np.array([np.sort(rng.choice(n, k, replace=False))
                         for _ in range(count)])
    highs = np.concatenate((np.arange(n - k + 1, n + 1), np.arange(k, 1, -1)))
    rows = rng.integers(0, np.tile(highs, count)).reshape(count, -1)[:, :k]
    for c in range(1, k):
        taken = (rows[:, :c] == rows[:, c, None]).any(axis=1)
        rows[taken, c] = n - k + c
    rows.sort(axis=1)
    return rows


def generate_family(
    universe_size: int,
    counts_by_k: Mapping[int, int],
    seed: int,
    *,
    attempts_per_set: int = 1000,
) -> PlantedFamily:
    """Rejection-sample a planted antichain with the requested counts.

    Sizes are generated in ascending order, so a candidate only needs to
    avoid (a) duplicating an accepted set of its own size and (b)
    containing an accepted smaller set; equal-size sets can never nest.
    Candidates violating either are discarded and redrawn. Deterministic
    given the seed.

    Each candidate is the sorted `rng.choice(universe_size, k,
    replace=False)`, but a tier draws up to `_CHUNK` candidates from one
    `rng.integers` call (`_draw_sets`). This is exact: numpy's `choice`
    runs Floyd's algorithm and then a Fisher-Yates shuffle, and each of
    their draws is the bounded-integer draw (Lemire's method) that
    `integers` makes for each element of an array of bounds. Given the
    bounds of `count` rows, one call consumes the stream as `count`
    `choice` calls do and leaves the generator in the same state. Where
    `choice` uses a tail shuffle instead (universe_size > 10000 and
    k > universe_size // 50), `_draw_sets` calls `choice` once per row.
    A batch never holds more rows than the tier still needs or its
    budget allows, so the family is the one that drawing one candidate
    at a time makes.
    """
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

    rng = spawn_generator(seed, ROLE_FAMILY)
    accepted: list[KSet] = []
    # One int object per node, shared by every planted set.
    universe = np.fromiter(range(universe_size), dtype=object, count=universe_size)
    for k in sorted(counts):
        target = counts[k]
        smaller = set(accepted)  # accepted sets are all smaller than k
        tier: set[KSet] = set()
        budget = attempts_per_set * max(target, 1)
        while len(tier) < target:
            if budget <= 0:
                raise InfeasibleCountsError(
                    f"retry budget exhausted generating size-{k} sets "
                    f"({len(tier)}/{target} placed)"
                )
            batch = min(target - len(tier), budget, _CHUNK)
            budget -= batch
            rows = universe[_draw_sets(rng, universe_size, k, batch)].tolist()
            for cand in map(tuple, rows):
                if cand in tier or _nests(cand, smaller, counts):
                    continue
                tier.add(cand)
        accepted.extend(sorted(tier))
    return PlantedFamily(
        universe_size=universe_size, planted=tuple(accepted), seed=seed
    )
