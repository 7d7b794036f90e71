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

from . import backend
from .errors import (
    InfeasibleCountsError,
    InvalidKError,
    SampleSizeError,
    ValidationError,
)
from .rng import ROLE_FAMILY, spawn_generator

KSet = tuple[int, ...]


def canonical_kset(nodes: Iterable[int]) -> KSet:
    """Sorted, duplicate-free tuple form of a node set."""
    out = tuple(sorted(set(int(v) for v in nodes)))
    if not out:
        raise ValidationError("a k-set must contain at least one node")
    return out


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
    range [0, universe_size). The subset-query index and the per-size
    arrays behind `project` are built lazily and never pickled; worker
    processes rebuild them on first use.
    """

    universe_size: int
    planted: tuple[KSet, ...]
    seed: int | None = None
    _index: object = field(default=None, compare=False, repr=False)
    _tiers: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.universe_size < 1:
            raise ValidationError("universe_size must be positive")
        for p in self.planted:
            if len(p) < 2:
                raise InvalidKError("planted sets must have size >= 2")
            if any(b <= a for a, b in zip(p, p[1:])):
                raise ValidationError("planted sets must be strictly ascending")
            if p[0] < 0 or p[-1] >= self.universe_size:
                raise ValidationError("planted set member out of range")

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_index"] = None
        state["_tiers"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)

    def index(self):
        """Backend subset-query index, built on first use."""
        if self._index is None:
            idx = backend.FamilyIndex(self.universe_size, self.planted)
            object.__setattr__(self, "_index", idx)
        return self._index

    def _size_tiers(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per planted size, ascending: (rows, starts), built on first use.

        `rows` holds the size's sets one per row, grouped by minimum
        member: rows[starts[v]:starts[v + 1]] are the sets whose minimum
        is v.
        """
        if self._tiers is None:
            dtype = np.min_scalar_type(self.universe_size)
            tiers = []
            for k, count in self.counts_by_k.items():
                rows = np.fromiter(
                    chain.from_iterable(p for p in self.planted if len(p) == k),
                    dtype=dtype,
                    count=k * count,
                ).reshape(count, k)
                # Generated and saved families list each size in order.
                if (rows[1:, 0] < rows[:-1, 0]).any():
                    rows = rows[np.argsort(rows[:, 0], kind="stable")]
                starts = np.zeros(self.universe_size + 1, dtype=np.intp)
                np.cumsum(
                    np.bincount(rows[:, 0], minlength=self.universe_size),
                    out=starts[1:],
                )
                tiers.append((rows, starts))
            object.__setattr__(self, "_tiers", tuple(tiers))
        return self._tiers

    def project(self, nodes: Sequence[int]) -> FamilyProjection:
        """The planted sets lying inside `nodes`, for queries on its subsets."""
        given = np.array(nodes, dtype=np.intp)
        if given.size and (given.min() < 0 or given.max() >= self.universe_size):
            raise ValidationError("node out of range")
        inside = np.zeros(self.universe_size, dtype=bool)
        inside[given] = True
        members = np.flatnonzero(inside)
        sets: list[frozenset[int]] = []
        for rows, starts in self._size_tiers():
            # Gather the rows whose minimum is in `nodes`, then keep those
            # whose other members are too, one column at a time.
            lo = starts[members]
            counts = starts[members + 1] - lo
            offsets = np.cumsum(counts) - counts
            picked = np.arange(counts.sum()) + np.repeat(lo - offsets, counts)
            for col in range(1, rows.shape[1]):
                picked = picked[inside[rows[picked, col]]]
            sets.extend(map(frozenset, rows[picked].tolist()))
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
        Sets are canonical tuples, so a set contains a smaller planted set
        exactly when one of its subsets at a smaller planted size is in
        the family.
        """
        present: set[KSet] = set()
        for p in self.planted:
            if p in present:
                raise _not_antichain(p)
            present.add(p)
        sizes = sorted(set(len(p) for p in self.planted))
        for p in self.planted:
            for k in sizes:
                if k >= len(p):
                    break
                if not present.isdisjoint(combinations(p, k)):
                    raise _not_antichain(p)

    def to_json_dict(self) -> dict:
        return {
            "universe_size": self.universe_size,
            "planted": [list(p) for p in self.planted],
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "PlantedFamily":
        try:
            universe_size = int(data["universe_size"])
            planted = tuple(tuple(int(v) for v in p) for p in data["planted"])
            seed = data.get("seed")
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed family record: {exc}") from exc
        fam = cls(
            universe_size=universe_size,
            planted=planted,
            seed=None if seed is None else int(seed),
        )
        fam.validate_antichain()
        return fam

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict()) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "PlantedFamily":
        return cls.from_json_dict(json.loads(Path(path).read_text()))


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

    def truth(self, nodes: Sequence[int]) -> bool:
        """Noise-free containment answer; no ledger effect."""
        return self.family.contains_defective(nodes)

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
    idx = rng.choice(n, size=count, replace=False)
    return [int(pool[i]) for i in idx]


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
    universe = range(universe_size)
    for k in sorted(counts):
        target = counts[k]
        # Accepted smaller sizes are frozen; index them once per tier.
        smaller = backend.FamilyIndex(universe_size, accepted)
        tier: set[KSet] = set()
        budget = attempts_per_set * max(target, 1)
        while len(tier) < target:
            if budget <= 0:
                raise InfeasibleCountsError(
                    f"retry budget exhausted generating size-{k} sets "
                    f"({len(tier)}/{target} placed)"
                )
            budget -= 1
            cand = tuple(sorted(sample(universe, k, rng)))
            if cand in tier:
                continue
            if smaller.n_sets and smaller.contains_defective(cand):
                continue
            tier.add(cand)
        accepted.extend(sorted(tier))
    return PlantedFamily(
        universe_size=universe_size, planted=tuple(accepted), seed=seed
    )
