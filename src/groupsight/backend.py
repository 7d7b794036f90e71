"""Subset-query index over a whole planted family.

An immutable index answering "does this node set contain a planted
set?" and "how many planted k-sets lie fully inside this node set?".
Each set sits in the bucket of its minimum member, so a query only
inspects sets whose minimum lies in the queried nodes. A bucket holds
tails, the tuple of a set's other members: a frozenset of 5 takes 728
bytes, a tail 72 that shares the planted tuple's int objects. Paired
runs answer from `PlantedFamily.project`, not from this index.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

_EMPTY: tuple = ()


class FamilyIndex:
    """Subset-containment index over a family of small node sets.

    `_by_min` maps a minimum member to its sets' tails, smallest first so
    positive queries exit early. The sets must be nonempty, strictly
    ascending and inside [0, universe_size), as `PlantedFamily` checks.
    """

    __slots__ = ("universe_size", "n_sets", "_by_min")

    def __init__(self, universe_size: int, planted: Iterable[Sequence[int]]):
        if universe_size < 0:
            raise ValueError("universe_size must be nonnegative")
        by_min: dict[int, list[tuple[int, ...]]] = {}
        for members in sorted(planted, key=len):
            by_min.setdefault(members[0], []).append(tuple(members[1:]))
        self.universe_size = universe_size
        self.n_sets = sum(map(len, by_min.values()))
        self._by_min = by_min

    def contains_defective(self, nodes: Sequence[int]) -> bool:
        """True iff some planted set is a subset of `nodes`."""
        present = frozenset(nodes)
        if present and (min(present) < 0 or max(present) >= self.universe_size):
            raise ValueError("node out of range")
        by_min = self._by_min
        for v in present:
            for tail in by_min.get(v, _EMPTY):
                if present.issuperset(tail):
                    return True
        return False

    def count_contained(self, nodes: Sequence[int], k: int) -> int:
        """Number of planted k-sets lying fully inside `nodes`."""
        present = frozenset(nodes)
        if present and (min(present) < 0 or max(present) >= self.universe_size):
            raise ValueError("node out of range")
        by_min = self._by_min
        k_tail = k - 1
        count = 0
        for v in present:
            for tail in by_min.get(v, _EMPTY):
                if len(tail) == k_tail and present.issuperset(tail):
                    count += 1
        return count


def active_backend() -> str:
    """Name of the subset-query implementation; there is only "pure"."""
    return "pure"


__all__ = ["FamilyIndex", "active_backend"]
