"""Subset-query index over a whole planted family.

An immutable index answering "does this node set contain a planted
set?" and "how many planted k-sets lie fully inside this node set?".
Candidate sets are bucketed by their minimum member so a query only
inspects sets whose minimum lies in the queried nodes. It serves the
public full-family queries; paired runs answer from
`PlantedFamily.project` instead.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

_EMPTY: tuple = ()


class FamilyIndex:
    """Subset-containment index over a family of small node sets.

    The sets must be nonempty, strictly ascending and inside
    [0, universe_size); `PlantedFamily` checks them at construction.
    """

    __slots__ = ("universe_size", "n_sets", "_by_min")

    def __init__(self, universe_size: int, planted: Iterable[Sequence[int]]):
        if universe_size < 0:
            raise ValueError("universe_size must be nonnegative")
        by_min: dict[int, list[frozenset[int]]] = {}
        for members in planted:
            by_min.setdefault(members[0], []).append(frozenset(members))
        # Small sets first so positive queries exit early.
        for bucket in by_min.values():
            bucket.sort(key=len)
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
            for p in by_min.get(v, _EMPTY):
                if p <= present:
                    return True
        return False

    def count_contained(self, nodes: Sequence[int], k: int) -> int:
        """Number of planted k-sets lying fully inside `nodes`."""
        present = frozenset(nodes)
        if present and (min(present) < 0 or max(present) >= self.universe_size):
            raise ValueError("node out of range")
        by_min = self._by_min
        count = 0
        for v in present:
            for p in by_min.get(v, _EMPTY):
                if len(p) == k and p <= present:
                    count += 1
        return count


def active_backend() -> str:
    """Name of the subset-query implementation; there is only "pure"."""
    return "pure"


__all__ = ["FamilyIndex", "active_backend"]
