"""The row store of a planted family, which answers every subset query.

`FamilyIndex` keeps the planted sets as numpy columns grouped by minimum
member. A query gathers the rows whose minimum lies in the queried nodes
and keeps those whose every member does. `contains_defective` and
`count_contained` only count them; `project` turns them into the integer
masks of one sample, over which a paired run makes every test.
"""

from __future__ import annotations

from collections.abc import Collection, Iterator, Sequence
from itertools import chain

import numpy as np

from .errors import InvalidKError, ValidationError


class FamilyProjection:
    """The planted sets lying inside one node sample S, in position space.

    Node S[i] is bit i, so a subset of S is an int mask and `sets` holds
    the masks of the planted sets inside S, fewest bits first. A query
    is such a mask; one with a bit outside S raises ValidationError
    instead of answering.
    """

    __slots__ = ("nodes", "sets", "_outside")

    def __init__(self, nodes: tuple[int, ...], sets: tuple[int, ...]):
        self.nodes = nodes
        self.sets = sets
        # Every bit from len(S) up, and the sign: set in q & _outside exactly
        # when q is negative or names a bit outside S.
        self._outside = -1 << len(nodes)

    def contains_defective(self, query: int) -> bool:
        """Noise-free truth: does the subset of S that `query` masks contain
        a planted set?"""
        if query & self._outside:
            raise ValidationError("query is not a subset of the projected sample")
        for p in self.sets:
            if p & query == p:
                return True
        return False


class FamilyIndex:
    """The planted sets as rows, checked and grouped by minimum member.

    Row i of `columns` is planted set `order[i]`, of `sizes[i]` members,
    padded to the largest size by repeating its last member, so
    `frozenset(row)` is the set. Rows starts[v]:starts[v + 1] are the
    sets whose minimum is v, in planted order. Each column is a
    contiguous array of the smallest unsigned type holding universe_size.

    `planted` is a sequence of sets; or, with `sizes` given, the members
    of every set one after another, sizes[i] of them for set i, or the
    sets' padded columns (see `_padded`), which the store takes over and
    sorts in place. The first set that is smaller than 2, not strictly
    ascending or out of range raises, with the first of those checks it
    fails.
    """

    __slots__ = ("universe_size", "columns", "starts", "sizes", "order")

    def __init__(
        self,
        universe_size: int,
        planted: Sequence[Sequence[int]] | np.ndarray,
        sizes: np.ndarray | None = None,
    ):
        if sizes is None:
            members, sizes = _members(universe_size, planted)
        else:
            members, sizes = np.asarray(planted), np.asarray(sizes)
        if universe_size < 1:
            raise ValidationError("universe_size must be positive")
        padded = members if members.ndim == 2 else _padded(members, sizes)
        del members
        _check_sets(padded, sizes, universe_size)
        padded = padded.astype(np.min_scalar_type(universe_size), order="C", copy=False)
        # One stable sort by minimum member; each column is then permuted in
        # place, so that the build holds one column more than the store.
        order = (padded[0] if len(padded) else sizes).argsort(kind="stable")
        for col in padded:
            col[:] = col.take(order)
        self.columns = tuple(padded)
        # Not `bincount`, which first copies the column to intp.
        self.starts = np.full(universe_size + 1, len(order), dtype=np.intp)
        if self.columns:
            self.starts[:-1] = self.columns[0].searchsorted(
                np.arange(universe_size, dtype=padded.dtype))
        # Made last: made before the columns, it kept about 1.3 MB more
        # resident after generating a 31,200-set family (glibc heap layout).
        self.sizes = sizes.astype(np.min_scalar_type(len(padded))).take(order)
        self.order = order
        self.universe_size = universe_size

    def __reduce__(self):
        # By value, not by class: a subclass made at run time (a timed one,
        # say) has no importable name.
        return _restore, (
            self.universe_size, self.columns, self.starts, self.sizes, self.order)

    def _inside(
        self, nodes: Collection[int]
    ) -> tuple[Sequence[int], np.ndarray, np.ndarray, np.ndarray]:
        """The queried nodes as ints and as an array, the distinct ones
        ascending, and the rows inside them.

        The one gate for nodes a caller supplies: each must be an integer
        in range, an int or a numpy integer (made an int) but not a bool,
        or ValidationError is raised. One gather takes the rows whose
        minimum is in `nodes`, of every size at once; each further column
        then keeps the rows whose member there is in `nodes` too.
        """
        nodes = _integers(nodes)
        try:
            given = np.fromiter(nodes, dtype=np.intp, count=len(nodes))
        except OverflowError:
            raise ValidationError("node out of range") from None
        # A negative node reads as a huge unsigned one.
        if given.size and given.view(np.uintp).max() >= self.universe_size:
            raise ValidationError("node out of range")
        inside = np.zeros(self.universe_size, dtype=bool)
        inside[given] = True
        # ndarray methods, not the np.* functions that wrap them: a paired
        # run's projection takes about 10 us, and the wrappers' own Python
        # cost was a quarter of that.
        members = inside.nonzero()[0]
        # `_integers` passes a bool as node 0 or 1, so only a query holding
        # one of those has the types at their positions looked at.
        if members.size and members[0] <= 1 and any(
            type(nodes[i]) is bool for i in (given <= 1).nonzero()[0].tolist()
        ):
            raise ValidationError("nodes must be integers, not bools")
        lo = self.starts.take(members)
        counts = self.starts[1:].take(members) - lo
        offsets = counts.cumsum() - counts
        picked = np.arange(offsets[-1] + counts[-1] if counts.size else 0)
        picked += (lo - offsets).repeat(counts)
        for col in self.columns[1:]:
            if not picked.size:
                break
            picked = picked.compress(inside.take(col.take(picked)))
        return nodes, given, members, picked

    def project(self, nodes: Collection[int]) -> FamilyProjection:
        """The planted sets lying inside `nodes`, as masks with bit i for
        nodes[i], fewest bits first. A repeated node raises, as does any
        node `_inside` rejects."""
        nodes, given, members, picked = self._inside(nodes)
        if members.size < given.size:
            raise ValidationError("projected sample has a repeated node")
        masks = [0] * picked.size
        if masks:
            position = np.empty(self.universe_size, dtype=np.intp)
            position[given] = np.arange(given.size)
            # A row's padding repeats its last member, which OR absorbs.
            for col in self.columns:
                bits = position.take(col.take(picked)).tolist()
                masks = [m | 1 << p for m, p in zip(masks, bits)]
            masks.sort(key=int.bit_count)
        return FamilyProjection(tuple(nodes), tuple(masks))

    def tier_slices(self, k: int) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
        """The sets of size k, `_SPAN` rows at a time in row order: each
        slice of rows, the mask of its sets of size k, and their member
        rows (row c holds each set's member c).

        `order[rows].compress(mine)` gives those sets' positions in the
        order they were given.
        """
        for lo in range(0, len(self.sizes), _SPAN):
            rows = slice(lo, lo + _SPAN)
            mine = self.sizes[rows] == k
            yield rows, mine, np.array([col[rows].compress(mine) for col in self.columns[:k]])

    def contains_defective(self, nodes: Collection[int]) -> bool:
        """True iff some planted set is a subset of `nodes`."""
        return self._inside(nodes)[3].size > 0

    def count_contained(self, nodes: Collection[int], k: int) -> int:
        """Number of planted k-sets lying fully inside `nodes`."""
        return int(np.count_nonzero(self.sizes.take(self._inside(nodes)[3]) == k))


def _integers(nodes: Collection[int]) -> Sequence[int]:
    """`nodes` as a list or tuple in which each is an int, or a bool.

    A numpy integer is made an int. Anything else but an int or a bool,
    a float say, or `nodes` not a collection, raises ValidationError.
    """
    if isinstance(nodes, (list, tuple)):
        try:
            # Ints (and bools) sum to an int; a float, a numpy scalar or any
            # other type among them makes the sum something else, or raises.
            if type(sum(nodes)) is int:
                return nodes
        except TypeError:
            pass
    if not (isinstance(nodes, Collection) and all(map(_is_integer, nodes))):
        raise ValidationError("nodes must be a collection of integers")
    return [int(v) for v in nodes]


def _is_integer(value) -> bool:
    """An int or a numpy integer, but not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


# Most sets `_padded` and `_check_sets` take at once, to bound their temporaries.
_SPAN = 1 << 16


def _padded(members: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The padded columns of the sets whose members are `members`, sizes[i]
    of them for set i: row j holds members[min(head + j, end - 1)] of set
    i. A set of no members takes another's, and fails the size check.
    """
    ends = sizes.cumsum(dtype=np.intp)
    padded = np.empty((int(sizes.max()) if sizes.size else 0, len(sizes)), members.dtype)
    steps = np.arange(len(padded))[:, None]
    for lo in range(0, len(sizes), _SPAN):
        end = ends[lo:lo + _SPAN]
        at = (end - sizes[lo:lo + _SPAN]) + steps
        np.minimum(at, end - 1, out=at)
        padded[:, lo:lo + _SPAN] = members.take(at)
    return padded


def _check_sets(padded: np.ndarray, sizes: np.ndarray, universe_size: int) -> None:
    """Raise for the first set that is smaller than 2, not strictly
    ascending or out of range, with the first of those checks it fails.

    Set i is column i of the padded columns `padded`. Padding repeats a
    set's last member, so a fall into row j counts only in sets of more
    than j members.
    """
    rows = np.arange(1, len(padded))[:, None]
    for lo in range(0, len(sizes), _SPAN):
        part, size = padded[:, lo:lo + _SPAN], sizes[lo:lo + _SPAN]
        failed = (
            size < 2,
            (part[1:] <= part[:-1]) & (rows < size),
            (part < 0) | (part >= universe_size),
        )
        if any(map(np.count_nonzero, failed)):
            # The first offending set, then the first check it fails.
            bad = [mask.reshape(-1, len(size)).any(axis=0) for mask in failed]
            i = np.logical_or.reduce(bad).argmax()
            exc, message = (
                (InvalidKError, "planted sets must have size >= 2"),
                (ValidationError, "planted sets must be strictly ascending"),
                (ValidationError, "planted set member out of range"),
            )[[b[i] for b in bad].index(True)]
            raise exc(message)


def _members(
    universe_size: int, planted: Sequence[Sequence[int]]
) -> tuple[np.ndarray, np.ndarray]:
    """The members of every set of `planted`, one after another, and the
    sets' sizes.

    `universe_size` and every member must be an integer, as each node
    `_inside` takes is, or ValidationError is raised. A member outside
    the column type of `universe_size` is out of range; int64 holds it
    for the checks that name the first offending set.
    """
    if not _is_integer(universe_size):
        raise ValidationError("universe_size must be an integer")
    # The types are gathered at C speed, and tested member by member only
    # when some member is not an int exactly.
    if not (set(map(type, chain.from_iterable(planted))) <= {int}
            or all(map(_is_integer, chain.from_iterable(planted)))):
        raise ValidationError("planted set members must be integers")
    sizes = np.fromiter(map(len, planted), dtype=np.intp, count=len(planted))
    for dtype in (np.min_scalar_type(universe_size), np.int64):
        try:
            flat = np.fromiter(chain.from_iterable(planted), dtype=dtype,
                               count=int(sizes.sum()))
            return flat, sizes
        except OverflowError:
            pass
    raise ValidationError("planted set member out of range")


def _restore(universe_size, columns, starts, sizes, order) -> FamilyIndex:
    index = object.__new__(FamilyIndex)
    index.universe_size, index.columns, index.starts, index.sizes, index.order = (
        universe_size, columns, starts, sizes, order)
    return index


def active_backend() -> str:
    """Name of the subset-query implementation; there is only "pure"."""
    return "pure"


__all__ = ["FamilyIndex", "FamilyProjection", "active_backend"]
