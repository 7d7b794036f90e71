"""Deterministic adaptive sampler for minimal defective k-sets.

One run draws a random ordered sample S of size a0, then repeatedly
binary-searches for the leftmost position in S that completes a
defective set together with the accumulated nodes D. Each found node is
appended to D and the search continues on the prefix strictly left of
it, until D itself tests defective (then a bottom-up pass certifies
minimality) or D would exceed k_max (abort). The trajectory is fully
determined by the initial sample and the oracle's noise draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .errors import EmptySelectionError
from .oracle import KSet, Oracle, TestLedger
from .results import (
    RunOutcome,
    RunResult,
    TestedRegistry,
    ask,
    bit_values,
    bottom_up,
    check_window,
    start_run,
)

ALGORITHM = "sight"


@dataclass(frozen=True)
class SightConfig:
    """Control parameters: initial sample size and target size window."""

    a0: int
    k_min: int = 2
    k_max: int = 4

    def validate(self, universe_size: int) -> None:
        check_window(self, universe_size, "<=")


def bin_search(
    s: list[int],
    d: Sequence[int],
    oracle: Oracle,
    ledger: TestLedger,
    rng: np.random.Generator,
    tested: Optional[TestedRegistry] = None,
    k_max: Optional[int] = None,
) -> int:
    """Leftmost 1-based index m such that d + s[:m] tests defective.

    Classic halving over positions of `s`: each probe tests the nodes of
    `d` together with a prefix of `s`, narrowing [l, r] until they meet.
    Uses at most ceil(log2(len(s))) tests. The caller guarantees that
    d + s tests defective on a noise-free oracle; under false negatives
    the returned index may be wrong, which the caller's flow absorbs.
    Each probe is recorded in `tested`, when one is given, unless it
    holds more than `k_max` nodes.

    The tests are masks over s + d, which are disjoint: bit i stands for
    s[i], bit len(s) + j for d[j]. `tested` is keyed by those masks, and
    an oracle over a projection must be over exactly s + d.
    """
    if not s:
        raise EmptySelectionError("cannot binary-search an empty list")
    s, d = list(s), list(d)
    accumulated = ((1 << len(d)) - 1) << len(s)
    return _bin_search(len(s), accumulated, oracle._onto(s + d), ledger, rng, tested, k_max)


def _bin_search(length: int, d: int, oracle: Oracle, ledger: TestLedger,
                rng: np.random.Generator, tested: Optional[TestedRegistry],
                k_max: Optional[int]) -> int:
    """`bin_search` over positions 0..length-1, with `d` the mask of the
    accumulated nodes: the probe d + s[:m] is d | (1 << m) - 1."""
    d_size = d.bit_count()
    left, right = 1, length
    while left < right:
        m = right - (right - left + 1) // 2  # right - ceil((right - left) / 2)
        registry = tested if k_max is None or d_size + m <= k_max else None
        if ask(d | (1 << m) - 1, oracle, ledger, rng, registry):
            right = m
        else:
            left = m + 1
    return right


def bottom_up_sight(
    d: Sequence[int],
    k_min: int,
    k_max: int,
    tested: TestedRegistry,
    oracle: Oracle,
    ledger: TestLedger,
    rng: np.random.Generator,
) -> KSet:
    """Smallest defective subset of `d` among sizes k_min..|d|-1, else `d`.

    Tiers are scanned in ascending size, in random order within a tier,
    skipping (for free) subsets already submitted to the oracle during
    this run. During a run, every registered proper subset of `d` was
    observed non-defective, so skipping cannot hide a smaller answer.

    The tests are masks over `d`, bit i for d[i]: `tested` is keyed by
    them, and an oracle over a projection must be over exactly `d`.
    """
    d = list(d)
    return _bottom_up(d, bit_values(len(d)), k_min, k_max, tested, oracle._onto(d),
                      ledger, rng)


def _bottom_up(s: list[int], d: list[int], k_min: int, k_max: int,
               tested: TestedRegistry, oracle: Oracle, ledger: TestLedger,
               rng: np.random.Generator) -> KSet:
    """`bottom_up_sight` over the members `d`, given as bits over `s`."""
    sizes = range(k_min, min(k_max, len(d) - 1) + 1)
    return (bottom_up(s, d, sizes, oracle, ledger, rng, tested)
            or tuple(sorted(s[b.bit_length() - 1] for b in d)))


def run_sight(
    universe_size: int,
    config: SightConfig,
    oracle: Oracle,
    rng: np.random.Generator,
    *,
    init_rng: Optional[np.random.Generator] = None,
    initial_sample: Optional[Sequence[int]] = None,
) -> RunResult:
    """Execute one deterministic-sampler run.

    `init_rng` (defaulting to `rng`), the one start stream, draws the
    initial sample unless `initial_sample` gives one, then the initial
    test's noise draw. Paired runs hand both samplers the same sample and
    generators for the same substream, so they share that prefix exactly.
    An oracle over a projection must be over exactly that sample.
    """
    s, init_rng = start_run(universe_size, config, rng, init_rng, initial_sample)
    return _sight(config, oracle._onto(s), rng, init_rng, s)


def _sight(
    config: SightConfig,
    oracle: Oracle,
    rng: np.random.Generator,
    init_rng: np.random.Generator,
    s: list[int],
) -> RunResult:
    """The run of `run_sight` from the checked initial sample `s`, with
    `oracle` answering masks over `s`.

    What is left of the sample is always a prefix of `s`, so a probe is
    the accumulated mask OR a run of low bits. Every tested set of at
    most k_max nodes is registered; those are the only sets looked up.
    The minimality pass skips registered subsets for free, and the
    accumulated-set test reuses a registered answer instead of charging
    a duplicate test.
    """
    ledger = TestLedger()
    tested: TestedRegistry = {}
    result = partial(RunResult, ALGORITHM, ledger=ledger, a0=config.a0)
    k_max = config.k_max
    length = len(s)

    if not ask((1 << length) - 1, oracle, ledger, init_rng,
               tested if length <= k_max else None):
        return result(RunOutcome.ABORT_INITIAL, positives_pre_bottom_up=0)

    d: list[int] = []  # the bits of the accumulated nodes
    accumulated = 0
    # An empty prefix means defective content was truncated away (false
    # negatives) or completes below k_min: abort, as at k_max.
    while length and len(d) < k_max:
        m = _bin_search(length, accumulated, oracle, ledger, rng, tested, k_max)
        d.append(1 << (m - 1))
        accumulated |= d[-1]
        if len(d) >= config.k_min:
            defective = tested.get(accumulated)
            if defective is None:
                defective = ask(accumulated, oracle, ledger, rng, tested)
            if defective:
                pre_bu = ledger.positives
                found = _bottom_up(s, d, config.k_min, k_max, tested, oracle, ledger, rng)
                return result(RunOutcome.FOUND, found=found,
                              positives_pre_bottom_up=pre_bu)
        length = m - 1
    return result(RunOutcome.ABORT_TOO_LARGE, positives_pre_bottom_up=ledger.positives)
