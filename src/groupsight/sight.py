"""Deterministic adaptive sampler for minimal defective k-sets.

One run takes a random ordered sample S of size a0, then repeatedly
binary-searches for the leftmost position in S that completes a
defective set together with the accumulated nodes D. Each found node is
appended to D and the search continues on the prefix strictly left of
it, until D itself tests defective (then a bottom-up pass certifies
minimality) or D would exceed k_max (abort). The trajectory is fully
determined by the initial sample and the oracle's noise draws.

A run works in position space: S is the sample of the oracle's
projection, node S[i] is bit i, and every test is an int mask over S.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .errors import EmptySelectionError
from .oracle import KSet, Oracle, TestLedger
from .results import (
    RunOutcome,
    RunResult,
    TestedRegistry,
    ask,
    bottom_up,
    check_window,
    run_result,
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
    length: int,
    d: int,
    oracle: Oracle,
    ledger: TestLedger,
    rng: np.random.Generator,
    tested: Optional[TestedRegistry] = None,
    k_max: Optional[int] = None,
) -> int:
    """Leftmost m in 1..length such that d + s[:m] tests defective.

    `d` is the mask of the accumulated nodes and s[:m] the first m
    positions of the sample, so the probe is d | (1 << m) - 1. Classic
    halving narrows [l, r] until they meet, in at most
    ceil(log2(length)) tests. The caller guarantees that d + s[:length]
    tests defective on a noise-free oracle; under false negatives the
    returned index may be wrong, which the caller's flow absorbs. Each
    probe is recorded in `tested`, when one is given, unless it holds
    more than `k_max` nodes.
    """
    if length < 1:
        raise EmptySelectionError("cannot binary-search an empty prefix")
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
    d: list[int],
    k_min: int,
    k_max: int,
    tested: TestedRegistry,
    oracle: Oracle,
    ledger: TestLedger,
    rng: np.random.Generator,
) -> KSet:
    """Smallest defective subset of the members `d` among sizes
    k_min..|d|-1, else `d` itself, as node ids.

    `d` holds the members' bits over the oracle's sample. Tiers are
    scanned in ascending size, in random order within a tier, skipping
    (for free) subsets already registered in `tested`. During a run,
    every registered proper subset of `d` was observed non-defective, so
    skipping cannot hide a smaller answer.
    """
    sizes = range(k_min, min(k_max, len(d) - 1) + 1)
    return (bottom_up(d, sizes, oracle, ledger, rng, tested)
            or tuple(sorted(oracle.family.nodes[b.bit_length() - 1] for b in d)))


def run_sight(
    universe_size: int,
    config: SightConfig,
    oracle: Oracle,
    rng: np.random.Generator,
    init_rng: np.random.Generator,
) -> RunResult:
    """Execute one deterministic-sampler run on the sample of `oracle`'s
    projection, which must hold a0 nodes.

    `init_rng`, the start stream, draws the initial test's noise; `rng`
    every later draw. Paired runs hand both samplers the same oracle and
    generators for the same initial-noise substream, so they share the
    initial test exactly.

    What is left of the sample is always a prefix of it, so a probe is
    the accumulated mask OR a run of low bits. Every tested set of at
    most k_max nodes is registered; those are the only sets looked up.
    The minimality pass skips registered subsets for free, and the
    accumulated-set test reuses a registered answer instead of charging
    a duplicate test.
    """
    length = start_run(universe_size, config, oracle)
    ledger = TestLedger()
    tested: TestedRegistry = {}
    result = partial(run_result, ALGORITHM, ledger, config.a0)
    k_max = config.k_max

    if not ask((1 << length) - 1, oracle, ledger, init_rng,
               tested if length <= k_max else None):
        return result(RunOutcome.ABORT_INITIAL, positives_pre_bottom_up=0)

    d: list[int] = []  # the bits of the accumulated nodes
    accumulated = 0
    # An empty prefix means defective content was truncated away (false
    # negatives) or completes below k_min: abort, as at k_max.
    while length and len(d) < k_max:
        m = bin_search(length, accumulated, oracle, ledger, rng, tested, k_max)
        d.append(1 << (m - 1))
        accumulated |= d[-1]
        if len(d) >= config.k_min:
            defective = tested.get(accumulated)
            if defective is None:
                defective = ask(accumulated, oracle, ledger, rng, tested)
            if defective:
                pre_bu = ledger.positives
                found = bottom_up_sight(d, config.k_min, k_max, tested, oracle, ledger, rng)
                return result(RunOutcome.FOUND, found=found,
                              positives_pre_bottom_up=pre_bu)
        length = m - 1
    return result(RunOutcome.ABORT_TOO_LARGE, positives_pre_bottom_up=ledger.positives)
