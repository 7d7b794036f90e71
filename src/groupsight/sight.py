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
    """
    if not s:
        raise EmptySelectionError("cannot binary-search an empty list")
    d = list(d)
    left, right = 1, len(s)
    while left < right:
        i = (right - left + 1) // 2  # ceil((right - left) / 2)
        probe = d + s[: right - i]
        registry = tested if k_max is None or len(probe) <= k_max else None
        if ask(probe, oracle, ledger, rng, registry):
            right = right - i
        else:
            left = right - i + 1
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
    """
    sizes = range(k_min, min(k_max, len(d) - 1) + 1)
    return bottom_up(d, sizes, oracle, ledger, rng, tested) or tuple(sorted(d))


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
    """
    s, init_rng = start_run(universe_size, config, rng, init_rng, initial_sample)
    return _sight(config, oracle, rng, init_rng, s)


def _sight(
    config: SightConfig,
    oracle: Oracle,
    rng: np.random.Generator,
    init_rng: np.random.Generator,
    s: list[int],
) -> RunResult:
    """The run of `run_sight` from the checked initial sample `s`.

    Every tested set of at most k_max nodes is registered; those are the
    only sets looked up. The minimality pass skips registered subsets for
    free, and the accumulated-set test reuses a registered answer instead
    of charging a duplicate test.
    """
    ledger = TestLedger()
    tested: TestedRegistry = {}
    result = partial(RunResult, ALGORITHM, ledger=ledger, a0=config.a0)
    k_max = config.k_max

    if not ask(s, oracle, ledger, init_rng, tested if len(s) <= k_max else None):
        return result(RunOutcome.ABORT_INITIAL, positives_pre_bottom_up=0)

    d: list[int] = []
    # An empty `s` means defective content was truncated away (false
    # negatives) or completes below k_min: abort, as at k_max.
    while s and len(d) < k_max:
        m = bin_search(s, d, oracle, ledger, rng, tested, k_max)
        d.append(s[m - 1])
        if len(d) >= config.k_min:
            key = frozenset(d)
            defective = tested.get(key)
            if defective is None:
                defective = ask(key, oracle, ledger, rng, tested)
            if defective:
                pre_bu = ledger.positives
                found = bottom_up_sight(
                    d, config.k_min, k_max, tested, oracle, ledger, rng
                )
                return result(RunOutcome.FOUND, found=found,
                              positives_pre_bottom_up=pre_bu)
        s = s[: m - 1]
    return result(RunOutcome.ABORT_TOO_LARGE, positives_pre_bottom_up=ledger.positives)
