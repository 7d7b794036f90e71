"""Stochastic adaptive sampler for minimal defective k-sets.

One run takes a random sample S of size a0 and then walks a fixed
size-reduction schedule: at each step it repeatedly draws random subsets
of the next size until one tests defective (adopting it) or the attempt
budget t_max is exhausted (abort). The final surviving set, of size just
above k_max, is searched bottom-up exhaustively for the smallest
defective subset.

A run works in position space: S is the sample of the oracle's
projection, node S[i] is bit i, and every test is an int mask over S.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .oracle import KSet, Oracle, TestLedger, _choose
from .results import (
    RunOutcome,
    RunResult,
    bit_values,
    bottom_up,
    check_window,
    run_result,
    start_run,
)

ALGORITHM = "rc"


@dataclass(frozen=True)
class RcConfig:
    """Control parameters: initial size, target window, attempt budget."""

    a0: int
    k_min: int = 2
    k_max: int = 4
    t_max: int = 20

    def validate(self, universe_size: int) -> None:
        check_window(self, universe_size, "<")
        if self.t_max < 1:
            raise ValidationError("t_max must be at least 1")


@cache
def build_schedule(a0: int, k_max: int) -> tuple[int, ...]:
    """Strictly decreasing size schedule from a0 down to just above k_max.

    Each size is the ceiling of the previous divided by c, with c = 2
    while the previous size exceeds 20 (binary splitting) and c = 1.5
    once sizes are 20 or below. Generation stops before any value would
    drop to k_max or less, so the last size always exceeds k_max. With
    k_max below 2 it would never stop: a size of 2 divided by 1.5 rounds
    up to 2 again, so such a k_max raises.
    """
    if k_max < 2:
        raise ValidationError("k_max must be at least 2")
    if a0 <= k_max:
        raise ValidationError("a0 must exceed k_max")
    sizes = [a0]
    while True:
        prev = sizes[-1]
        nxt = (prev + 1) // 2 if prev > 20 else -(-prev * 2 // 3)
        if nxt <= k_max:
            return tuple(sizes)
        sizes.append(nxt)


def bottom_up_rc(
    members: Sequence[int],
    k_min: int,
    k_max: int,
    oracle: Oracle,
    ledger: TestLedger,
    rng: np.random.Generator,
) -> KSet | None:
    """First defective subset of the members, as node ids, scanning sizes
    k_min..k_max.

    `members` holds the members' bits over the oracle's sample. Every
    subset of each size is tested, in uniformly random order per size;
    unlike the deterministic sampler's final pass there is no
    already-tested bookkeeping to consult. Returns None when no subset
    of size at most k_max tests defective.
    """
    sizes = range(k_min, min(k_max, len(members)) + 1)
    return bottom_up(members, sizes, oracle, ledger, rng)


def run_rc(
    universe_size: int,
    config: RcConfig,
    oracle: Oracle,
    rng: np.random.Generator,
    init_rng: np.random.Generator,
) -> RunResult:
    """Execute one stochastic-sampler run on the sample of `oracle`'s
    projection, which must hold a0 nodes.

    `init_rng` and `rng` behave exactly as in the deterministic sampler,
    letting paired runs share the initial sample and its test outcome
    while diverging stochastically after. The surviving members are
    kept as their bits, so a subset's mask is their sum. Each step draws
    positions as `sample` does from a pool of the surviving members.
    """
    length = start_run(universe_size, config, oracle)
    ledger = TestLedger()
    result = partial(run_result, ALGORITHM, ledger, config.a0)

    if not oracle.is_defective((1 << length) - 1, ledger, init_rng):
        return result(RunOutcome.ABORT_INITIAL)

    members = bit_values(length)
    for step, a_i in enumerate(build_schedule(config.a0, config.k_max)[1:], start=1):
        for _ in range(config.t_max):
            chosen = [members[i] for i in _choose(len(members), a_i, rng)]
            if oracle.is_defective(sum(chosen), ledger, rng):
                members = chosen
                break
        else:
            return result(RunOutcome.ABORT_AT_STEP, abort_step=step)

    found = bottom_up_rc(members, config.k_min, config.k_max, oracle, ledger, rng)
    return result(RunOutcome.ABORT_NO_MINIMAL if found is None else RunOutcome.FOUND,
                  found=found)
