"""Stochastic adaptive sampler for minimal defective k-sets.

One run draws a random sample S of size a0 and then walks a fixed
size-reduction schedule: at each step it repeatedly draws random subsets
of the next size until one tests defective (adopting it) or the attempt
budget t_max is exhausted (abort). The final surviving set, of size just
above k_max, is searched bottom-up exhaustively for the smallest
defective subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError
from .oracle import KSet, Oracle, TestLedger, _choose
from .results import (
    RunOutcome,
    RunResult,
    bit_values,
    bottom_up,
    check_window,
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
    drop to k_max or less, so the last size always exceeds k_max.
    """
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
    s: Sequence[int],
    k_min: int,
    k_max: int,
    oracle: Oracle,
    ledger: TestLedger,
    rng: np.random.Generator,
) -> KSet | None:
    """First defective subset of `s`, scanning sizes k_min..k_max.

    Every subset of each size is tested, in uniformly random order per
    size; unlike the deterministic sampler's final pass there is no
    already-tested bookkeeping to consult. Returns None when no subset
    of size at most k_max tests defective. The tests are masks over `s`,
    bit i for s[i]; an oracle over a projection must be over exactly `s`.
    """
    s = list(s)
    return bottom_up(s, bit_values(len(s)), range(k_min, min(k_max, len(s)) + 1),
                     oracle._onto(s), ledger, rng)


def run_rc(
    universe_size: int,
    config: RcConfig,
    oracle: Oracle,
    rng: np.random.Generator,
    *,
    init_rng: Optional[np.random.Generator] = None,
    initial_sample: Optional[Sequence[int]] = None,
) -> RunResult:
    """Execute one stochastic-sampler run.

    `init_rng`, the one start stream, and `initial_sample` behave exactly
    as in the deterministic sampler, letting paired runs share the initial
    sample and its test outcome while diverging stochastically after. An
    oracle over a projection must be over exactly that sample.
    """
    s, init_rng = start_run(universe_size, config, rng, init_rng, initial_sample)
    return _rc(config, oracle._onto(s), rng, init_rng, s)


def _rc(
    config: RcConfig,
    oracle: Oracle,
    rng: np.random.Generator,
    init_rng: np.random.Generator,
    s: list[int],
) -> RunResult:
    """The run of `run_rc` from the checked initial sample `s`, with
    `oracle` answering masks over `s`.

    The surviving members are kept as their bits, so a subset's mask is
    their sum. Each step draws positions as `sample` does from a pool of
    the surviving members.
    """
    ledger = TestLedger()
    result = partial(RunResult, ALGORITHM, ledger=ledger, a0=config.a0)

    if not oracle.is_defective((1 << len(s)) - 1, ledger, init_rng):
        return result(RunOutcome.ABORT_INITIAL)

    members = bit_values(len(s))
    for step, a_i in enumerate(build_schedule(config.a0, config.k_max)[1:], start=1):
        for _ in range(config.t_max):
            chosen = [members[i] for i in _choose(len(members), a_i, rng)]
            if oracle.is_defective(sum(chosen), ledger, rng):
                members = chosen
                break
        else:
            return result(RunOutcome.ABORT_AT_STEP, abort_step=step)

    sizes = range(config.k_min, min(config.k_max, len(members)) + 1)
    found = bottom_up(s, members, sizes, oracle, ledger, rng)
    return result(RunOutcome.ABORT_NO_MINIMAL if found is None else RunOutcome.FOUND,
                  found=found)
