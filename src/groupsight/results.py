"""Run outcomes, their wire format, and the steps both samplers share."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .backend import FamilyProjection
from .errors import ValidationError
from .oracle import KSet, Oracle, TestLedger

# Registry of the tests already submitted to the oracle this run, each as
# its mask over the run's sample, with the answer observed.
TestedRegistry = dict[int, bool]


class RunOutcome(str, Enum):
    FOUND = "Found"
    ABORT_INITIAL = "AbortInitial"          # initial sample tested non-defective
    ABORT_TOO_LARGE = "AbortTooLarge"       # accumulator hit k_max without success
    ABORT_AT_STEP = "AbortAtStep"           # a reduction step exhausted t_max attempts
    ABORT_NO_MINIMAL = "AbortNoMinimal"     # final bottom-up search found nothing


@dataclass(frozen=True, slots=True)
class RunResult:
    """Outcome of one sampler run and the positive and negative tests it
    was charged; `ledger` is a TestLedger of the two, made when read.

    `positives_pre_bottom_up` snapshots the positive count before the
    final minimality search (deterministic sampler only); for aborted
    runs it equals the final positive count.
    """

    algorithm: str
    outcome: RunOutcome
    positives: int
    negatives: int
    a0: int
    found: KSet | None = None
    abort_step: int | None = None
    positives_pre_bottom_up: int | None = None

    @property
    def ledger(self) -> TestLedger:
        return TestLedger(self.positives, self.negatives)

    @property
    def is_find(self) -> bool:
        return self.outcome is RunOutcome.FOUND

    @property
    def found_k(self) -> int | None:
        return None if self.found is None else len(self.found)

    def to_record(self, seed: int) -> dict:
        """JSON-ready run record. `seed` is the run's substream index."""
        return run_record(self.algorithm, self.outcome, self.found, self.positives,
                          self.negatives, self.a0, seed, self.abort_step)


def run_record(algorithm: str, outcome: RunOutcome, found: KSet | None, positives: int,
               negatives: int, a0: int, seed: int, abort_step: int | None) -> dict:
    """The JSON-ready record of a run with these fields; only an rc run's
    record holds its `abort_step`."""
    record = {
        "algorithm": algorithm,
        "outcome": outcome.value,
        "found_set": None if found is None else list(found),
        "k": None if found is None else len(found),
        "positives": positives,
        "negatives": negatives,
        "a0": a0,
        "seed": seed,
    }
    if algorithm == "rc":
        record["abort_step"] = abort_step
    return record


def run_result(algorithm: str, ledger: TestLedger, a0: int, outcome: RunOutcome,
               **fields) -> RunResult:
    """The result of a run that ends now, charged what `ledger` holds."""
    return RunResult(algorithm, outcome, ledger.positives, ledger.negatives, a0, **fields)


def check_window(config, universe_size: int, a0_op: str) -> None:
    """Raise unless 2 <= k_min <= k_max and k_max `a0_op` a0 < universe size."""
    if not 2 <= config.k_min <= config.k_max:
        raise ValidationError("need 2 <= k_min <= k_max")
    if not config.k_max + (a0_op == "<") <= config.a0 < universe_size:
        raise ValidationError(f"need k_max {a0_op} a0 < universe size")


def start_run(universe_size: int, config, oracle: Oracle) -> int:
    """Validate `config` and the run's sample, the nodes of the projection
    `oracle` answers over; return the sample's size, a0.

    The projection checked the sample's nodes (see `FamilyIndex.project`).
    An oracle over a whole family, or over a sample of other than a0
    nodes, raises ValidationError.
    """
    config.validate(universe_size)
    if len(sample_of(oracle)) != config.a0:
        raise ValidationError("the oracle's sample must have exactly a0 nodes")
    return config.a0


def sample_of(oracle: Oracle) -> tuple[int, ...]:
    """The sample S whose positions `oracle`'s masks are over."""
    if not isinstance(oracle.family, FamilyProjection):
        raise ValidationError("a run's oracle must be over a family projected "
                              "onto its sample")
    return oracle.family.nodes


@cache
def bit_values(n: int) -> tuple[int, ...]:
    """The bits of positions 0..n-1: 1, 2, 4, ..., 1 << (n - 1)."""
    return tuple(1 << i for i in range(n))


def ask(query: int, oracle: Oracle, ledger: TestLedger,
        rng: np.random.Generator, tested: Optional[TestedRegistry] = None) -> bool:
    """Test the mask `query`, recording the answer in `tested` when one is given."""
    result = oracle.is_defective(query, ledger, rng)
    if tested is not None:
        tested[query] = result
    return result


def bottom_up(
    bits: Sequence[int], sizes: range, oracle: Oracle, ledger: TestLedger,
    rng: np.random.Generator, tested: Optional[TestedRegistry] = None,
) -> KSet | None:
    """First subset of the members `bits` to test defective, as node ids,
    else None. Bit i stands for node S[i] of the oracle's sample S.

    Sizes are scanned in ascending order, the subsets of each size in
    uniformly random order; the tiers list them as `combinations` of the
    members sorted by node id. With a `tested` registry, subsets already
    in it are skipped for free and every new answer is recorded there.
    """
    nodes = sample_of(oracle)
    ordered = [bit for _, bit in sorted((nodes[b.bit_length() - 1], b) for b in bits)]
    for k in sizes:
        tier = list(combinations(ordered, k))
        for idx in rng.permutation(len(tier)):
            cand = tier[idx]
            query = sum(cand)
            if tested is not None and query in tested:
                continue
            if ask(query, oracle, ledger, rng, tested):
                return tuple(nodes[b.bit_length() - 1] for b in cand)
    return None
