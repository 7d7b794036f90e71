"""Shared test helpers: independent brute-force oracles, builders, and
the way a caller hands a sampler run its sample.

The brute-force implementations here deliberately avoid the package's
indexed query path so they can serve as independent references.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from groupsight import Oracle, PlantedFamily, bin_search, sample


def brute_truth(planted, nodes) -> bool:
    """Reference containment check: any planted set inside `nodes`."""
    present = set(nodes)
    return any(set(p) <= present for p in planted)


def brute_least_defective_prefix(planted, d, s) -> int | None:
    """Least 1-based m with d + s[:m] containing a planted set."""
    for m in range(1, len(s) + 1):
        if brute_truth(planted, list(d) + list(s[:m])):
            return m
    return None


def mask_of(sample, nodes) -> int:
    """The mask of `nodes` over `sample`, in which bit i stands for sample[i]."""
    position = {v: i for i, v in enumerate(sample)}
    return sum(1 << position[v] for v in set(nodes))


def nodes_of(sample, mask) -> frozenset:
    """The nodes of `sample` whose bits `mask` sets."""
    return frozenset(v for i, v in enumerate(sample) if mask >> i & 1)


def bits_of(sample) -> list[int]:
    """The bit of each node of `sample`: 1, 2, 4, ..."""
    return [1 << i for i in range(len(sample))]


def oracle_over(family, sample, p_fn=0.0, oracle=Oracle):
    """An `oracle` over `family` projected onto `sample`, as a run takes one."""
    return oracle(family.project(sample), p_fn)


def run_drawn(run, config, family, rng, init_rng, p_fn=0.0):
    """`run` (`run_sight` or `run_rc`) on a sample of a0 nodes that
    `init_rng` draws from the whole universe before the initial test's
    noise draw, as a run's caller draws it."""
    s = sample(range(family.universe_size), config.a0, init_rng)
    return run(family.universe_size, config, oracle_over(family, s, p_fn), rng, init_rng)


def search_nodes(family, s, d, ledger, rng) -> int:
    """`bin_search` for the least m with d + s[:m] defective, given as
    nodes: the oracle is over s + d, bit i for s[i], bit len(s) + j for d[j]."""
    s, d = list(s), list(d)
    return bin_search(len(s), mask_of(s + d, d), oracle_over(family, s + d), ledger, rng)


def brute_is_antichain(planted) -> bool:
    """Pairwise subset test over all ordered pairs of distinct sets."""
    sets = [set(p) for p in planted]
    for i, a in enumerate(sets):
        for j, b in enumerate(sets):
            if i != j and a <= b:
                return False
    return True


def make_family(universe_size, planted, seed=None) -> PlantedFamily:
    """Family from explicit sets (canonicalized, antichain-checked)."""
    canon = tuple(tuple(sorted(p)) for p in planted)
    assert brute_is_antichain(canon), "test construction must be an antichain"
    return PlantedFamily(universe_size=universe_size, planted=canon, seed=seed)


def random_antichain_family(rng: random.Random, universe_size, max_sets=20,
                            sizes=(2, 3, 4)) -> PlantedFamily:
    """Small random antichain family built by rejection, for property tests."""
    chosen: list[tuple[int, ...]] = []
    for _ in range(rng.randrange(max_sets + 1)):
        k = rng.choice(sizes)
        if k > universe_size:
            continue
        cand = tuple(sorted(rng.sample(range(universe_size), k)))
        sets = [set(p) for p in chosen]
        c = set(cand)
        if any(p <= c or c <= p for p in sets):
            continue
        chosen.append(cand)
    return make_family(universe_size, chosen)


@pytest.fixture
def pyrandom():
    return random.Random(0xC0FFEE)


def all_subsets(nodes, k_min, k_max):
    for k in range(k_min, k_max + 1):
        yield from combinations(sorted(nodes), k)


# Initial samples of a0 = 8 over 40 nodes that a run must reject. Each
# once read as a sample holding the planted pair {1, 32}: floats and
# bools were coerced by int(), and a repeated node was charged as if the
# sample had a0 distinct members. A node too large for int64 once raised
# OverflowError in a whole-family query.
MALFORMED_SAMPLES = {
    "float": [1.9, 2.2, 1.0, 32.0, 5.0, 6.0, 7.0, 8.0],
    "bool": [True, 32, 2, 3, 4, 5, 6, 7],
    "repeat": [1] * 7 + [32],
    "negative": [-1, 1, 32, 3, 4, 5, 6, 7],
    "too-large": [40, 1, 32, 3, 4, 5, 6, 7],
    "beyond-int64": [2**64, 1, 32, 3, 4, 5, 6, 7],
}
