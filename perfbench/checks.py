"""Checks of a workload's outputs against the benchmark's own computations.

Nothing here calls into groupsight: containment uses a lookup built from
the planted tuples, the worst-case bounds and the reduction schedule are
recomputed from the paper's formulas, the amortization fold is redone
from the run records, and Mann-Whitney p-values come from scipy.

A run record is a dict with the keys `algorithm`, `a0`, `pair`,
`outcome`, `found` (a tuple or None), `positives` and `negatives`. A
summary row is a dict with `algorithm`, `a0`, `finds`, `med_pos`,
`med_neg`, `med_total`, `p_total`, `p_pos` and `p_neg`. Every checker
returns a list of error strings; an empty list means the check passed.
"""

from __future__ import annotations

import math
from itertools import combinations
from math import comb

import numpy as np

FOUND = "Found"
ABORT_INITIAL = "AbortInitial"
P_TOLERANCE = 1e-9


def _codes(rows: np.ndarray, base: int) -> np.ndarray:
    """One integer per row: the row read as digits in `base`."""
    codes = np.zeros(len(rows), dtype=np.int64)
    for col in range(rows.shape[1]):
        codes = codes * base + rows[:, col]
    return codes


def check_family(planted, universe_size: int, counts: dict[int, int]) -> list[str]:
    """Requested counts, members in range and ascending, distinct, antichain."""
    by_k: dict[int, list] = {}
    for p in planted:
        by_k.setdefault(len(p), []).append(tuple(p))
    got = {k: len(v) for k, v in sorted(by_k.items())}
    want = {k: c for k, c in sorted(counts.items()) if c}
    if got != want:
        return [f"family counts {got} differ from the requested {want}"]
    if universe_size ** max(by_k, default=1) >= 2**62:
        raise ValueError("family too wide for int64 set codes")
    errors = []
    tiers: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for k, sets in by_k.items():
        rows = np.asarray(sets, dtype=np.int64)
        if rows.min() < 0 or rows.max() >= universe_size:
            errors.append(f"a planted {k}-set has a member outside [0, {universe_size})")
        if not (np.diff(rows, axis=1) > 0).all():
            errors.append(f"a planted {k}-set is not strictly ascending")
        codes = _codes(rows, universe_size)
        if len(np.unique(codes)) != len(codes):
            errors.append(f"the planted {k}-sets are not distinct")
        tiers[k] = (rows, codes)
    for m, (rows, _) in tiers.items():
        for j, (_, smaller) in tiers.items():
            if j >= m:
                continue
            for cols in combinations(range(m), j):
                hit = np.isin(_codes(rows[:, cols], universe_size), smaller)
                if hit.any():
                    bad = tuple(int(v) for v in rows[int(hit.argmax())])
                    errors.append(f"planted {bad} contains a planted {j}-set")
                    break
    return errors


def contains_planted(found, planted_set: set) -> bool:
    nodes = tuple(sorted(found))
    return any(
        sub in planted_set
        for k in range(2, len(nodes) + 1)
        for sub in combinations(nodes, k)
    )


def check_finds(records, planted_set: set, k_min: int, k_max: int,
                exact: bool) -> list[str]:
    """Every find is k_min..k_max nodes and contains (or, if `exact`, is) a planted set."""
    errors = []
    for r in records:
        found = r["found"]
        where = f"{r['algorithm']} a0={r['a0']} pair {r['pair']}"
        if (found is not None) != (r["outcome"] == FOUND):
            errors.append(f"{where}: outcome {r['outcome']} with found set {found}")
            continue
        if found is None:
            continue
        if not k_min <= len(found) <= k_max:
            errors.append(f"{where}: find {found} outside sizes {k_min}..{k_max}")
        elif exact and tuple(sorted(found)) not in planted_set:
            errors.append(f"{where}: find {found} is not a planted set")
        elif not contains_planted(found, planted_set):
            errors.append(f"{where}: find {found} contains no planted set")
    return errors


def ceil_log2(n: int) -> int:
    e = 0
    while (1 << e) < n:
        e += 1
    return e


def reduction_schedule(a0: int, k_max: int) -> list[int]:
    """Sizes a0 > a_1 > ... > a_L > k_max: halve above 20, then divide by 1.5."""
    sizes = [a0]
    while True:
        prev = sizes[-1]
        nxt = math.ceil(prev / 2) if prev > 20 else math.ceil(2 * prev / 3)
        if nxt <= k_max:
            return sizes
        sizes.append(nxt)


def sight_max_tests(a0: int, k_min: int, k_max: int) -> int:
    return k_max * ceil_log2(a0) + sum(comb(k_max, j) for j in range(k_min, k_max + 1)) + 1


def rc_max_tests_and_positives(a0: int, k_min: int, k_max: int, t_max: int) -> tuple[int, int]:
    sched = reduction_schedule(a0, k_max)
    length = len(sched)
    tests = 1 + (length - 1) * t_max + sum(comb(sched[-1], k) for k in range(k_min, k_max + 1))
    return tests, length + 1


def check_ledgers(records, k_min: int, k_max: int, t_max: int) -> list[str]:
    """Every run's tests within the paper's worst case for its algorithm."""
    errors = []
    for r in records:
        total = r["positives"] + r["negatives"]
        where = f"{r['algorithm']} a0={r['a0']} pair {r['pair']}"
        if r["algorithm"] == "sight":
            bound = sight_max_tests(r["a0"], k_min, k_max)
            if total > bound:
                errors.append(f"{where}: {total} tests exceed the bound {bound}")
        elif r["algorithm"] == "rc":
            bound, pos_bound = rc_max_tests_and_positives(r["a0"], k_min, k_max, t_max)
            if total > bound:
                errors.append(f"{where}: {total} tests exceed the bound {bound}")
            if r["positives"] > pos_bound:
                errors.append(f"{where}: {r['positives']} positives exceed the bound {pos_bound}")
        else:
            errors.append(f"{where}: unknown algorithm")
    return errors


def _pairs(records) -> dict:
    pairs: dict = {}
    for r in records:
        pairs.setdefault((r["a0"], r["pair"]), {})[r["algorithm"]] = r
    return pairs


def check_pairs(records) -> list[str]:
    """Each pair has both algorithms, and they agree on AbortInitial."""
    errors = []
    for (a0, pair), sides in sorted(_pairs(records).items()):
        if set(sides) != {"sight", "rc"}:
            errors.append(f"a0={a0} pair {pair}: sides {sorted(sides)}")
            continue
        aborts = [sides[alg]["outcome"] == ABORT_INITIAL for alg in ("sight", "rc")]
        if aborts[0] != aborts[1]:
            errors.append(f"a0={a0} pair {pair}: AbortInitial on one side only")
    return errors


def amortized_finds(records) -> dict[tuple[str, int], list[tuple[int, int]]]:
    """(algorithm, a0) -> (positives, negatives) per find, aborts folded into the next find."""
    by_cell: dict = {}
    for r in sorted(records, key=lambda r: r["pair"]):
        by_cell.setdefault((r["algorithm"], r["a0"]), []).append(r)
    out = {}
    for cell, runs in by_cell.items():
        finds, pos, neg = [], 0, 0
        for r in runs:
            pos += r["positives"]
            neg += r["negatives"]
            if r["outcome"] == FOUND:
                finds.append((pos, neg))
                pos = neg = 0
        out[cell] = finds
    return out


def mann_whitney_p(x, y):
    """Two-sided p: exact when tie-free with at most 20 values, else normal with corrections."""
    if not x or not y:
        return None
    from scipy.stats import mannwhitneyu

    pooled = list(x) + list(y)
    distinct = len(set(pooled))
    if distinct == 1:
        return 1.0
    method = "exact" if distinct == len(pooled) and len(pooled) <= 20 else "asymptotic"
    return float(mannwhitneyu(x, y, alternative="two-sided", use_continuity=True,
                              method=method).pvalue)


def _same(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return math.isclose(got, want, rel_tol=P_TOLERANCE, abs_tol=1e-12)


def check_summaries(records, summaries) -> list[str]:
    """Finds, amortized medians and Mann-Whitney p of each row, recomputed."""
    finds = amortized_finds(records)
    rows = {(s["algorithm"], s["a0"]): s for s in summaries}
    errors = []
    if set(rows) != set(finds):
        errors.append(f"summary cells {sorted(rows)} differ from run cells {sorted(finds)}")
    for (alg, a0), row in sorted(rows.items()):
        other = "rc" if alg == "sight" else "sight"
        mine, theirs = finds.get((alg, a0), []), finds.get((other, a0), [])
        where = f"summary {alg} a0={a0}"
        if row["finds"] != len(mine):
            errors.append(f"{where}: finds {row['finds']} != {len(mine)}")
        columns = {
            "pos": ([p for p, _ in mine], [p for p, _ in theirs]),
            "neg": ([n for _, n in mine], [n for _, n in theirs]),
            "total": ([p + n for p, n in mine], [p + n for p, n in theirs]),
        }
        for name, (x, y) in columns.items():
            median = float(np.median(x)) if x else None
            if not _same(row[f"med_{name}"], median):
                errors.append(f"{where}: med_{name} {row[f'med_{name}']} != {median}")
            p = mann_whitney_p(x, y)
            if not _same(row[f"p_{name}"], p):
                errors.append(f"{where}: p_{name} {row[f'p_{name}']} != scipy {p}")
    return errors
