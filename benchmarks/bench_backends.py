"""Benchmark: compiled subset-query kernel vs pure-Python fallback.

Times raw full-family queries under both backends, after verifying that
they return identical answers. Paired runs answer their queries from a
per-pair projection of the family and do not use either kernel. Run as:

    python benchmarks/bench_backends.py [--quick]
"""

from __future__ import annotations

import argparse
import random
import time

from groupsight import _kernel_py
from groupsight.oracle import generate_family, sample
from groupsight.rng import spawn_generator

try:
    from groupsight import _kernel
except ImportError:
    _kernel = None


def check_agreement(family, backends, queries=2000):
    pyrng = random.Random(1)
    indexes = {name: mod.FamilyIndex(family.universe_size, family.planted)
               for name, mod in backends.items()}
    for _ in range(queries):
        q = pyrng.sample(range(family.universe_size),
                         pyrng.randrange(1, family.universe_size // 2))
        answers = {name: idx.contains_defective(q) for name, idx in indexes.items()}
        if len(set(answers.values())) != 1:
            raise SystemExit(f"backend disagreement on {q}: {answers}")
    return indexes


def bench_queries(index, queries):
    start = time.perf_counter()
    hits = 0
    for q in queries:
        hits += index.contains_defective(q)
    elapsed = time.perf_counter() - start
    return elapsed, hits


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller family and fewer queries")
    args = parser.parse_args()

    if args.quick:
        counts, n, n_queries = {2: 100, 3: 100, 4: 100, 5: 20_000}, 500, 2000
    else:
        counts, n, n_queries = {2: 400, 3: 400, 4: 400, 5: 300_000}, 1000, 5000

    print(f"family: N={n}, counts={counts}")
    family = generate_family(n, counts, seed=20250810)

    backends = {"pure": _kernel_py}
    if _kernel is not None:
        backends["compiled"] = _kernel
    else:
        print("compiled kernel not built; benchmarking the fallback only")

    indexes = check_agreement(family, backends)
    print(f"agreement check passed ({len(backends)} backend(s))")

    rng = spawn_generator(5, 0)
    queries = [sample(range(n), 176, rng) for _ in range(n_queries)]
    results = {}
    for name, idx in indexes.items():
        elapsed, hits = bench_queries(idx, queries)
        results[name] = elapsed
        print(f"{name:>9}: {n_queries} queries of size 176 in {elapsed:.3f}s "
              f"({1e6 * elapsed / n_queries:.1f} us/query, {hits} defective)")
    if len(results) == 2:
        print(f"query speedup: {results['pure'] / results['compiled']:.1f}x")


if __name__ == "__main__":
    main()
