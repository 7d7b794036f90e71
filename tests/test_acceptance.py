"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints one `ACCEPTANCE <n>: PASS|FAIL` line (run pytest with -s
or -v to see them live). The directional-reproduction experiment (shared
by criteria 4, 5, and 6) is a session fixture: a planted family over
1,000 nodes with equal counts of minimal 2/3/4-sets plus a large tier of
minimal 5-sets, whose prevalence inside samples grows steeply with the
initial set size and drives mid-run aborts.
"""

import hashlib
import math
import os
import random
import time
from itertools import combinations

import numpy as np
import pytest

from groupsight import (
    ExperimentConfig,
    Oracle,
    RcConfig,
    ROLE_INIT,
    ROLE_RC,
    ROLE_SIGHT,
    RunOutcome,
    SightConfig,
    build_schedule,
    expected_planted_count,
    generate_family,
    mann_whitney_u,
    ratio_monotone_check,
    rc_max_positive,
    rc_max_tests,
    run_experiment,
    run_rc,
    run_sight,
    sample,
    sight_max_positive,
    sight_max_tests,
    spawn_generator,
)
from groupsight import TestLedger as Ledger
from groupsight.cli import main as cli_main
from groupsight.oracle import _draw_sets
from groupsight.rng import reset_generator, stream_keys

from conftest import (
    brute_least_defective_prefix,
    oracle_over,
    random_antichain_family,
    search_nodes,
)

A0_GRID = (16, 48, 80, 112, 144, 176)
LARGEST_FOUR = A0_GRID[2:]


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="session")
def comparison():
    """Criterion 4's experiment, shared with criteria 5 and 6."""
    family = generate_family(
        1000, {2: 400, 3: 400, 4: 400, 5: 300_000}, seed=20250810
    )
    config = ExperimentConfig(
        a0_grid=A0_GRID,
        runs_per_cell=5000,
        k_min=2,
        k_max=4,
        t_max=20,
        p_fn=0.01,
        master_seed=1,
        # Results do not depend on the thread count (criterion 9).
        threads=2 if len(os.sched_getaffinity(0)) >= 2 else 1,
    )
    start = time.monotonic()
    result = run_experiment(family, config)
    elapsed = time.monotonic() - start
    print(f"[comparison experiment: {6 * 5000} paired runs in {elapsed:.0f}s]")
    return family, config, result


# SHA-256 of repr(planted) of the comparison family. Its 300,000-set
# tier is drawn in many batches, so this pins the batched draw to the
# stream of one `choice` call per candidate.
COMPARISON_FAMILY_SHA256 = (
    "c8201972bb1b68bfa79417aabe32888b87e01e6d03114d7a8fa8319b6e76f2c6"
)


def test_comparison_family_digest(comparison):
    family, _, _ = comparison
    digest = hashlib.sha256(repr(family.planted).encode()).hexdigest()
    assert digest == COMPARISON_FAMILY_SHA256


def cell_summaries(result):
    return {(s.algorithm, s.a0): s for s in result.summaries}


def test_criterion_1_bound_compliance():
    """Eqs for max tests / max positive tests: zero violations."""
    family = generate_family(
        256, {2: 60, 3: 80, 4: 100, 5: 120, 6: 80}, seed=11
    )
    runs_per_combo = 2100
    init, sight_rng, rc_rng = (np.random.Generator(np.random.Philox(key=0)) for _ in range(3))
    start = time.monotonic()
    total_runs = 0
    violations = 0
    for a0 in (8, 16, 48, 176):
        for k_max in (2, 3, 4):
            schedule = build_schedule(a0, k_max)
            s_bound = sight_max_tests(a0, 2, k_max)
            s_pos_bound = sight_max_positive(a0, k_max)
            r_bound = rc_max_tests(schedule, 20, 2, k_max)
            r_pos_bound = rc_max_positive(len(schedule))
            for p_fn in (0.0, 0.05):
                scfg = SightConfig(a0=a0, k_min=2, k_max=k_max)
                rcfg = RcConfig(a0=a0, k_min=2, k_max=k_max, t_max=20)
                key = a0 * 1000 + k_max * 10 + int(p_fn * 100)
                # The keys of substreams (70, key, j, role) for every run j,
                # each run resetting the same three generators to its own.
                init_keys, sight_keys, rc_keys = (
                    stream_keys(70, key, np.arange(runs_per_combo), role).tolist()
                    for role in (ROLE_INIT, ROLE_SIGHT, ROLE_RC)
                )
                for j in range(runs_per_combo):
                    # Every query is a subset of s, so the projection answers
                    # as the whole family would. Each sampler's INIT stream
                    # is left where its own draw of s would leave it.
                    reset_generator(init, init_keys[j])
                    s = sample(range(256), a0, init)
                    oracle = Oracle(family.project(s), p_fn)
                    reset_generator(sight_rng, sight_keys[j])
                    sres = run_sight(256, scfg, oracle, sight_rng, init)
                    reset_generator(init, init_keys[j])
                    sample(range(256), a0, init)
                    reset_generator(rc_rng, rc_keys[j])
                    rres = run_rc(256, rcfg, oracle, rc_rng, init)
                    total_runs += 2
                    if sres.ledger.total > s_bound:
                        violations += 1
                    if sres.positives_pre_bottom_up > s_pos_bound:
                        violations += 1
                    if rres.ledger.total > r_bound:
                        violations += 1
                    if rres.ledger.positives > r_pos_bound:
                        violations += 1
    elapsed = time.monotonic() - start
    report(
        1,
        total_runs >= 100_000 and violations == 0,
        f"{total_runs} runs, {violations} bound violations, {elapsed:.0f}s "
        f"(target 120s)",
    )


def test_criterion_2_minimality_oracle():
    """Noise-free finds of both algorithms are exactly planted sets."""
    pyrng = random.Random(20250811)
    families = 0
    finds = 0
    exceptions = 0
    while families < 1000:
        n = pyrng.randrange(8, 31)
        fam = random_antichain_family(pyrng, n, max_sets=20, sizes=(2, 3, 4, 5))
        families += 1
        a0 = pyrng.randrange(5, n)
        for j in range(3):
            for runner, cfg, role in (
                (run_sight, SightConfig(a0=a0, k_min=2, k_max=4), ROLE_SIGHT),
                (run_rc, RcConfig(a0=a0, k_min=2, k_max=4), ROLE_RC),
            ):
                # Every query is a subset of s, so the projection answers
                # as the whole family would.
                init = spawn_generator(71, families, j, ROLE_INIT)
                s = sample(range(n), a0, init)
                res = runner(
                    n, cfg, oracle_over(fam, s), spawn_generator(71, families, j, role), init,
                )
                if res.outcome is RunOutcome.FOUND:
                    finds += 1
                    if res.found not in fam.planted:
                        exceptions += 1
    report(
        2,
        exceptions == 0 and finds > 500,
        f"{families} families, {finds} finds, {exceptions} non-planted results",
    )


def test_criterion_3_binsearch_matches_brute_force():
    """The search over masks returns the least defective prefix that a
    brute force over nodes finds, within the log budget."""
    pyrng = random.Random(424242)
    rng = spawn_generator(72, 0)
    instances = 0
    mismatches = 0
    budget_violations = 0
    while instances < 10_000:
        n = pyrng.randrange(4, 13)
        fam = random_antichain_family(pyrng, n, max_sets=8, sizes=(2, 3, 4))
        if not fam.planted:
            continue
        universe = list(range(n))
        pyrng.shuffle(universe)
        d_size = pyrng.randrange(0, 3)
        d, rest = universe[:d_size], universe[d_size:]
        s = rest[: pyrng.randrange(1, len(rest) + 1)]
        expected = brute_least_defective_prefix(fam.planted, d, s)
        if expected is None:
            continue
        ledger = Ledger()
        got = search_nodes(fam, s, d, ledger, rng)
        instances += 1
        if got != expected:
            mismatches += 1
        budget = math.ceil(math.log2(len(s))) if len(s) > 1 else 0
        if ledger.total > budget:
            budget_violations += 1
    report(
        3,
        mismatches == 0 and budget_violations == 0,
        f"{instances} instances, {mismatches} mismatches, "
        f"{budget_violations} over test budget",
    )


def test_criterion_4_directional_reproduction(comparison):
    """Total tests favor the deterministic sampler; positive tests the
    stochastic one; the cost ratio decides the winner."""
    _, config, result = comparison
    by = cell_summaries(result)
    problems = []

    init48 = by[("sight", 48)].init_fail_rate
    if not 0.30 < init48 < 0.95:
        problems.append(f"init-fail(48)={init48:.3f} outside (0.30,0.95)")

    for a0 in A0_GRID:
        s, r = by[("sight", a0)], by[("rc", a0)]
        if s.med_total is not None and r.med_total is not None:
            if s.med_total > r.med_total:
                problems.append(f"(a) med_total {s.med_total}>{r.med_total} @ {a0}")
    for a0 in LARGEST_FOUR:
        s, r = by[("sight", a0)], by[("rc", a0)]
        if s.p_total is None or s.p_total >= 0.05:
            problems.append(f"(a) p_total={s.p_total} @ {a0}")
        if s.med_pos is None or r.med_pos is None or not r.med_pos < s.med_pos:
            problems.append(f"(b) med_pos rc={r.med_pos} sight={s.med_pos} @ {a0}")
        if s.p_pos is None or s.p_pos >= 0.05:
            problems.append(f"(b) p_pos={s.p_pos} @ {a0}")

    cheap_rho = sum(
        1
        for a0 in A0_GRID
        if by[("sight", a0)].costs
        and by[("rc", a0)].costs
        and by[("sight", a0)].costs[1.0] < by[("rc", a0)].costs[1.0]
    )
    costly_rho = sum(
        1
        for a0 in A0_GRID
        if by[("sight", a0)].costs
        and by[("rc", a0)].costs
        and by[("rc", a0)].costs[100.0] < by[("sight", a0)].costs[100.0]
    )
    if cheap_rho < 4:
        problems.append(f"(c) sight cheaper at rho=1 in only {cheap_rho}/6 cells")
    if costly_rho < 4:
        problems.append(f"(c) rc cheaper at rho=100 in only {costly_rho}/6 cells")

    report(
        4,
        not problems,
        problems or f"init_fail(48)={init48:.3f}; rho=1 sight {cheap_rho}/6; "
        f"rho=100 rc {costly_rho}/6",
    )


def test_criterion_5_found_size_bias(comparison):
    """Smaller minimal sets are found disproportionately often."""
    _, _, result = comparison
    problems = []
    checked = 0
    for summary in result.summaries:
        if summary.finds >= 200:
            checked += 1
            p2 = summary.k_proportions.get(2, 0.0)
            p3 = summary.k_proportions.get(3, 0.0)
            p4 = summary.k_proportions.get(4, 0.0)
            if not (p2 > p3 > p4):
                problems.append(
                    f"{summary.algorithm}@{summary.a0}: "
                    f"p2={p2:.3f} p3={p3:.4f} p4={p4:.4f}"
                )
    report(
        5,
        not problems and checked > 0,
        problems or f"p2>p3>p4 in all {checked} cells with >=200 finds",
    )


def test_criterion_6_failure_rate_monotonicity(comparison):
    """Initial failures fall with a0; mid-run aborts rise with a0."""
    _, config, result = comparison
    problems = []
    details = []
    for alg in ("sight", "rc"):
        init_rates = []
        mid = []
        for a0 in A0_GRID:
            runs = [getattr(p, alg) for p in result.cells[a0]]
            init = sum(1 for r in runs if r.outcome is RunOutcome.ABORT_INITIAL)
            mid_aborts = sum(
                1
                for r in runs
                if not r.is_find and r.outcome is not RunOutcome.ABORT_INITIAL
            )
            conditioned = len(runs) - init
            init_rates.append(init / len(runs))
            mid.append((mid_aborts / conditioned if conditioned else 0.0, conditioned))
        if any(b > a for a, b in zip(init_rates, init_rates[1:])):
            problems.append(f"{alg} initial-failure not nonincreasing: {init_rates}")
        dips = []
        for i in range(len(mid) - 1):
            (r1, n1), (r2, n2) = mid[i], mid[i + 1]
            diff = r2 - r1
            if diff < 0:
                se = math.sqrt(r1 * (1 - r1) / n1 + r2 * (1 - r2) / n2)
                dips.append((A0_GRID[i + 1], diff, abs(diff) <= 2 * se))
        if len(dips) > 1:
            problems.append(f"{alg} {len(dips)} adjacent abort-rate dips: {dips}")
        elif any(not within for _, _, within in dips):
            problems.append(f"{alg} abort-rate dip beyond 2 SE: {dips}")
        details.append(f"{alg} mid rates {[round(r, 4) for r, _ in mid]}")

    # Shared initial samples and shared initial-test noise make the
    # initial-failure rate identical between algorithms by construction.
    for a0 in A0_GRID:
        s_init = sum(
            1 for p in result.cells[a0]
            if p.sight.outcome is RunOutcome.ABORT_INITIAL
        )
        r_init = sum(
            1 for p in result.cells[a0]
            if p.rc.outcome is RunOutcome.ABORT_INITIAL
        )
        if s_init != r_init:
            problems.append(f"initial-failure differs between algorithms @ {a0}")

    report(6, not problems, problems or "; ".join(details))


def test_criterion_7_subset_ratio_theorem():
    """Expected-count growth theorem plus Monte Carlo agreement."""
    pyrng = random.Random(20250812)
    failures = 0
    for _ in range(10_000):
        n = pyrng.randrange(4, 300)
        k = pyrng.randrange(2, min(8, n - 2) + 1)
        m = pyrng.randrange(k + 1, n)
        c = pyrng.randrange(1, n - m + 1)
        omega_k = pyrng.randrange(1, 10**6)
        omega_k1 = pyrng.randrange(1, 10**6)
        if not ratio_monotone_check(n, m, c, k, omega_k, omega_k1):
            failures += 1

    draws = 50_000
    mc_failures = []
    for fam_idx in range(20):
        pyr = random.Random(900 + fam_idx)
        n = pyr.randrange(10, 25)
        # Node-disjoint planted sets: inclusion counts are then negatively
        # correlated, so the binomial band is conservative.
        nodes = list(range(n))
        pyr.shuffle(nodes)
        planted = []
        pos = 0
        for _ in range(pyr.randrange(2, 5)):
            k = pyr.choice((2, 3))
            if pos + k > n:
                break
            planted.append(nodes[pos:pos + k])
            pos += k
        from conftest import make_family

        fam = make_family(n, planted)
        m = pyr.randrange(max(4, n // 2), n)
        rng = spawn_generator(73, fam_idx)
        # Row i marks the nodes of draw i, which `_draw_sets` takes from the
        # stream as the i-th of `draws` calls `sample(range(n), m, rng)`
        # would; a planted set lies inside the draws whose row holds all
        # its nodes.
        drawn = np.zeros((draws, n), dtype=bool)
        np.put_along_axis(drawn, _draw_sets(rng, n, m, draws), True, axis=1)
        totals = {k: 0 for k in fam.counts_by_k}
        for p in fam.planted:
            totals[len(p)] += int(drawn[:, list(p)].all(axis=1).sum())
        for k, omega in fam.counts_by_k.items():
            expected = float(expected_planted_count(n, m, k, omega))
            mean = totals[k] / draws
            q = math.comb(m, k) / math.comb(n, k)
            se = math.sqrt(max(omega * q * (1 - q), 1e-12) / draws)
            if abs(mean - expected) > 3 * se:
                mc_failures.append(
                    f"family {fam_idx} k={k}: mean={mean:.4f} expected={expected:.4f}"
                )
    report(
        7,
        failures == 0 and not mc_failures,
        mc_failures or f"theorem held on 10000 tuples; "
        f"MC means within 3 SE on 20 families x {draws} draws",
    )


def test_criterion_8_mann_whitney_agreement():
    """Exact enumeration vs normal approximation, and the 1/3 case."""
    res = mann_whitney_u([1, 2], [3, 4])
    exact_third = res.p_value == 1 / 3 and res.method == "exact"

    pyrng = random.Random(77)
    worst = 0.0
    for _ in range(50):
        values = pyrng.sample(range(100_000), 20)
        x, y = values[:10], values[10:]
        p_exact = mann_whitney_u(x, y, method="exact").p_value
        p_normal = mann_whitney_u(x, y, method="normal").p_value
        worst = max(worst, abs(p_exact - p_normal))
    report(
        8,
        exact_third and worst <= 0.02,
        f"p({{1,2}},{{3,4}})={res.p_value:.6f}; max |exact-normal| = {worst:.4f}",
    )


def test_criterion_9_cli_determinism(tmp_path):
    """Byte-identical outputs for identical config, at any thread count."""
    fam_path = tmp_path / "family.json"
    assert cli_main([
        "generate", "--n", "120", "--k2", "25", "--k3", "15", "--k5", "12",
        "--seed", "5", "-o", str(fam_path),
    ]) == 0
    outputs = []
    for name, threads in (("t1", "1"), ("t1b", "1"), ("t3", "3")):
        out = tmp_path / name
        code = cli_main([
            "run", "--family", str(fam_path), "--a0", "12,24", "--runs", "400",
            "--kmin", "2", "--kmax", "4", "--tmax", "20", "--pfn", "0.02",
            "--seed", "31337", "--threads", threads, "--label", "det",
            "-o", str(out),
        ])
        assert code == 0
        outputs.append(
            ((out / "runs.jsonl").read_bytes(), (out / "summary.csv").read_bytes())
        )
    identical = outputs[0] == outputs[1] == outputs[2]
    recomputed = tmp_path / "summary_again.csv"
    assert cli_main([
        "stats", "--log", str(tmp_path / "t1" / "runs.jsonl"), "--label", "det",
        "-o", str(recomputed),
    ]) == 0
    stats_match = recomputed.read_bytes() == outputs[0][1]
    report(
        9,
        identical and stats_match,
        f"rerun identical={identical}, thread-count invariant, "
        f"stats recompute identical={stats_match}",
    )
