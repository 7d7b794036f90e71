"""Each checker rejects a hand-corrupted output and accepts the intact one.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

import checks

PLANTED = [(0, 1), (2, 3, 4), (5, 6, 7, 8)]
PLANTED_SET = set(PLANTED)


def rec(algorithm, pair, outcome, found, positives, negatives, a0=16):
    return {"algorithm": algorithm, "a0": a0, "pair": pair, "outcome": outcome,
            "found": found, "positives": positives, "negatives": negatives}


RECORDS = [
    rec("sight", 0, "Found", (0, 1), 3, 5),
    rec("rc", 0, "Found", (0, 1), 4, 20),
    rec("sight", 1, "AbortInitial", None, 0, 1),
    rec("rc", 1, "AbortInitial", None, 0, 1),
    rec("sight", 2, "Found", (2, 3, 4), 5, 7),
    rec("rc", 2, "AbortAtStep", None, 2, 30),
]

# Folded by hand: sight finds (3, 5) and (0+5, 1+7); rc finds (4, 20),
# its two later runs are an unattributed residue. Exact two-sided p of
# x=[8, 13] vs y=[24] is 2 * 1/3; of [3, 5] vs [4] it is 1.
SUMMARIES = [
    {"algorithm": "sight", "a0": 16, "finds": 2, "med_pos": 4.0, "med_neg": 6.5,
     "med_total": 10.5, "p_total": 2 / 3, "p_pos": 1.0, "p_neg": 2 / 3},
    {"algorithm": "rc", "a0": 16, "finds": 1, "med_pos": 4.0, "med_neg": 20.0,
     "med_total": 24.0, "p_total": 2 / 3, "p_pos": 1.0, "p_neg": 2 / 3},
]


def with_change(records, index, **changes):
    out = copy.deepcopy(records)
    out[index].update(changes)
    return out


def test_intact_outputs_pass_every_check():
    assert checks.check_family(PLANTED, 10, {2: 1, 3: 1, 4: 1}) == []
    assert checks.check_finds(RECORDS, PLANTED_SET, 2, 4, exact=True) == []
    assert checks.check_ledgers(RECORDS, 2, 4, 20) == []
    assert checks.check_pairs(RECORDS) == []
    assert checks.check_summaries(RECORDS, SUMMARIES) == []


def test_find_containing_no_planted_set_is_rejected():
    bad = with_change(RECORDS, 0, found=(0, 2, 3))
    assert checks.check_finds(bad, PLANTED_SET, 2, 4, exact=False)


def test_find_outside_size_window_is_rejected():
    bad = with_change(RECORDS, 0, found=(0, 1, 2, 3, 9))
    assert checks.check_finds(bad, PLANTED_SET, 2, 4, exact=False)


def test_sparse_find_that_is_not_planted_is_rejected():
    bad = with_change(RECORDS, 0, found=(0, 1, 9))
    assert checks.check_finds(bad, PLANTED_SET, 2, 4, exact=False) == []
    assert checks.check_finds(bad, PLANTED_SET, 2, 4, exact=True)


def test_find_without_found_outcome_is_rejected():
    bad = with_change(RECORDS, 5, found=(2, 3, 4))
    assert checks.check_finds(bad, PLANTED_SET, 2, 4, exact=False)


@pytest.mark.parametrize("a0", [16, 48, 176])
def test_sight_ledger_one_above_bound_is_rejected(a0):
    # k_max * ceil(log2 a0) + C(4,2) + C(4,3) + C(4,4) + 1
    bound = 4 * (a0 - 1).bit_length() + 6 + 4 + 1 + 1
    at = [rec("sight", 0, "AbortTooLarge", None, 0, bound, a0=a0)]
    assert checks.check_ledgers(at, 2, 4, 20) == []
    above = with_change(at, 0, negatives=bound + 1)
    assert checks.check_ledgers(above, 2, 4, 20)


def test_rc_ledger_one_above_bound_is_rejected():
    # a0=48: schedule 48, 24, 12, 8, 6 (L=5, a_L=6); 1 + 4*20 + 15+20+15
    bound = 1 + 4 * 20 + 15 + 20 + 15
    at = [rec("rc", 0, "AbortNoMinimal", None, 6, bound - 6, a0=48)]
    assert checks.reduction_schedule(48, 4) == [48, 24, 12, 8, 6]
    assert checks.check_ledgers(at, 2, 4, 20) == []
    assert checks.check_ledgers(with_change(at, 0, negatives=bound - 5), 2, 4, 20)


def test_rc_positives_above_schedule_length_plus_one_are_rejected():
    ok = [rec("rc", 0, "Found", (0, 1), 6, 10, a0=48)]
    assert checks.check_ledgers(ok, 2, 4, 20) == []
    assert checks.check_ledgers(with_change(ok, 0, positives=7), 2, 4, 20)


def test_abort_initial_on_one_side_only_is_rejected():
    bad = with_change(RECORDS, 3, outcome="AbortAtStep")
    assert checks.check_pairs(bad)


def test_pair_missing_a_side_is_rejected():
    assert checks.check_pairs(RECORDS[:-1])


@pytest.mark.parametrize("column,value", [
    ("med_pos", 4.5), ("med_neg", 6.0), ("med_total", 11.0), ("finds", 3),
    ("p_total", 2 / 3 + 1e-6), ("p_pos", 0.5), ("p_neg", None),
])
def test_corrupted_summary_value_is_rejected(column, value):
    bad = copy.deepcopy(SUMMARIES)
    bad[0][column] = value
    assert checks.check_summaries(RECORDS, bad)


def test_missing_summary_row_is_rejected():
    assert checks.check_summaries(RECORDS, SUMMARIES[:1])


@pytest.mark.parametrize("planted,counts", [
    ([(0, 1), (0, 1, 2)], {2: 1, 3: 1}),           # contains a smaller set
    ([(0, 1), (0, 1)], {2: 2}),                    # duplicate
    ([(0, 1), (2, 3)], {2: 1}),                    # wrong count
    ([(1, 0)], {2: 1}),                            # not ascending
    ([(0, 10)], {2: 1}),                           # out of range
])
def test_corrupted_family_is_rejected(planted, counts):
    assert checks.check_family(planted, 10, counts)


def test_real_run_passes_every_check():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    gs = pytest.importorskip("groupsight")
    counts = {2: 40, 3: 40, 4: 40}
    family = gs.generate_family(200, counts, 5)
    config = gs.ExperimentConfig(a0_grid=(16, 48), runs_per_cell=30, p_fn=0.0, master_seed=3)
    result = gs.run_experiment(family, config)
    records = [
        rec(r.algorithm, p.pair_id, r.outcome.value, r.found, r.ledger.positives,
            r.ledger.negatives, a0=a0)
        for a0 in config.a0_grid for p in result.cells[a0] for r in (p.sight, p.rc)
    ]
    summaries = [
        {"algorithm": s.algorithm, "a0": s.a0, "finds": s.finds, "med_pos": s.med_pos,
         "med_neg": s.med_neg, "med_total": s.med_total, "p_total": s.p_total,
         "p_pos": s.p_pos, "p_neg": s.p_neg}
        for s in result.summaries
    ]
    planted = set(family.planted)
    assert checks.check_family(family.planted, 200, counts) == []
    assert checks.check_finds(records, planted, 2, 4, exact=True) == []
    assert checks.check_ledgers(records, 2, 4, 20) == []
    assert checks.check_pairs(records) == []
    assert checks.check_summaries(records, summaries) == []
