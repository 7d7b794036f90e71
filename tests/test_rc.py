"""Stochastic sampler: reduction schedule, final search, full runs."""

import random

import numpy as np
import pytest

from groupsight import (
    Oracle,
    ROLE_INIT,
    ROLE_RC,
    RcConfig,
    RunOutcome,
    ValidationError,
    bottom_up_rc,
    build_schedule,
    generate_family,
    rc_max_positive,
    rc_max_tests,
    run_rc,
    sample,
    spawn_generator,
)
from groupsight import TestLedger as Ledger

from conftest import (
    MALFORMED_SAMPLES,
    bits_of,
    make_family,
    oracle_over,
    random_antichain_family,
    run_drawn,
)


def rngs(seed, j=0):
    return (
        spawn_generator(seed, 0, j, ROLE_RC),
        spawn_generator(seed, 0, j, ROLE_INIT),
    )


class TestBuildSchedule:
    def test_large_start_halves_then_slows(self):
        # Halving applies while sizes exceed 20; the slower 1.5 divisor
        # takes over below, and generation stops above k_max.
        assert build_schedule(176, 4) == (176, 88, 44, 22, 11, 8, 6)

    def test_small_start_uses_slow_divisor_throughout(self):
        assert build_schedule(16, 4) == (16, 11, 8, 6)

    def test_first_reduction_already_too_small(self):
        assert build_schedule(5, 4) == (5,)

    def test_rejects_start_at_or_below_k_max(self):
        with pytest.raises(ValidationError):
            build_schedule(4, 4)

    @pytest.mark.parametrize("k_max", [1, 0, -3])
    def test_rejects_k_max_below_two(self, k_max):
        # A size of 2 divided by 1.5 rounds up to 2 again, so the schedule
        # would never end.
        with pytest.raises(ValidationError, match="k_max"):
            build_schedule(10, k_max)

    @pytest.mark.parametrize("a0", [3, 5, 8, 16, 21, 48, 80, 112, 144, 176, 500])
    @pytest.mark.parametrize("k_max", [2, 3, 4, 7])
    def test_schedules_decrease_strictly_and_end_above_k_max(self, a0, k_max):
        if a0 <= k_max:
            return
        sizes = build_schedule(a0, k_max)
        assert sizes[0] == a0
        assert all(b < a for a, b in zip(sizes, sizes[1:]))
        assert all(s > k_max for s in sizes)
        # One more reduction would land at or below k_max.
        last = sizes[-1]
        nxt = (last + 1) // 2 if last > 20 else -(-last * 2 // 3)
        assert nxt <= k_max


class TestBottomUpRc:
    def test_returns_planted_pair_within_enumeration_budget(self):
        fam = make_family(10, [{2, 4}])
        ledger = Ledger()
        s = [0, 2, 4, 6, 8]
        out = bottom_up_rc(bits_of(s), 2, 4, oracle_over(fam, s), ledger, rngs(1)[0])
        assert out == (2, 4)
        assert ledger.positives == 1
        assert ledger.negatives <= 9  # C(5,2) - 1

    def test_no_small_enough_subset_exhausts_all_tiers(self):
        fam = make_family(10, [{0, 1, 2, 3, 4}])
        ledger = Ledger()
        s = [0, 1, 2, 3, 4]
        out = bottom_up_rc(bits_of(s), 2, 4, oracle_over(fam, s), ledger, rngs(2)[0])
        assert out is None
        assert (ledger.positives, ledger.negatives) == (0, 25)  # sum C(5,k), k=2..4

    def test_single_candidate_of_size_k_min(self):
        fam = make_family(10, [{3, 5}])
        ledger = Ledger()
        s = [3, 5]
        out = bottom_up_rc(bits_of(s), 2, 4, oracle_over(fam, s), ledger, rngs(3)[0])
        assert out == (3, 5)
        assert (ledger.positives, ledger.negatives) == (1, 0)


class TestRunRc:
    def test_empty_family_aborts_on_initial_test(self):
        fam = generate_family(20, {}, seed=0)
        rng, init = rngs(4)
        res = run_drawn(run_rc, RcConfig(a0=8), fam, rng, init)
        assert res.outcome is RunOutcome.ABORT_INITIAL
        assert (res.ledger.positives, res.ledger.negatives) == (0, 1)
        assert res.abort_step is None

    def test_exhausted_attempts_abort_with_step_index(self):
        # Single planted pair; t_max=1 gives one shot at the first
        # reduction, and this seed's draw misses the pair.
        fam = make_family(6, [{0, 1}])
        cfg = RcConfig(a0=5, k_min=2, k_max=2, t_max=1)
        res = run_rc(
            6, cfg, oracle_over(fam, [0, 1, 2, 3, 4]), spawn_generator(0, ROLE_RC),
            spawn_generator(0, ROLE_INIT),
        )
        assert res.outcome is RunOutcome.ABORT_AT_STEP
        assert res.abort_step == 1
        assert (res.ledger.positives, res.ledger.negatives) == (1, 1)

    def test_unique_pair_is_found_within_positive_budget(self):
        fam = make_family(9, [{0, 1}])
        cfg = RcConfig(a0=8, k_min=2, k_max=4, t_max=20)
        res = run_rc(
            9, cfg, oracle_over(fam, [0, 1, 2, 3, 4, 5, 6, 7]), spawn_generator(3, ROLE_RC),
            spawn_generator(3, ROLE_INIT),
        )
        assert res.outcome is RunOutcome.FOUND
        assert res.found == (0, 1)
        assert res.ledger.positives <= rc_max_positive(len(build_schedule(8, 4)))

    def test_found_set_is_subset_of_initial_sample(self):
        fam = generate_family(60, {2: 15, 3: 10}, seed=5)
        cfg = RcConfig(a0=24, k_min=2, k_max=4)
        initial = list(range(24))
        oracle = oracle_over(fam, initial)
        for j in range(60):
            res = run_rc(
                60, cfg, oracle, spawn_generator(6, 0, j, ROLE_RC),
                spawn_generator(6, 0, j, ROLE_INIT),
            )
            if res.outcome is RunOutcome.FOUND:
                assert set(res.found) <= set(initial)
                assert 2 <= len(res.found) <= 4

    @pytest.mark.parametrize("initial", MALFORMED_SAMPLES.values(),
                             ids=MALFORMED_SAMPLES.keys())
    def test_malformed_initial_sample_rejected(self, initial):
        fam = make_family(40, [{1, 32}])
        rng, init = rngs(8)
        with pytest.raises(ValidationError):
            run_rc(40, RcConfig(a0=8, k_min=2, k_max=4), oracle_over(fam, initial),
                   rng, init)

    def test_numpy_initial_sample_runs_as_ints(self):
        fam = make_family(40, [{1, 32}])
        initial = [0, 1, 2, 3, 4, 5, 6, 32]
        runs = []
        for nodes in (initial, np.array(initial, dtype=np.int64)):
            rng, init = rngs(9)
            runs.append(run_rc(40, RcConfig(a0=8, k_min=2, k_max=4),
                               oracle_over(fam, nodes), rng, init))
        assert runs[0] == runs[1]
        assert runs[1].found == (1, 32)
        assert all(type(v) is int for v in runs[1].found)

    def test_accepted_reductions_form_a_strict_subset_chain(self):
        from test_sight import RecordingOracle

        fam = generate_family(60, {2: 15, 3: 10}, seed=5)
        cfg = RcConfig(a0=24, k_min=2, k_max=4)
        schedule = build_schedule(24, 4)
        chains_seen = 0
        for j in range(60):
            init = spawn_generator(16, 0, j, ROLE_INIT)
            oracle = oracle_over(fam, sample(range(60), 24, init), oracle=RecordingOracle)
            res = run_rc(60, cfg, oracle, spawn_generator(16, 0, j, ROLE_RC), init)
            assert len(oracle.log) == res.ledger.total
            if res.outcome is not RunOutcome.FOUND:
                continue
            # The accepted set at each reduction size is the first
            # positive query of that size; sizes walk the schedule.
            positives = [nodes for nodes, result in oracle.log if result]
            chain = [positives[0]]
            for a_i in schedule[1:]:
                accepted = next(p for p in positives if len(p) == a_i)
                assert accepted < chain[-1]
                chain.append(accepted)
            assert frozenset(res.found) <= chain[-1]
            chains_seen += 1
        assert chains_seen > 10

    def test_no_minimal_subset_in_final_set_aborts(self):
        # Only a 5-set is planted; every bottom-up tier misses it.
        fam = make_family(9, [{0, 1, 2, 3, 4}])
        cfg = RcConfig(a0=8, k_min=2, k_max=4, t_max=50)
        oracle = oracle_over(fam, [0, 1, 2, 3, 4, 5, 6, 7])
        outcomes = set()
        for j in range(40):
            res = run_rc(
                9, cfg, oracle, spawn_generator(7, 0, j, ROLE_RC),
                spawn_generator(7, 0, j, ROLE_INIT),
            )
            assert res.outcome is not RunOutcome.FOUND
            outcomes.add(res.outcome)
        assert RunOutcome.ABORT_NO_MINIMAL in outcomes

    def test_stochastic_runs_reach_different_planted_sets(self):
        fam = make_family(10, [{0, 1}, {2, 3}])
        cfg = RcConfig(a0=8, k_min=2, k_max=4)
        oracle = oracle_over(fam, [0, 1, 2, 3, 4, 5, 6, 7])
        found = set()
        for j in range(200):
            res = run_rc(
                10, cfg, oracle, spawn_generator(8, 0, j, ROLE_RC),
                spawn_generator(8, 0, j, ROLE_INIT),
            )
            if res.outcome is RunOutcome.FOUND:
                found.add(res.found)
        assert found >= {(0, 1), (2, 3)}

    def test_determinism_same_streams_same_result(self):
        fam = generate_family(40, {2: 6, 3: 4, 5: 3}, seed=21)
        for j in range(20):
            runs = [
                run_drawn(
                    run_rc, RcConfig(a0=16), fam,
                    spawn_generator(9, 0, j, ROLE_RC),
                    spawn_generator(9, 0, j, ROLE_INIT), 0.1,
                )
                for _ in range(2)
            ]
            assert runs[0] == runs[1]

    def test_found_sets_are_planted_when_noise_free(self):
        pyrng = random.Random(555)
        found_something = 0
        for trial in range(150):
            n = pyrng.randrange(10, 30)
            fam = random_antichain_family(pyrng, n, max_sets=12)
            a0 = pyrng.randrange(5, n)
            res = run_drawn(
                run_rc, RcConfig(a0=a0, k_min=2, k_max=4), fam,
                spawn_generator(60, trial, ROLE_RC),
                spawn_generator(60, trial, ROLE_INIT),
            )
            if res.outcome is RunOutcome.FOUND:
                found_something += 1
                assert res.found in fam.planted
        assert found_something > 10

    def test_config_validation(self):
        # Each oracle is over a sample of a0 nodes, so only the config is at fault.
        fam = make_family(10, [{0, 1}])
        rng, init = rngs(0)
        for cfg in (RcConfig(a0=4, k_min=2, k_max=4), RcConfig(a0=8, t_max=0)):
            with pytest.raises(ValidationError):
                run_rc(10, cfg, oracle_over(fam, list(range(cfg.a0))), rng, init)
        # A run takes its sample from the oracle's projection, of a0 nodes.
        with pytest.raises(ValidationError, match="projected"):
            run_rc(10, RcConfig(a0=8), Oracle(fam), rng, init)
        with pytest.raises(ValidationError, match="a0"):
            run_rc(10, RcConfig(a0=8), oracle_over(fam, list(range(9))), rng, init)

    @pytest.mark.parametrize("p_fn", [0.0, 0.05])
    @pytest.mark.parametrize("a0,k_max", [(8, 2), (16, 3), (48, 4)])
    def test_ledger_bounds_over_randomized_runs(self, a0, k_max, p_fn):
        fam = generate_family(64, {2: 10, 3: 12, 4: 14, 5: 16, 6: 10}, seed=33)
        cfg = RcConfig(a0=a0, k_min=2, k_max=k_max, t_max=20)
        schedule = build_schedule(a0, k_max)
        total_bound = rc_max_tests(schedule, cfg.t_max, 2, k_max)
        pos_bound = rc_max_positive(len(schedule))
        for j in range(300):
            res = run_drawn(
                run_rc, cfg, fam,
                spawn_generator(61, a0, j, ROLE_RC),
                spawn_generator(61, a0, j, ROLE_INIT), p_fn,
            )
            assert res.ledger.total <= total_bound
            assert res.ledger.positives <= pos_bound
