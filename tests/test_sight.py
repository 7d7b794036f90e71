"""Deterministic sampler: binary search, minimality pass, full runs."""

import math
import random

import numpy as np
import pytest

from groupsight import (
    EmptySelectionError,
    Oracle,
    ROLE_INIT,
    ROLE_SIGHT,
    RunOutcome,
    SightConfig,
    ValidationError,
    bin_search,
    bottom_up_sight,
    generate_family,
    run_sight,
    sample,
    sight_max_positive,
    sight_max_tests,
    spawn_generator,
)
from groupsight import TestLedger as Ledger

from conftest import (
    MALFORMED_SAMPLES,
    bits_of,
    brute_least_defective_prefix,
    make_family,
    mask_of,
    nodes_of,
    oracle_over,
    random_antichain_family,
    run_drawn,
    search_nodes,
)


def rngs(seed, j=0):
    return (
        spawn_generator(seed, 0, j, ROLE_SIGHT),
        spawn_generator(seed, 0, j, ROLE_INIT),
    )


class RecordingOracle(Oracle):
    """Oracle over a family projected onto a run's sample that logs every
    charged test, a mask over that sample, decoded back to the node set
    it names, with its answer.
    """

    def __init__(self, family, p_fn=0.0):
        super().__init__(family, p_fn)
        object.__setattr__(self, "log", [])

    def is_defective(self, query, ledger, rng):
        result = super().is_defective(query, ledger, rng)
        self.log.append((nodes_of(self.family.nodes, query), result))
        return result


class TestBinSearch:
    def test_singleton_needs_no_tests(self):
        fam = make_family(9, [{0, 1}])
        ledger = Ledger()
        rng, _ = rngs(1)
        assert search_nodes(fam, [5], [0, 1], ledger, rng) == 1
        assert ledger.total == 0

    def test_pair_at_positions_two_and_five(self):
        # Probes prefixes of length 4 (negative), 6 (positive), 5 (positive).
        fam = make_family(9, [{1, 4}])
        s = [0, 1, 2, 3, 4, 5, 6, 7]
        ledger = Ledger()
        rng, _ = rngs(2)
        assert bin_search(len(s), 0, oracle_over(fam, s), ledger, rng) == 5
        assert (ledger.positives, ledger.negatives) == (2, 1)

    def test_accumulated_node_completing_first_element(self):
        fam = make_family(10, [{9, 0}])
        s = [0, 1, 2, 3, 4, 5, 6, 7]
        ledger = Ledger()
        rng, _ = rngs(3)
        assert search_nodes(fam, s, [9], ledger, rng) == 1

    def test_empty_list_raises(self):
        fam = make_family(4, [{0, 1}])
        with pytest.raises(EmptySelectionError):
            bin_search(0, 0, oracle_over(fam, []), Ledger(), rngs(4)[0])

    def test_matches_brute_force_least_prefix_and_log_test_budget(self):
        pyrng = random.Random(31337)
        rng, _ = rngs(5)
        checked = 0
        while checked < 500:
            n = pyrng.randrange(4, 13)
            fam = random_antichain_family(pyrng, n, max_sets=6)
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
            assert got == expected
            assert ledger.total <= math.ceil(math.log2(len(s))) if len(s) > 1 else ledger.total == 0
            checked += 1


class TestBottomUpSight:
    def test_accumulator_at_k_min_returns_itself_for_free(self):
        fam = make_family(10, [{3, 7}])
        ledger = Ledger()
        rng, _ = rngs(6)
        d = [7, 3]
        out = bottom_up_sight(bits_of(d), 2, 4, {}, oracle_over(fam, d), ledger, rng)
        assert out == (3, 7)
        assert ledger.total == 0

    def test_finds_planted_pair_inside_four_nodes(self):
        fam = make_family(10, [{1, 3}])
        ledger = Ledger()
        rng, _ = rngs(7)
        d = [0, 1, 2, 3]
        out = bottom_up_sight(bits_of(d), 2, 4, {}, oracle_over(fam, d), ledger, rng)
        assert out == (1, 3)
        assert ledger.total <= 6  # C(4,2)
        assert ledger.positives == 1

    def test_minimal_triple_returned_after_all_pairs_fail(self):
        fam = make_family(10, [{0, 1, 2}])
        ledger = Ledger()
        rng, _ = rngs(8)
        d = [0, 1, 2]
        out = bottom_up_sight(bits_of(d), 2, 4, {}, oracle_over(fam, d), ledger, rng)
        assert out == (0, 1, 2)
        assert (ledger.positives, ledger.negatives) == (0, 3)

    def test_registered_subsets_are_skipped_without_charge(self):
        fam = make_family(10, [{1, 3}])
        ledger = Ledger()
        rng, _ = rngs(9)
        d = [2, 0, 3, 1]
        tested = {mask_of(d, p): False for p in [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]}
        out = bottom_up_sight(bits_of(d), 2, 4, tested, oracle_over(fam, d), ledger, rng)
        assert out == (1, 3)
        assert ledger.total == 1  # only the one unregistered pair


class TestRunSight:
    def test_empty_family_aborts_on_initial_test(self):
        fam = generate_family(20, {}, seed=0)
        rng, init = rngs(10)
        res = run_drawn(run_sight, SightConfig(a0=8), fam, rng, init)
        assert res.outcome is RunOutcome.ABORT_INITIAL
        assert (res.ledger.positives, res.ledger.negatives) == (0, 1)
        assert res.found is None

    def test_hand_traced_run_with_pair_at_positions_two_and_five(self):
        # Initial test (+); first search: prefix-4 (-), prefix-6 (+),
        # prefix-5 (+); second search over the remaining 4: (+), (-);
        # accumulated pair (+); minimality pass tests nothing new.
        fam = make_family(9, [{1, 4}])
        rng, init = rngs(11)
        res = run_sight(
            9, SightConfig(a0=8, k_min=2, k_max=4),
            oracle_over(fam, [0, 1, 2, 3, 4, 5, 6, 7]), rng, init,
        )
        assert res.outcome is RunOutcome.FOUND
        assert res.found == (1, 4)
        assert (res.ledger.positives, res.ledger.negatives) == (5, 2)

    def test_accumulated_set_reuses_registered_answer(self):
        # Planted pair occupies the first two sample positions; its exact
        # node set was already tested inside the binary search, so the
        # accumulated-set test is answered from the registry for free.
        fam = make_family(9, [{0, 1}])
        rng, init = rngs(12)
        res = run_sight(
            9, SightConfig(a0=8, k_min=2, k_max=4),
            oracle_over(fam, [0, 1, 2, 3, 4, 5, 6, 7]), rng, init,
        )
        assert res.outcome is RunOutcome.FOUND
        assert res.found == (0, 1)
        assert (res.ledger.positives, res.ledger.negatives) == (3, 1)

    def test_only_a_too_large_set_aborts(self):
        fam = make_family(9, [{0, 1, 2, 3, 4}])
        rng, init = rngs(13)
        res = run_sight(
            9, SightConfig(a0=8, k_min=2, k_max=4),
            oracle_over(fam, [0, 1, 2, 3, 4, 5, 6, 7]), rng, init,
        )
        assert res.outcome is RunOutcome.ABORT_TOO_LARGE
        assert res.found is None

    def test_sample_exhausted_below_k_min_aborts(self):
        # With k_min=3 a planted pair drags the walk to an empty sample
        # before the accumulator is large enough to test.
        fam = make_family(9, [{0, 1}])
        rng, init = rngs(14)
        res = run_sight(
            9, SightConfig(a0=8, k_min=3, k_max=4),
            oracle_over(fam, [0, 1, 2, 3, 4, 5, 6, 7]), rng, init,
        )
        assert res.outcome is RunOutcome.ABORT_TOO_LARGE
        assert (res.ledger.positives, res.ledger.negatives) == (3, 1)

    def test_config_validation(self):
        # Each oracle is over a sample of a0 nodes, so only the config is at fault.
        fam = make_family(10, [{0, 1}])
        rng, init = rngs(15)
        for cfg in (SightConfig(a0=10), SightConfig(a0=3, k_min=2, k_max=4),
                    SightConfig(a0=8, k_min=1, k_max=2)):
            with pytest.raises(ValidationError):
                run_sight(10, cfg, oracle_over(fam, list(range(cfg.a0))), rng, init)
        # A run takes its sample from the oracle's projection, of a0 nodes.
        with pytest.raises(ValidationError, match="projected"):
            run_sight(10, SightConfig(a0=8), Oracle(fam), rng, init)
        with pytest.raises(ValidationError, match="a0"):
            run_sight(10, SightConfig(a0=8), oracle_over(fam, list(range(7))), rng, init)

    @pytest.mark.parametrize("initial", MALFORMED_SAMPLES.values(),
                             ids=MALFORMED_SAMPLES.keys())
    def test_malformed_initial_sample_rejected(self, initial):
        # The projection is the gate for a sample, and the whole-family
        # queries share its node checks; only a repeated node is fine in a
        # query.
        fam = make_family(40, [{1, 32}])
        rng, init = rngs(16)
        with pytest.raises(ValidationError):
            run_sight(40, SightConfig(a0=8), oracle_over(fam, initial), rng, init)
        if len(set(initial)) == len(initial):
            with pytest.raises(ValidationError):
                fam.contains_defective(initial)
            with pytest.raises(ValidationError):
                fam.count_contained(initial, 2)

    def test_numpy_initial_sample_runs_as_ints(self):
        fam = make_family(40, [{1, 32}])
        initial = [0, 1, 2, 3, 4, 5, 6, 32]
        runs = []
        for nodes in (initial, np.array(initial, dtype=np.uint16)):
            rng, init = rngs(17)
            runs.append(run_sight(40, SightConfig(a0=8), oracle_over(fam, nodes), rng, init))
        assert runs[0] == runs[1]
        assert runs[1].found == (1, 32)
        assert all(type(v) is int for v in runs[1].found)

    def test_determinism_same_streams_same_trajectory(self):
        fam = generate_family(40, {2: 6, 3: 4, 5: 3}, seed=21)
        for j in range(20):
            runs = [
                run_drawn(
                    run_sight, SightConfig(a0=16), fam,
                    spawn_generator(9, 0, j, ROLE_SIGHT),
                    spawn_generator(9, 0, j, ROLE_INIT), 0.1,
                )
                for _ in range(2)
            ]
            assert runs[0] == runs[1]

    def test_found_sets_are_planted_when_noise_free(self):
        pyrng = random.Random(777)
        found_something = 0
        for trial in range(150):
            n = pyrng.randrange(10, 30)
            fam = random_antichain_family(pyrng, n, max_sets=12)
            a0 = pyrng.randrange(4, n)
            res = run_drawn(
                run_sight, SightConfig(a0=a0, k_min=2, k_max=4), fam,
                spawn_generator(50, trial, ROLE_SIGHT),
                spawn_generator(50, trial, ROLE_INIT),
            )
            if res.outcome is RunOutcome.FOUND:
                found_something += 1
                assert res.found in fam.planted
        assert found_something > 10

    def test_found_sets_remain_truly_defective_under_noise(self):
        pyrng = random.Random(888)
        for trial in range(150):
            n = pyrng.randrange(10, 30)
            fam = random_antichain_family(pyrng, n, max_sets=12)
            a0 = pyrng.randrange(4, n)
            res = run_drawn(
                run_sight, SightConfig(a0=a0, k_min=2, k_max=4), fam,
                spawn_generator(51, trial, ROLE_SIGHT),
                spawn_generator(51, trial, ROLE_INIT), 0.15,
            )
            if res.outcome is RunOutcome.FOUND:
                assert fam.contains_defective(res.found)

    def test_no_tested_positive_proper_subset_of_found(self):
        # Under noise, a found set must not have a proper subset of size
        # at least k_min that the run itself observed testing positive.
        pyrng = random.Random(999)
        checked = 0
        for trial in range(200):
            n = pyrng.randrange(10, 30)
            fam = random_antichain_family(pyrng, n, max_sets=12)
            a0 = pyrng.randrange(4, n)
            init = spawn_generator(52, trial, ROLE_INIT)
            oracle = oracle_over(fam, sample(range(n), a0, init), 0.2, RecordingOracle)
            res = run_sight(
                n, SightConfig(a0=a0, k_min=2, k_max=4), oracle,
                spawn_generator(52, trial, ROLE_SIGHT), init,
            )
            assert len(oracle.log) == res.ledger.total
            if res.outcome is not RunOutcome.FOUND:
                continue
            checked += 1
            found = frozenset(res.found)
            for nodes, result in oracle.log:
                if result and len(nodes) >= 2 and nodes < found:
                    pytest.fail(f"positive proper subset {nodes} of {found}")
        assert checked > 20

    @pytest.mark.parametrize("p_fn", [0.0, 0.05])
    @pytest.mark.parametrize("a0,k_max", [(8, 2), (16, 3), (48, 4)])
    def test_ledger_bounds_over_randomized_runs(self, a0, k_max, p_fn):
        fam = generate_family(64, {2: 10, 3: 12, 4: 14, 5: 16, 6: 10}, seed=33)
        cfg = SightConfig(a0=a0, k_min=2, k_max=k_max)
        total_bound = sight_max_tests(a0, 2, k_max)
        pos_bound = sight_max_positive(a0, k_max)
        for j in range(300):
            res = run_drawn(
                run_sight, cfg, fam,
                spawn_generator(52, a0, j, ROLE_SIGHT),
                spawn_generator(52, a0, j, ROLE_INIT), p_fn,
            )
            assert res.ledger.total <= total_bound
            assert res.positives_pre_bottom_up <= pos_bound
