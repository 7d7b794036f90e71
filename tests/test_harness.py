"""Paired runs, amortization, summaries, and output determinism."""

import csv
import dataclasses
import io
import json
import multiprocessing
import pickle
import random
import tracemalloc
from concurrent.futures import Future, ProcessPoolExecutor

import pytest

from groupsight import (
    ROLE_INIT,
    ROLE_INIT_NOISE,
    ROLE_RC,
    ROLE_SIGHT,
    ExperimentConfig,
    Oracle,
    PairResult,
    RcConfig,
    RunOutcome,
    RunResult,
    SightConfig,
    ValidationError,
    amortize,
    generate_family,
    run_experiment,
    run_pair,
    run_rc,
    run_sight,
    sample,
    spawn_generator,
    summarize_cell,
)
from groupsight import harness
from groupsight import TestLedger as Ledger
from groupsight.harness import (
    read_run_log,
    write_run_log,
    write_summary_csv,
)

from conftest import make_family, oracle_over


class InlinePool:
    """A worker pool that runs every chunk here, starting no process."""

    def __init__(self, max_workers, initializer, initargs):
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        harness._init_worker(None, None)

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def fake_run(algorithm, outcome, positives, negatives, a0=8, found=None):
    return RunResult(
        algorithm=algorithm,
        outcome=outcome,
        positives=positives,
        negatives=negatives,
        a0=a0,
        found=found,
    )


def find(alg, pos, neg, found=(0, 1), a0=8):
    return fake_run(alg, RunOutcome.FOUND, pos, neg, a0=a0, found=found)


def abort(alg, pos, neg, a0=8):
    return fake_run(alg, RunOutcome.ABORT_TOO_LARGE, pos, neg, a0=a0)


def abort_initial(alg, a0=8):
    return fake_run(alg, RunOutcome.ABORT_INITIAL, 0, 1, a0=a0)


class TestAmortize:
    def test_lone_find_carries_only_its_own_cost(self):
        records, residue = amortize([find("sight", 3, 5)])
        assert len(records) == 1
        rec = records[0]
        assert (rec.amortized_positives, rec.amortized_negatives) == (3, 5)
        assert (rec.own_positives, rec.own_negatives) == (3, 5)
        assert (residue.positives, residue.negatives) == (0, 0)

    def test_aborts_fold_into_next_find(self):
        records, residue = amortize(
            [abort("sight", 0, 1), abort("sight", 1, 4), find("sight", 2, 6)]
        )
        assert len(records) == 1
        rec = records[0]
        assert (rec.amortized_positives, rec.amortized_negatives) == (3, 11)
        assert rec.pair_id == 2
        assert (residue.positives, residue.negatives) == (0, 0)

    def test_trailing_abort_becomes_residue(self):
        records, residue = amortize([abort("sight", 0, 1)])
        assert records == []
        assert (residue.positives, residue.negatives) == (0, 1)

    def test_conservation_over_random_sequences(self):
        pyrng = random.Random(99)
        for _ in range(200):
            seq = []
            for _ in range(pyrng.randrange(0, 25)):
                if pyrng.random() < 0.4:
                    seq.append(find("rc", pyrng.randrange(5), pyrng.randrange(30)))
                else:
                    seq.append(abort("rc", pyrng.randrange(3), pyrng.randrange(10)))
            records, residue = amortize(seq)
            total_pos = sum(r.ledger.positives for r in seq)
            total_neg = sum(r.ledger.negatives for r in seq)
            assert sum(r.amortized_positives for r in records) + residue.positives == total_pos
            assert sum(r.amortized_negatives for r in records) + residue.negatives == total_neg
            for r in records:
                assert r.amortized_positives >= r.own_positives
                assert r.amortized_negatives >= r.own_negatives


class TestRunPair:
    def test_empty_family_aborts_both_sides_identically(self):
        fam = generate_family(30, {}, seed=0)
        cfg = ExperimentConfig(a0_grid=(8,), runs_per_cell=1, master_seed=5)
        pair = run_pair(fam, cfg, 8, 0)
        for res in (pair.sight, pair.rc):
            assert res.outcome is RunOutcome.ABORT_INITIAL
            assert (res.ledger.positives, res.ledger.negatives) == (0, 1)

    def test_initial_outcome_is_shared_even_under_heavy_noise(self):
        # Both sides consume the same initial substream, so the initial
        # sample and its noise draw agree; divergence starts afterwards.
        fam = generate_family(40, {2: 12}, seed=3)
        cfg = ExperimentConfig(
            a0_grid=(12,), runs_per_cell=1, p_fn=0.45, master_seed=17
        )
        agreements = 0
        for j in range(120):
            pair = run_pair(fam, cfg, 12, j)
            assert (pair.sight.outcome is RunOutcome.ABORT_INITIAL) == (
                pair.rc.outcome is RunOutcome.ABORT_INITIAL
            )
            agreements += pair.sight.outcome is RunOutcome.ABORT_INITIAL
        assert 0 < agreements < 120

    def test_matches_samplers_run_alone(self):
        self.check_against_lone_runs({2: 10, 3: 10, 5: 300}, k_max=4)

    def test_matches_samplers_run_alone_at_k_max_6(self):
        # The registry holds the sets of 5 and 6 nodes too.
        sizes = self.check_against_lone_runs({2: 4, 3: 6, 5: 40, 6: 60, 7: 3000}, k_max=6)
        assert {5, 6} <= sizes

    @staticmethod
    def check_against_lone_runs(counts, k_max):
        # A pair derives all its streams' keys in one pass, reuses four
        # generators and shares one initial-test noise draw between its two
        # sides; each side must still equal that sampler run alone, on an
        # oracle over the same sample, with generators from `spawn_generator`.
        fam = generate_family(60, counts, seed=31)
        cfg = ExperimentConfig(
            a0_grid=(8, 16, 32), runs_per_cell=1, k_max=k_max, p_fn=0.05,
            master_seed=7,
        )
        seed = cfg.master_seed

        def oracle(a0, j):
            init = spawn_generator(seed, a0, j, ROLE_INIT)
            return oracle_over(fam, sample(range(fam.universe_size), a0, init), cfg.p_fn)

        outcomes, sizes = set(), set()
        for a0 in cfg.a0_grid:
            for j in range(100):
                pair = run_pair(fam, cfg, a0, j)
                sight = run_sight(
                    fam.universe_size,
                    SightConfig(a0, cfg.k_min, cfg.k_max),
                    oracle(a0, j),
                    spawn_generator(seed, a0, j, ROLE_SIGHT),
                    spawn_generator(seed, j, ROLE_INIT_NOISE),
                )
                rc = run_rc(
                    fam.universe_size,
                    RcConfig(a0, cfg.k_min, cfg.k_max, cfg.t_max),
                    oracle(a0, j),
                    spawn_generator(seed, a0, j, ROLE_RC),
                    spawn_generator(seed, j, ROLE_INIT_NOISE),
                )
                assert pair.sight == sight
                assert pair.rc == rc
                outcomes.update((pair.sight.outcome, pair.rc.outcome))
                sizes.update(r.found_k for r in (pair.sight, pair.rc))
        assert outcomes == set(RunOutcome)
        return sizes

    def test_checks_both_samplers_configs(self):
        # Alone, as a cell in process and as a pool's chunks alike.
        fam = make_family(16, [{0, 1}])
        cfg = ExperimentConfig(a0_grid=(8,), runs_per_cell=3)

        def in_pool(config, a0):
            with InlinePool(1, harness._init_worker, (fam, config)) as pool:
                return harness.run_cell(fam, config, a0, pool)

        for run in (lambda config, a0: run_pair(fam, config, a0, 0),
                    lambda config, a0: harness.run_cell(fam, config, a0),
                    in_pool):
            with pytest.raises(ValidationError, match="k_max <= a0"):
                run(cfg, 3)
            # The deterministic sampler accepts a0 = k_max; the stochastic one does not.
            with pytest.raises(ValidationError, match="k_max < a0"):
                run(cfg, 4)
            with pytest.raises(ValidationError, match="t_max"):
                run(dataclasses.replace(cfg, t_max=0), 8)

    def test_alone_equals_its_place_in_a_cell_or_chunk(self):
        # A cell derives its pairs' stream keys in one pass and reuses four
        # generators; a worker chunk does the same from an offset start.
        fam = generate_family(60, {2: 10, 3: 10, 5: 300}, seed=31)
        cfg = ExperimentConfig(
            a0_grid=(16,), runs_per_cell=12, p_fn=0.05, master_seed=2**40 + 3
        )
        alone = [run_pair(fam, cfg, 16, j) for j in range(cfg.runs_per_cell)]
        assert list(harness.run_cell(fam, cfg, 16)) == alone
        harness._init_worker(fam, cfg)
        try:
            assert list(harness._run_chunk(16, 5, 9)) == alone[5:9]
        finally:
            harness._init_worker(None, None)

    def test_unique_minimal_set_forces_identical_finds(self):
        fam = make_family(16, [{0, 1}])
        cfg = ExperimentConfig(a0_grid=(10,), runs_per_cell=300, master_seed=23)
        pairs = [run_pair(fam, cfg, 10, j) for j in range(cfg.runs_per_cell)]
        joint = [
            p for p in pairs if p.sight.is_find and p.rc.is_find
        ]
        assert joint, "expected at least one joint find"
        assert all(p.sight.found == p.rc.found == (0, 1) for p in joint)
        summary_s, summary_r = summarize_cell(10, pairs)
        assert summary_s.prop_identical == 1.0
        assert summary_r.prop_identical == 1.0


class TestSummarizeCell:
    def make_pairs(self, sight_runs, rc_runs):
        assert len(sight_runs) == len(rc_runs)
        return [
            PairResult(pair_id=j, sight=s, rc=r)
            for j, (s, r) in enumerate(zip(sight_runs, rc_runs))
        ]

    def test_counting_example(self):
        # 15 runs: 5 initial aborts, on both sides of their pairs, then 6
        # finds of sizes [2,2,2,3,3,4] and 4 mid-run aborts. abort_rate is
        # over the 10 runs that passed the initial test.
        founds = [(0, 1), (2, 3), (4, 5), (0, 1, 2), (3, 4, 5), (0, 1, 2, 3)]
        runs = [find("sight", 2, 3, found=f) for f in founds]
        runs += [abort("sight", 1, 2) for _ in range(4)]
        runs[3:3] = [abort_initial("sight") for _ in range(5)]
        rc_runs = [
            fake_run("rc", r.outcome, r.ledger.positives, r.ledger.negatives,
                     found=r.found)
            for r in runs
        ]
        for summary in summarize_cell(8, self.make_pairs(runs, rc_runs)):
            assert summary.runs == 15
            assert summary.finds == 6
            assert summary.k_proportions == {
                2: 0.5, 3: pytest.approx(1 / 3), 4: pytest.approx(1 / 6)
            }
            assert summary.init_fail_rate == pytest.approx(1 / 3)
            assert summary.abort_rate == pytest.approx(0.4)

    def test_all_initial_aborts_leave_medians_undefined(self):
        runs = [abort_initial("sight") for _ in range(5)]
        rc_runs = [abort_initial("rc") for _ in range(5)]
        summary_s, summary_r = summarize_cell(8, self.make_pairs(runs, rc_runs))
        for summary in (summary_s, summary_r):
            assert summary.init_fail_rate == 1.0
            assert summary.finds == 0
            assert summary.med_pos is None
            assert summary.med_total is None
            assert summary.abort_rate is None
            assert summary.costs == {}
            assert summary.p_total is None

    def test_expected_cost_from_median_counts(self):
        # A single find with (5 positives, 40 negatives) pins the medians.
        runs = [find("sight", 5, 40)]
        rc_runs = [find("rc", 5, 40)]
        summary, _ = summarize_cell(
            8, self.make_pairs(runs, rc_runs), rhos=(1, 10, 50, 100)
        )
        assert summary.costs == {1: 45, 10: 90, 50: 290, 100: 540}

    def test_ledger_cost_at_ratio(self):
        assert Ledger(0, 0).cost(17) == 0
        assert Ledger(5, 2).cost(10) == 52
        assert Ledger(5, 2).cost(1) == Ledger(5, 2).total == 7

    def test_empty_cell_rejected(self):
        with pytest.raises(ValidationError):
            summarize_cell(8, [])


@pytest.fixture(scope="module")
def family():
    return generate_family(60, {2: 10, 3: 6, 5: 4}, seed=8)


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig(
        a0_grid=(8, 16), runs_per_cell=80, p_fn=0.02, master_seed=99
    )


class TestExperimentOutputs:
    def test_reruns_are_byte_identical(self, family, config):
        outputs = []
        for _ in range(2):
            result = run_experiment(family, config)
            log = io.StringIO()
            write_run_log(log, result)
            csv = io.StringIO()
            write_summary_csv(csv, result.summaries, config.rhos)
            outputs.append((log.getvalue(), csv.getvalue()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0].count("\n") == 2 * 2 * config.runs_per_cell

    def test_thread_count_does_not_change_results(self, family, config):
        baseline = run_experiment(family, config)
        threaded = run_experiment(
            family,
            ExperimentConfig(
                a0_grid=config.a0_grid,
                runs_per_cell=config.runs_per_cell,
                p_fn=config.p_fn,
                master_seed=config.master_seed,
                threads=3,
            ),
        )
        assert threaded.cells == baseline.cells
        assert threaded.summaries == baseline.summaries

    def test_one_worker_pool_serves_every_cell(self, family, config, monkeypatch):
        starts = []

        class CountingPool(harness.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                starts.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 8)
        threaded = run_experiment(family, dataclasses.replace(config, threads=2))
        assert starts == [2]
        baseline = run_experiment(family, config)
        assert threaded.cells == baseline.cells
        assert threaded.summaries == baseline.summaries

    @pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
    def test_pool_under_each_start_method_matches_in_process(self, method):
        # Python 3.14 makes forkserver the default on Linux. Under forkserver
        # and spawn, a worker gets the family and config by pickle alone.
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        fam = generate_family(60, {2: 10, 3: 10, 5: 300}, seed=31)
        cfg = ExperimentConfig(
            a0_grid=(8, 16), runs_per_cell=10, p_fn=0.05, master_seed=11, threads=2
        )
        with ProcessPoolExecutor(
            max_workers=2, mp_context=multiprocessing.get_context(method),
            initializer=harness._init_worker, initargs=(fam, cfg),
        ) as pool:
            for a0 in cfg.a0_grid:
                assert harness.run_cell(fam, cfg, a0, pool) == harness.run_cell(fam, cfg, a0)

    @pytest.mark.parametrize("cpus, threads, runs, workers", [
        (4, 5000, 80, 4),   # capped at the usable CPUs
        (64, 5000, 3, 3),   # capped at a cell's chunks, one pair each
        (64, 6, 80, 6),     # as asked
        (64, 2, 7, 2),      # seven chunks of one pair
        (64, 2, 11, 2),     # five chunks of two pairs, then one of one
    ])
    def test_pool_never_outgrows_the_cpus_or_the_chunks(
        self, family, config, monkeypatch, cpus, threads, runs, workers
    ):
        asked = []

        class RecordingPool(InlinePool):
            def __init__(self, max_workers, initializer, initargs):
                asked.append(max_workers)
                super().__init__(max_workers, initializer, initargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        config = dataclasses.replace(config, runs_per_cell=runs)
        pooled = run_experiment(family, dataclasses.replace(config, threads=threads))
        assert asked == [workers]
        assert pooled.cells == run_experiment(family, config).cells

    def test_usable_cpus_falls_back_to_the_cpu_count(self, monkeypatch):
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        assert harness._usable_cpus() == 3
        monkeypatch.delattr(harness.os, "sched_getaffinity")
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 5)
        assert harness._usable_cpus() == 5
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        assert harness._usable_cpus() == 1

    def test_malformed_run_record_names_its_line(self, family, config, tmp_path):
        result = run_experiment(family, config)
        log = io.StringIO()
        write_run_log(log, result)
        lines = log.getvalue().splitlines()
        path = tmp_path / "runs.jsonl"
        for key, value in (("positives", None), ("negatives", "3"), ("seed", 1.5)):
            rec = json.loads(lines[4])
            if value is None:
                del rec[key]
            else:
                rec[key] = value
            broken = lines[:4] + [json.dumps(rec)] + lines[5:]
            path.write_text("\n".join(broken) + "\n")
            with pytest.raises(ValidationError, match=f"runs.jsonl:5: .*'{key}'"):
                read_run_log(path)

    @pytest.mark.parametrize(
        "mutate, line, message",
        [
            # A copy of line 5 right after it: (a0, seed, algorithm) repeats.
            (lambda ls: ls[:5] + [ls[4]] + ls[5:], 6, "duplicate"),
            # Pair 3 of the first cell dropped: pair 4 now starts on line 7.
            (lambda ls: ls[:6] + ls[8:], 7, "a0=8 has no pair 3"),
            # The last pair of the last cell dropped.
            (lambda ls: ls[:-2], 318, "79 pairs"),
        ],
        ids=["duplicate", "gap", "unequal-cells"],
    )
    def test_run_log_gaps_and_repeats_name_their_line(
        self, family, config, tmp_path, mutate, line, message
    ):
        result = run_experiment(family, config)
        log = io.StringIO()
        write_run_log(log, result)
        lines = log.getvalue().splitlines()
        assert len(lines) == 320
        path = tmp_path / "runs.jsonl"
        path.write_text("\n".join(mutate(lines)) + "\n")
        with pytest.raises(ValidationError, match=f"runs.jsonl:{line}: .*{message}"):
            read_run_log(path)

    def test_run_log_round_trips_through_reader(self, family, config, tmp_path):
        result = run_experiment(family, config)
        path = tmp_path / "runs.jsonl"
        with open(path, "w") as fh:
            write_run_log(fh, result)
        grid, cells = read_run_log(path)
        assert grid == config.a0_grid
        for a0 in grid:
            original = result.cells[a0]
            restored = cells[a0]
            assert len(original) == len(restored)
            for orig, rest in zip(original, restored):
                for side in ("sight", "rc"):
                    o, r = getattr(orig, side), getattr(rest, side)
                    assert o.outcome == r.outcome
                    assert o.found == r.found
                    assert o.ledger == r.ledger
            re_s, re_r = summarize_cell(a0, restored, config.rhos, config.label)
            or_s, or_r = summarize_cell(a0, original, config.rhos, config.label)
            assert (re_s, re_r) == (or_s, or_r)

    def test_every_run_respects_its_bound(self, family, config):
        from groupsight import build_schedule, rc_max_positive, rc_max_tests, sight_max_tests

        result = run_experiment(family, config)
        for a0 in config.a0_grid:
            schedule = build_schedule(a0, config.k_max)
            for pair in result.cells[a0]:
                assert pair.sight.ledger.total <= sight_max_tests(
                    a0, config.k_min, config.k_max
                )
                assert pair.rc.ledger.total <= rc_max_tests(
                    schedule, config.t_max, config.k_min, config.k_max
                )
                assert pair.rc.ledger.positives <= rc_max_positive(len(schedule))

    @pytest.mark.parametrize("label", ["a,b", 'q"r', "x\ny"],
                             ids=["comma", "quote", "newline"])
    def test_any_label_keeps_its_row_whole(self, family, label):
        config = ExperimentConfig(a0_grid=(8, 16), runs_per_cell=10, label=label)
        result = run_experiment(family, config)
        out = io.StringIO()
        write_summary_csv(out, result.summaries, config.rhos)
        header, *rows = csv.reader(io.StringIO(out.getvalue()))
        assert len(header) == 23 and len(rows) == 4
        for row in rows:
            assert len(row) == 23 and row[header.index("T_label")] == label

    def test_csv_header_is_stable(self):
        out = io.StringIO()
        write_summary_csv(out, [], (1.0, 10.0, 50.0, 100.0))
        assert list(csv.reader(io.StringIO(out.getvalue()))) == [[
            "algorithm", "a0", "T_label", "finds", "init_fail_rate", "abort_rate",
            "med_pos", "med_neg", "med_total", "p2", "p3", "p4", "prop_identical",
            "cost_r1", "cost_r10", "cost_r50", "cost_r100",
            "U", "p_value", "U_pos", "p_value_pos", "U_neg", "p_value_neg",
        ]]


def test_window_and_budget_defaults_agree():
    sight, rc = SightConfig(a0=8), RcConfig(a0=8)
    experiment = ExperimentConfig(a0_grid=(8,), runs_per_cell=1)
    assert (sight.k_min, sight.k_max) == (rc.k_min, rc.k_max)
    assert (experiment.k_min, experiment.k_max, experiment.t_max) == (
        rc.k_min, rc.k_max, rc.t_max
    )


class TestRecords:
    """The records a paired run makes and keeps are slotted dataclasses."""

    def records(self, family):
        ledger = Ledger(positives=2, negatives=3)
        oracle = oracle_over(family, list(range(8)), p_fn=0.1)
        run = find("sight", 2, 3, found=(0, 1))
        return ledger, oracle, run, PairResult(pair_id=4, sight=run, rc=abort("rc", 1, 2))

    def test_slotted_frozen_where_they_were_and_replaceable(self, family):
        ledger, oracle, run, pair = self.records(family)
        for record in (ledger, oracle, run, pair):
            assert not hasattr(record, "__dict__"), type(record).__name__
        for record, name in ((oracle, "p_fn"), (run, "a0"), (pair, "pair_id")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, 0)
        ledger.positives += 1
        assert ledger.total == 6
        assert dataclasses.replace(ledger, negatives=0) == Ledger(positives=3, negatives=0)
        assert dataclasses.replace(oracle, p_fn=0.2).p_fn == 0.2
        with pytest.raises(ValidationError):
            dataclasses.replace(oracle, p_fn=1.0)
        assert dataclasses.replace(run, a0=16) == find("sight", 2, 3, found=(0, 1), a0=16)
        assert dataclasses.replace(pair, pair_id=5).rc is pair.rc

    def test_a_chunk_of_pairs_survives_pickling(self, family, config):
        pairs = harness._run_pairs(family, config, 16, 0, 40)
        assert {pair.rc.outcome for pair in pairs} > {RunOutcome.FOUND}
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(pairs, protocol=protocol))
            assert back == pairs
            assert [type(r) for p in back for r in (p, p.sight, p.rc, p.rc.ledger)] == [
                type(r) for p in pairs for r in (p, p.sight, p.rc, p.rc.ledger)]

    def test_a_pair_keeps_under_160_bytes(self):
        # The benchmark's sparse family at one of its cells. With a `__dict__`
        # on each record a pair kept about 700 bytes; slotted records, about
        # 480; as a cell's columns, about 106.
        family = generate_family(1000, {2: 400, 3: 400, 4: 400}, seed=20250810)
        config = ExperimentConfig(a0_grid=(48,), runs_per_cell=1000, master_seed=1)
        harness._run_pairs(family, config, 48, 0, 10)  # per-process checks and caches
        tracemalloc.start()
        try:
            pairs = harness._run_pairs(family, config, 48, 0, 1000)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(pairs) == 1000
        assert kept / 1000 <= 160

    def test_a_pickled_chunk_of_63_pairs_takes_under_3000_bytes(self):
        # The cli workload's chunk size, on the sparse family: 4,586 bytes as
        # a list of slotted records, 2,746 as columns.
        family = generate_family(1000, {2: 400, 3: 400, 4: 400}, seed=20250810)
        config = ExperimentConfig(a0_grid=(48,), runs_per_cell=63, master_seed=1)
        chunk = harness._run_pairs(family, config, 48, 0, 63)
        assert len(pickle.dumps(chunk)) < 3000


class TestCellRuns:
    """A cell's runs are columns that read as a list of PairResults."""

    @pytest.fixture(scope="class")
    def cell(self, family, config):
        return harness.run_cell(family, config, 16)

    def test_equal_found_sets_are_one_tuple(self, cell):
        found = [res.found for pair in cell for res in (pair.sight, pair.rc)
                 if res.found is not None]
        assert len(found) > len(set(found)) > 1
        first = {}
        for f in found:
            assert first.setdefault(f, f) is f
        assert any(p.sight.found == p.rc.found for p in cell if p.sight.found)
        for pair in cell:
            if pair.sight.found == pair.rc.found:
                assert pair.sight.found is pair.rc.found
        assert len(cell.sets) == len(set(found))

    def test_indexes_and_slices_read_as_a_list(self, cell):
        pairs = list(cell)
        n = len(pairs)
        assert [p.pair_id for p in pairs] == list(range(n))
        for i in (0, 1, n - 1, -1, -2, -n):
            assert cell[i] == pairs[i]
        for i in (n, n + 1, -n - 1, -n - 5):
            with pytest.raises(IndexError):
                cell[i]
            with pytest.raises(IndexError):
                pairs[i]
        for bad in ("1", 1.0, None):
            with pytest.raises(TypeError):
                cell[bad]
        for index in (slice(None), slice(3, 9), slice(-5, None), slice(None, -70),
                      slice(None, None, -3), slice(70, 2, -7), slice(n + 5, n + 9)):
            assert cell[index] == pairs[index]
        assert list(reversed(cell)) == pairs[::-1]
        assert pairs[5] in cell and cell.index(pairs[5]) == 5

    def test_chunks_join_into_the_cell(self, family, config, cell):
        chunks = [harness._run_pairs(family, config, 16, lo, hi)
                  for lo, hi in harness._chunks(dataclasses.replace(config, threads=3))]
        assert len(chunks) > 1 and chunks[1].start == len(chunks[0])
        assert harness.CellRuns.concat(chunks) == cell
        assert [p for chunk in chunks for p in chunk] == list(cell)

    def test_counts_past_32_bits_are_kept(self):
        big = fake_run("sight", RunOutcome.ABORT_TOO_LARGE, 2**40, 3)
        cell = harness.CellRuns.of_pairs(8, 0, [(big, abort("rc", 1, 2))])
        assert cell.positives.typecode == "q" and cell.negatives.typecode == "i"
        assert cell[0].sight == big
        assert harness.CellRuns.concat([cell, cell]).positives.tolist() == [2**40, 1] * 2

    def test_read_run_log_rebuilds_the_cell(self, family, config, tmp_path):
        result = run_experiment(family, config)
        path = tmp_path / "runs.jsonl"
        with open(path, "w") as fh:
            write_run_log(fh, result)
        grid, cells = read_run_log(path)
        # The one field a run log does not hold.
        for a0 in grid:
            logged = harness.CellRuns.of_pairs(a0, 0, (
                (dataclasses.replace(p.sight, positives_pre_bottom_up=None), p.rc)
                for p in result.cells[a0]))
            assert cells[a0] == logged
            assert cells[a0] != result.cells[a0]

    def test_a_count_past_64_bits_names_its_line(self, family, config, tmp_path):
        result = run_experiment(family, config)
        log = io.StringIO()
        write_run_log(log, result)
        lines = log.getvalue().splitlines()
        rec = json.loads(lines[2])
        rec["negatives"] = 2**63
        path = tmp_path / "runs.jsonl"
        path.write_text("\n".join(lines[:2] + [json.dumps(rec)] + lines[3:]) + "\n")
        with pytest.raises(ValidationError, match="runs.jsonl:3: .*'negatives'.* below 2\\*\\*63"):
            read_run_log(path)
