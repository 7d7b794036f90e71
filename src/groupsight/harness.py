"""Paired-run experiment harness.

Runs both samplers from identical initial samples over a grid of initial
set sizes, attributes the cost of aborted runs to the next successful
find (per-find amortization), and aggregates the per-cell statistics the
benchmark reports: medians, abort rates, found-size proportions,
Mann-Whitney comparisons, and expected costs under a configurable
positive:negative test cost ratio.

One loop, `_run_pairs`, runs every paired run, whether one pair alone
(`run_pair`), a whole cell in process or a chunk of a cell in a worker.
It derives the Philox keys of all its pairs' streams in one pass and
resets four reused generators to each pair's keys. A pair draws its
initial sample, projects the planted family onto it and hands
`run_sight` and `run_rc` one oracle over that projection, which answers
every test of both, since each query is a subset of the initial sample.

All randomness is derived from (master seed, a0, run index, role)
substreams, so results are byte-identical for a given configuration no
matter how many worker processes execute the grid. With more than one
thread, one worker pool serves every cell of an experiment. Its class,
`ProcessPoolExecutor`, is imported when first read (PEP 562), so only a
run that starts a pool loads `concurrent.futures` and `multiprocessing`
(about 2 MB resident); a class bound in its place is the one started.
"""

from __future__ import annotations

import csv
import json
import math
import os
import statistics
import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import IO, TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from .bounds import rc_max_positive, rc_max_tests, sight_max_tests
from .errors import ValidationError
from .oracle import Oracle, PlantedFamily, TestLedger, _is_int, sample
from .rc import RcConfig, build_schedule, run_rc
from .results import RunOutcome, RunResult
from .rng import (
    ROLE_INIT,
    ROLE_INIT_NOISE,
    ROLE_RC,
    ROLE_SIGHT,
    _stream_keys_checked,
    reset_generator,
    stream_keys,
)
from .sight import SightConfig, run_sight
from .stats import mann_whitney_u

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

DEFAULT_RHOS = (1.0, 10.0, 50.0, 100.0)


@dataclass(frozen=True)
class ExperimentConfig:
    a0_grid: tuple[int, ...]
    runs_per_cell: int
    k_min: int = SightConfig.k_min
    k_max: int = SightConfig.k_max
    t_max: int = RcConfig.t_max
    p_fn: float = 0.0
    master_seed: int = 0
    rhos: tuple[float, ...] = DEFAULT_RHOS
    label: str = "family"
    threads: int = 1

    def validate(self, universe_size: int) -> None:
        if not self.a0_grid:
            raise ValidationError("a0 grid must be nonempty")
        if len(set(self.a0_grid)) != len(self.a0_grid):
            raise ValidationError("a0 grid has a repeated value")
        if self.runs_per_cell < 1:
            raise ValidationError("runs per cell must be at least 1")
        if self.threads < 1:
            raise ValidationError("threads must be at least 1")
        if not 0.0 <= self.p_fn < 1.0:
            raise ValidationError("p_fn must lie in [0, 1)")
        if self.master_seed < 0:
            raise ValidationError("master_seed must be nonnegative")
        check_rhos(self.rhos)
        for a0 in self.a0_grid:
            SightConfig(a0, self.k_min, self.k_max).validate(universe_size)
            RcConfig(a0, self.k_min, self.k_max, self.t_max).validate(universe_size)


def check_rhos(rhos: Sequence[float]) -> None:
    """Raise unless the cost ratios are finite, positive and distinct.

    Distinct means distinct `cost_r` summary columns, which name each
    ratio to six significant digits.
    """
    if not all(math.isfinite(rho) and rho > 0 for rho in rhos):
        raise ValidationError("cost ratios must be finite and positive")
    if len({f"{rho:g}" for rho in rhos}) != len(rhos):
        raise ValidationError("cost ratios must be distinct")


@dataclass(frozen=True)
class PairResult:
    """One paired run: both samplers started from the same initial sample."""

    pair_id: int
    sight: RunResult
    rc: RunResult


@dataclass(frozen=True)
class FindRecord:
    """A successful find with the cost of preceding aborts folded in."""

    algorithm: str
    a0: int
    pair_id: int
    found: tuple[int, ...]
    k: int
    own_positives: int
    own_negatives: int
    amortized_positives: int
    amortized_negatives: int

    @property
    def amortized_total(self) -> int:
        return self.amortized_positives + self.amortized_negatives


@dataclass(frozen=True)
class CellSummary:
    """Aggregates for one (algorithm, a0) cell."""

    algorithm: str
    a0: int
    label: str
    runs: int
    finds: int
    init_fail_rate: float
    abort_rate: Optional[float]          # conditioned on a defective initial set
    med_pos: Optional[float]
    med_neg: Optional[float]
    med_total: Optional[float]
    k_proportions: dict[int, float]
    prop_identical: Optional[float]      # over pairs where both algorithms found
    costs: dict[float, float]            # rho -> med_pos * rho + med_neg
    u_total: Optional[float]
    p_total: Optional[float]
    u_pos: Optional[float]
    p_pos: Optional[float]
    u_neg: Optional[float]
    p_neg: Optional[float]


def run_pair(
    family: PlantedFamily, config: ExperimentConfig, a0: int, pair_id: int
) -> PairResult:
    """Execute one paired run: pair `pair_id` of cell `a0`, as a cell runs it.

    The initial sample S is drawn once, from the INIT substream, and both
    samplers start from it. Every later query either sampler makes is a
    subset of S, so both ask an oracle whose truth is the family's
    projection onto S. Both also see the same initial-test noise draw:
    before rc starts, the INIT_NOISE generator is reset to its key, which
    rewinds it to where sight started. Their decision/noise streams
    afterwards are independent substreams. The initial-test noise
    substream is keyed without a0, so cells of different initial sizes
    also share it (common random numbers: at saturation the same pairs
    flip to false negatives in every cell).
    """
    return _run_pairs(family, config, a0, pair_id, pair_id + 1)[0]


def _run_pairs(
    family: PlantedFamily, config: ExperimentConfig, a0: int, start: int, stop: int
) -> list[PairResult]:
    """Pairs start..stop-1 of cell `a0`, in pair-id order, each as `run_pair`
    describes. The first call in a process checks `stream_keys` against
    numpy (`rng._check_stream_keys`) and raises ReplayError if it differs."""
    _stream_keys_checked()
    n = family.universe_size
    sight_config = SightConfig(a0, config.k_min, config.k_max)
    rc_config = RcConfig(a0, config.k_min, config.k_max, config.t_max)
    seed, pair_ids = config.master_seed, np.arange(start, stop)
    # One row per pair: the (lo, hi) keys of INIT, INIT_NOISE, SIGHT, RC.
    keys = np.hstack([
        stream_keys(seed, a0, pair_ids, ROLE_INIT),
        stream_keys(seed, pair_ids, ROLE_INIT_NOISE),
        stream_keys(seed, a0, pair_ids, ROLE_SIGHT),
        stream_keys(seed, a0, pair_ids, ROLE_RC),
    ])
    generators = [np.random.Generator(np.random.Philox(key=0)) for _ in range(4)]
    init_rng, init_noise_rng, sight_rng, rc_rng = generators
    pairs = []
    for pair_id, row in zip(range(start, stop), keys):
        row = row.tolist()
        pair_keys = [row[i:i + 2] for i in range(0, 8, 2)]
        for generator, key in zip(generators, pair_keys):
            reset_generator(generator, key)
        oracle = Oracle(family.project(sample(range(n), a0, init_rng)), config.p_fn)
        sight_res = run_sight(n, sight_config, oracle, sight_rng, init_noise_rng)
        reset_generator(init_noise_rng, pair_keys[1])
        rc_res = run_rc(n, rc_config, oracle, rc_rng, init_noise_rng)
        pairs.append(PairResult(pair_id=pair_id, sight=sight_res, rc=rc_res))
    return pairs


_worker_family: Optional[PlantedFamily] = None
_worker_config: Optional[ExperimentConfig] = None


def _init_worker(family: PlantedFamily, config: ExperimentConfig) -> None:
    global _worker_family, _worker_config
    _worker_family = family
    _worker_config = config


def _run_chunk(a0: int, start: int, stop: int) -> list[PairResult]:
    assert _worker_family is not None and _worker_config is not None
    return _run_pairs(_worker_family, _worker_config, a0, start, stop)


def run_cell(
    family: PlantedFamily,
    config: ExperimentConfig,
    a0: int,
    pool: Optional[ProcessPoolExecutor] = None,
) -> list[PairResult]:
    """All paired runs of one cell, in pair-id order.

    The pairs run on `pool` when one is given, a pool whose workers
    `_init_worker` set up with this family and config; otherwise in this
    process.
    """
    if pool is None:
        return _run_pairs(family, config, a0, 0, config.runs_per_cell)
    futures = [pool.submit(_run_chunk, a0, *chunk) for chunk in _chunks(config)]
    return [pair for fut in futures for pair in fut.result()]


def _chunks(config: ExperimentConfig) -> list[tuple[int, int]]:
    """The (start, stop) pair ranges a pool runs a cell in: four per thread."""
    runs = config.runs_per_cell
    size = max(1, -(-runs // (config.threads * 4)))
    return [(start, min(start + size, runs)) for start in range(0, runs, size)]


def __getattr__(name: str):
    # Called only while `ProcessPoolExecutor` is unbound here: until its
    # first read, or a test or tracer binds a class in its place.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def amortize(
    results: Sequence[RunResult],
) -> tuple[list[FindRecord], TestLedger]:
    """Fold aborted-run costs into the next find, in run order.

    Returns the find records plus the unattributed residue: the summed
    ledgers of trailing aborts after the last find. Conservation holds
    exactly: amortized totals plus residue equal the summed run ledgers.
    """
    records: list[FindRecord] = []
    pending = TestLedger()
    for pair_id, res in enumerate(results):
        pending.positives += res.ledger.positives
        pending.negatives += res.ledger.negatives
        if res.is_find:
            assert res.found is not None
            records.append(
                FindRecord(
                    algorithm=res.algorithm,
                    a0=res.a0,
                    pair_id=pair_id,
                    found=res.found,
                    k=len(res.found),
                    own_positives=res.ledger.positives,
                    own_negatives=res.ledger.negatives,
                    amortized_positives=pending.positives,
                    amortized_negatives=pending.negatives,
                )
            )
            pending = TestLedger()
    return records, pending


# Each amortized metric of a find record, after the suffix of the summary
# fields med_*, u_* and p_* that report it.
_AMORTIZED = (
    ("total", "amortized_total"),
    ("pos", "amortized_positives"),
    ("neg", "amortized_negatives"),
)


def summarize_cell(
    a0: int,
    pairs: Sequence[PairResult],
    rhos: Sequence[float] = DEFAULT_RHOS,
    label: str = "family",
) -> tuple[CellSummary, CellSummary]:
    """Summaries for both algorithms of one cell (deterministic fold)."""
    if not pairs:
        raise ValidationError("cannot summarize an empty cell")
    by_alg = {
        "sight": [p.sight for p in pairs],
        "rc": [p.rc for p in pairs],
    }
    records = {alg: amortize(results)[0] for alg, results in by_alg.items()}

    both_found = [
        (p.sight.found, p.rc.found) for p in pairs if p.sight.is_find and p.rc.is_find
    ]
    prop_identical = (
        sum(1 for s, r in both_found if s == r) / len(both_found)
        if both_found
        else None
    )

    # Per algorithm, the median, U and p of each metric. One test per
    # metric: the rc row reports rc's U and the shared p.
    fields: dict[str, dict] = {alg: {} for alg in by_alg}
    for name, metric in _AMORTIZED:
        x, y = ([getattr(r, metric) for r in records[alg]] for alg in by_alg)
        mw = mann_whitney_u(x, y) if x and y else None
        for alg, values, u in (("sight", x, "u_x"), ("rc", y, "u_y")):
            fields[alg][f"med_{name}"] = (
                float(statistics.median(values)) if values else None
            )
            fields[alg][f"u_{name}"] = None if mw is None else getattr(mw, u)
            fields[alg][f"p_{name}"] = None if mw is None else mw.p_value

    summaries = []
    for alg, results in by_alg.items():
        runs = len(results)
        finds = len(records[alg])
        init_fails = sum(1 for r in results if r.outcome is RunOutcome.ABORT_INITIAL)
        conditioned = runs - init_fails
        sizes = Counter(r.k for r in records[alg])
        metrics = fields[alg]
        summaries.append(
            CellSummary(
                algorithm=alg,
                a0=a0,
                label=label,
                runs=runs,
                finds=finds,
                init_fail_rate=init_fails / runs,
                # Every run that passed the initial test and found nothing
                # aborted mid-run.
                abort_rate=(conditioned - finds) / conditioned if conditioned else None,
                k_proportions={k: c / finds for k, c in sorted(sizes.items())},
                prop_identical=prop_identical,
                costs={
                    float(rho): metrics["med_pos"] * rho + metrics["med_neg"]
                    for rho in rhos
                } if finds else {},
                **metrics,
            )
        )
    return summaries[0], summaries[1]


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    cells: dict[int, list[PairResult]]
    summaries: list[CellSummary]


def run_experiment(family: PlantedFamily, config: ExperimentConfig) -> ExperimentResult:
    """Execute the full paired grid and summarize every cell."""
    config.validate(family.universe_size)
    cells: dict[int, list[PairResult]] = {}
    summaries: list[CellSummary] = []
    # One worker pool serves every cell, so each worker receives the
    # family once. A cell submits all its chunks at once, which starts
    # every worker: under fork at the first submit, under forkserver and
    # spawn one per submit. So the pool gets no more than the usable CPUs
    # or a cell's chunks.
    if config.threads > 1:
        # Read through the module, so a class bound in its place is started.
        workers = sys.modules[__name__].ProcessPoolExecutor(
            max_workers=min(config.threads, _usable_cpus(), len(_chunks(config))),
            initializer=_init_worker,
            initargs=(family, config),
        )
    else:
        workers = nullcontext()
    with workers as pool:
        for a0 in config.a0_grid:
            pairs = run_cell(family, config, a0, pool)
            cells[a0] = pairs
            summaries.extend(summarize_cell(a0, pairs, config.rhos, config.label))
    return ExperimentResult(config=config, cells=cells, summaries=summaries)


def write_run_log(stream: IO[str], result: ExperimentResult) -> None:
    """Newline-delimited run records in pair-id order within each cell."""
    for a0 in result.config.a0_grid:
        for pair in result.cells[a0]:
            for res in (pair.sight, pair.rc):
                stream.write(
                    json.dumps(res.to_record(pair.pair_id), separators=(",", ":"))
                )
                stream.write("\n")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def _columns(
    rhos: Sequence[float], k_top: int
) -> list[tuple[str, Callable[[CellSummary], object]]]:
    """Each summary CSV column's name and its value in a summary, in order,
    with found-size proportions p2..p{k_top}."""
    def fields(*pairs):
        return [(name, attrgetter(field)) for name, field in pairs]

    return [
        *fields(("algorithm", "algorithm"), ("a0", "a0"), ("T_label", "label"),
                ("finds", "finds"), ("init_fail_rate", "init_fail_rate"),
                ("abort_rate", "abort_rate"), ("med_pos", "med_pos"),
                ("med_neg", "med_neg"), ("med_total", "med_total")),
        *((f"p{k}", lambda s, k=k: s.k_proportions.get(k)) for k in range(2, k_top + 1)),
        *fields(("prop_identical", "prop_identical")),
        # See check_rhos.
        *((f"cost_r{rho:g}", lambda s, rho=float(rho): s.costs.get(rho)) for rho in rhos),
        *fields(("U", "u_total"), ("p_value", "p_total"), ("U_pos", "u_pos"),
                ("p_value_pos", "p_pos"), ("U_neg", "u_neg"), ("p_value_neg", "p_neg")),
    ]


def write_summary_csv(
    stream: IO[str],
    summaries: Sequence[CellSummary],
    rhos: Sequence[float] = DEFAULT_RHOS,
) -> None:
    """Header and one CSV-quoted row per summary; size columns reach the largest find."""
    k_top = max([4, *(k for s in summaries for k in s.k_proportions)])
    columns = _columns(rhos, k_top)
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(name for name, _ in columns)
    writer.writerows([_fmt(value(summary)) for _, value in columns] for summary in summaries)


# The outcomes each sampler can produce; a run record must carry one of them.
_OUTCOMES = {
    "sight": frozenset({
        RunOutcome.FOUND, RunOutcome.ABORT_INITIAL, RunOutcome.ABORT_TOO_LARGE,
    }),
    "rc": frozenset({
        RunOutcome.FOUND, RunOutcome.ABORT_INITIAL, RunOutcome.ABORT_AT_STEP,
        RunOutcome.ABORT_NO_MINIMAL,
    }),
}


def _parse_run_record(line: str) -> tuple[int, int, RunResult]:
    """(a0, pair id, result) of one run-log line; ValueError if malformed."""
    rec = json.loads(line)
    if not isinstance(rec, dict):
        raise ValueError("run record is not a JSON object")
    ints = ("positives", "negatives", "a0", "seed")
    keys = ("algorithm", "outcome", "found_set", "k", *ints)
    if rec.get("algorithm") == "rc":
        keys += ("abort_step",)
    for key in keys:
        if key not in rec:
            raise ValueError(f"run record has no {key!r}")
    for key in ints:
        if not (_is_int(rec[key]) and rec[key] >= 0):
            raise ValueError(f"run record {key!r} is not a nonnegative integer")
    algorithm = rec["algorithm"]
    if not (isinstance(algorithm, str) and algorithm in _OUTCOMES):
        raise ValueError(f"run record algorithm {algorithm!r} is unknown")
    outcome = RunOutcome(rec["outcome"])
    if outcome not in _OUTCOMES[algorithm]:
        raise ValueError(f"{algorithm} run record has outcome {outcome.value}, "
                         f"which {algorithm} never produces")
    found = rec["found_set"]
    if found is not None and not (
        isinstance(found, list) and all(_is_int(v) for v in found)
    ):
        raise ValueError("run record 'found_set' is not null or a list of integers")
    if found is not None and not (
        len(found) >= 2 and found[0] >= 0
        and all(a < b for a, b in zip(found, found[1:]))
    ):
        raise ValueError("run record 'found_set' is not a strictly ascending list "
                         "of at least two nonnegative node ids")
    if (found is not None) != (outcome is RunOutcome.FOUND):
        raise ValueError(f"run record 'found_set' does not fit outcome {outcome.value}")
    k = rec["k"]
    if not (k is None if found is None else _is_int(k) and k == len(found)):
        raise ValueError("run record 'k' is not the size of its 'found_set'")
    abort_step = rec.get("abort_step")
    if algorithm == "sight":
        if "abort_step" in rec:
            raise ValueError("sight run record has an 'abort_step'")
    elif outcome is RunOutcome.ABORT_AT_STEP:
        if not (_is_int(abort_step) and abort_step > 0):
            raise ValueError("run record 'abort_step' is not a positive integer")
    elif abort_step is not None:
        raise ValueError(f"run record 'abort_step' does not fit outcome {outcome.value}")
    res = RunResult(
        algorithm=algorithm,
        outcome=outcome,
        ledger=TestLedger(positives=rec["positives"], negatives=rec["negatives"]),
        a0=rec["a0"],
        found=None if found is None else tuple(found),
        abort_step=abort_step,
    )
    return rec["a0"], rec["seed"], res


def check_bounds(res: RunResult, config: ExperimentConfig) -> None:
    """Raise ValueError unless `res` fits a run of `config`'s window and budget.

    A found set must have k_min..k_max members, the tests charged must
    not exceed the sampler's worst case in `bounds`, nor an rc run's
    positive tests its worst case, and an rc run can only abort at a step
    of its schedule. `bounds` limits a sight run's positive tests only
    before the final search, so they are not checked.
    """
    k_min, k_max = config.k_min, config.k_max
    if res.found is not None and not k_min <= len(res.found) <= k_max:
        raise ValueError(f"found set of size {len(res.found)} lies outside "
                         f"sizes {k_min}..{k_max}")
    if res.algorithm == "sight":
        most, most_positive = sight_max_tests(res.a0, k_min, k_max), None
    else:
        schedule = build_schedule(res.a0, k_max)
        if res.abort_step is not None and res.abort_step >= len(schedule):
            raise ValueError(f"rc abort_step {res.abort_step} is past the "
                             f"{len(schedule) - 1} steps of its schedule")
        most = rc_max_tests(schedule, config.t_max, k_min, k_max)
        most_positive = rc_max_positive(len(schedule))
    if res.ledger.total > most:
        raise ValueError(f"{res.algorithm} run charges {res.ledger.total} tests, "
                         f"above its worst case of {most}")
    if most_positive is not None and res.ledger.positives > most_positive:
        raise ValueError(f"{res.algorithm} run charges {res.ledger.positives} "
                         f"positive tests, above its worst case of {most_positive}")


def read_run_log(
    path: str | Path, config: ExperimentConfig | None = None
) -> tuple[tuple[int, ...], dict[int, list[PairResult]]]:
    """Rebuild paired results from a run log written by `write_run_log`.

    Returns the a0 grid in first-appearance order and the pairs per cell.
    Records are expected in pair order, deterministic-sampler record
    first within each pair. Every cell must hold pairs 0..n-1 with one
    record per algorithm, and every cell the same n. Both samplers of a
    pair test the same initial sample with the same noise draw, so either
    both records abort at the initial test or neither does. A malformed
    record, a repeated (a0, seed, algorithm) record, a gap in pair ids, a
    pair whose sides disagree on the initial test or a cell of a different
    length raises ValidationError naming a line. Given the run's `config`,
    so does a record that fails `check_bounds`, and a log whose cells or
    pair count differ from its a0 grid and runs per cell raises
    ValidationError naming the log.
    """
    grid: list[int] = []
    cells: dict[int, dict[int, dict[str, RunResult]]] = {}
    first_line: dict[tuple[int, int], int] = {}
    last_line: dict[int, int] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            a0, pair_id, res = _parse_run_record(line)
            if config is not None:
                check_bounds(res, config)
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
        if a0 not in cells:
            cells[a0] = {}
            grid.append(a0)
        sides = cells[a0].setdefault(pair_id, {})
        if res.algorithm in sides:
            raise ValidationError(
                f"{path}:{lineno}: duplicate {res.algorithm} record of pair "
                f"{pair_id} (a0={a0})"
            )
        sides[res.algorithm] = res
        first_line.setdefault((a0, pair_id), lineno)
        last_line[a0] = lineno
    pairs_by_a0: dict[int, list[PairResult]] = {}
    for a0 in grid:
        pairs = []
        for expected, pair_id in enumerate(sorted(cells[a0])):
            lineno = first_line[a0, pair_id]
            if pair_id != expected:
                raise ValidationError(
                    f"{path}:{lineno}: cell a0={a0} has no pair {expected}"
                )
            sides = cells[a0][pair_id]
            if "sight" not in sides or "rc" not in sides:
                raise ValidationError(
                    f"{path}:{lineno}: run log pair {pair_id} (a0={a0}) is "
                    "missing one algorithm"
                )
            sight, rc = sides["sight"], sides["rc"]
            if (sight.outcome is RunOutcome.ABORT_INITIAL) != (
                rc.outcome is RunOutcome.ABORT_INITIAL
            ):
                raise ValidationError(
                    f"{path}:{lineno}: run log pair {pair_id} (a0={a0}) has "
                    f"sight {sight.outcome.value} and rc {rc.outcome.value}, but "
                    "both or neither must be AbortInitial"
                )
            pairs.append(PairResult(pair_id=pair_id, sight=sight, rc=rc))
        pairs_by_a0[a0] = pairs
        if len(pairs) != len(pairs_by_a0[grid[0]]):
            raise ValidationError(
                f"{path}:{last_line[a0]}: cell a0={a0} has {len(pairs)} pairs, "
                f"cell a0={grid[0]} has {len(pairs_by_a0[grid[0]])}"
            )
    if config is not None:
        runs = len(pairs_by_a0[grid[0]]) if grid else 0
        if (tuple(grid), runs) != (config.a0_grid, config.runs_per_cell):
            raise ValidationError(
                f"{path}: holds a0 {grid} with {runs} pairs per cell, but its run "
                f"had a0 {list(config.a0_grid)} with {config.runs_per_cell}"
            )
    return tuple(grid), pairs_by_a0
