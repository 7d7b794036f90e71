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
A cell keeps its runs as columns (`CellRuns`), with each distinct found
set once, and makes a pair's records only when they are read.

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
import operator
import os
import statistics
import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import IO, TYPE_CHECKING, Callable, Iterable, Optional, Sequence

import numpy as np

from .bounds import rc_max_positive, rc_max_tests, sight_max_tests
from .errors import ValidationError
from .oracle import KSet, Oracle, PlantedFamily, TestLedger, _is_int, sample
from .rc import RcConfig, build_schedule, run_rc
from .results import RunOutcome, RunResult, run_record
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
    from array import array
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


@dataclass(frozen=True, slots=True)
class PairResult:
    """One paired run: both samplers started from the same initial sample."""

    pair_id: int
    sight: RunResult
    rc: RunResult


# Each outcome's code in a cell's `codes` column, and the outcome of each code.
_CODE = {outcome: code for code, outcome in enumerate(RunOutcome)}
_OUTCOME = tuple(RunOutcome)
_FOUND, _INITIAL = _CODE[RunOutcome.FOUND], _CODE[RunOutcome.ABORT_INITIAL]


def _empty_columns() -> list[array]:
    """Empty columns codes, positives, negatives, extras and found, all but
    codes int64. `array` is imported here, when a process first builds a
    cell, so one that only generates or loads a family never loads it
    (about 0.1 MB resident)."""
    from array import array

    return [array(typecode) for typecode in "bqqqq"]


def _int32(column: array) -> array:
    """The int64 `column` as 32-bit integers if they fit, else itself."""
    if -2**31 <= min(column, default=0) and max(column, default=0) < 2**31:
        return type(column)("i", column)
    return column


@dataclass(frozen=True, slots=True)
class CellRuns(Sequence[PairResult]):
    """The paired runs of one cell, pairs `start`, `start` + 1, ..., kept as
    columns. Indexing makes a pair's PairResult when asked; a slice gives
    a list of them, as a list's slice does.

    Run 2i is the sight run of pair `start` + i and run 2i + 1 its rc run.
    Per run, `codes` holds its outcome's place in RunOutcome, `positives`
    and `negatives` its tests, `extras` sight's positives_pre_bottom_up or
    rc's abort_step (-1 for None) and `found` its found set's place in
    `sets`, or -1. `sets` holds each distinct found set once, as one
    tuple, in order of first appearance, so cells of equal runs have
    equal columns and compare equal. The integer columns are 32-bit
    arrays when their values fit, as they do unless a run charges 2**31
    tests. A cell pickles as its columns.
    """

    a0: int
    start: int
    codes: array
    positives: array
    negatives: array
    extras: array
    found: array
    sets: list[KSet]

    @classmethod
    def of_pairs(
        cls, a0: int, start: int, pairs: Iterable[tuple[RunResult, RunResult]]
    ) -> CellRuns:
        """The cell of the (sight, rc) runs `pairs`, whose first is pair `start`."""
        codes, positives, negatives, extras, found = _empty_columns()
        places: dict[KSet, int] = {}
        for sight, rc in pairs:
            for res, extra in ((sight, sight.positives_pre_bottom_up), (rc, rc.abort_step)):
                codes.append(_CODE[res.outcome])
                positives.append(res.positives)
                negatives.append(res.negatives)
                extras.append(-1 if extra is None else extra)
                found.append(-1 if res.found is None
                             else places.setdefault(res.found, len(places)))
        return cls(a0, start, codes, *map(_int32, (positives, negatives, extras, found)),
                   list(places))

    @classmethod
    def concat(cls, parts: Sequence[CellRuns]) -> CellRuns:
        """One cell of `parts`, consecutive chunks of it in pair order."""
        codes, positives, negatives, extras, found = _empty_columns()
        places: dict[KSet, int] = {}
        for part in parts:
            codes.extend(part.codes)
            positives.extend(part.positives.tolist())
            negatives.extend(part.negatives.tolist())
            extras.extend(part.extras.tolist())
            moved = [places.setdefault(s, len(places)) for s in part.sets]
            found.extend([-1 if place < 0 else moved[place] for place in part.found])
        first = parts[0]
        return cls(first.a0, first.start, codes,
                   *map(_int32, (positives, negatives, extras, found)), list(places))

    def __len__(self) -> int:
        return len(self.codes) // 2

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._pair(i) for i in range(*index.indices(len(self)))]
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("cell index out of range")
        return self._pair(i)

    def __iter__(self):
        return map(self._pair, range(len(self)))

    def _pair(self, i: int) -> PairResult:
        return PairResult(self.start + i, self._run(2 * i), self._run(2 * i + 1))

    def _run(self, r: int) -> RunResult:
        """Run r: a sight run if r is even, else an rc run."""
        place, extra = self.found[r], self.extras[r]
        extra = None if extra < 0 else extra
        rc = r & 1
        return RunResult(
            "rc" if rc else "sight", _OUTCOME[self.codes[r]], self.positives[r],
            self.negatives[r], self.a0, None if place < 0 else self.sets[place],
            abort_step=extra if rc else None,
            positives_pre_bottom_up=None if rc else extra,
        )


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
) -> CellRuns:
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

    def pairs():
        for row in keys.tolist():
            pair_keys = [row[i:i + 2] for i in range(0, 8, 2)]
            for generator, key in zip(generators, pair_keys):
                reset_generator(generator, key)
            oracle = Oracle(family.project(sample(range(n), a0, init_rng)), config.p_fn)
            sight_res = run_sight(n, sight_config, oracle, sight_rng, init_noise_rng)
            reset_generator(init_noise_rng, pair_keys[1])
            yield sight_res, run_rc(n, rc_config, oracle, rc_rng, init_noise_rng)

    return CellRuns.of_pairs(a0, start, pairs())


_worker_family: Optional[PlantedFamily] = None
_worker_config: Optional[ExperimentConfig] = None


def _init_worker(family: PlantedFamily, config: ExperimentConfig) -> None:
    global _worker_family, _worker_config
    _worker_family = family
    _worker_config = config


def _run_chunk(a0: int, start: int, stop: int) -> CellRuns:
    assert _worker_family is not None and _worker_config is not None
    return _run_pairs(_worker_family, _worker_config, a0, start, stop)


def run_cell(
    family: PlantedFamily,
    config: ExperimentConfig,
    a0: int,
    pool: Optional[ProcessPoolExecutor] = None,
) -> CellRuns:
    """All paired runs of one cell, in pair-id order.

    The pairs run on `pool` when one is given, a pool whose workers
    `_init_worker` set up with this family and config; otherwise in this
    process.
    """
    if pool is None:
        return _run_pairs(family, config, a0, 0, config.runs_per_cell)
    futures = [pool.submit(_run_chunk, a0, *chunk) for chunk in _chunks(config)]
    return CellRuns.concat([fut.result() for fut in futures])


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
    folded, residue = _fold(
        [_CODE[res.outcome] for res in results],
        [res.positives for res in results],
        [res.negatives for res in results],
    )
    records = []
    for pair_id, positives, negatives in folded:
        res = results[pair_id]
        records.append(
            FindRecord(
                algorithm=res.algorithm,
                a0=res.a0,
                pair_id=pair_id,
                found=res.found,
                k=len(res.found),
                own_positives=res.positives,
                own_negatives=res.negatives,
                amortized_positives=positives,
                amortized_negatives=negatives,
            )
        )
    return records, TestLedger(*residue)


def _fold(
    codes: Iterable[int], positives: Iterable[int], negatives: Iterable[int]
) -> tuple[list[tuple[int, int, int]], tuple[int, int]]:
    """`amortize` over runs given as columns: each find's (run index,
    amortized positives, amortized negatives), and the residue's
    (positives, negatives)."""
    finds = []
    pending_pos = pending_neg = 0
    for i, (code, pos, neg) in enumerate(zip(codes, positives, negatives)):
        pending_pos += pos
        pending_neg += neg
        if code == _FOUND:
            finds.append((i, pending_pos, pending_neg))
            pending_pos = pending_neg = 0
    return finds, (pending_pos, pending_neg)


def summarize_cell(
    a0: int,
    pairs: Sequence[PairResult],
    rhos: Sequence[float] = DEFAULT_RHOS,
    label: str = "family",
) -> tuple[CellSummary, CellSummary]:
    """Summaries for both algorithms of one cell (deterministic fold).

    A CellRuns is read as its columns; other sequences of pairs are
    first made into one.
    """
    if not pairs:
        raise ValidationError("cannot summarize an empty cell")
    cell = pairs if isinstance(pairs, CellRuns) else CellRuns.of_pairs(
        a0, 0, ((p.sight, p.rc) for p in pairs))
    # Each algorithm's runs are every other run of the cell.
    sides = {"sight": slice(0, None, 2), "rc": slice(1, None, 2)}
    found = {alg: cell.found[side] for alg, side in sides.items()}
    # Equal found sets are one entry of `cell.sets`.
    both_found = [(s, r) for s, r in zip(found["sight"], found["rc"]) if min(s, r) >= 0]
    prop_identical = (
        sum(1 for s, r in both_found if s == r) / len(both_found)
        if both_found
        else None
    )

    # Each metric's amortized values over each algorithm's finds, in run order.
    values: dict[str, dict[str, list[int]]] = {}
    for alg, side in sides.items():
        folded, _ = _fold(cell.codes[side], cell.positives[side], cell.negatives[side])
        values[alg] = {
            "total": [pos + neg for _, pos, neg in folded],
            "pos": [pos for _, pos, _ in folded],
            "neg": [neg for _, _, neg in folded],
        }

    # Per algorithm, the median, U and p of each metric. One test per
    # metric: the rc row reports rc's U and the shared p.
    fields: dict[str, dict] = {alg: {} for alg in sides}
    for name in ("total", "pos", "neg"):
        x, y = values["sight"][name], values["rc"][name]
        mw = mann_whitney_u(x, y) if x and y else None
        for alg, metric, u in (("sight", x, "u_x"), ("rc", y, "u_y")):
            fields[alg][f"med_{name}"] = (
                float(statistics.median(metric)) if metric else None
            )
            fields[alg][f"u_{name}"] = None if mw is None else getattr(mw, u)
            fields[alg][f"p_{name}"] = None if mw is None else mw.p_value

    summaries = []
    runs = len(cell)
    for alg, side in sides.items():
        finds = len(values[alg]["total"])
        init_fails = cell.codes[side].count(_INITIAL)
        conditioned = runs - init_fails
        sizes = Counter(len(cell.sets[place]) for place in found[alg] if place >= 0)
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
    cells: dict[int, CellRuns]
    summaries: list[CellSummary]


def run_experiment(family: PlantedFamily, config: ExperimentConfig) -> ExperimentResult:
    """Execute the full paired grid and summarize every cell."""
    config.validate(family.universe_size)
    cells: dict[int, CellRuns] = {}
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
    """Newline-delimited run records in pair-id order within each cell,
    each as `RunResult.to_record` makes it, read from the cell's columns."""
    for a0 in result.config.a0_grid:
        cell = result.cells[a0]
        runs = zip(cell.codes, cell.positives, cell.negatives, cell.extras, cell.found)
        for r, (code, positives, negatives, extra, place) in enumerate(runs):
            record = run_record(
                "rc" if r & 1 else "sight", _OUTCOME[code],
                None if place < 0 else cell.sets[place], positives, negatives, a0,
                cell.start + r // 2, None if extra < 0 else extra,
            )
            stream.write(json.dumps(record, separators=(",", ":")))
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
    # Counts and steps are kept in int64 columns (CellRuns).
    for key in ints:
        if not (_is_int(rec[key]) and 0 <= rec[key] < 2**63):
            raise ValueError(f"run record {key!r} is not a nonnegative integer below 2**63")
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
        if not (_is_int(abort_step) and 0 < abort_step < 2**63):
            raise ValueError("run record 'abort_step' is not a positive integer below 2**63")
    elif abort_step is not None:
        raise ValueError(f"run record 'abort_step' does not fit outcome {outcome.value}")
    res = RunResult(
        algorithm=algorithm,
        outcome=outcome,
        positives=rec["positives"],
        negatives=rec["negatives"],
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
) -> tuple[tuple[int, ...], dict[int, CellRuns]]:
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
    pairs_by_a0: dict[int, CellRuns] = {}
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
            pairs.append((sight, rc))
        pairs_by_a0[a0] = CellRuns.of_pairs(a0, 0, pairs)
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
