"""One round of a workload, run in a fresh process by `run.py`.

    python3 perfbench/rounds.py WORKLOAD SEED TRACED WORK_DIR

A round builds its inputs, runs the workload once, takes its timings,
then checks the outputs with `checks.py` and writes `round.json` into
WORK_DIR. The checks run after the timed part and are not counted.
"""

from __future__ import annotations

import csv
import json
import os
import platform
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

FAMILY_SEED = 20250810
UNIVERSE = 1000
GRID = (16, 48, 80, 112, 144, 176)
K_MIN, K_MAX, T_MAX = 2, 4, 20


@dataclass(frozen=True)
class Workload:
    counts: dict[int, int]
    p_fn: float
    runs_per_cell: int
    cli: bool = False
    exact_finds: bool = False   # noise-free: every find must itself be planted


WORKLOADS = {
    "acceptance": Workload({2: 400, 3: 400, 4: 400, 5: 300_000}, 0.01, 40),
    "sparse": Workload({2: 400, 3: 400, 4: 400}, 0.0, 1000, exact_finds=True),
    "cli": Workload({2: 400, 3: 400, 4: 400, 5: 30_000}, 0.01, 500, cli=True),
}
CLI_THREADS = 2

CLI_ONLY_LAYERS = ("cli.import_s", "cli.generate_s", "cli.run_s", "cli.stats_s",
                   "io.runs_jsonl_bytes")


def subprocess_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def import_package():
    sys.path.insert(0, str(SRC))
    import groupsight

    if Path(groupsight.__file__).resolve().parent != SRC / "groupsight":
        raise ImportError(f"groupsight imported from {groupsight.__file__}, not {SRC}")
    return groupsight


def inprocess_round(gs, name: str, spec: Workload, seed: int, tracer) -> tuple[dict, dict]:
    start = perf_counter()
    family = gs.generate_family(UNIVERSE, spec.counts, FAMILY_SEED)
    family.index()
    setup_end = perf_counter()
    config = gs.ExperimentConfig(
        a0_grid=GRID, runs_per_cell=spec.runs_per_cell, k_min=K_MIN, k_max=K_MAX,
        t_max=T_MAX, p_fn=spec.p_fn, master_seed=seed, label=name, threads=1)
    result = gs.run_experiment(family, config)
    end = perf_counter()
    timing = {
        "setup_s": setup_end - start,
        "run_s": end - setup_end,
        "wall_s": end - start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    outputs = {
        "universe_size": family.universe_size,
        "planted": family.planted,
        "records": [
            {"algorithm": res.algorithm, "a0": a0, "pair": pair.pair_id,
             "outcome": res.outcome.value, "found": res.found,
             "positives": res.ledger.positives, "negatives": res.ledger.negatives}
            for a0 in GRID for pair in result.cells[a0] for res in (pair.sight, pair.rc)
        ],
        "summaries": [
            {"algorithm": s.algorithm, "a0": s.a0, "finds": s.finds,
             "med_pos": s.med_pos, "med_neg": s.med_neg, "med_total": s.med_total,
             "p_total": s.p_total, "p_pos": s.p_pos, "p_neg": s.p_neg}
            for s in result.summaries
        ],
    }
    if tracer is not None:
        from tracing import layer_metrics

        timing["layers"] = layer_metrics({"spans": tracer.spans, "sums": tracer.sums})
        timing["layers"].update(dict.fromkeys(CLI_ONLY_LAYERS, 0))
    return timing, outputs


def _run_cli(prefix: list[str], args: list[str], log: Path) -> tuple[float, float]:
    """Run one CLI subprocess; return its wall seconds and peak RSS in MB."""
    start = perf_counter()
    with open(log, "w") as fh:
        proc = subprocess.Popen(prefix + args, stdout=fh, stderr=subprocess.STDOUT,
                                env=subprocess_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
    elapsed = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"groupsight {args[0]} exited {proc.returncode}:\n"
                           f"{log.read_text()[-2000:]}")
    return elapsed, usage.ru_maxrss / 1024


def cli_round(name: str, spec: Workload, seed: int, work: Path, traced: bool) -> tuple[dict, dict]:
    family_path, out = work / "family.json", work / "out"
    trace_dir = work / "trace"
    if traced:
        trace_dir.mkdir()
        prefix = [sys.executable, str(HERE / "traced_cli.py"), str(trace_dir)]
    else:
        prefix = [sys.executable, "-m", "groupsight"]
    counts = [arg for k, c in spec.counts.items() for arg in (f"--k{k}", str(c))]
    steps = {
        "generate": ["generate", "--n", str(UNIVERSE), *counts, "--seed", str(FAMILY_SEED),
                     "-o", str(family_path)],
        "run": ["run", "--family", str(family_path), "--a0", ",".join(map(str, GRID)),
                "--runs", str(spec.runs_per_cell), "--kmin", str(K_MIN), "--kmax", str(K_MAX),
                "--tmax", str(T_MAX), "--pfn", str(spec.p_fn), "--seed", str(seed),
                "--threads", str(CLI_THREADS), "--label", name, "-o", str(out)],
        "stats": ["stats", "--log", str(out / "runs.jsonl"), "--label", name,
                  "-o", str(work / "stats_summary.csv")],
    }
    times, peak = {}, 0.0
    start = perf_counter()
    for step, args in steps.items():
        times[step], rss = _run_cli(prefix, args, work / f"{step}.log")
        peak = max(peak, rss)
    timing = {
        "setup_s": times["generate"],
        "run_s": times["run"],
        "wall_s": perf_counter() - start,
        "peak_rss_mb": peak,
    }
    family = json.loads(family_path.read_text())
    outputs = {
        "universe_size": family["universe_size"],
        "planted": [tuple(p) for p in family["planted"]],
        "records": [
            {"algorithm": r["algorithm"], "a0": r["a0"], "pair": r["seed"],
             "outcome": r["outcome"],
             "found": None if r["found_set"] is None else tuple(r["found_set"]),
             "positives": r["positives"], "negatives": r["negatives"]}
            for r in map(json.loads, (out / "runs.jsonl").read_text().splitlines())
        ],
        "summaries": read_summary_csv(out / "summary.csv"),
        "summary_bytes": (out / "summary.csv").read_bytes(),
        "stats_summary_bytes": (work / "stats_summary.csv").read_bytes(),
    }
    if traced:
        from tracing import layer_metrics, merge

        parts = [json.loads(p.read_text()) for p in sorted(trace_dir.glob("trace-*.json"))]
        merged = merge(parts)
        layers = layer_metrics(merged)
        layers.update({
            "cli.import_s": merged["sums"].get("cli.import_s", 0.0),
            "cli.generate_s": times["generate"],
            "cli.run_s": times["run"],
            "cli.stats_s": times["stats"],
            "io.runs_jsonl_bytes": (out / "runs.jsonl").stat().st_size,
        })
        timing["layers"] = layers
    return timing, outputs


def read_summary_csv(path: Path) -> list[dict]:
    def num(text):
        return None if text == "" else float(text)

    with open(path, newline="") as fh:
        return [
            {"algorithm": row["algorithm"], "a0": int(row["a0"]), "finds": int(row["finds"]),
             "med_pos": num(row["med_pos"]), "med_neg": num(row["med_neg"]),
             "med_total": num(row["med_total"]), "p_total": num(row["p_value"]),
             "p_pos": num(row["p_value_pos"]), "p_neg": num(row["p_value_neg"])}
            for row in csv.DictReader(fh)
        ]


def check_outputs(spec: Workload, outputs: dict) -> list[str]:
    planted = outputs["planted"]
    records = outputs["records"]
    errors = [] if outputs["universe_size"] == UNIVERSE else [
        f"family universe size {outputs['universe_size']}, requested {UNIVERSE}"]
    errors += checks.check_family(planted, UNIVERSE, spec.counts)
    expected = len(GRID) * spec.runs_per_cell * 2
    if len(records) != expected:
        errors.append(f"{len(records)} run records, expected {expected}")
    errors += checks.check_finds(records, set(map(tuple, planted)), K_MIN, K_MAX,
                                 spec.exact_finds)
    errors += checks.check_ledgers(records, K_MIN, K_MAX, T_MAX)
    errors += checks.check_pairs(records)
    errors += checks.check_summaries(records, outputs["summaries"])
    if spec.cli and outputs["summary_bytes"] != outputs["stats_summary_bytes"]:
        errors.append("summary.csv written by stats differs from the one written by run")
    return errors


def main() -> int:
    name, seed, traced, work = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", Path(sys.argv[4])
    spec = WORKLOADS[name]
    gs = import_package()
    tracer = None
    if traced and not spec.cli:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    if spec.cli:
        timing, outputs = cli_round(name, spec, seed, work, traced)
    else:
        timing, outputs = inprocess_round(gs, name, spec, seed, tracer)
    import numpy

    timing["errors"] = check_outputs(spec, outputs)[:20]
    timing["provenance"] = {
        "backend": gs.active_backend(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    (work / "round.json").write_text(json.dumps(timing))
    return 0


if __name__ == "__main__":
    sys.exit(main())
