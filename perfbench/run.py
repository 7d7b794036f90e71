"""Benchmark for groupsight: paired-sampler workloads timed end to end.

    python3 perfbench/run.py [--workload acceptance|sparse|cli|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Runs whole rounds of one workload, each in a fresh process: at least
two, then more until the next would end after `--seconds`. `--seed` is the master seed of
the paired runs; the planted families are fixed. With `--trace 0` the
last line of output is a JSON object with the end-to-end metrics, each
the median over the rounds. With `--trace 1` untraced and traced rounds
alternate and the last line holds the per-layer metrics of the traced
rounds, plus `trace.overhead_s`, the traced minus the untraced median
wall time. Every round's outputs are checked; see checks.py. Results
and provenance are also written to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
RUN_LIMIT_S = 170          # a run must end well within 180 s
DEFAULT_SECONDS = 40
DEFAULT_SEED = 1
MIN_ROUNDS = 2            # so that set-up time is always a median


def provenance(seed: int) -> dict:
    sources = sorted(p for p in (ROOT / "src" / "groupsight").iterdir()
                     if p.suffix in (".py", ".pyx"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "master_seed": seed,
        "platform": platform.platform(),
    }


def run_round(workload: str, seed: int, traced: bool, work: Path, timeout: float) -> dict | None:
    """One round in a fresh process; None if it failed."""
    from rounds import subprocess_env

    work.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "rounds.py"), workload, str(seed),
           "1" if traced else "0", str(work)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=subprocess_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        log, _ = proc.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        log, _ = proc.communicate()
        print(f"round timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    finally:
        # the CLI round's subprocesses share the round's session
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        print(f"round failed with exit code {proc.returncode}:\n{log[-3000:]}", file=sys.stderr)
        return None
    result = json.loads((work / "round.json").read_text())
    if not result["errors"]:
        shutil.rmtree(work)
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict | None:
    from rounds import GRID, WORKLOADS

    pairs_per_round = len(GRID) * WORKLOADS[workload].runs_per_cell
    kinds = (False, True) if trace else (False,)
    rounds: dict[bool, list[dict]] = {False: [], True: []}
    attempted = failed = 0
    start = perf_counter()
    for group in itertools.count():
        group_start = perf_counter()
        for traced in kinds:
            work = OUT / "work" / f"{workload}-{os.getpid()}-{group}-{int(traced)}"
            result = run_round(workload, seed, traced, work,
                               RUN_LIMIT_S - (perf_counter() - start))
            attempted += pairs_per_round
            if result is None:
                failed += pairs_per_round
            else:
                rounds[traced].append(result)
        elapsed = perf_counter() - start
        if elapsed > RUN_LIMIT_S / 2:
            break
        enough = (group + 1) * len(kinds) >= MIN_ROUNDS
        if enough and elapsed + (perf_counter() - group_start) > seconds:
            break
    if not rounds[False] or (trace and not rounds[True]):
        return None

    plain = rounds[False]
    errors = [e for group in rounds.values() for r in group for e in r["errors"]]
    if trace:
        metrics = {}
        for name in (m["name"] for m in spec["per_layer"]):
            if name != "trace.overhead_s":
                metrics[name] = statistics.median(r["layers"][name] for r in rounds[True])
        metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in rounds[True])
                                       - statistics.median(r["wall_s"] for r in plain))
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = {
            "pairs_per_s": statistics.median(pairs_per_round / r["run_s"] for r in plain),
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    return {
        "result": {
            "correct": not errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        },
        "errors": errors[:20],
        "rounds": {"plain": plain, "traced": rounds[True]},
        "provenance": dict(provenance(seed), **plain[0]["provenance"]),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "groupsight" / "__init__.py").is_file():
        print(f"error: no groupsight sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if not set(workloads) <= set(names):
        parser.error(f"unknown workload {args.workload!r}; choose from {names} or all")

    (OUT / "results").mkdir(parents=True, exist_ok=True)
    last = None
    for workload in workloads:
        outcome = measure(workload, args.seed, args.seconds, bool(args.trace), spec)
        if outcome is None:
            print(f"error: no round of {workload} completed", file=sys.stderr)
            return 1
        path = OUT / "results" / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(dict(outcome, workload=workload), indent=1) + "\n")
        result = outcome["result"]
        print(f"{workload}: provenance {json.dumps(outcome['provenance'])}")
        for error in outcome["errors"]:
            print(f"{workload}: CHECK FAILED {error}")
        print(f"{workload}: attempted {result['attempted']} pairs, failed {result['failed']}, "
              f"correct {result['correct']}, "
              f"rounds {len(outcome['rounds']['plain'])}+{len(outcome['rounds']['traced'])}")
        for name, m in result["metrics"].items():
            print(f"{workload}: {name} = {m['value']:.6g} {m['unit']}")
        last = result
    if len(workloads) == 1:
        print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
