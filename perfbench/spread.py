"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds S]

Runs `run.py` once per seed and workload, in order, and prints for each
end-to-end metric the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`), and the quartile distance as a
share of the median next to the metric's bound. Every run's result line
is appended to .perfbench/spread.jsonl, so two sets can be compared
with `--compare FIRST-SEEDS` (for example `--seeds 11-20 --compare 1-10`),
which also prints how far the second median is from the first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LOG = ROOT / ".perfbench" / "spread.jsonl"


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def logged(workload: str, seeds: list[int], seconds: int) -> dict[int, dict]:
    found = {}
    if LOG.exists():
        for line in LOG.read_text().splitlines():
            rec = json.loads(line)
            if rec["workload"] == workload and rec["seconds"] == seconds and rec["seed"] in seeds:
                found[rec["seed"]] = rec["result"]
    return found


def summary(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--compare", help="seeds of an earlier set to compare against")
    args = parser.parse_args()
    LOG.parent.mkdir(exist_ok=True)
    seeds = seed_range(args.seeds)
    for workload in args.workloads.split(","):
        for seed in seeds:
            if seed in logged(workload, [seed], args.seconds):
                continue
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            with open(LOG, "a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     "seconds": args.seconds, "result": result}) + "\n")
        results = logged(workload, seeds, args.seconds)
        failed = {r["failed"] / r["attempted"] for r in results.values()}
        print(f"{workload}: {len(results)} runs, seeds {args.seeds}, failed share {sorted(failed)}")
        earlier = logged(workload, seed_range(args.compare), args.seconds) if args.compare else {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results.values()]
            median, q1, q3 = summary(values)
            line = (f"  {name:12s} median {median:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                    f"spread {(q3 - q1) / median:6.3f}  bound {metric['bound']}")
            if earlier:
                before = statistics.median(r["metrics"][name]["value"] for r in earlier.values())
                worse = (median - before) / before
                if metric["better"] == "higher":
                    worse = -worse
                line += f"  worse than seeds {args.compare} by {worse:+.3f}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
