"""Command-line front end.

Subcommands: `generate` (write a planted-family file), `run` (execute a
paired experiment grid), `bounds` (print worst-case test counts),
`stats` (recompute summaries from an existing run log). Exit codes:
0 success, 2 validation failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .bounds import rc_max_positive, rc_max_tests, sight_max_positive, sight_max_tests
from .errors import ValidationError
from .harness import (
    DEFAULT_RHOS,
    ExperimentConfig,
    check_rhos,
    run_experiment,
    read_run_log,
    summarize_cell,
    write_run_log,
    write_summary_csv,
)
from .oracle import PlantedFamily, _is_int, generate_family
from .rc import build_schedule

EXIT_VALIDATION = 2
EXIT_IO = 3


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ValidationError(f"expected a comma-separated integer list: {text!r}") from exc


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ValidationError(f"expected a comma-separated number list: {text!r}") from exc


def read_config_file(path: str | Path) -> dict[str, str]:
    """Parse a `key = value` config file; '#' starts a comment."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupsight",
        description="Adaptive group-testing samplers for minimal defective k-sets",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a planted-family file")
    gen.add_argument("--n", type=int, required=True, help="universe size")
    for k in range(2, 9):
        gen.add_argument(f"--k{k}", type=int, default=0, metavar="COUNT",
                         help=f"number of planted {k}-sets")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--out", required=True, help="output family JSON path")

    run = sub.add_parser("run", help="run a paired experiment grid")
    run.add_argument("--config", help="key=value config file; flags override it")
    run.add_argument("--family", help="planted-family JSON path")
    run.add_argument("--a0", help="comma-separated initial set sizes")
    run.add_argument("--runs", type=int, help="paired runs per cell")
    run.add_argument("--kmin", type=int)
    run.add_argument("--kmax", type=int)
    run.add_argument("--tmax", type=int)
    run.add_argument("--pfn", type=float, help="false-negative rate in [0,1)")
    run.add_argument("--seed", type=int, help="master seed")
    run.add_argument("--rho", help="comma-separated positive:negative cost ratios")
    run.add_argument("--threads", type=int)
    run.add_argument("--label", help="problem label for the summary table")
    run.add_argument("-o", "--out", help="output directory")

    bnd = sub.add_parser("bounds", help="print worst-case test counts")
    bnd.add_argument("--a0", type=int, required=True)
    bnd.add_argument("--kmin", type=int, default=2)
    bnd.add_argument("--kmax", type=int, default=4)
    bnd.add_argument("--tmax", type=int, default=20)

    st = sub.add_parser("stats", help="recompute summaries from a run log")
    st.add_argument("--log", required=True,
                    help="run log (one JSON record per line); with the run's "
                         "config.json beside it, every record must keep the "
                         "worst-case bounds of its kmin, kmax and tmax")
    st.add_argument("--rho", help="comma-separated cost ratios")
    st.add_argument("--label", default="family")
    st.add_argument("-o", "--out", help="summary CSV path (stdout when omitted)")
    return parser


def cmd_generate(args) -> int:
    counts = {k: getattr(args, f"k{k}") for k in range(2, 9)}
    counts = {k: c for k, c in counts.items() if c}
    family = generate_family(args.n, counts, args.seed)
    family.validate_antichain()
    family.save(args.out)
    total = len(family.planted)
    if total == 0:
        print("warning: generated an empty family (every query answers non-defective)")
    per_k = ", ".join(f"k={k}: {c}" for k, c in family.counts_by_k.items()) or "none"
    print(f"wrote {args.out}: N={args.n}, {total} planted sets ({per_k}), "
          f"antichain verified")
    return 0


def _resolved_run_config(args) -> tuple[str, ExperimentConfig, str]:
    file_values = read_config_file(args.config) if args.config else {}

    def pick(flag, key, parse, default=None):
        if flag is not None:
            return flag
        if key in file_values:
            return parse(file_values[key])
        return default

    family_path = pick(args.family, "family", str)
    out_dir = pick(args.out, "out", str)
    if family_path is None:
        raise ValidationError("--family is required (flag or config file)")
    if out_dir is None:
        raise ValidationError("--out is required (flag or config file)")
    a0_grid = pick(_parse_int_list(args.a0) if args.a0 else None, "a0", _parse_int_list)
    if not a0_grid:
        raise ValidationError("--a0 is required (flag or config file)")
    config = ExperimentConfig(
        a0_grid=a0_grid,
        runs_per_cell=pick(args.runs, "runs", int, 1000),
        k_min=pick(args.kmin, "kmin", int, 2),
        k_max=pick(args.kmax, "kmax", int, 4),
        t_max=pick(args.tmax, "tmax", int, 20),
        p_fn=pick(args.pfn, "pfn", float, 0.0),
        master_seed=pick(args.seed, "seed", int, 0),
        rhos=pick(_parse_float_list(args.rho) if args.rho else None, "rho",
                  _parse_float_list, DEFAULT_RHOS),
        label=pick(args.label, "label", str, Path(family_path).stem),
        threads=pick(args.threads, "threads", int, 1),
    )
    return family_path, config, out_dir


def cmd_run(args) -> int:
    family_path, config, out_dir = _resolved_run_config(args)
    family = PlantedFamily.load(family_path)
    result = run_experiment(family, config)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    echo = {
        "family": str(family_path),
        "a0": list(config.a0_grid),
        "runs": config.runs_per_cell,
        "kmin": config.k_min,
        "kmax": config.k_max,
        "tmax": config.t_max,
        "pfn": config.p_fn,
        "seed": config.master_seed,
        "rho": list(config.rhos),
        "label": config.label,
        "threads": config.threads,
    }
    (out / "config.json").write_text(json.dumps(echo, indent=2) + "\n")
    with open(out / "runs.jsonl", "w") as fh:
        write_run_log(fh, result)
    with open(out / "summary.csv", "w") as fh:
        write_summary_csv(fh, result.summaries, config.rhos)

    for summary in result.summaries:
        med = "n/a" if summary.med_total is None else f"{summary.med_total:g}"
        print(f"{summary.algorithm:>5} a0={summary.a0:<4d} finds={summary.finds:<6d} "
              f"init_fail={summary.init_fail_rate:.3f} med_total={med}")
    print(f"wrote {out / 'runs.jsonl'} and {out / 'summary.csv'}")
    return 0


def cmd_bounds(args) -> int:
    schedule = build_schedule(args.a0, args.kmax)
    rows = [
        ("deterministic max total tests", sight_max_tests(args.a0, args.kmin, args.kmax)),
        ("deterministic max positive tests", sight_max_positive(args.a0, args.kmax)),
        ("reduction schedule", schedule),
        ("schedule length", len(schedule)),
        ("stochastic max total tests",
         rc_max_tests(schedule, args.tmax, args.kmin, args.kmax)),
        ("stochastic max positive tests", rc_max_positive(len(schedule))),
    ]
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value}")
    return 0


def _logged_bounds(log: str | Path) -> tuple[int, int, int] | None:
    """(k_min, k_max, t_max) from the `config.json` beside a run log, if any."""
    path = Path(log).parent / "config.json"
    if not path.exists():
        return None
    try:
        echo = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    if not isinstance(echo, dict):
        raise ValidationError(f"{path}: not a JSON object")
    bounds = tuple(echo.get(key) for key in ("kmin", "kmax", "tmax"))
    k_min, k_max, t_max = bounds
    if not (all(map(_is_int, bounds)) and 2 <= k_min <= k_max and t_max >= 1):
        raise ValidationError(f"{path}: kmin, kmax and tmax must be integers "
                              "with 2 <= kmin <= kmax and tmax >= 1")
    return bounds


def cmd_stats(args) -> int:
    rhos = _parse_float_list(args.rho) if args.rho else DEFAULT_RHOS
    check_rhos(rhos)
    grid, cells = read_run_log(args.log, _logged_bounds(args.log))
    summaries = []
    for a0 in grid:
        summaries.extend(summarize_cell(a0, cells[a0], rhos, args.label))
    if args.out:
        with open(args.out, "w") as fh:
            write_summary_csv(fh, summaries, rhos)
        print(f"wrote {args.out}")
    else:
        write_summary_csv(sys.stdout, summaries, rhos)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": cmd_generate,
        "run": cmd_run,
        "bounds": cmd_bounds,
        "stats": cmd_stats,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:  # ValidationError, malformed input files and the like
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:  # an input too large to hold, e.g. universe_size
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
