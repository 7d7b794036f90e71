"""Command-line front end.

Subcommands: `generate` (write a planted-family file), `run` (execute a
paired experiment grid), `bounds` (print worst-case test counts),
`stats` (recompute summaries from an existing run log). Exit codes:
0 success, 2 validation failure, 3 I/O failure, 4 numpy no longer draws
as family generation replays it (`generate`; see `draws._check_replay`)
or no longer derives stream keys as paired runs replay them (`run`; see
`rng._check_stream_keys`).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .bounds import rc_max_positive, rc_max_tests, sight_max_positive, sight_max_tests
from .errors import ReplayError, ValidationError
from .harness import (
    ExperimentConfig,
    check_rhos,
    run_experiment,
    read_run_log,
    summarize_cell,
    write_run_log,
    write_summary_csv,
)
from .oracle import PlantedFamily, generate_family
from .rc import build_schedule

EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_REPLAY = 4


def _list_of(parse: Callable[[str], object]) -> Callable[[str], tuple]:
    """Parser of a comma-separated list of `parse` values."""
    return lambda text: tuple(parse(part) for part in text.split(",") if part.strip())


class Setting(NamedTuple):
    """A `run` key: its flag `--KEY`, its config-file key and its `config.json` key."""

    field: str | None  # the ExperimentConfig field it sets; None for the two paths
    parse: Callable[[str], object]
    help: str


# In `config.json` order. `config.json` is written to `out`, so does not name it.
RUN_SETTINGS = {
    "family": Setting(None, str, "planted-family JSON path"),
    "a0": Setting("a0_grid", _list_of(int), "comma-separated initial set sizes"),
    "runs": Setting("runs_per_cell", int, "paired runs per cell"),
    "kmin": Setting("k_min", int, "smallest target set size"),
    "kmax": Setting("k_max", int, "largest target set size"),
    "tmax": Setting("t_max", int, "stochastic sampler's attempts per reduction step"),
    "pfn": Setting("p_fn", float, "false-negative rate in [0,1)"),
    "seed": Setting("master_seed", int, "master seed"),
    "rho": Setting("rhos", _list_of(float), "comma-separated positive:negative cost ratios"),
    "label": Setting("label", str, "summary-table label (default: the family file's stem)"),
    "threads": Setting("threads", int, "worker processes"),
    "out": Setting(None, str, "output directory"),
}


def _parse_setting(key: str, text: str, where: str):
    try:
        return RUN_SETTINGS[key].parse(text)
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def read_config_file(path: str | Path) -> dict[str, object]:
    """Parse a `key = value` file of `run` settings, each key at most once;
    '#' starts a comment."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
        key, text = (part.strip() for part in line.split("=", 1))
        if key not in RUN_SETTINGS:
            raise ValidationError(f"{path}:{lineno}: unknown key '{key}'")
        if key in values:
            raise ValidationError(f"{path}:{lineno}: repeated key '{key}'")
        values[key] = _parse_setting(key, text, f"{path}:{lineno}")
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
    for key, setting in RUN_SETTINGS.items():
        flags = ("-o", "--out") if key == "out" else (f"--{key}",)
        run.add_argument(*flags, help=setting.help)

    bnd = sub.add_parser("bounds", help="print worst-case test counts")
    bnd.add_argument("--a0", type=int, required=True)
    bnd.add_argument("--kmin", type=int, default=ExperimentConfig.k_min)
    bnd.add_argument("--kmax", type=int, default=ExperimentConfig.k_max)
    bnd.add_argument("--tmax", type=int, default=ExperimentConfig.t_max)

    st = sub.add_parser("stats", help="recompute summaries from a run log")
    st.add_argument("--log", required=True,
                    help="run log (one JSON record per line); with the run's "
                         "config.json beside it, every record must keep the "
                         "worst-case bounds of its kmin, kmax and tmax")
    st.add_argument("--rho", help="comma-separated cost ratios (default: the run's, "
                                   "from its config.json, else 1,10,50,100)")
    st.add_argument("--label", help="problem label (default: the run's, from its "
                                    "config.json, else 'family')")
    st.add_argument("-o", "--out", help="summary CSV path (stdout when omitted)")
    return parser


def cmd_generate(args) -> int:
    counts = {k: getattr(args, f"k{k}") for k in range(2, 9)}
    counts = {k: c for k, c in counts.items() if c}
    family = generate_family(args.n, counts, args.seed)
    family.validate_antichain()
    family.save(args.out)
    placed = family.counts_by_k
    total = sum(placed.values())
    if total == 0:
        print("warning: generated an empty family (every query answers non-defective)")
    per_k = ", ".join(f"k={k}: {c}" for k, c in placed.items()) or "none"
    print(f"wrote {args.out}: N={args.n}, {total} planted sets ({per_k}), "
          f"antichain verified")
    return 0


def _resolved_run_settings(args) -> tuple[dict[str, object], ExperimentConfig]:
    """The `run` settings given, flags over the config file, and their experiment."""
    values = read_config_file(args.config) if args.config else {}
    for key in RUN_SETTINGS:
        if getattr(args, key) is not None:
            values[key] = _parse_setting(key, getattr(args, key), f"--{key}")
    for key in ("family", "out", "a0"):
        if not values.get(key):
            raise ValidationError(f"--{key} is required (flag or config file)")
    values.setdefault("runs", 1000)
    values.setdefault("label", Path(values["family"]).stem)
    return values, _experiment(values)


def _experiment(values: dict[str, object]) -> ExperimentConfig:
    """The experiment of `run` settings keyed as in RUN_SETTINGS."""
    return ExperimentConfig(**{
        setting.field: values[key]
        for key, setting in RUN_SETTINGS.items() if setting.field and key in values
    })


def cmd_run(args) -> int:
    values, config = _resolved_run_settings(args)
    result = run_experiment(PlantedFamily.load(values["family"]), config)

    out = Path(values["out"])
    out.mkdir(parents=True, exist_ok=True)
    echo = {
        key: getattr(config, setting.field) if setting.field else values[key]
        for key, setting in RUN_SETTINGS.items() if key != "out"
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
        ("reduction schedule", list(schedule)),
        ("schedule length", len(schedule)),
        ("stochastic max total tests",
         rc_max_tests(schedule, args.tmax, args.kmin, args.kmax)),
        ("stochastic max positive tests", rc_max_positive(len(schedule))),
    ]
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value}")
    return 0


def _logged_value(echo: dict, key: str) -> object:
    """The value of `key` in a `config.json` record, as `run` writes it:
    what the flag parser of `key` yields, as JSON. A JSON integer passes
    where `run` writes a float."""
    if key not in echo:
        raise ValueError(f"has no {key!r}")
    value = echo[key]
    text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    parsed = _parse_setting(key, text, repr(key))
    if parsed != (tuple(value) if isinstance(value, list) else value):
        raise ValueError(f"{key!r} holds {json.dumps(value)}, which run does not write")
    return parsed


def _logged_run(log: str | Path) -> ExperimentConfig | None:
    """The experiment of the `config.json` beside a run log, if any, read
    and checked with `run`'s rules: it holds exactly the keys `run` writes.
    The family's size is not known here, so no a0 is too large for it."""
    path = Path(log).parent / "config.json"
    if not path.exists():
        return None
    try:
        echo = json.loads(path.read_text())
        if not isinstance(echo, dict):
            raise ValueError("not a JSON object")
        for key in echo:
            if key not in RUN_SETTINGS or key == "out":
                raise ValueError(f"unknown key '{key}'")
        config = _experiment({
            key: _logged_value(echo, key) for key in RUN_SETTINGS if key != "out"
        })
        config.validate(math.inf)
    except (OverflowError, ValueError) as exc:  # JSONDecodeError and ValidationError too
        raise ValidationError(f"{path}: {exc}") from exc
    return config


def cmd_stats(args) -> int:
    config = _logged_run(args.log)
    run = config or ExperimentConfig  # without a config.json, the defaults
    rhos = run.rhos
    if args.rho is not None:
        rhos = _parse_setting("rho", args.rho, "--rho")
        check_rhos(rhos)
    label = run.label if args.label is None else args.label
    grid, cells = read_run_log(args.log, config)
    summaries = []
    for a0 in grid:
        summaries.extend(summarize_cell(a0, cells[a0], rhos, label))
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
    except ReplayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REPLAY
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
