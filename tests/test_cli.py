"""Command-line interface: subcommands, exit codes, reproducibility."""

import contextlib
import copy
import csv
import io
import json
import subprocess
import sys
import tempfile
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupsight import PlantedFamily, RunOutcome, cli, draws, harness, rng
from groupsight.bounds import rc_max_positive, rc_max_tests, sight_max_tests
from groupsight.cli import RUN_SETTINGS, main
from groupsight.harness import read_run_log
from groupsight.rc import build_schedule


def run_cli(argv):
    return main(argv)


@pytest.fixture(scope="module")
def family_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fam") / "family.json"
    assert run_cli([
        "generate", "--n", "80", "--k2", "12", "--k3", "8", "--k5", "6",
        "--seed", "31", "-o", str(path),
    ]) == 0
    return path


class TestGenerate:
    def test_writes_requested_counts(self, tmp_path, capsys):
        out = tmp_path / "fam.json"
        code = run_cli([
            "generate", "--n", "1000", "--k2", "200", "--k3", "100",
            "--k4", "50", "--seed", "7", "-o", str(out),
        ])
        assert code == 0
        fam = PlantedFamily.load(out)
        assert len(fam.planted) == 350
        assert fam.counts_by_k == {2: 200, 3: 100, 4: 50}
        assert "antichain verified" in capsys.readouterr().out

    def test_empty_family_warns(self, tmp_path, capsys):
        out = tmp_path / "empty.json"
        assert run_cli(["generate", "--n", "10", "--k2", "0", "-o", str(out)]) == 0
        assert "warning" in capsys.readouterr().out
        assert PlantedFamily.load(out).planted == ()

    def test_defective_singletons_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["generate", "--n", "10", "--k1", "5", "-o", str(tmp_path / "x.json")])
        assert exc.value.code == 2

    def test_infeasible_counts_exit_validation(self, tmp_path, capsys):
        code = run_cli(["generate", "--n", "4", "--k2", "7", "-o", str(tmp_path / "x.json")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_numpy_that_draws_otherwise_exits_4(self, tmp_path, capsys, monkeypatch):
        # A reference one draw apart stands for a numpy whose `choice` changed.
        def reference(rng, n, k, first=[]):
            if not first:
                first.append(rng.integers(2))
            return draws._choice_row(rng, n, k)

        monkeypatch.setattr(draws._check_replay, "__defaults__", (reference,))
        draws._replay_checked.cache_clear()
        out = tmp_path / "x.json"
        try:
            code = run_cli(["generate", "--n", "10", "--k2", "3", "-o", str(out)])
        finally:
            draws._replay_checked.cache_clear()
        assert code == cli.EXIT_REPLAY == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: numpy {np.__version__}: ") and err.count("\n") == 1
        assert not out.exists()


class TestBounds:
    def test_reference_values(self, capsys):
        assert run_cli(["bounds", "--a0", "16", "--kmin", "2", "--kmax", "4",
                        "--tmax", "20"]) == 0
        out = capsys.readouterr().out
        assert "28" in out                      # deterministic max total
        assert "[16, 11, 8, 6]" in out          # schedule
        assert "111" in out                     # stochastic max total
        assert "5" in out                       # stochastic max positive

    def test_large_initial_size(self, capsys):
        assert run_cli(["bounds", "--a0", "176"]) == 0
        out = capsys.readouterr().out
        assert "44" in out
        assert "[176, 88, 44, 22, 11, 8, 6]" in out

    def test_tiny_a0_rejected(self, capsys):
        assert run_cli(["bounds", "--a0", "1"]) == 2

    def test_k_max_below_two_rejected(self):
        # Its schedule once never ended and grew until the process was
        # killed, so the command runs in a child under a time and memory cap.
        pytest.importorskip("resource")
        script = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "from groupsight.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, "bounds", "--a0", "10", "--kmax", "1"],
            capture_output=True, text=True, timeout=20,
        )
        assert proc.returncode == 2, proc.stderr
        assert "k_max must be at least 2" in proc.stderr


class TestRun:
    def test_grid_produces_expected_summary_rows(self, family_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli([
            "run", "--family", str(family_file), "--a0", "8,16",
            "--runs", "60", "--kmin", "2", "--kmax", "4", "--tmax", "20",
            "--pfn", "0.01", "--seed", "42", "-o", str(out),
        ])
        assert code == 0
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) == 1 + 4  # header + 2 cells x 2 algorithms
        log_lines = (out / "runs.jsonl").read_text().splitlines()
        assert len(log_lines) == 2 * 2 * 60
        first = json.loads(log_lines[0])
        assert first["algorithm"] == "sight"
        assert set(first) == {
            "algorithm", "outcome", "found_set", "k", "positives",
            "negatives", "a0", "seed",
        }
        second = json.loads(log_lines[1])
        assert second["algorithm"] == "rc"
        assert "abort_step" in second
        config_echo = json.loads((out / "config.json").read_text())
        assert config_echo["seed"] == 42

    def test_same_seed_same_bytes(self, family_file, tmp_path):
        args = ["run", "--family", str(family_file), "--a0", "8,12",
                "--runs", "40", "--pfn", "0.02", "--seed", "3"]
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli(args + ["-o", str(out)]) == 0
            outs.append((
                (out / "runs.jsonl").read_bytes(),
                (out / "summary.csv").read_bytes(),
            ))
        assert outs[0] == outs[1]

    def test_a0_below_k_max_rejected(self, family_file, tmp_path, capsys):
        code = run_cli([
            "run", "--family", str(family_file), "--a0", "2", "--kmax", "4",
            "--runs", "5", "-o", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_repeated_a0_rejected(self, family_file, tmp_path, capsys):
        # Each pair would be written twice, a log `stats` rejects.
        out = tmp_path / "o"
        capsys.readouterr()
        code = run_cli([
            "run", "--family", str(family_file), "--a0", "8,8",
            "--runs", "5", "-o", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: a0 grid has a repeated value\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "rho, message",
        [
            ("nan,inf", "cost ratios must be finite and positive"),
            ("1,1", "cost ratios must be distinct"),
            ("2,2.0000001", "cost ratios must be distinct"),
            ("-1,0", "cost ratios must be finite and positive"),
        ],
        ids=["nan-inf", "repeated", "same-column", "nonpositive"],
    )
    def test_bad_cost_ratios_rejected(
        self, family_file, tmp_path, capsys, rho, message
    ):
        out = tmp_path / "o"
        capsys.readouterr()
        code = run_cli([
            "run", "--family", str(family_file), "--a0", "8",
            "--runs", "5", f"--rho={rho}", "-o", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--pfn", "1.5", "p_fn must lie in [0, 1)"),
            ("--pfn", "1", "p_fn must lie in [0, 1)"),
            ("--pfn", "-0.1", "p_fn must lie in [0, 1)"),
            ("--pfn", "nan", "p_fn must lie in [0, 1)"),
            ("--seed", "-1", "master_seed must be nonnegative"),
        ],
        ids=["pfn-above-1", "pfn-1", "pfn-negative", "pfn-nan", "seed-negative"],
    )
    def test_bad_pfn_or_seed_rejected_before_any_pair(
        self, family_file, tmp_path, capsys, monkeypatch, flag, value, message
    ):
        def no_pool(*args, **kwargs):
            raise AssertionError("the worker pool started")

        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
        out = tmp_path / "o"
        capsys.readouterr()
        code = run_cli([
            "run", "--family", str(family_file), "--a0", "8", "--runs", "5",
            "--threads", "2", f"{flag}={value}", "-o", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_numpy_that_seeds_otherwise_exits_4(self, family_file, tmp_path, capsys,
                                                 monkeypatch):
        # A SeedSequence that hashes one more spawn-key word stands for a
        # numpy whose hash changed.
        def spawn(master_seed, *key):
            seq = np.random.SeedSequence(master_seed, spawn_key=(*key, 0))
            return np.random.Generator(np.random.Philox(seq))

        monkeypatch.setattr(rng._check_stream_keys, "__defaults__", (spawn,))
        rng._stream_keys_checked.cache_clear()
        out = tmp_path / "o"
        try:
            code = run_cli(["run", "--family", str(family_file), "--a0", "8",
                            "--runs", "5", "-o", str(out)])
        finally:
            rng._stream_keys_checked.cache_clear()
        assert code == cli.EXIT_REPLAY == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: numpy {np.__version__}: ") and err.count("\n") == 1
        assert not out.exists()

    def test_missing_family_file_is_io_error(self, tmp_path):
        code = run_cli([
            "run", "--family", str(tmp_path / "nope.json"), "--a0", "8",
            "--runs", "5", "-o", str(tmp_path / "o"),
        ])
        assert code == 3

    def test_malformed_family_file_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = run_cli([
            "run", "--family", str(bad), "--a0", "8",
            "--runs", "5", "-o", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("universe_size", 10.9),
            ("universe_size", True),
            ("member", 1.7),
            ("member", True),
            ("seed", 2.5),
            ("seed", False),
        ],
    )
    def test_inexact_integer_in_family_file_is_validation_error(
        self, tmp_path, capsys, key, value
    ):
        data = {"universe_size": 10, "planted": [[0, 1], [2, 3, 4]], "seed": 3}
        if key == "member":
            data["planted"][1][0] = value
        else:
            data[key] = value
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps(data))
        capsys.readouterr()
        code = run_cli([
            "run", "--family", str(fam), "--a0", "8",
            "--runs", "5", "-o", str(tmp_path / "o"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "integer" in err

    def test_unallocatable_family_is_validation_error(self, tmp_path):
        # A billion-node universe needs gigabytes for the row store; the
        # child's address space is capped so the allocation fails there.
        resource = pytest.importorskip("resource")
        fam = tmp_path / "huge.json"
        fam.write_text(json.dumps(
            {"universe_size": 10**9, "planted": [[0, 1]], "seed": None}
        ))

        def cap_address_space():
            limit = 1 << 30
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        proc = subprocess.run(
            [sys.executable, "-m", "groupsight", "run", "--family", str(fam),
             "--a0", "8", "--runs", "2", "-o", str(tmp_path / "o")],
            capture_output=True, text=True, preexec_fn=cap_address_space,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    def test_config_file_with_flag_override(self, family_file, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "family = {fam}\n"
            "a0 = 8\n"
            "runs = 10   # small smoke grid\n"
            "seed = 5\n"
            "out = {out}\n".format(fam=family_file, out=tmp_path / "from_cfg")
        )
        assert run_cli(["run", "--config", str(cfg)]) == 0
        assert (tmp_path / "from_cfg" / "summary.csv").exists()

        # Flags win over file values.
        assert run_cli([
            "run", "--config", str(cfg), "-o", str(tmp_path / "flagged"),
            "--runs", "4",
        ]) == 0
        lines = (tmp_path / "flagged" / "runs.jsonl").read_text().splitlines()
        assert len(lines) == 2 * 4


# A value for each `run` key that differs from its default.
SETTING_VALUES = {
    "a0": "9,12", "runs": "6", "kmin": "3", "kmax": "5", "tmax": "7", "pfn": "0.03",
    "seed": "9", "rho": "2,7.5", "label": "x y", "threads": "2",
}


class TestRunSettings:
    """`run` reads each key of RUN_SETTINGS from a flag or from a config file."""

    @staticmethod
    def run(values, key, via_file, tmp_path) -> tuple[int, bytes]:
        """Run with every value as a flag but `key`'s, which `via_file` puts in
        a config file; the exit code and config.json."""
        argv = ["run"]
        for other, text in values.items():
            if other != key or not via_file:
                argv += [f"--{other}", text]
        if via_file:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"# one setting\n{key} = {values[key]}\n")
            argv += ["--config", str(cfg)]
        code = run_cli(argv)
        return code, (Path(values["out"]) / "config.json").read_bytes()

    @pytest.mark.parametrize("key", list(RUN_SETTINGS))
    def test_file_and_flag_give_the_same_config(self, family_file, tmp_path, key):
        values = {"family": str(family_file), "a0": "8", "runs": "4",
                  "out": str(tmp_path / "out")}
        if key in SETTING_VALUES:
            values[key] = SETTING_VALUES[key]
        from_flag = self.run(values, key, False, tmp_path)
        from_file = self.run(values, key, True, tmp_path)
        assert from_flag == from_file
        assert from_flag[0] == 0
        if key != "out":
            expected = RUN_SETTINGS[key].parse(values[key])
            assert json.loads(from_file[1])[key] == json.loads(json.dumps(expected))

    def test_config_json_key_order(self, family_file, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["run", "--family", str(family_file), "--a0", "8", "--runs", "3",
                        "-o", str(out)]) == 0
        assert list(json.loads((out / "config.json").read_text())) == [
            "family", "a0", "runs", "kmin", "kmax", "tmax", "pfn", "seed", "rho",
            "label", "threads",
        ]

    def test_unknown_key_exits_2_naming_its_line(self, family_file, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "out"
        for line, error in [("rusn = 10", "unknown key 'rusn'"),
                            ("a0 = 16  # again", "repeated key 'a0'")]:
            cfg.write_text(f"family = {family_file}\na0 = 8\n\n{line}\nout = {out}\n")
            capsys.readouterr()
            assert run_cli(["run", "--config", str(cfg)]) == 2
            assert capsys.readouterr().err == f"error: {cfg}:4: {error}\n"
            assert not out.exists()

    def test_unparsable_value_exits_2(self, family_file, tmp_path, capsys):
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli(["run", "--family", str(family_file), "--a0", "8",
                        "--runs", "abc", "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: --runs: ")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kmax = four\n")
        assert run_cli(["run", "--config", str(cfg), "--family", str(family_file),
                        "--a0", "8", "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}:1: ")
        assert not out.exists()


@pytest.fixture(scope="module")
def run_log_file(family_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("stats")
    assert run_cli([
        "run", "--family", str(family_file), "--a0", "8",
        "--runs", "5", "--seed", "11", "-o", str(out),
    ]) == 0
    return out / "runs.jsonl"


class TestStats:
    def test_recomputed_summary_matches_original(self, family_file, tmp_path):
        out = tmp_path / "out"
        assert run_cli([
            "run", "--family", str(family_file), "--a0", "8,16",
            "--runs", "50", "--seed", "11", "--label", "family",
            "-o", str(out),
        ]) == 0
        recomputed = tmp_path / "summary2.csv"
        assert run_cli([
            "stats", "--log", str(out / "runs.jsonl"), "-o", str(recomputed),
        ]) == 0
        # The run's config.json lies beside the log, so every record was
        # also checked against its worst-case bounds.
        assert recomputed.read_bytes() == (out / "summary.csv").read_bytes()

    def test_bare_stats_reproduces_the_run_summary(self, tmp_path, capsys):
        # The label, here the family file's stem, and the cost ratios come
        # from the run's config.json; flags override them, and without a
        # config.json the defaults are 'family' and 1,10,50,100.
        fam = tmp_path / "a,b.json"
        assert run_cli(["generate", "--n", "60", "--k2", "10", "--k3", "10",
                        "--seed", "3", "-o", str(fam)]) == 0
        out = tmp_path / "out"
        assert run_cli(["run", "--family", str(fam), "--a0", "8,16", "--runs", "30",
                        "--rho", "2,3", "--pfn", "0.05", "-o", str(out)]) == 0
        capsys.readouterr()
        assert run_cli(["stats", "--log", str(out / "runs.jsonl")]) == 0
        assert capsys.readouterr().out == (out / "summary.csv").read_text()

        def header_and_labels(argv):
            assert run_cli(argv) == 0
            header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
            return header, {row[header.index("T_label")] for row in rows}

        header, labels = header_and_labels(
            ["stats", "--log", str(out / "runs.jsonl"), "--rho", "4", "--label", "z"])
        assert [c for c in header if c.startswith("cost_")] == ["cost_r4"] and labels == {"z"}
        alone = tmp_path / "alone"
        alone.mkdir()
        (alone / "runs.jsonl").write_bytes((out / "runs.jsonl").read_bytes())
        header, labels = header_and_labels(["stats", "--log", str(alone / "runs.jsonl")])
        assert [c for c in header if c.startswith("cost_")] == [
            "cost_r1", "cost_r10", "cost_r50", "cost_r100",
        ]
        assert labels == {"family"}

    def test_found_sizes_above_four_get_columns(self, tmp_path):
        fam = tmp_path / "fam.json"
        assert run_cli([
            "generate", "--n", "40", "--k2", "2", "--k5", "30", "--seed", "3",
            "-o", str(fam),
        ]) == 0
        out = tmp_path / "out"
        assert run_cli([
            "run", "--family", str(fam), "--a0", "20", "--runs", "40",
            "--kmax", "5", "--seed", "1", "--label", "family", "-o", str(out),
        ]) == 0
        header, *rows = (out / "summary.csv").read_text().splitlines()
        columns = header.split(",")
        assert columns[columns.index("p2"):columns.index("prop_identical")] == [
            "p2", "p3", "p4", "p5",
        ]
        p5 = [float(row.split(",")[columns.index("p5")]) for row in rows]
        assert all(p > 0 for p in p5)
        recomputed = tmp_path / "summary2.csv"
        assert run_cli([
            "stats", "--log", str(out / "runs.jsonl"), "-o", str(recomputed),
        ]) == 0
        assert recomputed.read_bytes() == (out / "summary.csv").read_bytes()

    def test_record_without_positives_is_validation_error(
        self, family_file, tmp_path, capsys
    ):
        out = tmp_path / "out"
        assert run_cli([
            "run", "--family", str(family_file), "--a0", "8",
            "--runs", "5", "--seed", "11", "-o", str(out),
        ]) == 0
        lines = (out / "runs.jsonl").read_text().splitlines()
        rec = json.loads(lines[2])
        del rec["positives"]
        lines[2] = json.dumps(rec)
        log = tmp_path / "broken.jsonl"
        log.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli(["stats", "--log", str(log)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "broken.jsonl:3:" in err and "'positives'" in err

    @pytest.mark.parametrize(
        "mutate, line",
        [
            (lambda ls: ls[:3] + [ls[2]] + ls[3:], 4),
            (lambda ls: ls[:2] + ls[4:], 3),
            (lambda ls: ls[:-2], 18),
        ],
        ids=["duplicate", "gap", "unequal-cells"],
    )
    def test_altered_pairs_are_validation_errors(
        self, family_file, tmp_path, capsys, mutate, line
    ):
        out = tmp_path / "out"
        assert run_cli([
            "run", "--family", str(family_file), "--a0", "8,16",
            "--runs", "5", "--seed", "11", "-o", str(out),
        ]) == 0
        lines = (out / "runs.jsonl").read_text().splitlines()
        log = tmp_path / "altered.jsonl"
        log.write_text("\n".join(mutate(lines)) + "\n")
        capsys.readouterr()
        assert run_cli(["stats", "--log", str(log)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"altered.jsonl:{line}:" in err

    def test_missing_log_is_io_error(self, tmp_path):
        assert run_cli(["stats", "--log", str(tmp_path / "nope.jsonl")]) == 3

    @pytest.mark.parametrize(
        "rho, message",
        [
            ("nan", "cost ratios must be finite and positive"),
            ("1,inf", "cost ratios must be finite and positive"),
            ("-1,0", "cost ratios must be finite and positive"),
            ("10,10", "cost ratios must be distinct"),
        ],
        ids=["nan", "inf", "nonpositive", "repeated"],
    )
    def test_bad_cost_ratios_rejected(self, run_log_file, capsys, rho, message):
        capsys.readouterr()
        assert run_cli(["stats", "--log", str(run_log_file), f"--rho={rho}"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""

    @pytest.mark.parametrize(
        "algorithm, alter, message",
        [
            ("rc", {"outcome": "AbortAtStep", "found_set": None, "k": None,
                    "abort_step": -3}, "is not a positive integer"),
            ("rc", {"outcome": "AbortAtStep", "found_set": None, "k": None,
                    "abort_step": 0}, "is not a positive integer"),
            ("rc", {"outcome": "AbortAtStep", "found_set": None, "k": None,
                    "abort_step": None}, "is not a positive integer"),
            ("rc", {"outcome": "Found", "found_set": [0, 1], "k": 2,
                    "abort_step": 2}, "does not fit outcome Found"),
            ("rc", {"outcome": "AbortInitial", "found_set": None, "k": None,
                    "abort_step": 1}, "does not fit outcome AbortInitial"),
            ("sight", {"abort_step": None}, "sight run record has an 'abort_step'"),
        ],
        ids=["negative", "zero", "missing-step", "found", "abort-initial", "sight"],
    )
    def test_abort_step_must_fit_outcome(
        self, run_log_file, tmp_path, capsys, algorithm, alter, message
    ):
        lines = run_log_file.read_text().splitlines()
        at = next(i for i, line in enumerate(lines)
                  if json.loads(line)["algorithm"] == algorithm)
        lines[at] = json.dumps({**json.loads(lines[at]), **alter})
        log = tmp_path / "altered.jsonl"
        log.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli(["stats", "--log", str(log)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {log}:{at + 1}: ") and message in err

    @pytest.mark.parametrize(
        "algorithm, outcome",
        [("sight", "AbortAtStep"), ("sight", "AbortNoMinimal"),
         ("rc", "AbortTooLarge")],
    )
    def test_outcome_must_fit_algorithm(
        self, run_log_file, tmp_path, capsys, algorithm, outcome
    ):
        lines = run_log_file.read_text().splitlines()
        at = next(i for i, line in enumerate(lines)
                  if json.loads(line)["algorithm"] == algorithm)
        alter = {"outcome": outcome, "found_set": None, "k": None}
        if algorithm == "rc":
            alter["abort_step"] = None
        lines[at] = json.dumps({**json.loads(lines[at]), **alter})
        log = tmp_path / "altered.jsonl"
        log.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli(["stats", "--log", str(log)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {log}:{at + 1}: ")
        assert f"{algorithm} run record has outcome {outcome}" in err

    @pytest.mark.parametrize(
        "alteration, message",
        [
            ("reversed", "is not a strictly ascending list"),
            ("repeated", "is not a strictly ascending list"),
            ("negative", "is not a strictly ascending list"),
            ("initial-abort", "both or neither must be AbortInitial"),
        ],
        ids=["reversed", "repeated", "negative", "initial-abort"],
    )
    def test_altered_found_sets_and_initial_aborts_exit_2(
        self, run_log_records, tmp_path, capsys, alteration, message
    ):
        records = [dict(r) for r in run_log_records]
        if alteration == "initial-abort":
            at = next(i for i, r in enumerate(records)
                      if r["algorithm"] == "rc" and r["outcome"] == "AbortInitial")
            records[at]["outcome"] = "AbortNoMinimal"
            line = at  # the pair's first line, its sight record, is line at
        else:
            at = next(i for i, r in enumerate(records)
                      if r["algorithm"] == "rc" and r["found_set"])
            line = at + 1
            found = records[at]["found_set"]
            records[at]["found_set"] = {
                "reversed": found[::-1],
                "repeated": [found[0]] * len(found),
                "negative": [-1, *found[1:]],
            }[alteration]
        log = tmp_path / "altered.jsonl"
        log.write_text("".join(json.dumps(r) + "\n" for r in records))
        capsys.readouterr()
        assert run_cli(["stats", "--log", str(log)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {log}:{line}: ") and message in err, err

    def test_positive_abort_step_is_read(self, run_log_records, tmp_path):
        # A pair that passed its initial test, so rc may abort at a step.
        records = [dict(r) for r in run_log_records]
        at = next(i for i, r in enumerate(records)
                  if r["algorithm"] == "rc" and r["outcome"] == "Found")
        records[at].update(outcome="AbortAtStep", found_set=None, k=None, abort_step=3)
        log = tmp_path / "altered.jsonl"
        log.write_text("".join(json.dumps(r) + "\n" for r in records))
        _, cells = read_run_log(log)
        assert cells[records[at]["a0"]][records[at]["seed"]].rc.abort_step == 3


# A config.json that `run` could have written beside `TestStatsBounds.run_dir`'s log.
_LOGGED = {"family": "family.json", "a0": [8, 16], "runs": 20, "kmin": 2, "kmax": 4,
           "tmax": 20, "pfn": 0.05, "seed": 5, "rho": [1.0], "label": "x", "threads": 1}


class TestStatsBounds:
    """With the run's config.json beside the log, `stats` checks every record."""

    @pytest.fixture
    def run_dir(self, family_file, tmp_path):
        out = tmp_path / "out"
        assert run_cli([
            "run", "--family", str(family_file), "--a0", "8,16", "--runs", "20",
            "--pfn", "0.05", "--seed", "5", "-o", str(out),
        ]) == 0
        return out

    @staticmethod
    def stats(out, capsys) -> tuple[int, str]:
        capsys.readouterr()
        code = run_cli(["stats", "--log", str(out / "runs.jsonl"), "-o", str(out / "s.csv")])
        return code, capsys.readouterr().err

    @staticmethod
    def alter(out, pick, change) -> int:
        """Apply `change` to the first record `pick` accepts; its line number."""
        records = [json.loads(line) for line in (out / "runs.jsonl").read_text().splitlines()]
        at = next(i for i, r in enumerate(records) if pick(r))
        change(records[at])
        (out / "runs.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
        return at + 1

    @pytest.mark.parametrize(
        "pick, change, message",
        [
            (lambda r: r["algorithm"] == "sight",
             lambda r: r.update(negatives=sight_max_tests(r["a0"], 2, 4) + 1),
             "above its worst case of"),
            (lambda r: r["algorithm"] == "rc",
             lambda r: r.update(negatives=rc_max_tests(build_schedule(r["a0"], 4), 20, 2, 4) + 1),
             "above its worst case of"),
            (lambda r: r["algorithm"] == "rc",
             lambda r: r.update(positives=rc_max_positive(len(build_schedule(r["a0"], 4))) + 1,
                                negatives=0),
             "positive tests, above its worst case of"),
            (lambda r: r["algorithm"] == "rc" and r["outcome"] == "Found",
             lambda r: r.update(outcome="AbortAtStep", found_set=None, k=None,
                                abort_step=len(build_schedule(r["a0"], 4))),
             "steps of its schedule"),
            (lambda r: r["outcome"] == "Found",
             lambda r: r.update(found_set=list(range(5)), k=5),
             "found set of size 5 lies outside sizes 2..4"),
        ],
        ids=["sight-tests", "rc-tests", "rc-positives", "rc-abort-step", "found-size"],
    )
    def test_record_past_a_bound_exits_2_naming_its_line(
        self, run_dir, capsys, pick, change, message
    ):
        line = self.alter(run_dir, pick, change)
        code, err = self.stats(run_dir, capsys)
        assert code == 2
        assert err.startswith(f"error: {run_dir / 'runs.jsonl'}:{line}: ") and message in err, err
        # Without the config beside it, the same log is read as it stands.
        (run_dir / "config.json").unlink()
        assert self.stats(run_dir, capsys)[0] == 0

    @pytest.mark.parametrize(
        "keep, held",
        [
            (lambda r: r["a0"] == 8, "a0 [8] with 20 pairs per cell"),
            (lambda r: r["seed"] < 12, "a0 [8, 16] with 12 pairs per cell"),
        ],
        ids=["cut-cell", "cut-pairs"],
    )
    def test_log_cut_short_of_the_config_grid_exits_2(self, run_dir, capsys, keep, held):
        log = run_dir / "runs.jsonl"
        lines = [line for line in log.read_text().splitlines(keepends=True)
                 if keep(json.loads(line))]
        log.write_text("".join(lines))
        code, err = self.stats(run_dir, capsys)
        assert code == 2
        assert err.startswith(f"error: {log}: holds {held}, but its run had "
                              "a0 [8, 16] with 20"), err
        (run_dir / "config.json").unlink()
        assert self.stats(run_dir, capsys)[0] == 0

    def test_window_comes_from_the_config(self, run_dir, capsys):
        config = json.loads((run_dir / "config.json").read_text())
        (run_dir / "config.json").write_text(json.dumps({**config, "kmin": 3}))
        records = [json.loads(line) for line in (run_dir / "runs.jsonl").read_text().splitlines()]
        line = next(i for i, r in enumerate(records) if r["k"] == 2) + 1
        code, err = self.stats(run_dir, capsys)
        assert code == 2 and f"runs.jsonl:{line}: found set of size 2 lies outside sizes 3..4" in err

    @pytest.mark.parametrize(
        "change",
        [{"pfn": "x"}, {"seed": -1}, {"threads": 0}, {"family": 7}, {"a0": [8, 8]},
         {"kmax": 9}],
        ids=["pfn-string", "seed-negative", "threads-0", "family-number", "a0-repeated",
             "kmax-above-a0"],
    )
    def test_value_run_could_not_write_exits_2_naming_the_config(
        self, run_dir, capsys, change
    ):
        config = json.loads((run_dir / "config.json").read_text())
        (run_dir / "config.json").write_text(json.dumps({**config, **change}))
        code, err = self.stats(run_dir, capsys)
        assert code == 2 and err.startswith(f"error: {run_dir / 'config.json'}: "), err

    @pytest.mark.parametrize("key", ["rusn", "out", ""])
    def test_key_run_never_writes_exits_2_naming_the_config(self, run_dir, capsys, key):
        config = json.loads((run_dir / "config.json").read_text())
        (run_dir / "config.json").write_text(json.dumps({**config, key: 10}))
        code, err = self.stats(run_dir, capsys)
        assert code == 2
        assert err == f"error: {run_dir / 'config.json'}: unknown key '{key}'\n", err

    @pytest.mark.parametrize("key", list(SETTING_VALUES))
    def test_stats_reads_back_the_config_run_built(
        self, family_file, tmp_path, monkeypatch, key
    ):
        built = []

        def run_experiment(family, config):
            built.append(config)
            return harness.run_experiment(family, config)

        monkeypatch.setattr(cli, "run_experiment", run_experiment)
        out = tmp_path / "out"
        values = {"family": str(family_file), "a0": "8", "runs": "4",
                  key: SETTING_VALUES[key], "out": str(out)}
        assert run_cli(["run", *(arg for k, v in values.items() for arg in (f"--{k}", v))]) == 0
        assert cli._logged_run(out / "runs.jsonl") == built[0]

    def test_config_run_could_write_passes(self, run_dir, capsys):
        # The record each malformed config below changes in one value.
        (run_dir / "config.json").write_text(json.dumps(_LOGGED))
        assert self.stats(run_dir, capsys) == (0, "")

    @pytest.mark.parametrize(
        "text",
        [
            "{",
            "[]",
            json.dumps({key: value for key, value in _LOGGED.items() if key != "tmax"}),
            *(json.dumps({**_LOGGED, **change})
              for change in ({"kmin": "2"}, {"tmax": 20.0}, {"kmin": 5}, {"kmin": 1},
                             {"tmax": 0}, {"kmin": True},
                             {"rho": "1,2"}, {"rho": [1, "x"]}, {"rho": [True]},
                             {"rho": [1, 1.0]}, {"rho": [-1]}, {"rho": [10**400]},
                             {"rho": None}, {"label": 3}, {"label": None},
                             {"a0": []}, {"a0": [8, "16"]}, {"a0": 8},
                             {"runs": 0}, {"runs": 20.0})),
        ],
        ids=["not-json", "not-object", "no-tmax", "string", "float", "kmin-above-kmax",
             "kmin-1", "tmax-0", "bool", "rho-string", "rho-member-string", "rho-bool",
             "rho-repeated", "rho-negative", "rho-huge", "rho-null", "label-number",
             "label-null", "a0-empty", "a0-member-string", "a0-number", "runs-0",
             "runs-float"],
    )
    def test_malformed_config_exits_2_naming_it(self, run_dir, capsys, text):
        (run_dir / "config.json").write_text(text)
        code, err = self.stats(run_dir, capsys)
        assert code == 2 and err.startswith(f"error: {run_dir / 'config.json'}: "), err


_DROP = object()
_OTHER_TYPES = (None, True, 7, 2.5, "x", [], [3], {}, {"a": 1})


def _paths(value, path=()):
    """Paths to every value nested inside `value`, the root excluded."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


_SWAP = object()


@st.composite
def mutated_value(draw, data):
    """`data` with one nested value dropped, retyped, swapped within its list or,
    if an integer, altered."""
    data = copy.deepcopy(data)
    *head, last = draw(st.sampled_from(list(_paths(data))))
    parent = reduce(lambda node, key: node[key], head, data)
    value = parent[last]
    options = [_DROP]
    if isinstance(parent, list) and len(parent) > 1:
        options.append(_SWAP)
    options.extend(v for v in _OTHER_TYPES if type(v) is not type(value))
    if type(value) is int:
        options.extend([value - 1, value + 1, float(value), False, str(value)])
    choice = draw(st.sampled_from(options))
    if choice is _DROP:
        del parent[last]
    elif choice is _SWAP:
        other = draw(st.sampled_from([j for j in range(len(parent)) if j != last]))
        parent[last], parent[other] = parent[other], value
    else:
        parent[last] = copy.deepcopy(choice)
    return data


# A record's outcome and the fields that depend on it.
_OUTCOME_FIELDS = ("outcome", "found_set", "k", "abort_step")


@st.composite
def mutated_lines(draw, records):
    """`records` with one record mutated, one line duplicated, dropped or
    swapped, or the outcomes of two records swapped.

    An outcome swap is between the two records of a pair or between any
    two records; records come in pair order, sight first.
    """
    records = [dict(r) for r in records]
    kind = draw(st.sampled_from(["value", "duplicate", "drop", "swap", "outcome"]))
    i = draw(st.integers(0, len(records) - 1))
    if kind == "value":
        records[i] = draw(mutated_value(records[i]))
    elif kind == "duplicate":
        records.insert(i, records[i])
    elif kind == "drop":
        del records[i]
    elif kind == "swap":
        j = draw(st.integers(0, len(records) - 1))
        records[i], records[j] = records[j], records[i]
    else:
        j = draw(st.one_of(st.just(i ^ 1), st.integers(0, len(records) - 1)))
        a, b = records[i], records[j]
        from_a = {key: a.pop(key) for key in _OUTCOME_FIELDS if key in a}
        from_b = {key: b.pop(key) for key in _OUTCOME_FIELDS if key in b}
        a.update(from_b)
        b.update(from_a)
    return records


def cli_quietly(argv) -> tuple[int, str]:
    """Exit code and stderr of the CLI; an uncaught exception propagates."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def canonical(value) -> str:
    """JSON text that tells 1, 1.0 and true apart."""
    return json.dumps(value, sort_keys=True)


@pytest.fixture(scope="module")
def run_log_records(family_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("log")
    assert run_cli([
        "run", "--family", str(family_file), "--a0", "16,40", "--runs", "4",
        "--pfn", "0.05", "--seed", "1", "-o", str(out),
    ]) == 0
    return [json.loads(line) for line in (out / "runs.jsonl").read_text().splitlines()]


class TestMutatedInputs:
    """A mutated input either reads as exactly what it says or exits 2."""

    FAMILY = {"universe_size": 12, "planted": [[0, 1], [1, 2, 3], [4, 5, 6, 7]],
              "seed": 3}

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=mutated_value(FAMILY))
    def test_family_file(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            fam = Path(tmp) / "fam.json"
            fam.write_text(json.dumps(data))
            code, err = cli_quietly([
                "run", "--family", str(fam), "--a0", "6", "--runs", "2",
                "-o", str(Path(tmp) / "out"),
            ])
            if code == 0:
                saved = Path(tmp) / "saved.json"
                PlantedFamily.load(fam).save(saved)
                loaded = json.loads(saved.read_text())
                assert canonical(loaded) == canonical({"seed": None, **data})
            else:
                assert code == 2 and err.startswith("error: "), err

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_run_log(self, run_log_records, data):
        records = data.draw(mutated_lines(run_log_records))
        with tempfile.TemporaryDirectory() as tmp:
            log = Path(tmp) / "runs.jsonl"
            log.write_text("".join(json.dumps(r) + "\n" for r in records))
            code, err = cli_quietly(["stats", "--log", str(log)])
            if code == 0:
                _, cells = read_run_log(log)
                read = [
                    res.to_record(pair.pair_id)
                    for pairs in cells.values()
                    for pair in pairs
                    for res in (pair.sight, pair.rc)
                ]
                assert sorted(map(canonical, read)) == sorted(map(canonical, records))
                # What a valid log always holds: found sets are strictly
                # ascending and both sides of a pair abort at the initial
                # test or neither does.
                for pair in (p for pairs in cells.values() for p in pairs):
                    for res in (pair.sight, pair.rc):
                        if res.found is not None:
                            assert list(res.found) == sorted(set(res.found))
                            assert len(res.found) >= 2 and res.found[0] >= 0
                    assert (pair.sight.outcome is RunOutcome.ABORT_INITIAL) == (
                        pair.rc.outcome is RunOutcome.ABORT_INITIAL
                    )
            else:
                assert code == 2 and err.startswith("error: "), err


class TestEntryPoints:
    def test_version_flag(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["--version"])
        assert exc.value.code == 0

    def test_module_invocation(self, tmp_path):
        out = tmp_path / "fam.json"
        proc = subprocess.run(
            [sys.executable, "-m", "groupsight", "generate", "--n", "20",
             "--k2", "3", "-o", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_no_command_imports_numpy_ma(self, tmp_path):
        # `numpy.ma` costs about 6 ms and 1.4 MB of memory to import; the
        # first `np.unique` without counts in a process imports it. Each
        # command runs in a process of its own, which exits 1 if it did.
        script = (
            "import sys\n"
            "from groupsight.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "sys.exit('numpy.ma' in sys.modules)\n"
        )
        fam, out = tmp_path / "fam.json", tmp_path / "out"
        commands = [
            ["generate", "--n", "60", "--k2", "10", "--k3", "10", "-o", str(fam)],
            ["run", "--family", str(fam), "--a0", "8,16", "--runs", "5",
             "--threads", "1", "-o", str(out)],
            ["stats", "--log", str(out / "runs.jsonl")],
            ["bounds", "--a0", "16"],
        ]
        importing = []
        for args in commands:
            proc = subprocess.run([sys.executable, "-c", script, *args],
                                  capture_output=True, text=True)
            assert proc.returncode in (0, 1), proc.stderr
            if proc.returncode:
                importing.append(args[0])
        assert importing == []

    def test_only_building_cells_imports_array(self, tmp_path):
        # The `array` module holds about 0.1 MB resident, and generation
        # sets the peak of `generate`; a cell's columns are its only use.
        fam = tmp_path / "fam.json"
        script = (
            "import sys\n"
            "from groupsight import PlantedFamily, cli\n"
            f"assert cli.main(['generate', '--n', '60', '--k2', '10', '-o', {str(fam)!r}]) == 0\n"
            f"PlantedFamily.load({str(fam)!r})\n"
            "assert 'array' not in sys.modules\n"
            f"assert cli.main(['run', '--family', {str(fam)!r}, '--a0', '8', '--runs', '2',\n"
            f"                 '-o', {str(tmp_path / 'out')!r}]) == 0\n"
            "assert 'array' in sys.modules\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_only_a_pool_run_imports_the_pool(self, tmp_path):
        # `concurrent.futures` and `multiprocessing` (with `logging` and
        # `socket`) hold about 2 MB resident. `generate`, `stats` and a
        # one-thread `run` never start a pool, so a fresh process that runs
        # them must not import it; `harness.ProcessPoolExecutor` still reads
        # as the class, and a class bound in its place is the one started.
        fam, out = tmp_path / "fam.json", tmp_path / "out"
        script = (
            "import sys\n"
            "import groupsight\n"
            "import groupsight.cli\n"
            "from groupsight import ExperimentConfig, PlantedFamily, harness, run_experiment\n"
            f"fam, out = {str(fam)!r}, {str(out)!r}\n"
            "main = groupsight.cli.main\n"
            "assert main(['generate', '--n', '60', '--k2', '10', '--k3', '10', '-o', fam]) == 0\n"
            "assert main(['run', '--family', fam, '--a0', '8,16', '--runs', '5',\n"
            "             '--threads', '1', '-o', out]) == 0\n"
            "assert main(['stats', '--log', out + '/runs.jsonl']) == 0\n"
            "loaded = [m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules]\n"
            "assert not loaded, loaded\n"
            "from concurrent.futures import ProcessPoolExecutor\n"
            "assert harness.ProcessPoolExecutor is ProcessPoolExecutor\n"
            "started = []\n"
            "class Counting(harness.ProcessPoolExecutor):\n"
            "    def __init__(self, *args, **kwargs):\n"
            "        started.append(kwargs['max_workers'])\n"
            "        super().__init__(*args, **kwargs)\n"
            "harness.ProcessPoolExecutor = Counting\n"
            "config = ExperimentConfig(a0_grid=(8,), runs_per_cell=4, threads=2)\n"
            "pooled = run_experiment(PlantedFamily.load(fam), config)\n"
            "assert len(started) == 1, started\n"
            "alone = run_experiment(PlantedFamily.load(fam), ExperimentConfig((8,), 4))\n"
            "assert pooled.cells == alone.cells\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_help_mentions_all_subcommands(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(["--help"])
        out = capsys.readouterr().out
        for sub in ("generate", "run", "bounds", "stats"):
            assert sub in out
