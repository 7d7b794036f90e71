"""Golden digests: the exact output bytes of a small fixed CLI run.

Any change to how the random streams are consumed, how the oracle
charges its ledger, or how outputs are formatted changes these digests.
A change that alters them on purpose must say so and show that the
acceptance criteria still hold.

The family has a tier of 5-sets above k_max = 4 and the run has false
negatives, so every outcome type appears: initial aborts, finds,
AbortTooLarge, AbortAtStep and AbortNoMinimal.
"""

import hashlib

import pytest

from groupsight.cli import main as cli_main

FAMILY_SHA256 = "800c85dbd80e2042fbca74936730c4334a6edea2f21e4f8d5f2ad4dc2fec5c1b"
RUNS_SHA256 = "f0e943292fbc6c91c675620473105fdddf54b071d5cee245caed7848a287a2fd"
SUMMARY_SHA256 = "dea708b3e4ec844d5f457fd08af93fee4d560af56b16dfdc2041c96e10bbf8df"

# A k_max = 6 run on a family with 5- and 6-sets, p_fn 0.05: the
# deterministic sampler looks up sets of up to k_max nodes in its registry
# of tested sets, and a registry that dropped the 5- and 6-sets changes
# these bytes.
K6_RUNS_SHA256 = "16ed455c5dbcfa05b3cfb23efcb352bf9b0016dca9382bfeb5ebd93c6883e3ff"
K6_SUMMARY_SHA256 = "eb77510ebffc14de76b3ecb46550ca10a5c95b923c4e1f54f2c40d5700deaf89"

# A noise-on run at a0 80 and 176 on the benchmark's 31,200-set family,
# p_fn 0.01: rc draws subsets of up to 88 nodes and the masks are up to
# 176 bits wide, beyond the 48-node samples of the runs above.
LARGE_A0_RUNS_SHA256 = "884891584f35fd45e4b5b40a0d0390a4d61de041214e6482778ef05cfcd2f117"
LARGE_A0_SUMMARY_SHA256 = "6be2a3a895aefb44c6d453db20310014b57ced781262ee14eb1c2bece740a389"

# `groupsight generate` bytes of the benchmark's 31,200-set family, of its
# 301,200-set acceptance family (pinned before generation drew its batches
# as member columns from raw 32-bit words), of a family whose set keys are
# too wide for int64 (1000**7 > 2**63), and of a tier that draws about 450
# repeated sets before it starts counting its distinct ones, fewer than
# 1,024 short of its target.
GENERATE_SHA256 = {
    "n1000-k2-k3-k4-k5": (
        ["--n", "1000", "--k2", "400", "--k3", "400", "--k4", "400",
         "--k5", "30000", "--seed", "20250810"],
        "9bbb1e2dc9db97f1c026e0159cbd816d3d0b17fdbcd8fcbab3b5d3d4d2c595ea",
    ),
    "n1000-k2-k3-k4-k5-acceptance": (
        ["--n", "1000", "--k2", "400", "--k3", "400", "--k4", "400",
         "--k5", "300000", "--seed", "20250810"],
        "d9e68a0b66bc6f2eae5f672a52b9bfd2ca80eae4f31db7caf42eeb17c589af18",
    ),
    "n1000-k7-k8": (
        ["--n", "1000", "--k7", "20", "--k8", "20"],
        "fb167301c7acfab3433715a8a61b6ded43c044d054c9123a770227abb9dddd59",
    ),
    "n40-k3": (
        ["--n", "40", "--k3", "4000", "--seed", "2"],
        "5fee2af5df1a4f383e57c82f3079c11250282594ef56e30efc36cc7bdc513bda",
    ),
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def golden_family(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "fam.json"
    assert cli_main([
        "generate", "--n", "60", "--k2", "10", "--k3", "10", "--k5", "300",
        "--seed", "31", "-o", str(path),
    ]) == 0
    return path


def test_family_bytes(golden_family):
    assert sha256(golden_family) == FAMILY_SHA256


@pytest.mark.parametrize("name", GENERATE_SHA256)
def test_generate_bytes(tmp_path, name):
    args, digest = GENERATE_SHA256[name]
    path = tmp_path / "fam.json"
    assert cli_main(["generate", *args, "-o", str(path)]) == 0
    assert sha256(path) == digest


@pytest.mark.parametrize("threads", [1, 2])
def test_run_bytes(golden_family, tmp_path, threads):
    out = tmp_path / "out"
    assert cli_main([
        "run", "--family", str(golden_family), "--a0", "8,16,32", "--runs", "100",
        "--kmin", "2", "--kmax", "4", "--tmax", "20", "--pfn", "0.05",
        "--seed", "7", "--threads", str(threads), "--label", "golden",
        "-o", str(out),
    ]) == 0
    assert sha256(out / "runs.jsonl") == RUNS_SHA256
    assert sha256(out / "summary.csv") == SUMMARY_SHA256


@pytest.fixture(scope="module")
def cli_family(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "fam.json"
    args = GENERATE_SHA256["n1000-k2-k3-k4-k5"][0]
    assert cli_main(["generate", *args, "-o", str(path)]) == 0
    return path


@pytest.mark.parametrize("threads", [1, 2])
def test_run_bytes_at_large_a0(cli_family, tmp_path, threads):
    out = tmp_path / "out"
    assert cli_main([
        "run", "--family", str(cli_family), "--a0", "80,176", "--runs", "100",
        "--pfn", "0.01", "--seed", "7", "--threads", str(threads),
        "--label", "large-a0", "-o", str(out),
    ]) == 0
    assert sha256(out / "runs.jsonl") == LARGE_A0_RUNS_SHA256
    assert sha256(out / "summary.csv") == LARGE_A0_SUMMARY_SHA256


def test_run_bytes_at_k_max_6(tmp_path):
    family = tmp_path / "fam.json"
    assert cli_main([
        "generate", "--n", "60", "--k2", "4", "--k3", "6", "--k5", "40",
        "--k6", "60", "--seed", "5", "-o", str(family),
    ]) == 0
    out = tmp_path / "out"
    assert cli_main([
        "run", "--family", str(family), "--a0", "16,32,48", "--runs", "100",
        "--kmin", "2", "--kmax", "6", "--pfn", "0.05", "--seed", "11",
        "--label", "k6", "-o", str(out),
    ]) == 0
    assert sha256(out / "runs.jsonl") == K6_RUNS_SHA256
    assert sha256(out / "summary.csv") == K6_SUMMARY_SHA256
