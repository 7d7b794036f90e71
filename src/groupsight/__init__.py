"""Adaptive group-testing samplers for minimal defective k-sets.

Two samplers over a shared defectiveness oracle: a deterministic one
built on binary splitting of a randomly ordered sample, and a stochastic
one built on repeated random subset reduction. A planted-family oracle
supplies tunable synthetic test problems, and the harness runs paired
experiments comparing total-test and positive-test costs.
"""

from .backend import active_backend
from .bounds import (
    expected_planted_count,
    ratio_monotone_check,
    rc_max_positive,
    rc_max_tests,
    sight_max_positive,
    sight_max_tests,
)
from .errors import (
    EmptySelectionError,
    GroupsightError,
    InfeasibleCountsError,
    InvalidKError,
    ReplayError,
    SampleSizeError,
    ValidationError,
)
from .harness import (
    CellRuns,
    CellSummary,
    ExperimentConfig,
    ExperimentResult,
    FindRecord,
    PairResult,
    amortize,
    run_experiment,
    run_pair,
    summarize_cell,
)
from .oracle import (
    KSet,
    Oracle,
    PlantedFamily,
    TestLedger,
    generate_family,
    sample,
)
from .rc import RcConfig, bottom_up_rc, build_schedule, run_rc
from .results import RunOutcome, RunResult
from .rng import (
    ROLE_FAMILY,
    ROLE_INIT,
    ROLE_INIT_NOISE,
    ROLE_RC,
    ROLE_SIGHT,
    spawn_generator,
)
from .sight import SightConfig, bin_search, bottom_up_sight, run_sight
from .stats import MannWhitneyResult, mann_whitney_u

__version__ = "0.1.0"

__all__ = [
    "CellRuns",
    "CellSummary",
    "EmptySelectionError",
    "ExperimentConfig",
    "ExperimentResult",
    "FindRecord",
    "GroupsightError",
    "InfeasibleCountsError",
    "InvalidKError",
    "KSet",
    "MannWhitneyResult",
    "Oracle",
    "PairResult",
    "PlantedFamily",
    "RcConfig",
    "ReplayError",
    "ROLE_FAMILY",
    "ROLE_INIT",
    "ROLE_INIT_NOISE",
    "ROLE_RC",
    "ROLE_SIGHT",
    "RunOutcome",
    "RunResult",
    "SampleSizeError",
    "SightConfig",
    "TestLedger",
    "ValidationError",
    "active_backend",
    "amortize",
    "bin_search",
    "bottom_up_rc",
    "bottom_up_sight",
    "build_schedule",
    "expected_planted_count",
    "generate_family",
    "mann_whitney_u",
    "ratio_monotone_check",
    "rc_max_positive",
    "rc_max_tests",
    "run_experiment",
    "run_pair",
    "run_rc",
    "run_sight",
    "sample",
    "sight_max_positive",
    "sight_max_tests",
    "spawn_generator",
    "summarize_cell",
]
