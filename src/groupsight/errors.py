"""Exception types shared across the package."""


class GroupsightError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(GroupsightError, ValueError):
    """A parameter or input violates a documented precondition."""


class InvalidKError(ValidationError):
    """A planted-set size below 2 was requested (no defective 1-sets)."""


class InfeasibleCountsError(ValidationError):
    """Rejection sampling exhausted its retry budget for the requested counts."""


class SampleSizeError(ValidationError):
    """A sample of more elements than the pool holds was requested."""


class EmptySelectionError(ValidationError):
    """Binary search was invoked on an empty candidate list."""


class ReplayError(GroupsightError):
    """numpy no longer draws or seeds as the package replays it: `Generator.choice`
    as family generation does, or `SeedSequence` as paired runs' stream keys do."""
