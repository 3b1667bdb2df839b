"""Exception taxonomy shared by the transform, protocol, and harness layers,
and `check_at_least`, the one lower-bound check of every count, budget,
length and seed the package takes."""


class MeanTestError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(MeanTestError):
    """A dimension is not a power of two, blocks do not divide, or shapes disagree."""


class ParameterError(MeanTestError):
    """A numeric parameter is outside its admissible range."""


def check_at_least(value, low: int, what: str) -> None:
    """The lower bound of every count, budget, length and seed: value >= low.
    It compares one number, so it costs one comparison on a trial's hot
    path; a caller holding an array passes its least entry."""
    if value < low:
        raise ParameterError(f"{what} must be >= {low}, got {value}")


class BudgetExhaustedError(MeanTestError):
    """A draw from the shared random seed exceeded the remaining bit budget."""


class DegenerateInputError(MeanTestError):
    """Too few samples (or empty input) for the requested statistic."""


class InsufficientPopulationError(MeanTestError):
    """The user population cannot simulate even one referee sample."""


class InfeasiblePartitionError(MeanTestError):
    """No group assignment can meet the per-group communication requirement."""


class CalibrationFailedError(MeanTestError):
    """The doubling search hit its cap without reaching the target error;
    `audit_violations` holds the budget violations of the trials it ran."""

    def __init__(self, message: str, audit_violations: list[str] | None = None):
        super().__init__(message)
        self.audit_violations = list(audit_violations or [])
