"""Exception taxonomy shared by the transform, protocol, and harness layers."""


class MeanTestError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(MeanTestError):
    """A dimension is not a power of two, blocks do not divide, or shapes disagree."""


class ParameterError(MeanTestError):
    """A numeric parameter is outside its admissible range."""


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
