"""Exception hierarchy for opelab."""


class OpelabError(Exception):
    """Base class for all opelab errors."""


class ConfigurationError(OpelabError):
    """Unsupported family, bad parameters, or invalid experiment config."""


class PreconditionError(OpelabError):
    """An operation was called outside its documented preconditions."""


class InstabilityError(OpelabError):
    """Loss of positivity in a computed recurrence coefficient."""

    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        super().__init__(
            f"recurrence coefficient b_{index} lost positivity (got {value!r})"
        )


class DomainError(OpelabError):
    """Evaluation point left the support of the measure."""


class NumericalError(OpelabError):
    """An underlying numerical routine failed (eigensolver, determinant)."""


class SamplingStallError(OpelabError):
    """Rejection sampling exceeded its iteration cap."""

    def __init__(self, point_index: int, tries: int, state: dict):
        self.point_index = point_index
        self.tries = tries
        self.state = state
        super().__init__(
            f"rejection sampling stalled at point {point_index} after {tries} proposals"
        )
