"""Exception types shared across the package."""


def with_field(exc: Exception, field: str) -> Exception:
    """Tag a model error with the input field it concerns, e.g. ``transition[3]``.

    The scenario loader reads ``exc.field`` to report the error at its YAML path.
    """
    exc.field = field
    return exc


class RemestError(Exception):
    """Base class for all package-specific errors."""


class NonConvergentError(RemestError):
    """An iterative solver failed to reach its tolerance within its budget."""


class DimensionMismatchError(RemestError):
    """Matrix or vector shapes are inconsistent with the model."""


class UnreachableHoldingTimeError(RemestError):
    """The holding-time pair (state, delta) has zero probability of occurring."""


class InvalidChainError(RemestError):
    """A Markov chain violates a structural assumption."""


class NotIrreducibleError(InvalidChainError):
    """The chain is not irreducible on its reachable state set."""


class PeriodicChainError(InvalidChainError):
    """The chain is periodic on its reachable state set."""


class FrequencyOutOfRangeError(RemestError):
    """A selection vector references a frequency index outside 1..M."""


class DivergentSeriesError(RemestError):
    """A matrix series does not converge (unstable regime)."""


class InvalidActionError(RemestError):
    """A scheduling action violates the assignment constraints."""


class ScenarioError(RemestError):
    """Base class for scenario-file problems."""

    def __init__(self, message: str, path: str | None = None):
        self.path = path
        if path:
            message = f"{path}: {message}"
        super().__init__(message)


class ScenarioParseError(ScenarioError):
    """The scenario file is not syntactically valid."""


class ScenarioValidationError(ScenarioError):
    """The scenario file parsed but violates a model constraint."""
