"""Exception types shared across the package."""


class HmdlabError(Exception):
    """Base class for all hmdlab errors."""


class ParseError(HmdlabError):
    """CSV ingestion failure; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SplitSizeError(HmdlabError):
    """Train/test split would leave a class empty."""


class DataError(HmdlabError):
    """A trace, dataset, perturbation or count breaks its own invariants."""


class DegenerateDataError(HmdlabError):
    """Dataset lacks both labels or is otherwise unusable for the operation."""


class GroupingError(HmdlabError):
    """HPC grouping cannot satisfy the requested group count."""


class ConfigurationError(HmdlabError):
    """Invalid operation parameters."""


class FeatureMismatchError(HmdlabError):
    """A row does not provide every counter a classifier needs."""


class DivergenceError(HmdlabError):
    """Neural network training produced a non-finite loss."""

    def __init__(self, epoch):
        super().__init__(f"non-finite loss at epoch {epoch}")
        self.epoch = epoch


class UnsupportedModelError(HmdlabError):
    """Operation requires a different classifier algorithm."""


class OracleError(HmdlabError):
    """The black-box victim oracle failed while being queried."""


class ShapeError(HmdlabError):
    """Perturbation and trace dimensions disagree."""


class CounterRangeError(HmdlabError):
    """Counter arithmetic would overflow the 64-bit representation."""


class DomainError(HmdlabError):
    """Combinatorial argument outside its valid domain."""


class EmptyEvaluationError(HmdlabError):
    """Metrics or stream classification requested on zero iterations."""


class MappingError(HmdlabError):
    """Requested plot figure does not match the report's recipe."""
