"""Exception hierarchy for the linkpattern package."""


class LinkPatternError(Exception):
    """Base class for all package-specific errors."""


class DataConflictError(LinkPatternError):
    """Two observations for the same (i, j, t) key disagree."""


class DimensionMismatchError(LinkPatternError):
    """Factor matrices and tensor do not share consistent dimensions."""


class FormatError(LinkPatternError):
    """A serialized artifact is malformed (bad magic, version or length)."""


class TripleParseError(FormatError):
    """A triple text file failed to parse.

    Carries the 1-based line number of the offending line.
    """

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class DivergenceError(LinkPatternError):
    """The optimizer produced a non-finite objective value."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


class StallError(LinkPatternError):
    """Backtracking line search shrank the step below the underflow floor."""


class NotPositiveDefiniteError(LinkPatternError):
    """A matrix that must be positive-definite is not: a Gibbs precision
    after jitter retries, or a singular ridge system of a MAP row."""


class UndefinedMetricError(LinkPatternError):
    """AUC requested for a score set containing only one class."""


class DegenerateSplitError(LinkPatternError):
    """A holdout split left train or test without any fibers."""


class ConfigError(LinkPatternError):
    """Invalid run configuration (flags, config file or dataclass fields)."""
