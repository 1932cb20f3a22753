"""Exception hierarchy shared across the package."""

from contextlib import contextmanager


class FundlensError(Exception):
    """Base class for all package errors."""


class ConfigError(FundlensError):
    """Bad run configuration or missing referenced path (exit code 2)."""


class DataError(FundlensError):
    """Bad data or shape mismatch at runtime (exit code 3); ``reason`` is the
    code ingest rejects a record under, by default the class name."""

    def __init__(self, message="", reason=None):
        super().__init__(message)
        self.reason = reason or type(self).__name__


class InvalidGoal(DataError):
    pass


class InvalidAmount(DataError):
    pass


class InvalidRatio(DataError):
    pass


class SchemaError(DataError):
    pass


class ParseError(DataError):
    pass


class ShapeError(DataError):
    pass


class RangeError(DataError):
    pass


class DegenerateInput(DataError):
    pass


class InsufficientData(DataError):
    pass


class EmptyDataset(DataError):
    pass


class EmptySetting(DataError):
    pass


class InvalidMatrix(DataError):
    pass


class SpecError(DataError):
    pass


class InvalidDf(FundlensError):
    pass


class DomainError(FundlensError):
    pass


class NonConvergence(FundlensError):
    """Iterative numeric routine failed to converge; never a silent wrong value."""


class SurrogateUnavailable(FundlensError):
    """Lexicon lacks the categories the surrogate summary variable needs."""


@contextmanager
def utf8_input(path):
    """Raise a UnicodeDecodeError met while reading ``path`` as a ParseError."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from None
