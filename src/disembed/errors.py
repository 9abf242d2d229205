"""Exception hierarchy and the type rules of configuration values, shared
across the package."""

import numbers


class DisembedError(Exception):
    """Base class for all package errors."""


class ConfigurationError(DisembedError):
    """Invalid configuration: bad dimensions, illegal variant combination, bad config file."""


class DatasetError(DisembedError):
    """Unusable dataset: parse failures, degenerate label structure, bad splits."""


class TrainingDivergedError(DisembedError):
    """Training produced a non-finite loss."""

    def __init__(self, message, epoch=None):
        super().__init__(message)
        self.epoch = epoch


def as_int(v) -> int:
    """``v`` as an int; a bool or a non-integral value raises TypeError."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise TypeError(f"expected an integer, got {v!r}")
    return int(v)


def as_float(v) -> float:
    """``v`` as a float; a bool or a non-real value raises TypeError."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise TypeError(f"expected a number, got {v!r}")
    return float(v)
