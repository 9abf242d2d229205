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


def check_types(obj, rules: dict, what: str) -> None:
    """Apply each rule to ``obj``'s attribute of that name, discarding the
    result; a TypeError, ValueError, OverflowError or ConfigurationError
    raises ConfigurationError naming ``what`` and the key."""
    for key, rule in rules.items():
        try:
            rule(getattr(obj, key))
        except (TypeError, ValueError, OverflowError, ConfigurationError) as exc:
            raise ConfigurationError(f"{what} key {key!r}: {exc}") from exc


def as_int(v) -> int:
    """``v`` as an int; a bool or a non-integral value raises TypeError."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise TypeError(f"expected an integer, got {v!r}")
    return int(v)


def at_least(low: int):
    """The rule taking ``v`` as an int (``as_int``) >= ``low``; a smaller one
    raises ValueError."""
    def rule(v) -> int:
        n = as_int(v)
        if n < low:
            raise ValueError(f"expected an integer >= {low}, got {v!r}")
        return n
    return rule


as_seed = at_least(0)  # a seed numpy's generators take
as_count = at_least(1)


def as_float(v) -> float:
    """``v`` as a float; a bool or a non-real value raises TypeError."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise TypeError(f"expected a number, got {v!r}")
    return float(v)


def as_ints(v) -> tuple:
    """``v`` as a tuple of ints, each by ``as_int``."""
    return tuple(map(as_int, v))


def as_floats(v) -> tuple:
    """``v`` as a tuple of floats, each by ``as_float``."""
    return tuple(map(as_float, v))
