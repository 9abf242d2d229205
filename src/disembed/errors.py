"""Exception hierarchy shared across the package."""


class DisembedError(Exception):
    """Base class for all package errors."""


class ConfigurationError(DisembedError):
    """Invalid configuration: bad dimensions, illegal variant combination, bad config file."""


class DatasetError(DisembedError):
    """Unusable dataset: parse failures, degenerate label structure, bad splits."""


class GraphError(DisembedError):
    """Contract violation in the computation graph (non-scalar loss, shape mismatch)."""


class TrainingDivergedError(DisembedError):
    """Training produced a non-finite loss."""

    def __init__(self, message, epoch=None):
        super().__init__(message)
        self.epoch = epoch
