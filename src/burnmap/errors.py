"""Exception hierarchy shared across the package.

The CLI maps these onto distinct exit codes (config 2, data 3, divergence 4).
"""


class BurnmapError(Exception):
    """Base class for all package errors."""


class ConfigError(BurnmapError):
    """Invalid or inconsistent configuration (bad key, bad value, degenerate setup)."""


class DataError(BurnmapError):
    """Invalid input data: dimension mismatches, missing bands, empty strata."""


class FormatError(DataError):
    """Malformed on-disk record. Carries the byte offset where parsing failed."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class FitError(DataError):
    """Training data cannot support a fit (e.g. a single class present)."""


class DivergenceError(BurnmapError):
    """Optimization produced a non-finite loss, parameter or running statistic."""

    def __init__(self, message: str, epoch: int | None = None):
        super().__init__(message)
        self.epoch = epoch
