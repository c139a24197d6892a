"""Exception hierarchy shared across the package.

The CLI maps these onto distinct exit codes (config 2, data 3, divergence 4).
"""

from __future__ import annotations

from pathlib import Path


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


def read_text(path: str | Path, error: type[BurnmapError] = DataError) -> str:
    """The UTF-8 text of the file at ``path``. Content that is not UTF-8
    raises ``error`` naming the file and the first bad byte, so the CLI exits
    with that error's code rather than on a decoding traceback."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(
            f"{path} is not UTF-8 text: byte 0x{data[exc.start]:02x} at offset {exc.start}"
        ) from None
