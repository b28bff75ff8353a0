"""Exception types shared across the toolkit, the allowed ranges of configuration
values, whose violation raises ConfigError, and ``open_text``, every text input's reader."""

from __future__ import annotations

import io
import math
from typing import Callable, NamedTuple


class NmfsegError(Exception):
    """Base class for all toolkit errors."""


class IngestionError(NmfsegError):
    """Raised when an input file violates an ingestion precondition."""


class FormatError(NmfsegError):
    """Raised on malformed binary or text artifact files."""


class ConfigError(NmfsegError):
    """Raised on invalid configuration values."""


class DimensionError(NmfsegError):
    """Raised when matrix shapes do not agree."""


class NumericError(NmfsegError):
    """Raised when a computation produces non-finite values."""


class Range(NamedTuple):
    """An allowed range: its description for error messages, and its predicate."""

    allowed: str
    ok: Callable

    def check(self, key: str, value, where: str = "") -> None:
        if not self.ok(value):
            raise ConfigError(f"{where}{key} must be {self.allowed}, got {value!r}")


SIZE = Range("an integer >= 1", lambda v: v >= 1)
SEED = Range("an integer >= 0", lambda v: v >= 0)
NONNEG = Range("finite and >= 0", lambda v: math.isfinite(v) and v >= 0)
POSITIVE = Range("finite and > 0", lambda v: math.isfinite(v) and v > 0)
UNIT = Range("in (0, 1)", lambda v: 0.0 < v < 1.0)
BOOL = Range("a boolean", lambda v: True)


def open_text(path, error: type[NmfsegError] = FormatError, newline: str | None = None) -> io.StringIO:
    """The UTF-8 file ``path`` read whole, as ``open(path, newline=newline)`` reads
    text; a byte sequence that is not UTF-8 raises ``error`` naming the file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return io.StringIO(blob.decode("utf-8"), newline=newline)
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: byte {blob[exc.start]:#04x} at offset {exc.start}") from None
