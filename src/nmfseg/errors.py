"""Exception types shared across the toolkit, the allowed ranges of configuration
values, whose violation raises ConfigError, ``open_text``, every text input's
reader, and ``write_json`` and ``write_csv``, every JSON and CSV artifact's writer."""

from __future__ import annotations

import csv
import io
import json
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
WINDOW = Range("an integer >= 2", lambda v: v >= 2)  # a one-sample periodic Hann window is zero
# the mel filterbank of an odd n_fft would be laid out for n_fft - 1
FFT_SIZE = Range("an even integer >= 2", lambda v: v >= 2 and v % 2 == 0)
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


def write_json(path, payload) -> None:
    """``payload`` as JSON: two-space indent, sorted keys, one trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path, header: list, rows) -> None:
    """``header`` and then ``rows`` in ``csv``'s default dialect (``\\r\\n`` line ends)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
