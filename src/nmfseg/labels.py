"""Frame-level label files.

A label file is text: a header line ``FRAMES <hop-seconds> <C>`` followed by
one line per frame holding C space-separated symbols from {0, 1, -}.  The
"-" symbol marks a class as unannotated for that frame; when a frame range
is turned into a LabelMatrix, any "-" inside the range masks the whole class
out for that sample, which removes it from the classification loss.
"""

from __future__ import annotations

import numpy as np

from .errors import FormatError, open_text
from .network import LabelMatrix

UNANNOTATED = -1


# symbol code + 1 -> byte: -1 (unannotated) -> "-", 0 -> "0", 1 -> "1"
_SYMBOL_BYTES = np.frombuffer(b"-01", dtype=np.uint8)


def write_label_file(path, frames: np.ndarray, hop: float) -> None:
    """Write a (C, T) symbol matrix with entries in {0, 1, -1(=unannotated)}.

    The body is built as the (T, 2C) byte grid that ``_read_fixed_width``
    decodes (each symbol followed by a space, the last by a newline) and
    written in one call.
    """
    codes = np.asarray(frames).astype(np.int64)  # truncates toward zero, as int() does
    c, t = codes.shape
    if codes.size and (codes.min() < UNANNOTATED or codes.max() > 1):
        raise ValueError(f"label symbols must be 0, 1 or {UNANNOTATED}")
    grid = np.full((t, max(2 * c, 1)), ord(" "), dtype=np.uint8)
    grid[:, 0:2 * c:2] = _SYMBOL_BYTES[codes.T + 1]
    grid[:, -1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(f"FRAMES {hop:.6f} {c}\n".encode("ascii") + grid.tobytes())


def read_label_file(path) -> tuple[np.ndarray, float]:
    """Read back a (C, T) symbol matrix (entries 0/1/-1) and the hop.

    A file laid out exactly as ``write_label_file`` writes it is decoded in
    one pass over its bytes; anything else (blank lines, CRLF, extra spaces,
    C = 0, an unknown symbol) goes through the line-by-line parser, which
    accepts the same files and owns every error message.
    """
    with open(path, "rb") as fh:
        parsed = _read_fixed_width(fh.read())
    return parsed if parsed is not None else _read_lines(path)


def _read_lines(path) -> tuple[np.ndarray, float]:
    """The general parser: one text line at a time, every malformation named."""
    lines = [ln.rstrip("\n") for ln in open_text(path)]
    if not lines or not lines[0].startswith("FRAMES "):
        raise FormatError(f"{path}: missing FRAMES header")
    parts = lines[0].split()
    if len(parts) != 3:
        raise FormatError(f"{path}: malformed header {lines[0]!r}")
    try:
        hop = float(parts[1])
        c = int(parts[2])
    except ValueError:
        raise FormatError(f"{path}: malformed header {lines[0]!r}") from None
    if c < 0:
        raise FormatError(f"{path}: negative class count {c}")
    body = [ln for ln in lines[1:] if ln]
    lookup = {"0": 0, "1": 1, "-": UNANNOTATED}
    rows = []  # parsed before allocating, so a forged class count costs nothing
    for t, ln in enumerate(body):
        syms = ln.split()
        if len(syms) != c:
            raise FormatError(f"{path}: line {t + 2} has {len(syms)} symbols, expected {c}")
        try:
            rows.append([lookup[s] for s in syms])
        except KeyError as exc:
            raise FormatError(f"{path}: line {t + 2} has invalid symbol {exc.args[0]!r}") from exc
    frames = np.array(rows, dtype=np.int8).reshape(len(body), c)
    return np.ascontiguousarray(frames.T), hop


# byte -> symbol code for the fixed-width layout; 2 marks a byte that is no symbol
_SYMBOL_CODES = np.full(256, 2, dtype=np.int8)
_SYMBOL_CODES[[ord("0"), ord("1"), ord("-")]] = [0, 1, UNANNOTATED]


def _read_fixed_width(blob: bytes) -> tuple[np.ndarray, float] | None:
    """Decode the exact ``write_label_file`` layout, or None for any other file.

    Each of the T frame lines is C one-byte symbols joined by single spaces
    and ended by one newline, so the body is a (T, 2C) byte grid.
    """
    end = blob.find(b"\n")
    if end < 0 or not blob[:end].isascii() or b"\r" in blob[:end]:
        return None
    header = blob[:end].decode("ascii")
    parts = header.split()
    if not header.startswith("FRAMES ") or len(parts) != 3:
        return None
    try:
        hop = float(parts[1])
        c = int(parts[2])
    except ValueError:
        return None
    body = blob[end + 1:]
    if c < 1 or len(body) % (2 * c):
        return None
    grid = np.frombuffer(body, dtype=np.uint8).reshape(len(body) // (2 * c), 2 * c)
    if not (np.all(grid[:, 1:-1:2] == ord(" ")) and np.all(grid[:, -1] == ord("\n"))):
        return None
    codes = _SYMBOL_CODES[grid[:, ::2]]
    if np.any(codes == 2):
        return None
    return np.ascontiguousarray(codes.T), hop


def label_matrix_from_range(frames: np.ndarray, start: int, end: int) -> LabelMatrix:
    """Build a LabelMatrix for frames [start, end); "-" anywhere masks the class."""
    window = frames[:, start:end]
    mask = ~np.any(window == UNANNOTATED, axis=1)
    values = np.where(window == 1, 1.0, 0.0)
    return LabelMatrix(values=values, mask=mask)
