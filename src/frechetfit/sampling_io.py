"""Reproducible inverse-CDF sampling and plain-text sample ingestion.

The uniform source is numpy's PCG64 pinned by seed; raw 64-bit outputs are
mapped to the open interval (0, 1) as (top53bits + 0.5) / 2^53 so the log in
the inverse transform never sees 0 or 1.  The text format is one value per
line (optional single header line; comma or whitespace delimited columns),
written with 17 significant digits for lossless round trips.
"""

import io
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DomainError, EmptyInputError, ParseError
from .frechet import FrechetParams

__all__ = ["SamplerConfig", "sample", "read_samples", "write_samples"]


@dataclass(frozen=True)
class SamplerConfig:
    """Deterministic sampling request: equal configs give identical output."""

    seed: int
    count: int
    params: FrechetParams

    def __post_init__(self):
        if self.count < 1:
            raise DomainError(f"count must be >= 1, got {self.count!r}")
        if not (0 <= self.seed < 2**64):
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


def sample(config: SamplerConfig) -> np.ndarray:
    """Draw `count` values via x = m + s * (-ln u)^(-1/alpha), u uniform in (0,1)."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    bits = rng.integers(0, 2**64, size=config.count, dtype=np.uint64)
    u = ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    p = config.params
    return p.location + p.scale * (-np.log(u)) ** (-1.0 / p.alpha)


def _split(line: str) -> list[str]:
    return [t for t in (line.split(",") if "," in line else line.split()) if t.strip()]


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _layout(tokens: list[str], column: Optional[str], lineno: int) -> tuple[int, bool]:
    """Column index to read, and whether `tokens`, the first non-blank line, is a header.

    A line holding any non-numeric token is a header.
    """
    if all(_is_number(t) for t in tokens):
        if column is not None:
            raise ParseError(f"column {column!r} requested but file has no header", lineno)
        return 0, False
    header = [t.strip() for t in tokens]
    if column is None:
        return 0, True
    if column not in header:
        raise ParseError(f"column {column!r} not found in header {header}", lineno)
    return header.index(column), True


def _scan(text: str, column: Optional[str]) -> list[float]:
    """Line-by-line reader; it defines the format and gives ParseError its line number."""
    values: list[float] = []
    col_index = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = _split(line)
        if not tokens:
            continue
        if col_index is None:
            col_index, is_header = _layout(tokens, column, lineno)
            if is_header:
                continue
        if col_index >= len(tokens):
            raise ParseError(f"line {lineno} has only {len(tokens)} column(s)", lineno)
        token = tokens[col_index].strip()
        try:
            value = float(token)
        except ValueError:
            raise ParseError(f"non-numeric value {token!r} at line {lineno}", lineno) from None
        if not math.isfinite(value):
            raise ParseError(f"non-finite value {token!r} at line {lineno}", lineno)
        values.append(value)
    return values


# Line breaks of str.splitlines() that np.loadtxt reads as field whitespace.
_SPLITLINES_ONLY_BREAKS = (b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")


def _loadtxt_plan(data: bytes, column: Optional[str]) -> Optional[tuple[int, int]]:
    """The (skiprows, usecols) with which np.loadtxt reads `data` as _scan does.

    Returns None where np.loadtxt could split lines or fields differently:
    non-ASCII text, line breaks that only str.splitlines knows, and any
    comma, since _split drops the empty comma fields that np.loadtxt counts.
    """
    if b"," in data or not data.isascii() or any(b in data for b in _SPLITLINES_ONLY_BREAKS):
        return None
    with io.TextIOWrapper(io.BytesIO(data), encoding="ascii") as fh:
        for lineno, line in enumerate(iter(fh.readline, ""), start=1):
            tokens = _split(line)
            if tokens:
                break
        else:
            return None
    col_index, is_header = _layout(tokens, column, lineno)
    return (lineno if is_header else 0), col_index


def _load(
    source: Union[str, Path, io.TextIOWrapper], skiprows: int, col_index: int
) -> Optional[list[float]]:
    """One np.loadtxt call; None if it raises or yields a non-finite value."""
    try:
        with warnings.catch_warnings():
            # a header-only file: the caller raises EmptyInputError
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            x = np.loadtxt(
                source,
                comments=None,
                skiprows=skiprows,
                usecols=col_index,
                ndmin=1,
                encoding="ascii",
            )
    except ValueError:
        return None
    if not np.isfinite(x).all():
        return None
    return x.tolist()


def read_samples(path: Union[str, Path], column: Optional[str] = None) -> list[float]:
    """Parse one value per line, or the named column of a delimited file.

    A first non-blank line containing any non-numeric token is treated as a
    header. Blank lines are skipped; any other non-numeric token, and any
    nan or infinite value, raises ParseError with its line number.

    One np.loadtxt call reads a whitespace-delimited ASCII file; comma
    files, other text, and files where that call fails go to the line
    scanner, which also reports the offending line.
    """
    data = Path(path).read_bytes()
    plan = _loadtxt_plan(data, column)
    values = None
    if plan is not None:
        if Path(path).is_file():
            # np.loadtxt reads a file faster than text held in memory, and the
            # bytes are freed before the parse, which bounds peak memory
            source, data = path, None
        else:
            # a pipe can be read only once
            source = io.TextIOWrapper(io.BytesIO(data), encoding="ascii")
        values = _load(source, *plan)
    if values is None:
        if data is None:
            data = Path(path).read_bytes()
        # decoded as open() does: locale encoding, universal newlines
        values = _scan(io.TextIOWrapper(io.BytesIO(data)).read(), column)
    if not values:
        raise EmptyInputError(f"no data values found in {path}")
    return values


def write_samples(path: Union[str, Path], values: Sequence[float]) -> None:
    """Write one value per line with 17 significant digits (round-trip exact)."""
    with open(path, "w") as fh:
        for v in values:
            fh.write(format(float(v), ".17g"))
            fh.write("\n")
