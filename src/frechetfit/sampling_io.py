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
    """Draw `count` values via x = m + s * (-ln u)^(-1/alpha), u uniform in (0,1).

    Raises DomainError, with no numpy warning, when a draw overflows float64.
    """
    rng = np.random.Generator(np.random.PCG64(config.seed))
    bits = rng.integers(0, 2**64, size=config.count, dtype=np.uint64)
    bits >>= np.uint64(11)
    x = bits.astype(np.float64)
    del bits
    # the same operations, in the same order, as the expression in the
    # docstring, done in place so that only x and the draws are held
    x += 0.5
    x *= 2.0**-53
    np.log(x, out=x)
    np.negative(x, out=x)
    p = config.params
    with np.errstate(over="ignore", invalid="ignore"):
        x **= -1.0 / p.alpha
        x *= p.scale
        x += p.location
    if not np.isfinite(x).all():
        raise DomainError(
            f"the sample overflows float64: location {p.location!r}, scale {p.scale!r} "
            f"and alpha {p.alpha!r} give draws that are not all finite"
        )
    return x


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
) -> Optional[np.ndarray]:
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
    return x


def read_samples(path: Union[str, Path], column: Optional[str] = None) -> np.ndarray:
    """Parse one value per line, or the named column of a delimited file.

    Returns the values as a float64 array. A first non-blank line containing
    any non-numeric token is treated as a header. Blank lines are skipped;
    any other non-numeric token, and any nan or infinite value, raises
    ParseError with its line number; bytes that do not decode in the locale
    encoding raise ParseError too.

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
        try:
            text = io.TextIOWrapper(io.BytesIO(data)).read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not valid {exc.encoding} text: {exc.reason}") from None
        values = np.array(_scan(text, column), dtype=np.float64)
    if values.size == 0:
        raise EmptyInputError(f"no data values found in {path}")
    return values


# Values per fh.write; a chunk's buffers stay under a megabyte.
_CHUNK = 1 << 15

# 10^s for the scale s = 16 - E, for every E within one of the exponents
# [-4, 15] of 1e-4 <= |v| < 1e16; each is exact (10^22 is the last that is)
_POW10 = np.array([float(10**s) for s in range(23)])
# column index of the (24, n) line buffer of _format_fixed
_COLS = np.arange(24, dtype=np.int8)[:, None]


def _veltkamp(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) with hi + lo = x exactly, each of at most 26 significant bits."""
    c = x * 134217729.0  # 2^27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _round_scaled(a: np.ndarray, E: np.ndarray) -> np.ndarray:
    """round-half-even(a * 10^(16-E)) for a > 0, exactly where it is at least 2^53.

    Dekker's TwoProduct gives p = fl(a * b) and its error e = a * b - p,
    both exactly, for b = 10^(16-E). At a * b >= 2^53, p is an even
    integer, so rounding p + e half to even is p + rint(e). Below 2^53 the
    result is within two of a * b, so it stays below 10^16 and the caller
    computes the row again.
    """
    b = _POW10[16 - E]
    p = a * b
    ah, al = _veltkamp(a)
    bh, bl = _veltkamp(b)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p.astype(np.int64) + np.rint(e).astype(np.int64)


def _exponent_guess(a: np.ndarray) -> np.ndarray:
    """floor(log10 a) for 1e-4 <= a < 1e16; it may be one off next to a power of ten."""
    return np.clip(np.floor(np.log10(a)), -4, 15).astype(np.int64)


def _format_fixed(x: np.ndarray) -> bytes:
    """format(v, ".17g") + "\n" for each v, all with 1e-4 <= |v| < 1e16.

    In that range ".17g" is positional notation of the 17-digit significand
    N of v, 10^16 <= N < 10^17, with trailing zeros (and a bare point)
    stripped. N is computed exactly in float64 arithmetic (see _round_scaled).
    """
    n = x.size
    a = np.abs(x)
    # a guess one too high gives N < 10^16, one too low N >= 10^17 (= 10^17
    # also where v rounds up to 10^(E+1)); such rows are computed again
    # with E moved by one
    E = _exponent_guess(a)
    N = _round_scaled(a, E)
    off = np.flatnonzero((N < 10**16) | (N >= 10**17))
    if off.size:
        E[off] += np.where(N[off] >= 10**17, 1, -1)
        N[off] = _round_scaled(a[off], E[off])

    # rows sorted by E, so that every layout below is one slice
    E = E.astype(np.int8)
    order = np.argsort(E, kind="stable")
    E, N = E[order], N[order]

    # D[j] = digit j of N (most significant first), as ASCII; k = digits
    # kept after the trailing zeros are stripped
    D = np.empty((17, n), dtype=np.uint8)
    k = np.full(n, 17, dtype=np.int8)
    zeros = np.ones(n, dtype=bool)
    high = N // 10**9
    low = N - high * 10**9
    ten = np.uint32(10)
    # uint32 halves: digits 8..16 from low, then 0..7 from high
    for w, places in ((low, range(16, 7, -1)), (high, range(7, -1, -1))):
        w = w.astype(np.uint32)
        for j in places:
            q = w // ten
            D[j] = w - q * ten
            w = q
            zeros &= D[j] == 0
            k -= zeros
    D += ord("0")

    # line buffer, one column per line: row 0 sign, rows 1..22 text,
    # row 23 newline; a zero byte is dropped by the final translate
    T = np.empty((24, n), dtype=np.uint8)
    width = np.empty(n, dtype=np.int8)
    starts = np.flatnonzero(np.diff(E)) + 1
    for a, b in zip([0, *starts.tolist()], [*starts.tolist(), n]):
        e = int(E[a])
        kept = k[a:b]
        if e >= 0:  # d0..de "." d(e+1)..d16
            T[1:e + 2, a:b] = D[:e + 1, a:b]
            T[e + 2, a:b] = ord(".")
            T[e + 3:19, a:b] = D[e + 1:, a:b]
            width[a:b] = np.where(kept <= e + 1, e + 1, kept + 1)
        else:  # "0." then -e-1 zeros, then d0..d16
            T[1, a:b] = ord("0")
            T[2, a:b] = ord(".")
            T[3:2 - e, a:b] = ord("0")
            T[2 - e:19 - e, a:b] = D[:, a:b]
            width[a:b] = 1 - e + kept
    T *= _COLS <= width
    T[0] = np.where(x[order] < 0, ord("-"), 0)
    T[23] = ord("\n")
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.arange(n)
    return np.take(T, inverse, axis=1).T.tobytes().translate(None, b"\0")


def _format_chunk(x: np.ndarray) -> bytes:
    a = np.abs(x)
    if ((a >= 1e-4) & (a < 1e16)).all():
        return _format_fixed(x)
    # zero, subnormals and exponent notation: the routine format() uses
    return (("%.17g\n" * x.size) % tuple(x.tolist())).encode("ascii")


def write_samples(path: Union[str, Path], values: Sequence[float]) -> None:
    """Write one value per line with 17 significant digits (round-trip exact).

    The file holds exactly the bytes of format(v, ".17g") + "\n" for each
    value, taken as a float64. A nan or infinite value raises DomainError
    before the file is opened.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        i = int(bad[0])
        raise DomainError(f"cannot write non-finite value {float(x[i])!r} at index {i}")
    with open(path, "wb") as fh:
        for start in range(0, x.size, _CHUNK):
            fh.write(_format_chunk(x[start:start + _CHUNK]))
