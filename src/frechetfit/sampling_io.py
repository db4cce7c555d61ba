"""Reproducible inverse-CDF sampling, plain-text sample files and their moments.

The uniform source is numpy's PCG64 pinned by seed.  Each raw 64-bit output
becomes u = (top53bits + 0.5) / 2^53 in the open interval (0, 1), so the log
in the inverse transform never sees 0 or 1: that is Generator.random(), which
is top53bits / 2^53, plus 2^-54, a sum that is exact or rounds half to even
as top53bits + 0.5 does.  For the top word, 2^53 - 1, it rounds to 1.0,
which is clamped to 1 - 2^-53, the largest u.  The text format is one
value per line (optional single header line; comma or whitespace delimited
columns), written with 17 significant digits for lossless round trips.
Both ways, plain decimal lines go through numpy array operations that
round exactly as format() and float() do.

One loop, _Moments, merges the moments of arrays (sample_stats), files
(file_stats) and drawn samples (sample_to_file) one block of _CHUNK
values at a time, so all three agree bit for bit on the same values.
SamplerConfig is a typing.NamedTuple that checks its count and seed in
__new__, as frechet.FrechetParams checks its fields.
"""

import io
import math
from itertools import islice
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import DomainError, EmptyInputError, InsufficientDataError, ParseError
from .estimation import SampleStats
from .frechet import FrechetParams, _Validated

__all__ = ["SamplerConfig", "sample", "read_samples", "file_stats", "write_samples", "sample_stats"]

# Values per block of the sampler and of every moment merge (_Moments); a
# block's buffers stay under a megabyte.
_CHUNK = 1 << 15
# Values per _format_fixed call and per fh.write of the writer: a half block
# halves every row of its workspace, and formats as fast per value
_WRITE_CHUNK = _CHUNK // 2
# _Moments' input: blocks, each with two scratch rows as long (the first may be the block)
_Blocks = Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]


class _Moments:
    """Count, mean and central sums M2, M3, M4 of `blocks`, merged in order.

    The one loop that merges arrays (sample_stats), files (_file_blocks)
    and drawn samples (_written).  add() takes a block's mean as
    c + mean(block - c), c its first value, so equal values give their
    value and deviations of exactly 0 at any magnitude; it sums the powers
    of the deviations from that mean, corrected by their own mean, and
    merges them into the running sums by the pairwise update of Chan,
    Golub and LeVeque (1983) and Pebay (SAND2008-6212).  Every block but
    the last holds _CHUNK values, so equal values in equal blocks give
    equal moments wherever they come from.  sample_stats gives the errors.
    """

    def __init__(self, blocks: _Blocks):
        self.count = 0
        self.mean = self.m2 = self.m3 = self.m4 = 0.0
        self.finite = True  # no value added is a nan or an infinity
        for block, d, d2 in blocks:
            self.add(block, d, d2)

    def add(self, block, d, d2) -> None:
        """Merge in the float64 array `block`; d and d2, as long, are overwritten (d may be block)."""
        nb = block.size
        with np.errstate(over="ignore", invalid="ignore"):
            c = float(block[0])
            mb = c + float(np.subtract(block, c, out=d2).mean())
            if not math.isfinite(mb) and self.finite:
                # a nan, an infinity or overflow; tested before d overwrites the block
                self.finite = bool(np.isfinite(block).all())
            np.subtract(block, mb, out=d)
            e = float(d.sum()) / nb
            np.multiply(d, d, out=d2)
            s2 = float(d2.sum())
            s3 = float(np.multiply(d2, d, out=d).sum())
            d2 *= d2
            s4 = float(d2.sum())
        # the sums about the block's mean mb + e, from those about mb
        mb += e
        m2b = s2 - nb * e * e
        m3b = s3 - 3.0 * e * s2 + 2.0 * nb * e * e * e
        m4b = s4 - 4.0 * e * s3 + 6.0 * e * e * s2 - 3.0 * nb * e * e * e * e
        na = self.count
        if na == 0:
            self.count, self.mean, self.m2, self.m3, self.m4 = nb, mb, m2b, m3b, m4b
            return
        n = na + nb
        m2a, m3a = self.m2, self.m3
        delta = mb - self.mean
        dn = delta / n
        w = na * nb * delta * dn  # na nb delta^2 / n
        self.m4 += m4b + w * dn * dn * (na * na - na * nb + nb * nb) + 6.0 * dn * dn * (
            na * na * m2b + nb * nb * m2a) + 4.0 * dn * (na * m3b - nb * m3a)
        self.m3 += m3b + w * dn * (na - nb) + 3.0 * dn * (na * m2b - nb * m2a)
        self.m2 += m2b + w
        self.mean += nb * dn
        self.count = n

    def stats(self) -> SampleStats:
        n = self.count
        if n < 2:
            raise InsufficientDataError(f"need at least 2 values, got {n}")
        m2, m3, m4 = self.m2 / n, self.m3 / n, self.m4 / n
        if not (math.isfinite(m2) and math.isfinite(m3) and math.isfinite(m4)):
            if not self.finite:
                raise DomainError("the sample holds a nan or infinite value")
            raise DomainError(
                "the sample's spread overflows float64: its central moments up to "
                "order 4 are not all finite"
            )
        var = m2 * n / (n - 1)
        if m2 > 0.0 and n >= 3:
            skew = (m3 / m2**1.5) * math.sqrt(n * (n - 1)) / (n - 2)
        else:
            skew = math.nan
        if m2 > 0.0 and n >= 4:
            kurt = ((n + 1) * (n - 1)) / ((n - 2) * (n - 3)) * (
                m4 / m2**2 - 3.0 * (n - 1) / (n + 1)
            )
        else:
            kurt = math.nan
        return SampleStats(count=n, mean=self.mean, variance=var, skewness=skew, excess_kurtosis=kurt)


def sample_stats(data: Sequence[float]) -> SampleStats:
    """Empirical moments; see SampleStats for the exact estimators.

    _Moments merges the array's slices of _CHUNK values, in two scratch
    rows that every slice reuses; file_stats and sample_to_file feed it
    their blocks, so they give this bit for bit.  Against exact rational
    sums the mean and the central moments up to order 4 were within 7e-16
    of theirs, relative, at alpha 3.5 to 1000 (70000 values); a location
    far above the spread costs more, 1.5e-13 for the variance at location
    1e6 and scale 1.  A nan or an infinity, or central moments that
    overflow float64, raise DomainError.
    """
    x = np.asarray(data, dtype=np.float64).reshape(-1)
    d, d2 = np.empty((2, min(x.size, _CHUNK)))
    blocks = (x[start:start + _CHUNK] for start in range(0, x.size, _CHUNK))
    return _Moments((b, d[:b.size], d2[:b.size]) for b in blocks).stats()


class _SamplerConfigFields(NamedTuple):
    seed: int
    count: int
    params: FrechetParams


class SamplerConfig(_Validated, _SamplerConfigFields):
    """Deterministic sampling request: equal configs give identical output."""

    __slots__ = ()

    def __new__(cls, seed: int, count: int, params: FrechetParams):
        if not isinstance(count, (int, np.integer)):
            raise DomainError(f"count must be an integer, got {count!r}")
        if count < 1:
            raise DomainError(f"count must be >= 1, got {count!r}")
        if not (isinstance(seed, (int, np.integer)) and 0 <= seed < 2**64):
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
        return tuple.__new__(cls, (seed, count, params))


# The largest u: random() + 2^-54 rounds to 1.0 for the top word, and
# _transform clamps it to this
_U_MAX = 1.0 - 2.0**-53


def _transform(b: np.ndarray, p: FrechetParams) -> np.ndarray:
    """x = m + s * (-ln u)^(-1/alpha) in place on b, which holds Generator.random() values.

    u = b + 2^-54, the module docstring's mapping, clamped to _U_MAX.  A
    draw that overflows is left as it comes, with no numpy warning.
    """
    b += 2.0**-54
    np.minimum(b, _U_MAX, out=b)
    np.log(b, out=b)
    np.negative(b, out=b)
    with np.errstate(over="ignore", invalid="ignore"):
        b **= -1.0 / p.alpha
        b *= p.scale
        b += p.location
    return b


def _blocks(config: SamplerConfig, out: np.ndarray) -> Iterator[np.ndarray]:
    """The sample's blocks of _CHUNK values in order, each drawn in place into out.

    out holds either the whole sample, each block at its place in it, or
    one block, which every block reuses.  PCG64 makes each double from one
    word of its stream, so consecutive blocks give the same draws as one
    of `count`.  Raises DomainError, with no numpy warning, at the first
    block with a draw that overflows float64.
    """
    rng = np.random.Generator(np.random.PCG64(config.seed))
    p = config.params
    whole = out.size == config.count
    for start in range(0, config.count, _CHUNK):
        b = out[start:start + _CHUNK] if whole else out[:config.count - start]
        rng.random(out=b)
        if not np.isfinite(_transform(b, p)).all():
            raise DomainError(
                f"the sample overflows float64: location {p.location!r}, scale {p.scale!r} "
                f"and alpha {p.alpha!r} give draws that are not all finite"
            )
        yield b


def sample(config: SamplerConfig) -> np.ndarray:
    """Draw `count` values via x = m + s * (-ln u)^(-1/alpha), u uniform in (0,1).

    Raises DomainError, with no numpy warning, when a draw overflows float64.
    """
    x = np.empty(config.count, dtype=np.float64)
    for _ in _blocks(config, x):
        pass
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


def _scan(lines: Iterable[str], column: Optional[str], start: int = 1) -> Iterator[float]:
    """Line-by-line reader, yielding each value; it defines the format and gives ParseError its line number."""
    col_index = None if start == 1 else 0  # past line 1, the plain route's: no header to come
    for lineno, line in enumerate(lines, start=start):
        if lineno == 1:
            line = line.removeprefix("\ufeff")  # a byte-order mark
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
        yield value


# _NOT_PLAIN[c] is True for each byte c that no line of a plain file holds:
# a comma, a space, a tab, the ASCII line breaks of str.splitlines() other
# than "\n", and every non-ASCII byte.
_NOT_PLAIN = np.zeros(256, dtype=bool)
_NOT_PLAIN[list(b", \t\r\x0b\x0c\x1c\x1d\x1e")] = True
_NOT_PLAIN[0x80:] = True


class _NotPlain(Exception):
    """The plain route gives up on a stream; the line scanner reads on from the first line it has not taken."""


def _plain_header(first: bytes, column: Optional[str]) -> bool:
    """Whether `first`, line 1 of the stream, is a header rather than a value, for the plain route.

    Line 1 must be one token with no byte of _NOT_PLAIN, in fewer bytes
    than a read, or _NotPlain is raised; so it is where _layout raises on
    that token, as _scan then does (or meets an error first).
    _parse_lines checks every line after a header.
    """
    if len(first) >= _READ or _NOT_PLAIN[np.frombuffer(first, dtype=np.uint8)].any():
        raise _NotPlain
    tokens = _split(first.decode("ascii"))
    if len(tokens) != 1:
        raise _NotPlain
    try:
        _, is_header = _layout(tokens, column, 1)
    except ParseError:
        raise _NotPlain from None
    return is_header


# The plain-decimal reader reads _READ bytes at a time and parses up to
# _LINES lines at a time.  _TAIL[j, n] is word j of a 24-byte row, as three
# little-endian words, whose last n bytes are 0xff and the others 0.
_READ = 128 << 10
_LINES = 7168
_TAIL = np.frombuffer(
    b"".join((bytes(24 - n) + b"\xff" * n)[8 * j:8 * j + 8] for j in range(3) for n in range(25)), dtype="<u8"
).reshape(3, 25)


class _LineWorkspace:
    """The buffers of one _plain_groups call.

    raw holds the bytes read after 32 lead bytes, the last a newline, so
    that the 25 bytes before each line's end lie in it; words is raw as
    aligned little-endian 64-bit words on any machine.  w, i
    and b are scratch rows for _LINES lines, and t and flags scratch as
    long as raw.  spare is w as float64, at least _CHUNK values, free to
    use between calls of _parse_lines.  About 1.1 MB in all.
    """

    def __init__(self):
        self.raw = np.empty(32 + _READ + 8, dtype=np.uint8)
        self.raw[31] = ord("\n")
        self.words = self.raw.view("<u8")
        self.w = np.empty(11 * _LINES, dtype=np.uint64)
        # t and flags lie in w, which a group of lines uses only after them
        self.t, self.flags = self.w.view(np.uint8)[:2 * self.raw.size].reshape(2, -1)
        self.flags = self.flags.view(bool)
        self.spare = self.w.view(np.float64)
        self.i = np.empty(6 * _LINES, dtype=np.int64)
        self.b = np.empty(4 * _LINES, dtype=bool)


def _parse_lines(ws: _LineWorkspace, prev: np.ndarray, ends: np.ndarray, out: np.ndarray) -> bool:
    """The value of each line of ws.raw, from the newline at prev to the one at ends, into out.

    A plain line is -?digits[.digits][e(+|-)dd] with a significand of at
    most 24 bytes, digits N < 4.61e18, and k in [0, 22] for k = (digits
    after the point) - (the exponent); its value N / 10^k is rounded to
    nearest in float64 arithmetic.  The significand's last 24 bytes are
    gathered as three words, the point dropped, and the digits combined
    eight at a time (SWAR).  q = fl(fl(N) / 10^k) is within 1.5 ulps; the
    exact residual N - q * 10^k, from TwoProduct and the int64 remainder
    N - fl(N), moves q by one ulp where it exceeds half an ulp of q.  Every
    other line, and every line at a tie or within rounding of one, goes to
    float().  Returns False where a line holds a byte of _NOT_PLAIN, or
    where float() fails on a line or gives a nan or an infinity.  No line
    given may be blank; only blank lines may lie between them.
    """
    raw = ws.raw
    n = ends.size
    lo = int(prev[0]) + 1
    text = raw[lo:int(ends[-1])]
    t, flags = ws.t[:text.size], ws.flags[:text.size]
    size, frac, stop, power, i0, i1 = ws.i[:6 * n].reshape(6, n)
    bad, neg, dotted, flag = ws.b[:4 * n].reshape(4, n)
    np.subtract(ends, prev, out=size)
    size -= 1
    # every byte but a digit, a point or a newline is a minus that starts
    # its line, or "e", a sign and two digits that end it, or the line goes
    # to float(); a byte of _NOT_PLAIN sends the file to _scan. t is scratch
    np.greater_equal(np.subtract(text, 48, out=t), 10, out=flags)
    flags &= np.not_equal(text, ord("."), out=t.view(bool))
    flags &= np.not_equal(text, 10, out=t.view(bool))
    odd = np.flatnonzero(flags)
    odd += lo
    c, sign = raw[odd], raw[odd + 1]
    if _NOT_PLAIN[c].any():
        return False
    is_exp = (c == ord("e")) & ((sign == ord("-")) | (sign == ord("+"))) & (raw[odd + 4] == 10)
    is_exp &= (raw[odd + 2] - 48 < 10) & (raw[odd + 3] - 48 < 10)
    fine = is_exp | (c == ord("-")) & (raw[odd - 1] == 10)
    fine |= ((c == ord("-")) | (c == ord("+"))) & (raw[odd - 1] == ord("e"))
    # stop = the end of each line's significand, power = its exponent
    exps = odd[is_exp]
    line = np.searchsorted(ends, exps)
    np.copyto(stop, ends)
    stop[line] = exps
    size[line] -= 4
    power.fill(0)
    power[line] = (raw[exps + 2].astype(np.int64) * 10 + raw[exps + 3] - 528) * (44 - raw[exps + 1].astype(np.int64))
    np.greater(size, 24, out=bad)
    bad[np.searchsorted(ends, odd[~fine])] = True
    dots = np.flatnonzero(np.equal(text, ord("."), out=flags))
    dots += lo
    # frac = the bytes after the point, 24 for a line without one
    if dots.size == n and (dots > prev).all() and (dots < stop).all():
        np.subtract(stop, dots, out=frac)
    else:
        frac.fill(25)
        line = np.searchsorted(ends, dots)
        frac[line] = stop[line] - dots
        bad[line[1:][line[1:] == line[:-1]]] = True
    frac -= 1
    np.less(frac, 24, out=dotted)
    np.add(prev, 1, out=i0)
    np.equal(np.take(raw, i0, out=ws.t[:n], mode="clip"), ord("-"), out=neg)
    digits = np.subtract(size, dotted, out=i0)
    digits -= neg
    bad |= np.less(digits, 1, out=flag)

    # X = each line's 24 bytes [p, p + 24) up to its stop, from the aligned
    # words around them; Y = the bytes [p - 1, p + 23)
    w = ws.w[:11 * n].reshape(11, n)
    g, X, Y, s = w[:4], w[4:7], w[7:10], w[10]
    np.subtract(stop, 24, out=i1)
    np.bitwise_and(i1, 7, out=s, casting="unsafe")
    s <<= 3
    i1 >>= 3
    for j in range(4):
        np.take(ws.words, i1, out=g[j], mode="clip")
        i1 += 1
    np.right_shift(g[:3], s, out=X)
    # g << (64 - s) in two shifts, each below 64
    np.subtract(56, s, out=s)
    np.left_shift(g[1:], s, out=g[1:])
    X |= np.left_shift(g[1:], 8, out=g[1:])
    np.left_shift(X, 8, out=Y)
    Y[1:] |= np.right_shift(X[:2], 56, out=g[:2])
    # the digits right-aligned: the bytes after the point from X, the rest
    # from Y, and "0" for the bytes before the line
    M = np.take(_TAIL, frac, axis=1, out=g[:3], mode="clip")
    X &= M
    Y &= np.invert(M, out=M)
    Y |= X
    Y &= np.take(_TAIL, digits, axis=1, out=M, mode="clip")
    M &= 0x3030303030303030
    Y -= M
    # each word's eight digits as a number, first digit most significant
    np.right_shift(Y, 8, out=M)
    Y *= 10
    Y += M
    np.right_shift(Y, 16, out=M)
    M &= 0x000000FF000000FF
    M *= 1 + (10000 << 32)
    Y &= 0x000000FF000000FF
    Y *= 100 + (1000000 << 32)
    Y += M
    Y >>= 32
    bad |= np.greater(Y[0], 460, out=flag)
    np.minimum(Y[0], 461, out=Y[0])
    N = Y[2]
    N += np.multiply(Y[1], 10**8, out=Y[1])
    N += np.multiply(Y[0], 10**16, out=Y[0])
    N = N.view(np.int64)

    # N / 10^k, k = frac - power
    k = np.multiply(frac, dotted, out=i1)
    k -= power
    bad |= np.greater(k, 22, out=flag)
    bad |= np.less(k, 0, out=flag)
    b, r, p, e, ah, al, bh, bl = w[:8].view(np.float64)
    q = out
    np.take(_POW10, k, out=b, mode="clip")
    np.copyto(r, N)
    np.divide(r, b, out=q)
    np.copyto(i0, r, casting="unsafe")
    np.subtract(N, i0, out=i0)
    np.multiply(q, b, out=p)
    _product_error(q, b, p, e, ah, al, bh, bl)
    # r = N - q * 10^k = (fl(N) - p) - e + (N - fl(N))
    r -= p
    r -= e
    r += i0
    # t = |r| / (ulp(q) 10^k): below 1/2 keeps q, from 1/2 to 5/4 moves it
    # one ulp toward r, and within 2^-30 of 1/2 (a tie) or past 5/4 needs
    # float(); so does a power of two with r < 0, whose ulp below is half
    pow2 = np.equal(np.bitwise_and(q.view(np.int64), (1 << 52) - 1, out=i0), 0, out=dotted)
    bad |= np.logical_and(pow2, np.less(r, 0, out=flag), out=flag)
    u = np.spacing(q, out=e)
    t = np.divide(np.abs(r, out=ah), np.multiply(u, b, out=p), out=ah)
    np.copysign(u, r, out=u)
    u *= np.greater(t, 0.5, out=flag)
    q += u
    bad |= np.greater(t, 1.25 - 2.0**-30, out=flag)
    t -= 0.5
    bad |= np.less(np.abs(t, out=t), 2.0**-30, out=flag)
    np.negative(q, out=q, where=neg)

    rows = np.flatnonzero(bad)
    if rows.size:
        spans = zip((prev[rows] + 1).tolist(), ends[rows].tolist())
        view = memoryview(raw)
        try:
            out[rows] = [float(view[a:z]) for a, z in spans]
        except ValueError:
            return False
        if not np.isfinite(out[rows]).all():
            return False
    return True


def _plain_groups(fh: BinaryIO, ws: _LineWorkspace, held: int) -> Iterator[np.ndarray]:
    """The lines of ws.raw[32:32 + held] and then of fh, in groups for _parse_lines.

    Yields nl for each group: the positions in ws.raw of the newlines around
    its lines, at most _LINES of them, so that each group starts where the
    last one ended.  The stream is read _READ bytes at a time; the line that
    a read cuts is moved to the front for the next.  A line longer than a
    read raises _NotPlain.
    """
    raw = ws.raw
    while True:
        got = fh.readinto(raw[32 + held:32 + _READ])
        end = 32 + held + got
        if got == 0:
            if held == 0:
                return
            raw[end] = ord("\n")  # the last line has none
            end += 1
        # the newlines, from the one at raw[31]
        nl = np.flatnonzero(np.equal(raw[31:end], ord("\n"), out=ws.flags[:end - 31]))
        nl += 31
        for start in range(0, nl.size - 1, _LINES):
            yield nl[start:start + _LINES + 1]
        last = int(nl[-1]) + 1
        held = end - last
        if held == _READ:
            raise _NotPlain  # a line longer than a read
        raw[32:32 + held] = raw[last:end]
        if got == 0:
            return


def _file_blocks(fh: BinaryIO, column: Optional[str]) -> _Blocks:
    """The values of fh in blocks of _CHUNK (the last may be shorter), each as (block, block, scratch) for _Moments.

    The plain route parses each group of lines once, without its blank
    lines, which _scan skips too, into one buffer that holds a block and
    the start of the next.  Where the plain route gives up (_NotPlain, or a
    group turned back), _scan goes on into the buffer from the first line it
    has not taken.  The route is the same on every machine: _parse_lines
    reads the bytes as little-endian words whatever the native order.
    """
    block, scratch = np.empty(_CHUNK + _LINES), None
    filled = at = 0  # the values in block; the offset of the first line not taken
    lineno, scan = 1, True  # that line's number; whether _scan reads on from there
    try:
        first = fh.readline(_READ)
        if _plain_header(first, column):
            at, lineno, first = len(first), 2, b""
        ws = _LineWorkspace()
        scratch = ws.spare
        ws.raw[32:32 + len(first)] = np.frombuffer(first, dtype=np.uint8)
        for nl in _plain_groups(fh, ws, len(first)):
            prev, ends = nl[:-1], nl[1:]
            kept = ends - prev > 1  # the lines that are not blank
            if not kept.all():  # copying every group costs about 3% on a file without blank lines
                prev, ends = prev[kept], ends[kept]
            if ends.size and not _parse_lines(ws, prev, ends, block[filled:filled + ends.size]):
                raise _NotPlain
            filled += ends.size
            at += int(nl[-1] - nl[0])
            lineno += nl.size - 1
            if filled >= _CHUNK:
                yield block[:_CHUNK], block[:_CHUNK], scratch[:_CHUNK]
                filled -= _CHUNK
                block[:filled] = block[_CHUNK:_CHUNK + filled]
        scan = False
    except _NotPlain:
        pass
    if scan:
        scratch = np.empty(_CHUNK) if scratch is None else scratch  # where no workspace was made
        fh.seek(at)
        # decoded as open() does (locale encoding, universal newlines) as it
        # is read; each line split again at every break that str.splitlines knows
        with io.TextIOWrapper(fh) as text:
            values = _scan((line for t in text for line in t.splitlines()), column, lineno)
            try:
                while (got := np.fromiter(islice(values, _CHUNK - filled), dtype=np.float64)).size:
                    block[filled:filled + got.size] = got
                    filled += got.size
                    if filled == _CHUNK:
                        yield block[:_CHUNK], block[:_CHUNK], scratch[:_CHUNK]
                        filled = 0
            except ParseError:
                while text.read(_READ):  # a byte that does not decode, anywhere, comes first
                    pass
                raise
    if filled:
        yield block[:filled], block[:filled], scratch[:filled]


def _read(path: Union[str, Path], column: Optional[str], consume: Callable):
    """consume(_file_blocks(fh, column)) for the file at `path`, read once.

    consume may overwrite each block and its scratch row.  A pipe is read
    whole first, so that the plain route can hand over to _scan by a seek.
    """
    try:
        with open(path, "rb") if Path(path).is_file() else io.BytesIO(Path(path).read_bytes()) as fh:
            return consume(_file_blocks(fh, column))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not valid {exc.encoding} text: {exc.reason}") from None


def _array(blocks: _Blocks) -> np.ndarray:
    """The blocks' values in one array, grown in place by each block."""
    x = np.empty(0)
    for block, _, _ in blocks:
        n = x.size
        x.resize(n + block.size, refcheck=False)
        x[n:] = block
    return x


def read_samples(path: Union[str, Path], column: Optional[str] = None) -> np.ndarray:
    """Parse one value per line, or the named column of a delimited file.

    Returns the values as a float64 array. A byte-order mark (U+FEFF) that
    starts the file is dropped. A first non-blank line containing any
    non-numeric token is treated as a header. Blank lines are skipped; any
    other non-numeric token, and any nan or infinite value, raises ParseError
    with its line number; bytes that do not decode in the locale encoding
    raise ParseError too.

    Lines of one plain decimal each, blank lines among them, after an
    optional one-token header, are parsed by the plain route (_plain_groups,
    _parse_lines), bit for bit as float() parses each line.  From the first
    group of lines in which the plain route meets a byte of _NOT_PLAIN (a
    comma, whitespace, a carriage return, a non-ASCII byte), a token float()
    rejects, a nan or an infinity, the line scanner reads on, and reports
    the offending line.  Every machine takes the same route for the same
    file.  Both routes fill blocks of _CHUNK values (see _file_blocks), by
    which the array grows in place; the scanner holds a line and a block at
    a time.
    """
    values = _read(path, column, _array)
    if values.size == 0:
        raise EmptyInputError(f"no data values found in {path}")
    return values


def file_stats(path: Union[str, Path], column: Optional[str] = None) -> SampleStats:
    """sample_stats(read_samples(path, column)), bit for bit, without holding the sample.

    The file takes read_samples' routes and raises its errors, then
    sample_stats' errors.  _Moments merges in place each block of _CHUNK
    values that either route gives, counted from the first value: the
    blocks that sample_stats takes of the array.
    """
    moments = _read(path, column, _Moments)
    if moments.count == 0:
        raise EmptyInputError(f"no data values found in {path}")
    return moments.stats()


# 10^s for the scale s = 16 - E, for every E within one of the exponents
# [-4, 15] of 1e-4 <= |v| < 1e16; each is exact (10^22 is the last that is)
_POW10 = np.array([float(10**s) for s in range(23)])
# a row's sort key in _format_fixed is E << _ROW_BITS plus its index in the call
_ROW_BITS = (_WRITE_CHUNK - 1).bit_length()
# the keys at which the rows of each exponent E in [-4, 15] start, and one past
_GROUP_KEYS = np.arange(-4, 17) << _ROW_BITS


class _Workspace:
    """The buffers of _format_fixed calls of up to `size` values, and merge scratch.

    A call of n values works in views [:n] of them, so every call reuses
    the same pages: fresh temporaries past glibc's mmap threshold would be
    handed back to the kernel after each call and faulted in again.  i,
    masks, kept and rows (43 bytes a value) live through a whole call.  The
    rest share one block of 56 bytes a value, and 24 more, in regions whose
    lifetimes do not overlap:

    - a = |x| and the six TwoProduct rows f (bytes [0, 56) a value) live
      until N is sorted;
    - then the digit scratch u ([0, 12)) while the digits are taken;
    - the digits ([24, 41)) until the text is laid out from them;
    - the text ([0, 24)) until it is scattered into out;
    - out ([24, 49), and 24 bytes) until it is written.

    spare is the whole block as float64, 7 size + 3 values: scratch for a
    merge between calls, such as a block of the sampler (at most 2 size
    values where size is _WRITE_CHUNK).
    """

    def __init__(self, size: int):
        self.spare = np.empty(7 * size + 3)
        block = self.spare.view(np.uint8)
        self.a = self.spare[:size]
        self.f = self.spare[size:7 * size].reshape(6, size)
        self.u = block[:12 * size].view(np.uint32).reshape(3, size)
        self.digits = block[24 * size:41 * size].reshape(17, size)
        self.text = block[:24 * size].reshape(24, size)
        # a line is at most 25 bytes (a negative value with a three-digit
        # exponent); one lead byte before the first line, and room for the
        # stray bytes after the last (see _format_fixed)
        self.out = block[24 * size:49 * size + 24]
        self.i = np.empty((4, size), dtype=np.int64)
        self.masks = np.empty((2, size), dtype=bool)
        self.kept = np.empty(size, dtype=np.int8)
        self.rows = np.arange(size)


def _veltkamp(x: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> None:
    """Split x into hi + lo = x exactly, each of at most 26 significant bits."""
    np.multiply(x, 134217729.0, out=hi)  # c = x * (2^27 + 1)
    np.subtract(hi, x, out=lo)
    np.subtract(hi, lo, out=hi)  # c - (c - x)
    np.subtract(x, hi, out=lo)


def _product_error(
    a: np.ndarray, b: np.ndarray, p: np.ndarray, out: np.ndarray,
    ah: np.ndarray, al: np.ndarray, bh: np.ndarray, bl: np.ndarray,
) -> np.ndarray:
    """a * b - p for p = fl(a * b), exactly (Dekker's TwoProduct), into out.

    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl from the Veltkamp
    splits into ah, al, bh and bl, each product into a factor that is
    spent; out may be b.
    """
    _veltkamp(a, ah, al)
    _veltkamp(b, bh, bl)
    e = np.multiply(ah, bh, out=out)
    e -= p
    e += np.multiply(ah, bl, out=ah)
    e += np.multiply(al, bh, out=bh)
    e += np.multiply(al, bl, out=bl)
    return e


def _round_scaled(a: np.ndarray, E: np.ndarray, out: np.ndarray, f: np.ndarray) -> np.ndarray:
    """round-half-even(a * 10^(16-E)) for a > 0, exactly where it is at least 2^53.

    Dekker's TwoProduct gives p = fl(a * b) and its error e = a * b - p,
    both exactly, for b = 10^(16-E). At a * b >= 2^53, p is an even
    integer, so rounding p + e half to even is p + rint(e). Below 2^53 the
    result is within two of a * b, so it stays below 10^16 and the caller
    computes the row again. The result goes into the int64 `out`; f holds
    six float64 rows of scratch like a.
    """
    b, p, ah, al, bh, bl = f
    # mode="clip" writes straight into b, where "raise" would buffer; every index is in range
    np.take(_POW10, np.subtract(16, E, out=out), out=b, mode="clip")
    np.multiply(a, b, out=p)
    e = _product_error(a, b, p, b, ah, al, bh, bl)
    # in int64: p + rint(e) can take 57 bits
    out[...] = p
    return np.add(out, np.rint(e, out=e), out=out, dtype=np.int64, casting="unsafe")


def _exponent_guess(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """floor(log10 a) for 1e-4 <= a < 1e16, into the float64 `out`.

    It may be one off next to a power of ten.
    """
    np.floor(np.log10(a, out=out), out=out)
    return np.clip(out, -4, 15, out=out)


def _format_fixed(x: np.ndarray, ws: _Workspace) -> np.ndarray:
    """format(v, ".17g") + "\n" for each v, as bytes in ws.out.

    For 1e-4 <= |v| < 1e16, ".17g" is positional notation of the 17-digit
    significand N of v, 10^16 <= N < 10^17, with trailing zeros (and a bare
    point) stripped. N is computed exactly in float64 arithmetic (see
    _round_scaled). The rows `rest` hold every other value, often none: zero,
    subnormals and exponent notation. Those go through "%.17g", the routine
    format() uses, and are laid out with the others. a = |x|, in ws, is
    overwritten in those rows; every other intermediate but rest is a view of
    ws, in the region of its lifetime (see _Workspace).
    """
    n = x.size
    a = np.abs(x, out=ws.a[:n])
    rest = np.flatnonzero((a < 1e-4) | (a >= 1e16))
    f = ws.f[:, :n]
    i0, i1, order, width = ws.i[:, :n]
    low, high = ws.masks[:, :n]

    # a guess one too high gives N < 10^16, one too low N >= 10^17 (= 10^17
    # also where v rounds up to 10^(E+1)); such rows, few in any sample,
    # are computed again with E moved by one
    E = i0
    a[rest] = 1.0  # a stand-in, whose digits the text below replaces
    E[...] = _exponent_guess(a, f[0])
    N = _round_scaled(a, E, i1, f)
    np.less(N, 10**16, out=low)
    low |= np.greater_equal(N, 10**17, out=high)
    if low.any():
        off = np.flatnonzero(low)
        E[off] += np.where(N[off] >= 10**17, 1, -1)
        N[off] = _round_scaled(a[off], E[off], np.empty(off.size, dtype=np.int64), f[:, :off.size])

    # rows sorted by E, so that every layout below is one slice; the key
    # E << _ROW_BITS plus the row's index sorts stably in place. The rows of
    # rest take E = 16, after every other row and in file order
    E[rest] = 16
    np.left_shift(E, _ROW_BITS, out=order)
    order += ws.rows[:n]
    order.sort()
    bounds = np.searchsorted(order, _GROUP_KEYS).tolist()
    order &= (1 << _ROW_BITS) - 1
    N = np.take(N, order, out=i0, mode="clip")

    # D[j] = digit j of N (most significant first), as ASCII; kept = digits
    # kept after the trailing zeros are stripped
    D = ws.digits[:, :n]
    kept = ws.kept[:n]
    kept.fill(17)
    zeros, flag = low, high
    zeros.fill(True)
    high_half = np.floor_divide(N, 10**9, out=i1)
    low_half = np.subtract(N, np.multiply(high_half, 10**9, out=width), out=i0)
    w, q, t = ws.u[:, :n]
    ten = np.uint32(10)
    # uint32 halves: digits 8..16 from low, then 0..7 from high
    for half, places in ((low_half, range(16, 7, -1)), (high_half, range(7, -1, -1))):
        w[...] = half
        for j in places:
            np.floor_divide(w, ten, out=q)
            D[j] = np.subtract(w, np.multiply(q, ten, out=t), out=t)
            w, q = q, w
            zeros &= np.equal(t, 0, out=flag)
            kept -= zeros
    D += ord("0")

    # T[c] = character c of each line's text after its sign; the rows past
    # a line's width hold stale bytes, which the scatters below overwrite
    T = ws.text[:, :n]
    for e, lo, hi in zip(range(-4, 16), bounds, bounds[1:]):
        if lo == hi:
            continue
        s = slice(lo, hi)
        if e >= 0:  # d0..de "." d(e+1)..d16
            T[:e + 1, s] = D[:e + 1, s]
            T[e + 1, s] = ord(".")
            T[e + 2:18, s] = D[e + 1:, s]
            # the point only where a kept digit follows it
            np.maximum(kept[s], e + 1, out=width[s])
            width[s] += np.greater(kept[s], e + 1, out=flag[s])
        else:  # "0." then -e-1 zeros, then d0..d16
            T[0, s] = ord("0")
            T[1, s] = ord(".")
            T[2:1 - e, s] = ord("0")
            T[1 - e:18 - e, s] = D[:, s]
            np.add(kept[s], 1 - e, out=width[s])
    # "%.17g" of each row of rest, sign included, left-aligned in 24
    # bytes: the padding lies past the width, where stale bytes lie
    s = slice(bounds[-1], n)
    text = ("%-24.17g" * rest.size) % tuple(x[rest].tolist())
    lines = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(-1, 24)
    T[:, s] = lines.T
    width[s] = np.count_nonzero(lines != ord(" "), axis=1)

    # every line goes to its place in file order by scatters into ws.out,
    # whose byte 0 only precedes the first line: the columns of T from the
    # last to the first, then the signs, then the newlines. A column past a
    # line's width lands on or after that line's newline, on a byte that a
    # later scatter overwrites: the newline, or a smaller column of a later
    # line. A positive line's sign lands on the newline before it, or byte 0
    neg = zeros
    np.take(np.less(x, 0, out=flag), order, out=neg, mode="clip")
    neg[bounds[-1]:] = False  # the rows of rest: in the text already
    lengths = np.add(width, neg, out=i1)
    lengths += 1
    i0[order] = lengths  # in file order
    ends = np.cumsum(i0, out=i1)  # = the index of each newline in ws.out
    total = int(ends[-1])
    newlines = np.take(ends, order, out=i0, mode="clip")
    columns = int(width.max())
    sign = np.subtract(newlines, width, out=width)
    sign -= 1
    out = ws.out
    for c in range(columns - 1, -1, -1):
        out[c + 1:][sign] = T[c]
    out[sign] = ord("-")
    out[newlines] = ord("\n")
    return out[1:total + 1]


def write_samples(path: Union[str, Path], values: Sequence[float]) -> None:
    """Write one value per line with 17 significant digits (round-trip exact).

    The file holds exactly the bytes of format(v, ".17g") + "\n" for each
    value, taken as a float64. A nan or infinite value raises DomainError
    before the file is opened. The values are formatted and written
    _WRITE_CHUNK at a time, in one workspace allocated per call (about
    1.6 MB for 16384 values or more).
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    if not np.isfinite(x).all():
        i = int(np.argmin(np.isfinite(x)))
        raise DomainError(f"cannot write non-finite value {float(x[i])!r} at index {i}")
    ws = _Workspace(min(x.size, _WRITE_CHUNK))
    with open(path, "wb") as fh:
        _write(fh, x, ws)


def _write(fh: BinaryIO, x: np.ndarray, ws: _Workspace) -> None:
    """The finite float64 values x into fh, _WRITE_CHUNK values to each _format_fixed call and fh.write."""
    for start in range(0, x.size, _WRITE_CHUNK):
        fh.write(_format_fixed(x[start:start + _WRITE_CHUNK], ws))


def _may_overflow(config: SamplerConfig) -> bool:
    """Whether a draw of the sample, or a sum of its moments, could overflow float64.

    No u exceeds _U_MAX, and in exact arithmetic x increases with u, so
    every draw lies in [m, m + s t] for t = (-ln u)^(-1/alpha) at _U_MAX.
    numpy's log and pow are within a few ulps but need not be monotone, so
    the bound takes 2 s t: where t is finite, 1/alpha < 19.3 (as -ln _U_MAX
    is about 2^-53), so pow amplifies those few ulps at most about 20 times.
    So no draw exceeds W = |m| + 2 s t in magnitude.  _Moments sums up to
    `count` fourth powers of deviations below 2W, and its merge terms reach
    count^2 times such a power; where 256 count^2 W^4 is finite, so is each
    of them, and so is the sum of a block's differences from its first value.
    """
    t = float(_transform(np.array([_U_MAX]), FrechetParams(0.0, 1.0, config.params.alpha))[0])
    w = abs(config.params.location) + 2.0 * config.params.scale * t
    w *= w
    return not math.isfinite(256.0 * config.count**2 * w * w)


def _written(config: SamplerConfig, x: np.ndarray, ws: _Workspace, fh: Optional[BinaryIO]) -> _Blocks:
    """sample(config)'s blocks drawn into x and written to fh (if given), each as (b, b, ws.spare) for _Moments."""
    for b in _blocks(config, x):
        if fh is not None:
            _write(fh, b, ws)
        yield b, b, ws.spare[:b.size]


def sample_to_file(path: Union[str, Path], config: SamplerConfig) -> Optional[SampleStats]:
    """write_samples(path, sample(config)) without holding the sample; returns sample_stats of it.

    Each block of _CHUNK values is drawn into one buffer, written half a
    block at a time as write_samples writes, in one workspace of about
    1.6 MB, and then merged in place by _Moments, with the workspace as
    scratch; so the file's bytes are those of write_samples and the stats
    are sample_stats(sample(config)) bit for bit (None for a count of 1).
    A draw that overflows, or for a count of at least 2 a spread that
    overflows the moments, raises DomainError before the file is opened, as
    sample and sample_stats do before write_samples: where _may_overflow
    says either could happen, a check pass draws and merges every block
    first and stores nothing.
    """
    x = np.empty(min(config.count, _CHUNK))
    ws = _Workspace(min(config.count, _WRITE_CHUNK))
    if _may_overflow(config):
        checked = _Moments(_written(config, x, ws, None))  # DomainError where a draw overflows
        if config.count >= 2:
            checked.stats()  # DomainError where the spread overflows
    with open(path, "wb") as fh:
        moments = _Moments(_written(config, x, ws, fh))
    return moments.stats() if config.count >= 2 else None
