import math
import os
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from frechetfit import (
    DomainError,
    EmptyInputError,
    FrechetParams,
    ParseError,
    SamplerConfig,
    cdf,
    quantile,
    read_samples,
    sample,
    write_samples,
)
from frechetfit import sampling_io
from frechetfit.sampling_io import _CHUNK, _scan


def config(alpha=5.0, m=0.0, s=1.0, seed=42, count=1000):
    return SamplerConfig(seed=seed, count=count, params=FrechetParams(m, s, alpha))


def expression(alpha, m, s, seed, count):
    """The sampler's docstring expression, on one whole-array draw."""
    rng = np.random.Generator(np.random.PCG64(seed))
    bits = rng.integers(0, 2**64, size=count, dtype=np.uint64)
    u = ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    with np.errstate(over="ignore"):
        return m + s * (-np.log(u)) ** (-1.0 / alpha)


def traced_peak(fn, *args):
    """fn(*args), and the most bytes it added to the traced heap, its result included.

    numpy reports its array buffers to tracemalloc.
    """
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


class TestSampler:
    def test_determinism(self):
        a = sample(config())
        b = sample(config())
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(sample(config(seed=1)), sample(config(seed=2)))

    def test_support(self):
        x = sample(config(m=3.0, s=2.0, count=20000))
        assert np.all(x > 3.0)

    @pytest.mark.parametrize("alpha", [1.0, 3.7])
    def test_matches_expression_bit_for_bit(self, alpha):
        m, s, seed = 0.5, 2.0, 3
        # the sampler draws block by block; every split of the last block
        for count in (5000, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 17):
            x = sample(config(alpha=alpha, m=m, s=s, seed=seed, count=count))
            assert x.tobytes() == expression(alpha, m, s, seed, count).tobytes(), count

    def test_count_validation(self):
        with pytest.raises(DomainError):
            config(count=0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha,m,s", [(0.5, 0.0, 1e308), (0.001, 0.0, 1.0), (5.0, 1e308, 1e308)])
    def test_overflow_is_domain_error_without_warnings(self, alpha, m, s):
        with pytest.raises(DomainError, match="overflows float64"):
            sample(config(alpha=alpha, m=m, s=s, count=100))

    @pytest.mark.filterwarnings("error")
    def test_overflow_in_a_late_block_is_domain_error(self):
        # with seed 7 the draws of the first block stay finite at this scale
        alpha, m, s, seed, count = 1.0, 0.0, 1e304, 7, 4 * _CHUNK
        expected = expression(alpha, m, s, seed, count)
        assert np.isfinite(expected[:_CHUNK]).all() and not np.isfinite(expected).all()
        with pytest.raises(DomainError, match="overflows float64"):
            sample(config(alpha=alpha, m=m, s=s, seed=seed, count=count))

    def test_empirical_cdf_at_median(self):
        d = FrechetParams(0.0, 1.0, 2.0)
        x = sample(SamplerConfig(seed=11, count=100_000, params=d))
        frac = float(np.mean(x <= quantile(d, 0.5)))
        assert frac == pytest.approx(0.5, abs=0.005)

    @pytest.mark.parametrize("alpha", [2.0, 5.0, 10.0])
    def test_kolmogorov_smirnov(self, alpha):
        n = 10_000
        d = FrechetParams(0.0, 1.0, alpha)
        x = np.sort(sample(SamplerConfig(seed=99, count=n, params=d)))
        u = np.array([cdf(d, v) for v in x])
        i = np.arange(1, n + 1)
        ks = max(np.max(i / n - u), np.max(u - (i - 1) / n))
        assert ks < 1.63 / math.sqrt(n)

    def test_variance_matches_table(self):
        n = 1_000_000
        x = sample(SamplerConfig(seed=2024, count=n, params=FrechetParams(0.0, 1.0, 10.0)))
        from frechetfit import FrechetShape, centered_moment, sample_stats

        shape = FrechetShape(10.0)
        mu2 = centered_moment(shape, 2)
        mu4 = centered_moment(shape, 4)
        se = math.sqrt((mu4 - mu2**2) / n)
        assert abs(sample_stats(x).variance - 0.0222624) <= 3.0 * se


class TestReadSamples:
    def test_plain_values(self, tmp_path):
        p = tmp_path / "plain.txt"
        p.write_text("1.0\n2.5\n0.3\n")
        x = read_samples(p)
        assert isinstance(x, np.ndarray) and x.dtype == np.float64
        assert x.tolist() == [1.0, 2.5, 0.3]

    def test_header_with_named_column(self, tmp_path):
        p = tmp_path / "named.txt"
        p.write_text("value\n1.0\n2.0\n")
        assert read_samples(p, column="value").tolist() == [1.0, 2.0]

    def test_multi_column_csv(self, tmp_path):
        p = tmp_path / "multi.csv"
        p.write_text("t,value\n0,1.5\n1,2.5\n")
        x = read_samples(p, column="value")
        assert x.dtype == np.float64 and x.tolist() == [1.5, 2.5]

    def test_header_skipped_without_column(self, tmp_path):
        p = tmp_path / "hdr.txt"
        p.write_text("value\n3.0\n4.0\n")
        assert read_samples(p).tolist() == [3.0, 4.0]

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "blank.txt"
        p.write_text("1.0\n\n2.0\n\n")
        assert read_samples(p).tolist() == [1.0, 2.0]

    @pytest.mark.parametrize(
        "text, column, expected, fast",
        [
            ("\n\n1.0\n2.0\n", None, [1.0, 2.0], True),
            ("1.0\n\n  \n2.0\n\t\n3.0\n", None, [1.0, 2.0, 3.0], True),
            ("1.0\n2.0\n\n\n", None, [1.0, 2.0], True),
            ("\n\nvalue\n\n1.0\n2.0\n", None, [1.0, 2.0], True),
            ("value\r\n1.0\r\n\r\n2.0\r\n", None, [1.0, 2.0], True),
            ("1.0\r2.0\r", None, [1.0, 2.0], True),
            ("t  value\n0\t1.5\n 1   2.5 \n", "value", [1.5, 2.5], True),
            # np.loadtxt would split these otherwise, so the scanner reads them
            ("t,value,w\n0,1.5,9\n1,2.5,9\n", "value", [1.5, 2.5], False),
            ("1.5,\n2.5,\n", None, [1.5, 2.5], False),
            ("t,value\n0,1.5,\n", "value", [1.5], False),
            ("t,value\n0,,1.5\n", "value", [1.5], False),
            ("a,b,c\n1,,2,3\n", "c", [3.0], False),
            ("1.0\x0b2.0\n", None, [1.0, 2.0], False),
            ("t value\n0 1.5\n1,2.5\n", "value", [1.5, 2.5], False),
            ("1_000\n", None, [1000.0], False),
        ],
    )
    def test_matches_scanner(self, tmp_path, monkeypatch, text, column, expected, fast):
        assert _scan(text, column) == expected
        if fast:
            monkeypatch.setattr(sampling_io, "_scan", None)
        p = tmp_path / "case.txt"
        p.write_bytes(text.encode())
        assert read_samples(p, column=column).tolist() == expected

    @pytest.mark.parametrize(
        "text, column, expected, fast",
        [
            ("1.0\n\n2.0\n", None, [1.0, 2.0], True),
            ("t,value\n0,1.5\n", "value", [1.5], False),
        ],
    )
    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_reads_pipe(self, monkeypatch, text, column, expected, fast):
        # a pipe can be read only once, so both paths must parse the bytes read
        if fast:
            monkeypatch.setattr(sampling_io, "_scan", None)
        r, w = os.pipe()
        try:
            os.write(w, text.encode())
            os.close(w)
            assert read_samples(f"/dev/fd/{r}", column=column).tolist() == expected
        finally:
            os.close(r)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("value\n1.0\nabc\n", 3),
            ("\n\n1.0\n\nabc\n", 5),
            ("1.0\r\nabc\r\n", 2),
            ("1.0\n2 3,4\n", 2),
            ("1.0\nnan\n", 2),
            ("value\n1.0\n\ninf\n", 4),
            ("-inf\n1.0\n", 1),
            ("1.0\n1e400\n", 2),
        ],
    )
    def test_parse_error_line(self, tmp_path, text, line):
        p = tmp_path / "bad.txt"
        p.write_bytes(text.encode())
        with pytest.raises(ParseError) as exc:
            read_samples(p)
        assert exc.value.line == line

    def test_column_without_header(self, tmp_path):
        p = tmp_path / "nohdr.txt"
        p.write_text("\n1.0\n2.0\n")
        with pytest.raises(ParseError) as exc:
            read_samples(p, column="value")
        assert exc.value.line == 2

    @pytest.mark.filterwarnings("error")
    def test_header_only(self, tmp_path):
        p = tmp_path / "hdr.txt"
        p.write_text("value\n\n")
        with pytest.raises(EmptyInputError):
            read_samples(p)

    @settings(max_examples=200, deadline=None)
    @given(
        text=st.lists(
            st.sampled_from(["1", "-2.5e3", "0.1", "x", "nan", " ", "\t", ",", ",,", "\n", "\r\n", "\r", "\x0b"]),
            max_size=20,
        ).map("".join),
        column=st.sampled_from([None, "x"]),
    )
    def test_matches_scanner_property(self, tmp_path_factory, text, column):
        p = tmp_path_factory.mktemp("fuzz") / "case.txt"
        p.write_bytes(text.encode())

        def outcome(read):
            try:
                values = [float(v) for v in read()]
            except EmptyInputError:
                return "empty"
            except ParseError as exc:
                return exc.line
            return values or "empty"

        expected = outcome(lambda: _scan(text, column))
        assert outcome(lambda: read_samples(p, column=column)) == expected

    # more than one read block of plain lines before the line under test
    LEAD = "1.0\n" * (_CHUNK // 4 + 10)

    @pytest.mark.parametrize(
        "late",
        [
            "2.5,\n",  # a comma
            "2.5\u00a0\n",  # a non-ASCII space
            "2.5\x0b3.5\n",  # a line break only str.splitlines knows
            "2.5\u00e9\n",  # a non-ASCII letter: ParseError
            "a,b\n",  # ParseError
        ],
        ids=["comma", "nbsp", "vt", "letter", "comma-letters"],
    )
    def test_late_byte_routes_to_scanner(self, tmp_path, monkeypatch, late):
        text = self.LEAD + late + "3.0\n"
        assert len(self.LEAD.encode()) > _CHUNK

        def no_loadtxt(*args):
            pytest.fail("np.loadtxt was given a file that the scanner must read")

        monkeypatch.setattr(sampling_io, "_load", no_loadtxt)
        p = tmp_path / "late.txt"
        p.write_text(text)

        def outcome(read):
            try:
                return [float(v) for v in read()]
            except ParseError as exc:
                return exc.line

        assert outcome(lambda: read_samples(p)) == outcome(lambda: _scan(text, None))

    @pytest.mark.parametrize(
        "blank, rest, column, expected",
        [
            (" " + "\r\n" * _CHUNK, "value\n1.5\n2.5\n", None, [1.5, 2.5]),
            (" " + "\r\n" * _CHUNK, "t value\n0 1.5\n1 2.5\n", "value", [1.5, 2.5]),
            (" \t \n" * _CHUNK, "1.5\n2.5\n", None, [1.5, 2.5]),
            ("\r" * (2 * _CHUNK), "value\r1.5\r\r2.5\r", "value", [1.5, 2.5]),
        ],
    )
    def test_header_after_first_block(self, tmp_path, monkeypatch, blank, rest, column, expected):
        # np.loadtxt reads these; a wrong header line number would send them to the scanner
        monkeypatch.setattr(sampling_io, "_scan", None)
        p = tmp_path / "lead.txt"
        p.write_bytes((blank + rest).encode())
        assert len(blank) > _CHUNK
        assert read_samples(p, column=column).tolist() == expected

    def test_parse_error_with_line_number(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1.0\nabc\n")
        with pytest.raises(ParseError) as exc:
            read_samples(p)
        assert exc.value.line == 2

    def test_missing_column(self, tmp_path):
        p = tmp_path / "miss.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(ParseError):
            read_samples(p, column="c")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("\n\n")
        with pytest.raises(EmptyInputError):
            read_samples(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_samples(tmp_path / "nope.txt")


class TestWriteReadRoundTrip:
    def test_lossless(self, tmp_path):
        x = sample(config(count=500, seed=3))
        p = tmp_path / "rt.txt"
        write_samples(p, x)
        back = read_samples(p)
        assert np.array_equal(np.asarray(back), x)

    @settings(max_examples=50, deadline=None)
    @given(
        x=arrays(np.float64, st.integers(1, 50), elements=st.floats(allow_nan=False, allow_infinity=False)),
        header=st.booleans(),
    )
    def test_lossless_property(self, tmp_path_factory, x, header):
        p = tmp_path_factory.mktemp("rt") / "rt.txt"
        write_samples(p, x)
        if header:
            p.write_text("value\n" + p.read_text())
        back = np.asarray(read_samples(p, column="value" if header else None))
        assert back.tobytes() == x.tobytes()


def dot17g(values) -> bytes:
    """The reference: one format(v, ".17g") line per value."""
    return "".join(format(float(v), ".17g") + "\n" for v in values).encode()


def written(tmp_path, values) -> bytes:
    p = tmp_path / "w.txt"
    write_samples(p, values)
    return p.read_bytes()


TINY_NORMAL = float(np.finfo(np.float64).tiny)


def neighbours(v, steps=2):
    """v and its nearest `steps` doubles on either side."""
    out = [v]
    for direction in (-math.inf, math.inf):
        w = v
        for _ in range(steps):
            w = math.nextafter(w, direction)
            out.append(w)
    return out


def ties(s):
    """Doubles v = m * 2^-(s+1), m odd, so that v * 10^s = m * 5^s / 2 is a tie in [10^16, 10^17)."""
    lo, hi = -(-2 * 10**16 // 5**s), min(2 * 10**17 // 5**s, 2**53)
    return [m * 2.0 ** -(s + 1) for m in range(lo | 1, hi, (hi - lo) // 5 & ~1)]


# 17-digit positional values: around every power of ten in the range, where
# the floor(log10) estimate of the exponent is off by one, and dyadic ties
# that round half to even at the 17th digit, at every exponent E = 16 - s
POSITIONAL = sorted(
    {v for k in range(-4, 17) for v in neighbours(10.0**k) if 1e-4 <= v < 1e16}
    | {1 + 2.0**-17, 1 + 3 * 2.0**-17, 0.5 + 2.0**-18, 2.0**53 - 1, 2.0**53, 2.0**53 + 1,
       2.0**53 + 2, 0.1, 0.3, 1.0, 123.456, 9007199254740993.0 / 3}
    | {v for s in range(1, 21) for v in ties(s)}
)
# everything else goes through the exponent-notation fallback
FALLBACK = [0.0, -0.0, 5e-324, -5e-324, TINY_NORMAL, math.nextafter(TINY_NORMAL, 0.0),
            math.nextafter(1e-4, 0.0), 1e16, math.nextafter(1e16, math.inf), 1e300,
            -1.7976931348623157e308, 1e22, 1e-100]


class TestWriteSamples:
    @pytest.mark.parametrize("v", POSITIONAL + [-v for v in POSITIONAL] + FALLBACK)
    def test_single_value(self, tmp_path, v):
        assert written(tmp_path, [v]) == dot17g([v])

    def test_positional_values_together(self, tmp_path):
        x = np.array(POSITIONAL + [-v for v in POSITIONAL])
        assert written(tmp_path, x) == dot17g(x)

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_exponent_guess_one_off(self, tmp_path, monkeypatch, delta):
        # with the guess one off, every row takes the corrected second pass,
        # including exact powers of ten, whose guess one too low gives N = 10^17
        def guess(a):
            exact = [Decimal(v).adjusted() for v in a.tolist()]  # floor(log10 v)
            return np.array(exact, dtype=np.int64) + delta

        monkeypatch.setattr(sampling_io, "_exponent_guess", guess)
        x = np.array(POSITIONAL + [-v for v in POSITIONAL])
        assert written(tmp_path, x) == dot17g(x)

    def test_chunk_mixing_positional_and_fallback_values(self, tmp_path):
        x = np.array(POSITIONAL + FALLBACK + POSITIONAL[::-1])
        assert written(tmp_path, x) == dot17g(x)

    def test_list_and_float32_input(self, tmp_path):
        assert written(tmp_path, [1, 0.1, -2.5, 3e-5]) == dot17g([1, 0.1, -2.5, 3e-5])
        x = np.array([0.1, 1.5, 3.3e-5, 7e20], dtype=np.float32)
        assert written(tmp_path, x) == dot17g(x.astype(np.float64))

    def test_three_chunks(self, tmp_path):
        rng = np.random.default_rng(5)
        n = 2 * _CHUNK + 123
        x = np.clip(10.0 ** rng.uniform(-4, 16, n), 1e-4, 9e15) * rng.choice([-1.0, 1.0], n)
        x[_CHUNK + 7] = 0.0  # the middle chunk goes through the fallback
        assert written(tmp_path, x) == dot17g(x)

    def test_empty(self, tmp_path):
        assert written(tmp_path, []) == b""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected_before_open(self, tmp_path, bad):
        p = tmp_path / "bad.txt"
        with pytest.raises(DomainError, match="index 2"):
            write_samples(p, [1.0, 2.0, bad, 3.0])
        assert not p.exists()

    @settings(max_examples=200, deadline=None)
    @given(x=arrays(np.float64, st.integers(1, 100), elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_matches_format_property(self, tmp_path_factory, x):
        assert written(tmp_path_factory.mktemp("w"), x) == dot17g(x)

    @settings(max_examples=200, deadline=None)
    @given(
        x=arrays(
            np.float64,
            st.integers(1, 100),
            elements=st.floats(1e-4, 1e16, exclude_max=True) | st.floats(-1e16, -1e-4, exclude_min=True),
        )
    )
    def test_matches_format_property_positional(self, tmp_path_factory, x):
        assert written(tmp_path_factory.mktemp("w"), x) == dot17g(x)


class TestPeakMemory:
    """Each pass over a sample holds its result plus a fixed block of scratch."""

    N = 300_000
    SCRATCH = 2_000_000

    def test_sample(self):
        sample(config(count=10))  # numpy's first-call set-up
        x, peak = traced_peak(sample, config(count=self.N))
        assert peak <= x.nbytes + self.SCRATCH

    def test_sample_stats(self):
        from frechetfit import sample_stats

        sample_stats(sample(config(count=10)))
        x = sample(config(count=self.N))
        _, peak = traced_peak(sample_stats, x)
        assert peak <= self.SCRATCH

    def test_read_samples(self, tmp_path):
        small, p = tmp_path / "small.txt", tmp_path / "big.txt"
        write_samples(small, sample(config(count=10)))
        read_samples(small)
        write_samples(p, sample(config(count=self.N)))
        x, peak = traced_peak(read_samples, p)
        assert x.size == self.N
        assert peak <= x.nbytes + self.SCRATCH
