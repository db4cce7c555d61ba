import math
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import frechetfit
from frechetfit import (
    DomainError,
    EmptyInputError,
    FrechetFitError,
    FrechetParams,
    ParseError,
    SamplerConfig,
    cdf,
    file_stats,
    quantile,
    read_samples,
    sample,
    sample_stats,
    write_samples,
)
from frechetfit import sampling_io
from frechetfit.sampling_io import _CHUNK, _WRITE_CHUNK, _scan


def config(alpha=5.0, m=0.0, s=1.0, seed=42, count=1000):
    return SamplerConfig(seed=seed, count=count, params=FrechetParams(m, s, alpha))


def expression(alpha, m, s, seed, count):
    """The sampler's docstring expression, on one whole-array draw."""
    rng = np.random.Generator(np.random.PCG64(seed))
    bits = rng.integers(0, 2**64, size=count, dtype=np.uint64)
    u = ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    u = np.minimum(u, 1.0 - 2.0**-53)  # the top word rounds to 1.0
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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha", [0.06, 1.0, 5.0])
    def test_largest_uniform_stays_below_one(self, alpha):
        # the top word's random() is 1 - 2^-53, and random() + 2^-54 rounds
        # to 1.0, where (-ln u)^(-1/alpha) would be inf
        b = np.array([1.0 - 2.0**-53, 0.5])
        x = sampling_io._transform(b, FrechetParams(0.0, 1.0, alpha))
        assert np.isfinite(x).all()
        assert x[0] == (-np.log(1.0 - 2.0**-53)) ** (-1.0 / alpha)

    @pytest.mark.parametrize("alpha,m,s,count,may", [
        (5.0, 0.0, 1.0, 10**6, False),
        (0.5, -1e60, 1.0, 10**6, False),
        # a block's mean rounds by about |m| eps, and its deviations by as much
        (0.5, 1e100, 1.0, 10**6, True),
        (1.0, 0.0, 1e304, 4 * _CHUNK, True),  # draws overflow
        (0.05, 0.0, 1.0, 10, True),  # the largest draw overflows, the sample need not
        (5.0, 0.0, 1e300, 10, True),  # draws are finite, their squares are not
        (5.0, 1e306, 1.0, 10**6, True),  # the sum of a block overflows
    ])
    def test_overflow_gate(self, alpha, m, s, count, may):
        assert sampling_io._may_overflow(config(alpha=alpha, m=m, s=s, count=count)) is may

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


# 18 to 25 significant digits, with the point at either end and inside
SIGNIFICANT = [
    d[:i] + "." + d[i:] if i is not None else d
    for n in range(18, 26)
    for d in ["".join(str((7 * j + n) % 10) for j in range(n)).lstrip("0")]
    for i in (None, 0, 1, 9, len(d))
]
# a 24-byte token with a point, and 25 and 27-byte ones (the last 24 bytes
# of the last one read as 5)
FORMS = ["-0", "0", "007", ".5", "5.", "-.5", "+1.5", "0.0000000000000000000125",
         "1.23456789012345678901234", "1.2345678901234567890123456", "1000000000000000000000005"]
# halfway between two doubles (2^53 + 1 and 2^52 + 1/2), and one unit away
TIES = ["9007199254740992", "9007199254740993", "9007199254740994",
        "4503599627370496.4", "4503599627370496.5", "4503599627370496.6", "-9007199254740993"]
# just below a power of two, where the next double down is half an ulp away
BELOW_POW2 = ["0.99999999999999994", "1.9999999999999998", "0.49999999999999997", "2047.9999999999998",
              "0.12499999999999999", "0.0000009536743164062499"]


def record_scans(monkeypatch):
    """Patch sampling_io._scan to record each call; returns the list of their columns."""
    calls = []

    def scan(text, column):
        calls.append(column)
        return _scan(text, column)

    monkeypatch.setattr(sampling_io, "_scan", scan)
    return calls


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
        "text, column, expected, plain",
        [
            ("\n\n1.0\n2.0\n", None, [1.0, 2.0], False),
            ("1.0\n\n  \n2.0\n\t\n3.0\n", None, [1.0, 2.0, 3.0], False),
            ("1.0\n2.0\n\n\n", None, [1.0, 2.0], False),
            ("\n\nvalue\n\n1.0\n2.0\n", None, [1.0, 2.0], False),
            ("value\r\n1.0\r\n\r\n2.0\r\n", None, [1.0, 2.0], False),
            ("1.0\r2.0\r", None, [1.0, 2.0], False),
            ("t  value\n0\t1.5\n 1   2.5 \n", "value", [1.5, 2.5], False),
            ("t,value,w\n0,1.5,9\n1,2.5,9\n", "value", [1.5, 2.5], False),
            ("1.5,\n2.5,\n", None, [1.5, 2.5], False),
            ("t,value\n0,1.5,\n", "value", [1.5], False),
            ("t,value\n0,,1.5\n", "value", [1.5], False),
            ("a,b,c\n1,,2,3\n", "c", [3.0], False),
            ("1.0\x0b2.0\n", None, [1.0, 2.0], False),
            ("t value\n0 1.5\n1,2.5\n", "value", [1.5, 2.5], False),
            ("1_000\n", None, [1000.0], False),
            # the plain-decimal reader, not the scanner
            *(pytest.param(text, column, [float(t) for t in expected], True, id=name)
              for name, text, column, expected in [
                ("forms", "\n".join(FORMS) + "\n", None, FORMS),
                ("digits-18-to-25", "\n".join(SIGNIFICANT) + "\n", None, SIGNIFICANT),
                ("ties", "\n".join(TIES) + "\n", None, TIES),
                ("below-a-power-of-two", "\n".join(BELOW_POW2) + "\n", None, BELOW_POW2),
                ("exponents", "0.5\n1e-05\n-2.5e-07\n3.25\n", None, ["0.5", "1e-05", "-2.5e-07", "3.25"]),
                ("no-last-newline", "value\n1.5\n-2.25", "value", ["1.5", "-2.25"]),
                ("header", "value\n1.5\n2.5\n", None, ["1.5", "2.5"]),
                ("split-by-a-read", "1.25\n" * (sampling_io._READ // 5) + "3.0625\n",
                 None, ["1.25"] * (sampling_io._READ // 5) + ["3.0625"]),
            ]),
        ],
    )
    def test_matches_scanner(self, tmp_path, monkeypatch, text, column, expected, plain):
        assert _scan(text, column) == expected
        if plain:
            monkeypatch.setattr(sampling_io, "_scan", None)
        p = tmp_path / "case.txt"
        p.write_bytes(text.encode())
        x = read_samples(p, column=column)
        assert x.tolist() == expected
        assert x.tobytes() == np.array(expected).tobytes()  # the sign of zero too

    @pytest.mark.parametrize(
        "text, column, expected, plain",
        [
            ("1.0\n\n2.0\n", None, [1.0, 2.0], False),
            ("t,value\n0,1.5\n", "value", [1.5], False),
            ("value\n1.0\n2.0\n", None, [1.0, 2.0], True),
        ],
    )
    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_reads_pipe(self, monkeypatch, text, column, expected, plain):
        # a pipe can be read only once, so both paths must parse the bytes read
        if plain:
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

    @settings(max_examples=100, deadline=None)
    @given(
        tokens=st.lists(
            st.floats(allow_nan=False, allow_infinity=False).flatmap(
                lambda v: st.sampled_from([format(v, ".17g"), repr(v)])
            )
            | st.builds(
                lambda sign, d, i: sign + (d[:i] + "." + d[i:] if i <= len(d) else d),
                st.sampled_from(["", "-"]),
                st.text("0123456789", min_size=1, max_size=25),
                st.integers(0, 26),
            ),
            min_size=1,
            max_size=50,
        )
    )
    def test_plain_decimals_property(self, tmp_path_factory, tokens):
        p = tmp_path_factory.mktemp("plain") / "case.txt"
        p.write_text("\n".join(tokens) + "\n")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampling_io, "_scan", None)
            x = read_samples(p)
        assert x.tobytes() == np.array([float(t) for t in tokens]).tobytes()

    # plain lines past the first block of _count_lines and of _plain_groups, before the line under test
    LEAD = "1.0\n" * (max(_CHUNK, sampling_io._READ) // 4 + 10)

    @pytest.mark.parametrize(
        "late",
        [
            "2.5,\n",  # a comma
            "2.5\u00a0\n",  # a non-ASCII space
            "2.5\x0b3.5\n",  # a line break only str.splitlines knows
            "2.5\u00e9\n",  # a non-ASCII letter: ParseError
            "a,b\n",  # ParseError
            "nan\n",  # plain bytes that _parse_lines turns back: ParseError
            "1e400\n",  # the same for an overflow
            "\n",  # a blank line
            "2.5\r\n",  # a carriage return
            " 2.5\n",  # a space
            "2.5\t3.5\n",  # a tab: ParseError
        ],
        ids=["comma", "nbsp", "vt", "letter", "comma-letters", "nan", "1e400", "blank", "crlf", "space", "tab"],
    )
    def test_late_byte_routes_to_scanner(self, tmp_path, monkeypatch, late):
        text = self.LEAD + late + "3.0\n"
        assert len(self.LEAD.encode()) > max(_CHUNK, sampling_io._READ)
        p = tmp_path / "late.txt"
        p.write_text(text)
        scans = record_scans(monkeypatch)

        def outcome(read):
            try:
                return [float(v) for v in read()]
            except ParseError as exc:
                return exc.line

        assert outcome(lambda: read_samples(p)) == outcome(lambda: _scan(text, None))
        assert scans

    @pytest.mark.parametrize(
        "header, column",
        [
            ("t value\n", None),
            ("t value\n", "value"),  # ParseError: the plain lines hold one column
            ("t,value\n", "value"),
            ("t\x1fvalue\n", None),  # "\x1f" splits tokens but not lines
            ("t\x1fvalue\n", "value"),
            ("value\r1.0,\n", None),  # one token by the comma, two lines by the "\r"
            ("valu\u00e9\n", None),  # a non-ASCII header
            ("valu\u00e9\n", "valu\u00e9"),
            ("value\n", "x"),  # ParseError from _layout
        ],
        ids=["space", "space-column", "comma-column", "us", "us-column", "cr-comma",
             "non-ascii", "non-ascii-column", "missing-column"],
    )
    def test_header_routes_to_scanner(self, tmp_path, monkeypatch, header, column):
        # the plain reader skips line 1 as a header only if it is one token of plain bytes
        text = header + self.LEAD + "3.0\n"
        p = tmp_path / "header.txt"
        p.write_text(text)
        scans = record_scans(monkeypatch)

        def outcome(read):
            try:
                return [float(v) for v in read()]
            except ParseError as exc:
                return exc.line, str(exc)

        assert outcome(lambda: read_samples(p, column=column)) == outcome(lambda: _scan(text, column))
        assert scans

    @pytest.mark.parametrize(
        "blank, rest, column, expected",
        [
            (" " + "\r\n" * _CHUNK, "value\n1.5\n2.5\n", None, [1.5, 2.5]),
            (" " + "\r\n" * _CHUNK, "t value\n0 1.5\n1 2.5\n", "value", [1.5, 2.5]),
            (" \t \n" * _CHUNK, "1.5\n2.5\n", None, [1.5, 2.5]),
            ("\r" * (2 * _CHUNK), "value\r1.5\r\r2.5\r", "value", [1.5, 2.5]),
        ],
    )
    def test_header_after_first_block(self, tmp_path, blank, rest, column, expected):
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


class TestFileStats:
    """file_stats(f) is sample_stats(read_samples(f)), bit for bit, errors included."""

    @staticmethod
    def assert_same(p, column=None):
        def outcome(stats):
            try:
                return repr(stats())  # repr tells every float bit, nan and -0.0 too
            except FrechetFitError as exc:
                return type(exc), str(exc), getattr(exc, "line", None)

        expected = outcome(lambda: sample_stats(read_samples(p, column=column)))
        assert outcome(lambda: file_stats(p, column=column)) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        text=st.lists(
            st.sampled_from(["1", "-2.5e3", "0.1", "x", "nan", "1e200", " ", "\t", ",", "\n", "\r\n", "\x0b"]),
            max_size=20,
        ).map("".join),
        column=st.sampled_from([None, "x"]),
    )
    def test_matches_property(self, tmp_path_factory, text, column):
        p = tmp_path_factory.mktemp("stats") / "case.txt"
        p.write_bytes(text.encode())
        self.assert_same(p, column)

    @pytest.mark.parametrize("late", ["\n", "2.5,\n", "2.5\r\n", "nan\n", "a,b\n"],
                             ids=["blank", "comma", "crlf", "nan", "comma-letters"])
    def test_plain_route_gives_up_after_merged_blocks(self, tmp_path, monkeypatch, late):
        x = sample(config(count=2 * _CHUNK + 10))
        p = tmp_path / "late.txt"
        write_samples(p, x)
        p.write_bytes(p.read_bytes() + late.encode() + b"3.0\n")
        scans = record_scans(monkeypatch)
        self.assert_same(p)
        assert len(scans) == 2

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_reads_pipe(self):
        r, w = os.pipe()
        try:
            os.write(w, b"value\n1.0\n2.0\n4.0\n")
            os.close(w)
            stats = file_stats(f"/dev/fd/{r}")
        finally:
            os.close(r)
        assert repr(stats) == repr(sample_stats([1.0, 2.0, 4.0]))


class TestSampleToFile:
    """sample_to_file(p, c) writes write_samples(p, sample(c)) and returns its moments."""

    @pytest.mark.parametrize("count", [1, 2, 3, _WRITE_CHUNK - 1, _WRITE_CHUNK, _WRITE_CHUNK + 1,
                                       _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
    @pytest.mark.parametrize("alpha,m,s", [(5.0, 0.0, 1.0), (0.1, 1.5, 2.0)], ids=["plain", "gated"])
    def test_matches_array_path(self, tmp_path, count, alpha, m, s):
        c = config(alpha=alpha, m=m, s=s, seed=count, count=count)
        assert sampling_io._may_overflow(c) == (alpha < 1)  # the check pass runs
        streamed, expected = tmp_path / "streamed.txt", tmp_path / "expected.txt"
        moments = sampling_io.sample_to_file(streamed, c)
        x = sample(c)
        write_samples(expected, x)
        assert streamed.read_bytes() == expected.read_bytes()
        assert moments.count == count
        if count == 1:
            with pytest.raises(FrechetFitError):
                sample_stats(x)
        else:
            assert repr(moments.stats()) == repr(sample_stats(x))


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
        def guess(a, out):
            exact = [Decimal(v).adjusted() for v in a.tolist()]  # floor(log10 v)
            out[...] = np.array(exact) + delta
            return out

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
        # the calls of _format_fixed end at every _WRITE_CHUNK values, so
        # both the sampler's blocks and the writer's calls are covered
        rng = np.random.default_rng(5)
        for edge in (_CHUNK, _WRITE_CHUNK):
            n = 2 * edge + 123
            x = np.clip(10.0 ** rng.uniform(-4, 16, n), 1e-4, 9e15) * rng.choice([-1.0, 1.0], n)
            x[edge + 7] = 0.0  # the middle chunk goes through the fallback
            assert written(tmp_path, x) == dot17g(x)

    def test_chunks_reuse_the_workspace(self, tmp_path):
        # each call leaves its bytes in the workspace; narrower lines after
        # wider ones must not pick them up
        rng = np.random.default_rng(8)
        for edge in (_CHUNK, _WRITE_CHUNK):
            # "-dddddddddddddddd" and "-dddddddddddddddd.5", E = 15
            wide = -(rng.integers(10**15, 4 * 10**15, edge) + rng.choice([0.0, 0.5], edge))
            narrow = rng.choice([1.0, 1.5, 2.25, 3.125], edge)  # E = 0
            only_fallback = rng.choice(FALLBACK, edge)
            fallback = narrow.copy()
            fallback[5] = 0.0
            last = rng.choice([0.5, 2.0, 7.0], 123)
            x = np.concatenate([wide, narrow, only_fallback, fallback, last])
            assert written(tmp_path, x) == dot17g(x)

    @pytest.mark.parametrize("share", [1e-4, 0.37, 0.5, 0.999, 1.0])
    def test_mixed_chunks(self, tmp_path, share):
        # fallback rows scattered at random among positional ones, in full
        # chunks and a short last one: the widest fallback lines (24 bytes)
        # next to the narrowest positional ones, and negative fallback rows
        # after positive positional ones, which lay their sign on the newline
        rng = np.random.default_rng(13)
        for edge in (_CHUNK, _WRITE_CHUNK):
            n = 2 * edge + 1001
            x = rng.choice([1.0, 2.5, 0.125, -3.0, 1e15 + 0.5, -1.5e-4], n)
            rows = rng.random(n) < share
            rows[[0, edge - 1, edge, n - 1]] = True
            x[rows] = rng.choice(FALLBACK + [-TINY_NORMAL, -1e-300, 1e-5, -9e-5, 3e16], int(rows.sum()))
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


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux page faults")
def test_write_samples_faults_in_its_memory_once(tmp_path):
    # a fresh process, where no earlier free has raised glibc's mmap
    # threshold: buffers made anew for every chunk are unmapped after it and
    # faulted in again, about 27,600 minor faults for these 1e6 values
    code = f"""
import resource
from frechetfit import FrechetParams, SamplerConfig, sample, sample_stats, write_samples
x = sample(SamplerConfig(seed=77, count=10**6, params=FrechetParams(0.0, 1.0, 5.0)))
sample_stats(x)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
write_samples({str(tmp_path / "s.txt")!r}, x)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(frechetfit.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert int(out.stdout) <= 4000


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux page faults")
def test_read_samples_faults_in_its_memory_once(tmp_path):
    # a fresh process; the plain-decimal reader parses every block in one
    # workspace, where buffers made anew for every block took about 80,000
    # minor faults for these 1e6 values
    p = tmp_path / "s.txt"
    write_samples(p, sample(config(seed=77, count=10**6)))
    code = f"""
import resource
from frechetfit import read_samples
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
read_samples({str(p)!r})
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(frechetfit.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert int(out.stdout) <= 4000


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

    def test_estimate_input(self, tmp_path, capsys):
        # the file's moments are merged block by block: no array of the sample
        from frechetfit.cli import main

        small, p = tmp_path / "small.txt", tmp_path / "big.txt"
        write_samples(small, sample(config(count=10)))
        main(["estimate", "--input", str(small)])
        write_samples(p, sample(config(count=self.N)))
        code, peak = traced_peak(main, ["estimate", "--input", str(p)])
        assert code == 0 and f"count {self.N}," in capsys.readouterr().out
        assert peak <= self.SCRATCH

    def test_sample_output(self, tmp_path, capsys):
        # the draws are written and merged block by block: no array of the
        # sample, only the writer's workspace (1.6 MB) and a block of scratch;
        # the workspace's views into its shared block are not counted again
        from frechetfit.cli import main

        n = 10**6
        ws = sampling_io._Workspace(_WRITE_CHUNK)
        bound = sum(a.nbytes for a in vars(ws).values() if a.base is None) + self.SCRATCH
        del ws
        assert 8 * n > bound
        p = tmp_path / "s.txt"
        main(["sample", "--alpha", "5", "--count", "10", "-o", str(p)])
        code, peak = traced_peak(main, ["sample", "--alpha", "5", "--count", str(n), "-o", str(p)])
        assert code == 0 and f"wrote {n} samples" in capsys.readouterr().out
        assert peak <= bound

    def test_read_samples_scanner(self, tmp_path):
        # a CRLF file goes to _scan, which holds the text, its lines and a
        # float per line; the file's bytes (5.8 MB) are dropped once decoded
        p = tmp_path / "crlf.txt"
        write_samples(p, sample(config(count=self.N)))
        data = p.read_bytes().replace(b"\n", b"\r\n")
        p.write_bytes(data)
        text = data.decode("ascii").replace("\r\n", "\n")
        del data
        held = sys.getsizeof(text)
        for seq in (text.splitlines(), _scan(text, None)):
            held += sys.getsizeof(seq) + sum(map(sys.getsizeof, seq))
        del text
        x, peak = traced_peak(read_samples, p)
        assert x.size == self.N
        assert peak <= held + self.SCRATCH
