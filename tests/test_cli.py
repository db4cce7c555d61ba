import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import frechetfit
import frechetfit.special_functions as sf
from frechetfit import (
    FrechetParams,
    FrechetShape,
    LaurentCoefficients,
    SamplerConfig,
    alpha_exact,
    alpha_order1,
    alpha_order2,
    normalized_centered_moment,
    read_samples,
    sample,
    sample_stats,
    write_samples,
)
from frechetfit.cli import _json_value, main
from frechetfit.sampling_io import _CHUNK, _LINES, _WRITE_CHUNK


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitStatusContract:
    def test_success(self, capsys):
        assert run(capsys, "moments", "--alpha", "5")[0] == 0

    def test_usage_error_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate"])  # neither --variance nor --input
        assert exc.value.code == 2
        capsys.readouterr()

    def test_both_sources_is_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--variance", "0.1", "--input", "x.txt"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_column_without_input_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--variance", "0.1", "--column", "value"])
        assert exc.value.code == 2
        assert "--column needs --input" in capsys.readouterr().err

    def test_domain_error_is_3(self, capsys):
        code, _, err = run(capsys, "estimate", "--variance", "-1")
        assert code == 3
        assert "error" in err

    def test_io_error_is_4(self, capsys, tmp_path):
        code, _, err = run(capsys, "estimate", "--input", str(tmp_path / "missing.txt"))
        assert code == 4

    def test_parse_error_is_4(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1.0\nxyz\n")
        code, _, _ = run(capsys, "estimate", "--input", str(p))
        assert code == 4

    def test_undecodable_bytes_is_4(self, capsys, tmp_path):
        p = tmp_path / "binary.txt"
        p.write_bytes(b"\xff")
        code, _, err = run(capsys, "estimate", "--input", str(p))
        assert code == 4
        assert "Traceback" not in err

    @pytest.mark.parametrize("v", ["1e12", "1e-20"])
    def test_variance_outside_solver_bracket_is_3(self, capsys, v):
        code, _, err = run(capsys, "estimate", "--variance", v, "--method", "exact")
        assert code == 3
        assert "no alpha" in err

    def test_non_finite_value_is_4(self, capsys, tmp_path):
        p = tmp_path / "nan.txt"
        p.write_text("1.0\n2.0\nnan\n")
        code, _, err = run(capsys, "estimate", "--input", str(p))
        assert code == 4
        assert "line 3" in err


class TestMoments:
    def test_variance_row(self, capsys):
        code, out, _ = run(capsys, "moments", "--alpha", "5", "--max-order", "4")
        assert code == 0
        assert "0.1337614" in out

    def test_max_order_below_2_is_a_domain_error(self, capsys):
        code, out, err = run(capsys, "moments", "--alpha", "5", "--max-order", "1")
        assert (code, out) == (3, "")
        assert err == "error: --max-order must be >= 2\n"

    def test_undefined_markers(self, capsys):
        code, out, _ = run(capsys, "moments", "--alpha", "2", "--max-order", "4")
        assert code == 0
        assert out.count("undefined (k >= alpha)") >= 3
        assert "+inf" in out

    def test_json_matches_library(self, capsys):
        code, out, _ = run(capsys, "moments", "--alpha", "8", "--max-order", "6",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        sixth = payload["moments"][5]
        assert sixth["order"] == 6
        expected = normalized_centered_moment(FrechetShape(8.0), 6)
        assert sixth["normalized"] == expected

    def test_json_fields_finite_or_marked(self, capsys):
        _, out, _ = run(capsys, "moments", "--alpha", "3", "--max-order", "5",
                        "--format", "json")
        payload = json.loads(out)
        for entry in payload["moments"]:
            for key in ("raw", "centered", "normalized"):
                v = entry[key]
                assert v is None or isinstance(v, str) or math.isfinite(v)
        assert payload["skewness"] == "inf"

    def test_high_orders_run(self, capsys):
        code, out, _ = run(capsys, "moments", "--alpha", "1000", "--max-order", "100",
                           "--format", "json")
        assert code == 0
        assert [m["order"] for m in json.loads(out)["moments"]] == list(range(1, 101))

    def test_orders_lost_to_cancellation_print_as_missing(self, capsys):
        # orders 21..30 at alpha = 1e8 take the binomial sum, which keeps no digit there
        code, out, _ = run(capsys, "moments", "--alpha", "1e8", "--max-order", "30",
                           "--format", "json")
        assert code == 0
        moments = json.loads(out)["moments"]
        assert all(m["centered"] is not None and m["centered"] > 0.0 for m in moments[1:20:2])
        assert all(m["centered"] is None and m["normalized"] is None for m in moments[20:])
        assert all(m["defined"] and m["raw"] is not None for m in moments)
        code, out, _ = run(capsys, "moments", "--alpha", "1e8", "--max-order", "30")
        assert code == 0
        row = out.splitlines()[30].split()
        assert row[0] == "30" and row[2:] == ["-", "-"]

    def test_json_large_alpha_near_the_gumbel_limits(self, capsys):
        # alpha -> inf limits: skewness 1.1395471, excess kurtosis 2.4
        code, out, _ = run(capsys, "moments", "--alpha", "1e5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["skewness"] == pytest.approx(1.13961, abs=5e-6)
        assert payload["excess_kurtosis"] == pytest.approx(2.40029, abs=5e-6)


class TestEstimate:
    def test_method_all_table_row(self, capsys):
        code, out, _ = run(capsys, "estimate", "--variance", "0.0222624", "--method", "all")
        assert code == 0
        payloadless = out
        assert "order1" in payloadless and "order2-cardano" in payloadless
        code, out, _ = run(capsys, "estimate", "--variance", "0.0222624",
                           "--method", "all", "--format", "json")
        payload = json.loads(out)
        alphas = {e["method"]: e["alpha"] for e in payload["estimates"]}
        assert alphas["order1"] == pytest.approx(8.60, abs=0.005)
        assert alphas["order2-cardano"] == pytest.approx(9.69, abs=0.005)
        assert alphas["exact-root"] == pytest.approx(10.0, abs=0.001)

    def test_estimate_from_file(self, capsys, tmp_path):
        out_file = tmp_path / "samples.txt"
        code, _, _ = run(capsys, "sample", "--alpha", "5", "--count", "1000000",
                         "--seed", "8", "-o", str(out_file))
        assert code == 0
        code, out, _ = run(capsys, "estimate", "--input", str(out_file),
                           "--method", "exact", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["sample"]["count"] == 1_000_000
        assert payload["estimates"][0]["alpha"] == pytest.approx(5.0, abs=0.2)

    # counts at and around block edges, where the plain reader's groups of
    # _LINES lines and the moment blocks of _CHUNK values fall differently;
    # a blank line at line 50,000 sends a file that the plain reader has
    # begun to merge to the line scanner
    @pytest.mark.parametrize("layout, count", [
        *((layout, count) for layout in ("plain", "header", "crlf")
          for count in (2, 3, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5, 5 * _LINES + 3)),
        ("blank-at-50000", 3 * _CHUNK + 5),
    ])
    def test_estimate_from_file_equals_in_process_stats(self, capsys, tmp_path, layout, count):
        p = tmp_path / "sample.txt"
        x = sample(SamplerConfig(seed=count, count=count, params=FrechetParams(0.0, 1.0, 5.0)))
        write_samples(p, x)
        data = p.read_bytes()
        if layout == "header":
            data = b"value\n" + data
        elif layout == "crlf":
            data = data.replace(b"\n", b"\r\n")
        elif layout == "blank-at-50000":
            cut = data.split(b"\n", 49_999)
            data = b"\n".join(cut[:-1]) + b"\n\n" + cut[-1]
            assert data.split(b"\n")[49_999] == b""
        p.write_bytes(data)
        code, out, _ = run(capsys, "estimate", "--input", str(p), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        stats = sample_stats(read_samples(p))
        assert payload["sample"] == {"count": count, "mean": stats.mean, "variance": stats.variance}
        alphas = [f(stats.variance).alpha for f in (alpha_order1, alpha_order2, alpha_exact)]
        assert [e["alpha"] for e in payload["estimates"]] == alphas


# a small sample whose three estimates all lie above 2, so none is flagged
FIXED_SAMPLE = "1.0\n1.2\n0.9\n1.4\n1.1\n0.95\n1.3\n1.05\n"


class TestEstimateOutput:
    """The whole output of `estimate`: the table and csv bytes are those the
    command printed before its estimates carried flags."""

    # each row is padded to its columns' widths, the last column too
    @pytest.mark.parametrize("source, fmt, expected", [
        ("variance", "table",
         "method          alpha        residual     iterations\n"
         "order1          8.595838685  0.00967548   0         \n"
         "order2-cardano  9.687182764  0.0017306    0         \n"
         "exact-root      10.00000205  2.96595e-17  6         \n"),
        ("variance", "csv",
         "method,alpha,residual,iterations\n"
         "order1,8.595838685,0.00967548,0\n"
         "order2-cardano,9.687182764,0.0017306,0\n"
         "exact-root,10.00000205,2.96595e-17,6\n"),
        ("input", "table",
         "sample count 8, mean 1.1125, variance 0.03053571429\n"
         "method          alpha        residual     iterations\n"
         "order1          7.339563053  0.0166821    0         \n"
         "order2-cardano  8.404537902  0.00319878   0         \n"
         "exact-root      8.756803869  3.39015e-16  6         \n"),
        ("input", "csv",
         "# sample count 8, mean 1.1125, variance 0.03053571429\n"
         "method,alpha,residual,iterations\n"
         "order1,7.339563053,0.0166821,0\n"
         "order2-cardano,8.404537902,0.00319878,0\n"
         "exact-root,8.756803869,3.39015e-16,6\n"),
    ])
    def test_table_and_csv_bytes(self, capsys, tmp_path, source, fmt, expected):
        f = tmp_path / "fixed.txt"
        f.write_text(FIXED_SAMPLE)
        argv = ["--variance", "0.0222624", "--method", "all"] if source == "variance" else ["--input", str(f)]
        code, out, err = run(capsys, "estimate", *argv, "--format", fmt)
        assert (code, out, err) == (0, expected, "")

    @pytest.mark.parametrize("source", ["variance", "input"])
    def test_json_keys_and_values_from_the_library(self, capsys, tmp_path, source):
        f = tmp_path / "fixed.txt"
        f.write_text(FIXED_SAMPLE)
        argv = ["--variance", "0.0222624"] if source == "variance" else ["--input", str(f)]
        code, out, _ = run(capsys, "estimate", *argv, "--tol", "1e-10", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["schema_version", "variance", "sample", "estimates"]
        if source == "variance":
            v, sample_info = 0.0222624, None
        else:
            stats = sample_stats(read_samples(f))
            v, sample_info = stats.variance, {"count": 8, "mean": stats.mean, "variance": stats.variance}
        assert (payload["schema_version"], payload["variance"], payload["sample"]) == (1, v, sample_info)
        results = [alpha_order1(v), alpha_order2(v), alpha_exact(v, tol=1e-10)]
        assert [list(e) for e in payload["estimates"]] == \
            [["method", "alpha", "residual", "iterations", "flags"]] * 3
        assert payload["estimates"] == [
            {"method": r.method.value, "alpha": r.alpha, "residual": r.residual,
             "iterations": r.iterations, "flags": []}
            for r in results
        ]

    # an order-1 or order-2 alpha at or below 2, where no variance exists, is
    # flagged: in json on its record, in table and csv by a note after the
    # rows; exact-root never is, since its bracket starts at 2 + 1e-9
    @pytest.mark.parametrize("source, alphas, flagged", [
        ("--variance 1.0", [1.283, 1.96, 2.898], ["order1", "order2-cardano"]),
        ("--variance 0.5", [1.814, 2.575, 3.387], ["order1"]),
        ("sample --alpha 1.5", [0.102, 0.312, 2.012], ["order1", "order2-cardano"]),
    ])
    def test_alpha_at_most_2_is_flagged(self, capsys, tmp_path, source, alphas, flagged):
        argv = source.split()
        if argv[0] == "sample":
            f = tmp_path / "a15.txt"
            assert run(capsys, "sample", "--alpha", "1.5", "--count", "10000", "--seed", "3",
                       "-o", str(f))[0] == 0
            argv = ["--input", str(f)]
        code, out, err = run(capsys, "estimate", *argv, "--format", "json")
        assert (code, err) == (0, "")
        estimates = json.loads(out)["estimates"]
        assert [round(e["alpha"], 3) for e in estimates] == alphas
        assert [e["flags"] for e in estimates] == \
            [["alpha_at_most_2"] if e["method"] in flagged else [] for e in estimates]
        assert all((e["alpha"] <= 2.0) == bool(e["flags"]) for e in estimates)
        note = f"flagged alpha_at_most_2 (no variance exists at alpha <= 2): {', '.join(flagged)}"
        for fmt, line in (("table", note), ("csv", f"# {note}")):
            code, out, err = run(capsys, "estimate", *argv, "--format", fmt)
            assert (code, err) == (0, "")
            assert out.splitlines()[-1] == line
            assert out.count("flagged") == 1

    def test_an_estimator_patched_on_the_module_runs(self, capsys, monkeypatch):
        import frechetfit.cli as cli

        calls = []
        monkeypatch.setattr(cli, "alpha_exact", lambda v, tol: calls.append(tol) or alpha_exact(v, tol))
        code, _, _ = run(capsys, "estimate", "--variance", "0.02", "--method", "exact", "--tol", "1e-9")
        assert (code, calls) == (0, [1e-9])


class TestSample:
    def test_deterministic_files(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
        for f in (f1, f2):
            code, _, _ = run(capsys, "sample", "--alpha", "5", "--count", "100",
                             "--seed", "42", "-o", str(f))
            assert code == 0
        assert f1.read_text() == f2.read_text()

    def test_values_above_location(self, capsys, tmp_path):
        f = tmp_path / "c.txt"
        run(capsys, "sample", "--alpha", "3", "-m", "2.5", "--count", "500",
            "--seed", "1", "-o", str(f))
        values = [float(line) for line in f.read_text().splitlines()]
        assert all(v > 2.5 for v in values)

    def test_unwritable_path_is_4(self, capsys, tmp_path):
        code, _, _ = run(capsys, "sample", "--alpha", "5", "--count", "10",
                         "--seed", "1", "-o", str(tmp_path / "no" / "dir" / "f.txt"))
        assert code == 4

    def test_file_digest(self, capsys, tmp_path):
        # SHA-256 of the file the one-format-call-per-value writer made
        f = tmp_path / "s.txt"
        code, _, _ = run(capsys, "sample", "--alpha", "5", "--count", "200000",
                         "--seed", "7", "-o", str(f))
        assert code == 0
        digest = hashlib.sha256(f.read_bytes()).hexdigest()
        assert digest == "867c6ce815280b5d1307871bf8d29bf2f7504c778e090d846bfc6886ab9d6c67"

    @pytest.mark.parametrize("argv", [
        ("--alpha", "0.5", "--scale", "1e308", "--count", "10"),  # overflows to inf
        ("--alpha", "0.5", "--scale", "1e308", "--count", "1", "--seed", "0"),
        ("--alpha", "5", "--location", "nan", "--count", "10"),
        ("--alpha", "5", "--location=-inf", "--count", "10"),
    ])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_values_are_3_and_write_nothing(self, capsys, tmp_path, argv):
        f = tmp_path / "f.txt"
        code, out, err = run(capsys, "sample", *argv, "-o", str(f))
        assert code == 3, err
        assert out == "" and err.startswith("error: ")
        assert not f.exists()

    @pytest.mark.parametrize("argv", [
        # draws of the first block stay finite, a later block's overflow
        ("--alpha", "1", "--scale", "1e304", "--seed", "7", "--count", str(4 * _CHUNK)),
        # every draw is finite, their spread overflows the moments
        ("--alpha", "5", "--scale", "1e300", "--count", "10"),
    ])
    @pytest.mark.filterwarnings("error")
    def test_overflow_keeps_an_existing_file(self, capsys, tmp_path, argv):
        f = tmp_path / "f.txt"
        f.write_bytes(b"1.5\n2.5\n")
        code, out, err = run(capsys, "sample", *argv, "-o", str(f))
        assert code == 3, err
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert f.read_bytes() == b"1.5\n2.5\n"

    @pytest.mark.filterwarnings("error")
    def test_constant_large_draws(self, capsys, tmp_path):
        # every draw rounds to 1e100; a block's mean rounds by an ulp, whose
        # fourth power would overflow, but the spread is 0
        f = tmp_path / "f.txt"
        code, out, err = run(capsys, "sample", "--alpha", "0.5", "--location", "1e100",
                             "--count", "1000", "-o", str(f), "--format", "json")
        assert code == 0, err
        assert f.read_text() == "1e+100\n" * 1000
        payload = json.loads(out)
        assert payload["mean"] == 1e100 and payload["variance"] == 0.0

    @pytest.mark.parametrize("count", [1, 2, 3, _WRITE_CHUNK - 1, _WRITE_CHUNK, _WRITE_CHUNK + 1,
                                       _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
    @pytest.mark.parametrize("alpha, location, scale", [
        (5.0, 0.0, 1.0),
        # the largest draw any seed can give overflows, so a check pass runs;
        # these draws and their moments do not
        (0.1, -3.0, 0.5),
    ])
    def test_streamed_output_matches_array_path(self, capsys, tmp_path, count, alpha, location, scale):
        f, expected = tmp_path / "s.txt", tmp_path / "expected.txt"
        code, out, _ = run(capsys, "sample", "--alpha", repr(alpha), "--location", repr(location),
                           "--scale", repr(scale), "--count", str(count), "--seed", "5",
                           "-o", str(f), "--format", "json")
        assert code == 0
        x = sample(SamplerConfig(seed=5, count=count, params=FrechetParams(location, scale, alpha)))
        write_samples(expected, x)
        assert f.read_bytes() == expected.read_bytes()
        stats = sample_stats(x) if count >= 2 else None
        payload = json.loads(out)
        for key in ("mean", "variance", "skewness", "excess_kurtosis"):
            assert payload[key] == (None if stats is None else _json_value(getattr(stats, key))), key

    def test_json_payload(self, capsys, tmp_path):
        f = tmp_path / "s.txt"
        code, out, _ = run(capsys, "sample", "--alpha", "5", "-m", "1.5", "-s", "2",
                           "--count", "1000", "--seed", "4", "-o", str(f), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        values = [float(line) for line in f.read_text().splitlines()]
        stats = frechetfit.sample_stats(values)
        assert payload == {
            "schema_version": 1, "output": str(f), "count": 1000, "seed": 4,
            "location": 1.5, "scale": 2.0, "alpha": 5.0,
            "mean": stats.mean, "variance": stats.variance, "skewness": stats.skewness,
            "excess_kurtosis": stats.excess_kurtosis,
        }

    @pytest.mark.parametrize("count, undefined", [
        (1, ["mean", "variance", "skewness", "excess_kurtosis"]),
        (3, ["excess_kurtosis"]),
    ])
    def test_json_payload_small_counts(self, capsys, tmp_path, count, undefined):
        code, out, _ = run(capsys, "sample", "--alpha", "5", "--count", str(count),
                           "-o", str(tmp_path / "s.txt"), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == count
        # null when count is 1; a nan statistic is the string "nan"
        expected = None if count == 1 else "nan"
        assert [k for k in ("mean", "variance", "skewness", "excess_kurtosis")
                if payload[k] == expected] == undefined

    def test_table_line_unchanged(self, capsys, tmp_path):
        f = tmp_path / "s.txt"
        _, out, _ = run(capsys, "sample", "--alpha", "5", "--count", "1000", "--seed", "4",
                        "-o", str(f))
        stats = frechetfit.sample_stats(frechetfit.read_samples(f))
        assert out == (f"wrote 1000 samples to {f}: mean {stats.mean:.10g}, "
                       f"variance {stats.variance:.10g}, skewness {stats.skewness:.10g}, "
                       f"excess kurtosis {stats.excess_kurtosis:.10g}\n")


class TestCsvFormat:
    # each command, and the "# " lines it prints in csv before or after its rows
    @pytest.mark.parametrize("command, comments", [
        ("moments", ["# skewness ", "# excess kurtosis "]),
        ("estimate", ["# sample count 1000, "]),
        ("sample", ["# wrote 1000 samples to "]),
        ("tables", ["# order-1 estimate", "# order-2 (cardano) estimate"]),
        ("check", ["# PASS "] * 4),
    ])
    def test_every_other_line_parses_to_the_header_width(self, capsys, tmp_path, command, comments):
        f = tmp_path / "s.txt"
        argv = {
            "moments": ["moments", "--alpha", "5", "--max-order", "6"],
            "estimate": ["estimate", "--input", str(f)],
            "sample": ["sample", "--alpha", "5", "--count", "1000", "-o", str(f)],
            "tables": ["tables"],
            "check": ["check", "--alpha-grid", "5"],
        }[command]
        if command == "estimate":
            write_samples(f, sample(SamplerConfig(seed=5, count=1000, params=FrechetParams(0.0, 1.0, 5.0))))
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        notes = [line for line in lines if line.startswith("# ")]
        assert len(notes) == len(comments)
        assert all(line.startswith(c) for line, c in zip(notes, comments))
        rows = list(csv.reader(line for line in lines if line and not line.startswith("# ")))
        assert all(len(row) == len(rows[0]) for row in rows)
        assert len(rows) == {"moments": 7, "estimate": 4, "sample": 0, "tables": 10, "check": 0}[command]

    def test_table_format_prints_no_comments(self, capsys):
        _, out, _ = run(capsys, "moments", "--alpha", "5")
        assert out.splitlines()[-2:] == ["skewness         3.535071605",
                                         "excess kurtosis  45.09151213"]


class TestTables:
    def test_printed_values_reproduce(self, capsys):
        code, out, _ = run(capsys, "tables", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert [r["rounded"] for r in payload["order1_table"]] == [
            "3.51", "8.60", "48.67", "98.68"]
        assert [r["rounded"] for r in payload["order2_table"]] == [
            "4.42", "9.69", "49.93", "99.965"]
        for r in payload["order1_table"] + payload["order2_table"]:
            assert r["rounded"] == r["printed"]

    def test_exact_column(self, capsys):
        _, out, _ = run(capsys, "tables", "--format", "json")
        payload = json.loads(out)
        for row, alpha in zip(payload["order1_table"], (5.0, 10.0, 50.0, 100.0)):
            assert row["alpha_exact"] == pytest.approx(alpha, abs=0.005)

    def test_reproducible_output(self, capsys):
        _, out1, _ = run(capsys, "tables")
        _, out2, _ = run(capsys, "tables")
        assert out1 == out2


class TestCheck:
    def test_clean_build_passes(self, capsys):
        code, out, _ = run(capsys, "check")
        assert code == 0
        assert "FAIL" not in out

    def test_alpha_grid_flag(self, capsys):
        code, out, _ = run(capsys, "check", "--alpha-grid", "5")
        assert code == 0

    def test_alpha_grid_skips_orders_lost_to_cancellation(self, capsys):
        # at alpha = 25 the binomial sum raises PrecisionLossError from order 13;
        # the oracle skips those orders, as `moments` prints `-` for them
        code, out, err = run(capsys, "check", "--alpha-grid", "25")
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()] == ["PASS"] * 4
        assert err == ""

    # middle orders at alpha = 40 cancel in the oracle's integrand, and just
    # above an integer order its mass sits at the origin
    @pytest.mark.parametrize("grid", [["40"], ["2.01", "3.05"]])
    def test_alpha_grid_passes(self, capsys, grid):
        code, out, err = run(capsys, "check", "--alpha-grid", *grid)
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()] == ["PASS"] * 4
        assert err == ""

    def test_moment_oracle_holds_at_large_alpha(self, capsys):
        # the oracle's integrand keeps its width at alpha = 500, so the check
        # measures the library's order-20 error, not the oracle's; the exit
        # code follows that error and is not pinned here
        _, out, _ = run(capsys, "check", "--alpha-grid", "500", "--format", "json")
        [oracle] = [c for c in json.loads(out)["checks"] if c["name"] == "moment-oracle"]
        assert oracle["measured"] < 1e-6

    def test_bad_alpha_grid_is_a_domain_error(self, capsys):
        # exit 3 as for any DomainError, distinct from the 1 of a failed check
        code, out, err = run(capsys, "check", "--alpha-grid", "0")
        assert code == 3
        assert out == ""
        assert [line.split()[0] for line in err.splitlines()] == ["error:"]

    def test_json_clean_build(self, capsys):
        code, out, _ = run(capsys, "check", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert [c["name"] for c in payload["checks"]] == [
            "pdf-normalization", "moment-oracle", "laurent-remainder-order",
            "cdf-quantile-round-trip",
        ]
        for c in payload["checks"]:
            assert c["passed"] is True
            assert 0.0 <= c["measured"] <= c["bound"]

    def test_json_mutation_flipped_c2(self, capsys, monkeypatch):
        corrupted = LaurentCoefficients(
            c_minus1=sf.LAURENT.c_minus1, c0=sf.LAURENT.c0, c1=sf.LAURENT.c1, c2=-sf.LAURENT.c2,
        )
        monkeypatch.setattr(sf, "LAURENT", corrupted)
        code, out, _ = run(capsys, "check", "--format", "json")
        checks = json.loads(out)["checks"]
        assert [c["passed"] for c in checks] == [True, True, False, True]
        assert code == 1  # any failed diagnostic; the JSON names which

    def test_mutation_sanity_flipped_c2(self, capsys, monkeypatch):
        # flipping the sign of the z^2 coefficient must trip the
        # remainder-order check and give a nonzero exit
        corrupted = LaurentCoefficients(
            c_minus1=sf.LAURENT.c_minus1,
            c0=sf.LAURENT.c0,
            c1=sf.LAURENT.c1,
            c2=-sf.LAURENT.c2,
        )
        monkeypatch.setattr(sf, "LAURENT", corrupted)
        code, out, _ = run(capsys, "check")
        assert code != 0
        assert "FAIL" in out


def test_estimate_reads_stdin_pipe():
    env = dict(os.environ, PYTHONPATH=str(Path(frechetfit.__file__).parents[1]))
    argv = [sys.executable, "-m", "frechetfit.cli", "estimate", "--input", "/dev/stdin",
            "--format", "json"]
    out = subprocess.run(argv, env=env, input="1.0\n2.0\n4.0\n", capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["sample"]["count"] == 3


def test_estimate_overflowing_spread_is_3_without_warnings(tmp_path):
    f = tmp_path / "big.txt"
    f.write_text("1e200\n2e200\n3e200\n")
    env = dict(os.environ, PYTHONPATH=str(Path(frechetfit.__file__).parents[1]))
    argv = [sys.executable, "-m", "frechetfit.cli", "estimate", "--input", str(f)]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 3
    assert out.stderr == "error: the sample's spread overflows float64: its central " \
        "moments up to order 4 are not all finite\n"


def test_sample_overflow_stderr_is_one_error_line(tmp_path):
    f = tmp_path / "f.txt"
    env = dict(os.environ, PYTHONPATH=str(Path(frechetfit.__file__).parents[1]))
    argv = [sys.executable, "-m", "frechetfit.cli", "sample", "--alpha", "0.5",
            "--scale", "1e308", "--count", "10", "-o", str(f)]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 3
    assert out.stdout == ""
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), out.stderr
    assert not f.exists()


def test_cli_import_builds_no_moment_series():
    # the series coefficients and their suffix tables are built on first use,
    # so start-up pays nothing
    env = dict(os.environ, PYTHONPATH=str(Path(frechetfit.__file__).parents[1]))
    code = ("import frechetfit.cli, frechetfit.frechet as f; "
            "print(f._series.cache_info().currsize, f._tails.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout == "0 0\n"


def test_imports_load_no_dataclass_machinery():
    # the records are named tuples: dataclasses, and the inspect module it
    # pulls in, would add about 11 ms to every start-up
    env = dict(os.environ, PYTHONPATH=str(Path(frechetfit.__file__).parents[1]))
    code = "\n".join([
        "import sys, frechetfit",
        "print(sorted(m for m in ('dataclasses', 'inspect', 'numpy') if m in sys.modules))",
        "import frechetfit.cli",
        "print('dataclasses' in sys.modules)",
    ])
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.splitlines() == ["[]", "False"]


def test_cli_import_leaves_scipy_integrate_unloaded():
    # the package needs no scipy: not at import, not in `estimate` (all three
    # solvers), and not in `check`, whose quadrature is the standard library's
    env = dict(os.environ, PYTHONPATH=str(Path(frechetfit.__file__).parents[1]))
    code = "\n".join([
        "import contextlib, io, sys, frechetfit.cli",
        "print('scipy.integrate' in sys.modules)",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    code = frechetfit.cli.main(['estimate', '--variance', '0.02', '--method', 'all'])",
        "print(code, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    code = frechetfit.cli.main(['check'])",
        "print(code, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))",
    ])
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["False", "0 []", "0 []"]


def test_only_the_sample_file_commands_load_numpy(tmp_path):
    # moments, estimate --variance, tables and check are scalar code; the
    # commands that read or write a sample file import the sample layer
    f = tmp_path / "s.txt"
    f.write_text("1.0\n2.0\n4.0\n")
    env = dict(os.environ, PYTHONPATH=str(Path(frechetfit.__file__).parents[1]))
    code = "\n".join([
        "import contextlib, io, sys, frechetfit.cli",
        "print('numpy' in sys.modules)",
        "for argv in (['moments', '--alpha', '5'], ['estimate', '--variance', '0.02'], ['tables'],",
        "             ['check', '--alpha-grid', '5'], ['estimate', '--input', sys.argv[1]],",
        "             ['sample', '--alpha', '5', '--count', '10', '-o', sys.argv[2]]):",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        code = frechetfit.cli.main(argv)",
        "    print(argv[0], code, 'numpy' in sys.modules)",
    ])
    out = subprocess.run([sys.executable, "-c", code, str(f), str(tmp_path / "g.txt")], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.splitlines() == [
        "False", "moments 0 False", "estimate 0 False", "tables 0 False", "check 0 False",
        "estimate 0 True", "sample 0 True",
    ]


def _env_without_blas_threads(**variables):
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    return dict(env, PYTHONPATH=str(Path(frechetfit.__file__).parents[1]), **variables)


@pytest.mark.parametrize("preset", [None, "2"])
@pytest.mark.parametrize("command", ["estimate", "sample"])
def test_sample_commands_start_numpy_with_one_openblas_thread(tmp_path, command, preset):
    # no command does BLAS work, so the two that load numpy spare OpenBLAS's
    # worker pool; a value the user set wins
    f = tmp_path / "s.txt"
    f.write_text("1.0\n2.0\n4.0\n")
    argv = {"estimate": ["estimate", "--input", str(f)],
            "sample": ["sample", "--alpha", "5", "--count", "10", "-o", str(tmp_path / "g.txt")]}[command]
    code = "\n".join([
        "import contextlib, io, json, os, sys, frechetfit.cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    code = frechetfit.cli.main(json.loads(sys.argv[1]))",
        "task = '/proc/self/task'",
        "threads = len(os.listdir(task)) if os.path.isdir(task) else None",
        "print(code, os.environ.get('OPENBLAS_NUM_THREADS'), threads)",
    ])
    env = _env_without_blas_threads(**({} if preset is None else {"OPENBLAS_NUM_THREADS": preset}))
    out = subprocess.run([sys.executable, "-c", code, json.dumps(argv)], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    exit_code, value, threads = out.stdout.split()
    assert (exit_code, value) == ("0", preset or "1")
    if preset is None and threads != "None":
        assert threads == "1"


def test_scalar_commands_and_the_library_leave_the_blas_setting_alone(tmp_path):
    # only the CLI's sample commands set OPENBLAS_NUM_THREADS, and only before
    # numpy loads, when OpenBLAS can still read it
    f = tmp_path / "s.txt"
    f.write_text("1.0\n2.0\n4.0\n")
    code = "\n".join([
        "import contextlib, io, os, sys, frechetfit.cli",
        "for argv in (['moments', '--alpha', '5'], ['estimate', '--variance', '0.02']):",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        code = frechetfit.cli.main(argv)",
        "    print(argv[0], code, 'OPENBLAS_NUM_THREADS' in os.environ)",
        "import frechetfit.sampling_io",
        "print('sampling_io', 'OPENBLAS_NUM_THREADS' in os.environ)",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    code = frechetfit.cli.main(['estimate', '--input', sys.argv[1]])",
        "print('estimate', code, 'OPENBLAS_NUM_THREADS' in os.environ)",
    ])
    out = subprocess.run([sys.executable, "-c", code, str(f)], env=_env_without_blas_threads(),
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.splitlines() == [
        "moments 0 False", "estimate 0 False", "sampling_io False", "estimate 0 False",
    ]


def test_cli_still_names_the_sample_functions():
    # code that patches the sample layer's calls reads these names on the CLI
    # module, which the package's loader answers
    import frechetfit.cli as cli
    import frechetfit.sampling_io as sampling_io

    for name in ("read_samples", "write_samples", "sample", "sample_stats"):
        assert getattr(cli, name) is getattr(sampling_io, name), name


def test_package_import_leaves_numpy_unloaded():
    # the moments, estimators and fit are scalar code: numpy loads only with
    # the sample layer, sample_stats among it, on the first read of one of
    # its names
    env = dict(os.environ, PYTHONPATH=str(Path(frechetfit.__file__).parents[1]))
    code = "\n".join([
        "import sys, frechetfit as ff",
        "v = ff.shape_variance(5.0)",
        "for estimate in (ff.alpha_order1, ff.alpha_order2, ff.alpha_exact):",
        "    estimate(v)",
        "shape = ff.FrechetShape(5.0)",
        "ff.moment_report(shape, 3)",
        "s = ff.skewness(shape)",
        "ff.fit_location_scale(ff.SampleStats(1000, 1.0, v, s, 30.0))",
        "print(sorted(m for m in sys.modules if m.partition('.')[0] in ('numpy', 'scipy')))",
        "print(ff.read_samples is ff.sampling_io.read_samples, 'numpy' in sys.modules)",
        "print(ff.sample_stats is ff.sampling_io.sample_stats)",
        "try:",
        "    ff.no_such_name",
        "except AttributeError as exc:",
        "    print(exc)",
    ])
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [
        "[]", "True True", "True", "module 'frechetfit' has no attribute 'no_such_name'",
    ]


def test_package_all_joins_the_module_lists():
    # the package states no public name of its own but __version__: its
    # __all__ is its modules' __all__ lists joined
    assert len(frechetfit.__all__) == len(set(frechetfit.__all__))
    for name in frechetfit.__all__:
        assert hasattr(frechetfit, name), name
    assert set(frechetfit.__all__) == {
        "__version__",
        "FrechetFitError", "DomainError", "PoleError", "GammaRangeError",
        "UndefinedMomentError", "NoConvergenceError", "DegenerateFitError",
        "InsufficientDataError", "ParseError", "EmptyInputError", "PrecisionLossError",
        "MathConstants", "LaurentCoefficients", "CONSTANTS", "LAURENT",
        "gamma", "log_gamma", "gamma_laurent", "gamma_plus_one_taylor",
        "FrechetShape", "FrechetParams", "MomentReport",
        "pdf", "cdf", "quantile", "raw_moment", "centered_moment",
        "normalized_centered_moment", "skewness", "excess_kurtosis",
        "variance", "shape_variance", "moment_report",
        "Method", "EstimateResult", "CubicCoefficients", "SampleStats",
        "alpha_order1", "alpha_order2", "alpha_exact",
        "fit_location_scale", "sample_stats",
        "SamplerConfig", "sample", "read_samples", "file_stats", "write_samples",
    }


def test_package_copy_of_the_sample_layer_names():
    # the package answers these names without importing numpy, so it keeps
    # its own copy of sampling_io.__all__
    assert set(frechetfit._SAMPLING_IO_NAMES) == set(frechetfit.sampling_io.__all__)


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "frechetfit" in capsys.readouterr().out
