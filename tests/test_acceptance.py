"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`)."""

import json
import math

import numpy as np
import pytest

import frechetfit.special_functions as sf
from frechetfit import (
    FrechetParams,
    FrechetShape,
    LaurentCoefficients,
    SamplerConfig,
    alpha_exact,
    alpha_order1,
    alpha_order2,
    centered_moment,
    excess_kurtosis,
    gamma,
    gamma_laurent,
    normalized_centered_moment,
    raw_moment,
    sample,
    sample_stats,
    shape_variance,
    skewness,
    write_samples,
)
from frechetfit.checks import centered_moment_quad, raw_moment_quad
from frechetfit.cli import main

TABLE_VARIANCES = (0.133761, 0.0222624, 0.000694362, 0.000168916)


def report(criterion: str, passed: bool) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'}")
    assert passed


def test_criterion_1_order1_table():
    expected = (3.51, 8.60, 48.67, 98.68)
    ok = all(
        abs(alpha_order1(v).alpha - e) <= 0.005 for v, e in zip(TABLE_VARIANCES, expected)
    )
    report("1 order-1 estimates reproduce the reference table", ok)


def test_criterion_2_order2_table():
    expected = (4.42, 9.69, 49.93, 99.965)
    tols = (0.005, 0.005, 0.005, 0.0005)
    ok = all(
        abs(alpha_order2(v).alpha - e) <= t
        for v, e, t in zip(TABLE_VARIANCES, expected, tols)
    )
    report("2 order-2 (cardano) estimates reproduce the reference table", ok)


def test_criterion_3_exact_round_trip():
    ok = True
    for alpha in (2.5, 3.0, 5.0, 10.0, 50.0, 100.0, 500.0):
        r = alpha_exact(shape_variance(alpha), 1e-12)
        ok = ok and abs(r.alpha - alpha) / alpha <= 1e-8 and r.iterations <= 200
    report("3 exact solver round-trips the variance to 1e-8", ok)


def test_criterion_4_variance_construction():
    printed = dict(zip((5.0, 10.0, 50.0, 100.0), TABLE_VARIANCES))
    ok = True
    for alpha, expected in printed.items():
        v = gamma(1.0 - 2.0 / alpha) - gamma(1.0 - 1.0 / alpha) ** 2
        ok = ok and float(format(v, ".6g")) == expected
    report("4 variances from gamma match the printed 6-digit values", ok)


def test_criterion_5_moment_oracle_equivalence():
    ok = True
    for alpha in (5.0, 8.0, 12.0):
        shape = FrechetShape(alpha)
        for k in range(1, int(alpha)):
            ref = raw_moment_quad(alpha, k)
            ok = ok and abs(raw_moment(shape, k) - ref) / abs(ref) <= 1e-7
            if k >= 2:
                ref = centered_moment_quad(alpha, k)
                ok = ok and abs(centered_moment(shape, k) - ref) / abs(ref) <= 1e-7
    report("5 closed-form moments agree with quadrature to 1e-7", ok)


def test_criterion_6_special_case_identities():
    shape = FrechetShape(5.0)
    ok = abs(skewness(shape) - normalized_centered_moment(shape, 3)) <= 1e-12
    ok = ok and abs(
        excess_kurtosis(shape) - (normalized_centered_moment(shape, 4) - 3.0)
    ) <= 1e-10
    report("6 skewness/kurtosis match the normalized-moment forms", ok)


def test_criterion_7_laurent_remainder_order():
    # evaluated through gamma_plus_one_taylor(z,3) = z * gamma_laurent(z,2):
    # the direct difference at z=1e-4 would be swamped by the ulp of 1/z
    ratios = [
        abs(sf.gamma_plus_one_taylor(z, 3) - math.gamma(1.0 + z)) / z**4
        for z in (1e-1, 1e-2, 1e-3, 1e-4)
    ]
    direct = [abs(gamma_laurent(z, 2) - gamma(z)) / z**3 for z in (1e-1, 1e-2)]
    ok = max(ratios) <= 2.0 * ratios[0] and max(direct) <= 2.0 * direct[0]
    report("7 expansion remainder stays cubic-order down to z=1e-4", ok)


def test_criterion_8_monte_carlo_end_to_end(tmp_path):
    n = 1_000_000
    x = sample(SamplerConfig(seed=20240817, count=n, params=FrechetParams(0.0, 1.0, 10.0)))
    stats = sample_stats(x)
    shape = FrechetShape(10.0)
    mu2 = centered_moment(shape, 2)
    mu4 = centered_moment(shape, 4)
    se = math.sqrt((mu4 - mu2**2) / n)
    ok = abs(stats.variance - 0.0222624) <= 3.0 * se

    path = tmp_path / "mc.txt"
    write_samples(path, x)
    r = alpha_exact(sample_stats(np.asarray(x)).variance)
    code = main(["estimate", "--input", str(path), "--method", "exact", "--format", "json"])
    ok = ok and code == 0 and abs(r.alpha - 10.0) <= 0.3
    report("8 seeded Monte-Carlo variance and exact re-estimate agree", ok)


def test_criterion_9_cli_contract(capsys, monkeypatch):
    code = main(["tables", "--format", "json"])
    out = capsys.readouterr().out
    payload = json.loads(out)
    ok = code == 0
    ok = ok and [r["rounded"] for r in payload["order1_table"]] == [
        "3.51", "8.60", "48.67", "98.68"]
    ok = ok and [r["rounded"] for r in payload["order2_table"]] == [
        "4.42", "9.69", "49.93", "99.965"]

    ok = ok and main(["check"]) == 0
    corrupted = LaurentCoefficients(
        c_minus1=sf.LAURENT.c_minus1, c0=sf.LAURENT.c0,
        c1=sf.LAURENT.c1, c2=-sf.LAURENT.c2,
    )
    monkeypatch.setattr(sf, "LAURENT", corrupted)
    ok = ok and main(["check"]) != 0
    monkeypatch.undo()
    capsys.readouterr()
    report("9 tables and check subcommands honour the CLI contract", ok)
