import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from frechetfit import (
    DomainError,
    FrechetParams,
    FrechetShape,
    PrecisionLossError,
    SampleStats,
    UndefinedMomentError,
    alpha_exact,
    alpha_order1,
    alpha_order2,
    cdf,
    centered_moment,
    excess_kurtosis,
    fit_location_scale,
    moment_report,
    normalized_centered_moment,
    pdf,
    quantile,
    raw_moment,
    shape_variance,
    skewness,
    variance,
)
from frechetfit import frechet
from frechetfit import special_functions as sf
from frechetfit.checks import centered_moment_quad, quad_full, raw_moment_quad
from oracles import frechet_moments

STD = FrechetParams(0.0, 1.0, 2.0)


class TestTypes:
    def test_shape_rejects_nonpositive_alpha(self):
        with pytest.raises(DomainError):
            FrechetShape(0.0)

    def test_params_reject_bad_scale(self):
        with pytest.raises(DomainError):
            FrechetParams(0.0, -1.0, 2.0)

    def test_params_reject_bad_alpha(self):
        with pytest.raises(DomainError):
            FrechetParams(0.0, 1.0, -2.0)

    @pytest.mark.parametrize("location", [math.nan, math.inf, -math.inf])
    def test_params_reject_non_finite_location(self, location):
        with pytest.raises(DomainError):
            FrechetParams(location, 1.0, 2.0)


class TestPdf:
    def test_direct_substitution(self):
        d = FrechetParams(0.0, 1.0, 1.0)
        assert pdf(d, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_zero_below_location(self):
        assert pdf(FrechetParams(3.0, 2.0, 2.0), 2.9) == 0.0
        assert pdf(FrechetParams(3.0, 2.0, 2.0), 3.0) == 0.0

    # the true values underflow to 0 just above the location, where y**-alpha
    # or y**(-1 - alpha) overflows (both at the first point: inf * 0 = nan)
    @pytest.mark.parametrize("alpha,x", [
        (10.0, 1.1157528789279937e-28), (1e8, 0.99), (2.0, 1e-200), (10.0, 1e-30),
        (0.5, 1e-300), (0.5, 5e-324), (10.0, 5e-324),
    ])
    @pytest.mark.parametrize("f", [pdf, cdf])
    def test_zero_just_above_location(self, f, alpha, x):
        assert f(FrechetParams(0.0, 1.0, alpha), x) == 0.0

    # a small alpha keeps the density finite and nonzero where y**(-1 - alpha)
    # overflows (the first two points, and the last, where y is a normal
    # float and the power raises) or exp(-z) is subnormal (the third and
    # fourth); the fifth is past the largest float
    @pytest.mark.parametrize("alpha,x", [
        (0.001, 1e-310), (0.005, 1e-309), (0.0089, 1e-323), (0.0095, 1e-302), (0.001, 5e-324),
        (0.005, 1e-307),
    ])
    def test_small_alpha_just_above_location(self, alpha, x):
        with mp.workdps(50):
            a, y = mp.mpf(alpha), mp.mpf(x)
            ref = a * y ** (-1 - a) * mp.exp(-(y**-a))
        # float(ref) is inf at the last point
        assert pdf(FrechetParams(0.0, 1.0, alpha), x) == pytest.approx(float(ref), rel=1e-12, abs=0.0)

    # (x - location) / scale underflows to 0 for an x above the location; the
    # density is 0, about 7.4e302, and past the largest float (1.27e319)
    @pytest.mark.parametrize("scale,alpha", [(1e300, 2.0), (1e10, 1e-20), (1e300, 0.001)])
    @pytest.mark.parametrize("f", [pdf, cdf])
    def test_ratio_underflowing_to_zero(self, f, scale, alpha):
        x = 5e-324
        assert x / scale == 0.0
        with mp.workdps(50):
            a, s = mp.mpf(alpha), mp.mpf(scale)
            y = mp.mpf(x) / s
            z = y**-a
            ref = a / s * y ** (-1 - a) * mp.exp(-z) if f is pdf else mp.exp(-z)
        assert f(FrechetParams(0.0, scale, alpha), x) == pytest.approx(float(ref), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 5.0, 10.0])
    @pytest.mark.parametrize("m,s", [(0.0, 1.0), (3.0, 2.0)])
    def test_normalization(self, alpha, m, s):
        d = FrechetParams(m, s, alpha)
        total = quad_full(lambda y: pdf(d, m + y))
        assert total == pytest.approx(1.0, abs=1e-10)


class TestCdf:
    @pytest.mark.parametrize("alpha", [0.7, 1.0, 2.0, 9.0])
    def test_unit_point(self, alpha):
        assert cdf(FrechetParams(0.0, 1.0, alpha), 1.0) == pytest.approx(
            math.exp(-1.0), rel=1e-15
        )

    def test_boundary_zero(self):
        assert cdf(FrechetParams(3.0, 2.0, 5.0), 3.0) == 0.0

    def test_matches_integrated_pdf(self):
        for x in (0.5, 1.0, 2.0, 5.0):
            num = mp.quad(lambda t: pdf(STD, float(t)), [0, x])
            assert cdf(STD, x) == pytest.approx(float(num), abs=1e-10)

    def test_monotone(self):
        xs = [0.1 * k for k in range(1, 80)]
        vals = [cdf(STD, x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestQuantile:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0, 12.0])
    def test_inverse_of_unit_point(self, alpha):
        d = FrechetParams(0.0, 1.0, alpha)
        assert quantile(d, math.exp(-1.0)) == pytest.approx(1.0, rel=1e-14)

    def test_median_closed_form(self):
        got = quantile(STD, 0.5)
        assert got == pytest.approx(math.log(2.0) ** -0.5, rel=1e-14)
        assert cdf(STD, got) == pytest.approx(0.5, abs=1e-12)

    def test_location_scale_equivariance(self):
        for p in (0.1, 0.5, 0.9):
            base = quantile(FrechetParams(0.0, 1.0, 5.0), p)
            assert quantile(FrechetParams(3.0, 2.0, 5.0), p) == pytest.approx(
                3.0 + 2.0 * base, rel=1e-14
            )

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 2.0])
    def test_domain_error(self, p):
        with pytest.raises(DomainError):
            quantile(STD, p)

    @pytest.mark.parametrize("d, p", [
        (FrechetParams(0.0, 1.0, 0.01), 1.0 - 1e-16),  # the power overflows
        (FrechetParams(0.0, 1e308, 1.0), 0.9),  # the scale times it does
    ])
    def test_overflow_is_a_domain_error(self, d, p):
        with pytest.raises(DomainError) as exc:
            quantile(d, p)
        assert str(exc.value) == (f"the quantile at p = {p!r} overflows float64 at location "
                                  f"{d.location!r}, scale {d.scale!r} and alpha {d.alpha!r}")

    @pytest.mark.parametrize("p", [1e-6, 0.01, 0.5, 0.99, 1.0 - 1e-6])
    @pytest.mark.parametrize("alpha", [0.5, 2.0, 5.0, 10.0])
    def test_round_trip(self, p, alpha):
        d = FrechetParams(0.0, 1.0, alpha)
        assert abs(cdf(d, quantile(d, p)) - p) <= 1e-12


class TestRawMoment:
    def test_alpha5_k2(self):
        assert raw_moment(FrechetShape(5.0), 2) == pytest.approx(1.489192, abs=5e-7)

    def test_boundary_k_equals_alpha(self):
        with pytest.raises(UndefinedMomentError):
            raw_moment(FrechetShape(2.0), 2)

    def test_k_below_one_rejected(self):
        with pytest.raises(DomainError):
            raw_moment(FrechetShape(5.0), 0)

    def test_nan_order_rejected(self):
        # math.gamma would turn it into a nan moment
        with pytest.raises(DomainError):
            raw_moment(FrechetShape(5.0), math.nan)

    def test_alpha10_k1_against_quadrature(self):
        assert raw_moment(FrechetShape(10.0), 1) == pytest.approx(
            raw_moment_quad(10.0, 1), abs=1e-8
        )

    @pytest.mark.parametrize("alpha", [5.0, 8.0, 12.0])
    def test_quadrature_oracle_all_orders(self, alpha):
        shape = FrechetShape(alpha)
        for k in range(1, int(alpha)):
            ref = raw_moment_quad(alpha, k)
            assert raw_moment(shape, k) == pytest.approx(ref, rel=1e-7)


class TestCenteredMoment:
    def test_table_variance_alpha5(self):
        assert centered_moment(FrechetShape(5.0), 2) == pytest.approx(0.133761, abs=5e-7)

    def test_table_variance_alpha10(self):
        assert centered_moment(FrechetShape(10.0), 2) == pytest.approx(0.0222624, abs=5e-8)

    def test_sixth_order_against_quadrature(self):
        assert centered_moment(FrechetShape(8.0), 6) == pytest.approx(
            centered_moment_quad(8.0, 6), rel=1e-7
        )

    def test_binomial_matches_variance_form(self):
        for alpha in (3.0, 5.0, 12.0, 40.0):
            shape = FrechetShape(alpha)
            direct = raw_moment(shape, 2) - raw_moment(shape, 1) ** 2
            assert centered_moment(shape, 2) == pytest.approx(direct, rel=1e-14)

    def test_undefined_when_k_at_least_alpha(self):
        with pytest.raises(UndefinedMomentError):
            centered_moment(FrechetShape(4.0), 4)

    @pytest.mark.parametrize("alpha", [5.0, 8.0, 12.0])
    def test_quadrature_oracle_all_orders(self, alpha):
        shape = FrechetShape(alpha)
        for k in range(2, int(alpha)):
            ref = centered_moment_quad(alpha, k)
            assert centered_moment(shape, k) == pytest.approx(ref, rel=1e-7)

    @pytest.mark.parametrize("alpha", [2.01, 2.5, 3.05, 12.0, 25.0, 40.0, 200.0, 1000.0, 1e4])
    def test_quadrature_oracle_against_mpmath(self, alpha):
        # the oracles themselves, not the library: the integrand (x - mu1)^k
        # cancels near x = mu1, which cost adaptive quadrature 7e-7 at
        # alpha = 40; just above an integer k most of the mass of x^k lies
        # beyond the nodes; and from alpha 200 on an integrand in s = 1/x
        # narrows as 1/alpha below the finest step
        for k in range(2, min(13, math.ceil(alpha))):
            raw, centered, _ = frechet_moments(alpha, k)
            assert raw_moment_quad(alpha, k) == pytest.approx(raw, rel=1e-12, abs=0.0)
            assert centered_moment_quad(alpha, k) == pytest.approx(centered, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("alpha", [16.01, 30.01, 100.01])
    def test_quadrature_oracle_top_order_against_mpmath(self, alpha):
        # at the top order just below alpha the centered integrand falls off
        # towards z = 0 only as z^((alpha-k+1)/alpha)
        k = math.ceil(alpha) - 1
        raw, centered, _ = frechet_moments(alpha, k)
        assert raw_moment_quad(alpha, k) == pytest.approx(raw, rel=1e-12, abs=0.0)
        assert centered_moment_quad(alpha, k) == pytest.approx(centered, rel=1e-12, abs=0.0)


class TestNormalizedCenteredMoment:
    @pytest.mark.parametrize("alpha", [2.5, 5.0, 50.0])
    def test_second_order_is_one(self, alpha):
        assert normalized_centered_moment(FrechetShape(alpha), 2) == 1.0

    def test_third_order_closed_form(self):
        shape = FrechetShape(5.0)
        o1, o2, o3 = (raw_moment(shape, k) for k in (1, 2, 3))
        expected = (o3 - 3.0 * o2 * o1 + 2.0 * o1**3) / (o2 - o1**2) ** 1.5
        assert normalized_centered_moment(shape, 3) == pytest.approx(expected, rel=1e-12)
        ref = centered_moment_quad(5.0, 3) / centered_moment_quad(5.0, 2) ** 1.5
        assert normalized_centered_moment(shape, 3) == pytest.approx(ref, rel=1e-7)

    def test_sixth_order_corrected_expansion(self):
        # the sixth normalized moment must follow the binomial expansion
        # (checked against quadrature, which is the arbiter here)
        shape = FrechetShape(10.0)
        o = [1.0] + [raw_moment(shape, k) for k in range(1, 7)]
        expansion = (
            o[6]
            - 6 * o[5] * o[1]
            + 15 * o[4] * o[1] ** 2
            - 20 * o[3] * o[1] ** 3
            + 15 * o[2] * o[1] ** 4
            - 5 * o[1] ** 6
        ) / (o[2] - o[1] ** 2) ** 3
        got = normalized_centered_moment(shape, 6)
        assert got == pytest.approx(expansion, rel=1e-12)
        ref = centered_moment_quad(10.0, 6) / centered_moment_quad(10.0, 2) ** 3
        assert got == pytest.approx(ref, rel=1e-7)

    def test_undefined_for_small_alpha(self):
        with pytest.raises(UndefinedMomentError):
            normalized_centered_moment(FrechetShape(2.0), 2)


class TestSkewnessKurtosis:
    def test_skewness_infinite_at_threshold(self):
        assert skewness(FrechetShape(3.0)) == math.inf
        assert skewness(FrechetShape(1.5)) == math.inf

    def test_skewness_matches_normalized_moment(self):
        assert skewness(FrechetShape(5.0)) == normalized_centered_moment(FrechetShape(5.0), 3)

    def test_skewness_decreasing_in_alpha(self):
        vals = [skewness(FrechetShape(a)) for a in (10.0, 20.0, 50.0, 100.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 0.0
        # confirm two grid points against quadrature
        for alpha in (10.0, 100.0):
            ref = centered_moment_quad(alpha, 3) / centered_moment_quad(alpha, 2) ** 1.5
            assert skewness(FrechetShape(alpha)) == pytest.approx(ref, rel=1e-7)

    def test_kurtosis_infinite_at_threshold(self):
        assert excess_kurtosis(FrechetShape(4.0)) == math.inf

    def test_kurtosis_identity_with_normalized_moment(self):
        shape = FrechetShape(5.0)
        assert excess_kurtosis(shape) == pytest.approx(
            normalized_centered_moment(shape, 4) - 3.0, abs=1e-10
        )

    def test_kurtosis_positive_heavy_tail(self):
        assert excess_kurtosis(FrechetShape(10.0)) > 0.0
        ref = centered_moment_quad(10.0, 4) / centered_moment_quad(10.0, 2) ** 2 - 3.0
        assert excess_kurtosis(FrechetShape(10.0)) == pytest.approx(ref, rel=1e-7)


class TestVariance:
    def test_table_values(self):
        assert variance(FrechetParams(0.0, 1.0, 5.0)) == pytest.approx(0.133761, abs=5e-7)
        assert variance(FrechetParams(0.0, 1.0, 100.0)) == pytest.approx(
            0.000168916, abs=5e-10
        )

    def test_scale_squared_location_free(self):
        base = variance(FrechetParams(0.0, 1.0, 5.0))
        assert variance(FrechetParams(7.0, 3.0, 5.0)) == pytest.approx(9.0 * base, rel=1e-14)

    def test_undefined_for_small_alpha(self):
        with pytest.raises(UndefinedMomentError):
            variance(FrechetParams(0.0, 1.0, 2.0))

    @pytest.mark.parametrize("params, expected", [
        (FrechetParams(0.0, 1e200, 5.0),
         DomainError("the variance overflows float64 at scale 1e+200 and alpha 5.0")),
        (FrechetParams(0.0, 1e200, 0.001), UndefinedMomentError("variance diverges for alpha = 0.001 <= 2")),
        (FrechetParams(0.0, 1e155, 100.0), 1e155 * (1e155 * shape_variance(100.0))),
    ], ids=["overflows", "alpha-first", "finite-past-scale-squared"])
    def test_large_scale(self, params, expected):
        # scale^2 alone overflows in each; the alpha check comes first
        if isinstance(expected, Exception):
            with pytest.raises(type(expected)) as exc:
                variance(params)
            assert str(exc.value) == str(expected)
        else:
            assert variance(params) == expected == pytest.approx(1.689e306, rel=1e-3)

    @pytest.mark.parametrize("alpha", [math.inf, math.nan])
    def test_shape_variance_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(DomainError):
            shape_variance(alpha)

    def test_monotone_decrease_to_zero(self):
        vals = [shape_variance(a) for a in (3.0, 5.0, 10.0, 50.0, 100.0, 1000.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 2e-6

    def test_ten_digits_at_alpha_100(self):
        # stabilized path must keep >= 10 significant digits at alpha = 100
        with mp.workdps(40):
            ref = mp.gamma(1 - mp.mpf(2) / 100) - mp.gamma(1 - mp.mpf(1) / 100) ** 2
        got = shape_variance(100.0)
        assert abs(got - float(ref)) / float(ref) < 1e-10

    def test_twelve_digits_on_log_grid(self):
        # the pole series keeps full precision where Omega_2 - Omega_1^2 cancels
        with mp.workdps(40):
            for i in range(81):
                alpha = 2.01 * (1e8 / 2.01) ** (i / 80)
                u = 1 / mp.mpf(alpha)
                ref = mp.gamma(1 - 2 * u) - mp.gamma(1 - u) ** 2
                assert abs(shape_variance(alpha) - ref) <= 1e-12 * ref, alpha


def _kernel_grid(k):
    # log-spaced from just above the existence threshold to 1e8, plus the
    # switch between the Gamma path and the series at alpha = 2k from both sides
    lo = k + 0.01
    alphas = [lo * (1e8 / lo) ** (i / 60) for i in range(61)]
    return alphas + [math.nextafter(2.0 * k, 0.0), 2.0 * k, math.nextafter(2.0 * k, math.inf),
                     2.0 * k + 1e-9, 2.0 * k + 0.5]


class TestSeriesKernel:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_twelve_digits_against_mpmath(self, k):
        for alpha in _kernel_grid(k):
            shape = FrechetShape(alpha)
            _, centered, normalized = frechet_moments(alpha, k)
            assert abs(centered_moment(shape, k) - centered) <= 1e-12 * abs(centered), alpha
            got = normalized_centered_moment(shape, k)
            assert abs(got - normalized) <= 1e-12 * abs(normalized), alpha

    @pytest.mark.parametrize("k", [5, 6, 7, 8])
    def test_higher_orders_on_the_series_side(self, k):
        # measured worst 1.1e-13 (k = 7); below alpha = 2k the binomial sum
        # loses more, see the next test
        for alpha in (2.0 * k * (1e8 / (2.0 * k)) ** (i / 20) for i in range(21)):
            _, _, normalized = frechet_moments(alpha, k)
            got = normalized_centered_moment(FrechetShape(alpha), k)
            assert abs(got - normalized) <= 1e-11 * abs(normalized), alpha

    # measured worst 2.3e-14, 2.2e-13, 3.7e-13, 4.2e-12, 5.8e-11, 4.0e-10
    @pytest.mark.parametrize("k, bound", [(3, 3e-14), (4, 3e-13), (5, 5e-13), (6, 6e-12),
                                          (7, 8e-11), (8, 5e-10)])
    def test_higher_orders_on_the_binomial_side(self, k, bound):
        lo = k + 0.01
        for alpha in (lo * (2.0 * k / lo) ** (i / 40) for i in range(40)):
            _, _, normalized = frechet_moments(alpha, k)
            got = normalized_centered_moment(FrechetShape(alpha), k)
            assert abs(got - normalized) <= bound * abs(normalized), alpha

    @pytest.mark.parametrize("k", range(2, 21))
    def test_the_longest_sum_reads_the_whole_table(self, k):
        # at alpha = 2k, k u = 1/2, the series takes every coefficient, so
        # the table holds none that no sum reads
        s = 0.0
        for c in frechet._series(k):
            s = s * (0.5 / k) + c
        assert frechet._scaled(2.0 * k, k) == (s, 0.0)
        # and every shorter sum reads the same tail as slicing the table: the
        # term count int(37.5 / -ln(k u)) + 2 steps down from n + 2 to n + 1 at
        # k u = e^(-37.5/n), so alphas on both sides of each step take every
        # count from the whole table down to 2
        table = frechet._series(k)
        counts = set()
        for n in range(54, 0, -1):
            step = k * math.exp(37.5 / n)
            for alpha in (step * (1.0 - 1e-9), step * (1.0 + 1e-9)):
                u = 1.0 / alpha
                start = frechet._TERMS - 2 - int(37.5 / -math.log(k * u))
                s = 0.0
                for c in table[start:]:
                    s = s * u + c
                assert frechet._scaled(alpha, k) == (s, 0.0), alpha
                counts.add(len(table) - start)
        assert counts == set(range(2, len(table) + 1))

    def test_skewness_and_kurtosis_are_the_normalized_moments(self):
        # bit for bit, on the 400-point grid of the benchmark and a few more
        for alpha in [3.5, 5.0, 8.0, 1e3] + [2.01 * (1e8 / 2.01) ** (i / 399) for i in range(400)]:
            if alpha <= 3.0:
                continue
            shape = FrechetShape(alpha)
            assert skewness(shape) == normalized_centered_moment(shape, 3)
            if alpha > 4.0:
                assert excess_kurtosis(shape) == normalized_centered_moment(shape, 4) - 3.0

    def test_skewness_is_real_up_to_1e8(self):
        got = skewness(FrechetShape(1e8))
        assert type(got) is float
        limit = 12.0 * math.sqrt(6.0) * float(mp.zeta(3)) / math.pi**3
        assert 0.0 < got - limit < 1e-7


class TestPrecisionLoss:
    @pytest.mark.parametrize("k", [9, 12, 16, 20, 21, 25, 30])
    def test_every_returned_moment_keeps_its_digits(self, k):
        # the binomial side (alpha < 2k, and every alpha above order 20) either
        # raises or is within 1e-7 of mpmath; measured worst 1.9e-8.  Order 9
        # keeps its digits everywhere, orders 21 and up only next to alpha = k.
        lo, hi = k + 0.01, (2.0 * k if k <= 20 else 1e8)
        returned = 0
        for i in range(12):
            alpha = lo * (hi / lo) ** (i / 12)
            try:
                got = centered_moment(FrechetShape(alpha), k)
            except PrecisionLossError:
                continue
            returned += 1
            _, ref, _ = frechet_moments(alpha, k)
            assert abs(got - ref) <= 1e-7 * abs(ref), alpha
        assert returned == {9: 12, 12: 9, 16: 5, 20: 3}.get(k, 1)

    # worst relative error of centered_moment per band of orders, for alpha
    # from k + 0.01 to 1e8 (the bounds the README states), measured on about
    # 700 alphas per order: 1.8e-13, 6.8e-11, 4.3e-8 (the binomial sum next
    # to alpha = 20), 5.8e-8 and 7.2e-7 (the series at alpha = 1e8), and
    # 1.6e-8 (only next to alpha = k); the binomial side is rounding noise
    # under its 1e-6 bound, so a denser grid can find a little more there
    # (4.3e-13 for orders 2 to 4, at k = 4 and alpha = 7.93)
    @pytest.mark.parametrize("orders, bound", [
        (range(2, 5), 1e-12),
        (range(5, 8), 2e-10),
        (range(8, 19), 1e-7),
        (range(19, 20), 1e-7),
        (range(20, 21), 1e-6),
        (range(21, 31), 5e-8),
    ])
    def test_measured_bound_per_band_of_orders(self, orders, bound):
        worst = 0.0
        for k in orders:
            lo = k + 0.01
            grid = [lo * (1e8 / lo) ** (i / 24) for i in range(25)] + [lo + j * k / 8 for j in range(1, 16)]
            for alpha in grid:
                try:
                    got = centered_moment(FrechetShape(alpha), k)
                except PrecisionLossError:
                    continue
                _, ref, _ = frechet_moments(alpha, k)
                worst = max(worst, abs(got / ref - 1))
        assert worst <= bound

    def test_next_to_the_pole(self):
        # Gamma((alpha - p) / alpha): alpha - p is exact for alpha in [p/2, 2p],
        # where 1 - p/alpha rounded to an absolute eps, 2e-11 to 5e-11 relative
        # here; measured worst 7.7e-14 (centered, k = 30) and 4.4e-16 (raw)
        worst_centered = worst_raw = 0.0
        for k in range(2, 31):
            shape = FrechetShape(k * (1 + 1e-6))
            raw, centered, _ = frechet_moments(shape.alpha, k)
            worst_centered = max(worst_centered, abs(centered_moment(shape, k) / centered - 1))
            worst_raw = max(worst_raw, abs(raw_moment(shape, k) / raw - 1))
            report = moment_report(shape, k)
            assert report.raw == raw_moment(shape, k) and report.centered == centered_moment(shape, k)
        assert worst_centered <= 2e-13 and worst_raw <= 2e-15

    # the binomial sum's partial sums overflow to nan (order 1029 at alpha
    # 1031), or a binomial coefficient overflows float64 (from order 1030)
    @pytest.mark.parametrize("alpha, k", [(1031.0, 1029), (1031.0, 1030), (5000.0, 1030), (1e9, 1100)])
    def test_orders_beyond_float64_raise(self, alpha, k):
        shape = FrechetShape(alpha)
        with pytest.raises(PrecisionLossError, match=f"order {k} at alpha = {alpha}"):
            centered_moment(shape, k)
        with pytest.raises(PrecisionLossError):
            normalized_centered_moment(shape, k)
        r = moment_report(shape, k)
        assert r.defined and r.raw is not None and r.centered is None and r.normalized is None

    @pytest.mark.parametrize("k", range(21, 31))
    def test_high_orders_at_large_alpha_raise(self, k):
        shape = FrechetShape(1e8)
        with pytest.raises(PrecisionLossError, match=f"order {k} at alpha = 100000000.0"):
            centered_moment(shape, k)
        with pytest.raises(PrecisionLossError):
            normalized_centered_moment(shape, k)
        r = moment_report(shape, k)
        assert r.defined and r.raw is not None and r.centered is None and r.normalized is None


class TestMomentReport:
    def test_defined_flags(self):
        r = moment_report(FrechetShape(5.0), 3)
        assert r.defined and r.raw is not None and r.centered is not None
        assert r.normalized == pytest.approx(skewness(FrechetShape(5.0)))

    def test_undefined_order(self):
        r = moment_report(FrechetShape(2.0), 2)
        assert not r.defined
        assert r.raw is None and r.centered is None and r.normalized is None

    def test_first_order_has_no_centered(self):
        r = moment_report(FrechetShape(5.0), 1)
        assert r.defined and r.centered is None and r.normalized is None

    @pytest.mark.parametrize("k", [0, -1, -200])
    @pytest.mark.parametrize("alpha", [1.0, 5.0])
    def test_order_below_one_is_a_domain_error(self, alpha, k):
        # as in raw_moment; at alpha = 1, k = -200 would ask for Gamma(201)
        with pytest.raises(DomainError, match="moment order must be >= 1"):
            moment_report(FrechetShape(alpha), k)

    @pytest.mark.parametrize("k", [*range(2, 9), 12, 21])
    def test_same_values_as_the_moment_functions(self, k):
        # one S_k evaluation serves both columns, bit for bit; at orders 12
        # and 21 some binomial sums lose their digits and both columns are None
        for i in range(400):
            alpha = 2.01 * (1e8 / 2.01) ** (i / 399)
            if k >= alpha:
                continue
            shape = FrechetShape(alpha)
            try:
                expected = centered_moment(shape, k), normalized_centered_moment(shape, k)
            except PrecisionLossError:
                expected = None, None
            r = moment_report(shape, k)
            assert (r.centered, r.normalized) == expected, alpha


class TestIntegerOrders:
    """Orders of the centered and normalized moments are integers; raw_moment takes real ones."""

    FUNCTIONS = [centered_moment, normalized_centered_moment, moment_report]

    @pytest.mark.parametrize("k", [2.5, math.nan, math.inf])
    @pytest.mark.parametrize("f", FUNCTIONS, ids=lambda f: f.__name__)
    def test_order_that_is_not_an_integer_is_a_domain_error(self, f, k):
        with pytest.raises(DomainError):
            f(FrechetShape(10.0), k)

    def test_raw_moment_takes_a_real_order(self):
        assert raw_moment(FrechetShape(10.0), 2.5) == math.gamma(0.75)

    @pytest.mark.parametrize("f", [centered_moment, moment_report], ids=lambda f: f.__name__)
    def test_integral_orders_give_the_int_values(self, f):
        shape = FrechetShape(10.0)
        assert f(shape, 3.0) == f(shape, np.int64(3)) == f(shape, 3)

    def test_integral_orders_give_the_int_values_in_a_fresh_process(self):
        # the kernels' tables are cached by order: a float key 3.0 used to
        # find the table for 3 only after a call with 3 had built it
        env = dict(os.environ, PYTHONPATH=str(Path(frechet.__file__).parents[1]))
        code = "\n".join([
            "import numpy as np",
            "from frechetfit import FrechetShape, centered_moment, normalized_centered_moment, moment_report",
            "fs = (centered_moment, normalized_centered_moment, moment_report)",
            "shape = FrechetShape(10.0)",
            "values = [[f(shape, k) for f in fs] for k in (3.0, np.int64(3), 3)]",
            "print(values[0] == values[1] == values[2], type(values[0][2].order).__name__)",
        ])
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             check=True, timeout=60)
        assert out.stdout == "True int\n"


# each input rule that frechet states once (_positive, _order and the order
# below alpha), with the exact type and message of every entry point's error
RULES = [
    *((f, (v,), DomainError, f"variance must be > 0, got {v!r}")
      for f in (alpha_order1, alpha_order2, alpha_exact) for v in (0.0, -1.0, math.nan, math.inf)),
    (shape_variance, (math.inf,), DomainError, "shape parameter must be > 0, got inf"),
    (shape_variance, (math.nan,), DomainError, "shape parameter must be > 0, got nan"),
    (centered_moment, (FrechetShape(10.0), 1), DomainError, "centered moment order must be >= 2, got 1"),
    (normalized_centered_moment, (FrechetShape(10.0), 1), DomainError,
     "normalized centered moment order must be >= 2, got 1"),
    *((f, (FrechetShape(alpha), 2), UndefinedMomentError, f"{name} of order 2 diverges for alpha = {alpha}")
      for f, name in ((centered_moment, "centered moment"), (normalized_centered_moment, "normalized centered moment"))
      for alpha in (1.5, 2.0)),
    (moment_report, (FrechetShape(10.0), 0), DomainError, "moment order must be >= 1, got 0"),
]


@pytest.mark.parametrize("f, args, error, message", RULES,
                         ids=[f"{f.__name__}({', '.join(map(repr, args))})" for f, args, _, _ in RULES])
def test_input_rules_give_their_messages(f, args, error, message):
    with pytest.raises(error) as info:
        f(*args)
    assert type(info.value) is error
    assert str(info.value) == message


# the benchmark grid of alphas: 400 log-spaced in [2.01, 1e8]
_BENCH_ALPHAS = [2.01 * (1e8 / 2.01) ** (i / 399) for i in range(400)]


class TestKernelRoute:
    """The kernels call math.gamma and math.lgamma, not the checked wrappers."""

    def test_same_values_as_the_checked_wrappers(self):
        for alpha in _BENCH_ALPHAS:
            for p in range(1, 21):
                if p < alpha:
                    assert frechet._omega(alpha, p) == sf.gamma((alpha - p) / alpha), (alpha, p)
            assert frechet.log_gamma(1.0 - 1.0 / alpha) == sf.log_gamma(1.0 - 1.0 / alpha), alpha

    def test_no_call_reaches_the_checked_wrappers(self, monkeypatch):
        # the patches catch a call through the module; the profiler also
        # catches one through a name bound at import
        def refuse(z):
            raise AssertionError(f"checked wrapper called with {z!r}")

        wrappers = {sf.gamma.__code__, sf.log_gamma.__code__}
        reached = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in wrappers:
                reached.append(frame.f_code.co_name)

        monkeypatch.setattr(sf, "gamma", refuse)
        monkeypatch.setattr(sf, "log_gamma", refuse)
        shape = FrechetShape(5.0)
        sys.setprofile(profile)
        try:
            reports = [moment_report(shape, k) for k in range(1, 6)]
            skew = skewness(shape)
            exact = alpha_exact(shape_variance(5.0))
            fit = fit_location_scale(SampleStats(count=10**6, mean=raw_moment(shape, 1),
                                                 variance=shape_variance(5.0),
                                                 skewness=skew, excess_kurtosis=0.0))
        finally:
            sys.setprofile(None)
        assert reached == []
        assert reports[3].centered is not None and skew > 0.0
        assert exact.alpha == pytest.approx(5.0, rel=1e-12)
        assert fit.alpha == pytest.approx(5.0, rel=1e-9)

    # (Gamma calls, ln Gamma calls) of moment_report at alpha = 5: Omega_k for
    # the raw moment; S_2 from the series, with no Gamma call; S_3 and S_4 from
    # the binomial sum, Omega_1 once and Omega_1 .. Omega_k again; one ln Gamma
    # for each centered moment; nothing for an undefined order
    @pytest.mark.parametrize("k, gammas, log_gammas", [
        (1, 1, 0), (2, 1, 1), (3, 5, 1), (4, 6, 1), (5, 0, 0), (6, 0, 0),
    ])
    def test_counters_on_the_kernel_names_see_every_call(self, monkeypatch, k, gammas, log_gammas):
        # the benchmark counts Gamma and ln Gamma calls by wrapping these two names
        args = {"gamma": [], "log_gamma": []}

        def counting(name):
            fn = getattr(frechet, name)

            def counted(z):
                args[name].append(z)
                return fn(z)

            return counted

        expected = moment_report(FrechetShape(5.0), k)
        for name in args:
            monkeypatch.setattr(frechet, name, counting(name))
        assert moment_report(FrechetShape(5.0), k) == expected
        assert (len(args["gamma"]), len(args["log_gamma"])) == (gammas, log_gammas)
        assert all(0.0 < z <= 1.0 for z in args["gamma"] + args["log_gamma"])
