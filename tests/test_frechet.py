import math

import mpmath as mp
import pytest

from frechetfit import (
    DomainError,
    FrechetParams,
    FrechetShape,
    UndefinedMomentError,
    cdf,
    centered_moment,
    excess_kurtosis,
    moment_report,
    normalized_centered_moment,
    pdf,
    quantile,
    raw_moment,
    shape_variance,
    skewness,
    variance,
)
from frechetfit.checks import centered_moment_quad, quad_full, raw_moment_quad

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
        from scipy.integrate import quad

        for x in (0.5, 1.0, 2.0, 5.0):
            num, _ = quad(lambda t: pdf(STD, t), 0.0, x, limit=200)
            assert cdf(STD, x) == pytest.approx(num, abs=1e-10)

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
        mp.mp.dps = 40
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
    @staticmethod
    def reference(alpha, k):
        # the binomial sum cancels about 8k digits at alpha = 1e8
        with mp.workdps(30 + 8 * k):
            a = mp.mpf(alpha)
            om = [mp.gamma(1 - p / a) for p in range(k + 1)]
            mu = lambda q: sum(mp.binomial(q, p) * (-om[1]) ** (q - p) * om[p] for p in range(q + 1))
            return mu(k), mu(k) / mu(2) ** (mp.mpf(k) / 2)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_twelve_digits_against_mpmath(self, k):
        for alpha in _kernel_grid(k):
            shape = FrechetShape(alpha)
            centered, normalized = self.reference(alpha, k)
            assert abs(centered_moment(shape, k) - centered) <= 1e-12 * abs(centered), alpha
            got = normalized_centered_moment(shape, k)
            assert abs(got - normalized) <= 1e-12 * abs(normalized), alpha

    @pytest.mark.parametrize("k", [5, 6, 7, 8])
    def test_higher_orders_on_the_series_side(self, k):
        # measured worst 1.1e-13 (k = 7); below alpha = 2k the binomial sum
        # loses more (up to 3.7e-10 for k = 8) and is not gated here
        for alpha in (2.0 * k * (1e8 / (2.0 * k)) ** (i / 20) for i in range(21)):
            _, normalized = self.reference(alpha, k)
            got = normalized_centered_moment(FrechetShape(alpha), k)
            assert abs(got - normalized) <= 1e-11 * abs(normalized), alpha

    def test_skewness_and_kurtosis_are_the_normalized_moments(self):
        for alpha in (3.5, 5.0, 8.0, 1e3, 1e8):
            shape = FrechetShape(alpha)
            assert skewness(shape) == normalized_centered_moment(shape, 3)
            if alpha > 4.0:
                assert excess_kurtosis(shape) == normalized_centered_moment(shape, 4) - 3.0

    def test_skewness_is_real_up_to_1e8(self):
        got = skewness(FrechetShape(1e8))
        assert type(got) is float
        limit = 12.0 * math.sqrt(6.0) * float(mp.zeta(3)) / math.pi**3
        assert 0.0 < got - limit < 1e-7


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
