import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frechetfit import (
    CubicCoefficients,
    DegenerateFitError,
    DomainError,
    FrechetParams,
    FrechetShape,
    InsufficientDataError,
    Method,
    NoConvergenceError,
    SampleStats,
    alpha_exact,
    alpha_order1,
    alpha_order2,
    fit_location_scale,
    raw_moment,
    sample,
    sample_stats,
    shape_variance,
    skewness,
    SamplerConfig,
)

TABLE_VARIANCES = (0.133761, 0.0222624, 0.000694362, 0.000168916)
TABLE_ORDER1 = (3.51, 8.60, 48.67, 98.68)
TABLE_ORDER2 = (4.42, 9.69, 49.93, 99.965)
TABLE_EXACT = (5.0, 10.0, 50.0, 100.0)


class TestCubicCoefficients:
    def test_closed_forms(self):
        from frechetfit import CONSTANTS

        c = CubicCoefficients()
        assert c.a2 == CONSTANTS.pi_sq_over_6
        expected_a3 = (CONSTANTS.euler_gamma * math.pi**2 + 6.0 * CONSTANTS.apery) / 3.0
        assert c.a3 == pytest.approx(expected_a3, rel=1e-15)
        assert c.a3 > 0.0 and c.a2 > 0.0


class TestAlphaOrder1:
    @pytest.mark.parametrize("v,expected", list(zip(TABLE_VARIANCES, TABLE_ORDER1)))
    def test_table_rows(self, v, expected):
        r = alpha_order1(v)
        assert r.method is Method.ORDER1
        assert r.iterations == 0
        assert r.alpha == pytest.approx(expected, abs=0.005)

    def test_closed_form(self):
        assert alpha_order1(0.5).alpha == math.pi / math.sqrt(3.0)

    @pytest.mark.parametrize("v", [0.0, -1.0, math.nan])
    def test_domain_error(self, v):
        with pytest.raises(DomainError):
            alpha_order1(v)


class TestAlphaOrder2:
    @pytest.mark.parametrize("v,expected,tol", [
        (0.133761, 4.42, 0.005),
        (0.0222624, 9.69, 0.005),
        (0.000694362, 49.93, 0.005),
        (0.000168916, 99.965, 0.0005),
    ])
    def test_table_rows(self, v, expected, tol):
        r = alpha_order2(v)
        assert r.method is Method.ORDER2_CARDANO
        assert r.iterations == 0
        assert r.alpha == pytest.approx(expected, abs=tol)

    @pytest.mark.parametrize("v", np.logspace(-6, 0, 25))
    def test_polynomial_residual(self, v):
        c = CubicCoefficients()
        u = 1.0 / alpha_order2(v).alpha
        assert u > 0.0
        assert abs(c.a3 * u**3 + c.a2 * u**2 - v) <= 1e-12

    @pytest.mark.parametrize("v", np.logspace(-6, 0, 25))
    def test_matches_bisection_of_same_cubic(self, v):
        c = CubicCoefficients()
        f = lambda u: c.a3 * u**3 + c.a2 * u**2 - v
        lo, hi = 0.0, 1.0
        while f(hi) < 0.0:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(mid) > 0.0:
                hi = mid
            else:
                lo = mid
        u_bisect = 0.5 * (lo + hi)
        assert 1.0 / alpha_order2(v).alpha == pytest.approx(u_bisect, abs=1e-10)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            alpha_order2(-0.1)


class TestAlphaExact:
    def test_table_row_alpha5(self):
        r = alpha_exact(0.133761, 1e-12, 200)
        assert r.method is Method.EXACT_ROOT
        assert r.alpha == pytest.approx(5.0, abs=0.001)

    def test_table_row_alpha50(self):
        assert alpha_exact(0.000694362, 1e-12, 200).alpha == pytest.approx(50.0, abs=0.005)

    def test_round_trip_through_variance(self):
        v = shape_variance(10.0)
        assert alpha_exact(v, 1e-12, 200).alpha == pytest.approx(10.0, abs=1e-9)

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 5.0, 10.0, 50.0, 100.0, 500.0])
    def test_round_trip_grid(self, alpha):
        r = alpha_exact(shape_variance(alpha))
        assert r.iterations <= 200
        assert abs(r.alpha - alpha) / alpha <= 1e-8

    def test_residual_contract(self):
        for alpha in (2.5, 5.0, 100.0):
            v = shape_variance(alpha)
            r = alpha_exact(v)
            assert r.residual <= 1e-12 * max(1.0, v)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            alpha_exact(0.0)
        with pytest.raises(DomainError):
            alpha_exact(0.1, tol=-1.0)

    @pytest.mark.parametrize("alpha", [2.0001, 2.00001])
    def test_round_trip_near_two(self, alpha):
        # V is ~1e4-1e5 here, and one ulp of alpha moves it by more than 1e-12
        r = alpha_exact(shape_variance(alpha))
        assert abs(r.alpha - alpha) / alpha <= 1e-8

    @settings(max_examples=300, deadline=None)
    @given(st.floats(math.log(2.0001), math.log(1e8)))
    def test_round_trip_property(self, log_alpha):
        alpha = min(max(math.exp(log_alpha), 2.0001), 1e8)
        r = alpha_exact(shape_variance(alpha))
        assert abs(r.alpha - alpha) / alpha <= 1e-8
        assert r.iterations <= 20

    @pytest.mark.parametrize("v", [1e12, 1e-20])
    def test_variance_outside_bracket(self, v):
        with pytest.raises(NoConvergenceError):
            alpha_exact(v)


class TestEstimatorOrdering:
    @pytest.mark.parametrize("v,exact", list(zip(TABLE_VARIANCES, TABLE_EXACT)))
    def test_order2_closer_than_order1(self, v, exact):
        a1 = alpha_order1(v).alpha
        a2 = alpha_order2(v).alpha
        ae = alpha_exact(v).alpha
        assert abs(a2 - ae) < abs(a1 - ae)
        assert a1 <= a2 <= ae + 0.1

    def test_relative_error_vanishes_for_large_alpha(self):
        rel = []
        for alpha in (10.0, 50.0, 100.0, 500.0):
            v = shape_variance(alpha)
            rel.append(abs(alpha_exact(v).alpha - alpha_order1(v).alpha) / alpha)
        assert all(b < a for a, b in zip(rel, rel[1:]))
        # order-2 error at alpha=100 below 0.05%
        v = shape_variance(100.0)
        assert abs(alpha_order2(v).alpha - 100.0) / 100.0 < 5e-4


class TestSampleStats:
    def test_constant_data(self):
        s = sample_stats([1.0, 1.0, 1.0, 1.0])
        assert s.variance == 0.0
        assert math.isnan(s.skewness)

    def test_two_points(self):
        s = sample_stats([0.0, 2.0])
        assert s.count == 2
        assert s.mean == 1.0
        assert s.variance == 2.0

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            sample_stats([1.0])

    @pytest.mark.filterwarnings("error")
    def test_overflowing_spread(self):
        with pytest.raises(DomainError, match="spread overflows float64"):
            sample_stats([1e200, 2e200, 3e200])

    @pytest.mark.filterwarnings("error")
    def test_non_finite_value(self):
        with pytest.raises(DomainError, match="nan or infinite"):
            sample_stats([1.0, math.inf, 2.0])

    def test_seeded_samples_match_table_variance(self):
        n = 100_000
        x = sample(SamplerConfig(seed=1234, count=n, params=FrechetParams(0.0, 1.0, 10.0)))
        s = sample_stats(x)
        # standard error of the sample variance from the analytic 4th moment
        from frechetfit import centered_moment

        shape = FrechetShape(10.0)
        mu2 = centered_moment(shape, 2)
        mu4 = centered_moment(shape, 4)
        se = math.sqrt((mu4 - mu2**2) / n)
        assert abs(s.variance - 0.0222624) <= 3.0 * se

    def test_known_skewness(self):
        # [0, 1, 5]: m2 = 14/3 * 2/3 ... verified with the documented formulas
        x = [0.0, 1.0, 5.0]
        s = sample_stats(x)
        mean = 2.0
        m2 = ((4.0 + 1.0 + 9.0)) / 3.0
        m3 = ((-8.0 - 1.0 + 27.0)) / 3.0
        assert s.mean == mean
        assert s.variance == pytest.approx(m2 * 3 / 2, rel=1e-15)
        expected = (m3 / m2**1.5) * math.sqrt(3 * 2) / 1
        assert s.skewness == pytest.approx(expected, rel=1e-14)


class TestFitLocationScale:
    @staticmethod
    def analytic_stats(m, s, alpha, n=1000):
        shape = FrechetShape(alpha)
        from frechetfit import centered_moment, normalized_centered_moment

        mean = m + s * raw_moment(shape, 1)
        var = s**2 * centered_moment(shape, 2)
        skew = normalized_centered_moment(shape, 3)
        kurt = normalized_centered_moment(shape, 4) - 3.0
        return SampleStats(count=n, mean=mean, variance=var, skewness=skew, excess_kurtosis=kurt)

    def test_exact_moment_round_trip(self):
        fit = fit_location_scale(self.analytic_stats(0.0, 1.0, 5.0))
        assert fit.alpha == pytest.approx(5.0, abs=1e-8)
        assert fit.scale == pytest.approx(1.0, abs=1e-8)
        assert fit.location == pytest.approx(0.0, abs=1e-8)

    def test_equivariance_round_trip(self):
        fit = fit_location_scale(self.analytic_stats(3.0, 2.0, 6.0))
        assert fit.alpha == pytest.approx(6.0, abs=1e-8)
        assert fit.scale == pytest.approx(2.0, abs=1e-8)
        assert fit.location == pytest.approx(3.0, abs=1e-8)

    def test_monte_carlo_round_trip(self):
        x = sample(SamplerConfig(seed=7, count=1_000_000, params=FrechetParams(0.0, 1.0, 5.0)))
        fit = fit_location_scale(sample_stats(x))
        # skewness of a heavy-tailed sample is noisy; +-0.3 reflects the
        # three-sigma spread measured at this seed family empirically
        assert fit.alpha == pytest.approx(5.0, abs=0.3)

    def test_degenerate_gaussianish_data(self):
        stats = SampleStats(count=100, mean=0.0, variance=1.0, skewness=0.5, excess_kurtosis=0.0)
        with pytest.raises(DegenerateFitError):
            fit_location_scale(stats)

    @settings(max_examples=200, deadline=None)
    @given(log_alpha=st.floats(math.log(3.01), math.log(1e8)))
    def test_exact_moments_recover_alpha(self, log_alpha):
        alpha = math.exp(log_alpha)
        shape = FrechetShape(alpha)
        stats = SampleStats(count=1000, mean=raw_moment(shape, 1), variance=shape_variance(alpha),
                            skewness=skewness(shape), excess_kurtosis=0.0)
        assert fit_location_scale(stats).alpha == pytest.approx(alpha, rel=1e-6)

    def test_skewness_below_the_limit_names_it(self):
        # s_inf = 12 sqrt(6) zeta(3) / pi^3 = 1.13954709...
        stats = SampleStats(count=100, mean=0.0, variance=1.0, skewness=1.1395, excess_kurtosis=0.0)
        with pytest.raises(DegenerateFitError, match=r"12\*sqrt\(6\)\*zeta\(3\)/pi\^3 = 1\.1395471"):
            fit_location_scale(stats)

    def test_rejects_nonpositive_skewness(self):
        stats = SampleStats(count=100, mean=0.0, variance=1.0, skewness=-1.0, excess_kurtosis=0.0)
        with pytest.raises(DegenerateFitError):
            fit_location_scale(stats)

    def test_rejects_tiny_sample(self):
        stats = SampleStats(count=2, mean=0.0, variance=1.0, skewness=2.0, excess_kurtosis=0.0)
        with pytest.raises(InsufficientDataError):
            fit_location_scale(stats)
