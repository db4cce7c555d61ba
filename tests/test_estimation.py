import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frechetfit import (
    CONSTANTS,
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
from frechetfit import estimation, frechet
from frechetfit.sampling_io import _CHUNK, file_stats

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

    @pytest.mark.parametrize("log10_v", [-323.3, -300, -100, -20, -16, -15, -12, 0, 12, 100, 308])
    def test_full_precision_over_the_float_range(self, log10_v):
        # no cancellation for small v (alpha above about 1e7) and no overflow for large v
        v = 5e-324 if log10_v < -323 else 10.0**log10_v
        c = CubicCoefficients()
        with mp.workdps(50):
            a3, a2 = mp.mpf(c.a3), mp.mpf(c.a2)
            lo, hi = mp.mpf(-800), mp.mpf(800)
            for _ in range(200):  # bisection in ln u
                mid = (lo + hi) / 2
                u = mp.exp(mid)
                lo, hi = (lo, mid) if a3 * u**3 + a2 * u**2 > v else (mid, hi)
            ref = mp.exp(-lo)
        tol = 1e-15 if v > 1e-300 else 0.05  # a subnormal v carries few bits
        assert abs(alpha_order2(v).alpha - ref) <= tol * ref


class TestAlphaExact:
    def test_table_row_alpha5(self):
        r = alpha_exact(0.133761, 1e-12)
        assert r.method is Method.EXACT_ROOT
        assert r.alpha == pytest.approx(5.0, abs=0.001)

    def test_table_row_alpha50(self):
        assert alpha_exact(0.000694362, 1e-12).alpha == pytest.approx(50.0, abs=0.005)

    def test_round_trip_through_variance(self):
        v = shape_variance(10.0)
        assert alpha_exact(v, 1e-12).alpha == pytest.approx(10.0, abs=1e-9)

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

    @pytest.mark.parametrize("v", [1e12, 1e-20, 1e300, 5e-324])
    def test_variance_outside_bracket(self, v):
        with pytest.raises(NoConvergenceError):
            alpha_exact(v)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(math.log(2.0001), math.log(1e8)))
    def test_order2_seed_brackets_the_root(self, log_alpha):
        # V(u)/u^2 has positive Taylor coefficients, so the order-2 root is a
        # lower bound and d ln V / d ln alpha <= -2; both hold up to rounding
        alpha = min(max(math.exp(log_alpha), 2.0001), 1e8)
        v = shape_variance(alpha)
        f = lambda t: math.log(shape_variance(math.exp(t))) - math.log(v)
        alpha_2 = alpha_order2(v).alpha
        assert alpha_2 <= alpha_exact(v).alpha
        t0 = max(math.log(alpha_2), math.log(2.0 + 1e-9))
        f0 = f(t0)
        rounding = 4.0 * math.ulp(math.log(v))
        assert f0 >= -rounding
        assert f(t0 + 0.5 * f0) <= rounding

    @pytest.mark.parametrize("tol", [1e-15, 1e-17])
    def test_tolerance_finer_than_rounding(self, tol):
        # f(seed) may then land a rounding error past the root
        for alpha in (3.0, 10.0, 1e3, 1e6, 1e8):
            r = alpha_exact(shape_variance(alpha), tol=tol)
            assert abs(r.alpha - alpha) <= 1e-12 * alpha


_EVALUATION_GRID = [2.01 * (1e8 / 2.01) ** (i / 399) for i in range(400)]


class TestSolverEvaluations:
    """Evaluations of the solved function per solve, pinned at or a little above
    the measured values over a 400-point log grid of alpha in [2.01, 1e8].  From
    the fixed bracket [2 + 1e-9, 1e9] the means were 9.2 (alpha_exact) and 7.7
    (fit), and from the order-2 and tangent seeds alone 3.20 and 4.38, so a lost
    seed fails here."""

    @staticmethod
    def counting(monkeypatch, name):
        calls = []
        fn = getattr(estimation, name)
        monkeypatch.setattr(estimation, name, lambda *args: calls.append(1) or fn(*args))
        return calls

    def test_alpha_exact(self, monkeypatch):
        calls = self.counting(monkeypatch, "_centered")
        counts = []
        for alpha in _EVALUATION_GRID:
            v = shape_variance(alpha)
            calls.clear()
            counts.append(alpha_exact(v).iterations)
            assert counts[-1] == len(calls), alpha
        assert sum(counts) / len(counts) <= 1.7  # measured 1.64
        assert max(counts) <= 9  # measured 9, below alpha = 2.9; 17 from the order-2 seed

    def test_fit(self, monkeypatch):
        inputs = []
        for alpha in _EVALUATION_GRID + [3.1889396511223875]:
            if alpha > 3.0:
                shape = FrechetShape(alpha)
                inputs.append(SampleStats(count=10**6, mean=raw_moment(shape, 1),
                                          variance=shape_variance(alpha),
                                          skewness=skewness(shape), excess_kurtosis=0.0))
        calls = self.counting(monkeypatch, "_normalized")
        counts = []
        for stats in inputs:
            calls.clear()
            fit_location_scale(stats)
            counts.append(len(calls))
        # the last input took 39 before an Illinois step that rounds onto an
        # end of the bracket moved one ulp in, not to the midpoint
        assert counts[-1] <= 6  # measured 6
        assert sum(counts) / len(counts) <= 1.6  # measured 1.58
        # measured 14, at alpha = 5.84, where the rounding of the binomial-side
        # skewness exceeds the tolerance; 17 from the tangent seed
        assert max(counts) <= 14

    def test_seed_within_ftol_needs_no_far_point(self):
        far_points = []
        far = lambda x, fx: far_points.append(x) or x + 0.25
        f = lambda x: 0.5 - x + 1e-13
        assert estimation._root(f, 0.5, far, 0.0, 1.0, 1e-12, 50) == (0.5, f(0.5), 1)
        assert far_points == []
        assert estimation._root(f, 0.125, far, 0.0, 1.0, 1e-12, 50)[0] == pytest.approx(0.5)
        assert far_points == [0.125]

    def test_far_point_within_ftol_ends_the_solve(self):
        assert estimation._root(lambda x: 0.5 - x, 0.25, lambda x, fx: 0.5, 0.0, 1.0, 1e-12, 50) == (0.5, 0.0, 2)

    # regula falsi from [0, 1] on 1e-3 - x^2 crawls along the lower end until
    # a step rounds onto it; the next point is then one ulp inside the bracket
    SQRT_SOLVE = (lambda x: 1e-3 - x * x, 0.0, lambda x, fx: 1.0, 0.0, 1.0, 0.0)

    def test_step_onto_an_end_moves_one_ulp_in(self, monkeypatch):
        steps = []
        nextafter = math.nextafter
        monkeypatch.setattr(math, "nextafter", lambda x, y: steps.append(x) or nextafter(x, y))
        x, _, evaluations = estimation._root(*self.SQRT_SOLVE, 200)
        assert abs(x - math.sqrt(1e-3)) <= 4.0 * math.ulp(x)
        assert evaluations == 17
        assert len(steps) == 1

    def test_iteration_budget_raises(self):
        with pytest.raises(NoConvergenceError, match="did not converge in 2 iterations"):
            estimation._root(*self.SQRT_SOLVE, 2)

    def test_fit_tolerance_covers_the_binomial_rounding(self, monkeypatch):
        # below alpha = 6 the skewness is a binomial Gamma sum, good only to its
        # rounding bound; solving to that bound instead of 8 ulps of 1/s took the
        # worst case here from 14 evaluations to 7, with no loss of accuracy
        calls = self.counting(monkeypatch, "_normalized")
        counts = []
        for alpha in _EVALUATION_GRID + [3.1889396511223875]:
            if alpha > 3.0:
                shape = FrechetShape(alpha)
                stats = SampleStats(count=10**6, mean=raw_moment(shape, 1),
                                    variance=shape_variance(alpha),
                                    skewness=skewness(shape), excess_kurtosis=0.0)
                calls.clear()
                assert fit_location_scale(stats).alpha == pytest.approx(alpha, rel=1e-8)
                counts.append(len(calls))
        assert sum(counts) / len(counts) <= 1.5  # measured 1.46
        assert max(counts) <= 7  # measured 7; below alpha = 6 it was 7 to 14


def _skewness_seed(s):
    s_inf, table = frechet._skewness_reversion()
    return frechet._sum_reversion(table, s - s_inf)


def _fit_tolerance(s):
    return 8.0 * math.ulp(1.0 / s)


class TestReversionSeeds:
    """The reverted variance and skewness series that seed both inverse solves."""

    def test_variance_series_extends_the_paper_estimates(self):
        # u = h_1 w + h_2 w^2 + ... in w = sqrt(V): h_1 is the order-1 estimate
        # pi / sqrt(6 V) and h_2 the order-2 correction of the cubic
        c = CubicCoefficients()
        h = frechet._variance_reversion()[1][::-1]
        assert h[0] == pytest.approx(math.sqrt(6.0) / math.pi, rel=1e-15)
        assert h[1] == pytest.approx(-c.a3 / (2.0 * c.a2**2), rel=1e-15)

    def test_variance_seed_against_mpmath(self):
        # every alpha from where the series reaches float64 precision up to 1e8
        grid = [2.01 * (1e8 / 2.01) ** (i / 299) for i in range(300)]
        seeded = 0
        with mp.workdps(40):
            v_mp = lambda u: mp.gamma(1 - 2 * u) - mp.gamma(1 - u) ** 2
            for alpha in grid:
                w = math.sqrt(shape_variance(alpha))
                u = frechet._sum_reversion(frechet._variance_reversion(), w)
                if u is None:
                    assert alpha < 12.0, alpha
                    continue
                seeded += 1
                ref = mp.findroot(lambda x: mp.sqrt(v_mp(x)) - w, mp.mpf(1) / alpha)
                assert abs(1.0 / u - 1 / ref) <= 1e-13 / ref, alpha
        assert seeded >= 230

    def test_skewness_seed_within_the_fit_tolerance(self):
        grid = [3.01 * (1e8 / 3.01) ** (i / 2999) for i in range(3000)]
        seeded = 0
        for alpha in grid:
            s = skewness(FrechetShape(alpha))
            u = _skewness_seed(s)
            if u is None:
                assert alpha < 13.0, alpha
                continue
            seeded += 1
            assert abs(1.0 / frechet._normalized(1.0 / u, 3) - 1.0 / s) <= _fit_tolerance(s), alpha
        assert seeded >= 2500

    def test_fit_tolerance_above_the_rounding_floor(self):
        # some float u at or next to the true root meets the tolerance, so the
        # seed can stop the solve.  This holds on this grid only: below alpha = 4
        # one ulp of u can move 1/skewness by more than 8 ulps, and on a
        # 3000-point log grid of [3.01, 1e8] five alphas there miss it (up to
        # 103 ulps at alpha = 3.027); those solves stop on the bracket width
        for alpha in _EVALUATION_GRID:
            if alpha > 3.0:
                s = skewness(FrechetShape(alpha))
                u = 1.0 / alpha
                near = (math.nextafter(u, 0.0), u, math.nextafter(u, 1.0))
                floor = min(abs(1.0 / frechet._normalized(1.0 / x, 3) - 1.0 / s) for x in near)
                assert floor <= _fit_tolerance(s), alpha

    def test_low_alpha_seeds_bound_the_root(self, monkeypatch):
        # below the series' reach alpha_exact starts from the larger of two lower
        # bounds on alpha (the order-2 root, and the pole, since
        # Gamma(e) >= 1/e - gamma and Gamma(1-u)^2 <= pi), and the fit from the
        # pole term, an upper bound on u there (checked, not proven)
        first = []  # alpha of a solve's first evaluation

        def recording(fn):
            def wrapped(alpha, k):
                if not first:
                    first.append(alpha)
                return fn(alpha, k)
            return wrapped

        for name in ("_centered", "_normalized"):
            monkeypatch.setattr(estimation, name, recording(getattr(estimation, name)))
        for i in range(500):
            alpha = 2.0 + 1e-7 * (14.0 / 1e-7) ** (i / 499)
            v = shape_variance(alpha)
            first.clear()
            alpha_exact(v)
            if frechet._sum_reversion(frechet._variance_reversion(), math.sqrt(v)) is None:
                pole = 2.0 / (1.0 - 1.0 / (v + CONSTANTS.euler_gamma + math.pi))
                assert pole <= alpha * (1.0 + 1e-15), alpha
                assert first[0] == pytest.approx(max(alpha_order2(v).alpha, pole), rel=1e-15), alpha
            if alpha > 3.0:
                s = skewness(FrechetShape(alpha))
                first.clear()
                fit_location_scale(SampleStats(count=1000, mean=1.0, variance=1.0, skewness=s,
                                               excess_kurtosis=0.0))
                if _skewness_seed(s) is None:
                    pole = 3.0 / (1.0 - 1.0 / (s * shape_variance(3.0) ** 1.5))
                    assert first[0] == pytest.approx(max(pole, 3.0 + 1e-9), rel=1e-12), alpha
                    assert first[0] <= alpha, alpha


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
    def test_nearly_constant_overflowing_spread(self):
        # one value an ulp (2e84) off the others: a real spread, whose fourth power overflows
        with pytest.raises(DomainError, match="spread overflows float64"):
            sample_stats([1e100, 1e100, 1e100 * (1 + 2**-52)])

    @pytest.mark.parametrize("x", [np.full(10, 1e100), np.full(100_000, 3e100), np.full(5, -1.7e308)],
                             ids=["1e100", "3e100-in-blocks", "sum-overflows"])
    @pytest.mark.filterwarnings("error")
    def test_constant_large_values(self, x):
        # a block's mean rounds by an ulp (about 1e84 at 1e100), whose fourth
        # power overflows, or the block's sum overflows; the spread is 0
        s = sample_stats(x)
        assert s.mean == x[0] and s.variance == 0.0
        assert math.isnan(s.skewness) and math.isnan(s.excess_kurtosis)

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    @pytest.mark.filterwarnings("error")
    def test_constant_non_finite_values(self, value):
        with pytest.raises(DomainError, match="nan or infinite"):
            sample_stats([value] * 3)

    @pytest.mark.filterwarnings("error")
    def test_constant_large_values_from_a_file(self, tmp_path):
        p = tmp_path / "constant.txt"
        p.write_text("1e+100\n" * (_CHUNK + 5))
        s = file_stats(p)
        assert repr(s) == repr(sample_stats(np.full(_CHUNK + 5, 1e100)))
        assert s.mean == 1e100 and s.variance == 0.0

    @pytest.mark.filterwarnings("error")
    def test_non_finite_value(self):
        with pytest.raises(DomainError, match="nan or infinite"):
            sample_stats([1.0, math.inf, 2.0])

    @pytest.mark.filterwarnings("error")
    def test_spread_overflowing_only_across_blocks(self):
        # a^4 = 3.0e303: each block's sum of fourth powers is finite, the three's is not
        a = 7.4e75
        x = np.tile([a, -a], 3 * _CHUNK // 2)
        assert math.isfinite(float(np.sum(x[:_CHUNK] ** 4)))
        with pytest.raises(DomainError, match="spread overflows float64"):
            sample_stats(x)

    @pytest.mark.filterwarnings("error")
    def test_opposite_infinite_block_sums(self):
        # the cubes' block sums are +inf and -inf, which math.fsum cannot add
        b = 1e110
        x = np.concatenate([np.full(_CHUNK, b), np.full(_CHUNK, -b)])
        with pytest.raises(DomainError, match="spread overflows float64"):
            sample_stats(x)

    @pytest.mark.parametrize("alpha", [2.5, 3.5, 10.0])
    def test_central_moments_match_fsum(self, alpha):
        n = 3 * _CHUNK + 5
        x = sample(SamplerConfig(seed=8, count=n, params=FrechetParams(0.0, 1.0, alpha)))
        s = sample_stats(x)
        # m2, m3 and m4 back from the estimators of SampleStats
        m2 = s.variance * (n - 1) / n
        m3 = s.skewness * m2**1.5 * (n - 2) / math.sqrt(n * (n - 1))
        m4 = (s.excess_kurtosis * (n - 2) * (n - 3) / ((n + 1) * (n - 1)) + 3.0 * (n - 1) / (n + 1)) * m2**2
        d = x - s.mean
        d2 = d * d
        for m, power in ((m2, d2), (m3, d2 * d), (m4, d2 * d2)):
            reference = math.fsum(power.tolist()) / n
            assert abs(m - reference) <= 1e-13 * math.fsum(np.abs(power).tolist()) / n

    def test_central_moments_about_the_exact_mean(self):
        # alpha 1e3: mean about 1, spread about 1.3e-3, so the rounding of
        # the mean alone moves m3 about it by some 3e-14 of mean |d|^3
        n = 3 * _CHUNK + 5
        x = sample(SamplerConfig(seed=8, count=n, params=FrechetParams(0.0, 1.0, 1e3)))
        s = sample_stats(x)
        m2 = s.variance * (n - 1) / n
        m3 = s.skewness * m2**1.5 * (n - 2) / math.sqrt(n * (n - 1))
        d = x - s.mean  # exact: every x is within a factor 2 of the mean
        e = math.fsum(d.tolist()) / n  # the exact mean minus s.mean, rounded
        s2, s3 = math.fsum((d * d).tolist()) / n, math.fsum((d * d * d).tolist()) / n
        assert abs(m2 - (s2 - e * e)) <= 1e-15 * s2
        assert abs(m3 - (s3 - 3.0 * e * s2 + 2.0 * e**3)) <= 1e-15 * math.fsum(np.abs(d**3).tolist()) / n

    def test_blocks_that_start_with_a_spike(self):
        # each block's deviations are taken about its own mean, not about its
        # first value; about the spike they lose the small values' digits
        rng = np.random.default_rng(30)
        x = 1.0 + 0.01 * rng.standard_normal(40_000)
        x[0], x[_CHUNK] = 1e8, 1e12
        s = sample_stats(x)
        values = [Fraction(v) for v in x.tolist()]
        mean = sum(values) / x.size
        variance = sum((v - mean) ** 2 for v in values) / (x.size - 1)
        assert abs(Fraction(s.mean) - mean) <= Fraction(1e-15) * mean
        assert abs(Fraction(s.variance) - variance) <= Fraction(1e-15) * variance

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

    @pytest.mark.parametrize("s", [1e-300, 1e-20, frechet._skewness_reversion()[0]], ids=["1e-300", "1e-20", "s_inf"])
    def test_skewness_at_or_below_the_limit_is_typed(self, s):
        # at or below s_inf no alpha matches; 1e-20 and 1e-300 raised ZeroDivisionError
        # where 1/s swamped the skewness in the chord's far point
        stats = SampleStats(count=3, mean=0.0, variance=1.0, skewness=s, excess_kurtosis=0.0)
        with pytest.raises(DegenerateFitError, match=r"needs alpha > 1e\+09: it is at or near the alpha -> inf limit"):
            fit_location_scale(stats)

    def test_skewness_above_every_alpha_names_the_bound(self):
        # the skewness tends to infinity as alpha falls to 3: no alpha in
        # [3 + 1e-9, 1e9] reaches 1e12
        stats = SampleStats(count=100, mean=0.0, variance=1.0, skewness=1e12, excess_kurtosis=0.0)
        with pytest.raises(DegenerateFitError) as exc:
            fit_location_scale(stats)
        assert str(exc.value) == "sample skewness 1000000000000.0 requires alpha <= 3"

    @pytest.mark.parametrize("mean,variance,message", [
        (math.inf, 1.0, "sample mean must be finite, got inf"),
        (math.nan, 1.0, "sample mean must be finite, got nan"),
        (0.0, 0.0, "sample variance must be positive and finite, got 0.0"),
        (0.0, math.inf, "sample variance must be positive and finite, got inf"),
    ])
    def test_nonfinite_or_zero_moments_are_named(self, mean, variance, message):
        stats = SampleStats(count=100, mean=mean, variance=variance, skewness=2.0, excess_kurtosis=0.0)
        with pytest.raises(DegenerateFitError) as exc:
            fit_location_scale(stats)
        assert str(exc.value) == message

    def test_scale_beyond_float64_is_named(self):
        # a finite variance over the shape's mu_2 (0.027 at skewness 2) overflows
        stats = SampleStats(count=100, mean=0.0, variance=1e308, skewness=2.0, excess_kurtosis=0.0)
        with pytest.raises(DegenerateFitError, match=r"^the scale sqrt\(variance / mu_2\) at variance 1e\+308 and "):
            fit_location_scale(stats)

    def test_rejects_nonpositive_skewness(self):
        stats = SampleStats(count=100, mean=0.0, variance=1.0, skewness=-1.0, excess_kurtosis=0.0)
        with pytest.raises(DegenerateFitError):
            fit_location_scale(stats)

    def test_skewness_slope_against_mpmath(self):
        # C1 = d skewness / du at u = 1/alpha = 0, by a difference quotient at u = 1e-30;
        # the reverted skewness series starts u = (s - s_inf) / C1 + ...
        with mp.workdps(150):
            u = mp.mpf(10) ** -30
            om = [mp.gamma(1 - p * u) for p in range(4)]
            mu2 = om[2] - om[1] ** 2
            mu3 = om[3] - 3 * om[1] * om[2] + 2 * om[1] ** 3
            limit = 12 * mp.sqrt(6) * mp.zeta(3) / mp.pi**3
            c1 = (mu3 / mu2**1.5 - limit) / u
        s_inf, (_, g) = frechet._skewness_reversion()
        assert abs(1.0 / g[-1] - c1) <= 1e-13 * c1
        assert 1.0 / g[-1] == pytest.approx(5.96661, abs=1e-5)
        assert s_inf == pytest.approx(float(limit), rel=1e-15)

    def test_skewness_tangent_bound(self):
        # skewness(u) >= s_inf + C1 u on (1e-9, 1/3), allowing for the rounding
        # of skewness (a few ulps of s_inf): checked, not proven, and no solver
        # path relies on it; it checks C1 = 1/g_1 across the whole range
        s_inf = 12.0 * math.sqrt(6.0) * CONSTANTS.apery / math.pi**3
        c1 = 1.0 / frechet._skewness_reversion()[1][1][-1]
        for i in range(3000):
            u = 1e-9 * ((1.0 / 3.0) / 1e-9) ** (i / 2999)
            u = min(u, 1.0 / (3.0 + 1e-9))
            assert skewness(FrechetShape(1.0 / u)) >= s_inf + c1 * u - 4 * math.ulp(s_inf), u

    def test_scale_and_location_from_the_public_moments(self):
        # the fit evaluates the kernels; the public functions give the same bits
        for alpha in _EVALUATION_GRID:
            if alpha > 3.0:
                shape = FrechetShape(alpha)
                stats = SampleStats(count=10**6, mean=3.0 + 2.0 * raw_moment(shape, 1),
                                    variance=4.0 * shape_variance(alpha), skewness=skewness(shape),
                                    excess_kurtosis=0.0)
                fit = fit_location_scale(stats)
                scale = math.sqrt(stats.variance / shape_variance(fit.alpha))
                assert fit.scale == scale, alpha
                assert fit.location == stats.mean - scale * raw_moment(FrechetShape(fit.alpha), 1), alpha

    def test_rejects_tiny_sample(self):
        stats = SampleStats(count=2, mean=0.0, variance=1.0, skewness=2.0, excess_kurtosis=0.0)
        with pytest.raises(InsufficientDataError):
            fit_location_scale(stats)
