import math

import mpmath as mp
import pytest

from frechetfit import (
    CONSTANTS,
    LAURENT,
    DomainError,
    GammaRangeError,
    PoleError,
    gamma,
    gamma_laurent,
    gamma_plus_one_taylor,
    log_gamma,
)
from frechetfit.special_functions import ZETA
from oracles import euler_gamma_series, zeta2_series, zeta3_series

# the largest z at which Gamma(z) is a finite float64
_GAMMA_LAST_FINITE = 171.62437695630272


def assert_outcome(f, z, expected):
    """f(z) is `expected`, or raises an error of its type and message: the outcome on each side of a check."""
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as exc:
            f(z)
        assert str(exc.value) == str(expected)
    else:
        assert f(z) == expected


class TestConstants:
    def test_euler_gamma_bounds(self):
        assert 0.57721566490153 < CONSTANTS.euler_gamma < 0.57721566490154

    def test_pi_sq_over_6_bounds(self):
        assert 1.64493406684822 < CONSTANTS.pi_sq_over_6 < 1.64493406684823

    def test_apery_bounds(self):
        assert 1.20205690315959 < CONSTANTS.apery < 1.20205690315960

    def test_euler_gamma_series_oracle(self):
        assert CONSTANTS.euler_gamma == pytest.approx(euler_gamma_series(), abs=1e-15)

    def test_apery_series_oracle(self):
        assert CONSTANTS.apery == pytest.approx(zeta3_series(), abs=1e-15)

    def test_zeta2_series_oracle(self):
        assert CONSTANTS.pi_sq_over_6 == pytest.approx(zeta2_series(), abs=1e-15)
        assert CONSTANTS.pi_sq_over_6 == math.pi**2 / 6.0

    def test_zeta_tuple_matches_mpmath(self):
        # each entry is zeta(n) correctly rounded to a double, n = 2..20
        assert len(ZETA) == 19
        assert ZETA[:2] == (CONSTANTS.pi_sq_over_6, CONSTANTS.apery)
        with mp.workdps(40):
            assert ZETA == tuple(float(mp.zeta(n)) for n in range(2, 21))


class TestLaurentCoefficients:
    def test_residue_is_one(self):
        assert LAURENT.c_minus1 == 1.0

    def test_signs(self):
        assert LAURENT.c0 < 0.0 < LAURENT.c1
        assert LAURENT.c2 < 0.0

    def test_c1_closed_form_bit_for_bit(self):
        assert LAURENT.c1 == (CONSTANTS.euler_gamma**2 + CONSTANTS.pi_sq_over_6) / 2.0

    def test_c2_closed_form_bit_for_bit(self):
        g = CONSTANTS.euler_gamma
        expected = -(g**3 + g * math.pi**2 / 2.0 + 2.0 * CONSTANTS.apery) / 6.0
        assert LAURENT.c2 == expected

    def test_c0_is_minus_euler_gamma(self):
        assert LAURENT.c0 == -CONSTANTS.euler_gamma


class TestGamma:
    def test_gamma_one(self):
        assert gamma(1.0) == 1.0

    def test_gamma_half_is_sqrt_pi(self):
        assert gamma(0.5) == pytest.approx(1.7724538509055160, rel=1e-15)

    def test_reflection_sanity(self):
        assert gamma(0.5) ** 2 == pytest.approx(math.pi, rel=1e-12)

    def test_gamma_0_6_gives_table_variance(self):
        # Gamma(1 - 2/5) - Gamma(1 - 1/5)^2 is the reference variance 0.133761
        assert gamma(0.6) - gamma(0.8) ** 2 == pytest.approx(0.133761, abs=5e-7)

    @pytest.mark.parametrize("z", [0.0, -0.0, -1.0, -2.0, -10.0])
    def test_pole_error(self, z):
        with pytest.raises(PoleError) as exc:
            gamma(z)
        assert str(exc.value) == f"gamma has a pole at z = {z}"

    @pytest.mark.parametrize("z, expected", [
        (math.nan, DomainError("gamma requires a finite argument, got nan")),
        (math.inf, DomainError("gamma requires a finite argument, got inf")),
        (-math.inf, DomainError("gamma requires a finite argument, got -inf")),
        (-0.5, math.gamma(0.5) / -0.5),
        (-1.5, DomainError("gamma not supported for z <= -1, got -1.5")),
        (_GAMMA_LAST_FINITE, math.gamma(_GAMMA_LAST_FINITE)),
        (math.nextafter(_GAMMA_LAST_FINITE, math.inf),
         GammaRangeError(f"gamma({math.nextafter(_GAMMA_LAST_FINITE, math.inf)}) overflows 64-bit floating point")),
        (5e-324, GammaRangeError("gamma(5e-324) overflows 64-bit floating point")),
        (-5e-324, GammaRangeError("gamma(-5e-324) overflows 64-bit floating point")),
    ])
    def test_edges_of_the_domain(self, z, expected):
        assert_outcome(gamma, z, expected)

    def test_overflow_range_error(self):
        with pytest.raises(GammaRangeError):
            gamma(172.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            gamma(math.inf)

    def test_negative_fraction_via_recurrence(self):
        # Gamma(-0.5) = Gamma(0.5)/(-0.5) = -2 sqrt(pi)
        assert gamma(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-14)

    @pytest.mark.parametrize("z", [0.1, 0.5, 1.0, 2.5, 7.0, 20.0, 50.0])
    def test_recurrence(self, z):
        assert abs(gamma(z + 1.0) - z * gamma(z)) / gamma(z + 1.0) <= 1e-12


class TestLogGamma:
    def test_log_gamma_one(self):
        assert log_gamma(1.0) == 0.0

    def test_log_gamma_two(self):
        assert log_gamma(2.0) == 0.0

    def test_consistent_with_gamma(self):
        assert log_gamma(0.6) == pytest.approx(math.log(gamma(0.6)), rel=1e-13)

    @pytest.mark.parametrize("z", [0.0, -1.5, -0.0, -0.5, -1.0, math.nan, math.inf, -math.inf])
    def test_domain_error(self, z):
        with pytest.raises(DomainError) as exc:
            log_gamma(z)
        assert str(exc.value) == f"log_gamma requires z > 0, got {z!r}"

    @pytest.mark.parametrize("z", [_GAMMA_LAST_FINITE, math.nextafter(_GAMMA_LAST_FINITE, math.inf)])
    def test_finite_where_gamma_overflows(self, z):
        assert log_gamma(z) == math.lgamma(z)

    @pytest.mark.parametrize("z", [2.6e305, 1e308])
    def test_range_error(self, z):
        with pytest.raises(GammaRangeError) as exc:
            log_gamma(z)
        assert str(exc.value) == f"log_gamma({z}) overflows 64-bit floating point"

    def test_no_overflow_for_large_argument(self):
        assert log_gamma(1000.0) == pytest.approx(math.lgamma(1000.0))


class TestGammaLaurent:
    def test_direct_polynomial_value(self):
        z = 0.1
        expected = 1.0 / z + LAURENT.c0 + LAURENT.c1 * z + LAURENT.c2 * z * z
        assert gamma_laurent(z, 2) == expected

    def test_order2_beats_order1(self):
        z = 0.05
        err2 = abs(gamma_laurent(z, 2) - gamma(z))
        err1 = abs(gamma_laurent(z, 1) - gamma(z))
        assert err2 < err1

    def test_remainder_is_cubic_order(self):
        # ratio |error|/z^3 must not blow up as z -> 0
        ratios = [abs(gamma_laurent(z, 2) - gamma(z)) / z**3 for z in (1e-1, 1e-2, 1e-3)]
        assert max(ratios) < 2.0 * ratios[0] + 0.5

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            gamma_laurent(0.0, 2)

    def test_bad_order_rejected(self):
        with pytest.raises(DomainError):
            gamma_laurent(0.1, 3)


class TestGammaPlusOneTaylor:
    def test_constant_term(self):
        assert gamma_plus_one_taylor(0.0, 3) == 1.0

    @pytest.mark.parametrize("z", [-0.3, 0.01, 0.2, 0.9])
    def test_equals_z_times_laurent_order1(self, z):
        assert gamma_plus_one_taylor(z, 2) == pytest.approx(z * gamma_laurent(z, 1), rel=1e-15)

    def test_remainder_bound(self):
        assert abs(gamma_plus_one_taylor(0.01, 3) - gamma(1.01)) < 1e-8

    def test_bad_order_rejected(self):
        with pytest.raises(DomainError):
            gamma_plus_one_taylor(0.1, 4)


def _laurent_value(z):
    return LAURENT.c_minus1 / z + LAURENT.c0 + LAURENT.c1 * z + LAURENT.c2 * z * z


def _taylor_value(z):
    return LAURENT.c_minus1 + LAURENT.c0 * z + LAURENT.c1 * z * z + LAURENT.c2 * z * z * z


@pytest.mark.parametrize("f, z, expected", [
    (gamma_laurent, math.nan, DomainError("gamma_laurent requires a finite argument, got nan")),
    (gamma_laurent, -math.inf, DomainError("gamma_laurent requires a finite argument, got -inf")),
    (gamma_laurent, 1e-300, _laurent_value(1e-300)),
    (gamma_laurent, 5e-324, GammaRangeError("gamma_laurent(5e-324) overflows 64-bit floating point")),
    (gamma_laurent, 1e100, _laurent_value(1e100)),
    (gamma_laurent, 1e200, GammaRangeError("gamma_laurent(1e+200) overflows 64-bit floating point")),
    (gamma_plus_one_taylor, math.inf, DomainError("gamma_plus_one_taylor requires a finite argument, got inf")),
    (gamma_plus_one_taylor, 1e100, _taylor_value(1e100)),
    (gamma_plus_one_taylor, 1e200, GammaRangeError("gamma_plus_one_taylor(1e+200) overflows 64-bit floating point")),
])
def test_expansions_at_the_edges_of_float64(f, z, expected):
    # as gamma's edges: a non-finite z is a domain error, a finite z whose
    # expansion is not finite (inf, -inf or nan) a range error
    assert_outcome(f, z, expected)
