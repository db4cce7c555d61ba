"""Frechet distribution: pdf/cdf/quantile and raw/centered/normalized moments.

Raw moments of the one-parameter form are Omega_k = Gamma(1 - k/alpha),
defined only for k < alpha.  Every centered moment of order k (k = 2: the
variance) is (Omega_1 u)^k S_k with u = 1/alpha, and every normalized one
(alpha > 2 as well) S_k / S_2^(k/2).  One kernel, _scaled, gives S_k and its
rounding bound: a power series in u for alpha >= 2k, the binomial expansion in
the Omega_p below.  Where the binomial sum cancels too many digits to leave an
answer (high orders at large alpha) it raises PrecisionLossError.  The
variance and skewness series, reverted to u as power series in sqrt(V) and in
skewness - s_inf, seed the inverse solves in estimation.  Public functions
check their arguments once, each rule stated in one function: _positive (alpha,
scale and, in estimation, a variance are finite and above 0) and _order (a
moment order is an integer of at least 1 or 2); then they call the unchecked
kernels (_omega, _scaled, _centered, _normalized), not one another.  The
kernels call math.gamma and math.lgamma directly, not the checked wrappers of
special_functions: every argument they pass, (alpha - p)/alpha with
1 <= p < alpha for Gamma and 1 - 1/alpha with alpha > 2 for ln Gamma, lies in
(0, 1], where the wrappers return exactly these values.

The records are typing.NamedTuples, which need neither dataclasses nor
inspect at import; FrechetShape and FrechetParams check their fields in
__new__ and raise DomainError.  moment_report builds its MomentReport with
tuple.__new__, as those two do, not through the Python-level __new__ that
NamedTuple generates.
"""

import functools
import math
import sys
from math import gamma, lgamma as log_gamma
from typing import NamedTuple, Optional

from .errors import DomainError, PrecisionLossError, UndefinedMomentError
from .special_functions import CONSTANTS, ZETA

__all__ = [
    "FrechetShape",
    "FrechetParams",
    "MomentReport",
    "pdf",
    "cdf",
    "quantile",
    "raw_moment",
    "centered_moment",
    "normalized_centered_moment",
    "skewness",
    "excess_kurtosis",
    "variance",
    "shape_variance",
    "moment_report",
]


def _positive(x: float, name: str) -> None:
    """The rule for alpha, scale and variance: finite and above 0 (a nan fails)."""
    if not 0.0 < x < math.inf:
        raise DomainError(f"{name} must be > 0, got {x!r}")


def _order(k, least: int, name: str) -> int:
    """The rule for a moment order: an integer of at least `least`, returned as an int.

    An order that is not an int, such as 3.0 or numpy.int64(3), becomes one:
    the kernels' tables are cached by order, and a key 3.0 would find the
    table built for 3 only after such a call.  Callers skip the call for an
    int order of at least `least`.
    """
    if not k >= least:  # a nan order too
        raise DomainError(f"{name} order must be >= {least}, got {k!r}")
    if not (math.isfinite(k) and k == int(k)):
        raise DomainError(f"moment order must be an integer, got {k!r}")
    return int(k)


class _Validated:
    """Base of the records whose __new__ checks the fields.

    NamedTuple._make, and so _replace, builds the tuple directly; here it
    calls the record's __new__, so no record skips the checks.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _FrechetShapeFields(NamedTuple):
    alpha: float


class FrechetShape(_Validated, _FrechetShapeFields):
    """One-parameter Frechet distribution, pdf alpha*x^(-alpha-1)*exp(-x^-alpha)."""

    __slots__ = ()

    def __new__(cls, alpha: float):
        _positive(alpha, "shape parameter")
        return tuple.__new__(cls, (alpha,))


class _FrechetParamsFields(NamedTuple):
    location: float
    scale: float
    alpha: float


class FrechetParams(_Validated, _FrechetParamsFields):
    """Location-scale Frechet distribution with support (location, inf)."""

    __slots__ = ()

    def __new__(cls, location: float, scale: float, alpha: float):
        if not math.isfinite(location):
            raise DomainError(f"location must be finite, got {location!r}")
        _positive(scale, "scale")
        _positive(alpha, "shape parameter")
        return tuple.__new__(cls, (location, scale, alpha))

    @property
    def shape(self) -> FrechetShape:
        return FrechetShape(self.alpha)


class MomentReport(NamedTuple):
    """Moments of one order: raw, centered, normalized, with definedness flag.

    `raw`/`centered` are None when k >= alpha; `normalized` is None exactly
    when `centered` is (k >= 2 and k < alpha already imply alpha > 2).
    """

    order: int
    raw: Optional[float]
    centered: Optional[float]
    normalized: Optional[float]
    defined: bool


def pdf(d: FrechetParams, x: float) -> float:
    """Density of the location-scale Frechet distribution; 0 at or below location."""
    if x <= d.location:
        return 0.0
    y = (x - d.location) / d.scale
    if y >= sys.float_info.min:
        try:
            z = y**-d.alpha
        except OverflowError:  # the density underflows long before z overflows
            return 0.0
        if z <= 708.0:  # exp(-z) is a normal float
            try:
                return (d.alpha / d.scale) * y ** (-1.0 - d.alpha) * math.exp(-z)
            except OverflowError:  # y**(-1 - alpha), for a small alpha
                pass
        log_y = math.log(y)
    else:
        # y is subnormal or underflows to 0: ln y from ln(x - location),
        # which is exact there, and ln(scale), without forming y
        log_y = math.log(x - d.location) - math.log(d.scale)
        try:
            z = math.exp(-d.alpha * log_y)
        except OverflowError:
            return 0.0
    # exp(-z) is subnormal or 0, or y**(-1 - alpha) overflows, or y is tiny: from logarithms
    try:
        return math.exp(math.log(d.alpha) - math.log(d.scale) - (1.0 + d.alpha) * log_y - z)
    except OverflowError:  # the density exceeds the largest float
        return math.inf


def cdf(d: FrechetParams, x: float) -> float:
    """exp(-((x-m)/s)^-alpha) above the location, 0 otherwise."""
    if x <= d.location:
        return 0.0
    y = (x - d.location) / d.scale
    try:
        if y >= sys.float_info.min:
            return math.exp(-(y**-d.alpha))
        # y is subnormal or 0: ln y as in pdf
        return math.exp(-math.exp(-d.alpha * (math.log(x - d.location) - math.log(d.scale))))
    except OverflowError:  # y**-alpha overflows where exp(-y**-alpha) underflows
        return 0.0


def quantile(d: FrechetParams, p: float) -> float:
    """Inverse cdf: m + s*(-ln p)^(-1/alpha) for p in (0, 1); DomainError where it overflows float64."""
    if not (0.0 < p < 1.0):
        raise DomainError(f"quantile requires 0 < p < 1, got {p!r}")
    try:
        x = d.location + d.scale * (-math.log(p)) ** (-1.0 / d.alpha)
    except OverflowError:  # the power
        x = math.inf
    if x == math.inf:
        raise DomainError(
            f"the quantile at p = {p!r} overflows float64 at location {d.location!r}, "
            f"scale {d.scale!r} and alpha {d.alpha!r}"
        )
    return x


# Coefficients per table: all that _scaled reads at k u = 1/2, its longest sum
_TERMS = 2 + int(37.5 / math.log(2.0))
# Cancellation in a table grows with its order (about 1e-6 at order 20) and it
# overflows float64 from order 98, so higher orders take the binomial sum.
_MAX_SERIES_ORDER = 20
# The binomial sum's relative rounding bound above which it raises: every
# value it returns then keeps about eight digits (measured, orders 2 to 30).
_MAX_ROUNDING = 1e-6


def _zeta(top: int) -> tuple:
    """zeta(2), ..., zeta(top); past ZETA five terms of the sum reach float64 precision."""
    return ZETA + tuple(1.0 + 2.0**-n + 3.0**-n + 4.0**-n + 5.0**-n for n in range(21, top + 1))


def _exp_series(a: list) -> list:
    """Coefficients of exp(sum_i a_i u^i), a_0 = 0, by the J.C.P. Miller recurrence."""
    b = [1.0] + [0.0] * (len(a) - 1)
    for m in range(1, len(a)):
        b[m] = sum(i * a[i] * b[m - i] for i in range(1, m + 1)) / m
    return b


@functools.lru_cache(maxsize=None)
def _series(k: int) -> tuple:
    """Coefficients of S_k(u) = E[(X/Omega_1 - 1)^k] / u^k in u = 1/alpha, highest first.

    Omega_j / Omega_1^j = exp(sum_{n>=2} zeta(n) (j^n - j) u^n / n) (DLMF 5.7.3),
    exponentiated by the J.C.P. Miller recurrence; the weights C(k,j) (-1)^(k-j)
    cancel every power below u^k exactly, so those are dropped, not summed.
    """
    top = k + _TERMS - 1
    zeta = _zeta(top)
    total = [0.0] * (top + 1)
    for j in range(2, k + 1):  # j = 0, 1 add only to the dropped u^0 term
        b = _exp_series([0.0, 0.0] + [z * (j**n - j) / n for n, z in enumerate(zeta, start=2)])
        for m in range(k, top + 1):
            total[m] += math.comb(k, j) * (-1) ** (k - j) * b[m]
    return tuple(reversed(total[k:]))


@functools.lru_cache(maxsize=None)
def _tails(k: int) -> tuple:
    """Suffix table of _series(k): its tail c[m:] for every start m, so a sum reads its terms uncopied."""
    c = _series(k)
    return tuple(c[m:] for m in range(len(c)))


def _omega(alpha: float, p: int) -> float:
    """Omega_p = Gamma(1 - p/alpha) for p < alpha, unchecked; (alpha - p) / alpha is exact next to the pole."""
    return gamma((alpha - p) / alpha)


def _scaled(alpha: float, k: int) -> tuple:
    """(S_k, its relative rounding bound) for 2 <= k < alpha, unchecked.

    S_k = mu_k / (Omega_1 / alpha)^k, the centered moment of order k over
    (Omega_1 u)^k with u = 1/alpha.  For alpha >= 2k it is the series _series(k)
    in u, summed over only the terms u needs (k u <= 1/2, so at most 56), read
    in place from the suffix table _tails(k), with bound 0.  Below that, where
    the series converges slowly or not at all, and above order
    _MAX_SERIES_ORDER, it is the binomial sum
    mu_k = sum_p C(k,p) (-Omega_1)^(k-p) Omega_p, whose k + 1 alternating terms
    round to about eps (k + 1) sum|term|; where that bound exceeds _MAX_ROUNDING
    of |mu_k|, or a term or the sum overflows float64, it raises
    PrecisionLossError.
    """
    if alpha >= 2 * k and k <= _MAX_SERIES_ORDER:
        u = 1.0 / alpha
        s = 0.0
        for c in _tails(k)[_TERMS - 2 - int(37.5 / -math.log(k * u))]:
            s = s * u + c
        return s, 0.0
    omega1 = _omega(alpha, 1)
    total = magnitude = 0.0
    c = 1  # C(k, p), walked along Pascal's row exactly
    try:
        for p in range(k + 1):
            omega_p = 1.0 if p == 0 else _omega(alpha, p)
            term = c * omega1 ** (k - p) * omega_p
            total += term if (k - p) % 2 == 0 else -term
            magnitude += term  # every term is positive
            c = c * (k - p) // (p + 1)
    except OverflowError:  # a binomial coefficient beyond float64, which the check below rejects
        total = math.nan
    rounding = math.ulp(1.0) * (k + 1) * magnitude
    if not rounding <= _MAX_ROUNDING * abs(total):  # a nan sum too, where the terms overflow
        raise PrecisionLossError(
            f"centered moment of order {k} at alpha = {alpha} is lost to cancellation: "
            f"the binomial sum of Gamma values keeps fewer than 6 reliable digits"
        )
    return total / (omega1 / alpha) ** k, rounding / abs(total)


def _centered(alpha: float, k: int) -> float:
    """Centered moment of order k for 2 <= k < alpha, unchecked: (Omega_1 u)^k S_k."""
    s_k = _scaled(alpha, k)[0]
    u = 1.0 / alpha
    return math.exp(k * log_gamma(1.0 - u)) * u**k * s_k


def _normalized(alpha: float, k: int) -> float:
    """Normalized centered moment of order k for alpha > 2 and 2 <= k < alpha, unchecked."""
    return _scaled(alpha, k)[0] / _scaled(alpha, 2)[0] ** (k / 2.0)


# Terms of the reverted series below: enough for float64 precision above alpha
# of about 11 (variance) and 13 (skewness), while the first solves build both
# tables in about 2 ms; the build time grows as the cube of the term count.
_REVERSION_TERMS = 24


def _power_series(p: list, a: float) -> list:
    """Coefficients of p(u)^a, p_0 > 0, to the length of p, by the J.C.P. Miller recurrence."""
    c = [p[0] ** a] + [0.0] * (len(p) - 1)
    for m in range(1, len(p)):
        c[m] = sum(((a + 1.0) * i - m) * p[i] * c[m - i] for i in range(1, m + 1)) / (m * p[0])
    return c


def _reversion(p: list, a: float) -> tuple:
    """Invert y = u p(u)^a, p of length N, to u = sum_{m=1..N} c_m y^m.

    Lagrange inversion gives c_m = [u^(m-1)] p(u)^(-a m) / m.  Returns
    (radius, coefficients highest first); the coefficients grow about as
    radius^-m, and |c_N|^(-1/N) stands in for the radius of convergence.
    """
    n = len(p)
    c = [_power_series(p[:m], -a * m)[m - 1] / m for m in range(1, n + 1)]
    return abs(c[-1]) ** (-1.0 / n), tuple(reversed(c))


def _sum_reversion(table: tuple, y: float) -> Optional[float]:
    """u(y) from a _reversion table, summed over only the terms y needs.

    None where y <= 0, or where the table's terms are too few for float64
    precision (y^m / radius^m > e^-36 at the last one).
    """
    radius, c = table
    if not 0.0 < y < radius:
        return None
    n = 1 + int(36.0 / math.log(radius / y))
    if n > len(c):
        return None
    u = 0.0
    for c_m in c[len(c) - n:]:
        u = u * y + c_m
    return u * y


@functools.lru_cache(maxsize=None)
def _variance_reversion() -> tuple:
    """u = 1/alpha as a power series in w = sqrt(V), to invert the variance.

    w = u q(u) with q(u)^2 = Omega_1^2 S_2(u), and Omega_1^2 = exp(2 ln Gamma(1-u))
    = exp(2 gamma u + sum_{n>=2} 2 zeta(n) u^n / n).  Its first two
    coefficients, sqrt(6)/pi and -a3/(2 a2^2), are the order-1 and order-2
    estimates of alpha_order1 and alpha_order2.
    """
    n = _REVERSION_TERMS
    two_log_gamma = [0.0, 2.0 * CONSTANTS.euler_gamma]
    omega1_sq = _exp_series(two_log_gamma + [2.0 * z / m for m, z in enumerate(_zeta(n - 1), start=2)])
    s2 = _series(2)[::-1]
    q_sq = [sum(omega1_sq[i] * s2[m - i] for i in range(m + 1)) for m in range(n)]
    return _reversion(q_sq, 0.5)


@functools.lru_cache(maxsize=None)
def _skewness_reversion() -> tuple:
    """(s_inf, table): u = 1/alpha as a power series in skewness - s_inf.

    skewness(u) = S_3(u) S_2(u)^(-3/2) = s_inf + u r(u), with s_inf ~ 1.1395471
    the series' own constant term, which the skewness tends to at large alpha.
    The table's first coefficient is 1/C1, the reciprocal slope of the
    skewness at u = 0 (C1 ~ 5.96661).
    """
    n = _REVERSION_TERMS + 1
    s2_power = _power_series(list(_series(2)[::-1][:n]), -1.5)
    s3 = _series(3)[::-1]
    skew = [sum(s3[i] * s2_power[m - i] for i in range(m + 1)) for m in range(n)]
    return skew[0], _reversion(skew[1:], 1.0)


def raw_moment(d: FrechetShape, k: int) -> float:
    """k-th raw moment Omega_k = Gamma(1 - k/alpha); requires k < alpha."""
    if not k >= 1:  # a nan order too: math.gamma(nan) would return nan
        raise DomainError(f"moment order must be >= 1, got {k!r}")
    if k >= d.alpha:
        raise UndefinedMomentError(
            f"raw moment of order {k} diverges for alpha = {d.alpha} (needs k < alpha)"
        )
    return _omega(d.alpha, k)


def _defined_order(d: FrechetShape, k, name: str) -> int:
    """The order rule for k >= 2, then k < alpha, which covers every alpha <= 2 as well."""
    if type(k) is not int or k < 2:
        k = _order(k, 2, name)
    if k >= d.alpha:
        raise UndefinedMomentError(f"{name} of order {k} diverges for alpha = {d.alpha}")
    return k


def centered_moment(d: FrechetShape, k: int) -> float:
    """k-th centered moment: the series kernel for alpha >= 2k, else the binomial sum.

    The binomial sum raises PrecisionLossError where it cancels to fewer than
    about six reliable digits (orders above 8 or so, see _MAX_ROUNDING).
    """
    return _centered(d.alpha, _defined_order(d, k, "centered moment"))


def shape_variance(alpha: float) -> float:
    """Omega_2 - Omega_1^2 for the one-parameter distribution (alpha > 2)."""
    if alpha <= 2.0:
        raise UndefinedMomentError(f"variance diverges for alpha = {alpha} <= 2")
    _positive(alpha, "shape parameter")  # inf and nan
    return _centered(alpha, 2)


def variance(d: FrechetParams) -> float:
    """scale^2 * (Omega_2 - Omega_1^2); undefined for alpha <= 2.

    Within two roundings of shape_variance(alpha) times scale^2: scale
    multiplies it twice, so a finite variance does not overflow on the way.
    alpha <= 2 raises UndefinedMomentError, and a variance beyond float64
    DomainError.
    """
    v = d.scale * (d.scale * shape_variance(d.alpha))
    if v == math.inf:
        raise DomainError(f"the variance overflows float64 at scale {d.scale!r} and alpha {d.alpha!r}")
    return v


def normalized_centered_moment(d: FrechetShape, k: int) -> float:
    """Centered moment of order k divided by variance^(k/2), S_k / S_2^(k/2)."""
    return _normalized(d.alpha, _defined_order(d, k, "normalized centered moment"))


def skewness(d: FrechetShape) -> float:
    """Normalized third centered moment for alpha > 3, +inf otherwise."""
    if d.alpha <= 3.0:
        return math.inf
    return _normalized(d.alpha, 3)


def excess_kurtosis(d: FrechetShape) -> float:
    """Kurtosis minus 3 for alpha > 4, +inf otherwise."""
    if d.alpha <= 4.0:
        return math.inf
    return _normalized(d.alpha, 4) - 3.0


def moment_report(d: FrechetShape, k: int) -> MomentReport:
    """Build the raw/centered/normalized report for one order k >= 1.

    A k below 1 or not an integer raises DomainError; past that check it
    never raises: an undefined moment is None, and `centered` and `normalized`
    are None as well where the binomial sum loses every digit
    (PrecisionLossError).  Both come from one S_k evaluation, with the same
    values as centered_moment and normalized_centered_moment.
    """
    if type(k) is not int or k < 1:
        k = _order(k, 1, "moment")
    alpha = d.alpha
    defined = k < alpha
    raw = _omega(alpha, k) if defined else None
    centered = normalized = None
    if defined and k >= 2:
        try:
            s_k = _scaled(alpha, k)[0]
        except PrecisionLossError:
            pass
        else:
            u = 1.0 / alpha
            centered = math.exp(k * log_gamma(1.0 - u)) * u**k * s_k
            # s_k / s_k ** 1.0 is exactly 1.0 at k = 2
            normalized = s_k / (s_k if k == 2 else _scaled(alpha, 2)[0]) ** (k / 2.0)
    return tuple.__new__(MomentReport, (k, raw, centered, normalized, defined))
