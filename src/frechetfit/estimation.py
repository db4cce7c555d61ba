"""Shape-parameter inference from a variance, plus sample-moment utilities.

Three estimators of increasing fidelity:

* order 1: alpha = pi / sqrt(6 V), from the leading term of the variance
  in powers of 1/alpha;
* order 2: the unique positive root of the cubic
  (pi^2/6) u^2 + ((gamma*pi^2 + 6 zeta(3))/3) u^3 = V in u = 1/alpha,
  solved in closed form (Cardano / trigonometric) plus a short Newton polish;
* exact: bisection on Gamma(1-2/alpha) - Gamma(1-1/alpha)^2 = V.
"""

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegenerateFitError,
    DomainError,
    InsufficientDataError,
    NoConvergenceError,
)
from .frechet import FrechetParams, FrechetShape, raw_moment, shape_variance, skewness
from .special_functions import CONSTANTS

__all__ = [
    "Method",
    "EstimateResult",
    "CubicCoefficients",
    "SampleStats",
    "alpha_order1",
    "alpha_order2",
    "alpha_exact",
    "fit_location_scale",
    "sample_stats",
]

_ALPHA_MIN = 2.0 + 1e-9
_ALPHA_MAX = 1e9


class Method(enum.Enum):
    ORDER1 = "order1"
    ORDER2_CARDANO = "order2-cardano"
    EXACT_ROOT = "exact-root"


@dataclass(frozen=True)
class EstimateResult:
    alpha: float
    method: Method
    residual: float
    iterations: int


@dataclass(frozen=True)
class CubicCoefficients:
    """Cubic a3*u^3 + a2*u^2 = rhs in the reciprocal shape u = 1/alpha."""

    a3: float = (CONSTANTS.euler_gamma * math.pi**2 + 6.0 * CONSTANTS.apery) / 3.0
    a2: float = CONSTANTS.pi_sq_over_6
    rhs: float = 0.0


@dataclass(frozen=True)
class SampleStats:
    """Empirical moments: unbiased variance, bias-adjusted skewness/kurtosis.

    With central moments m_j = mean((x - xbar)^j):
      variance        = n/(n-1) * m_2
      skewness        = (m_3/m_2^1.5) * sqrt(n(n-1))/(n-2)      (nan for n < 3)
      excess_kurtosis = (n+1)(n-1)/((n-2)(n-3))
                        * (m_4/m_2^2 - 3(n-1)/(n+1))            (nan for n < 4)
    """

    count: int
    mean: float
    variance: float
    skewness: float
    excess_kurtosis: float


def _variance_residual(alpha: float, v: float) -> float:
    if alpha <= 2.0:
        return math.nan
    return abs(shape_variance(alpha) - v)


def alpha_order1(v: float) -> EstimateResult:
    """Leading-order closed form alpha = pi / sqrt(6 v)."""
    if not (v > 0.0) or not math.isfinite(v):
        raise DomainError(f"variance must be > 0, got {v!r}")
    alpha = math.pi / math.sqrt(6.0 * v)
    return EstimateResult(
        alpha=alpha,
        method=Method.ORDER1,
        residual=_variance_residual(alpha, v),
        iterations=0,
    )


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _positive_cubic_root(a3: float, a2: float, v: float) -> float:
    # Unique positive root of a3 u^3 + a2 u^2 - v = 0 (the polynomial is
    # -v at u=0 and strictly increasing for u > 0).
    b = a2 / a3
    d = -v / a3
    # depressed form t^3 + p t + q with u = t - b/3
    p = -b * b / 3.0
    q = 2.0 * b**3 / 27.0 + d
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    if disc > 0.0:
        s = math.sqrt(disc)
        t = _cbrt(-q / 2.0 + s) + _cbrt(-q / 2.0 - s)
        roots = [t - b / 3.0]
    else:
        # three real roots; trigonometric form
        r = 2.0 * math.sqrt(-p / 3.0)
        phi = math.acos(max(-1.0, min(1.0, 3.0 * q / (p * r))))
        roots = [
            r * math.cos((phi - 2.0 * math.pi * k) / 3.0) - b / 3.0 for k in range(3)
        ]
    positive = [u for u in roots if u > 0.0]
    u = max(positive)
    # Newton polish removes closed-form rounding; two steps suffice.
    for _ in range(2):
        f = a3 * u**3 + a2 * u**2 - v
        df = 3.0 * a3 * u**2 + 2.0 * a2 * u
        u -= f / df
    return u


def alpha_order2(v: float) -> EstimateResult:
    """Analytic (Cardano) solution of the order-2 variance expansion."""
    if not (v > 0.0) or not math.isfinite(v):
        raise DomainError(f"variance must be > 0, got {v!r}")
    coeffs = CubicCoefficients(rhs=v)
    u = _positive_cubic_root(coeffs.a3, coeffs.a2, v)
    alpha = 1.0 / u
    return EstimateResult(
        alpha=alpha,
        method=Method.ORDER2_CARDANO,
        residual=_variance_residual(alpha, v),
        iterations=0,
    )


def alpha_exact(v: float, tol: float = 1e-12, max_iter: int = 200) -> EstimateResult:
    """Solve Gamma(1-2/alpha) - Gamma(1-1/alpha)^2 = v by bracketed bisection.

    The variance is strictly decreasing from +inf to 0 on (2, inf), so a
    bracket always exists for v > 0.  The order-1 estimate seeds the bracket.
    """
    if not (v > 0.0) or not math.isfinite(v):
        raise DomainError(f"variance must be > 0, got {v!r}")
    if not (tol > 0.0):
        raise DomainError(f"tolerance must be > 0, got {tol!r}")

    target = tol * max(1.0, v)
    iterations = 0

    def f(alpha: float) -> float:
        return shape_variance(alpha) - v

    guess = max(alpha_order1(v).alpha, _ALPHA_MIN * 1.5)
    lo, hi = guess, guess
    # expand down until f(lo) > 0 (variance above target)
    while f(lo) <= 0.0:
        iterations += 1
        lo = _ALPHA_MIN + (lo - _ALPHA_MIN) / 2.0
        if iterations > max_iter:
            raise NoConvergenceError("failed to bracket from below")
    # expand up until f(hi) < 0
    while f(hi) >= 0.0:
        iterations += 1
        if hi >= _ALPHA_MAX or iterations > max_iter:
            raise NoConvergenceError(f"no alpha <= {_ALPHA_MAX} matches variance {v}")
        hi = min(2.0 * hi, _ALPHA_MAX)
    alpha = 0.5 * (lo + hi)
    while iterations < max_iter:
        iterations += 1
        alpha = 0.5 * (lo + hi)
        fm = f(alpha)
        if abs(fm) <= target and (hi - lo) <= 1e-12 * alpha:
            return EstimateResult(alpha, Method.EXACT_ROOT, abs(fm), iterations)
        if fm > 0.0:
            lo = alpha
        else:
            hi = alpha
        if (hi - lo) <= 4.0 * math.ulp(alpha):
            fm = f(alpha)
            if abs(fm) <= target:
                return EstimateResult(alpha, Method.EXACT_ROOT, abs(fm), iterations)
            break
    raise NoConvergenceError(
        f"exact solver did not reach |residual| <= {target} in {max_iter} iterations"
    )


def sample_stats(data: Sequence[float]) -> SampleStats:
    """Single-pass empirical moments; see SampleStats for the exact estimators."""
    x = np.asarray(data, dtype=np.float64)
    n = int(x.size)
    if n < 2:
        raise InsufficientDataError(f"need at least 2 values, got {n}")
    mean = float(x.mean())
    d = x - mean
    d2 = d * d
    m2 = float(np.mean(d2))
    m3 = float(np.mean(d2 * d))
    m4 = float(np.mean(d2 * d2))
    var = m2 * n / (n - 1)
    if m2 > 0.0 and n >= 3:
        skew = (m3 / m2**1.5) * math.sqrt(n * (n - 1)) / (n - 2)
    else:
        skew = math.nan
    if m2 > 0.0 and n >= 4:
        kurt = ((n + 1) * (n - 1)) / ((n - 2) * (n - 3)) * (
            m4 / m2**2 - 3.0 * (n - 1) / (n + 1)
        )
    else:
        kurt = math.nan
    return SampleStats(count=n, mean=mean, variance=var, skewness=skew, excess_kurtosis=kurt)


def fit_location_scale(stats: SampleStats, tol: float = 1e-10) -> FrechetParams:
    """Moment-matching fit: alpha from skewness, then scale and location.

    The analytic skewness depends on alpha alone and decreases strictly on
    (3, inf) towards ~1.1395, so a sample skewness below that limit (or
    non-positive variance/skewness) cannot be matched.
    """
    if stats.count < 3:
        raise InsufficientDataError(f"need at least 3 values, got {stats.count}")
    if not (stats.variance > 0.0):
        raise DegenerateFitError("sample variance must be > 0")
    if not (stats.skewness > 0.0) or not math.isfinite(stats.skewness):
        raise DegenerateFitError("sample skewness must be positive and finite")

    # Above alpha ~ 1e4 the gap between skewness(alpha) and its alpha->inf
    # limit (~1.1395) drops below what 64-bit lgamma can resolve, so shapes
    # beyond that cannot be told apart by moment matching in doubles.
    lo, hi = 3.0 + 1e-9, 1e4
    g = lambda alpha: skewness(FrechetShape(alpha)) - stats.skewness
    if g(hi) > 0.0:
        raise DegenerateFitError(
            f"sample skewness {stats.skewness} is at or below the resolvable "
            f"range (alpha would exceed {hi:g})"
        )
    if g(lo) < 0.0:
        raise DegenerateFitError(
            f"sample skewness {stats.skewness} requires alpha <= 3"
        )
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if abs(gm) <= tol or (hi - lo) <= 4.0 * math.ulp(mid):
            lo = hi = mid
            break
        if gm > 0.0:
            lo = mid
        else:
            hi = mid
    alpha = 0.5 * (lo + hi)
    scale = math.sqrt(stats.variance / shape_variance(alpha))
    location = stats.mean - scale * raw_moment(FrechetShape(alpha), 1)
    return FrechetParams(location=location, scale=scale, alpha=alpha)
