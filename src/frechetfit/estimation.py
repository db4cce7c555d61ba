"""Shape-parameter inference from a variance, plus sample-moment utilities.

Three estimators of increasing fidelity:

* order 1: alpha = pi / sqrt(6 V), from the leading term of the variance
  in powers of 1/alpha;
* order 2: the unique positive root of the cubic
  (pi^2/6) u^2 + ((gamma*pi^2 + 6 zeta(3))/3) u^3 = V in u = 1/alpha,
  solved in closed form (Cardano / trigonometric) plus a short Newton polish;
* exact: ln(Gamma(1-2/alpha) - Gamma(1-1/alpha)^2) = ln V solved in
  t = ln alpha by an Illinois iteration on a fixed bracket.

The same root finder, `_root`, solves the skewness equation in
`fit_location_scale`.
"""

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateFitError, DomainError, InsufficientDataError, NoConvergenceError
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
_SKEWNESS_LIMIT = 12.0 * math.sqrt(6.0) * CONSTANTS.apery / math.pi**3


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
    """Cubic a3*u^3 + a2*u^2 = V in the reciprocal shape u = 1/alpha."""

    a3: float = (CONSTANTS.euler_gamma * math.pi**2 + 6.0 * CONSTANTS.apery) / 3.0
    a2: float = CONSTANTS.pi_sq_over_6


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
    return EstimateResult(alpha, Method.ORDER1, _variance_residual(alpha, v), 0)


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
    coeffs = CubicCoefficients()
    u = _positive_cubic_root(coeffs.a3, coeffs.a2, v)
    alpha = 1.0 / u
    return EstimateResult(alpha, Method.ORDER2_CARDANO, _variance_residual(alpha, v), 0)


def _root(f, lo: float, hi: float, ftol: float, max_iter: int):
    """Root of f on [lo, hi] by the Illinois (modified regula falsi) method.

    Returns (x, f(x), iterations) once |f(x)| <= ftol or the bracket is a few
    ulps wide, and None when f(lo) and f(hi) have the same sign.  Halving the
    value kept at an end that survives two steps in a row stops regula falsi
    from stalling on one side, so convergence is superlinear.
    """
    flo, fhi = f(lo), f(hi)
    for x, fx in ((lo, flo), (hi, fhi)):
        if abs(fx) <= ftol:
            return x, fx, 0
    if (flo < 0.0) == (fhi < 0.0):
        return None
    kept = 0  # -1: hi survived the last step, +1: lo did
    for iterations in range(1, max_iter + 1):
        x = lo - flo * (hi - lo) / (fhi - flo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        fx = f(x)
        if abs(fx) <= ftol:
            return x, fx, iterations
        if (fx < 0.0) == (flo < 0.0):
            lo, flo = x, fx
            if kept == -1:
                fhi *= 0.5
            kept = -1
        else:
            hi, fhi = x, fx
            if kept == 1:
                flo *= 0.5
            kept = 1
        if hi - lo <= 4.0 * math.ulp(x):
            return x, fx, iterations
    raise NoConvergenceError(f"root finder did not converge in {max_iter} iterations")


def alpha_exact(v: float, tol: float = 1e-12, max_iter: int = 200) -> EstimateResult:
    """Solve Gamma(1-2/alpha) - Gamma(1-1/alpha)^2 = v for alpha.

    The variance falls strictly from +inf to 0 on (2, inf), and its log is
    nearly linear in t = ln alpha (slope -2 at large alpha), so `_root`
    solves ln V(e^t) = ln v for alpha in [2 + 1e-9, 1e9].  `tol` bounds the
    relative residual |ln V(alpha) - ln v|; near alpha = 2 one ulp of alpha
    can move V by more, and the solve then stops at the narrowest bracket
    instead.  `residual` reports |V(alpha) - v|.  A v that no alpha in that
    range matches raises NoConvergenceError.
    """
    if not (v > 0.0) or not math.isfinite(v):
        raise DomainError(f"variance must be > 0, got {v!r}")
    if not (tol > 0.0):
        raise DomainError(f"tolerance must be > 0, got {tol!r}")
    log_v = math.log(v)
    f = lambda t: math.log(shape_variance(math.exp(t))) - log_v
    root = _root(f, math.log(_ALPHA_MIN), math.log(_ALPHA_MAX), tol, max_iter)
    if root is None:
        raise NoConvergenceError(f"no alpha in [{_ALPHA_MIN}, {_ALPHA_MAX:g}] matches variance {v}")
    t, log_ratio, iterations = root
    residual = v * abs(math.expm1(log_ratio))
    return EstimateResult(math.exp(t), Method.EXACT_ROOT, residual, iterations)


def sample_stats(data: Sequence[float]) -> SampleStats:
    """Single-pass empirical moments; see SampleStats for the exact estimators."""
    x = np.asarray(data, dtype=np.float64)
    n = int(x.size)
    if n < 2:
        raise InsufficientDataError(f"need at least 2 values, got {n}")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(x.mean())
        d = x - mean
        d2 = d * d
        m2 = float(np.mean(d2))
        m3 = float(np.mean(d2 * d))
        m4 = float(np.mean(d2 * d2))
    if not (math.isfinite(m2) and math.isfinite(m3) and math.isfinite(m4)):
        if not np.isfinite(x).all():
            raise DomainError("the sample holds a nan or infinite value")
        raise DomainError(
            "the sample's spread overflows float64: its central moments up to "
            "order 4 are not all finite"
        )
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


def fit_location_scale(stats: SampleStats) -> FrechetParams:
    """Moment-matching fit: alpha from skewness, then scale and location.

    The analytic skewness depends on alpha alone and falls strictly on (3, inf)
    towards s_inf ~ 1.1395471 as about s_inf + 5.97/alpha, so a float64 sample
    skewness still pins alpha = 1e8 to about 1e-8.  `_root` solves
    1/skewness(1/u) = 1/s in u = 1/alpha for alpha in [3 + 1e-9, 1e9], where
    both sides are bounded; a skewness it cannot match raises DegenerateFitError.
    """
    if stats.count < 3:
        raise InsufficientDataError(f"need at least 3 values, got {stats.count}")
    if not (stats.variance > 0.0):
        raise DegenerateFitError("sample variance must be > 0")
    if not (stats.skewness > 0.0) or not math.isfinite(stats.skewness):
        raise DegenerateFitError("sample skewness must be positive and finite")

    target = 1.0 / stats.skewness
    f = lambda u: 1.0 / skewness(FrechetShape(1.0 / u)) - target
    root = _root(f, 1.0 / _ALPHA_MAX, 1.0 / (3.0 + 1e-9), math.ulp(target), 200)
    if root is None:
        if stats.skewness < skewness(FrechetShape(_ALPHA_MAX)):
            raise DegenerateFitError(
                f"sample skewness {stats.skewness} needs alpha > {_ALPHA_MAX:g}: it is at or "
                f"near the alpha -> inf limit 12*sqrt(6)*zeta(3)/pi^3 = {_SKEWNESS_LIMIT:.7f}"
            )
        raise DegenerateFitError(f"sample skewness {stats.skewness} requires alpha <= 3")
    alpha = 1.0 / root[0]
    scale = math.sqrt(stats.variance / shape_variance(alpha))
    location = stats.mean - scale * raw_moment(FrechetShape(alpha), 1)
    return FrechetParams(location=location, scale=scale, alpha=alpha)
