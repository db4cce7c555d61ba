"""Shape-parameter inference from a variance, plus sample-moment utilities.

Three estimators of increasing fidelity:

* order 1: alpha = pi / sqrt(6 V), from the leading term of the variance
  in powers of 1/alpha;
* order 2: the unique positive root of the cubic
  (pi^2/6) u^2 + ((gamma*pi^2 + 6 zeta(3))/3) u^3 = V in u = 1/alpha,
  in closed form (trigonometric / Cardano) plus one Newton polish;
* exact: ln(Gamma(1-2/alpha) - Gamma(1-1/alpha)^2) = ln V solved in
  t = ln alpha.

One root finder, `_root`, solves both inverse problems: it turns a seed and a
closed-form bound into a bracket, then runs the Illinois iteration in it.
Both seeds come from the same idea as the order-1 and order-2 estimates
carried to all orders: the variance series reverted to u = 1/alpha as a power
series in sqrt(V), and the skewness series reverted in skewness - s_inf
(frechet._variance_reversion, frechet._skewness_reversion).  Above alpha of
about 11 and 13 respectively they give u to float64 precision, and the solve
stops at its first evaluation.  Below that each starts from closed-form bounds
that include the pole of the highest Gamma factor.
"""

import enum
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DegenerateFitError, DomainError, InsufficientDataError, NoConvergenceError
from .frechet import (
    FrechetParams,
    FrechetShape,
    _binomial,
    _centered,
    _normalized,
    _on_series,
    _skewness_reversion,
    _sum_reversion,
    _variance_reversion,
    raw_moment,
    shape_variance,
    skewness,
)
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
# skewness ~ Gamma(1 - 3u) / V(1/3)^1.5 ~ 1 / ((1 - 3u) V(1/3)^1.5) as u -> 1/3
_POLE_SKEWNESS_SCALE = shape_variance(3.0) ** 1.5


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


_CUBIC = CubicCoefficients()


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


def _positive_cubic_root(v: float) -> float:
    """Unique positive root u of the order-2 cubic a3 u^3 + a2 u^2 = v, for v > 0.

    In alpha = 1/u = sqrt(a2 / (3 v)) * y the cubic is y^3 - 3 y = 2 r with
    r = a3 sqrt(27 v / a2^3) / 2, and u is given by its largest root: the
    trigonometric form for r <= 1, Cardano's for r > 1.  Neither subtracts
    nearly equal numbers or overflows, so every v > 0 keeps full precision.
    """
    a3, a2 = _CUBIC.a3, _CUBIC.a2
    root_v = math.sqrt(v)
    r = 0.5 * a3 * math.sqrt(27.0 / a2**3) * root_v
    if r <= 1.0:
        y = 2.0 * math.cos(math.acos(r) / 3.0)
    else:
        z = (r + math.sqrt(r - 1.0) * math.sqrt(r + 1.0)) ** (1.0 / 3.0)
        y = z + 1.0 / z
    # one Newton step removes the closed form's rounding (y >= sqrt(3))
    y -= (y * y * y - 3.0 * y - 2.0 * r) / (3.0 * y * y - 3.0)
    return math.sqrt(3.0 / a2) * root_v / y


def alpha_order2(v: float) -> EstimateResult:
    """Closed-form (trigonometric / Cardano) root of the order-2 variance expansion."""
    if not (v > 0.0) or not math.isfinite(v):
        raise DomainError(f"variance must be > 0, got {v!r}")
    u = _positive_cubic_root(v)
    alpha = 1.0 / u
    return EstimateResult(alpha, Method.ORDER2_CARDANO, _variance_residual(alpha, v), 0)


def _root(f, x0: float, far, lo: float, hi: float, ftol: float, max_iter: int):
    """Root of a decreasing f on [lo, hi], searched from a seed x0.

    The sign of f(x0) tells on which side of x0 the root lies, and
    far(x0, f(x0)) names a point past it on that side.  Both points are
    clamped to [lo, hi]; if the far point falls short of the root, the bracket
    runs from it to the end of [lo, hi] on that side instead.  Inside the
    bracket the Illinois (modified regula falsi) method takes over: halving the
    value kept at an end that survives two steps in a row stops regula falsi
    from stalling on one side, so convergence is superlinear.

    Returns (x, f(x), evaluations of f) once |f(x)| <= ftol or the bracket is
    a few ulps wide, and None when f has no root in [lo, hi].  No point is
    evaluated twice, so a seed within ftol of the root costs one evaluation
    and a proven bracket two.
    """
    a = min(max(x0, lo), hi)
    fa = f(a)
    evaluations = 1
    # step from the seed to the far point, then on to the end of [lo, hi]
    for b in (far(a, fa), hi if fa > 0.0 else lo):
        if abs(fa) <= ftol:
            return a, fa, evaluations
        b = min(max(b, lo), hi)
        if b != a:
            fb = f(b)
            evaluations += 1
            if (fb < 0.0) != (fa < 0.0):
                break
            a, fa = b, fb
    else:
        return (a, fa, evaluations) if abs(fa) <= ftol else None
    if abs(fb) <= ftol:
        return b, fb, evaluations
    (lo, flo), (hi, fhi) = sorted(((a, fa), (b, fb)))
    kept = 0  # -1: hi survived the last step, +1: lo did
    for _ in range(max_iter):
        x = lo - flo * (hi - lo) / (fhi - flo)
        if not lo < x < hi:  # the step rounds to under an ulp: the root is next to that end
            x = math.nextafter(lo, hi) if x <= lo else math.nextafter(hi, lo)
        fx = f(x)
        evaluations += 1
        if abs(fx) <= ftol:
            return x, fx, evaluations
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
            return x, fx, evaluations
    raise NoConvergenceError(f"root finder did not converge in {max_iter} iterations")


def alpha_exact(v: float, tol: float = 1e-12, max_iter: int = 200) -> EstimateResult:
    """Solve Gamma(1-2/alpha) - Gamma(1-1/alpha)^2 = v for alpha.

    `_root` solves f(t) = ln V(e^t) - ln v = 0 in t = ln alpha, for alpha in
    [2 + 1e-9, 1e9].  Where sqrt(v) is within the reach of the reverted
    variance series (alpha above about 11) the seed is that series' sum, exact
    to rounding, and the solve stops at its first evaluation unless `tol` is
    finer than that.  Elsewhere it is the larger of two lower bounds on alpha:
    the order-2 root (alpha_order2; every Taylor coefficient of V(u)/u^2 in
    u = 1/alpha is positive) and the pole bound V(u) > 1/(1 - 2u) - gamma - pi,
    which is the closer one below alpha of about 3.4.  Either way
    d ln V / d ln alpha <= -2 puts the root between the seed t0 and
    t0 + f(t0)/2, and two evaluations of f prove the bracket.

    `tol` bounds the relative residual |ln V(alpha) - ln v|; near alpha = 2
    one ulp of alpha can move V by more, and the solve then stops at the
    narrowest bracket instead.  `residual` reports |V(alpha) - v|, and
    `iterations` the number of evaluations of V, the seed's included.  A v that
    no alpha in that range matches raises NoConvergenceError.
    """
    if not (v > 0.0) or not math.isfinite(v):
        raise DomainError(f"variance must be > 0, got {v!r}")
    if not (tol > 0.0):
        raise DomainError(f"tolerance must be > 0, got {tol!r}")
    log_v = math.log(v)
    f = lambda t: math.log(_centered(math.exp(t), 2)) - log_v
    u_0 = _sum_reversion(_variance_reversion(), math.sqrt(v))
    if u_0 is None:
        # two lower bounds: the order-2 root, and the pole V > 1/(1 - 2u) - gamma - pi
        pole = 2.0 / (1.0 - 1.0 / (v + CONSTANTS.euler_gamma + math.pi))
        alpha_0 = max(1.0 / _positive_cubic_root(v), pole)
    else:
        alpha_0 = 1.0 / u_0
    t_0 = math.log(alpha_0)
    root = _root(f, t_0, lambda t, ft: t + 0.5 * ft, math.log(_ALPHA_MIN), math.log(_ALPHA_MAX),
                 tol, max_iter)
    if root is None:
        raise NoConvergenceError(f"no alpha in [{_ALPHA_MIN}, {_ALPHA_MAX:g}] matches variance {v}")
    t, log_ratio, evaluations = root
    alpha = alpha_0 if t == t_0 else math.exp(t)
    return EstimateResult(alpha, Method.EXACT_ROOT, v * abs(math.expm1(log_ratio)), evaluations)


def _fsum_finite(parts: list[float]) -> float:
    """math.fsum of finite block sums; inf where a part or the sum is not finite.

    fsum itself raises ValueError on inf + -inf and OverflowError where a
    sum of finite parts overflows.
    """
    if not all(map(math.isfinite, parts)):
        return math.inf
    try:
        return math.fsum(parts)
    except OverflowError:
        return math.inf


def sample_stats(data: Sequence[float]) -> SampleStats:
    """Empirical moments; see SampleStats for the exact estimators.

    One numpy pass gives the mean.  The deviations from it and their second,
    third and fourth powers are then formed one block of sampling_io._CHUNK
    values at a time, so only a block of them is held, and math.fsum adds
    the blocks' sums.  numpy is imported on the first call, so the
    estimators and the fit never load it.
    """
    # numpy takes most of the package's import time; only this function here needs it
    import numpy as np

    from .sampling_io import _CHUNK

    x = np.asarray(data, dtype=np.float64).reshape(-1)
    n = int(x.size)
    if n < 2:
        raise InsufficientDataError(f"need at least 2 values, got {n}")
    s2: list[float] = []
    s3: list[float] = []
    s4: list[float] = []
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(x.mean())
        for start in range(0, n, _CHUNK):
            d = x[start:start + _CHUNK] - mean
            d2 = d * d
            s2.append(float(d2.sum()))
            s3.append(float((d2 * d).sum()))
            d2 *= d2
            s4.append(float(d2.sum()))
    m2, m3, m4 = (_fsum_finite(parts) / n for parts in (s2, s3, s4))
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


def _skewness_rounding(alpha: float) -> float:
    """Relative rounding bound of skewness(alpha) where it comes from binomial Gamma sums.

    Below alpha = 6 the third centered moment is a binomial sum, and below 4
    the variance too, which enters as its 1.5th power.  Zero above alpha = 6,
    where the series kernel is good to a few ulps.
    """
    bound = 0.0
    for k, weight in ((3, 1.0), (2, 1.5)):
        if not _on_series(alpha, k):
            total, rounding = _binomial(alpha, k)
            bound += weight * rounding / abs(total)
    return bound


def fit_location_scale(stats: SampleStats) -> FrechetParams:
    """Moment-matching fit: alpha from skewness, then scale and location.

    The analytic skewness depends on alpha alone and falls strictly on (3, inf)
    towards s_inf ~ 1.1395471 as about s_inf + C1/alpha (C1 ~ 5.96661), so a
    float64 sample skewness still pins alpha = 1e8 to about 1e-8.  `_root`
    solves 1/skewness(1/u) = 1/s in u = 1/alpha for alpha in [3 + 1e-9, 1e9],
    where both sides are bounded, to within 8 ulps of 1/s (the rounding of
    the skewness near the root reaches 7 on the test grid) or, if larger, the
    rounding bound of its binomial Gamma sums at the seed (below alpha = 6,
    up to about 1100 ulps), so the solve does not chase rounding noise.
    Above alpha of about 13 the seed is the reverted skewness series summed
    at s - s_inf, and the solve stops at its first evaluation.  Below that it
    is the pole term u0 = (1 - 1/(s V(1/3)^1.5))/3 of Gamma(1 - 3u), an upper
    bound on the root there (checked, not proven; it is far closer than the
    tangent (s - s_inf)/C1).  The chord from (0, s_inf) through
    (u0, skewness(u0)) meets s on the root's other side (also checked, not
    proven); `_root` checks both signs and widens the bracket when a bound
    fails.  A skewness it cannot match raises DegenerateFitError.
    """
    if stats.count < 3:
        raise InsufficientDataError(f"need at least 3 values, got {stats.count}")
    if not (stats.variance > 0.0):
        raise DegenerateFitError("sample variance must be > 0")
    if not (stats.skewness > 0.0) or not math.isfinite(stats.skewness):
        raise DegenerateFitError("sample skewness must be positive and finite")

    s = stats.skewness
    target = 1.0 / s
    f = lambda u: 1.0 / _normalized(1.0 / u, 3) - target
    s_inf, table = _skewness_reversion()
    lo, hi = 1.0 / _ALPHA_MAX, 1.0 / (3.0 + 1e-9)
    ftol = 8.0 * math.ulp(target)
    u0 = _sum_reversion(table, s - s_inf)
    if u0 is None:  # the pole term, an upper bound on the root below alpha ~ 14.7
        u0 = (1.0 - 1.0 / (s * _POLE_SKEWNESS_SCALE)) / 3.0
        # the reverted series seeds only alpha above about 12, where this bound is 0
        ftol = max(ftol, target * _skewness_rounding(1.0 / min(max(u0, lo), hi)))
    chord = lambda u, fu: u * (s - s_inf) / (1.0 / (fu + target) - s_inf)
    root = _root(f, u0, chord, lo, hi, ftol, 200)
    if root is None:
        if s < skewness(FrechetShape(_ALPHA_MAX)):
            raise DegenerateFitError(
                f"sample skewness {s} needs alpha > {_ALPHA_MAX:g}: it is at or near the "
                f"alpha -> inf limit 12*sqrt(6)*zeta(3)/pi^3 = {s_inf:.7f}"
            )
        raise DegenerateFitError(f"sample skewness {s} requires alpha <= 3")
    alpha = 1.0 / root[0]
    scale = math.sqrt(stats.variance / shape_variance(alpha))
    location = stats.mean - scale * raw_moment(FrechetShape(alpha), 1)
    return FrechetParams(location=location, scale=scale, alpha=alpha)
