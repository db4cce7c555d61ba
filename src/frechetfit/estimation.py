"""Shape-parameter inference from a variance, and the moment-matching fit.

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
that include the pole of the highest Gamma factor.  Public functions check
their arguments once; the solves and the fit then call frechet's unchecked
kernels, not its public functions, and take the rounding bound of a moment
from frechet._scaled, which alone knows how the moment was computed.

EstimateResult, CubicCoefficients and SampleStats are typing.NamedTuples; the
three estimators build EstimateResult with tuple.__new__, not through the
Python-level __new__ that NamedTuple generates.
"""

import enum
import math
from typing import NamedTuple

from .errors import DegenerateFitError, DomainError, InsufficientDataError, NoConvergenceError
from .frechet import (
    FrechetParams,
    _centered,
    _normalized,
    _omega,
    _positive,
    _scaled,
    _skewness_reversion,
    _sum_reversion,
    _variance_reversion,
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
]

_ALPHA_MIN = 2.0 + 1e-9
_ALPHA_MAX = 1e9
# the search ranges of the two solves: t = ln alpha in alpha_exact, u = 1/alpha in the fit
_T_MIN, _T_MAX = math.log(_ALPHA_MIN), math.log(_ALPHA_MAX)
_U_MIN, _U_MAX = 1.0 / _ALPHA_MAX, 1.0 / (3.0 + 1e-9)
# skewness ~ Gamma(1 - 3u) / V(1/3)^1.5 ~ 1 / ((1 - 3u) V(1/3)^1.5) as u -> 1/3
_POLE_SKEWNESS_SCALE = _centered(3.0, 2) ** 1.5


class Method(enum.Enum):
    ORDER1 = "order1"
    ORDER2_CARDANO = "order2-cardano"
    EXACT_ROOT = "exact-root"


class EstimateResult(NamedTuple):
    alpha: float
    method: Method
    residual: float
    iterations: int


# bound once: each Method.X is a class attribute lookup through the enum's
# metaclass, about 110 ns in Python 3.11
_ORDER1, _ORDER2_CARDANO, _EXACT_ROOT = Method.ORDER1, Method.ORDER2_CARDANO, Method.EXACT_ROOT


class CubicCoefficients(NamedTuple):
    """Cubic a3*u^3 + a2*u^2 = V in the reciprocal shape u = 1/alpha."""

    a3: float = (CONSTANTS.euler_gamma * math.pi**2 + 6.0 * CONSTANTS.apery) / 3.0
    a2: float = CONSTANTS.pi_sq_over_6


_CUBIC = CubicCoefficients()


class SampleStats(NamedTuple):
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
    # alpha is pi / sqrt(6 v) or the cubic's root for a finite v > 0: finite
    if alpha <= 2.0:
        return math.nan
    return abs(_centered(alpha, 2) - v)


def alpha_order1(v: float) -> EstimateResult:
    """Leading-order closed form alpha = pi / sqrt(6 v)."""
    _positive(v, "variance")
    alpha = math.pi / math.sqrt(6.0 * v)
    return tuple.__new__(EstimateResult, (alpha, _ORDER1, _variance_residual(alpha, v), 0))


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
    _positive(v, "variance")
    u = _positive_cubic_root(v)
    alpha = 1.0 / u
    return tuple.__new__(EstimateResult, (alpha, _ORDER2_CARDANO, _variance_residual(alpha, v), 0))


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
    if abs(fa) <= ftol:
        return a, fa, evaluations
    # step from the seed to the far point, then on to the end of [lo, hi]
    for b in (far(a, fa), hi if fa > 0.0 else lo):
        b = min(max(b, lo), hi)
        if b != a:
            fb = f(b)
            evaluations += 1
            if abs(fb) <= ftol:
                return b, fb, evaluations
            if (fb < 0.0) != (fa < 0.0):
                break
            a, fa = b, fb
    else:
        return None
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


def _past_log_variance_root(t: float, ft: float) -> float:
    """A point past the root of f(t) = ln V(e^t) - ln v, as d ln V / d ln alpha <= -2."""
    return t + 0.5 * ft


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
    _positive(v, "variance")
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
    root = _root(f, t_0, _past_log_variance_root, _T_MIN, _T_MAX, tol, max_iter)
    if root is None:
        raise NoConvergenceError(f"no alpha in [{_ALPHA_MIN}, {_ALPHA_MAX:g}] matches variance {v}")
    t, log_ratio, evaluations = root
    alpha = alpha_0 if t == t_0 else math.exp(t)
    return tuple.__new__(EstimateResult, (alpha, _EXACT_ROOT, v * abs(math.expm1(log_ratio)), evaluations))


def fit_location_scale(stats: SampleStats) -> FrechetParams:
    """Moment-matching fit: alpha from skewness, then scale and location.

    The analytic skewness depends on alpha alone and falls strictly on (3, inf)
    towards s_inf ~ 1.1395471 as about s_inf + C1/alpha (C1 ~ 5.96661), so a
    float64 sample skewness still pins alpha = 1e8 to about 1e-8.  `_root`
    solves 1/skewness(1/u) = 1/s in u = 1/alpha for alpha in [3 + 1e-9, 1e9],
    where both sides are bounded, to within 8 ulps of 1/s (the rounding of
    the skewness near the root reaches 7 on the test grid) or, if larger, the
    rounding bound of S_3 / S_2^1.5 at the seed (nonzero below alpha = 6,
    where the binomial Gamma sums serve, up to about 1100 ulps), so the solve
    does not chase rounding noise.
    Above alpha of about 13 the seed is the reverted skewness series summed
    at s - s_inf, and the solve stops at its first evaluation.  Below that it
    is the pole term u0 = (1 - 1/(s V(1/3)^1.5))/3 of Gamma(1 - 3u), an upper
    bound on the root there (checked, not proven; it is far closer than the
    tangent (s - s_inf)/C1).  The chord from (0, s_inf) through
    (u0, skewness(u0)) meets s on the root's other side (also checked, not
    proven); `_root` checks both signs and widens the bracket when a bound
    fails.  A skewness it cannot match raises DegenerateFitError, as do a
    mean or variance that is not finite and a scale that overflows float64.
    """
    if stats.count < 3:
        raise InsufficientDataError(f"need at least 3 values, got {stats.count}")
    if not math.isfinite(stats.mean):
        raise DegenerateFitError(f"sample mean must be finite, got {stats.mean!r}")
    if not (0.0 < stats.variance < math.inf):
        raise DegenerateFitError(f"sample variance must be positive and finite, got {stats.variance!r}")
    if not (stats.skewness > 0.0) or not math.isfinite(stats.skewness):
        raise DegenerateFitError("sample skewness must be positive and finite")

    s = stats.skewness
    target = 1.0 / s
    f = lambda u: 1.0 / _normalized(1.0 / u, 3) - target
    s_inf, table = _skewness_reversion()
    root = None  # at or below s_inf no alpha matches, and the chord's far point divides by zero
    if s > s_inf:
        lo, hi = _U_MIN, _U_MAX
        ftol = 8.0 * math.ulp(target)
        u0 = _sum_reversion(table, s - s_inf)
        if u0 is None:  # the pole term, an upper bound on the root below alpha ~ 14.7
            u0 = (1.0 - 1.0 / (s * _POLE_SKEWNESS_SCALE)) / 3.0
            # the rounding bound of skewness = S_3 / S_2^1.5 at the seed, 0 above
            # alpha = 6; the reverted series seeds only alpha above about 12
            alpha0 = 1.0 / min(max(u0, lo), hi)
            ftol = max(ftol, target * (_scaled(alpha0, 3)[1] + 1.5 * _scaled(alpha0, 2)[1]))
        chord = lambda u, fu: u * (s - s_inf) / (1.0 / (fu + target) - s_inf)
        root = _root(f, u0, chord, lo, hi, ftol, 200)
    if root is None:
        if s < _normalized(_ALPHA_MAX, 3):
            raise DegenerateFitError(
                f"sample skewness {s} needs alpha > {_ALPHA_MAX:g}: it is at or near the "
                f"alpha -> inf limit 12*sqrt(6)*zeta(3)/pi^3 = {s_inf:.7f}"
            )
        raise DegenerateFitError(f"sample skewness {s} requires alpha <= 3")
    alpha = 1.0 / root[0]
    scale = math.sqrt(stats.variance / _centered(alpha, 2))
    if scale == math.inf:
        raise DegenerateFitError(
            f"the scale sqrt(variance / mu_2) at variance {stats.variance!r} and alpha {alpha!r} overflows float64"
        )
    location = stats.mean - scale * _omega(alpha, 1)
    return FrechetParams(location, scale, alpha)
