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
that include the pole of the highest Gamma factor.  Public functions check
their arguments once; the solves and the fit then call frechet's unchecked
kernels, not its public functions, and take the rounding bound of a moment
from frechet._scaled, which alone knows how the moment was computed.

EstimateResult, CubicCoefficients and SampleStats are typing.NamedTuples.
"""

import enum
import math
from typing import NamedTuple, Sequence

from .errors import DegenerateFitError, DomainError, InsufficientDataError, NoConvergenceError
from .frechet import (
    FrechetParams,
    _centered,
    _normalized,
    _omega,
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
    "sample_stats",
]

_ALPHA_MIN = 2.0 + 1e-9
_ALPHA_MAX = 1e9
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


# _Moments.add merges a block of equal values with zero central sums where
# its mean exceeds this in magnitude.  Their deviations from the rounded mean
# are a few ulps of it (up to 5 seen), whose fourth powers, summed over a
# block of up to 2^15 values and taken about the mean, overflow from a mean
# of about 2.2e91 (seen for 32768 equal values); 2^300 (2e90) covers
# deviations of 8 ulps, and ordinary data never reaches it.
_EQUAL_BLOCK_MEAN = 2.0**300


class _Moments:
    """Count, mean and central sums M2, M3, M4 of blocks of values added in order.

    add() takes a block's mean and the sums of the second, third and fourth
    powers of its deviations from it, and merges them into the running ones
    by the pairwise update of Chan, Golub and LeVeque (1983) and Pebay
    (SAND2008-6212).  Every block but the last holds sampling_io._CHUNK
    values, so equal values in equal blocks give equal moments, whether the
    blocks are slices of one array or read from a file one at a time.  A
    block of equal values with a mean above _EQUAL_BLOCK_MEAN is merged with
    its value as the mean and zero sums, as its deviations could overflow.
    """

    def __init__(self):
        self.count = 0
        self.mean = self.m2 = self.m3 = self.m4 = 0.0
        self.finite = True  # no value added is a nan or an infinity

    def add(self, block, d, d2) -> None:
        """Merge in the float64 array `block`; d and d2, as long, are overwritten (d may be block)."""
        import numpy as np

        nb = block.size
        with np.errstate(over="ignore", invalid="ignore"):
            mb = float(block.mean())
            if not math.isfinite(mb) and self.finite:
                # a nan or an infinity makes the sum one; so does overflow
                self.finite = bool(np.isfinite(block).all())
            # tested on the block, which d may overwrite
            if not abs(mb) <= _EQUAL_BLOCK_MEAN and self.finite and block.min() == block.max():
                mb, m2b, m3b, m4b = float(block[0]), 0.0, 0.0, 0.0
            else:
                np.subtract(block, mb, out=d)
                e = float(d.sum()) / nb
                np.multiply(d, d, out=d2)
                s2 = float(d2.sum())
                s3 = float(np.multiply(d2, d, out=d).sum())
                d2 *= d2
                s4 = float(d2.sum())
                # the sums about the block's mean mb + e, from those about mb
                mb += e
                m2b = s2 - nb * e * e
                m3b = s3 - 3.0 * e * s2 + 2.0 * nb * e * e * e
                m4b = s4 - 4.0 * e * s3 + 6.0 * e * e * s2 - 3.0 * nb * e * e * e * e
        na = self.count
        if na == 0:
            self.count, self.mean, self.m2, self.m3, self.m4 = nb, mb, m2b, m3b, m4b
            return
        n = na + nb
        m2a, m3a = self.m2, self.m3
        delta = mb - self.mean
        dn = delta / n
        w = na * nb * delta * dn  # na nb delta^2 / n
        self.m4 += m4b + w * dn * dn * (na * na - na * nb + nb * nb) + 6.0 * dn * dn * (
            na * na * m2b + nb * nb * m2a) + 4.0 * dn * (na * m3b - nb * m3a)
        self.m3 += m3b + w * dn * (na - nb) + 3.0 * dn * (na * m2b - nb * m2a)
        self.m2 += m2b + w
        self.mean += nb * dn
        self.count = n

    def stats(self) -> SampleStats:
        n = self.count
        if n < 2:
            raise InsufficientDataError(f"need at least 2 values, got {n}")
        m2, m3, m4 = self.m2 / n, self.m3 / n, self.m4 / n
        if not (math.isfinite(m2) and math.isfinite(m3) and math.isfinite(m4)):
            if not self.finite:
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
        return SampleStats(count=n, mean=self.mean, variance=var, skewness=skew, excess_kurtosis=kurt)


def _moments(x) -> _Moments:
    """The 1-D float64 array x merged into _Moments one block of sampling_io._CHUNK values at a time."""
    # numpy takes most of the package's import time; only the sample moments here need it
    import numpy as np

    from .sampling_io import _CHUNK

    moments = _Moments()
    buffers = np.empty((2, min(x.size, _CHUNK)))
    for start in range(0, x.size, _CHUNK):
        block = x[start:start + _CHUNK]
        moments.add(block, *buffers[:, :block.size])
    return moments


def sample_stats(data: Sequence[float]) -> SampleStats:
    """Empirical moments; see SampleStats for the exact estimators.

    The values are merged into the moments one block of sampling_io._CHUNK
    values at a time (see _Moments): each block's mean, then its deviations
    from that mean and their second, third and fourth powers, formed in two
    buffers of a block that every block reuses.  sampling_io.file_stats
    reads a file in the same blocks, so it gives sample_stats(read_samples(f))
    bit for bit.  numpy is imported on the first call, so the estimators and
    the fit never load it.
    """
    import numpy as np

    return _moments(np.asarray(data, dtype=np.float64).reshape(-1)).stats()


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
    location = stats.mean - scale * _omega(alpha, 1)
    return FrechetParams(location, scale, alpha)
