"""Frechet distribution: pdf/cdf/quantile and raw/centered/normalized moments.

Raw moments of the one-parameter form are Omega_k = Gamma(1 - k/alpha),
defined only for k < alpha.  Centered moments come from the binomial
expansion in the Omega_k; normalized centered moments divide by
variance^(k/2) and additionally need alpha > 2.
"""

import math
from dataclasses import dataclass
from typing import Optional

from .errors import DomainError, UndefinedMomentError
from .special_functions import ZETA, gamma, log_gamma

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


@dataclass(frozen=True)
class FrechetShape:
    """One-parameter Frechet distribution, pdf alpha*x^(-alpha-1)*exp(-x^-alpha)."""

    alpha: float

    def __post_init__(self):
        if not (self.alpha > 0.0) or not math.isfinite(self.alpha):
            raise DomainError(f"shape parameter must be > 0, got {self.alpha!r}")


@dataclass(frozen=True)
class FrechetParams:
    """Location-scale Frechet distribution with support (location, inf)."""

    location: float
    scale: float
    alpha: float

    def __post_init__(self):
        if not math.isfinite(self.location):
            raise DomainError(f"location must be finite, got {self.location!r}")
        if not (self.scale > 0.0) or not math.isfinite(self.scale):
            raise DomainError(f"scale must be > 0, got {self.scale!r}")
        if not (self.alpha > 0.0) or not math.isfinite(self.alpha):
            raise DomainError(f"shape parameter must be > 0, got {self.alpha!r}")

    @property
    def shape(self) -> FrechetShape:
        return FrechetShape(self.alpha)


@dataclass(frozen=True)
class MomentReport:
    """Moments of one order: raw, centered, normalized, with definedness flag.

    `raw`/`centered` are None when k >= alpha; `normalized` additionally
    requires alpha > 2 (and is None for k = 1, where it is not defined).
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
    return (d.alpha / d.scale) * y ** (-1.0 - d.alpha) * math.exp(-(y**-d.alpha))


def cdf(d: FrechetParams, x: float) -> float:
    """exp(-((x-m)/s)^-alpha) above the location, 0 otherwise."""
    if x <= d.location:
        return 0.0
    y = (x - d.location) / d.scale
    return math.exp(-(y**-d.alpha))


def quantile(d: FrechetParams, p: float) -> float:
    """Inverse cdf: m + s*(-ln p)^(-1/alpha) for p in (0, 1)."""
    if not (0.0 < p < 1.0):
        raise DomainError(f"quantile requires 0 < p < 1, got {p!r}")
    return d.location + d.scale * (-math.log(p)) ** (-1.0 / d.alpha)


def _omega(alpha: float, k: int) -> float:
    # Omega_k = Gamma(1 - k/alpha).  Route through exp(lgamma) when the
    # argument is comfortably positive: near 1 the log form avoids losing
    # accuracy once these near-unit values get differenced at large alpha.
    z = 1.0 - k / alpha
    if z > 0.5:
        return math.exp(log_gamma(z))
    return gamma(z)


def raw_moment(d: FrechetShape, k: int) -> float:
    """k-th raw moment Omega_k = Gamma(1 - k/alpha); requires k < alpha."""
    if k < 1:
        raise DomainError(f"moment order must be >= 1, got {k!r}")
    if k >= d.alpha:
        raise UndefinedMomentError(
            f"raw moment of order {k} diverges for alpha = {d.alpha} (needs k < alpha)"
        )
    return _omega(d.alpha, k)


def centered_moment(d: FrechetShape, k: int) -> float:
    """k-th centered moment via the binomial expansion in the raw moments."""
    if k < 2:
        raise DomainError(f"centered moment order must be >= 2, got {k!r}")
    if k >= d.alpha:
        raise UndefinedMomentError(
            f"centered moment of order {k} diverges for alpha = {d.alpha}"
        )
    if k == 2:
        return shape_variance(d.alpha)
    omega1 = _omega(d.alpha, 1)
    total = 0.0
    for p in range(k + 1):
        omega_p = 1.0 if p == 0 else _omega(d.alpha, p)
        term = math.comb(k, p) * omega1 ** (k - p) * omega_p
        total += term if (k - p) % 2 == 0 else -term
    return total


# ln Omega_2 - 2 ln Omega_1 = sum_{n>=2} zeta(n) (2^n - 2) u^n / n in u = 1/alpha:
# the Euler-gamma terms of the two pole series cancel exactly and every term
# left is positive.  Highest power first, for Horner.
_LOG_VARIANCE_RATIO = tuple(
    z * (2**n - 2) / n for n, z in reversed(list(enumerate(ZETA, start=2)))
)


def shape_variance(alpha: float) -> float:
    """Omega_2 - Omega_1^2 for the one-parameter distribution (alpha > 2)."""
    if alpha <= 2.0:
        raise UndefinedMomentError(f"variance diverges for alpha = {alpha} <= 2")
    if alpha >= 20.0:
        # Omega_1^2 * expm1(ln Omega_2 - 2 ln Omega_1), the exponent summed
        # without cancellation; the first omitted term is below 1e-20 of it.
        u = 1.0 / alpha
        series = 0.0
        for c in _LOG_VARIANCE_RATIO:
            series = series * u + c
        return math.exp(2.0 * log_gamma(1.0 - u)) * math.expm1(series * u * u)
    return _omega(alpha, 2) - _omega(alpha, 1) ** 2


def variance(d: FrechetParams) -> float:
    """scale^2 * (Omega_2 - Omega_1^2); undefined for alpha <= 2."""
    return d.scale**2 * shape_variance(d.alpha)


def normalized_centered_moment(d: FrechetShape, k: int) -> float:
    """Centered moment of order k divided by variance^(k/2)."""
    if k < 2:
        raise DomainError(f"normalized moment order must be >= 2, got {k!r}")
    if d.alpha <= 2.0 or k >= d.alpha:
        raise UndefinedMomentError(
            f"normalized centered moment of order {k} undefined for alpha = {d.alpha}"
        )
    return centered_moment(d, k) / shape_variance(d.alpha) ** (k / 2.0)


def skewness(d: FrechetShape) -> float:
    """Normalized third centered moment for alpha > 3, +inf otherwise."""
    if d.alpha <= 3.0:
        return math.inf
    if d.alpha > 50.0:
        # binomial expansion loses all digits once the Omega_k cluster at 1;
        # factoring out Omega_1^3 gives an expm1 form that stays accurate
        # (same reasoning as the stabilized variance)
        l1 = log_gamma(1.0 - 1.0 / d.alpha)
        a = log_gamma(1.0 - 3.0 / d.alpha) - 3.0 * l1
        b = log_gamma(1.0 - 2.0 / d.alpha) - 2.0 * l1
        return (math.expm1(a) - 3.0 * math.expm1(b)) / math.expm1(b) ** 1.5
    return normalized_centered_moment(d, 3)


def excess_kurtosis(d: FrechetShape) -> float:
    """Kurtosis minus 3 for alpha > 4, +inf otherwise."""
    if d.alpha <= 4.0:
        return math.inf
    o1 = _omega(d.alpha, 1)
    o2 = _omega(d.alpha, 2)
    o3 = _omega(d.alpha, 3)
    o4 = _omega(d.alpha, 4)
    return -6.0 + (o4 - 4.0 * o3 * o1 + 3.0 * o2**2) / shape_variance(d.alpha) ** 2


def moment_report(d: FrechetShape, k: int) -> MomentReport:
    """Build the raw/centered/normalized report for one order, never raising."""
    defined = k < d.alpha
    raw = _omega(d.alpha, k) if defined else None
    centered = centered_moment(d, k) if defined and k >= 2 else None
    normalized = None
    if defined and k >= 2 and d.alpha > 2.0:
        normalized = normalized_centered_moment(d, k)
    return MomentReport(order=k, raw=raw, centered=centered, normalized=normalized, defined=defined)
