"""Frechet distribution: pdf/cdf/quantile and raw/centered/normalized moments.

Raw moments of the one-parameter form are Omega_k = Gamma(1 - k/alpha),
defined only for k < alpha.  A centered moment of order k (k = 2: the
variance) is one power series in u = 1/alpha for alpha >= 2k and the binomial
expansion in the Omega_p below; normalized ones need alpha > 2 as well.
"""

import functools
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


_TERMS = 64
# Cancellation in a table grows with its order (about 1e-6 at order 20) and it
# overflows float64 from order 92, so higher orders take the binomial sum.
_MAX_SERIES_ORDER = 20


@functools.lru_cache(maxsize=None)
def _series(k: int) -> tuple:
    """Coefficients of S_k(u) = E[(X/Omega_1 - 1)^k] / u^k in u = 1/alpha, highest first.

    Omega_j / Omega_1^j = exp(sum_{n>=2} zeta(n) (j^n - j) u^n / n) (DLMF 5.7.3),
    exponentiated by the J.C.P. Miller recurrence; the weights C(k,j) (-1)^(k-j)
    cancel every power below u^k exactly, so those are dropped, not summed.
    """
    top = k + _TERMS - 1
    zeta = ZETA + tuple(1.0 + 2.0**-n + 3.0**-n + 4.0**-n + 5.0**-n for n in range(21, top + 1))
    total = [0.0] * (top + 1)
    for j in range(2, k + 1):  # j = 0, 1 add only to the dropped u^0 term
        a = [0.0, 0.0] + [z * (j**n - j) / n for n, z in enumerate(zeta, start=2)]
        b = [1.0] + [0.0] * top
        for m in range(2, top + 1):
            b[m] = sum(i * a[i] * b[m - i] for i in range(2, m + 1)) / m
        for m in range(k, top + 1):
            total[m] += math.comb(k, j) * (-1) ** (k - j) * b[m]
    return tuple(reversed(total[k:]))


def _kernel(k: int, u: float) -> float:
    """S_k(u) for k u <= 1/2 (so at most 56 terms), summed over only the terms u needs."""
    s = 0.0
    for c in _series(k)[_TERMS - 2 - int(37.5 / -math.log(k * u)):]:
        s = s * u + c
    return s


def _centered(alpha: float, k: int) -> float:
    # below alpha = 2k the series converges slowly or not at all
    if alpha >= 2 * k and k <= _MAX_SERIES_ORDER:
        u = 1.0 / alpha
        return math.exp(k * log_gamma(1.0 - u)) * u**k * _kernel(k, u)
    omega1 = gamma(1.0 - 1.0 / alpha)
    total = 0.0
    for p in range(k + 1):
        omega_p = 1.0 if p == 0 else gamma(1.0 - p / alpha)
        term = math.comb(k, p) * omega1 ** (k - p) * omega_p
        total += term if (k - p) % 2 == 0 else -term
    return total


def raw_moment(d: FrechetShape, k: int) -> float:
    """k-th raw moment Omega_k = Gamma(1 - k/alpha); requires k < alpha."""
    if k < 1:
        raise DomainError(f"moment order must be >= 1, got {k!r}")
    if k >= d.alpha:
        raise UndefinedMomentError(
            f"raw moment of order {k} diverges for alpha = {d.alpha} (needs k < alpha)"
        )
    return gamma(1.0 - k / d.alpha)


def centered_moment(d: FrechetShape, k: int) -> float:
    """k-th centered moment: the series kernel for alpha >= 2k, else the binomial sum."""
    if k < 2:
        raise DomainError(f"centered moment order must be >= 2, got {k!r}")
    if k >= d.alpha:
        raise UndefinedMomentError(
            f"centered moment of order {k} diverges for alpha = {d.alpha}"
        )
    return _centered(d.alpha, k)


def shape_variance(alpha: float) -> float:
    """Omega_2 - Omega_1^2 for the one-parameter distribution (alpha > 2)."""
    if alpha <= 2.0:
        raise UndefinedMomentError(f"variance diverges for alpha = {alpha} <= 2")
    if not math.isfinite(alpha):
        raise DomainError(f"shape parameter must be finite, got {alpha!r}")
    return _centered(alpha, 2)


def variance(d: FrechetParams) -> float:
    """scale^2 * (Omega_2 - Omega_1^2); undefined for alpha <= 2."""
    return d.scale**2 * shape_variance(d.alpha)


def normalized_centered_moment(d: FrechetShape, k: int) -> float:
    """Centered moment of order k divided by variance^(k/2); S_k / S_2^(k/2) for alpha >= 2k."""
    if k < 2:
        raise DomainError(f"normalized moment order must be >= 2, got {k!r}")
    if d.alpha <= 2.0 or k >= d.alpha:
        raise UndefinedMomentError(
            f"normalized centered moment of order {k} undefined for alpha = {d.alpha}"
        )
    if d.alpha >= 2 * k and k <= _MAX_SERIES_ORDER:
        u = 1.0 / d.alpha
        return _kernel(k, u) / _kernel(2, u) ** (k / 2.0)
    return _centered(d.alpha, k) / shape_variance(d.alpha) ** (k / 2.0)


def skewness(d: FrechetShape) -> float:
    """Normalized third centered moment for alpha > 3, +inf otherwise."""
    if d.alpha <= 3.0:
        return math.inf
    return normalized_centered_moment(d, 3)


def excess_kurtosis(d: FrechetShape) -> float:
    """Kurtosis minus 3 for alpha > 4, +inf otherwise."""
    if d.alpha <= 4.0:
        return math.inf
    return normalized_centered_moment(d, 4) - 3.0


def moment_report(d: FrechetShape, k: int) -> MomentReport:
    """Build the raw/centered/normalized report for one order, never raising."""
    defined = k < d.alpha
    raw = gamma(1.0 - k / d.alpha) if defined else None
    centered = centered_moment(d, k) if defined and k >= 2 else None
    normalized = normalized_centered_moment(d, k) if centered is not None else None
    return MomentReport(order=k, raw=raw, centered=centered, normalized=normalized, defined=defined)
