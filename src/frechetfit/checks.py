"""Self-diagnostic suites behind the `check` CLI subcommand.

Each check recomputes a library quantity by an independent route (adaptive
quadrature of the defining integrals, truncation-order ratios, inverse
round trips) and reports the measured error against a fixed bound.  The
quadrature oracles are public because the test suite uses them too; they
never call the closed forms they validate.
"""

import math
from typing import NamedTuple, Optional, Sequence

from scipy.integrate import quad

from . import special_functions
from .errors import PrecisionLossError
from .frechet import (
    FrechetParams,
    FrechetShape,
    cdf,
    centered_moment,
    pdf,
    quantile,
    raw_moment,
)

__all__ = ["CheckResult", "run_checks", "quad_full", "raw_moment_quad", "centered_moment_quad"]

_QUAD_OPTS = dict(limit=400, epsabs=1e-12, epsrel=1e-10)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    measured: float
    bound: float


def quad_full(f) -> float:
    """Integral of f over (0, inf), split at 1 so QUADPACK handles the origin
    and the tail separately."""
    a, _ = quad(f, 0.0, 1.0, **_QUAD_OPTS)
    b, _ = quad(f, 1.0, math.inf, **_QUAD_OPTS)
    return a + b


def raw_moment_quad(alpha: float, k: int) -> float:
    """Quadrature of E[X^k]: substituting x = 1/s gives a smooth integrand."""
    return quad_full(lambda s: alpha * s ** (alpha - 1 - k) * math.exp(-(s**alpha)))


def centered_moment_quad(alpha: float, k: int) -> float:
    """Quadrature of E[(X - mu1)^k] under the same substitution, mu1 by quadrature too."""
    mu1 = raw_moment_quad(alpha, 1)
    return quad_full(
        lambda s: alpha * s ** (alpha - 1 - k) * (1.0 - mu1 * s) ** k * math.exp(-(s**alpha))
    )


def _check_normalization() -> CheckResult:
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0, 5.0, 10.0):
        for m, s in ((0.0, 1.0), (3.0, 2.0)):
            d = FrechetParams(m, s, alpha)
            total = quad_full(lambda y: pdf(d, m + y))
            worst = max(worst, abs(total - 1.0))
    return CheckResult("pdf-normalization", worst <= 1e-10, worst, 1e-10)


def _check_moment_oracle(alpha_grid: Sequence[float]) -> CheckResult:
    worst = 0.0
    for alpha in alpha_grid:
        shape = FrechetShape(alpha)
        for k in range(1, math.ceil(alpha)):
            ref = raw_moment_quad(alpha, k)
            worst = max(worst, abs(raw_moment(shape, k) - ref) / abs(ref))
            if k >= 2:
                try:
                    centered = centered_moment(shape, k)
                except PrecisionLossError:  # no answer to check, as `moments` prints `-`
                    continue
                ref = centered_moment_quad(alpha, k)
                worst = max(worst, abs(centered - ref) / abs(ref))
    return CheckResult("moment-oracle", worst <= 1e-7, worst, 1e-7)


def _check_laurent_order() -> CheckResult:
    # |expansion error| / z^3 must stay bounded as z -> 0.  Evaluated through
    # the recurrence Gamma(z) = Gamma(z+1)/z: the direct difference loses the
    # ~1e-12 signal at z = 1e-4 to the ulp of Gamma(z) ~ 1e4, while
    # z * gamma_laurent(z, 2) = gamma_plus_one_taylor(z, 3) holds exactly.
    ratios = [
        abs(special_functions.gamma_plus_one_taylor(z, 3) - math.gamma(1.0 + z)) / z**4
        for z in (1e-1, 1e-2, 1e-3, 1e-4)
    ]
    bound = 2.0 * ratios[0]
    worst = max(ratios)
    return CheckResult("laurent-remainder-order", worst <= bound, worst, bound)


def _check_round_trips() -> CheckResult:
    worst = 0.0
    for alpha in (0.5, 2.0, 5.0, 10.0):
        d = FrechetParams(0.0, 1.0, alpha)
        for p in (1e-6, 0.01, 0.5, 0.99, 1.0 - 1e-6):
            worst = max(worst, abs(cdf(d, quantile(d, p)) - p))
    return CheckResult("cdf-quantile-round-trip", worst <= 1e-12, worst, 1e-12)


def run_checks(alpha_grid: Optional[Sequence[float]] = None) -> list[CheckResult]:
    """Run every diagnostic; returns one result per check, in a fixed order."""
    grid = tuple(alpha_grid) if alpha_grid else (5.0, 8.0, 12.0)
    return [
        _check_normalization(),
        _check_moment_oracle(grid),
        _check_laurent_order(),
        _check_round_trips(),
    ]
