"""Self-diagnostic suites behind the `check` CLI subcommand.

Each check recomputes a library quantity by an independent route (exp-sinh
quadrature of the defining integrals, truncation-order ratios, inverse
round trips) and reports the measured error against a fixed bound.  The
quadrature oracles are public because the test suite uses them too; they
never call the closed forms they validate.
"""

import math
from typing import NamedTuple, Optional, Sequence

from . import special_functions
from .frechet import FrechetParams, FrechetShape, cdf, moment_report, pdf, quantile

__all__ = ["CheckResult", "run_checks", "quad_full", "raw_moment_quad", "centered_moment_quad"]

class CheckResult(NamedTuple):
    name: str
    passed: bool
    measured: float
    bound: float


def quad_full(f) -> float:
    """Integral of f over (0, inf) by the exp-sinh rule of Takahasi and Mori
    (Publ. RIMS 9, 1974).

    x = exp(pi/2 sinh t) maps (0, inf) onto the real line, where the integrand
    f(x) x pi/2 cosh t decays double-exponentially at both ends; the trapezoid
    rule on |t| <= 6 halves its step, reusing the points it has, until two
    levels agree to 1e-12 relative.
    """
    def term(t: float) -> float:
        x = math.exp(0.5 * math.pi * math.sinh(t))
        try:
            return f(x) * x * math.cosh(t)
        except OverflowError:  # powers and exponentials overflow only where the integrand underflows
            return 0.0

    h, terms = 1.0, [term(float(t)) for t in range(-6, 7)]
    total = math.fsum(terms)
    while h > 2.0**-10:  # every integrand of `check` converges by h = 2**-7
        h /= 2.0
        n = round(6.0 / h)
        terms += [term(j * h) for j in range(1 - n, n, 2)]
        previous, total = total, h * math.fsum(terms)
        if abs(total - previous) <= 1e-12 * abs(total):
            break
    return 0.5 * math.pi * total


def raw_moment_quad(alpha: float, k: int) -> float:
    """Quadrature of E[X^k]; see `_moment_quad`."""
    return _moment_quad(alpha, k, -1.0)


def centered_moment_quad(alpha: float, k: int) -> float:
    """Quadrature of E[(X - mu1)^k], mu1 - 1 by quadrature too; see `_moment_quad`."""
    return _moment_quad(alpha, k, _moment_quad(alpha, 1, 0.0))


def _moment_quad(alpha: float, k: int, d: float) -> float:
    """E[(X - c)^k], c = 1 + d, for the standard Frechet law, by quadrature.

    X = z^(-1/alpha) with z a unit exponential, so this is the integral of
    (x - c)^k exp(-z) over z > 0.  Just above alpha = k its z^(-k/alpha) at
    z = 0 leaves mass beyond the nodes, so it is integrated by parts:
    1/(alpha-k) times the integral of (x - c)^(k-1) (k c + alpha z (x - c))
    exp(-z), which spans a few units of ln z at every alpha.  Per unit of
    ln z that integrand falls off towards z = 0 as z^((alpha-k+1)/alpha)
    (faster than z for c = 0, where the k c term drops), slowly where k is
    near alpha; so it is integrated in w = z^(1/m), whose nodes reach
    ln z = -317 m, m the least integer that takes that fall-off past e^-40.
    x - c is taken as expm1(-ln(z)/alpha) - d, which keeps its digits where
    x and c are both near 1 (large alpha), and (x - c)^(k-1) z as
    (s (x - c))^(k-1) s^(alpha-k+1), s = 1/x, which stays finite where
    x^(k-1) overflows.
    """
    c = 1.0 + d
    m = math.ceil(40.0 * alpha / (317.0 * (alpha - k + 1))) if c else 1

    def f(w: float) -> float:
        ln_z = m * math.log(w)
        z = math.exp(ln_z)
        e = math.exp(-z)
        if e == 0.0:  # the polynomial factors may overflow where e underflows
            return 0.0
        dev = math.expm1(-ln_z / alpha) - d
        s = math.exp(ln_z / alpha)
        power = (s * dev) ** (k - 1) * math.exp(ln_z * (alpha - k + 1) / alpha)
        return m * power * (k * c + alpha * z * dev) * e / w

    return quad_full(f) / (alpha - k)


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
            report = moment_report(shape, k)
            ref = raw_moment_quad(alpha, k)
            worst = max(worst, abs(report.raw - ref) / abs(ref))
            if report.centered is not None:  # None where `moments` prints `-`: nothing to check
                ref = centered_moment_quad(alpha, k)
                worst = max(worst, abs(report.centered - ref) / abs(ref))
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
