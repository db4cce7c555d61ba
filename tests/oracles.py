"""Independent constant oracles for the test suite.

The constants come from Euler-Maclaurin series acceleration, not from the
literals they validate.  The quadrature oracles for moments live in
frechetfit.checks, which the `check` subcommand shares.
"""

import math


def euler_gamma_series(n: int = 100) -> float:
    """Euler-Mascheroni constant by Euler-Maclaurin acceleration of H_n - ln n."""
    h = sum(1.0 / k for k in range(1, n + 1))
    return h - math.log(n) - 1 / (2 * n) + 1 / (12 * n**2) - 1 / (120 * n**4) + 1 / (252 * n**6)


def zeta3_series(n: int = 200) -> float:
    """Apery constant by Euler-Maclaurin acceleration of sum 1/k^3."""
    partial = sum(k**-3 for k in range(1, n))
    return partial + 1 / (2 * n**2) + 1 / (2 * n**3) + 1 / (4 * n**4) - 1 / (12 * n**6)


def zeta2_series(n: int = 200) -> float:
    """zeta(2) = pi^2/6 by Euler-Maclaurin acceleration of sum 1/k^2."""
    partial = sum(k**-2 for k in range(1, n))
    return partial + 1 / n + 1 / (2 * n**2) + 1 / (6 * n**3) - 1 / (30 * n**5)
