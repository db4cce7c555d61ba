"""Independent oracles for the test suite.

The constants come from Euler-Maclaurin series acceleration, not from the
literals they validate.  The moments come from mpmath (frechet_moments);
the quadrature oracles for moments live in frechetfit.checks, which the
`check` subcommand shares.
"""

import math

import mpmath as mp


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


def frechet_moments(alpha: float, k: int) -> tuple[float, float, float]:
    """Raw, centered and normalized moments of order k of the one-parameter law, in mpmath.

    Omega_k = Gamma(1 - k/alpha), the binomial sum
    mu_k = sum_p C(k, p) (-Omega_1)^(k-p) Omega_p and mu_k / mu_2^(k/2), for
    2 <= k < alpha and alpha > 2, each rounded once to a float.  The sum
    cancels about k log10(alpha) digits at large alpha, and more next to
    alpha = k, so it is taken at max(60 + 9k, k log10(alpha) + 50) digits.
    """
    with mp.workdps(max(60 + 9 * k, int(k * math.log10(alpha)) + 50)):
        a = mp.mpf(alpha)
        omega = [mp.gamma(1 - p / a) for p in range(k + 1)]

        def mu(q):
            return mp.fsum(mp.binomial(q, p) * (-omega[1]) ** (q - p) * omega[p] for p in range(q + 1))

        centered = mu(k)
        return float(omega[k]), float(centered), float(centered / mu(2) ** (mp.mpf(k) / 2))
