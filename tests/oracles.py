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


def _moments_at(alpha: float, k: int, dps: int) -> tuple:
    """Omega_k, mu_k and mu_k / mu_2^(k/2) at alpha, as mpmath numbers of dps digits."""
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        omega = [mp.gamma(1 - p / a) for p in range(k + 1)]

        def mu(q):
            return mp.fsum(mp.binomial(q, p) * (-omega[1]) ** (q - p) * omega[p] for p in range(q + 1))

        centered = mu(k)
        return omega[k], centered, centered / mu(2) ** (mp.mpf(k) / 2)


def frechet_moments(alpha: float, k: int) -> tuple[float, float, float]:
    """Raw, centered and normalized moments of order k of the one-parameter law, in mpmath.

    Omega_k = Gamma(1 - k/alpha), the binomial sum
    mu_k = sum_p C(k, p) (-Omega_1)^(k-p) Omega_p and mu_k / mu_2^(k/2), for
    2 <= k < alpha and alpha > 2, each rounded once to a float.  The sum
    cancels about k log10(alpha) digits at large alpha, and more next to
    alpha = k, so it is taken at max(60 + k, k log10(alpha) + 50) digits and
    checked against a second evaluation 20 digits higher: the two must
    agree to 1e-20 relative, or AssertionError is raised.
    """
    dps = max(60 + k, int(k * math.log10(alpha)) + 50)
    low, high = _moments_at(alpha, k, dps), _moments_at(alpha, k, dps + 20)
    with mp.workdps(dps + 20):
        for name, x, y in zip(("raw", "centered", "normalized"), low, high):
            assert abs(x - y) <= mp.mpf("1e-20") * abs(y), (
                f"{name} moment of order {k} at alpha = {alpha!r}: {dps} digits give {x}, {dps + 20} give {y}"
            )
    return float(low[0]), float(low[1]), float(low[2])
