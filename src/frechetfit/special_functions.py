"""Gamma function, its logarithm, and truncated expansions around the pole at 0.

The expansion coefficients are built from three constants (Euler-Mascheroni
gamma, pi^2/6 = zeta(2), and the Apery constant zeta(3)) stored as fixed
decimal literals; the test suite recomputes them by series acceleration.
ZETA carries zeta(2)..zeta(20) for the full series
ln Gamma(1-t) = gamma*t + sum_{n>=2} zeta(n) t^n / n (DLMF 5.7.3).
"""

import math
from typing import NamedTuple

from .errors import DomainError, GammaRangeError, PoleError

__all__ = [
    "MathConstants",
    "LaurentCoefficients",
    "CONSTANTS",
    "LAURENT",
    "gamma",
    "log_gamma",
    "gamma_laurent",
    "gamma_plus_one_taylor",
]

_EULER_GAMMA = 0.57721566490153286
_PI_SQ_OVER_6 = 1.6449340668482264
_APERY = 1.2020569031595943

# zeta(2), zeta(3), ..., zeta(20)
ZETA = (
    _PI_SQ_OVER_6,
    _APERY,
    1.0823232337111381,
    1.03692775514337,
    1.0173430619844492,
    1.008349277381923,
    1.0040773561979444,
    1.0020083928260821,
    1.000994575127818,
    1.0004941886041194,
    1.000246086553308,
    1.0001227133475785,
    1.0000612481350588,
    1.000030588236307,
    1.0000152822594086,
    1.0000076371976379,
    1.000003817293265,
    1.0000019082127165,
    1.0000009539620338,
)

class MathConstants(NamedTuple):
    """The three constants entering the expansion coefficients."""

    euler_gamma: float = _EULER_GAMMA
    pi_sq_over_6: float = _PI_SQ_OVER_6
    apery: float = _APERY


class LaurentCoefficients(NamedTuple):
    """Coefficients of Gamma(z) = c_minus1/z + c0 + c1*z + c2*z^2 + O(z^3)."""

    c_minus1: float = 1.0
    c0: float = -_EULER_GAMMA
    c1: float = (_EULER_GAMMA**2 + _PI_SQ_OVER_6) / 2.0
    c2: float = -(_EULER_GAMMA**3 + _EULER_GAMMA * math.pi**2 / 2.0 + 2.0 * _APERY) / 6.0


CONSTANTS = MathConstants()
LAURENT = LaurentCoefficients()


def gamma(z: float) -> float:
    """Gamma function for real arguments.

    math.gamma for z > 0 and, by one recurrence step Gamma(z) = Gamma(z+1)/z,
    z in (-1, 0).  Where the result overflows float64, z above
    171.62437695630272 or within about 5.6e-309 of 0, it raises
    GammaRangeError; a pole, z <= -1 or a non-finite z raises DomainError.
    """
    if 0.0 < z < math.inf:
        try:
            return math.gamma(z)
        except OverflowError:
            pass
    elif -1.0 < z < 0.0:
        g = math.gamma(z + 1.0) / z
        if g != -math.inf:
            return g
    elif not math.isfinite(z):
        raise DomainError(f"gamma requires a finite argument, got {z!r}")
    elif z == math.floor(z):
        raise PoleError(f"gamma has a pole at z = {z}")
    else:
        raise DomainError(f"gamma not supported for z <= -1, got {z}")
    raise GammaRangeError(f"gamma({z}) overflows 64-bit floating point")


def log_gamma(z: float) -> float:
    """Natural log of Gamma(z) for z > 0; stable where gamma would overflow.

    math.lgamma, finite up to about 2.6e305; above that it raises
    GammaRangeError.  z <= 0 or a non-finite z raises DomainError.
    """
    if 0.0 < z < math.inf:
        try:
            return math.lgamma(z)
        except OverflowError:
            raise GammaRangeError(f"log_gamma({z}) overflows 64-bit floating point") from None
    raise DomainError(f"log_gamma requires z > 0, got {z!r}")


def gamma_laurent(z: float, order: int = 2) -> float:
    """Truncated expansion of Gamma(z) around its pole at z = 0.

    order=1 keeps terms through z, order=2 through z^2.  Accuracy is only
    meaningful for |z| < 1; the remainder is O(z^(order+1)).  A non-finite
    z raises DomainError, and a value beyond float64 GammaRangeError.
    """
    if order not in (1, 2):
        raise DomainError(f"order must be 1 or 2, got {order!r}")
    if not math.isfinite(z):
        raise DomainError(f"gamma_laurent requires a finite argument, got {z!r}")
    if z == 0.0:
        raise DomainError("gamma_laurent is singular at z = 0")
    c = LAURENT
    result = c.c_minus1 / z + c.c0 + c.c1 * z
    if order == 2:
        result += c.c2 * z * z
    if not math.isfinite(result):
        raise GammaRangeError(f"gamma_laurent({z}) overflows 64-bit floating point")
    return result


def gamma_plus_one_taylor(z: float, order: int = 3) -> float:
    """Taylor polynomial of Gamma(z+1) about z = 0, truncated after z^order.

    Follows from z*Gamma(z) applied to the pole expansion, so the
    coefficients are 1, -gamma, c1, c2 in increasing powers.  A non-finite
    z raises DomainError, and a value beyond float64 GammaRangeError.
    """
    if order not in (2, 3):
        raise DomainError(f"order must be 2 or 3, got {order!r}")
    if not math.isfinite(z):
        raise DomainError(f"gamma_plus_one_taylor requires a finite argument, got {z!r}")
    c = LAURENT
    result = c.c_minus1 + c.c0 * z + c.c1 * z * z
    if order == 3:
        result += c.c2 * z * z * z
    if not math.isfinite(result):
        raise GammaRangeError(f"gamma_plus_one_taylor({z}) overflows 64-bit floating point")
    return result
