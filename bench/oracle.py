"""mpmath references for the solve_grid accuracy metrics.

Every reference is computed at two working precisions; `references` raises
OracleError unless the two agree to AGREE_REL at every grid point, so a
reference that has itself lost digits can never pass or fail the program.
"""

import mpmath

LOW_DPS = 60
HIGH_DPS = 120
AGREE_REL = 1e-20


class OracleError(RuntimeError):
    """The two precisions disagree: the reference cannot be trusted."""


def _point(alpha, dps):
    with mpmath.workdps(dps):
        a = mpmath.mpf(alpha)
        om = {k: mpmath.gamma(1 - k / a) for k in range(1, 5) if k < a}
        o1, o2 = om[1], om[2]
        var = o2 - o1**2
        out = {"mean": o1, "shape_variance": var}
        if 3 in om:
            mu3 = om[3] - 3 * o2 * o1 + 2 * o1**3
            out["centered_moment_3"] = mu3
            out["skewness"] = mu3 / var**1.5
        if 4 in om:
            mu4 = om[4] - 4 * om[3] * o1 + 6 * o2 * o1**2 - 3 * o1**4
            out["centered_moment_4"] = mu4
            out["excess_kurtosis"] = mu4 / var**2 - 3
        return out


def references(alphas):
    """Map each alpha (> 2) to {quantity: float}, self-checked at two precisions."""
    table = {}
    for alpha in alphas:
        low, high = _point(alpha, LOW_DPS), _point(alpha, HIGH_DPS)
        with mpmath.workdps(HIGH_DPS):
            for name, ref in high.items():
                if abs(low[name] - ref) > AGREE_REL * abs(ref):
                    raise OracleError(
                        f"{name} at alpha={alpha!r}: dps {LOW_DPS} and {HIGH_DPS} "
                        f"differ by more than {AGREE_REL:g} relative"
                    )
        table[alpha] = {name: float(ref) for name, ref in high.items()}
    return table
