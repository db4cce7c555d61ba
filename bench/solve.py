"""The solve_grid operation: every solver and moment call over a log grid of alpha.

The grid is fixed (it does not depend on the seed), so the accuracy shares
repeat exactly from run to run; the seed only permutes the order of the
points in a pass.  Nothing here imports frechetfit at module level: callers
pass a `library` namespace, which the traced run fills with wrapped functions.
"""

import math
import random
from types import SimpleNamespace

GRID_POINTS = 400
ALPHA_MIN = 2.01
ALPHA_MAX = 1e8
FIT_COUNT = 10**6  # sample size handed to fit_location_scale with exact moments

MOMENT_REL = 1e-12  # the moment-kernel accuracy gate
ROUNDTRIP_REL = 1e-8  # exact solver round trip, as in the acceptance suite
FIT_REL = 1e-6

MOMENT_QUANTITIES = (
    "shape_variance",
    "skewness",
    "excess_kurtosis",
    "centered_moment_3",
    "centered_moment_4",
)

LIBRARY_FUNCTIONS = {
    "frechet": ("shape_variance", "moment_report", "skewness", "excess_kurtosis"),
    "estimation": ("alpha_order1", "alpha_order2", "alpha_exact", "fit_location_scale"),
    "special_functions": ("gamma", "log_gamma"),
}


def grid():
    """GRID_POINTS log-spaced alphas from ALPHA_MIN to exactly ALPHA_MAX."""
    ratio = ALPHA_MAX / ALPHA_MIN
    points = [ALPHA_MIN * ratio ** (i / (GRID_POINTS - 1)) for i in range(GRID_POINTS)]
    points[-1] = ALPHA_MAX
    return points


def seeded_order(alphas, seed):
    order = list(alphas)
    random.Random(seed).shuffle(order)
    return order


def library(frechetfit, wrap=None):
    """Namespace of the public functions a pass calls, optionally wrapped as `wrap(name, fn)`."""
    ns = {"FrechetShape": frechetfit.FrechetShape, "SampleStats": frechetfit.SampleStats}
    for module, names in LIBRARY_FUNCTIONS.items():
        for name in names:
            fn = getattr(getattr(frechetfit, module), name)
            ns[name] = wrap(f"{module}.{name}", fn) if wrap else fn
    return SimpleNamespace(**ns)


def fit_inputs(oracle_table, alphas):
    """Exact population (mean, variance, skewness, excess kurtosis) for each alpha > 3.

    At alpha in (3, 4] the excess kurtosis is infinite; the fit does not use it.
    """
    out = {}
    for a in alphas:
        ref = oracle_table[a]
        if a > 3.0:
            out[a] = (ref["mean"], ref["shape_variance"], ref["skewness"],
                      ref.get("excess_kurtosis", math.inf))
    return out


class Raised:
    """Stands in for a result when the call raised."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return f"Raised({self.name})"


def _call(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # a known defect must be counted, never crash the run
        return Raised(type(exc).__name__)


def evaluate(lib, alpha, fit_moments):
    """All solve_grid calls for one alpha, as a tuple of results (or Raised)."""
    shape = lib.FrechetShape(alpha)
    v = _call(lib.shape_variance, alpha)
    estimates = tuple(
        _call(fn, v) for fn in (lib.alpha_order1, lib.alpha_order2, lib.alpha_exact)
    )
    reports = tuple(_call(lib.moment_report, shape, k) for k in range(1, 5))
    skew = _call(lib.skewness, shape)
    kurt = _call(lib.excess_kurtosis, shape)
    kernels = tuple(
        (_call(lib.gamma, 1.0 - k / alpha), _call(lib.log_gamma, 1.0 - k / alpha))
        for k in range(1, 5)
        if k < alpha
    )
    fit = None
    if fit_moments is not None:
        mean, var, sk, ku = fit_moments
        fit = _call(lib.fit_location_scale, lib.SampleStats(FIT_COUNT, mean, var, sk, ku))
    return (v, estimates, reports, skew, kurt, kernels, fit)


def run_pass(lib, order, fits):
    """One solve_grid operation: evaluate every alpha of `order`; returns {alpha: results}."""
    return {a: evaluate(lib, a, fits.get(a)) for a in order}


def _real(x):
    return isinstance(x, (float, int)) and not isinstance(x, bool) and math.isfinite(x)


def _report_ok(r):
    if isinstance(r, Raised):
        return False
    if not r.defined:
        return r.raw is None and r.centered is None and r.normalized is None
    if not _real(r.raw):
        return False
    if r.order == 1:
        return r.centered is None and r.normalized is None
    return _real(r.centered) and _real(r.normalized)


def _limit_ok(x, alpha, threshold):
    # skewness and excess kurtosis are +inf at or below their existence threshold
    return x == math.inf if alpha <= threshold else _real(x)


def call_checks(alpha, results):
    """One bool per call: it neither raised nor returned a non-real, non-finite or
    impossible value (a non-positive variance)."""
    v, estimates, reports, skew, kurt, kernels, fit = results
    checks = [_real(v) and v > 0.0]
    checks += [not isinstance(e, Raised) and _real(e.alpha) and e.alpha > 0.0 for e in estimates]
    checks += [_report_ok(r) for r in reports]
    checks += [_limit_ok(skew, alpha, 3.0), _limit_ok(kurt, alpha, 4.0)]
    checks += [_real(g) for pair in kernels for g in pair]
    if fit is not None:
        checks.append(
            not isinstance(fit, Raised) and all(_real(p) for p in (fit.location, fit.scale, fit.alpha))
        )
    return checks


def _rel_ok(x, ref, tol):
    return _real(x) and abs(x - ref) <= tol * abs(ref)


def accuracy(results, oracle_table):
    """Shares within tolerance of the references, plus their counts.

    Returns {metric: (ok, total)} for moment_ok_frac, roundtrip_ok_frac,
    fit_ok_frac and, for the report, each moment quantity on its own.
    """
    per_quantity = {q: [0, 0] for q in MOMENT_QUANTITIES}
    roundtrip = [0, 0]
    fit_ok = [0, 0]
    for alpha in sorted(results):
        v, estimates, reports, skew, kurt, _, fit = results[alpha]
        ref = oracle_table[alpha]
        centered = {k: (None if isinstance(reports[k - 1], Raised) else reports[k - 1].centered)
                    for k in (3, 4)}
        got = {"shape_variance": v, "skewness": skew, "excess_kurtosis": kurt,
               "centered_moment_3": centered[3], "centered_moment_4": centered[4]}
        for q, counts in per_quantity.items():
            if q in ref:
                counts[0] += _rel_ok(got[q], ref[q], MOMENT_REL)
                counts[1] += 1
        exact = estimates[2]
        roundtrip[0] += not isinstance(exact, Raised) and _rel_ok(exact.alpha, alpha, ROUNDTRIP_REL)
        roundtrip[1] += 1
        if fit is not None:
            fit_ok[0] += not isinstance(fit, Raised) and _rel_ok(fit.alpha, alpha, FIT_REL)
            fit_ok[1] += 1
    out = {
        "moment_ok_frac": (sum(c[0] for c in per_quantity.values()),
                           sum(c[1] for c in per_quantity.values())),
        "roundtrip_ok_frac": tuple(roundtrip),
        "fit_ok_frac": tuple(fit_ok),
    }
    out.update({f"moment_ok_frac.{q}": tuple(c) for q, c in per_quantity.items()})
    return out


def exact_iterations(results):
    """Mean bisection steps of alpha_exact over the grid points where it returned."""
    its = [r[1][2].iterations for r in results.values() if not isinstance(r[1][2], Raised)]
    return sum(its) / len(its)
