"""Frechet extreme-value distribution moments and shape-parameter inference.

The moments, estimators and fit are plain float arithmetic and import only
the standard library.  The sample layer (SamplerConfig, sample, read_samples,
file_stats, write_samples, sample_stats) needs numpy, so it is imported on
first use of one of its names.
"""

import importlib

__version__ = "0.1.0"

from .errors import (
    DegenerateFitError,
    DomainError,
    EmptyInputError,
    FrechetFitError,
    GammaRangeError,
    InsufficientDataError,
    NoConvergenceError,
    ParseError,
    PoleError,
    PrecisionLossError,
    UndefinedMomentError,
)
from .estimation import (
    CubicCoefficients,
    EstimateResult,
    Method,
    SampleStats,
    alpha_exact,
    alpha_order1,
    alpha_order2,
    fit_location_scale,
)
from .frechet import (
    FrechetParams,
    FrechetShape,
    MomentReport,
    cdf,
    centered_moment,
    excess_kurtosis,
    moment_report,
    normalized_centered_moment,
    pdf,
    quantile,
    raw_moment,
    shape_variance,
    skewness,
    variance,
)
from .special_functions import (
    CONSTANTS,
    LAURENT,
    LaurentCoefficients,
    MathConstants,
    gamma,
    gamma_laurent,
    gamma_plus_one_taylor,
    log_gamma,
)

__all__ = [
    "__version__",
    "FrechetFitError", "DomainError", "PoleError", "GammaRangeError",
    "UndefinedMomentError", "NoConvergenceError", "DegenerateFitError",
    "InsufficientDataError", "ParseError", "EmptyInputError", "PrecisionLossError",
    "MathConstants", "LaurentCoefficients", "CONSTANTS", "LAURENT",
    "gamma", "log_gamma", "gamma_laurent", "gamma_plus_one_taylor",
    "FrechetShape", "FrechetParams", "MomentReport",
    "pdf", "cdf", "quantile", "raw_moment", "centered_moment",
    "normalized_centered_moment", "skewness", "excess_kurtosis",
    "variance", "shape_variance", "moment_report",
    "Method", "EstimateResult", "CubicCoefficients", "SampleStats",
    "alpha_order1", "alpha_order2", "alpha_exact",
    "fit_location_scale", "sample_stats",
    "SamplerConfig", "sample", "read_samples", "file_stats", "write_samples",
]

_SAMPLING_IO_NAMES = {
    "SamplerConfig", "sample", "read_samples", "file_stats", "write_samples", "sample_stats",
}


def __getattr__(name):
    # numpy takes most of the package's import time and only the sample layer uses it
    if name == "sampling_io" or name in _SAMPLING_IO_NAMES:
        module = importlib.import_module(".sampling_io", __name__)
        return module if name == "sampling_io" else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
