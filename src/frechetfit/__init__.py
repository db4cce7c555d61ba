"""Frechet extreme-value distribution moments and shape-parameter inference.

The package re-exports the `__all__` of each of its modules, and its own
`__all__` is theirs joined.  The moments, estimators and fit are plain float
arithmetic and import only the standard library.  The sample layer
(sampling_io) needs numpy, so it is imported on first use of one of its names.
"""

import importlib

__version__ = "0.1.0"

from . import errors, estimation, frechet, special_functions
from .errors import *  # noqa: F403
from .estimation import *  # noqa: F403
from .frechet import *  # noqa: F403
from .special_functions import *  # noqa: F403

# sampling_io.__all__, readable here without importing numpy
_SAMPLING_IO_NAMES = ("SamplerConfig", "sample", "read_samples", "file_stats", "write_samples", "sample_stats")

__all__ = [
    "__version__",
    *errors.__all__,
    *special_functions.__all__,
    *frechet.__all__,
    *estimation.__all__,
    *_SAMPLING_IO_NAMES,
]


def __getattr__(name):
    # numpy takes most of the package's import time and only the sample layer uses it
    if name == "sampling_io" or name in _SAMPLING_IO_NAMES:
        module = importlib.import_module(".sampling_io", __name__)
        return module if name == "sampling_io" else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
