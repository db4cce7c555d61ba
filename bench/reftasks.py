"""Reference tasks: the fixed yardstick every timed operation is divided by.

Each task does the same kind of work as one benchmark operation -- importing
numpy and scipy, parsing or formatting text line by line, Python-level float
math in bisection loops -- but imports nothing from frechetfit, so no change
to the program can move it.  The benchmark runs the task just before and just
after each timed operation (A-B-A) and reports the operation's time divided by
the mean of the two.  A host that slows down for a while slows both.

Run as a script (the form the CLI workloads use, one fresh interpreter each):

    python3 bench/reftasks.py import
    python3 bench/reftasks.py ingest FILE LINES
    python3 bench/reftasks.py generate FILE COUNT LINES SEED
    python3 bench/reftasks.py solve-setup ALPHAS_JSON

`import` and `solve-setup` print their own elapsed seconds, timed inside the
child like the setup probes they bracket; the others are timed from outside.
Changing anything here changes every ratio: treat the file as frozen.
"""

import json
import math
import sys
import time

_EULER = 0.5772156649015329
_PI2_6 = math.pi**2 / 6.0


def import_modules():
    """The imports the CLI's start-up pays for: numpy and two scipy subpackages."""
    import numpy  # noqa: F401
    import scipy.integrate  # noqa: F401
    import scipy.special  # noqa: F401


def _tokens(line):
    return [t for t in (line.split(",") if "," in line else line.split()) if t.strip()]


def ingest(path, lines):
    """Split a whole sample file into lines, parse the first `lines` values and
    take four moments.  Splitting all of it gives the allocation profile of a
    full read at a fraction of the parsing cost."""
    import_modules()
    import numpy as np

    with open(path) as fh:
        text_lines = fh.read().splitlines()
    values = []
    for line in text_lines[:lines]:
        toks = _tokens(line)
        if toks:
            values.append(float(toks[0].strip()))
    x = np.asarray(values, dtype=np.float64)
    d = x - x.mean()
    moments = [float(np.mean(d**j)) for j in (2, 3, 4)]
    return len(values), moments


def generate(path, count, lines, seed):
    """Draw `count` Frechet(5) values from PCG64 and write the first `lines` as .17g lines."""
    import_modules()
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(seed))
    bits = rng.integers(0, 2**64, size=count, dtype=np.uint64)
    u = ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    x = (-np.log(u)) ** (-1.0 / 5.0)
    with open(path, "w") as fh:
        for v in x[:lines]:
            fh.write(format(float(v), ".17g"))
            fh.write("\n")
    return count


def _variance(a):
    return math.exp(math.lgamma(1.0 - 2.0 / a)) - math.exp(math.lgamma(1.0 - 1.0 / a)) ** 2


def _skew_like(a):
    g1 = math.lgamma(1.0 - 1.0 / a)
    g2 = math.lgamma(1.0 - 2.0 / a) - 2.0 * g1
    g3 = math.lgamma(1.0 - 3.0 / a) - 3.0 * g1
    return (math.expm1(g3) - 3.0 * math.expm1(g2)) / math.expm1(g2) ** 1.5


def _bisect(f, lo, hi, steps):
    flo = f(lo)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_point(a):
    """Per-point work shaped like the library pass: closed forms, a cubic, two bisections."""
    v = _variance(a)
    if not v > 0.0:
        v = _PI2_6 / (a * a)
    first = math.pi / math.sqrt(6.0 * v)
    c3 = (_EULER * math.pi**2 + 6.0 * 1.2020569031595943) / 3.0
    u = math.sqrt(v / _PI2_6)
    for _ in range(4):
        u -= (c3 * u**3 + _PI2_6 * u**2 - v) / (3.0 * c3 * u**2 + 2.0 * _PI2_6 * u)
    lo = 2.0 + 1e-9
    root = _bisect(lambda x: _variance(x) - v, lo, max(2.0 * first, 4.0), 60)
    moments = [math.exp(math.lgamma(1.0 - k / a)) for k in range(1, 5) if k < a]
    skew = 0.0
    if a > 3.5:
        target = _skew_like(min(a, 5e3))
        skew = _bisect(lambda x: _skew_like(x) - target, 3.5, 6e3, 120)
    return root + skew + sum(moments) + u


def solve_pass(alphas):
    return sum(solve_point(a) for a in alphas)


def solve_setup(alphas):
    """Start-up shaped like `import frechetfit` plus one grid pass."""
    import numpy  # noqa: F401

    return solve_pass(alphas)


def main(argv):
    task = argv[0]
    if task == "import":
        t0 = time.perf_counter()
        import_modules()
        print(repr(time.perf_counter() - t0))
    elif task == "ingest":
        print(ingest(argv[1], int(argv[2]))[0])
    elif task == "generate":
        print(generate(argv[1], int(argv[2]), int(argv[3]), int(argv[4])))
    elif task == "solve-setup":
        with open(argv[1]) as fh:
            alphas = json.load(fh)["alphas"]
        t0 = time.perf_counter()
        solve_setup(alphas)
        print(repr(time.perf_counter() - t0))
    else:
        raise SystemExit(f"unknown reference task {task!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
