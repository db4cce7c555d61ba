"""Fresh-interpreter probes of frechetfit, each timed or measured inside the child.

    python3 bench/probe.py import-cli            seconds to import frechetfit.cli
    python3 bench/probe.py solve-setup INPUTS    seconds to import frechetfit and run
                                                 the first solve_grid pass
    python3 bench/probe.py read-peak FILE        MB of resident memory read_samples adds

src/ must be on PYTHONPATH.  Each prints one number on stdout.
"""

import json
import resource
import sys
import time

import solve


def main(argv):
    task = argv[0]
    if task == "import-cli":
        t0 = time.perf_counter()
        import frechetfit.cli  # noqa: F401

        print(repr(time.perf_counter() - t0))
    elif task == "solve-setup":
        with open(argv[1]) as fh:
            inputs = json.load(fh)
        fits = {a: tuple(m) for a, m in zip(inputs["alphas"], inputs["fits"]) if m}
        t0 = time.perf_counter()
        import frechetfit

        solve.run_pass(solve.library(frechetfit), inputs["alphas"], fits)
        print(repr(time.perf_counter() - t0))
    elif task == "read-peak":
        from frechetfit.sampling_io import read_samples

        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        read_samples(argv[1])
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(repr((after - before) / 1024.0))
    else:
        raise SystemExit(f"unknown probe {task!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
