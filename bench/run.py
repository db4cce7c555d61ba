#!/usr/bin/env python3
"""frechetfit benchmark: three workloads, each timed against an A-B-A reference.

    python3 bench/run.py --workload {ingest_1m,generate_1m,solve_grid} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout: the program is imported from src/ and
nothing needs installing.  Every timed operation runs between two runs of a
fixed reference task (bench/reftasks.py) and is reported as the ratio of its
time to the mean of the two; see bench/README.md for why.  The last line of
stdout is one JSON object {correct, attempted, failed, metrics}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.  The
lines before it are a readable report and a provenance object.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import reftasks
import solve
from spans import Tracer
from spawner import Spawner

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

FILE_LINES = 10**6
GEN_ALPHA = 5.0
CHILD_TIMEOUT_S = 150

# Reference sizes.  A reference run's own noise on this kind of host is about
# the same at 1 s as at 3 s, so the references are kept short to fit more
# repetitions into a run.
REF_INGEST_LINES = 200_000
REF_GENERATE_LINES = 150_000

# setup_s = median(probe / reference) * the reference's nominal seconds, the
# reference's median on a quiet 2-vCPU Xeon with Python 3.11 and scipy 1.17.
NOMINAL_S = {"import": 0.65, "solve-setup": 0.18}
SETUP_SECONDS = 4  # set-up probes run for this long, and at least MIN_REPS times
MIN_REPS = 3
IMPORT_PROBES = 3  # cli.import_s in the traced run

END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "peak_rss_mb": "MB",
    "call_ok_frac": "ratio",
    "moment_ok_frac": "ratio",
    "roundtrip_ok_frac": "ratio",
    "fit_ok_frac": "ratio",
}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "sampling_io.read_samples.s": "s",
    "sampling_io.read_samples.values": "count",
    "sampling_io.read_samples.peak_mb": "MB",
    "sampling_io.write_samples.s": "s",
    "sampling_io.write_samples.bytes": "bytes",
    "sampling_io.sample.s": "s",
    "estimation.sample_stats.s": "s",
    "estimation.alpha_exact.us": "us",
    "estimation.alpha_exact.iterations": "count",
    "estimation.alpha_order1.us": "us",
    "estimation.alpha_order2.us": "us",
    "estimation.fit_location_scale.us": "us",
    "frechet.shape_variance.us": "us",
    "frechet.skewness.us": "us",
    "frechet.excess_kurtosis.us": "us",
    "frechet.moment_report.us": "us",
    "special_functions.gamma.us": "us",
    "special_functions.log_gamma.us": "us",
    "special_functions.gamma.calls": "count",
    "special_functions.log_gamma.calls": "count",
    "trace.traced_s": "s",
    "trace.untraced_s": "s",
}

# Calls the CLI layer makes into the layers below it, traced in the replay.
CLI_CALLS = {
    "read_samples": "sampling_io.read_samples",
    "write_samples": "sampling_io.write_samples",
    "sample": "sampling_io.sample",
    "sample_stats": "estimation.sample_stats",
    "alpha_order1": "estimation.alpha_order1",
    "alpha_order2": "estimation.alpha_order2",
    "alpha_exact": "estimation.alpha_exact",
}


class BenchError(RuntimeError):
    """The benchmark itself cannot produce a trustworthy result."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def child_value(children, argv):
    """Run a child that prints one number (its own timing, or a measurement);
    returns (that number, the child's peak RSS in MB)."""
    _, rss, code, out = children.run(argv)
    if code != 0:
        raise BenchError(f"{' '.join(argv[1:3])} exited {code}: {children.stderr_tail()}")
    return float(out.strip()), rss


def ref_seconds(children, argv):
    seconds, _, code, _ = children.run(argv)
    if code != 0:
        raise BenchError(f"reference {argv[2]} exited {code}: {children.stderr_tail()}")
    return seconds


def bench_script(name, *args):
    return [sys.executable, str(BENCH / name), *map(str, args)]


# ---------------------------------------------------------------- A-B-A


def aba(op, ref, deadline):
    """ref, op, ref, op, ..., ref; returns [(op record, ref before, ref after)].

    Runs as many operations as end before `deadline` (perf_counter seconds),
    and at least MIN_REPS.  `op` returns a dict with its seconds under "s".
    """
    refs, ops = [ref()], []
    last = 0.0
    while len(ops) < MIN_REPS or time.perf_counter() + last <= deadline:
        t0 = time.perf_counter()
        ops.append(op())
        refs.append(ref())
        last = time.perf_counter() - t0
    return [(o, refs[i], refs[i + 1]) for i, o in enumerate(ops)]


def ratios(triples):
    return [o["s"] / (0.5 * (a + b)) for o, a, b in triples]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------- workloads


def write_sample_file(path, seed):
    """The ingest input: 1e6 Frechet values, written by the benchmark itself as .17g lines."""
    import numpy as np

    rng = np.random.default_rng(seed)
    alpha = 4.5 + 3.5 * rng.random()
    u = rng.random(FILE_LINES)
    x = (-np.log1p(-u)) ** (-1.0 / alpha)
    with open(path, "w") as fh:
        fh.write("\n".join(format(v, ".17g") for v in x.tolist()))
        fh.write("\n")


class CliWorkload:
    """One `python3 -m frechetfit.cli ...` child per operation; set-up is the CLI import."""

    nominal = "import"

    def __init__(self, children):
        self.children = children

    def prepare(self):
        """Untimed work before each operation."""

    def op(self):
        self.prepare()
        argv = [sys.executable, "-m", "frechetfit.cli", *self.argv]
        seconds, rss, code, out = self.children.run(argv)
        return {"s": seconds, "rss_mb": rss, "ok": code == 0 and self.check(out)}

    def setup_probe(self):
        seconds, rss = child_value(self.children, bench_script("probe.py", "import-cli"))
        return {"s": seconds, "rss_mb": rss}

    def setup_ref(self):
        return child_value(self.children, bench_script("reftasks.py", "import"))[0]


class Ingest(CliWorkload):
    """`frechetfit estimate --input <1e6-line file> --method all --format json`."""

    def __init__(self, children, ff, seed):
        super().__init__(children)
        self.path = WORK / "ingest.txt"
        write_sample_file(self.path, seed)
        v = ff.sample_stats(ff.read_samples(self.path)).variance
        self.expected = [f(v).alpha for f in (ff.alpha_order1, ff.alpha_order2, ff.alpha_exact)]
        self.argv = ["estimate", "--input", str(self.path), "--method", "all", "--format", "json"]

    def check(self, stdout):
        """The JSON alphas equal the in-process estimators on the same file."""
        try:
            payload = json.loads(stdout)
            alphas = [e["alpha"] for e in payload["estimates"]]
            return alphas == self.expected and payload["sample"]["count"] == FILE_LINES
        except (ValueError, KeyError, TypeError):
            return False

    def ref(self):
        return ref_seconds(self.children,
                           bench_script("reftasks.py", "ingest", self.path, REF_INGEST_LINES))


class Generate(CliWorkload):
    """`frechetfit sample --alpha 5 --count 1000000 --seed <s> -o <file>`."""

    def __init__(self, children, ff, seed):
        super().__init__(children)
        self.sample_seed = random.Random(seed).randrange(2**32)
        self.path = WORK / "generate.txt"
        self.ref_path = WORK / "generate_ref.txt"
        config = ff.SamplerConfig(seed=self.sample_seed, count=FILE_LINES,
                                  params=ff.FrechetParams(0.0, 1.0, GEN_ALPHA))
        ff.write_samples(self.path, ff.sample(config))
        self.expected = sha256(self.path)
        self.path.unlink()
        self.argv = ["sample", "--alpha", repr(GEN_ALPHA), "--count", str(FILE_LINES),
                     "--seed", str(self.sample_seed), "-o", str(self.path)]

    def check(self, stdout):
        """The output file is byte-identical to write_samples(sample(config))."""
        return self.path.exists() and sha256(self.path) == self.expected

    def prepare(self):
        if self.path.exists():
            self.path.unlink()

    def ref(self):
        return ref_seconds(self.children, bench_script(
            "reftasks.py", "generate", self.ref_path, FILE_LINES, REF_GENERATE_LINES,
            self.sample_seed))


class SolveGrid:
    """In-process passes over the alpha grid; no I/O."""

    nominal = "solve-setup"

    def __init__(self, children, ff, seed, grid_eval):
        self.children = children
        self.lib = solve.library(ff)
        self.order = solve.seeded_order(solve.grid(), seed)
        self.fits = grid_eval["fits"]
        self.expected = repr(solve.run_pass(self.lib, self.order, self.fits))
        self.inputs = WORK / "solve_inputs.json"
        with open(self.inputs, "w") as fh:
            json.dump({"alphas": self.order,
                       "fits": [self.fits.get(a) for a in self.order]}, fh)

    def op(self):
        t0 = time.perf_counter()
        results = solve.run_pass(self.lib, self.order, self.fits)
        seconds = time.perf_counter() - t0
        return {"s": seconds, "ok": repr(results) == self.expected}

    def ref(self):
        t0 = time.perf_counter()
        reftasks.solve_pass(self.order)
        return time.perf_counter() - t0

    def setup_probe(self):
        seconds, rss = child_value(self.children,
                                   bench_script("probe.py", "solve-setup", self.inputs))
        return {"s": seconds, "rss_mb": rss}

    def setup_ref(self):
        return child_value(self.children,
                           bench_script("reftasks.py", "solve-setup", self.inputs))[0]


# ---------------------------------------------------------------- runs


def grid_evaluation(ff):
    """Oracle (self-checked), one untimed pass, its call checks and accuracy shares."""
    import oracle  # mpmath: imported after the spawner has started

    alphas = solve.grid()
    try:
        table = oracle.references(alphas)
    except oracle.OracleError as exc:
        raise BenchError(f"mpmath oracle failed its self-check: {exc}") from exc
    fits = solve.fit_inputs(table, alphas)
    results = solve.run_pass(solve.library(ff), alphas, fits)
    calls = [ok for a, r in results.items() for ok in solve.call_checks(a, r)]
    return {"fits": fits, "results": results, "calls": calls,
            "accuracy": solve.accuracy(results, table)}


def timed_run(args, ff, children, report):
    grid = grid_evaluation(ff)
    if args.workload == "solve_grid":
        wl = SolveGrid(children, ff, args.seed, grid)
    else:
        wl = {"ingest_1m": Ingest, "generate_1m": Generate}[args.workload](children, ff, args.seed)

    setup = aba(wl.setup_probe, wl.setup_ref, deadline=time.perf_counter() + SETUP_SECONDS)
    timed = aba(wl.op, wl.ref, deadline=time.perf_counter() + args.seconds)

    setup_ratio = ratios(setup)
    wall = ratios(timed)
    ops = [o for o, _, _ in timed]
    failed = sum(not o["ok"] for o in ops)
    if args.workload == "solve_grid":
        rss = [o["rss_mb"] for o, _, _ in setup]
        call_ok = (sum(grid["calls"]), len(grid["calls"]))
    else:
        rss = [o["rss_mb"] for o in ops]
        call_ok = (len(ops) - failed, len(ops))

    values = {
        "setup_s": (statistics.median(setup_ratio) * NOMINAL_S[wl.nominal], setup_ratio),
        "wall_ref": (statistics.median(wall), wall),
        "peak_rss_mb": (statistics.median(rss), rss),
        "call_ok_frac": (call_ok[0] / call_ok[1], call_ok),
    }
    for name in ("moment_ok_frac", "roundtrip_ok_frac", "fit_ok_frac"):
        ok, total = grid["accuracy"][name]
        values[name] = (ok / total, (ok, total))

    report.append(f"workload {args.workload}  seed {args.seed}  timed reps {len(timed)}  "
                  f"setup reps {len(setup)}")
    for name, (value, samples) in values.items():
        if isinstance(samples, tuple):
            detail = f"n={samples[1]}  ({samples[0]} ok)"
        else:
            q1, q3 = quartiles(samples)
            detail = f"n={len(samples)}  q1 {q1:.4g}  q3 {q3:.4g}"
        report.append(f"  {name:<18} {value:<12.6g} {END_TO_END[name]:<6} {detail}")
    report.append(f"  error_frac         {1 - values['call_ok_frac'][0]:.6g}  "
                  f"(1 - call_ok_frac)")
    for name, (ok, total) in grid["accuracy"].items():
        if name.startswith("moment_ok_frac."):
            report.append(f"    {name:<34} {ok / total:.4f}  n={total}")
    provenance = {
        "setup": [[o["s"], a, b] for o, a, b in setup],
        "timed": [[o["s"], a, b] for o, a, b in timed],
        "setup_reps": len(setup),
        "timed_reps": len(timed),
        "nominal_ref_s": NOMINAL_S[wl.nominal],
    }
    metrics = {name: v for name, (v, _) in values.items()}
    return metrics, END_TO_END, len(ops), failed, provenance


def traced_run(args, ff, children, report):
    """Replay one operation of every workload in-process, untraced then traced,
    until --seconds has passed; per-layer metrics come from the traced rounds."""
    import frechetfit.cli as cli

    grid = grid_evaluation(ff)
    ingest, generate = Ingest(children, ff, args.seed), Generate(children, ff, args.seed)
    sg = SolveGrid(children, ff, args.seed, grid)
    import_s = [child_value(children, bench_script("probe.py", "import-cli"))[0]
                for _ in range(IMPORT_PROBES)]
    read_peak_mb = child_value(children, bench_script("probe.py", "read-peak", ingest.path))[0]
    tracer = Tracer()

    def replay(traced):
        """One round; returns (seconds spent in the three operations, [ok per operation])."""
        span = tracer.span if traced else (lambda name: contextlib.nullcontext())
        lib = solve.library(ff, tracer.wrap if traced else None)
        seconds, oks = 0.0, []
        with tracer.patched(cli, CLI_CALLS) if traced else contextlib.nullcontext():
            for wl in (ingest, generate):
                wl.prepare()
                out = io.StringIO()
                t0 = time.perf_counter()
                with span("cli.main"), contextlib.redirect_stdout(out):
                    code = cli.main(wl.argv)
                seconds += time.perf_counter() - t0
                oks.append(code == 0 and wl.check(out.getvalue()))
        t0 = time.perf_counter()
        with span("solve_grid.pass"):
            results = solve.run_pass(lib, sg.order, sg.fits)
        seconds += time.perf_counter() - t0
        oks.append(repr(results) == sg.expected)
        return seconds, oks

    deadline = time.perf_counter() + args.seconds
    untraced, traced, oks, rounds = [], [], [], []
    last = 0.0
    while not traced or time.perf_counter() + last <= deadline:
        t0 = time.perf_counter()
        seconds, ok = replay(False)
        untraced.append(seconds)
        oks += ok
        start = len(tracer.spans)
        seconds, ok = replay(True)
        traced.append(seconds)
        oks += ok
        rounds.append((start, len(tracer.spans)))
        last = time.perf_counter() - t0
    written_bytes = generate.path.stat().st_size

    calls = Tracer()
    with calls.patched(ff.frechet, {"gamma": "special_functions.gamma",
                                    "log_gamma": "special_functions.log_gamma"}):
        solve.run_pass(solve.library(ff), sg.order, sg.fits)

    def per_round_s(name, self_time=False):
        return statistics.median(tracer.total_ns(name, a, b, self_time) for a, b in rounds) / 1e9

    metrics = {
        "cli.import_s": statistics.median(import_s),
        "cli.self_s": per_round_s("cli.main", self_time=True),
        "sampling_io.read_samples.s": per_round_s("sampling_io.read_samples"),
        "sampling_io.read_samples.values": FILE_LINES,
        "sampling_io.read_samples.peak_mb": read_peak_mb,
        "sampling_io.write_samples.s": per_round_s("sampling_io.write_samples"),
        "sampling_io.write_samples.bytes": written_bytes,
        "sampling_io.sample.s": per_round_s("sampling_io.sample"),
        "estimation.sample_stats.s": per_round_s("estimation.sample_stats"),
        "estimation.alpha_exact.iterations": solve.exact_iterations(grid["results"]),
        "special_functions.gamma.calls": calls.count("special_functions.gamma"),
        "special_functions.log_gamma.calls": calls.count("special_functions.log_gamma"),
        "trace.traced_s": statistics.median(traced),
        "trace.untraced_s": statistics.median(untraced),
    }
    for name in PER_LAYER:
        if name.endswith(".us"):
            metrics[name] = tracer.mean_us(name[:-3], "solve_grid.pass")

    trace_file = WORK / f"trace-{args.workload}-{args.seed}.json"
    tracer.write(trace_file)
    failed = sum(not ok for ok in oks)
    report.append(f"traced replay  seed {args.seed}  rounds {len(rounds)} (each: "
                  f"ingest_1m, generate_1m and solve_grid once, untraced then traced)")
    for name, unit in PER_LAYER.items():
        report.append(f"  {name:<36} {metrics[name]:<14.6g} {unit}")
    overhead = statistics.median(traced) / statistics.median(untraced) - 1
    report.append(f"  tracing overhead {overhead:+.1%}; {len(tracer.spans)} spans in "
                  f"{trace_file.relative_to(ROOT)}")
    provenance = {"rounds_untraced_s": untraced, "rounds_traced_s": traced,
                  "cli_import_s": import_s}
    return metrics, PER_LAYER, len(oks), failed, provenance


def machine(args):
    import mpmath
    import numpy
    import scipy

    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), "")
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "hardware_counters": os.path.isdir("/sys/bus/event_source/devices/cpu"),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["ingest_1m", "generate_1m", "solve_grid"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "frechetfit" / "__init__.py").is_file():
        print(f"error: no frechetfit sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    # on SIGTERM, unwind so that the finally clause below stops every child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # started first, while this process is still small: see spawner.py
    children = Spawner(child_env(), ROOT, WORK, CHILD_TIMEOUT_S)
    report = []
    try:
        sys.path.insert(0, str(SRC))
        import frechetfit as ff
        import frechetfit.cli  # noqa: F401  (compiles its bytecode before any child imports it)

        run = traced_run if args.trace else timed_run
        metrics, units, attempted, failed, provenance = run(args, ff, children, report)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        children.close()
        for leftover in ("ingest.txt", "generate.txt", "generate_ref.txt", "child.out"):
            with contextlib.suppress(FileNotFoundError):
                (WORK / leftover).unlink()

    provenance = {**machine(args), **provenance,
                  "peak_rss_self_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    print("\n".join(report))
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
