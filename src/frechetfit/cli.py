"""Command-line interface: moments, estimate, sample, tables, check.

Exit codes: 0 success, 1 a failed `check` diagnostic, 2 usage error
(argparse), 3 domain or estimation error, 4 I/O or input-parsing error.
`--format json` output carries a schema_version field; non-finite values are
encoded as the strings "inf" / "-inf" / "nan" and undefined moments as null.
In `--format csv` output each title, summary and `check` result line starts
with "# ", so every other non-blank line is a header or a row of CSV.

Only `estimate --input` and `sample` load numpy: they import the sample layer
(sampling_io) when they run, and the other commands are scalar code. They start
numpy with one OpenBLAS thread unless OPENBLAS_NUM_THREADS is set: no command
does BLAS work, and the worker pool that OpenBLAS starts by default busy-waits
after numpy loads (`import numpy` took 0.16 s of CPU against 0.09 s with one
thread on 2 cores, and up to twice the wall time where the cores were shared).
The library never changes the environment; only this module does.
"""

import argparse
import json
import math
import os
import sys
from typing import Optional, Sequence

from . import __version__
from .errors import DomainError, FrechetFitError, ParseError
from .estimation import alpha_exact, alpha_order1, alpha_order2
from .frechet import (
    FrechetParams,
    FrechetShape,
    excess_kurtosis,
    moment_report,
    shape_variance,
    skewness,
)

# the package's loader: the sample layer's names (read_samples, sample,
# sample_stats, write_samples, ...) stay attributes of this module, for code
# that patches them, and load numpy only when first read
from . import __getattr__  # noqa: F401

SCHEMA_VERSION = 1

# reference rows: exact alpha and the printed values being reproduced
_TABLE_ALPHAS = (5.0, 10.0, 50.0, 100.0)
_TABLE_PRINTED_ORDER1 = ("3.51", "8.60", "48.67", "98.68")
_TABLE_PRINTED_ORDER2 = ("4.42", "9.69", "49.93", "99.965")


def _json_value(x):
    """x with every non-finite float in it, inside dicts and lists too, as "inf", "-inf" or "nan"."""
    if isinstance(x, float) and not math.isfinite(x):
        if math.isnan(x):
            return "nan"
        return "inf" if x > 0 else "-inf"
    if isinstance(x, dict):
        return {key: _json_value(value) for key, value in x.items()}
    if isinstance(x, list):
        return [_json_value(value) for value in x]
    return x


def _fmt(x, digits: int = 10) -> str:
    if x is None:
        return "-"
    if isinstance(x, float) and not math.isfinite(x):
        return "+inf" if x > 0 else ("-inf" if x < 0 else "nan")
    return format(x, f".{digits}g")


def _emit(fmt: str, payload, *parts) -> None:
    """Print a command's output: in json the payload, after schema_version; in
    table and csv each part in order, a str as a note ("# " comment in csv)
    and a list of rows, header first, as a table."""
    if fmt == "json":
        print(json.dumps(_json_value({"schema_version": SCHEMA_VERSION, **payload}), indent=2))
        return
    for part in parts:
        if isinstance(part, str):
            print(f"# {part}" if fmt == "csv" else part)
        elif fmt == "csv":
            for row in part:
                print(",".join(row))
        else:
            widths = [max(map(len, column)) for column in zip(*part)]
            for row in part:
                print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def _cmd_moments(args) -> int:
    shape = FrechetShape(args.alpha)
    if args.max_order < 2:
        raise DomainError("--max-order must be >= 2")
    reports = [moment_report(shape, k) for k in range(1, args.max_order + 1)]
    skew = skewness(shape)
    kurt = excess_kurtosis(shape)

    undefined = "undefined (k >= alpha)"
    rows = [["order", "raw", "centered", "normalized"]]
    for r in reports:
        rows.append([
            str(r.order),
            _fmt(r.raw) if r.defined else undefined,
            _fmt(r.centered) if r.defined else undefined,
            _fmt(r.normalized) if r.defined else undefined,
        ])
    payload = {
        "alpha": args.alpha,
        "moments": [r._asdict() for r in reports],
        "skewness": skew,
        "excess_kurtosis": kurt,
    }
    _emit(args.format, payload, rows,
          f"skewness         {_fmt(skew)}", f"excess kurtosis  {_fmt(kurt)}")
    return 0


def _sample_layer():
    """The sample layer, imported when a command first needs it: it loads
    numpy, which no other command does.  OPENBLAS_NUM_THREADS defaults to 1
    only before numpy's first import, since OpenBLAS reads it when numpy
    loads.  Callers look names up on the returned module when they call them,
    so code that patches them there takes effect."""
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import sampling_io

    return sampling_io


# the names of `estimate --method`, in the order that `--method all` runs them
_METHODS = ("order1", "order2", "exact")
# the table and csv columns of an estimate record: its fields, each with its format
_ESTIMATE_COLUMNS = {"method": str, "alpha": _fmt, "residual": lambda x: _fmt(x, 6), "iterations": str}


def _cmd_estimate(args) -> int:
    # one summary of either input: the file's moments (None for --variance) and the variance v
    stats = None if args.input is None else _sample_layer().file_stats(args.input, column=args.column)
    v = args.variance if stats is None else stats.variance
    # built per call, so that an estimator patched on this module runs
    estimators = dict(zip(_METHODS, (alpha_order1, alpha_order2, lambda v: alpha_exact(v, tol=args.tol))))
    records = []
    for method in _METHODS if args.method == "all" else [args.method]:
        r = estimators[method](v)
        # a flag is not an error: no variance exists at alpha <= 2, so v cannot be its variance
        records.append({"method": r.method.value, "alpha": r.alpha, "residual": r.residual,
                        "iterations": r.iterations, "flags": ["alpha_at_most_2"] if r.alpha <= 2.0 else []})
    rows = [list(_ESTIMATE_COLUMNS)] + [
        [f(record[key]) for key, f in _ESTIMATE_COLUMNS.items()] for record in records
    ]
    sample_info = None if stats is None else {"count": stats.count, "mean": stats.mean, "variance": v}
    notes = [] if stats is None else [f"sample count {stats.count}, mean {_fmt(stats.mean)}, variance {_fmt(v)}"]
    flagged = ", ".join(record["method"] for record in records if record["flags"])
    footnote = [f"flagged alpha_at_most_2 (no variance exists at alpha <= 2): {flagged}"] if flagged else []
    _emit(args.format, {"variance": v, "sample": sample_info, "estimates": records}, *notes, rows, *footnote)
    return 0


def _cmd_sample(args) -> int:
    sampling_io = _sample_layer()
    params = FrechetParams(args.location, args.scale, args.alpha)
    config = sampling_io.SamplerConfig(seed=args.seed, count=args.count, params=params)
    stats = sampling_io.sample_to_file(args.output, config)
    payload = {
        "output": args.output,
        "count": args.count,
        "seed": args.seed,
        "location": args.location,
        "scale": args.scale,
        "alpha": args.alpha,
    }
    for key in ("mean", "variance", "skewness", "excess_kurtosis"):
        payload[key] = None if stats is None else getattr(stats, key)
    if stats is None:
        note = f"wrote {args.count} sample to {args.output}"
    else:
        note = (f"wrote {args.count} samples to {args.output}: "
                f"mean {_fmt(stats.mean)}, variance {_fmt(stats.variance)}, "
                f"skewness {_fmt(stats.skewness)}, excess kurtosis {_fmt(stats.excess_kurtosis)}")
    _emit(args.format, payload, note)
    return 0


def _table_rows(estimate, printed):
    """One row per reference alpha: `estimate` at its variance, rounded as the printed value is."""
    rows = []
    for alpha, printed_val in zip(_TABLE_ALPHAS, printed):
        v = shape_variance(alpha)
        est = estimate(v)
        exact = alpha_exact(v)
        rounded = format(est.alpha, f".{len(printed_val.partition('.')[2])}f")
        rows.append({
            "variance": float(format(v, ".6g")),
            "alpha_exact": exact.alpha,
            "alpha_estimate": est.alpha,
            "rounded": rounded,
            "printed": printed_val,
            "deviation": abs(est.alpha - float(printed_val)),
        })
    return rows


def _cmd_tables(args) -> int:
    t1 = _table_rows(alpha_order1, _TABLE_PRINTED_ORDER1)
    t2 = _table_rows(alpha_order2, _TABLE_PRINTED_ORDER2)
    if args.format == "json":
        _emit("json", {"order1_table": t1, "order2_table": t2})
        return 0
    for title, rows in (("order-1 estimate", t1), ("order-2 (cardano) estimate", t2)):
        print(f"# {title}")
        header = ["variance", "alpha(exact)", "estimate", "rounded", "printed", "|dev|"]
        body = [
            [
                format(r["variance"], ".6g"),
                _fmt(r["alpha_exact"], 6),
                _fmt(r["alpha_estimate"], 8),
                r["rounded"],
                r["printed"],
                format(r["deviation"], ".2e"),
            ]
            for r in rows
        ]
        _emit(args.format, None, [header, *body])
        print()
    return 0


def _cmd_check(args) -> int:
    # imported here, not at the top: without cached bytecode, compiling and
    # importing checks costs 2-3 ms, which every other command would pay
    from .checks import run_checks

    results = run_checks(args.alpha_grid)
    payload = {
        "checks": [
            {"name": r.name, "measured": r.measured, "bound": r.bound, "passed": r.passed}
            for r in results
        ],
    }
    _emit(args.format, payload, *(
        f"{'PASS' if r.passed else 'FAIL'}  {r.name}: measured {r.measured:.3e} (bound {r.bound:.3e})"
        for r in results
    ))
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frechetfit",
        description="Frechet-distribution moments and shape-parameter inference",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=["table", "csv", "json"], default="table")

    p = sub.add_parser("moments", help="raw/centered/normalized moments for a shape")
    p.add_argument("--alpha", type=float, required=True, help="shape parameter alpha > 0")
    p.add_argument("--max-order", type=int, default=4,
                   help="report orders 1 to this one, at least 2 (default %(default)s)")
    add_format(p)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("estimate", help="infer alpha from a variance or a sample file")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--variance", type=float,
                     help="variance v to invert: v = Gamma(1 - 2/alpha) - Gamma(1 - 1/alpha)^2")
    src.add_argument("--input", type=str, help="sample file (one value per line)")
    p.add_argument("--column", type=str, default=None,
                   help="column name if the file has a header; needs --input")
    p.add_argument("--method", choices=[*_METHODS, "all"], default="all",
                   help="order1: pi / sqrt(6 v); order2: the root of the order-2 cubic in 1/alpha; "
                        "exact: the root of ln V(alpha) = ln v; all: the three (default)")
    p.add_argument("--tol", type=float, default=1e-12,
                   help="bound on the relative residual |ln V(alpha) - ln v|; only the exact "
                        "method reads it (default %(default)s)")
    add_format(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("sample", help="write reproducible inverse-CDF samples")
    p.add_argument("--location", "-m", type=float, default=0.0)
    p.add_argument("--scale", "-s", type=float, default=1.0)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", type=str, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("tables", help="recompute the reference estimator tables")
    add_format(p)
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("check", help="run the self-diagnostic suites")
    p.add_argument("--alpha-grid", type=float, nargs="+", default=None)
    add_format(p)
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "column", None) is not None and args.input is None:
        parser.error("estimate: --column needs --input")
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except FrechetFitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
