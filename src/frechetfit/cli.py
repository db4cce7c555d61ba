"""Command-line interface: moments, estimate, sample, tables, check.

Exit codes: 0 success, 1 a failed `check` diagnostic, 2 usage error
(argparse), 3 domain or estimation error, 4 I/O or input-parsing error.
`--format json` output carries a schema_version field; non-finite values are
encoded as the strings "inf" / "-inf" / "nan" and undefined moments as null.
"""

import argparse
import json
import math
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
from .sampling_io import SamplerConfig, file_stats, sample_to_file

# read_samples, sample, sample_stats and write_samples are not called here:
# estimate --input streams its file (file_stats) and sample -o its draws
# (sample_to_file); they stay names of this module for code that patches them
from .estimation import sample_stats  # noqa: F401
from .sampling_io import read_samples, sample, write_samples  # noqa: F401

SCHEMA_VERSION = 1

# reference rows: exact alpha and the printed values being reproduced
_TABLE_ALPHAS = (5.0, 10.0, 50.0, 100.0)
_TABLE_PRINTED_ORDER1 = ("3.51", "8.60", "48.67", "98.68")
_TABLE_PRINTED_ORDER2 = ("4.42", "9.69", "49.93", "99.965")


def _json_value(x):
    if x is None:
        return None
    if isinstance(x, float) and not math.isfinite(x):
        if math.isnan(x):
            return "nan"
        return "inf" if x > 0 else "-inf"
    return x


def _fmt(x, digits: int = 10) -> str:
    if x is None:
        return "-"
    if isinstance(x, float) and not math.isfinite(x):
        return "+inf" if x > 0 else ("-inf" if x < 0 else "nan")
    return format(x, f".{digits}g")


def _emit_rows(header: list[str], rows: list[list[str]], fmt: str, payload) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    elif fmt == "csv":
        print(",".join(header))
        for row in rows:
            print(",".join(row))
    else:
        widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(header)]
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for row in rows:
            print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def _cmd_moments(args) -> int:
    shape = FrechetShape(args.alpha)
    if args.max_order < 2:
        raise DomainError("--max-order must be >= 2")
    reports = [moment_report(shape, k) for k in range(1, args.max_order + 1)]
    skew = skewness(shape)
    kurt = excess_kurtosis(shape)

    undefined = "undefined (k >= alpha)"
    rows = []
    for r in reports:
        rows.append([
            str(r.order),
            _fmt(r.raw) if r.defined else undefined,
            (_fmt(r.centered) if r.centered is not None else "-") if r.defined else undefined,
            (_fmt(r.normalized) if r.normalized is not None else "-") if r.defined else undefined,
        ])
    payload = {
        "schema_version": SCHEMA_VERSION,
        "alpha": args.alpha,
        "moments": [
            {
                "order": r.order,
                "raw": _json_value(r.raw),
                "centered": _json_value(r.centered),
                "normalized": _json_value(r.normalized),
                "defined": r.defined,
            }
            for r in reports
        ],
        "skewness": _json_value(skew),
        "excess_kurtosis": _json_value(kurt),
    }
    _emit_rows(["order", "raw", "centered", "normalized"], rows, args.format, payload)
    if args.format != "json":
        print(f"skewness         {_fmt(skew)}")
        print(f"excess kurtosis  {_fmt(kurt)}")
    return 0


def _estimate_one(method: str, v: float, tol: float):
    if method == "order1":
        return alpha_order1(v)
    if method == "order2":
        return alpha_order2(v)
    return alpha_exact(v, tol=tol)


def _cmd_estimate(args) -> int:
    sample_info = None
    if args.input is not None:
        stats = file_stats(args.input, column=args.column)
        v = stats.variance
        sample_info = {"count": stats.count, "mean": stats.mean, "variance": stats.variance}
    else:
        v = args.variance
    methods = ["order1", "order2", "exact"] if args.method == "all" else [args.method]
    results = [_estimate_one(m, v, args.tol) for m in methods]

    rows = [
        [r.method.value, _fmt(r.alpha), _fmt(r.residual, 6), str(r.iterations)]
        for r in results
    ]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "variance": v,
        "sample": sample_info,
        "estimates": [
            {
                "method": r.method.value,
                "alpha": r.alpha,
                "residual": _json_value(r.residual),
                "iterations": r.iterations,
            }
            for r in results
        ],
    }
    if args.format != "json" and sample_info is not None:
        print(f"sample count {stats.count}, mean {_fmt(stats.mean)}, variance {_fmt(v)}")
    _emit_rows(["method", "alpha", "residual", "iterations"], rows, args.format, payload)
    return 0


def _cmd_sample(args) -> int:
    params = FrechetParams(args.location, args.scale, args.alpha)
    config = SamplerConfig(seed=args.seed, count=args.count, params=params)
    moments = sample_to_file(args.output, config)
    stats = moments.stats() if args.count >= 2 else None
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "output": args.output,
            "count": args.count,
            "seed": args.seed,
            "location": args.location,
            "scale": args.scale,
            "alpha": args.alpha,
        }
        for key in ("mean", "variance", "skewness", "excess_kurtosis"):
            payload[key] = None if stats is None else _json_value(getattr(stats, key))
        print(json.dumps(payload, indent=2))
    elif stats is not None:
        print(
            f"wrote {args.count} samples to {args.output}: "
            f"mean {_fmt(stats.mean)}, variance {_fmt(stats.variance)}, "
            f"skewness {_fmt(stats.skewness)}, excess kurtosis {_fmt(stats.excess_kurtosis)}"
        )
    else:
        print(f"wrote {args.count} sample to {args.output}")
    return 0


def _table_rows(order2: bool):
    rows = []
    printed = _TABLE_PRINTED_ORDER2 if order2 else _TABLE_PRINTED_ORDER1
    for alpha, printed_val in zip(_TABLE_ALPHAS, printed):
        v = shape_variance(alpha)
        est = (alpha_order2 if order2 else alpha_order1)(v)
        exact = alpha_exact(v)
        decimals = 3 if order2 and alpha == 100.0 else 2
        rounded = format(est.alpha, f".{decimals}f")
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
    t1 = _table_rows(order2=False)
    t2 = _table_rows(order2=True)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "order1_table": t1,
        "order2_table": t2,
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
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
        _emit_rows(header, body, args.format, None)
        print()
    return 0


def _cmd_check(args) -> int:
    # imported here, not at the top: without cached bytecode, compiling and
    # importing checks costs 2-3 ms, which every other command would pay
    from .checks import run_checks

    grid = args.alpha_grid if args.alpha_grid else None
    results = run_checks(grid)
    if args.format == "json":
        checks = [
            {"name": r.name, "measured": _json_value(r.measured),
             "bound": _json_value(r.bound), "passed": r.passed}
            for r in results
        ]
        print(json.dumps({"schema_version": SCHEMA_VERSION, "checks": checks}, indent=2))
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status}  {r.name}: measured {r.measured:.3e} (bound {r.bound:.3e})")
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
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--max-order", type=int, default=4)
    add_format(p)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("estimate", help="infer alpha from a variance or a sample file")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--variance", type=float)
    src.add_argument("--input", type=str, help="sample file (one value per line)")
    p.add_argument("--column", type=str, default=None, help="column name if the file has a header")
    p.add_argument("--method", choices=["order1", "order2", "exact", "all"], default="all")
    p.add_argument("--tol", type=float, default=1e-12)
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
