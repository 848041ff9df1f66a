"""Command-line front end.

Subcommands evaluate the library functions (`euler`, `gamma`, `zeta`,
`zeta-neg`), emit grids (`table`), or run the named verification suites
(`verify`).  Every s, x and lambda crosses the boundary as a "p/q"
string or a decimal: the exact commands keep it as a rational, the float
routes take the nearest float.  Floats are printed with 17 significant
digits and a lowercase exponent so identical invocations produce
byte-identical output.

Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage or domain error, or a --report path that cannot be written.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from fractions import Fraction
from itertools import product

from .exactcore import euler_poly_deg
from .gammadeg import gamma_deg
from .numerics import DomainError, QuadConfig
from .verify import SUITES, format_float, run_suite
from .zetadeg import (
    euler_zeta,
    euler_zeta_mellin,
    zeta_deg,
    zeta_deg_continued,
    zeta_deg_int,
    zeta_deg_mellin,
    zeta_deg_neg,
    zeta_deg_neg_candidates,
)

__all__ = ["main"]


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r} ({exc})")


def _finite(text: str) -> float:
    """A finite float, typed as a decimal or as p/q."""
    try:
        value = float(Fraction(text)) if "/" in text else float(text)
    except OverflowError:  # a p/q past the float range
        value = math.inf
    except (ValueError, ZeroDivisionError):  # the message type=float gives
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _cfg_from(args) -> QuadConfig | None:
    """The --tol setting; None leaves the library default."""
    return None if args.tol is None else QuadConfig(rel_tol=args.tol)


def _emit(args, payload: dict, text_lines: list[str],
          csv_header: list[str] | None = None,
          csv_rows: list[list[str]] | None = None) -> None:
    fmt = args.format
    if fmt == "json":
        print(json.dumps(payload))
    elif fmt == "csv":
        if csv_header is None:
            csv_header = list(payload.keys())
            csv_rows = [[str(payload[k]) for k in csv_header]]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(csv_header)
        writer.writerows(csv_rows or [])
        sys.stdout.write(buf.getvalue())
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_euler(args) -> int:
    poly = euler_poly_deg(args.n, args.lam)
    if args.x is not None:
        value = poly(args.x)
        payload = {"n": args.n, "lambda": str(args.lam), "x": str(args.x),
                   "value": str(value)}
        _emit(args, payload, [str(value)])
    else:
        coeffs = [str(c) for c in poly.coeffs]
        payload = {"n": args.n, "lambda": str(args.lam), "poly": coeffs}
        _emit(args, payload, [str(poly)],
              csv_header=["power", "coefficient"],
              csv_rows=[[str(k), c] for k, c in enumerate(coeffs)])
    return 0


def cmd_gamma(args) -> int:
    q = gamma_deg(args.s, args.lam, _cfg_from(args))
    payload = {
        "s": args.s,
        "lambda": args.lam,
        "value": format_float(q.value),
        "abs_error_estimate": format_float(q.abs_error_estimate),
        "subdivisions": q.subdivisions,
    }
    _emit(args, payload, [
        f"{format_float(q.value)}  "
        f"(abs error estimate {format_float(q.abs_error_estimate)}, "
        f"{q.subdivisions} subdivisions)"
    ])
    return 0


def _zeta_dispatch(method: str, s: float, x_raw: str, lam_raw: str,
                   cfg: QuadConfig | None) -> tuple[str, str, str]:
    """Evaluate a zeta value; returns (value_str, err_str, method_used).

    `auto` takes the classical value at lambda = 0, the exact one at an
    integer s <= 0, the continuation at other s <= 0 and the series at
    s > 0 (its integer form at integer s); `mellin` and `continued` are
    the independent routes it is checked against.
    """
    x_rat = Fraction(x_raw)
    lam_rat = Fraction(lam_raw)
    x = float(x_rat)
    lam = float(lam_rat)
    is_neg_int = s.is_integer() and s <= 0

    if method == "mellin":
        q = euler_zeta_mellin(s, x, cfg) if lam_rat == 0 \
            else zeta_deg_mellin(s, x, lam, cfg)
        return format_float(q.value), format_float(q.abs_error_estimate), "mellin"
    if method == "auto" and lam_rat == 0:
        v = euler_zeta(s, x_rat if is_neg_int else x)
        return str(v) if isinstance(v, Fraction) else format_float(v), "", "classical"
    if method == "auto" and is_neg_int:
        return str(zeta_deg_neg(int(-s), x_rat, lam_rat)), "", "exact-neg"
    if method == "continued" or s <= 0:
        return format_float(zeta_deg_continued(s, x, lam, cfg)), "", "continued"
    if s.is_integer():
        return format_float(zeta_deg_int(int(s), x, lam)), "", "int"
    return format_float(zeta_deg(s, x, lam)), "", "series"


def cmd_zeta(args) -> int:
    value, err, used = _zeta_dispatch(args.method, args.s, args.x, args.lam,
                                      _cfg_from(args))
    payload = {"s": args.s, "x": args.x, "lambda": args.lam,
               "method": used, "value": value}
    lines = [value]
    if err:
        payload["abs_error_estimate"] = err
        lines = [f"{value}  (abs error estimate {err})"]
    _emit(args, payload, lines)
    return 0


def cmd_zeta_neg(args) -> int:
    scaled, plain = zeta_deg_neg_candidates(args.n, args.x, args.lam)
    payload = {"n": args.n, "x": str(args.x), "lambda": str(args.lam),
               "value_scaled": str(scaled), "value_plain": str(plain)}
    _emit(args, payload, [
        f"scaled = {scaled}  (matches the analytic continuation)",
        f"plain  = {plain}",
    ])
    return 0


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

_GRID_VARS = ("n", "s", "x", "lambda")


def _parse_grid(text: str) -> list[tuple[str, list[str]]]:
    """Parse "n=1:4:4;lambda=0.1,0.2" into ordered (name, values) pairs.

    A values entry is either a comma-separated list or lo:hi:count for an
    inclusive linear range; each variable is given once.  Row order of the
    emitted table is the lexicographic product in the order the variables
    are given.
    """
    axes: list[tuple[str, list[str]]] = []
    for part in filter(None, (p.strip() for p in text.split(";"))):
        name, _, values = part.partition("=")
        name = name.strip()
        if name not in _GRID_VARS:
            raise DomainError(f"unknown grid variable {name!r}; "
                              f"expected one of {_GRID_VARS}")
        if any(name == seen for seen, _ in axes):
            raise DomainError(f"grid variable {name!r} given twice")
        values = values.strip()
        if not values:
            raise DomainError(f"no values for grid variable {name!r}")
        pieces = values.split(":")
        if len(pieces) == 3:
            lo, hi, count = float(pieces[0]), float(pieces[1]), int(pieces[2])
            if count < 1:
                raise DomainError("range count must be >= 1")
            if count == 1:
                vals = [repr(lo)]
            else:
                vals = [repr(lo + i * (hi - lo) / (count - 1)) for i in range(count)]
        else:
            vals = [v.strip() for v in values.split(",") if v.strip()]
        if not vals:
            raise DomainError(f"no values for grid variable {name!r}")
        axes.append((name, vals))
    if not axes:
        raise DomainError("empty grid")
    return axes


def _grid_int(text: str) -> int:
    """An integer grid value, as typed ("3") or as a range prints it ("3.0")."""
    value = Fraction(text)
    if value.denominator != 1:
        raise ValueError(f"n must be an integer, got {text!r}")
    return int(value)


def _table_cell(function: str, point: dict[str, str],
                cfg: QuadConfig | None) -> tuple[str, str]:
    try:
        if function == "gamma":
            s = float(Fraction(point["s"])) if "s" in point else float(point["n"])
            q = gamma_deg(s, float(Fraction(point["lambda"])), cfg)
            return format_float(q.value), format_float(q.abs_error_estimate)
        if function == "zeta":
            value, err, _ = _zeta_dispatch("auto", float(Fraction(point["s"])),
                                           point["x"], point["lambda"], cfg)
            return value, err
        if function == "zeta-neg":
            value = zeta_deg_neg(_grid_int(point["n"]), Fraction(point["x"]),
                                 Fraction(point["lambda"]))
            return str(value), ""
        if function == "euler":
            poly = euler_poly_deg(_grid_int(point["n"]), Fraction(point["lambda"]))
            if "x" in point:
                return str(poly(Fraction(point["x"]))), ""
            return str(poly), ""
    except (ValueError, ArithmeticError) as exc:
        return f"NA: {exc}", ""


_TABLE_REQUIRED = {
    "gamma": ({"s", "n"}, {"lambda"}),
    "zeta": (set(), {"s", "x", "lambda"}),
    "zeta-neg": (set(), {"n", "x", "lambda"}),
    "euler": (set(), {"n", "lambda"}),
}


def cmd_table(args) -> int:
    axes = _parse_grid(args.grid)
    names = [name for name, _ in axes]
    any_of, required = _TABLE_REQUIRED[args.function]
    missing = required - set(names)
    if missing:
        raise DomainError(f"grid for {args.function!r} must include "
                          f"{sorted(missing)}")
    if any_of and not (any_of & set(names)):
        raise DomainError(f"grid for {args.function!r} must include one of "
                          f"{sorted(any_of)}")
    cfg = _cfg_from(args)
    header = names + ["value", "abs_error_estimate"]
    rows = []
    for combo in product(*(vals for _, vals in axes)):
        point = dict(zip(names, combo))
        value, err = _table_cell(args.function, point, cfg)
        rows.append(list(combo) + [value, err])
    payload = {"function": args.function, "columns": header, "rows": rows}
    _emit(args, payload, ["  ".join(row) for row in [header] + rows],
          csv_header=header, csv_rows=rows)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    report = run_suite(args.suite)
    payload = report.to_dict()
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    payload.pop("wall_time_s")  # keep stdout byte-deterministic
    lines = []
    rows = []
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"{status}  {c.check_id}  residual={c.residual:.3e}")
        rows.append([status, c.check_id, format_float(c.residual),
                     repr(c.tolerance), c.anchor])
    lines.append(f"suite={report.suite} passed={report.passed} "
                 f"failed={report.failed}")
    _emit(args, payload, lines,
          csv_header=["status", "check_id", "residual", "tolerance", "anchor"],
          csv_rows=rows)
    return 0 if report.all_passed else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degzeta",
        description="degenerate Euler polynomial / gamma / zeta calculator "
                    "and verification suite",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("euler", help="degenerate Euler polynomial E_n(x|lambda)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=_rational, default=Fraction(0))
    p.add_argument("--x", type=_rational, default=None,
                   help="evaluate at rational x instead of printing coefficients")
    _add_format(p)
    p.set_defaults(func=cmd_euler)

    p = sub.add_parser("gamma", help="degenerate gamma Gamma(s|lambda) by quadrature")
    p.add_argument("--s", type=_finite, required=True)
    p.add_argument("--lambda", dest="lam", type=_finite, required=True)
    p.add_argument("--tol", type=float, default=None, help="relative quadrature tolerance")
    _add_format(p)
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("zeta", help="classical or degenerate Euler zeta")
    p.add_argument("--s", type=_finite, required=True)
    p.add_argument("--x", required=True, help="float or p/q")
    p.add_argument("--lambda", dest="lam", default="0", help="float or p/q; 0 = classical")
    p.add_argument("--method",
                   choices=("auto", "mellin", "continued"),
                   default="auto")
    p.add_argument("--tol", type=float, default=None)
    _add_format(p)
    p.set_defaults(func=cmd_zeta)

    p = sub.add_parser("zeta-neg",
                       help="exact values at s=-n (both closed-form candidates)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=_rational, required=True)
    p.add_argument("--lambda", dest="lam", type=_rational, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_zeta_neg)

    p = sub.add_parser("table", help="evaluate a function over a grid")
    p.add_argument("--function", choices=("euler", "gamma", "zeta", "zeta-neg"),
                   required=True)
    p.add_argument("--grid", required=True,
                   help='e.g. "n=1:4:4;lambda=0.1" or "s=0.5,1,2;x=1;lambda=0.1"')
    p.add_argument("--tol", type=float, default=None)
    _add_format(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", choices=(*SUITES, "all"), default="all")
    p.add_argument("--report", default=None, help="write the JSON report here")
    _add_format(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes a token that starts with '-' for an option unless it is
    # a plain negative decimal, so a negative p/q is joined as `--s=-3/2`;
    # `--l` to `--lambd` abbreviate `--lambda`, the one option from `--l`
    for i in range(len(argv) - 1, 0, -1):
        opt = argv[i - 1]
        if ((opt in ("--s", "--x") or len(opt) > 2 and "--lambda".startswith(opt))
                and re.match(r"-[\d.]", argv[i])):
            argv[i - 1:i + 1] = [f"{opt}={argv[i]}"]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # DomainError, NonConvergentError among the first two; OSError for a --report path
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
