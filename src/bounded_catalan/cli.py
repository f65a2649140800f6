"""Command-line front end for batch computations.

Subcommands: ``enumerate`` (counts by oracle / dp / series with an
agreement verdict), ``gf`` (reduced generating function), ``recurrence``,
``growth`` (component radii and rates), ``graph`` (DOT export of the
dependency graph), and ``table`` (growth-rate table over a list of m).

Exit codes: 0 success, 2 validation error, 3 internal cross-check failure
(an enumerate DISAGREE), so CI pipelines can gate on agreement.  All
results go to stdout, diagnostics to stderr.  The radius search of
``growth`` and ``table`` never builds the state system W; only the exact
routes do (``gf``, ``recurrence``, ``graph``, series counts and the pole
data of ``growth``).  ``growth`` and ``table`` reject m > 519, where a
row sum of the first radius product overflows a float, with exit code 2
before any work is done.  ``table`` computes its m values one after another.
``enumerate`` rejects an ``--oracle-cap`` outside 0..MAX_ORACLE_CAP (14) the
same way: the brute-force oracle takes about 4 s to n = 14 at m = 30, and
each further n costs about four times more.
``gf``, ``recurrence``, ``growth --pole on`` and ``enumerate`` with series
counts reject m > MAX_GF_M (21), with exit code 2 before any counting or
solving: a cold ``gf --m 21`` takes about 21 s, and each further m about
1.5 times more.
``graph`` rejects m > MAX_GRAPH_M (300) the same way: a cold ``graph``
peaks at 92 MB at m = 150 and 472 MB at m = 300 in either format, and
takes 0.65 s and 3.1-4.7 s with ``--format plain``, 1.3 s and 9-12.5 s
with the default ``--format dot``, which is written one target at a
time.  Exact
coefficients are integers; JSON output writes those of ``gf`` and
``recurrence`` as decimal strings, so none passes through a float.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from math import inf

from .core_combinatorics import DEFAULT_ORACLE_CAP, MAX_ORACLE_CAP, brute_force_count
from .gf_solver import (
    check_gf_range,
    dp_counts,
    generating_function,
    recurrence,
    recurrence_order_bound,
)
from .growth_analysis import (
    DEFAULT_TOL,
    check_numeric_range,
    full_growth_report,
    growth_constants,
)
from .polynomial_algebra import series_coeffs
from .state_system import build_system, output_accessible, to_dot

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CHECK_FAILED = 3


class ValidationError(ValueError):
    pass


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_VALIDATION


def _emit_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True))


def _poly_strings(poly) -> list[str]:
    return [str(c) for c in poly.coeffs]


def parse_m_list(text: str) -> list[int]:
    """Parse "2-10,20,50,100" into the explicit list of m values."""
    values: list[int] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise ValidationError(f"empty entry in m-list {text!r}")
        if "-" in chunk:
            lo_s, _, hi_s = chunk.partition("-")
            try:
                lo, hi = int(lo_s), int(hi_s)
            except ValueError:
                raise ValidationError(f"bad range {chunk!r} in m-list")
            if lo > hi:
                raise ValidationError(f"descending range {chunk!r} in m-list")
            values.extend(range(lo, hi + 1))
        else:
            try:
                values.append(int(chunk))
            except ValueError:
                raise ValidationError(f"bad entry {chunk!r} in m-list")
    if any(m < 1 for m in values):
        raise ValidationError("m values must be >= 1")
    return values


def cmd_enumerate(args) -> int:
    methods = ["oracle", "dp", "series"] if args.method == "all" else [args.method]
    n_max = args.n
    if n_max < 0:
        return _fail("--n must be >= 0")
    if args.oracle_cap < 0:
        return _fail("--oracle-cap must be >= 0")
    if args.oracle_cap > MAX_ORACLE_CAP:
        return _fail(f"--oracle-cap must be <= {MAX_ORACLE_CAP}")
    if args.method == "oracle" and n_max > args.oracle_cap:
        return _fail(f"oracle method needs --n <= oracle cap {args.oracle_cap}")
    if "series" in methods:
        check_gf_range(args.m)
    columns: dict[str, list] = {}
    if "oracle" in methods:
        # one walk of the generating tree counts every length up to top
        top = min(n_max, args.oracle_cap)
        counts = brute_force_count(args.m, top, oracle_cap=args.oracle_cap, levels=True)
        columns["oracle"] = list(counts) + [None] * (n_max - top)
    if "dp" in methods:
        table = dp_counts(args.m, max(n_max, 1), states=[(inf, inf)])
        columns["dp"] = table.unrestricted()[: n_max + 1]
    if "series" in methods:
        columns["series"] = series_coeffs(generating_function(args.m), n_max)
    agree = None
    if args.method == "all":
        agree = True
        for n in range(n_max + 1):
            present = {columns[name][n] for name in columns if columns[name][n] is not None}
            if len(present) > 1:
                agree = False
    if args.format == "json":
        _emit_json({"m": args.m, "n_max": n_max, "sequences": columns, "agree": agree})
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["n", *columns])
        for n in range(n_max + 1):
            writer.writerow([n, *(columns[name][n] for name in columns)])
    else:
        for name in columns:
            shown = ", ".join("-" if v is None else str(v) for v in columns[name])
            print(f"{name:>7}: {shown}")
        if agree is not None:
            print("AGREE" if agree else "DISAGREE")
    if agree is False:
        print("cross-check failed: methods disagree", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _recurrence_payload(m: int) -> dict:
    rec = recurrence(m)
    return {
        "order": rec.order,
        "coeffs": [str(c) for c in rec.lag_coeffs],
        "valid_from": rec.valid_from,
    }


def _gf_payload(m: int) -> dict:
    gf = generating_function(m)
    return {
        "m": m,
        "num": _poly_strings(gf.num),
        "den": _poly_strings(gf.den),
        "recurrence": _recurrence_payload(m),
        "bound_d_m": recurrence_order_bound(m),
    }


def cmd_gf(args) -> int:
    if args.format == "json":
        _emit_json(_gf_payload(args.m))
    else:
        print(generating_function(args.m))
    return EXIT_OK


def cmd_recurrence(args) -> int:
    if args.format == "json":
        payload = _recurrence_payload(args.m)
        payload.update(m=args.m, bound_d_m=recurrence_order_bound(args.m))
        _emit_json(payload)
    else:
        rec = recurrence(args.m)
        terms = []
        for j, c in enumerate(rec.lag_coeffs, start=1):
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            coeff = "" if mag == 1 else f"{mag}*"
            terms.append(f"{sign} {coeff}a(n-{j})")
        rhs = " ".join(terms).lstrip("+ ")
        print(f"a(n) = {rhs}   for n >= {rec.valid_from}   (order {rec.order})")
    return EXIT_OK


def cmd_growth(args) -> int:
    include_pole = {"on": True, "off": False, "auto": None}[args.pole]
    if include_pole:
        check_gf_range(args.m)
    report = full_growth_report(args.m, args.tol, include_pole=include_pole)
    if args.format == "json":
        _emit_json(asdict(report))
        return EXIT_OK
    print(f"m = {report.m}")
    if report.lambda_U is not None:
        print(f"lambda_U = {report.lambda_U:.6f}   (r_U in [{report.r_U[0]:.12f}, {report.r_U[1]:.12f}])")
        print(f"lambda_V = {report.lambda_V:.6f}   (r_V in [{report.r_V[0]:.12f}, {report.r_V[1]:.12f}])")
        print(f"dominant component: {report.dominant_component}")
    print(f"alpha = {report.alpha:.6f}")
    print(f"lower bound C_(m-1)^(1/(m+1)) = {report.lower_bound:.6f}")
    if report.rho is not None:
        print(f"rho = {report.rho:.12f}")
    if report.pole_simple is not None:
        print(f"dominant pole simple: {report.pole_simple}, kappa = {report.kappa:.6f}")
        if report.next_pole_modulus is not None:
            print(
                "next pole modulus >= "
                f"{report.next_pole_modulus:.6f} (positive real roots only)"
            )
    return EXIT_OK


def cmd_graph(args) -> int:
    sys_m = build_system(args.m)
    if args.format == "dot":
        sys.stdout.writelines(to_dot(sys_m))
        return EXIT_OK
    for comp in sys_m.sccs:
        kind = comp.tag or ("cyclic" if comp.cyclic else "acyclic")
        line = f"{kind}: {list(comp.members)}"
        if comp.cyclic:
            line += f"  weighted_period={comp.weighted_period}"
            line += f"  output_accessible={output_accessible(sys_m, comp)}"
        print(line)
    return EXIT_OK


def cmd_table(args) -> int:
    ms = parse_m_list(args.m_list)
    for m in ms:
        check_numeric_range(m)
    reports = [growth_constants(m, args.tol) for m in ms]
    if args.format == "json":
        _emit_json([asdict(r) for r in reports])
        return EXIT_OK
    writer = csv.writer(sys.stdout)
    writer.writerow(["m", "lambda_U", "lambda_V", "alpha", "lower_bound"])
    for r in reports:
        writer.writerow(
            [
                r.m,
                "" if r.lambda_U is None else f"{r.lambda_U:.3f}",
                "" if r.lambda_V is None else f"{r.lambda_V:.3f}",
                f"{r.alpha:.3f}",
                f"{r.lower_bound:.3f}",
            ]
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bounded-catalan",
        description="Exact enumeration and growth analysis of 132-avoiding "
        "permutations with bounded adjacent differences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="count sequences a_0..a_n by several methods")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="largest length n")
    p.add_argument("--method", choices=["oracle", "dp", "series", "all"], default="all")
    p.add_argument("--format", choices=["plain", "json", "csv"], default="plain")
    p.add_argument("--oracle-cap", type=int, default=DEFAULT_ORACLE_CAP)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("gf", help="reduced rational generating function")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--format", choices=["plain", "json"], default="plain")
    p.set_defaults(func=cmd_gf)

    p = sub.add_parser("recurrence", help="linear recurrence from the denominator")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--format", choices=["plain", "json"], default="plain")
    p.set_defaults(func=cmd_recurrence)

    p = sub.add_parser("growth", help="component radii, growth rates, pole data")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--pole", choices=["auto", "on", "off"], default="auto")
    p.add_argument("--format", choices=["plain", "json"], default="plain")
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("graph", help="dependency graph of the state system")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--format", choices=["dot", "plain"], default="dot")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("table", help="growth-rate table over a list of m values")
    p.add_argument("--m-list", required=True, help='e.g. "2-10,20,50,100"')
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
