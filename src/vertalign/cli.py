"""Command-line surface for every verification in the package.

Subcommands: triangle, aligned, identity, sweep, lucas-row, lockwood, curve,
verify-morphism, table.  Global flags ``--format {text,json,csv}`` and
``--workers N`` may be given before or after the subcommand.

Exit codes: 0 when all requested verifications hold, 1 when any identity or
morphism check fails (the offending terms or residual are dumped), 2 on
usage errors (including arguments outside an operation's domain).  All
numeric output is exact decimal or exact-fraction text; nothing is ever
rounded.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import io
import json
import re
import sys
from fractions import Fraction

from .alignment import aligned_entries, identity_sum, identity_sweep
from .combinatorics import lucas_row, pascal_row
from .curves import build_target, table_rows, table_text, verify_morphism
from .lockwood import BivariatePolynomial, lockwood_rhs, verify_lockwood
from .quotient_ring import make_ring

__all__ = ["main"]

_TRIANGLE_GRID_LIMIT = 20  # beyond this, centered text rendering is unreadable


def _rational(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected an integer or p/q rational, got {text!r}"
        )
    return value


def _nonzero_rational(text: str) -> Fraction:
    value = _rational(text)
    if value == 0:
        raise argparse.ArgumentTypeError("c must be nonzero")
    return value


def _workers(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a negative p/q literal as a positional.

    argparse treats any token that starts with '-' as a flag unless it looks
    like a negative number, and its notion of a number stops at decimals, so
    ``verify-morphism 4 -7/11 1`` would fail on a missing ``i``.  Subparsers
    inherit the class, so every subcommand sees the wider pattern.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+/\d+$")


def _emit_csv(header: list[str], rows: list[list]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().rstrip("\n")


def _emit_json(payload: dict) -> str:
    return json.dumps(payload, indent=2)


def _columns(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for idx, cell in enumerate(row):
            widths[idx] = max(widths[idx], len(cell))
    lines = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
    for row in rows:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _cmd_triangle(args: argparse.Namespace) -> int:
    if args.n_max < 0:
        raise ValueError(f"triangle requires n_max >= 0, got {args.n_max}")
    rows = [pascal_row(n) for n in range(args.n_max + 1)]
    if args.format == "json":
        print(_emit_json({"n_max": args.n_max, "rows": rows}))
    elif args.format == "csv":
        data = [[n, i, v] for n, row in enumerate(rows) for i, v in enumerate(row)]
        print(_emit_csv(["n", "i", "value"], data))
    elif args.n_max <= _TRIANGLE_GRID_LIMIT:
        # Centered layout: row n occupies every other cell starting at
        # column n_max - n, so entries in alternating rows share columns.
        width = max(len(str(v)) for row in rows for v in row)
        blank = " " * width
        for n, row in enumerate(rows):
            cells = [blank] * (2 * args.n_max + 1)
            for i, v in enumerate(row):
                cells[args.n_max - n + 2 * i] = str(v).rjust(width)
            print(" ".join(cells).rstrip())
    else:
        for n, row in enumerate(rows):
            print(f"row {n}: " + " ".join(str(v) for v in row))
    return 0


def _cmd_aligned(args: argparse.Namespace) -> int:
    column = aligned_entries(args.n, args.i)
    entries = [
        {"k": e.k, "row": column.n - 2 * e.k, "index": column.i - e.k, "value": e.value}
        for e in column.entries
    ]
    if args.format == "json":
        print(_emit_json({"n": column.n, "i": column.i, "entries": entries}))
    elif args.format == "csv":
        print(_emit_csv(
            ["k", "row", "index", "value"],
            [[e["k"], e["row"], e["index"], e["value"]] for e in entries],
        ))
    else:
        print(f"entries vertically aligned with entry i={column.i} of row n={column.n}")
        print(_columns(
            ["k", "row", "index", "value"],
            [[str(e["k"]), str(e["row"]), str(e["index"]), str(e["value"])] for e in entries],
        ))
    return 0


def _cmd_identity(args: argparse.Namespace) -> int:
    report = identity_sum(args.n, args.i)
    if args.format == "json":
        print(_emit_json(report.to_dict()))
    elif args.format == "csv":
        print(_emit_csv(
            ["k", "signed_coefficient", "binomial_value", "product"],
            [[t.k, t.signed_coefficient, t.binomial_value, t.product] for t in report.terms],
        ))
    else:
        print(f"alignment identity at n={report.n}, i={report.i}")
        print(_columns(
            ["k", "coefficient", "binomial", "product"],
            [
                [str(t.k), str(t.signed_coefficient), str(t.binomial_value), str(t.product)]
                for t in report.terms
            ],
        ))
        print(f"total = {report.total}")
        print(f"holds: {'yes' if report.holds else 'no'}")
    return 0 if report.holds else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    summary = identity_sweep(args.n_max, workers=args.workers)
    failures = [[n, i, total] for n, i, total in summary.failures]
    if args.format == "json":
        print(_emit_json({
            "n_max": summary.n_max,
            "pairs_checked": summary.pairs_checked,
            "failures": failures,
        }))
    elif args.format == "csv":
        print(_emit_csv(["n", "i", "total"], failures))
    else:
        print(
            f"checked {summary.pairs_checked} pairs with 2 <= n <= {summary.n_max}, 0 < i < n"
        )
        if failures:
            for n, i, total in failures:
                print(f"FAIL n={n} i={i} total={total}")
        else:
            print("failures: none")
    return 0 if not failures else 1


def _cmd_lucas_row(args: argparse.Namespace) -> int:
    row = lucas_row(args.n)
    if args.format == "json":
        print(_emit_json({"n": row.n, "coefficients": list(row.coefficients)}))
    elif args.format == "csv":
        print(_emit_csv(["k", "coefficient"], list(enumerate(row.coefficients))))
    else:
        values = " ".join(str(v) for v in row.coefficients)
        print(f"T({row.n}, k) for k = 0..{row.n // 2}: {values}")
    return 0


def _cmd_lockwood(args: argparse.Namespace) -> int:
    if args.n_max < 1:
        raise ValueError(f"lockwood requires n_max >= 1, got {args.n_max}")
    ns = range(1, args.n_max + 1)
    if args.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.workers) as pool:
            verdicts = list(pool.map(verify_lockwood, ns, chunksize=8))
    else:
        verdicts = [verify_lockwood(n) for n in ns]
    failures = [n for n, ok in zip(ns, verdicts) if not ok]
    if args.format == "json":
        print(_emit_json({
            "n_max": args.n_max,
            "checked": len(verdicts),
            "all_hold": not failures,
            "failures": failures,
        }))
    elif args.format == "csv":
        print(_emit_csv(["n", "holds"], [[n, ok] for n, ok in zip(ns, verdicts)]))
    else:
        if failures:
            print(f"x^n + y^n expansion identity fails for n in {failures}")
            for n in failures:
                expected = BivariatePolynomial({(n, 0): 1, (0, n): 1})
                print(f"residual for n={n}: {(lockwood_rhs(n) - expected).to_text()}")
        else:
            print(
                f"x^n + y^n expansion identity for n = 1..{args.n_max}: "
                f"all {len(verdicts)} hold"
            )
    return 0 if not failures else 1


def _curve_payload(equation) -> dict:
    return {
        "g": equation.g,
        "c": str(equation.c),
        "i": equation.i,
        "equation": equation.equation_text(),
        "coefficients": [
            {"x_exp": exp, "element": equation.f.coefficient(exp).to_text()}
            for exp in range(equation.f.degree, -1, -1)
        ],
    }


def _cmd_curve(args: argparse.Namespace) -> int:
    spec = make_ring(args.g, args.c)
    target = build_target(spec, args.i)
    if args.format == "json":
        print(_emit_json(_curve_payload(target)))
    elif args.format == "csv":
        print(_emit_csv(
            ["x_exp", "element"],
            [
                [exp, target.f.coefficient(exp).to_text()]
                for exp in range(target.f.degree, -1, -1)
            ],
        ))
    else:
        print(f"C_{args.i} over R(g={args.g}, c={args.c}): {target.equation_text()}")
    return 0


def _cmd_verify_morphism(args: argparse.Namespace) -> int:
    spec = make_ring(args.g, args.c)
    report = verify_morphism(spec, args.i)
    if args.format == "json":
        print(_emit_json({
            "g": report.g,
            "c": str(report.c),
            "i": report.i,
            "holds": report.holds,
            "source": report.source.equation_text(),
            "target": report.target.equation_text(),
            "pullback": report.pullback.to_text(),
            "residual": report.residual.to_text(),
            "x_map_nonconstant": report.x_map_nonconstant,
        }))
    elif args.format == "csv":
        top = max(report.pullback.degree, report.source.f.degree, 0)
        rows = [
            [
                exp,
                report.pullback.coefficient(exp).to_text(),
                report.source.f.coefficient(exp).to_text(),
                report.residual.coefficient(exp).to_text(),
            ]
            for exp in range(top, -1, -1)
        ]
        print(_emit_csv(["x_exp", "pullback", "source", "residual"], rows))
    else:
        print(f"morphism check for g={report.g}, c={report.c}, i={report.i}")
        print(f"source:   {report.source.equation_text()}")
        print(f"target:   {report.target.equation_text()}")
        print("x-map:    (x^2 + w)/x with w = zeta^i*c^(1/g) (nonconstant)")
        print(f"pullback: y^2 = {report.pullback.to_text()}")
        print(f"residual: {report.residual.to_text()}")
        print(f"holds: {'yes' if report.holds else 'no'}")
    return 0 if report.holds else 1


def _cmd_table(args: argparse.Namespace) -> int:
    rows = table_rows(args.g_min, args.g_max)
    if args.format == "json":
        print(_emit_json({
            "rows": [
                {
                    "g": row.g,
                    "coefficients": [
                        {
                            "k": e.k,
                            "sign": e.sign,
                            "magnitude": e.magnitude,
                            "zeta_exp": e.zeta_exp,
                            "x_exp": e.x_exp,
                        }
                        for e in row.entries
                    ],
                }
                for row in rows
            ],
        }))
    elif args.format == "csv":
        data = [
            [row.g, e.k, e.sign, e.magnitude, e.zeta_exp, e.x_exp]
            for row in rows
            for e in row.entries
        ]
        print(_emit_csv(["g", "k", "sign", "magnitude", "zeta_exp", "x_exp"], data))
    else:
        print(table_text(rows))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default=argparse.SUPPRESS,
        help="output format (default: text)",
    )
    common.add_argument(
        "--workers",
        type=_workers,
        default=argparse.SUPPRESS,
        help="worker processes for sweep commands (default: 1)",
    )

    parser = _Parser(
        prog="vertalign",
        description="Exact checks of the vertical-alignment dependence in "
        "Pascal's triangle and the curve morphisms built from it.",
    )
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    parser.add_argument("--workers", type=_workers, default=1)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("triangle", parents=[common], help="render Pascal's triangle")
    p.add_argument("n_max", type=int)
    p.set_defaults(handler=_cmd_triangle)

    p = sub.add_parser(
        "aligned", parents=[common], help="entries vertically aligned with C(n, i)"
    )
    p.add_argument("n", type=int)
    p.add_argument("i", type=int)
    p.set_defaults(handler=_cmd_aligned)

    p = sub.add_parser(
        "identity", parents=[common], help="evaluate the alignment identity at (n, i)"
    )
    p.add_argument("n", type=int)
    p.add_argument("i", type=int)
    p.set_defaults(handler=_cmd_identity)

    p = sub.add_parser(
        "sweep", parents=[common], help="check the identity for all pairs up to n_max"
    )
    p.add_argument("n_max", type=int)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser(
        "lucas-row", parents=[common], help="Lucas coefficient triangle row T(n, .)"
    )
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_lucas_row)

    p = sub.add_parser(
        "lockwood",
        parents=[common],
        help="verify the x^n + y^n expansion identity for n = 1..n_max",
    )
    p.add_argument("n_max", type=int)
    p.set_defaults(handler=_cmd_lockwood)

    p = sub.add_parser(
        "curve", parents=[common], help="build the target curve C_i over R(g, c)"
    )
    p.add_argument("g", type=int)
    p.add_argument("c", type=_nonzero_rational)
    p.add_argument("i", type=int)
    p.set_defaults(handler=_cmd_curve)

    p = sub.add_parser(
        "verify-morphism",
        parents=[common],
        help="check that pulling back C_i reproduces y^2 = x^(2g+1) + c*x",
    )
    p.add_argument("g", type=int)
    p.add_argument("c", type=_nonzero_rational)
    p.add_argument("i", type=int)
    p.set_defaults(handler=_cmd_verify_morphism)

    p = sub.add_parser(
        "table", parents=[common], help="tabulate target curves for a range of g"
    )
    p.add_argument("g_min", type=int)
    p.add_argument("g_max", type=int)
    p.set_defaults(handler=_cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
