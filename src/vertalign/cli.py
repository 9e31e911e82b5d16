"""Command-line surface for every verification in the package.

The subcommands, their help lines and their positionals are declared once,
in ``_COMMANDS``.  Global flags ``--format {text,json,csv}`` and
``--workers N`` may be given before or after the subcommand; every command
accepts ``--workers``, and only sweep and lockwood use it.

Exit codes: 0 when all requested verifications hold, 1 when any identity or
morphism check fails (the offending terms or residual are dumped), 2 on
usage errors (including arguments outside an operation's domain) and on
running out of memory or losing a worker process.  These last, 141 (a
closed output pipe) and 130 (Ctrl-C) say the run was cut short, not how a
verification came out.  All numeric output is exact decimal or
exact-fraction text; nothing is ever rounded.

The tabular commands (aligned, identity, curve) render one header and one
list of rows, in bulk.  For JSON they hand the pair to ``_json`` as
``_Records``, and ``_json`` places the records at the indent where it meets
them: one ``%s`` template per header and indent, built once and filled by
one ``%`` per row, which reads as ``json.dumps(indent=2)`` writes the same
records.  Text columns are built column by column: each column's cells are
written and right-aligned to their widest cell in one pass, then the lines
are joined.

``triangle`` and ``table`` write their answers from one template each.  The
triangle's CSV is one template holding the ``n,i,`` of every line, built
from n_max alone and filled by one ``%`` with the decimal cells.  Each
record of the table's JSON fills the same ``_record_template`` straight from
its tuple (k, (-1)^k, T(g, k), k, g - 2k), inside one fixed block per g,
and its CSV rows are those tuples after g, written by one format string.

``main`` may be called any number of times in one process: the parser is
built on the first call and reused, and each call dispatches to the
``_cmd_*`` handler that the module holds at that moment.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import re
import sys
from collections import namedtuple
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .alignment import aligned_entries, identity_sum, identity_sweep, map_row_ranges
from .combinatorics import lucas_row, pascal_halves
from .curves import (
    _morphism_curves,
    _zeta_table,
    build_target,
    table_rows,
    table_text,
    verify_morphism,
)
from .lockwood import BivariatePolynomial, _residual, _verify_range
from .quotient_ring import make_ring

__all__ = ["main"]

_TRIANGLE_GRID_LIMIT = 20  # beyond this, centered text rendering is unreadable


# The exponent of a decimal literal such as 2.5e-3, if there is one.
_EXPONENT = re.compile(r"e([-+]?[\d_]+)\s*\Z", re.IGNORECASE)
# A single underscore between two digits, as in 1_000 (PEP 515).
_DIGIT_UNDERSCORE = re.compile(r"(?<=\d)_(?=\d)")


def _nonzero_rational(text: str) -> Fraction:
    """``text`` as a nonzero Fraction whose numerator and denominator,
    written out, have no more digits than ``int()`` reads (4,300 if
    unlimited).

    In exponent form, a nonzero mantissa times 10**e puts more than
    |e| - len(text) digits in one of them, so a longer e is refused before
    ``Fraction`` builds 10**e (with a zero mantissa too: c = 0 is refused).

    ``Fraction`` reads PEP 515 underscores only from Python 3.11, so each
    single underscore between two digits is removed first: every supported
    Python reads the same literals.  Any other underscore is kept, and
    refused, as in ``1__0``, ``_1`` or ``1_``.
    """
    limit = _get_int_digits() or 4300
    try:
        exponent = _EXPONENT.search(text)
        if exponent and abs(int(exponent[1])) > limit + len(text):
            raise ValueError
        value = Fraction(_DIGIT_UNDERSCORE.sub("", text))
        top = max(abs(value.numerator), value.denominator)
        # 8**limit < 10**limit: only a long value needs the exact test.
        if top.bit_length() > 3 * limit and top >= 10**limit:
            raise ValueError
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected an integer or p/q rational, got {text!r}"
        )
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
    """An ArgumentParser that reads every token starting ``-<digit>`` or
    ``-.<digit>`` as a positional.

    argparse treats any token that starts with '-' as a flag unless it looks
    like a negative number, and its notion of a number stops at decimals, so
    ``verify-morphism 4 -7/11 1``, ``curve 2 -1e5 1`` or ``curve 2 -1_000
    1`` would fail on a missing ``i``.  No flag starts that way, so the
    token goes to its argument's type, which accepts it or names it in the
    usage error.  Subparsers inherit the class, so every subcommand sees the
    wider pattern.

    It also refuses a second ``--`` taken as a positional's value, which
    argparse would pass on as ``[]`` without calling the type (``curve -- 1
    -- 0`` would reach ``make_ring`` with ``c = []``).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def _get_values(self, action, arg_strings):
        value = super()._get_values(action, arg_strings)
        if action.nargs is None and value == []:
            raise argparse.ArgumentError(action, "expected a value, got '--'")
        return value


def _emit_csv(header: list[str], rows: list[list] | list[tuple]) -> str:
    # Every field is an int, a bool or ring text, none of which holds a comma,
    # quote or line break, so csv.writer would quote nothing and write str()
    # of each field, as "%s" does.
    fmt = ",".join(["%s"] * len(header))
    return "\n".join([",".join(header), *map(fmt.__mod__, map(tuple, rows))])


# A table that ``_json`` writes as a list of records, one per row keyed by
# the header, at the indent where it meets the table.
_Records = namedtuple("_Records", ["header", "rows"])

_PLAIN_INT = {int}


def _json(value, indent: str = "\n") -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it; ``indent`` is
    the newline and spaces that come before its closing bracket.

    It equals json.dumps because it writes what the stdlib's pure-Python
    encoder writes (``encode_basestring_ascii``, ``int.__repr__``, true,
    false, ``","`` and ``": "``), at C speed for a list of plain ints.
    ``_Records`` are written as the list of their records.  Any other type,
    None and int subclasses other than bool among them, or a dict key that
    is not a str, raises TypeError: no command writes them.
    """
    if type(value) is int:
        return int.__repr__(value)
    if type(value) is _Records:
        return _records(*value, indent)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if set(map(type, value)) == _PLAIN_INT:
            items = map(int.__repr__, value)
        else:
            items = [_json(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        # encode_basestring_ascii raises TypeError on a key that is not a str.
        items = [
            encode_basestring_ascii(key) + ": " + _json(item, inner)
            for key, item in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# Text of a record cell by its exact type: what _json writes for that type.
_CELL_TEXT = {int: int.__repr__, str: encode_basestring_ascii}


@functools.cache
def _record_template(header: tuple[str, ...], indent: str) -> str:
    """One record of ``header`` as ``json.dumps(indent=2)`` writes it in a
    list closed at ``indent``, with ``%s`` for each value."""
    inner = indent + "  "
    keys = [encode_basestring_ascii(key).replace("%", "%%") for key in header]
    return "{" + ",".join(inner + "  " + key + ": %s" for key in keys) + inner + "}"


def _records(header: list[str], rows: list[list], indent: str) -> str:
    """The JSON list of one object per row keyed by the header, closed at
    ``indent``.

    Each column's cells are written by one ``map`` over their type's text
    and each row fills the header's template by one ``%``, so an int cell
    reads as ``int.__repr__`` and a str cell as ``encode_basestring_ascii``,
    as in ``_json``.  A column of any other type, or of more than one,
    raises TypeError.  ``rows`` is not empty: every tabular command writes
    at least one row.
    """
    columns = []
    for column in zip(*rows):
        kinds = set(map(type, column))
        if len(kinds) > 1 or not kinds <= _CELL_TEXT.keys():
            names = " and ".join(sorted(kind.__name__ for kind in kinds))
            raise TypeError(f"Column of type {names} is not JSON serializable")
        columns.append(map(_CELL_TEXT[kinds.pop()], column))
    inner = indent + "  "
    records = map(_record_template(tuple(header), indent).__mod__, zip(*columns))
    return "[" + inner + ("," + inner).join(records) + indent + "]"


def _columns(headers: list[str], rows: list[list]) -> str:
    """Right-aligned text columns under their headers, two spaces apart."""
    columns = []
    for column in zip(headers, *rows):
        cells = [*map(str, column)]
        columns.append(map(str.rjust, cells, itertools.repeat(max(map(len, cells)))))
    return "\n".join(map("  ".join, zip(*columns)))


def _cmd_triangle(args: argparse.Namespace) -> int:
    n_max = args.n_max
    if n_max < 0:
        raise ValueError(f"triangle requires n_max >= 0, got {n_max}")
    # Each half-row is written in decimal once; the row is those strings
    # followed by their mirror image, without the middle entry of an even row.
    rows = []
    for n, half in enumerate(pascal_halves(n_max)):
        text = [*map(str, half)]
        rows.append(text + text[: (n + 1) // 2][::-1])
    if args.format == "json":
        # json.dumps(indent=2) of {"n_max": n_max, "rows": rows} as ints.
        body = ",\n    ".join(["[\n      " + ",\n      ".join(row) + "\n    ]" for row in rows])
        print(f'{{\n  "n_max": {n_max},\n  "rows": [\n    {body}\n  ]\n}}')
    elif args.format == "csv":
        # The "n,i," of every line comes from n_max alone, so one template
        # holds them all and one % fills it with the cells in row order.
        index = [f"{i},%s" for i in range(n_max + 1)]
        template = "n,i,value" + "".join(
            f"\n{n}," + f"\n{n},".join(index[: n + 1]) for n in range(n_max + 1)
        )
        print(template % tuple(itertools.chain.from_iterable(rows)))
    elif n_max <= _TRIANGLE_GRID_LIMIT:
        # Centered layout: row n occupies every other cell starting at
        # column n_max - n, so entries in alternating rows share columns.
        width = len(rows[-1][n_max // 2])  # the largest entry
        blank = " " * width
        for n, row in enumerate(rows):
            cells = [blank] * (2 * n_max + 1)
            for i, v in enumerate(row):
                cells[n_max - n + 2 * i] = v.rjust(width)
            print(" ".join(cells).rstrip())
    else:
        for n, row in enumerate(rows):
            print(f"row {n}: " + " ".join(row))
    return 0


def _cmd_aligned(args: argparse.Namespace) -> int:
    n, i = args.n, args.i
    header = ["k", "row", "index", "value"]
    rows = [[k, n - 2 * k, i - k, value] for k, value in enumerate(aligned_entries(n, i))]
    if args.format == "json":
        print(_json({"n": n, "i": i, "entries": _Records(header, rows)}))
    elif args.format == "csv":
        print(_emit_csv(header, rows))
    else:
        print(f"entries vertically aligned with entry i={i} of row n={n}")
        print(_columns(header, rows))
    return 0


def _cmd_identity(args: argparse.Namespace) -> int:
    terms, total = identity_sum(args.n, args.i)
    holds = total == 0
    header = ["k", "signed_coefficient", "binomial_value", "product"]
    rows = [[k, coeff, value, coeff * value] for k, (coeff, value) in enumerate(terms)]
    if args.format == "json":
        print(_json({
            "n": args.n,
            "i": args.i,
            "terms": _Records(header, rows),
            "total": total,
            "holds": holds,
        }))
    elif args.format == "csv":
        print(_emit_csv(header, rows))
    else:
        print(f"alignment identity at n={args.n}, i={args.i}")
        print(_columns(["k", "coefficient", "binomial", "product"], rows))
        print(f"total = {total}")
        print(f"holds: {'yes' if holds else 'no'}")
    return 0 if holds else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    summary = identity_sweep(args.n_max, workers=args.workers)
    failures = summary.failures
    # A pass needs every pair checked: a range that never reported leaves
    # the count short, as for ``lockwood``.
    expected = args.n_max * (args.n_max - 1) // 2
    all_checked = summary.pairs_checked == expected
    if args.format == "json":
        print(_json({
            "n_max": args.n_max,
            "pairs_checked": summary.pairs_checked,
            "failures": failures,
        }))
    elif args.format == "csv":
        print(_emit_csv(["n", "i", "total"], failures))
    else:
        print(
            f"checked {summary.pairs_checked} pairs with 2 <= n <= {args.n_max}, 0 < i < n"
        )
        if failures:
            for n, i, total in failures:
                print(f"FAIL n={n} i={i} total={total}")
        else:
            print("failures: none")
        if not all_checked:
            print(f"only {summary.pairs_checked} of {expected} pairs checked")
    return 0 if all_checked and not failures else 1


def _cmd_lucas_row(args: argparse.Namespace) -> int:
    row = lucas_row(args.n)
    if args.format == "json":
        print(_json({"n": args.n, "coefficients": list(row)}))
    elif args.format == "csv":
        print(_emit_csv(["k", "coefficient"], list(enumerate(row))))
    else:
        print(f"T({args.n}, k) for k = 0..{args.n // 2}: " + " ".join(map(str, row)))
    return 0


def _cmd_lockwood(args: argparse.Namespace) -> int:
    if args.n_max < 1:
        raise ValueError(f"lockwood requires n_max >= 1, got {args.n_max}")
    parts = map_row_ranges(_verify_range, 1, args.n_max, args.workers)
    # All hold only if every n was checked: a range that never reported
    # leaves the count short, and then the run is not a pass.
    checked = sum(len(ns) for ns, _ in parts)
    failures = [n for _, part_failures in parts for n in part_failures]
    all_hold = checked == args.n_max and not failures
    if args.format == "json":
        print(_json({
            "n_max": args.n_max,
            "checked": checked,
            "all_hold": all_hold,
            "failures": failures,
        }))
    elif args.format == "csv":
        # Rows only for the n a returned range covered: an n no range
        # reported was not checked, so it is not written as holding.
        failed = set(failures)
        print(_emit_csv(["n", "holds"], [[n, n not in failed] for ns, _ in parts for n in ns]))
    else:
        if failures:
            print(f"x^n + y^n expansion identity fails for n in {failures}")
            for n in failures:
                print(f"residual for n={n}: {BivariatePolynomial(_residual(n)).to_text()}")
        elif all_hold:
            print(
                f"x^n + y^n expansion identity for n = 1..{args.n_max}: "
                f"all {args.n_max} hold"
            )
        if checked != args.n_max:
            print(
                f"x^n + y^n expansion identity for n = 1..{args.n_max}: "
                f"only {checked} of {args.n_max} checked"
            )
    return 0 if all_hold else 1


def _cmd_curve(args: argparse.Namespace) -> int:
    spec = make_ring(args.g, args.c)
    f = build_target(spec, _zeta_table(spec, args.i, spec.g // 2), lucas_row(spec.g))
    if args.format == "text":
        print(f"C_{args.i} over R(g={args.g}, c={args.c}): {f.equation_text()}")
        return 0
    cells = f.cells()
    header = ["x_exp", "element"]
    rows = [[exp, cells.get(exp, "0")] for exp in range(max(cells, default=-1), -1, -1)]
    if args.format == "json":
        print(_json({
            "g": spec.g,
            "c": str(spec.c),
            "i": args.i,
            "equation": f.equation_text(),
            "coefficients": _Records(header, rows),
        }))
    else:
        print(_emit_csv(header, rows))
    return 0


def _cmd_verify_morphism(args: argparse.Namespace) -> int:
    spec = make_ring(args.g, args.c)
    check = verify_morphism(spec, args.i)
    source, pullback, residual = _morphism_curves(spec, check)
    if args.format == "csv":
        # The CSV holds no equation, so the target is not written.  Every
        # row is zero but those of the exponents a curve holds.
        top = 2 * spec.g + 1
        rows = list(zip(range(top, -1, -1), *[itertools.repeat("0")] * 3))
        cells = [f.cells() for f in (pullback, source, residual)]
        for exp in set().union(*cells):
            rows[top - exp] = (exp, *(f.get(exp, "0") for f in cells))
        print(_emit_csv(["x_exp", "pullback", "source", "residual"], rows))
        return 0 if check.holds else 1
    target = build_target(spec, check.zeta_table, check.lucas).equation_text()
    source, pullback, residual = source.equation_text(), pullback.to_text(), residual.to_text()
    if args.format == "json":
        print(_json({
            "g": spec.g,
            "c": str(spec.c),
            "i": args.i,
            "holds": check.holds,
            "source": source,
            "target": target,
            "pullback": pullback,
            "residual": residual,
            "x_map_nonconstant": True,
        }))
    else:
        print(f"morphism check for g={spec.g}, c={spec.c}, i={args.i}")
        print(f"source:   {source}")
        print(f"target:   {target}")
        print("x-map:    (x^2 + w)/x with w = zeta^i*c^(1/g) (nonconstant)")
        print(f"pullback: y^2 = {pullback}")
        print(f"residual: {residual}")
        print(f"holds: {'yes' if check.holds else 'no'}")
    return 0 if check.holds else 1


def _table_columns(g: int, row: tuple[int, ...]) -> tuple:
    """The columns k, (-1)^k, T(g, k), k and g - 2k of the target curve for g."""
    ks = range(len(row))
    return ks, itertools.cycle((1, -1)), row, ks, range(g, -1, -2)


# One g's entry of the table's JSON, closed at an indent of four.
_TABLE_BLOCK = '{\n      "g": %s,\n      "coefficients": [\n        %s\n      ]\n    }'


def _cmd_table(args: argparse.Namespace) -> int:
    rows = table_rows(args.g_min, args.g_max)
    if args.format == "text":
        print(table_text(rows))
        return 0
    header = ("k", "sign", "magnitude", "zeta_exp", "x_exp")
    if args.format == "json":
        # json.dumps(indent=2) of {"rows": [{"g": g, "coefficients": records}]};
        # every cell is an int, written by %s as int.__repr__ writes it.
        record = _record_template(header, "\n      ").__mod__
        blocks = [
            _TABLE_BLOCK % (g, ",\n        ".join(map(record, zip(*_table_columns(g, row)))))
            for g, row in rows
        ]
        print('{\n  "rows": [\n    ' + ",\n    ".join(blocks) + "\n  ]\n}")
    else:
        print(_emit_csv(["g", *header], list(itertools.chain.from_iterable(
            zip(itertools.repeat(g), *_table_columns(g, row)) for g, row in rows
        ))))
    return 0


# Each subcommand's help line and positionals, in ``-h`` order.  ``c`` is
# read by ``_nonzero_rational``, every other positional by ``int``.
_COMMANDS = {
    "triangle": ("render Pascal's triangle", ["n_max"]),
    "aligned": ("entries vertically aligned with C(n, i)", ["n", "i"]),
    "identity": ("evaluate the alignment identity at (n, i)", ["n", "i"]),
    "sweep": ("check the identity for all pairs up to n_max", ["n_max"]),
    "lucas-row": ("Lucas coefficient triangle row T(n, .)", ["n"]),
    "lockwood": ("verify the x^n + y^n expansion identity for n = 1..n_max", ["n_max"]),
    "curve": ("build the target curve C_i over R(g, c)", ["g", "c", "i"]),
    "verify-morphism": (
        "check that pulling back C_i reproduces y^2 = x^(2g+1) + c*x",
        ["g", "c", "i"],
    ),
    "table": ("tabulate target curves for a range of g", ["g_min", "g_max"]),
}


_FORMATS = ("text", "json", "csv")

# The top-level usage, laid out as argparse lays it out at 80 columns on
# Python 3.10-3.12.  argparse's own layout differs from 3.13 on (the "..."
# joins the line of choices), so it is given whole, and every Python the
# package admits prints the same bytes.  It does not rewrap with COLUMNS.
_USAGE_INDENT = "\n" + " " * len("usage: vertalign ")
_USAGE = (
    "%(prog)s [-h] [--format {" + ",".join(_FORMATS) + "}] [--workers WORKERS]"
    + _USAGE_INDENT + "{" + ",".join(_COMMANDS) + "}"
    + _USAGE_INDENT + "..."
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=_FORMATS,
        default=argparse.SUPPRESS,
        help="output format (default: text)",
    )
    common.add_argument(
        "--workers",
        type=_workers,
        default=argparse.SUPPRESS,
        help="worker processes for sweep and lockwood (default: 1); "
        "the other commands accept it and ignore it",
    )

    parser = _Parser(
        prog="vertalign",
        usage=_USAGE,
        description="Exact checks of the vertical-alignment dependence in "
        "Pascal's triangle and the curve morphisms built from it.",
    )
    # These two options are written out in _USAGE as well.
    parser.add_argument("--format", choices=_FORMATS, default="text")
    parser.add_argument("--workers", type=_workers, default=1)
    # The subcommands' prog is named here: argparse would otherwise build it
    # from the top-level usage, which is given whole.
    sub = parser.add_subparsers(dest="command", required=True, prog="vertalign")

    for command, (help_line, positionals) in _COMMANDS.items():
        p = sub.add_parser(command, parents=[common], help=help_line)
        for name in positionals:
            p.add_argument(name, type=_nonzero_rational if name == "c" else int)

    return parser


# Python 3.10 builds before 3.10.7 have no int/str digit limit to lift.
_get_int_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)
_set_int_digits = getattr(sys, "set_int_max_str_digits", lambda digits: None)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    limit = _get_int_digits()
    try:
        args = parser.parse_args(argv)
        # Exact answers may run past the interpreter's int/str digit limit
        # (4,300 by default); argv is parsed under it, so a huge argument is
        # still refused before any work starts.
        _set_int_digits(0)
        # Looked up per call, not bound into the parser, so a handler replaced
        # after the first call is the one that runs.
        handler = globals()["_cmd_" + args.command.replace("-", "_")]
        code = handler(args)
        sys.stdout.flush()
        return code
    except (ValueError, ChildProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader went away.  Point stdout at devnull so the interpreter's
        # flush at exit does not raise again (see the ``signal`` module docs).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except KeyboardInterrupt:
        return 130
    finally:
        _set_int_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
