"""Checks at sizes the tier-1 tests do not reach.

    python tests/at_scale.py [NAME...]

runs the named checks, or all of them (vertalign must be importable, for
example with ``PYTHONPATH=src``), prints ``NAME ok|FAIL SECONDS`` for each,
and exits 1 if any failed; an unknown NAME exits 2 and lists the checks.
A check takes no argument: it runs its CLI requests in this process, so
their sizes are written here alone.  CI runs each check by name under a
``timeout``, in one step of ``.github/workflows/tier1.yml``.  Fault checks
inject T through ``tests/_faults.py``.  pytest does not collect this
script: its name does not match ``test_*.py``.
"""

import ast
import cProfile
import csv
import importlib
import inspect
import io
import json
import math
import pkgutil
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import pytest

from _faults import fail_morphism, fault_chain, fault_lucas_row, fault_sweep, lose_last_range
from _reference import lifted, ring_one, root_power, scaled, zeta_power
from output_digest import load_workloads, requests, run
from test_tracer_targets import TARGETS as TRACER_TARGETS
import vertalign
from vertalign import alignment, curves, lockwood
from vertalign.cli import main as cli_main
from vertalign.combinatorics import lucas_row
from vertalign.quotient_ring import QuotientRingElement, from_rational, make_ring

CHECKS = {}


def check(function):
    """Register ``function`` under its name, with hyphens for underscores."""
    CHECKS[function.__name__.replace("_", "-")] = function
    return function


def request(*argv):
    """The stdout of one CLI request, which must exit 0 and write no stderr."""
    code, out, err = json.loads(run(cli_main, list(argv)))
    assert (code, err) == (0, ""), (argv, code, err[-500:])
    return out


def csv_rows(*argv):
    """The rows of ``--format csv ARGV``, header first."""
    return list(csv.reader(io.StringIO(request("--format", "csv", *argv))))


@check
def sweep_3000():
    """``sweep 3000`` prints the same exact text at one and two workers.

    Honest rows are proved by the chain of T, checked by T's ratio, in a few
    seconds; Horner on every row would run far past CI's timeout, so a lost
    induction or fast-forward to a range's first row fails here.
    """
    text = "checked 4498500 pairs with 2 <= n <= 3000, 0 < i < n\nfailures: none\n"
    for workers in ("1", "2"):
        assert request("sweep", "3000", "--workers", workers) == text, workers


@check
def sweep_fault():
    """T(1000, 250) + 1, through both names the sweep reads T by.

    The tests fault rows up to 120 only.  With T faulted in the ratio check
    ``_is_lucas_row`` and in ``lucas_row``, row 1000 alone fails the check
    and is evaluated by Horner on a list (well under a second on a 2-vCPU
    VM), and its failures must be exactly C(500, i - 250) at
    250 <= i <= 750, from math.comb.
    """
    with pytest.MonkeyPatch.context() as mp:
        fault_sweep(mp, (1000, 250, 1))
        summary = alignment.identity_sweep(1000)
    assert summary.pairs_checked == 999 * 1000 // 2
    expected = tuple((1000, i, math.comb(500, i - 250)) for i in range(250, 751))
    assert summary.failures == expected, [
        f for f in summary.failures if f[2] != math.comb(500, f[1] - 250)
    ][:3]


@check
def sweep_chain_fault():
    """The chain's row 1000 one larger at k = 250, T left honest.

    The ratio check must catch it, read ``lucas_row`` for n = 1000 alone,
    and report no failure.
    """
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        fault_chain(mp, 1000, 250, 1)
        honest = alignment.lucas_row
        mp.setattr(alignment, "lucas_row", lambda n: calls.append(n) or honest(n))
        summary = alignment.identity_sweep(1000)
    assert summary == (999 * 1000 // 2, ()), summary.failures[:3]
    assert calls == [1000], calls


@check
def lockwood_600():
    """``lockwood 600`` prints the same exact text at one and two workers.

    Each n is one masked Horner in (x + y)^2 on packed ints, about 2 s in
    all serially on a 2-vCPU VM, so CI's timeout catches a runaway expansion.
    """
    text = "x^n + y^n expansion identity for n = 1..600: all 600 hold\n"
    for workers in ("1", "2"):
        assert request("lockwood", "600", "--workers", workers) == text, workers


@check
def lockwood_fault_600():
    """T(600, 150) + 1 in the oracle, at a slot width of 764 bits.

    The output digest reaches only small n.  The residual must be
    (xy)^150 (x + y)^300: C(300, i - 150) at y^i, from math.comb.
    """
    with pytest.MonkeyPatch.context() as mp:
        fault_lucas_row(mp, lockwood, (600, 150, 1))
        residual = (lockwood.lockwood_rhs(600) - lockwood._x_n_plus_y_n(600)).coeffs
        assert not lockwood.verify_lockwood(600) and lockwood.verify_lockwood(599)
    expected = tuple(math.comb(300, i - 150) if 150 <= i <= 450 else 0 for i in range(601))
    assert residual == expected, [
        i for i, (c, e) in enumerate(zip(residual, expected)) if c != e
    ][:5]


@check
def lockwood_fault_601():
    """T(601, 300) + 1, the odd-n twin of ``lockwood-fault-600``.

    The residual (xy)^300 (x + y) sits in the top slot of the half and its
    mirror: it must be exactly 1 at y^300 and y^301 and 0 elsewhere.
    """
    with pytest.MonkeyPatch.context() as mp:
        fault_lucas_row(mp, lockwood, (601, 300, 1))
        residual = (lockwood.lockwood_rhs(601) - lockwood._x_n_plus_y_n(601)).coeffs
        assert not lockwood.verify_lockwood(601) and lockwood.verify_lockwood(600)
    assert residual == tuple(1 if i in (300, 301) else 0 for i in range(602)), [
        (i, c) for i, c in enumerate(residual) if c != (i in (300, 301))
    ][:5]


@check
def morphism_holds():
    """``verify-morphism`` holds at g = 800 and 840 (c = -7/11, i = 1) and 401.

    Phi_840 has 33 nonzero terms and phi(840) = 192, so with i = 1 every
    w^k past z^192 has several terms, which g = 800 (Phi has 5 terms) and
    the prime g = 401 with i = 0 never reach.
    """
    for argv in (("800", "-7/11", "1"), ("840", "-7/11", "1"), ("401", "3/5", "0")):
        assert "holds: yes" in request("verify-morphism", "--", *argv).splitlines(), argv


@check
def morphism_fault_401():
    """T(401, 150) + 1 in ``curves``, with c = 3/5 and i = 1.

    The tests fault g <= 13 only.  The residual must be exactly
    C(101, b - 150) w^b at x^(803 - 2b) for 150 <= b <= 251, with w^b from
    its own loop of products by w = zeta u, and zero elsewhere: its weights
    lifted into R(g, c), and the text written from them, past ceil(g/2)
    from the table of zeta^(ik) run on to k = g - 1.
    """
    spec = make_ring(401, Fraction(3, 5))
    with pytest.MonkeyPatch.context() as mp:
        fault_lucas_row(mp, curves, (401, 150, 1))
        check = curves.verify_morphism(spec, 1)
    assert not check.holds and len(check.zeta_table) == 401
    residual = lifted(spec, 1, check)[2]
    assert curves._curve_text(curves._morphism_curves(spec, check)[2]) == residual.to_text()
    w = zeta_power(spec, 1) * root_power(spec, 1)
    powers = [ring_one(spec)]
    for _ in range(251):
        powers.append(powers[-1] * w)
    zero = from_rational(spec, 0)
    expected = [zero] * 804
    expected[803 - 2 * 251:803 - 2 * 150 + 1:2] = [
        scaled(powers[b], math.comb(101, b - 150)) for b in range(251, 149, -1)
    ]
    assert residual == curves.RingPolynomial(spec, dict(enumerate(expected))), [
        e for e in range(804) if residual.coeffs.get(e, zero) != expected[e]
    ][:5]


@check
def morphism_one_product():
    """One ring product per honest check at g = 800 and 840, c = -7/11.

    The tests pin the count for g <= 80.  w^0..w^ceil(g/2) come from the
    table of zeta^(ik), with no product, and must equal the repeated
    products by w = zeta^i u for every k, for i = 0 and 1; Phi_840 has 33
    terms, so with i = 1 those products reduce through many of them.  The
    one product left is w^g = w^ceil(g/2) * w^(g//2).
    """
    for g in (800, 840):
        spec = make_ring(g, Fraction(-7, 11))
        for i in (0, 1):
            calls = []
            with pytest.MonkeyPatch.context() as mp:
                honest = QuotientRingElement.__mul__
                mp.setattr(QuotientRingElement, "__mul__",
                           lambda x, y: calls.append(1) or honest(x, y))
                assert curves.verify_morphism(spec, i).holds, (g, i)
            assert len(calls) == 1, (g, i, len(calls))
            w = zeta_power(spec, i) * root_power(spec, 1)
            table = curves._zeta_table(spec, i, (g + 1) // 2)
            w_to_k = ring_one(spec)
            for k in range(len(table)):
                assert curves._w_power(spec, table, k, 1) == w_to_k, (g, i, k)
                w_to_k = w_to_k * w


@check
def morphism_weights():
    """The pullback's integer stage is the oracle's row at g = 800.

    The tests compare the two routes for g <= 200.  They share no code: the
    pullback sums packed, unmasked Pascal rows of (x^2 + w)^m term by term,
    the oracle runs masked Horner in (x + y)^2.
    """
    weights = curves._pullback_weights(800, lucas_row(800))
    assert weights == list(lockwood.lockwood_rhs(800).coeffs)


@check
def morphism_csv():
    """``--format csv verify-morphism`` of honest checks at g = 401 and 840.

    The output digest reaches only g <= 12 in CSV.  An honest residual holds
    no term, yet the CSV writes 2g + 2 rows, x^(2g+1) down to x^0, each with
    its pullback cell equal to its source cell and its residual cell ``0``.
    """
    for g, c, i in ((401, "3/5", "0"), (840, "-7/11", "1")):
        header, *rows = csv_rows("verify-morphism", "--", str(g), c, i)
        assert header == ["x_exp", "pullback", "source", "residual"], header
        assert [row[0] for row in rows] == [str(e) for e in range(2 * g + 1, -1, -1)], g
        assert all(row[1] == row[2] and row[3] == "0" for row in rows), [
            row for row in rows if row[1] != row[2] or row[3] != "0"
        ][:3]


@check
def curve_csv():
    """``--format csv curve -- 840 -7/11 1``, the target curve at g = 840.

    The output digest reaches only g <= 7 in CSV.  The target holds only
    x^g, x^(g-2), ..., so there must be g + 1 data rows, x^g down to x^0,
    a cell of ``1`` at x^g, a nonzero cell at each exponent of g's parity,
    and a cell of exactly ``0`` at each of the other parity.
    """
    header, *rows = csv_rows("curve", "--", "840", "-7/11", "1")
    assert header == ["x_exp", "element"], header
    assert [row[0] for row in rows] == [str(e) for e in range(840, -1, -1)], len(rows)
    assert rows[0][1] == "1", rows[0]
    zeros = [int(e) for e, cell in rows if cell == "0"]
    assert zeros == list(range(839, -1, -2)), zeros[:3]


@check
def triangle_csv():
    """Every line of ``--format csv triangle 601`` is n,i,C(n, i), in order.

    Rows are written from mirrored half-rows; the output digest reaches only
    n = 300, so an off-by-one in the mirror at a large odd or even row fails
    here.
    """
    lines = request("--format", "csv", "triangle", "601").splitlines()
    expected = ["n,i,value"] + [
        f"{n},{i},{math.comb(n, i)}" for n in range(602) for i in range(n + 1)
    ]
    assert len(lines) == 602 * 603 // 2 + 1 and lines == expected, len(lines)


@check
def table_csv():
    """Every row of ``--format csv table 1 300`` against math.comb.

    The output digest reaches only g <= 120, and the ``records`` check
    compares the table's JSON with its CSV alone.  Row k of g must be
    g, k, (-1)^k, T(g, k), k, g - 2k, with (-1)^k T(g, k) the sum form
    (-1)^k (C(g-k, k) + C(g-k-1, k-1)), for k = 0..g//2.
    """
    header, *rows = csv_rows("table", "1", "300")
    assert header == ["g", "k", "sign", "magnitude", "zeta_exp", "x_exp"], header
    expected = []
    for g in range(1, 301):
        for k in range(g // 2 + 1):
            signed = (-1) ** k * (math.comb(g - k, k) + (math.comb(g - k - 1, k - 1) if k else 0))
            expected.append([str(v) for v in (g, k, (-1) ** k, abs(signed), k, g - 2 * k)])
    assert rows == expected, [(row, e) for row, e in zip(rows, expected) if row != e][:3] or len(rows)


@check
def identity_csv():
    """``--format csv identity 4000 3000`` against math.comb.

    T(n, 0..i) is one checked walk down the shallow diagonal C(n-k, k); the
    output digest reaches only n <= 1000.  Every signed coefficient must be
    the sum form (-1)^k (C(n-k, k) + C(n-k-1, k-1)), and the products must
    sum to 0.
    """
    n, i = 4000, 3000
    header, *rows = csv_rows("identity", str(n), str(i))
    assert header == ["k", "signed_coefficient", "binomial_value", "product"] and [
        int(row[0]) for row in rows
    ] == list(range(i + 1)), len(rows)
    assert [int(row[1]) for row in rows] == [
        (-1) ** k * (math.comb(n - k, k) + (math.comb(n - k - 1, k - 1) if k else 0))
        for k in range(i + 1)
    ]
    assert sum(int(row[3]) for row in rows) == 0


@check
def records():
    """The JSON of four requests against their CSV.

    JSON records are written from one template per header, text by column.
    The output digest reaches n <= 1000 and g <= 120; at larger sizes the
    JSON must still read back as json.dumps(indent=2) writes it, each of its
    columns must hold one JSON type, and its records must hold the header
    and values of the same request's CSV rows.
    """
    fields = {"identity": "terms", "aligned": "entries", "curve": "coefficients"}
    for argv in (("identity", "2000", "1750"), ("aligned", "2000", "1250"),
                 ("table", "1", "300"), ("curve", "--", "200", "-7/11", "1")):
        out = request("--format", "json", *argv)
        payload = json.loads(out)
        assert out == json.dumps(payload, indent=2) + "\n", argv
        if argv[0] == "table":
            records = [
                {"g": row["g"], **term} for row in payload["rows"] for term in row["coefficients"]
            ]
        else:
            records = payload[fields[argv[0]]]
        header, *rows = csv_rows(*argv)
        assert all(len({type(record[key]) for record in records}) == 1 for key in header), argv
        assert [[(key, str(value)) for key, value in record.items()] for record in records] == [
            list(zip(header, row)) for row in rows
        ], argv


# Value methods that comparisons and messages may call on any object.
_VALUE_DUNDERS = {"__eq__", "__hash__", "__repr__"}


def _defs(path):
    """{first line: qualified name} of every ``def`` in the module at ``path``.

    The first line is the one a code object reports: the first decorator's
    line when there is one.
    """
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[first] = prefix + child.name
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return found


def _tracer_codes():
    """(file, first line) of every function ``bench/tracer.py`` wraps by name."""
    codes = set()
    for module_name, class_name, attr, *_ in TRACER_TARGETS:
        module = importlib.import_module(f"vertalign.{module_name}")
        owner = vars(getattr(module, class_name)) if class_name else vars(module)
        code = inspect.unwrap(owner[attr]).__code__
        codes.add((code.co_filename, code.co_firstlineno))
    return codes


@check
def library_reached():
    """Every ``def`` in ``src/vertalign`` runs on some command-line request.

    The library keeps only what the command line runs.  One profile records
    every function called by the requests of ``tests/output_digest.py``, the
    benchmark's ``sweep`` pass for seed 1, and the failing runs of
    ``lockwood``, ``sweep`` and ``verify-morphism`` in all three formats,
    faulted and with a lost range through ``tests/_faults.py``.  Caches are
    cleared first, so a cached function runs here too.  A ``def`` that never
    runs fails the check, unless the benchmark tracer wraps it by name
    (``bench/tracer.py``'s ``TARGETS``) or it is ``__eq__``, ``__hash__`` or
    ``__repr__``.
    """
    modules = [vertalign] + [
        importlib.import_module(info.name)
        for info in pkgutil.iter_modules(vertalign.__path__, "vertalign.")
    ]
    for module in modules:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    lockwood_run, sweep_run = ["lockwood", "20"], ["sweep", "12"]
    failing = [
        (lambda mp: fault_lucas_row(mp, lockwood, (17, 3, 5)), lockwood_run),
        (lambda mp: fault_sweep(mp, (9, 2, 1)), sweep_run),
        (fail_morphism, ["verify-morphism", "--", "9", "-7/11", "1"]),
        # A negative weight: the pullback's integer stage carries as it unpacks.
        (lambda mp: fault_lucas_row(mp, curves, (9, 1, 1)),
         ["verify-morphism", "--", "9", "-7/11", "1"]),
        (lose_last_range, lockwood_run),
        (lose_last_range, sweep_run),
    ]
    profile = cProfile.Profile()
    profile.enable()
    try:
        for argv in requests() + load_workloads().generate("sweep", 1):
            run(cli_main, argv)
        for fault, argv in failing:
            with pytest.MonkeyPatch.context() as mp:
                fault(mp)
                for fmt in ("text", "json", "csv"):
                    code = json.loads(run(cli_main, ["--format", fmt, *argv]))[0]
                    assert code == 1, (argv, fmt, code)
    finally:
        profile.disable()
    called = {
        (entry.code.co_filename, entry.code.co_firstlineno)
        for entry in profile.getstats()
        if not isinstance(entry.code, str)
    }
    kept = _tracer_codes()
    never = []
    for module in modules:
        path = Path(module.__file__)
        for line, name in _defs(path).items():
            key = (str(path), line)
            if key in called or key in kept or name.rpartition(".")[2] in _VALUE_DUNDERS:
                continue
            never.append(f"{module.__name__.removeprefix('vertalign.')}.{name}")
    assert not never, f"never called by any command: {', '.join(never)}"


def main(argv):
    if not set(argv) <= set(CHECKS):
        print(f"usage: at_scale.py [NAME...]; NAME is one of: {' '.join(CHECKS)}",
              file=sys.stderr)
        return 2
    failed = False
    for name in argv or CHECKS:
        start = time.perf_counter()
        try:
            CHECKS[name]()
            verdict = "ok"
        except Exception:  # reported, and the next check still runs
            traceback.print_exc()
            failed, verdict = True, "FAIL"
        print(f"{name} {verdict} {time.perf_counter() - start:.2f}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
