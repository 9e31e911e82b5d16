"""Checks at sizes the tier-1 tests do not reach, run one by name.

    python tests/at_scale.py NAME [ARG...]

runs the check NAME with its arguments: the files a file check reads, and
any size it takes (vertalign must be importable, for example with
``PYTHONPATH=src``).  A check that fails
raises AssertionError, so the exit status is 1; an unknown NAME exits 2 and
lists the checks.  CI runs each one in ``.github/workflows/tier1.yml`` under
a ``timeout``; the fault checks inject T through ``tests/_faults.py``.
pytest does not collect this script: its name does not match ``test_*.py``.
"""

import csv
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from _faults import fault_chain, fault_lucas_row, fault_sweep
from vertalign import alignment, curves, lockwood
from vertalign.combinatorics import lucas_row
from vertalign.quotient_ring import from_rational, make_ring, ring_one, root_power, zeta_power

CHECKS = {}


def check(function):
    """Register ``function`` under its name, with hyphens for underscores."""
    CHECKS[function.__name__.replace("_", "-")] = function
    return function


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
def morphism_fault_401():
    """T(401, 150) + 1 in ``curves``, with c = 3/5 and i = 1.

    The tests fault g <= 13 only.  The residual must be exactly
    C(101, b - 150) w^b at x^(803 - 2b) for 150 <= b <= 251, with w^b from
    its own loop of products by w = zeta u, and zero elsewhere.
    """
    spec = make_ring(401, Fraction(3, 5))
    with pytest.MonkeyPatch.context() as mp:
        fault_lucas_row(mp, curves, (401, 150, 1))
        residual = curves.verify_morphism(spec, 1)[3]
    w = zeta_power(spec, 1) * root_power(spec, 1)
    powers = [ring_one(spec)]
    for _ in range(251):
        powers.append(powers[-1] * w)
    zero = from_rational(spec, 0)
    expected = [zero] * 804
    expected[803 - 2 * 251:803 - 2 * 150 + 1:2] = [
        powers[b].scale(math.comb(101, b - 150)) for b in range(251, 149, -1)
    ]
    assert residual == curves.RingPolynomial(spec, dict(enumerate(expected))), [
        e for e in range(804) if residual.coeffs.get(e, zero) != expected[e]
    ][:5]


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
def morphism_csv(path, g):
    """``--format csv verify-morphism -- G C I`` of an honest check at genus G.

    The output digest reaches only g <= 12 in CSV.  There must be 2G + 2
    data rows, x^(2G+1) down to x^0, each with its pullback cell equal to
    its source cell and its residual cell exactly ``0``.
    """
    top = 2 * int(g) + 1
    with open(path, newline="") as file:
        header, *rows = csv.reader(file)
    assert header == ["x_exp", "pullback", "source", "residual"], header
    assert [row[0] for row in rows] == [str(e) for e in range(top, -1, -1)], len(rows)
    assert all(row[1] == row[2] and row[3] == "0" for row in rows), [
        row for row in rows if row[1] != row[2] or row[3] != "0"
    ][:3]


@check
def curve_csv(path, g):
    """``--format csv curve -- G C I`` of the target curve at genus G.

    The output digest reaches only g <= 7 in CSV.  The target holds only
    x^G, x^(G-2), ..., so there must be G + 1 data rows, x^G down to x^0,
    a cell of ``1`` at x^G, a nonzero cell at each exponent of G's parity,
    and a cell of exactly ``0`` at each of the other parity.
    """
    g = int(g)
    with open(path, newline="") as file:
        header, *rows = csv.reader(file)
    assert header == ["x_exp", "element"], header
    assert [row[0] for row in rows] == [str(e) for e in range(g, -1, -1)], len(rows)
    assert rows[0][1] == "1", rows[0]
    zeros = [int(e) for e, cell in rows if cell == "0"]
    assert zeros == list(range(g - 1, -1, -2)), zeros[:3]


@check
def triangle_csv(path):
    """Every line of ``--format csv triangle 601`` is n,i,C(n, i), in order.

    Rows are written from mirrored half-rows; the output digest reaches only
    n = 300, so an off-by-one in the mirror at a large odd or even row fails
    here.
    """
    lines = Path(path).read_text().splitlines()
    expected = ["n,i,value"] + [
        f"{n},{i},{math.comb(n, i)}" for n in range(602) for i in range(n + 1)
    ]
    assert len(lines) == 602 * 603 // 2 + 1 and lines == expected, len(lines)


@check
def identity_csv(path):
    """``--format csv identity 4000 3000`` against math.comb.

    T(n, 0..i) is one checked walk down the shallow diagonal C(n-k, k); the
    output digest reaches only n <= 1000.  Every signed coefficient must be
    the sum form (-1)^k (C(n-k, k) + C(n-k-1, k-1)), and the products must
    sum to 0.
    """
    n, i = 4000, 3000
    with open(path, newline="") as file:
        header, *rows = csv.reader(file)
    assert header == ["k", "signed_coefficient", "binomial_value", "product"] and [
        int(row[0]) for row in rows
    ] == list(range(i + 1)), len(rows)
    assert [int(row[1]) for row in rows] == [
        (-1) ** k * (math.comb(n - k, k) + (math.comb(n - k - 1, k - 1) if k else 0))
        for k in range(i + 1)
    ]
    assert sum(int(row[3]) for row in rows) == 0


@check
def records(command, json_path, csv_path):
    """The JSON of one request against its CSV.

    JSON records are written from one template per header, text by column.
    The output digest reaches n <= 1000 and g <= 120; at larger sizes the
    JSON must still read back as json.dumps(indent=2) writes it, and its
    records must hold the header and values of the same request's CSV rows.
    """
    out = Path(json_path).read_text()
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2) + "\n", command
    if command == "table":
        records = [
            {"g": row["g"], **term} for row in payload["rows"] for term in row["coefficients"]
        ]
    else:
        field = {"identity": "terms", "aligned": "entries", "curve": "coefficients"}[command]
        records = payload[field]
    with open(csv_path, newline="") as file:
        header, *rows = csv.reader(file)
    assert [[(key, str(value)) for key, value in record.items()] for record in records] == [
        list(zip(header, row)) for row in rows
    ], command


def main(argv):
    if not argv or argv[0] not in CHECKS:
        print(f"usage: at_scale.py NAME [ARG...]; NAME is one of: {' '.join(CHECKS)}",
              file=sys.stderr)
        return 2
    name, *args = argv
    CHECKS[name](*args)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
