"""Acceptance suite: every release criterion, checked exactly (tolerance 0).

Each test prints one ``criterion NN PASS`` line on success (run with
``pytest tests/test_acceptance.py -v -s`` to see them); a pytest failure is
the corresponding FAIL line.  Everything is integer or rational arithmetic,
so there are no tolerances anywhere to tune.
"""

import json
import random
from fractions import Fraction

import sympy

from _reference import (
    TABLE_ROWS_EXPECTED,
    aligned_term,
    built_target,
    coefficient_facts,
    folded_equation,
    lifted,
    ring_one,
    ring_power,
    root_power,
    scaled,
    sum_form_rows,
    term_coefficient,
    zeta_power,
)
import vertalign.cli as cli
from vertalign.alignment import identity_sum, identity_sweep
from vertalign.combinatorics import binomial, lucas_coeff, lucas_row
from vertalign.curves import table_rows, target_text, verify_morphism
from vertalign.cyclotomic import cyclotomic
from vertalign.lockwood import BivariatePolynomial, lockwood_rhs, verify_lockwood
from vertalign.quotient_ring import from_rational, make_ring

RING_SPECS = [
    make_ring(1, 7),
    make_ring(2, 3),
    make_ring(5, 1),
    make_ring(6, 1),
    make_ring(6, 2),
    make_ring(7, 3),
    make_ring(8, -1),
    make_ring(11, 1),
    make_ring(12, Fraction(3, 5)),
    make_ring(40, 2),
]


def _ok(num: int, text: str) -> None:
    print(f"criterion {num:02d} PASS: {text}")


def test_criterion_01_worked_example_11_3():
    terms, total = identity_sum(11, 3)
    assert terms == ((1, 165), (-11, 36), (44, 7), (-77, 1))
    assert total == 0
    _ok(1, "identity_sum(11, 3) reproduces 165 - 11*36 + 44*7 - 77*1 = 0")


def test_criterion_02_worked_example_12_6():
    terms, total = identity_sum(12, 6)
    assert terms == (
        (1, 924),
        (-12, 252),
        (54, 70),
        (-112, 20),
        (105, 6),
        (-36, 2),
        (2, 1),
    )
    assert total == 0
    _ok(2, "identity_sum(12, 6) reproduces the seven-term cancellation")


def test_criterion_03_identity_exhaustive_to_300():
    summary = identity_sweep(300)
    assert summary.pairs_checked == 44850
    assert summary.failures == ()
    # The sweep amortizes row computations; pin it to the one-shot routine
    # exhaustively on a prefix and on a seeded sample of large pairs.
    for n in range(2, 41):
        for i in range(1, n):
            assert identity_sum(n, i)[1] == 0
    rng = random.Random(300300)
    for _ in range(150):
        n = rng.randrange(41, 301)
        i = rng.randrange(1, n)
        assert identity_sum(n, i)[1] == 0
    _ok(3, "identity holds for all 44850 pairs with 0 < i < n <= 300")


def test_criterion_04_expansion_oracle():
    for n in range(1, 61):
        expected = BivariatePolynomial((1,) + (0,) * (n - 1) + (1,))
        assert lockwood_rhs(n) == expected
    for n in range(1, 61):
        for k in range(n // 2 + 1):
            block = aligned_term(n, k)
            for i in range(n + 1):
                assert block.coeffs[i] == binomial(n - 2 * k, i - k)
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randrange(1, 61)
        k = rng.randrange(0, n // 2 + 1)
        i = rng.randrange(0, n + 1)
        assert term_coefficient(n, k, i) == binomial(n - 2 * k, i - k)
    for n in range(1, 201):
        assert verify_lockwood(n)
    _ok(4, "expanded sum equals x^n + y^n (n <= 200) and extraction matches binomials (n <= 60)")


def test_criterion_05_lucas_rows_and_cross_formula():
    assert lucas_row(5) == (1, 5, 5)
    assert lucas_row(6) == (1, 6, 9, 2)
    assert lucas_row(11) == (1, 11, 44, 77, 55, 11)
    rows = sum_form_rows(1000)
    for n in range(1, 1001):
        assert tuple(lucas_coeff(n, k) for k in range(n)) == rows[n]
    _ok(5, "Lucas rows 5/6/11 and rational-vs-sum formulas agree for n <= 1000")


def test_lucas_row_recurrence_matches_sum_form():
    # lockwood and verify-morphism read T only through lucas_row's ratio
    # recurrence, and sweep checks its chain against the same ratio; pin it
    # to the sum form over criterion 05's range.
    rows = sum_form_rows(1000)
    for n in range(1, 1001):
        assert lucas_row(n) == rows[n][: n // 2 + 1]


def test_criterion_06_curve_table_5_to_11(capsys):
    rows = table_rows(5, 11)
    assert [g for g, _ in rows] == list(range(5, 12))
    for g, row in rows:
        assert list(row) == [magnitude for _, magnitude, _, _ in TABLE_ROWS_EXPECTED[g]]
    # Sign, zeta exponent and x exponent are written by the command line.
    assert cli.main(["--format", "json", "table", "5", "11"]) == 0
    payload = json.loads(capsys.readouterr().out)["rows"]
    assert [row["g"] for row in payload] == list(range(5, 12))
    for row in payload:
        got = [(t["sign"], t["magnitude"], t["zeta_exp"], t["x_exp"]) for t in row["coefficients"]]
        assert got == TABLE_ROWS_EXPECTED[row["g"]]
    _ok(6, "tabulated curves for g = 5..11 match coefficient-for-coefficient")


def test_criterion_07_worked_morphisms():
    for g, text in ((5, "y^2 = x^5 - 5*x^3 + 5*x"), (6, "y^2 = x^6 - 6*x^4 + 9*x^2 - 2")):
        spec = make_ring(g, 1)
        check = verify_morphism(spec, 0)
        assert check.holds and not lifted(spec, 0, check)[2].coeffs
        target = target_text(spec, check.zeta_table, check.lucas)
        assert target == text
        assert target == folded_equation(built_target(spec, 0))
    _ok(7, "g=5 and g=6 unit-c morphisms hold with the stated targets")


def test_criterion_08_morphism_property_suite():
    cases = 0
    for g in range(1, 41):
        for c in (Fraction(1), Fraction(2), Fraction(-1), Fraction(3, 5)):
            spec = make_ring(g, c)
            for i in (0, 1):
                check = verify_morphism(spec, i)
                residual = lifted(spec, i, check)[2]
                assert check.holds and not residual.coeffs, f"residual nonzero for g={g}, c={c}, i={i}"
                cases += 1
    assert cases == 320
    _ok(8, "all 320 (g, c, i) morphism verifications hold for g <= 40")


def test_criterion_09_closed_form_coefficients():
    for g in range(2, 101):
        facts = coefficient_facts(g)
        assert facts.second == -g
        if g % 2 == 0:
            assert (facts.last, facts.last_exponent) == (2 * (-1) ** (g // 2), 0)
        else:
            assert (facts.last, facts.last_exponent) == (g * (-1) ** ((g - 1) // 2), 1)
        spec = make_ring(g, 1)
        f = built_target(spec, 0)
        assert f.coeffs.get(g - 2) == scaled(root_power(spec, 1), facts.second)
        k_last = g // 2
        assert f.coeffs.get(facts.last_exponent) == scaled(root_power(spec, k_last), 
            facts.last
        )
    _ok(9, "second/last coefficient closed forms match extraction for g = 2..100")


def test_criterion_10_ring_integrity():
    z = sympy.symbols("z")
    for g in range(1, 121):
        product = sympy.Poly(1, z)
        for d in sympy.divisors(g):
            product *= sympy.Poly(list(reversed(cyclotomic(d))), z)
        assert product == sympy.Poly(z**g - 1, z)
    for spec in RING_SPECS:
        one = ring_one(spec)
        assert zeta_power(spec, spec.g) == one
        assert ring_power(root_power(spec, 1), spec.g) == from_rational(spec, spec.c)
        for m in range(1, spec.g):
            assert zeta_power(spec, m) != one
    _ok(10, "cyclotomic products, defining relations and primitivity all hold")
