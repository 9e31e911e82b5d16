import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from _faults import forbid, perturbed
from _reference import binomial_falling, falling_row, lucas_coeff_alt
from vertalign import combinatorics
from vertalign.combinatorics import (
    _is_lucas_row,
    _lucas_coeffs,
    aligned_column,
    binomial,
    lucas_coeff,
    lucas_row,
    pascal_halves,
    pascal_row,
)


class TestBinomial:
    @pytest.mark.parametrize(
        "m, r, expected",
        [
            (11, 3, 165),
            (5, 0, 1),
            (0, 0, 1),
            (3, 5, 0),
            (-1, 2, 1),  # (-1)(-2)/2!
            (-1, 3, -1),
            (-3, 2, 6),
            (10, -1, 0),
            (-5, -2, 0),
        ],
    )
    def test_values(self, m, r, expected):
        assert binomial(m, r) == expected

    def test_matches_math_comb_on_classical_domain(self):
        for m in range(0, 61):
            for r in range(0, m + 1):
                assert binomial(m, r) == math.comb(m, r)

    def test_zero_between_zero_and_r(self):
        for r in range(1, 40):
            for m in range(0, r):
                assert binomial(m, r) == 0

    @given(st.integers(1, 400), st.integers(0, 400))
    def test_pascal_recurrence(self, n, i):
        if i > n:
            i = n
        if i == 0:
            assert binomial(n, 0) == 1
        else:
            assert binomial(n, i) == binomial(n - 1, i - 1) + binomial(n - 1, i)

    @given(st.integers(0, 300))
    def test_row_symmetry(self, n):
        for i in range(n + 1):
            assert binomial(n, i) == binomial(n, n - i)

    @given(st.integers(-200, -1), st.integers(0, 50))
    def test_upper_negation(self, m, r):
        assert binomial(m, r) == (-1) ** r * binomial(r - m - 1, r)

    def test_negative_upper_index_matches_falling_factorial(self):
        # binomial() reflects m < 0 onto math.comb; the falling-factorial
        # product shares no step with that.
        for m in range(-300, 0):
            assert [binomial(m, r) for r in range(401)] == falling_row(m, 400)

    @given(st.integers(-10**6, 10**6), st.integers(-3, 300))
    @settings(max_examples=200)
    def test_matches_sympy_and_falling_factorial(self, m, r):
        # sympy extends C(m, r) to negative m by the same convention, and is
        # 0 for r < 0.
        assert binomial(m, r) == binomial_falling(m, r) == int(sympy.binomial(m, r))


class TestAlignedColumn:
    def test_matches_binomial_in_every_band(self):
        # k <= i runs through the nonzero band, the zero band 0 <= n-2k < i-k
        # and the band n-2k < 0, where the walk is reseeded.
        for n in range(81):
            for i in range(n + 1):
                expected = tuple(binomial(n - 2 * k, i - k) for k in range(i + 1))
                assert aligned_column(n, i, i + 1) == expected, (n, i)

    @pytest.mark.parametrize("n, i", [(1000, 875), (999, 500)])
    def test_matches_sympy(self, n, i):
        assert aligned_column(n, i, i + 1) == tuple(
            int(sympy.binomial(n - 2 * k, i - k)) for k in range(i + 1)
        )

    def test_every_ratio_step_checks_its_remainder(self, monkeypatch):
        # A wrong seed C(12, 6) = 925 (it is 924) leaves a remainder at the
        # first step instead of walking on with wrong values.
        honest = combinatorics.binomial
        monkeypatch.setattr(
            combinatorics, "binomial", lambda m, r: 925 if (m, r) == (12, 6) else honest(m, r)
        )
        with pytest.raises(AssertionError, match=r"C\(10, 5\) ratio left remainder 36"):
            aligned_column(12, 6, 7)


class TestLucasCoeffs:
    def test_matches_closed_and_sum_forms(self):
        # Whole rows through both bands, C(n-k, k) nonzero up to k = n//2 and
        # 0 after it; then every count up to n = 120 (to 300 that takes about
        # 3 s), and past it the counts at the ends of both bands.
        for n in range(1, 301):
            full = _lucas_coeffs(n, n)
            assert full == [lucas_coeff(n, k) for k in range(n)], n
            assert full == [lucas_coeff_alt(n, k) for k in range(n)], n
            counts = range(n + 1) if n <= 120 else {0, 1, n // 2, n // 2 + 1, n // 2 + 2, n - 1, n}
            for count in counts:
                assert _lucas_coeffs(n, count) == full[:count], (n, count)

    @pytest.mark.parametrize("n, count", [(5, 6), (1, 2), (0, 1), (-3, 0), (5, -1)])
    def test_count_past_n_raises(self, n, count):
        with pytest.raises(ValueError, match="0 <= count <= n"):
            _lucas_coeffs(n, count)

    @pytest.mark.parametrize(
        "delta, message",
        [
            # C(10, 2) read as 46: the closed form 12 * 46 / 10 is not whole.
            (1, r"T\(12, 2\) = n\*C\(n-k,k\)/\(n-k\) left remainder 2"),
            # C(10, 2) read as 50 passes the closed form (T = 60), so the next
            # ratio step, 50 * 8 * 7 / (3 * 10), has to catch it.
            (5, r"C\(9, 3\) ratio left remainder 10"),
        ],
    )
    def test_every_division_checks_its_remainder(self, monkeypatch, delta, message):
        # The step from C(11, 1) to C(10, 2) at n = 12 is the walk's only
        # division by 2 * 11 = 22; it hands the next divisions a wrong seed.
        def wrong_step(a, b):
            value, rest = divmod(a, b)
            return (value + delta, rest) if b == 22 else (value, rest)

        monkeypatch.setattr(combinatorics, "divmod", wrong_step, raising=False)
        with pytest.raises(AssertionError, match=message):
            _lucas_coeffs(12, 12)


class TestLucasCoeff:
    @pytest.mark.parametrize(
        "n, k, expected",
        [
            (5, 1, 5),
            (5, 2, 5),
            (12, 2, 54),
            (12, 6, 2),
            (11, 3, 77),
            (6, 2, 9),
            (6, 3, 2),
            (2, 1, 2),
        ],
    )
    def test_values(self, n, k, expected):
        assert lucas_coeff(n, k) == expected
        assert lucas_coeff_alt(n, k) == expected

    def test_k_zero_is_one(self):
        for n in range(1, 80):
            assert lucas_coeff(n, 0) == 1
            assert lucas_coeff_alt(n, 0) == 1

    def test_vanishing_tail(self):
        for n in range(1, 60):
            for k in range(n // 2 + 1, n):
                assert lucas_coeff(n, k) == 0

    def test_cross_formula_agreement(self):
        for n in range(1, 121):
            for k in range(n):
                assert lucas_coeff(n, k) == lucas_coeff_alt(n, k)

    @given(st.integers(1, 800))
    @settings(max_examples=60)
    def test_cross_formula_agreement_random_rows(self, n):
        for k in range(0, n, max(1, n // 13)):
            assert lucas_coeff(n, k) == lucas_coeff_alt(n, k)

    def test_rational_route_is_integral(self):
        # The defining fraction n/(n-k) * C(n-k, k) is always an integer;
        # restate that here without going through the function.
        for n in range(1, 200):
            for k in range(n):
                q = Fraction(n, n - k) * binomial(n - k, k)
                assert q.denominator == 1

    @pytest.mark.parametrize("n, k", [(0, 0), (5, 5), (5, 6), (3, -1), (-2, 0)])
    def test_domain_errors(self, n, k):
        with pytest.raises(ValueError):
            lucas_coeff(n, k)
        with pytest.raises(ValueError):
            lucas_coeff_alt(n, k)


class TestLucasRow:
    @pytest.mark.parametrize(
        "n, expected",
        [
            (1, (1,)),
            (5, (1, 5, 5)),
            (6, (1, 6, 9, 2)),
            (11, (1, 11, 44, 77, 55, 11)),
        ],
    )
    def test_rows(self, n, expected):
        assert lucas_row(n) == expected

    def test_leading_entries(self):
        for n in range(2, 80):
            row = lucas_row(n)
            assert row[0] == 1
            assert row[1] == n

    def test_rejects_n_zero(self):
        with pytest.raises(ValueError):
            lucas_row(0)

    def test_row_length(self):
        for n in range(1, 80):
            assert len(lucas_row(n)) == n // 2 + 1


class TestIsLucasRow:
    def test_accepts_every_row_of_lucas_row(self):
        # The sweep proves rows with this check and reads lucas_row only for
        # a row that fails it, so this ties lucas_row to the check.
        assert all(_is_lucas_row(n, lucas_row(n)) for n in range(2, 1001))

    def test_rejects_every_other_row(self):
        # Multiples of T pass every ratio, as do a truncated row and one
        # with a trailing 0 as far as the ratios reach.
        for n in range(2, 61):
            row = lucas_row(n)
            wrong = [row[:-1], row + (0,)] + [tuple(c * t for t in row) for c in (0, -1, 2)]
            wrong += [
                perturbed(row, k, delta) for k in range(len(row)) for delta in (1, -1, 2**4000)
            ]
            assert [bad for bad in wrong if _is_lucas_row(n, bad)] == [], n


class TestLucasRowsByAddition:
    @pytest.mark.parametrize("first", [0, 1, 57])
    def test_matches_sum_form_without_lucas_row(self, monkeypatch, first):
        forbid(monkeypatch, "the additive chain read lucas_row", (combinatorics, "lucas_row"))
        rows = combinatorics._lucas_rows_by_addition(first)
        for n in range(first, first + 60):
            expected = tuple(lucas_coeff_alt(n, k) for k in range(n // 2 + 1)) if n else (2,)
            assert next(rows) == expected


class TestPascalHalves:
    def test_mirrored_halves_are_the_rows(self):
        for n, half in enumerate(pascal_halves(500)):
            assert len(half) == n // 2 + 1
            row = [*half, *half[: (n + 1) // 2][::-1]]
            assert row == pascal_row(n) == [math.comb(n, i) for i in range(n + 1)], n
        assert n == 500

    def test_no_rows_below_zero(self):
        assert list(pascal_halves(-1)) == []


class TestPascalRow:
    def test_row_12(self):
        assert pascal_row(12) == [1, 12, 66, 220, 495, 792, 924, 792, 495, 220, 66, 12, 1]

    def test_small_rows(self):
        assert pascal_row(0) == [1]
        assert pascal_row(4) == [1, 4, 6, 4, 1]

    def test_row_9_entry_5_is_126(self):
        # A well-known misprint trap: C(9, 5) is 126, not 136.
        assert pascal_row(9)[5] == 126

    def test_matches_binomial(self):
        for n in range(0, 40):
            assert pascal_row(n) == [binomial(n, i) for i in range(n + 1)]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            pascal_row(-1)
