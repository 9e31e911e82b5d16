import importlib
import pkgutil
import tracemalloc
from unittest import mock

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _reference
import vertalign
from _faults import fault_lucas_row, forbid, perturbed
from _reference import (
    aligned_term,
    binomial_expand,
    shift_xy,
    term_coefficient,
    xy_symmetric_power,
)
from vertalign import alignment, curves, lockwood
from vertalign.combinatorics import binomial, lucas_row
from vertalign.lockwood import BivariatePolynomial, _verify_range, lockwood_rhs, verify_lockwood


def x_n_plus_y_n(n: int) -> tuple[int, ...]:
    return (1,) + (0,) * (n - 1) + (1,)


def term_by_term(n: int, row: tuple[int, ...]) -> tuple[int, ...]:
    """sum_k (-1)^k row[k] (xy)^k (x+y)^{n-2k}, each term from ``binomial_expand``."""
    total = [0] * (n + 1)
    for k, t in enumerate(row):
        for b, c in enumerate(shift_xy(binomial_expand(n - 2 * k), k)):
            total[b] += -t * c if k & 1 else t * c
    return tuple(total)


class TestBivariatePolynomial:
    def test_rejects_empty_coefficients(self):
        with pytest.raises(ValueError):
            BivariatePolynomial(())

    def test_scalar_and_shift(self):
        p = BivariatePolynomial((0, 2, 0))  # 2*x*y
        assert (p * 3).coeffs == (0, 6, 0)
        assert (3 * p).coeffs == (p * 3).coeffs
        assert (p * 0).coeffs == (0, 0, 0)
        assert shift_xy(p.coeffs, 2) == (0, 0, 0, 2, 0, 0, 0)
        with pytest.raises(ValueError):
            shift_xy(p.coeffs, -1)

    def test_coefficient_off_the_form_is_zero(self):
        # A form of degree 4 stores exactly the five monomials x^(4-b) y^b.
        assert xy_symmetric_power(4) == (1, 4, 6, 4, 1)

    def test_text_graded_lex(self):
        p = BivariatePolynomial((1, 2, 1))
        assert p.to_text() == "x^2 + 2*x*y + y^2"
        assert BivariatePolynomial(x_n_plus_y_n(11)).to_text() == "x^11 + y^11"
        assert BivariatePolynomial((0, 0)).to_text() == "0"
        assert BivariatePolynomial((0, 5)).to_text() == "5*y"
        mixed = BivariatePolynomial((0, 1, 0, -7, -4))
        assert mixed.to_text() == "x^3*y - 7*x*y^3 - 4*y^4"
        assert BivariatePolynomial((-4,)).to_text() == "-4"
        assert BivariatePolynomial((-1, 0)).to_text() == "-x"

    def test_form_times_form_raises_type_error(self):
        # A form multiplies only by an int: no command multiplies two forms.
        with pytest.raises(TypeError):
            BivariatePolynomial(xy_symmetric_power(2)) * BivariatePolynomial((1, 1))


class TestBinomialExpand:
    def test_small(self):
        assert binomial_expand(2) == (1, 2, 1)
        assert binomial_expand(0) == (1,)

    def test_center_of_row_12(self):
        assert binomial_expand(12)[6] == 924

    def test_agrees_with_iterated_multiplication(self):
        # Two genuinely different routes to (x+y)^n.
        for n in range(0, 41):
            assert binomial_expand(n) == xy_symmetric_power(n)

    def test_against_sympy(self):
        x, y = sympy.symbols("x y")
        for n in (3, 7, 13):
            expanded = sympy.Poly(sympy.expand((x + y) ** n), x, y)
            for b, coeff in enumerate(binomial_expand(n)):
                assert expanded.coeff_monomial(x ** (n - b) * y**b) == coeff

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            binomial_expand(-1)


class TestLockwoodRhs:
    def test_n_2(self):
        assert lockwood_rhs(2) == x_n_plus_y_n(2)

    def test_n_5_interior_cancels(self):
        assert lockwood_rhs(5) == x_n_plus_y_n(5)

    def test_n_11(self):
        assert lockwood_rhs(11) == x_n_plus_y_n(11)

    def test_n_1(self):
        assert lockwood_rhs(1) == (1, 1)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            lockwood_rhs(0)

    @pytest.mark.parametrize("n", [0, -3])
    def test_verify_rejects_n_below_one(self, n):
        # The refusal is lucas_row's: verify_lockwood reads the row of T
        # before any expansion, and the oracle adds no check of its own.
        with pytest.raises(ValueError, match="lucas_row requires n >= 1"):
            verify_lockwood(n)

    def test_verify_range(self):
        assert all(verify_lockwood(n) for n in range(1, 61))

    @pytest.mark.parametrize("n", [100, 101])
    def test_adds_each_mirror_pair_once(self, n, monkeypatch):
        # Only slots 0..n//2 of the symmetric sum are packed, so each mirror
        # pair is held once: the honest half is 1, 0, ..., 0.  With T(n, k)
        # one larger at k = n//4, the residual (-1)^k (xy)^k (x+y)^{n-2k}
        # fills the centre slot, so the half has exactly n//2 + 1 digits,
        # and lockwood_rhs must mirror them into every slot of the form.
        assert lockwood._packed_half(n, lucas_row(n))[0] == 1
        assert lockwood_rhs(n) == x_n_plus_y_n(n)
        k = n // 4
        fault_lucas_row(monkeypatch, lockwood, (n, k, 1))
        h, width = lockwood._packed_half(n, lockwood.lucas_row(n))
        assert 1 << ((n // 2) * width - 1) <= abs(h) < 1 << ((n // 2 + 1) * width - 1)
        residual = shift_xy(binomial_expand(n - 2 * k), k)
        assert lockwood._residual(n) == tuple(-c if k & 1 else c for c in residual)
        assert lockwood_rhs(n) == term_by_term(n, lockwood.lucas_row(n))

    def test_never_reaches_binomial(self, monkeypatch):
        # Every module that binds binomial, the test reference included,
        # gets one that raises, so only binomial_expand may fail; the
        # T(n, k) and the powers of (x + y) must come from elsewhere.
        modules = [
            importlib.import_module(f"vertalign.{info.name}")
            for info in pkgutil.iter_modules(vertalign.__path__)
        ]
        bound = [m for m in modules + [_reference] if getattr(m, "binomial", None) is binomial]
        assert {"vertalign.combinatorics", "_reference"} <= {m.__name__ for m in bound}
        forbid(
            monkeypatch,
            "the expansion oracle called binomial()",
            *((module, "binomial") for module in bound),
        )
        with pytest.raises(AssertionError):
            binomial_expand(3)
        for n in range(1, 61):
            assert lockwood_rhs(n) == x_n_plus_y_n(n)
            assert verify_lockwood(n)


@st.composite
def _signed_rows(draw):
    n = draw(st.integers(1, 40))
    row = draw(st.lists(st.integers(-(10**30), 10**30), min_size=n // 2 + 1, max_size=n // 2 + 1))
    return n, tuple(row)


def _any_signed_row(test):
    """Run ``test`` on drawn (n, row) pairs and on fixed edge cases."""
    edges = [
        # Short rows at both parities: no Horner step (n = 1), one to three
        # masked steps (n = 2..7), and the last factor x + y for odd n on a
        # mask of one slot (n = 1) or more.
        (1, (-7,)),
        (1, lucas_row(1)),
        (2, (5, -3)),
        (3, (-2, 9)),
        (4, (3, -8, 2)),
        (4, lucas_row(4)),
        (5, (-1, 6, -4)),
        (5, lucas_row(5)),
        (6, (4, -1, 7, -9)),
        (7, (-5, 2, 0, 8)),
        # Non-palindromic signed rows at both mirror parities.
        (39, tuple((-3) ** k + k for k in range(20))),
        (40, tuple((-3) ** k - 10**25 * k for k in range(21))),
        # Honest rows with faults, as in the sweep's SWEEP_FAULTS.  T(20, 10)
        # is weighted by C(0, 0), so its centre digit 2**4000 meets the
        # width with no slack: one bit less and it would read as -2**4000
        # with a carry.  T(21, 10) is its odd-n twin: the fault lands in
        # slots 10 and 11, so a mask one slot short fails at both parities.
        # T(25, 0) moves every slot of row 25 by C(25, i); T(33, 5) puts a
        # 4000-bit fault mid-row.
        (20, perturbed(lucas_row(20), 10, 2**4000)),
        (21, perturbed(lucas_row(21), 10, 2**4000)),
        (25, perturbed(lucas_row(25), 0, 1)),
        (33, perturbed(lucas_row(33), 5, -(2**4000))),
    ]
    for case in reversed(edges):
        test = example(case)(test)
    return settings(max_examples=150, deadline=None)(given(_signed_rows())(test))


class TestHornerExpansion:
    @_any_signed_row
    def test_matches_term_by_term_sum_for_any_row(self, case):
        # With arbitrary signed t_k in place of T(n, k), each evaluator of
        # sum_k (-1)^k t_k (xy)^k (x+y)^{n-2k} must give every slot of the
        # term-by-term sum: the oracle's masked Horner its packed half, the
        # sweep's list Horner and the morphism's product tree the full form
        # (at x = 1, and at x^2 = 1 with y = w).  The packed check must
        # agree with comparing the full form, and lockwood_rhs, which takes
        # n alone, must unpack and mirror the half of the row it reads.
        n, row = case
        expected = term_by_term(n, row)
        h, width = lockwood._packed_half(n, row)
        assert h == sum(c << (j * width) for j, c in enumerate(expected[: n // 2 + 1]))
        assert (h == 1) == (expected == x_n_plus_y_n(n))
        assert alignment._row_totals(n, row) == list(expected)
        assert curves._pullback_weights(n, row) == list(expected)
        with mock.patch.object(lockwood, "lucas_row", lambda m: row):
            assert lockwood_rhs(n) == expected
            residual = tuple(c - e for c, e in zip(expected, x_n_plus_y_n(n)))
            assert lockwood._residual(n) == residual
            assert verify_lockwood(n) == (residual == (0,) * (n + 1))

    @_any_signed_row
    def test_packed_half_holds_no_slot_above_the_centre(self, case):
        # Only slots 0..n//2 are packed: after n//2 + 1 balanced digits
        # nothing is left, so a pass that kept a slot above the half, or
        # left the residue uncentred, fails here.
        n, row = case
        h, width = lockwood._packed_half(n, row)
        for _ in range(n // 2 + 1):
            digit = ((h + (1 << (width - 1))) & ((1 << width) - 1)) - (1 << (width - 1))
            h = (h - digit) >> width
        assert h == 0


class TestIndependence:
    def test_oracle_does_not_import_binomial(self):
        assert "binomial" not in vars(lockwood)

    @pytest.mark.parametrize("module", [alignment, curves], ids=lambda m: m.__name__)
    def test_identity_and_morphism_paths_bind_nothing_from_the_oracle(self, module):
        for name, value in vars(module).items():
            assert value is not lockwood, name
            assert getattr(value, "__module__", None) != lockwood.__name__, name


class TestVerifyRange:
    @pytest.mark.parametrize("n_start, n_end", [(1, 60), (10, 30), (17, 17)])
    def test_fault_reported_as_by_verify_lockwood(self, monkeypatch, n_start, n_end):
        fault_lucas_row(monkeypatch, lockwood, (17, 3, 5))
        per_n = [n for n in range(n_start, n_end + 1) if not verify_lockwood(n)]
        assert _verify_range(n_start, n_end) == (range(n_start, n_end + 1), per_n)
        assert per_n == [17]

    def test_honest_range_holds(self):
        assert _verify_range(1, 120) == (range(1, 121), [])
        assert _verify_range(45, 60) == (range(45, 61), [])

    def test_range_stores_no_chain(self):
        # A chain (x + y)^0..(x + y)^150 kept for the whole range peaks near
        # 0.56 MB; one Horner row per n stays far below that.
        tracemalloc.start()
        try:
            assert _verify_range(1, 150) == (range(1, 151), [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 << 10

    def test_range_calls_verify_lockwood_per_n(self, monkeypatch):
        # The range goes through the one traced oracle entry point, once per n.
        seen = []

        def counting(n):
            seen.append(n)
            return verify_lockwood(n)

        monkeypatch.setattr(lockwood, "verify_lockwood", counting)
        assert _verify_range(3, 9) == (range(3, 10), [])
        assert seen == list(range(3, 10))


class TestTermCoefficient:
    @pytest.mark.parametrize(
        "n, k, i, expected",
        [
            (11, 1, 3, 36),
            (12, 6, 6, 1),
            (11, 0, 3, 165),
            (9, 2, 4, 10),
        ],
    )
    def test_values(self, n, k, i, expected):
        assert term_coefficient(n, k, i) == expected

    def test_k_zero_reduces_to_binomial_row(self):
        for n in (1, 4, 9, 17):
            for i in range(n + 1):
                assert term_coefficient(n, 0, i) == binomial(n, i)

    def test_matches_generalized_binomial(self):
        for n in range(1, 41):
            for k in range(n // 2 + 1):
                block = aligned_term(n, k)
                for i in range(n + 1):
                    assert block[i] == binomial(n - 2 * k, i - k)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            term_coefficient(10, 6, 3)  # k > n//2
        with pytest.raises(ValueError):
            term_coefficient(10, 2, 11)  # i > n
        with pytest.raises(ValueError):
            aligned_term(0, 0)
