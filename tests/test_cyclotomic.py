import ast
import inspect

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import vertalign.cyclotomic
from vertalign.cyclotomic import _divide_exact, cyclotomic

Z = sympy.symbols("z")


def _times(p, q):
    """p * q for dense coefficient tuples, lowest degree first."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def _poly(coefficients):
    """A sympy polynomial in z from coefficients lowest degree first."""
    return sympy.Poly(list(reversed(coefficients)), Z)


_quotients = st.tuples(
    st.lists(st.integers(-9, 9), max_size=8), st.integers(-9, 9).filter(bool)
).map(lambda parts: (*parts[0], parts[1]))
_monic_divisors = st.lists(st.integers(-5, 5), max_size=4).map(lambda low: (*low, 1))


class TestDivideExact:
    def test_round_trip_fixed(self):
        quotient, divisor = (2, 0, -3, 1, 5), (1, -2, 1)
        dividend = _times(quotient, divisor)
        assert _poly(dividend) == _poly(quotient) * _poly(divisor)
        assert _divide_exact(dividend, divisor) == quotient

    @given(_quotients, _monic_divisors)
    @settings(max_examples=150)
    def test_round_trip(self, quotient, divisor):
        assert _divide_exact(_times(quotient, divisor), divisor) == quotient

    def test_remainder_raises(self):
        # z^2 + 1 = (z - 1)(z + 1) + 2
        with pytest.raises(AssertionError):
            _divide_exact((1, 0, 1), (-1, 1))

    @given(_quotients, _monic_divisors.filter(lambda d: len(d) > 1), st.data())
    @settings(max_examples=150)
    def test_any_remainder_raises(self, quotient, divisor, data):
        remainder = data.draw(
            st.lists(st.integers(-9, 9), min_size=len(divisor) - 1, max_size=len(divisor) - 1)
            .filter(any)
        )
        dividend = [*_times(quotient, divisor)]
        for j, r in enumerate(remainder):
            dividend[j] += r
        with pytest.raises(AssertionError):
            _divide_exact(tuple(dividend), divisor)


class TestCyclotomic:
    def test_small_cases(self):
        assert cyclotomic(1) == (-1, 1)
        assert cyclotomic(2) == (1, 1)
        assert cyclotomic(6) == (1, -1, 1)
        assert type(cyclotomic(12)) is tuple

    def test_against_sympy(self):
        for g in range(1, 61):
            theirs = sympy.Poly(sympy.cyclotomic_poly(g, Z), Z)
            assert list(cyclotomic(g)) == list(reversed(theirs.all_coeffs()))

    def test_monic_of_totient_degree(self):
        for g in range(1, 121):
            phi = cyclotomic(g)
            assert phi[-1] == 1
            assert len(phi) - 1 == sympy.totient(g)

    def test_divides_x_g_minus_one(self):
        for g in range(1, 121):
            _, remainder = sympy.div(sympy.Poly(Z**g - 1, Z), _poly(cyclotomic(g)))
            assert remainder.is_zero

    def test_product_over_divisors(self):
        for g in range(1, 121):
            product = sympy.Poly(1, Z)
            for d in sympy.divisors(g):
                product *= _poly(cyclotomic(d))
            assert product == sympy.Poly(Z**g - 1, Z)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            cyclotomic(0)


def test_imports_nothing_from_the_package():
    tree = ast.parse(inspect.getsource(vertalign.cyclotomic))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not node.module.startswith("vertalign")
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("vertalign") for alias in node.names)
