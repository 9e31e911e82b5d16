from itertools import zip_longest

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from vertalign.cyclotomic import IntPolynomial, cyclotomic, divisors, euler_phi


def _plus(p, q):
    """p + q, added as coefficient tuples."""
    return IntPolynomial(tuple(
        a + b for a, b in zip_longest(p.coefficients, q.coefficients, fillvalue=0)
    ))


class TestIntPolynomial:
    def test_normalizes_trailing_zeros(self):
        assert IntPolynomial((1, 2, 0, 0)).coefficients == (1, 2)
        assert IntPolynomial((0, 0)).coefficients == ()

    def test_degree_and_flags(self):
        assert IntPolynomial(()).coefficients == ()
        assert IntPolynomial(()).is_zero()
        assert IntPolynomial((3,)).coefficients == (3,)
        assert IntPolynomial((0, 1)).is_monic()
        assert not IntPolynomial((0, 2)).is_monic()

    def test_mul(self):
        a = IntPolynomial((1, 1))       # 1 + z
        b = IntPolynomial((-1, 1))      # -1 + z
        assert (a * b).coefficients == (-1, 0, 1)

    def test_divmod_monic_roundtrip_fixed(self):
        num = IntPolynomial((2, 0, -3, 1, 5))
        div = IntPolynomial((1, -2, 1))
        q, r = num.divmod_monic(div)
        assert _plus(q * div, r) == num
        assert len(r.coefficients) < len(div.coefficients)  # deg r < deg div

    @given(
        st.lists(st.integers(-9, 9), min_size=0, max_size=8),
        st.lists(st.integers(-5, 5), min_size=1, max_size=4),
    )
    @settings(max_examples=150)
    def test_divmod_monic_roundtrip(self, num_coeffs, div_coeffs):
        num = IntPolynomial(tuple(num_coeffs))
        div = IntPolynomial(tuple(div_coeffs) + (1,))  # force monic
        q, r = num.divmod_monic(div)
        assert _plus(q * div, r) == num
        assert len(r.coefficients) < len(div.coefficients)  # deg r < deg div

    def test_divmod_requires_monic(self):
        with pytest.raises(ValueError):
            IntPolynomial((1,)).divmod_monic(IntPolynomial((1, 2)))


class TestDivisorsAndTotient:
    def test_divisors(self):
        assert divisors(1) == [1]
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(49) == [1, 7, 49]

    def test_euler_phi_small(self):
        known = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 8: 4, 12: 4, 40: 16}
        for n, phi in known.items():
            assert euler_phi(n) == phi

    def test_euler_phi_against_sympy(self):
        for n in range(1, 201):
            assert euler_phi(n) == sympy.totient(n)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            euler_phi(0)
        with pytest.raises(ValueError):
            divisors(0)


class TestCyclotomic:
    def test_small_cases(self):
        assert cyclotomic(1).coefficients == (-1, 1)
        assert cyclotomic(2).coefficients == (1, 1)
        assert cyclotomic(6).coefficients == (1, -1, 1)

    def test_against_sympy(self):
        z = sympy.symbols("z")
        for g in range(1, 61):
            ours = cyclotomic(g)
            theirs = sympy.Poly(sympy.cyclotomic_poly(g, z), z)
            assert list(ours.coefficients) == list(reversed(theirs.all_coeffs()))

    def test_monic_of_totient_degree(self):
        for g in range(1, 121):
            phi = cyclotomic(g)
            assert phi.is_monic()
            assert len(phi.coefficients) - 1 == euler_phi(g)

    def test_divides_x_g_minus_one(self):
        for g in range(1, 121):
            target = IntPolynomial((-1,) + (0,) * (g - 1) + (1,))
            _, remainder = target.divmod_monic(cyclotomic(g))
            assert remainder.is_zero()

    def test_product_over_divisors(self):
        for g in range(1, 121):
            product = IntPolynomial((1,))
            for d in divisors(g):
                product = product * cyclotomic(d)
            assert product.coefficients == (-1,) + (0,) * (g - 1) + (1,)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            cyclotomic(0)
