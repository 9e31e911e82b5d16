import math
import random
from fractions import Fraction

import pytest
import sympy

from _reference import (
    _u_to_one,
    element,
    ring_neg,
    ring_one,
    ring_power,
    ring_sub,
    root_power,
    scaled,
    zeta_power,
)
from vertalign.cyclotomic import cyclotomic
from vertalign.quotient_ring import RingSpec, from_rational, make_ring

SPECS = [
    make_ring(1, 7),
    make_ring(2, 3),
    make_ring(5, 1),
    make_ring(6, 1),
    make_ring(6, 2),
    make_ring(7, 3),
    make_ring(8, -1),
    make_ring(12, Fraction(3, 5)),
]


def random_element(spec, rng, density=0.4):
    entries = {}
    for a in range(spec.deg_z):
        for b in range(spec.g):
            if rng.random() < density:
                entries[(a, b)] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    return element(spec, entries)


class TestMakeRing:
    def test_examples(self):
        spec = make_ring(5, 1)
        assert (spec.deg_z, spec.g) == (4, 5)
        spec = make_ring(1, 7)
        assert (spec.deg_z, spec.g) == (1, 1)
        spec = make_ring(6, 2)
        assert (spec.deg_z, spec.g) == (2, 6)

    def test_phi_is_monic_divisor(self):
        for spec in SPECS:
            assert spec.phi_g[-1] == 1
            assert len(spec.phi_g) - 1 == spec.deg_z

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            make_ring(0, 1)
        with pytest.raises(ValueError):
            make_ring(5, 0)
        with pytest.raises(ValueError):
            RingSpec(0, 1)


class TestRingSpec:
    """g and c are the only parameters; phi_g and deg_z follow from g."""

    @pytest.mark.parametrize("name, value", [("phi_g", (1, -1, 1)), ("deg_z", 2)])
    def test_derived_fields_are_not_parameters(self, name, value):
        with pytest.raises(TypeError):
            RingSpec(6, Fraction(2), **{name: value})

    def test_make_ring_equals_direct_spec(self):
        assert make_ring(6, 2) == RingSpec(6, Fraction(2))
        assert make_ring(6, 2) != RingSpec(6, Fraction(3))
        assert make_ring(6, 2) != RingSpec(7, Fraction(2))

    def test_derived_fields_follow_g(self):
        for g in range(1, 121):
            spec = RingSpec(g, Fraction(1))
            assert spec.phi_g is cyclotomic(g)
            assert spec.deg_z == sympy.totient(g)


class TestZetaPower:
    def test_identity_cases(self):
        spec = make_ring(5, 1)
        assert zeta_power(spec, 0) == ring_one(spec)
        assert zeta_power(spec, 5) == ring_one(spec)
        assert zeta_power(spec, -5) == ring_one(spec)

    def test_reduction_in_r6(self):
        spec = make_ring(6, 1)
        # z^2 = z - 1, z^3 = -1, z^4 = -z, z^5 = 1 - z modulo z^2 - z + 1.
        assert zeta_power(spec, 2).to_text() == "-1 + z"
        assert zeta_power(spec, 3) == from_rational(spec, -1)
        assert zeta_power(spec, 4).to_text() == "-z"
        assert zeta_power(spec, 5).to_text() == "1 - z"

    def test_defining_relation_and_primitivity(self):
        for spec in SPECS:
            one = ring_one(spec)
            assert zeta_power(spec, spec.g) == one
            for m in range(1, spec.g):
                assert zeta_power(spec, m) != one

    def test_negative_exponents_wrap(self):
        spec = make_ring(7, 2)
        assert zeta_power(spec, -1) == zeta_power(spec, 6)

    def test_geometric_sum_vanishes(self):
        spec = make_ring(6, 1)
        total = from_rational(spec, 0)
        for m in range(6):
            total = total + zeta_power(spec, m)
        assert total.entries() == {}


class TestRootPower:
    def test_examples(self):
        assert root_power(make_ring(5, 1), 5) == ring_one(make_ring(5, 1))
        spec = make_ring(5, 3)
        assert root_power(spec, 7).to_text() == "3*u^2"
        for s in SPECS:
            assert root_power(s, 0) == ring_one(s)

    def test_defining_relation(self):
        for spec in SPECS:
            u = root_power(spec, 1)
            assert ring_power(u, spec.g) == from_rational(spec, spec.c)

    def test_matches_repeated_multiplication(self):
        for spec in SPECS:
            u = root_power(spec, 1)
            acc = ring_one(spec)
            for k in range(2 * spec.g + 1):
                assert root_power(spec, k) == acc
                acc = acc * u

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            root_power(SPECS[0], -1)


class TestRingArithmetic:
    def test_zeta_times_zeta_inverse(self):
        for spec in SPECS:
            if spec.g > 1:
                product = zeta_power(spec, 1) * zeta_power(spec, spec.g - 1)
                assert product == ring_one(spec)

    def test_spec_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ring_one(SPECS[0]) + ring_one(SPECS[1])
        with pytest.raises(ValueError):
            ring_one(make_ring(6, 1)) * ring_one(make_ring(6, 2))

    def test_ring_axioms_randomized(self):
        rng = random.Random(987654321)
        for spec in SPECS:
            triples = 1000 if spec.deg_z * spec.g <= 16 else 150
            for _ in range(triples):
                x = random_element(spec, rng)
                y = random_element(spec, rng)
                w = random_element(spec, rng)
                assert (x + y) + w == x + (y + w)
                assert x + y == y + x
                assert x * y == y * x
                assert (x * y) * w == x * (y * w)
                assert x * (y + w) == x * y + x * w
                assert (x + ring_neg(x)).entries() == {}
                assert x * ring_one(spec) == x
                assert (x * from_rational(spec, 0)).entries() == {}

    def test_reduction_idempotence(self):
        rng = random.Random(24680)
        for spec in SPECS:
            for _ in range(50):
                x = random_element(spec, rng)
                assert element(spec, x.entries()) == x

    def test_scalar_scale(self):
        spec = make_ring(6, 2)
        x = zeta_power(spec, 1) + root_power(spec, 1)
        assert scaled(x, Fraction(3, 2)) == x * from_rational(spec, Fraction(3, 2))
        assert scaled(x, 0).entries() == {}
        # A product takes ring elements only: a rational is refused.
        for q in (2, Fraction(3, 2)):
            with pytest.raises(TypeError):
                x * q
            with pytest.raises(TypeError):
                q * x

    def test_g1_ring_collapses_to_rationals(self):
        spec = make_ring(1, 7)
        assert zeta_power(spec, 3) == ring_one(spec)
        assert root_power(spec, 1) == from_rational(spec, 7)
        x = from_rational(spec, Fraction(2, 3))
        assert x * root_power(spec, 1) == from_rational(spec, Fraction(14, 3))


class TestElementBasics:
    def test_coefficient_lookup(self):
        spec = make_ring(6, 2)
        x = element(spec, {(1, 3): Fraction(3, 5), (0, 0): 2})
        assert x.entries() == {(0, 0): Fraction(2), (1, 3): Fraction(3, 5)}
        assert (0, 1) not in x.entries()

    def test_rational_detection(self):
        # A rational lives in the (0, 0) slot alone; zeta has a slot elsewhere.
        spec = make_ring(6, 2)
        assert from_rational(spec, Fraction(5, 3)).entries() == {(0, 0): Fraction(5, 3)}
        assert set(zeta_power(spec, 1).entries()) - {(0, 0)}

    def test_entries_are_ints_exactly_when_the_denominator_is_one(self):
        rng = random.Random(97531)
        for spec in SPECS:
            integral = element(spec, {(0, 0): 4, (0, spec.g - 1): -3})
            for x in [integral] + [random_element(spec, rng) for _ in range(20)]:
                entries = x.entries()
                # Each value equals q_{a,b} = _terms[(a, b)] / _den as a Fraction.
                assert entries == {key: Fraction(v, x._den) for key, v in x._terms.items()}
                kinds = {type(q) for q in entries.values()}
                assert kinds <= ({int} if x._den == 1 else {Fraction}), (spec, x)
                assert element(spec, x.entries()) == x

    def test_results_are_canonical(self):
        # No zero numerator is stored, every key is a basis index, and the
        # denominator is positive and in lowest terms: 1 for zero.
        def assert_canonical(x):
            spec = x.spec
            assert all(x._terms.values()), x
            assert all(0 <= a < spec.deg_z and 0 <= b < spec.g for a, b in x._terms), x
            assert x._den > 0 and math.gcd(x._den, *x._terms.values()) == 1, x
            assert x._terms or x._den == 1, x

        rng = random.Random(13579)
        for spec in SPECS:
            for _ in range(20):
                x, y = random_element(spec, rng), random_element(spec, rng)
                q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                results = [x + y, ring_sub(x, y), x * y, scaled(x, q), ring_neg(x)]
                # Results that cancel to zero, from operands with denominators.
                results += [ring_sub(x, x), x + ring_neg(x), x * from_rational(spec, 0), scaled(x, 0)]
                results.append(scaled(x, Fraction(1, 3)) + scaled(x, Fraction(-1, 3)))
                for result in results:
                    assert_canonical(result)
                for zero in results[5:]:
                    assert zero == from_rational(spec, 0) and zero._den == 1
            # A product and a sum whose fractions cancel to an integer.
            half = from_rational(spec, Fraction(1, 2))
            assert_canonical(half * from_rational(spec, 2))
            assert (half + half)._den == 1
            u = root_power(spec, 1)
            assert_canonical(ring_power(u, spec.g) * from_rational(spec, 1 / spec.c))

    def test_text_form_for_both_kinds_of_entries(self):
        spec = make_ring(6, 2)
        integral = element(spec, {(0, 1): 3, (1, 0): -1, (1, 2): 2})
        assert integral._den == 1
        assert integral.to_text() == "3*u - z + 2*z*u^2"
        fractional = scaled(integral, Fraction(1, 4))
        assert fractional._den == 4
        assert fractional.to_text() == "3/4*u - 1/4*z + 1/2*z*u^2"

    def test_text_form(self):
        spec = make_ring(6, 2)
        assert from_rational(spec, 0).to_text() == "0"
        assert ring_one(spec).to_text() == "1"
        x = element(spec, {(0, 1): Fraction(3, 5), (1, 0): -1, (1, 2): 2}
        )
        assert x.to_text() == "3/5*u - z + 2*z*u^2"


class TestUnitRootFold:
    """``_u_to_one`` over c = 1: each z^a u^b becomes z^a."""

    def test_drops_what_cancels(self):
        # z*u - z is nonzero in R(5, 1) but vanishes at u = 1; over the
        # denominator 3 it still folds to the zero element, denominator 1.
        spec = make_ring(5, 1)
        z, u = zeta_power(spec, 1), root_power(spec, 1)
        x = scaled(ring_sub(z * u, z), Fraction(1, 3))
        assert x.entries() != {} and x._den == 3
        folded = _u_to_one(x)
        assert folded.entries() == {} and folded._den == 1

    def test_sums_the_terms_on_each_power_of_z(self):
        spec = make_ring(5, 1)
        x = element(spec, {(1, 1): 2, (1, 3): Fraction(3, 2), (0, 2): -1, (0, 0): Fraction(1, 2)}
        )
        expected = element(spec, {(1, 0): Fraction(7, 2), (0, 0): Fraction(-1, 2)})
        assert _u_to_one(x) == expected

    @pytest.mark.parametrize("g", [5, 6, 12])
    def test_is_a_ring_map(self, g):
        rng = random.Random(g)
        spec = make_ring(g, 1)
        for _ in range(25):
            x, y = random_element(spec, rng), random_element(spec, rng)
            assert _u_to_one(x + y) == _u_to_one(x) + _u_to_one(y)
            assert _u_to_one(x * y) == _u_to_one(x) * _u_to_one(y)
            assert all(b == 0 for _, b in _u_to_one(x).entries())


class TestAgainstSympy:
    """Products and sums against sympy's normal form modulo u^g - c and Phi_g(z).

    The two relations have coprime leading monomials u^g and z^phi(g), so they
    form a Groebner basis and ``sympy.reduced`` returns the unique reduced
    representative, built from sympy's own cyclotomic polynomial.
    """

    Z, U = sympy.symbols("z u")

    def as_sympy(self, x):
        return sympy.Add(*(
            sympy.Rational(q.numerator, q.denominator) * self.Z**a * self.U**b
            for (a, b), q in x.entries().items()
        ))

    def reduced_entries(self, spec, expr):
        c = sympy.Rational(spec.c.numerator, spec.c.denominator)
        relations = [self.U**spec.g - c, sympy.cyclotomic_poly(spec.g, self.Z)]
        _, remainder = sympy.reduced(sympy.expand(expr), relations, self.U, self.Z)
        terms = sympy.Poly(remainder, self.Z, self.U).terms()
        return {(a, b): Fraction(int(q.p), int(q.q)) for (a, b), q in terms if q}

    @pytest.mark.parametrize("c", [1, -1, Fraction(3, 5), Fraction(-7, 11)], ids=str)
    def test_mul_and_add_match_sympy_reduction(self, c):
        rng = random.Random(f"sympy:{c}")
        for g in range(1, 13):
            spec = make_ring(g, c)
            x, y = random_element(spec, rng, 0.3), random_element(spec, rng, 0.3)
            x_s, y_s = self.as_sympy(x), self.as_sympy(y)
            assert (x * y).entries() == self.reduced_entries(spec, x_s * y_s)
            assert (x + y).entries() == self.reduced_entries(spec, x_s + y_s)

    @pytest.mark.parametrize("c", [1, -1, Fraction(3, 5), Fraction(-7, 11)], ids=str)
    def test_denominators_cancel(self, c):
        rng = random.Random(f"cancel:{c}")
        for g in (1, 5, 6, 12):
            spec = make_ring(g, c)
            x = random_element(spec, rng)
            assert scaled(scaled(x, Fraction(3, 2)), Fraction(2, 3)) == x
            assert x * from_rational(spec, spec.c) * from_rational(spec, 1 / spec.c) == x
            u = root_power(spec, 1)
            assert ring_power(u, spec.g) * from_rational(spec, 1 / spec.c) == ring_one(spec)
            assert scaled(x, Fraction(1, 7)) + scaled(x, Fraction(6, 7)) == x

    @pytest.mark.parametrize("c", [1, -1, Fraction(3, 5), Fraction(-7, 11)], ids=str)
    def test_one_term_products_match_sympy_reduction(self, c):
        # A single term q z^a u^b on either side of *.
        # x holds z^(phi(g)-1) u^(g-1), so a = phi(g) - 1 overflows into
        # Phi_g (when phi(g) > 1) and b = g - 1 wraps past u^g (when g > 1);
        # that corner alone is a single term too.
        rng = random.Random(f"one-term:{c}")
        for g in range(1, 13):
            spec = make_ring(g, c)
            corner = element(spec, {(spec.deg_z - 1, g - 1): Fraction(2, 3)})
            x = random_element(spec, rng, 0.3) + corner
            top = (spec.deg_z - 1, rng.randrange(g))
            wrap = (rng.randrange(spec.deg_z), g - 1)
            cases = [(top, -3), (wrap, 5), ((0, 0), Fraction(-5, 3)), (top, Fraction(7, 2))]
            for (a, b), q in cases:
                term = element(spec, {(a, b): q})
                expected = self.reduced_entries(spec, self.as_sympy(x) * self.as_sympy(term))
                assert (x * term).entries() == (term * x).entries() == expected, (g, a, b, q)
                both = self.reduced_entries(spec, self.as_sympy(term) * self.as_sympy(corner))
                assert (term * corner).entries() == both, (g, a, b, q)

    @pytest.mark.parametrize("g", [30, 105])
    def test_products_match_sympy_where_phi_has_many_terms(self, g):
        # Phi_30 has 7 nonzero terms and phi(30) = 8; Phi_105 has 33, with
        # -2 at z^7 and z^41, and phi(105) = 48.  Each factor is one term, a few
        # terms or every z-slot of two u-columns, and each holds u^(g-1), so
        # its products wrap past u^g to c = -7/11.
        spec = make_ring(g, Fraction(-7, 11))
        width = spec.deg_z
        if g == 105:
            assert -2 in dict(spec.phi_low).values()
        # The corner's square overflows at z^(2 phi(g) - 2); Phi_g has a term
        # z^(phi(g) - 1), so folding it lands at or above z^phi(g) again.
        assert any(width - 2 + j >= width for j, _ in spec.phi_low)
        rng = random.Random(f"many-terms:{g}")

        def rational():
            return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))

        corner = element(spec, {(width - 1, g - 1): rational()})
        few = element(spec, {
            (width - 1, g - 2): rational(), (width - 2, 1): rational(), (0, g - 1): rational()
        })
        dense = element(spec, {(a, b): rational() for a in range(width) for b in (0, g - 1)}
        )
        shapes = {"corner": corner, "few": few, "dense": dense}
        for name_x, x in shapes.items():
            for name_y, y in shapes.items():
                if name_x > name_y:
                    continue
                expected = self.reduced_entries(spec, self.as_sympy(x) * self.as_sympy(y))
                assert (x * y).entries() == (y * x).entries() == expected, (name_x, name_y)
