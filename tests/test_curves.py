import json
import math
import random
import time
from fractions import Fraction

import pytest

from _faults import double_w, fail_morphism, fault_lucas_row, forbid, perturbed
from _reference import (
    _u_to_one,
    built_target,
    coefficient_facts,
    folded_equation,
    lifted,
    lucas_coeff_alt,
    pullback,
    pullback_weights_by_rows,
    reference_pullback,
    ring_neg,
    ring_one,
    ring_poly_add,
    ring_poly_scale,
    ring_poly_sub,
    ring_power,
    ring_sub,
    root_power,
    scaled,
    written_target,
    zeta_power,
)
import vertalign.cli as cli
from vertalign import combinatorics, curves, lockwood
from vertalign.combinatorics import lucas_coeff, lucas_row
from vertalign.curves import (
    RingPolynomial,
    _curve_text,
    _morphism_curves,
    build_source,
    table_rows,
    table_text,
    target_text,
    verify_morphism,
)
from vertalign.lockwood import BivariatePolynomial, lockwood_rhs
from vertalign.quotient_ring import (
    QuotientRingElement,
    _power_text,
    _terms_text,
    from_rational,
    make_ring,
)


class TestRingPolynomial:
    def test_sub_is_add_of_negation(self):
        # Every zero pattern of a pair: both zero, either one, neither;
        # different lengths; and a difference that cancels to nothing.
        spec = make_ring(5, Fraction(3, 5))
        zero, one = from_rational(spec, 0), ring_one(spec)
        w = zeta_power(spec, 1) * root_power(spec, 1)
        polys = [
            RingPolynomial(spec, {}),
            RingPolynomial(spec, dict(enumerate((w, zero, one)))),
            RingPolynomial(spec, dict(enumerate((zero, scaled(w, 3), one, w)))),
            RingPolynomial(spec, dict(enumerate((w, scaled(one, 2))))),
        ]
        for p in polys:
            for q in polys:
                negated = ring_poly_scale(q, from_rational(spec, -1))
                assert ring_poly_sub(p, q) == ring_poly_add(p, negated), (p.to_text(), q.to_text())
            assert ring_poly_sub(p, p).coeffs == {}

    def test_equality_is_spec_and_coefficients(self):
        spec = make_ring(5, Fraction(3, 5))
        one = ring_one(spec)
        polys = [RingPolynomial(spec, dict(enumerate(c))) for c in [(), (one,), (one, one)]]
        for p in polys:
            for q in polys:
                assert (p == q) == (p is q)
        # Zero coefficients are dropped; an equal spec built apart still matches.
        same = make_ring(5, Fraction(3, 5))
        padded = dict(enumerate((ring_one(same), from_rational(same, 0))))
        assert RingPolynomial(same, padded) == polys[1]
        assert RingPolynomial(make_ring(5, 3), {}) != polys[0]


class TestSparseForm:
    """``coeffs`` holds exactly the nonzero x-coefficients, keyed by exponent."""

    spec = make_ring(5, 1)

    @staticmethod
    def assert_canonical(p):
        assert all(not v.is_zero() for v in p.coeffs.values()), p.coeffs

    def test_zeros_are_dropped_at_every_position(self):
        spec = self.spec
        zero, one, z = from_rational(spec, 0), ring_one(spec), zeta_power(spec, 1)
        p = RingPolynomial(spec, {0: zero, 1: one, 2: zero, 3: z, 4: zero})
        self.assert_canonical(p)
        assert p.coeffs == {1: one, 3: z}
        assert p.degree == 3
        assert all(e not in p.coeffs for e in (0, 2, 4))

    def test_difference_is_canonical(self):
        spec = self.spec
        one, z = ring_one(spec), zeta_power(spec, 1)
        p = RingPolynomial(spec, {1: one, 3: z})
        q = RingPolynomial(spec, {3: z, 4: z})
        assert ring_poly_sub(p, p).coeffs == {}
        # x^3 cancels; x^4, held only by q, is kept negated.
        assert ring_poly_sub(p, q).coeffs == {1: one, 4: ring_neg(z)}
        assert ring_poly_sub(q, p).coeffs == {1: ring_neg(one), 4: z}
        for r in (ring_poly_sub(p, p), ring_poly_sub(p, q), ring_poly_sub(q, p)):
            self.assert_canonical(r)

    def test_substitution_that_collapses_a_coefficient_drops_it(self):
        # z*u - z is nonzero in R(5, 1) but folds to zero at u = 1, so the
        # folded equation is written without an x^2 term; the polynomial's
        # own equation keeps the u-form.
        spec = self.spec
        z, u = zeta_power(spec, 1), root_power(spec, 1)
        p = RingPolynomial(spec, {2: ring_sub(z * u, z), 1: u})
        assert sorted(p.coeffs) == [1, 2]
        assert p.to_text() == "(-z + z*u)*x^2 + u*x"
        assert p.equation_text() == "y^2 = (-z + z*u)*x^2 + u*x"
        assert folded_equation(p) == "y^2 = x"

    def test_zero_polynomial(self):
        spec = self.spec
        p = RingPolynomial(spec, {0: from_rational(spec, 0)})
        assert p.coeffs == {} and p.degree == -1
        for e in (0, 1, 7):
            assert e not in p.coeffs
        assert p.to_text() == "0"

    def test_equality_ignores_insertion_order(self):
        spec = self.spec
        one, z = ring_one(spec), zeta_power(spec, 1)
        a = RingPolynomial(spec, {3: z, 1: one, 0: z})
        b = RingPolynomial(spec, {0: z, 1: one, 3: z})
        assert list(a.coeffs) != list(b.coeffs)
        assert a == b and a.to_text() == b.to_text()

    @pytest.mark.parametrize(
        "g, c, i", [(1, 1, 0), (2, Fraction(-3, 7), 1), (12, 1, 0), (30, Fraction(-7, 11), 1)]
    )
    def test_honest_check_stores_only_the_source_terms(self, g, c, i):
        spec = make_ring(g, c)
        check = verify_morphism(spec, i)
        f = built_target(spec, i)
        assert target_text(spec, check.zeta_table, check.lucas) == folded_equation(f)
        assert check.holds and check.w_g == from_rational(spec, c)
        assert check.pullback == check.source == [1] + [0] * (g - 1) + [1]
        assert check.residual == [0] * (g + 1)
        source, pullback, residual = _morphism_curves(spec, check)
        assert residual == {}
        assert sorted(pullback) == sorted(source) == [1, 2 * g + 1]
        assert sorted(f.coeffs) == list(range(g % 2, g + 1, 2))
        for p in (f, *lifted(spec, i, check)[:2]):
            self.assert_canonical(p)

    def test_rendering_reads_each_coefficients_entries_once(self, monkeypatch):
        # At g = 30 (phi = 8), with i = 1, each w^k past z^8 has several
        # terms; such a coefficient renders in parentheses from the one
        # entries() read that also tells it apart from a single term.
        target = built_target(make_ring(30, Fraction(-7, 11)), 1)
        multi = [p for p in target.coeffs.values() if len(p.entries()) > 1]
        assert multi
        expected = target.to_text()
        assert all(f"({p.to_text()})" in expected for p in multi)
        calls = []
        honest = QuotientRingElement.entries

        def counting(self):
            calls.append(self)
            return honest(self)

        monkeypatch.setattr(QuotientRingElement, "entries", counting)
        assert target.to_text() == expected
        assert len(calls) == len(target.coeffs)


class TestBuildSource:
    @pytest.mark.parametrize(
        "g, c, text",
        [
            (5, 1, "y^2 = x^11 + x"),
            (6, 1, "y^2 = x^13 + x"),
            (1, 1, "y^2 = x^3 + x"),
            (3, Fraction(3, 5), "y^2 = x^7 + 3/5*x"),
        ],
    )
    def test_equations(self, g, c, text):
        curve = build_source(make_ring(g, c))
        assert curve.equation_text() == text

    def test_structure(self):
        spec = make_ring(7, -2)
        f = build_source(spec)
        assert f.degree == 15
        nonzero = [e for e in range(16) if e in f.coeffs]
        assert nonzero == [1, 15]
        assert f.coeffs.get(15) == ring_one(spec)
        assert f.coeffs.get(1) == from_rational(spec, -2)


class TestBuildTarget:
    def test_example_g5(self):
        curve = built_target(make_ring(5, 1), 0)
        assert folded_equation(curve) == "y^2 = x^5 - 5*x^3 + 5*x"
        assert written_target(make_ring(5, 1), 0) == "y^2 = x^5 - 5*x^3 + 5*x"

    def test_example_g6(self):
        curve = built_target(make_ring(6, 1), 0)
        assert folded_equation(curve) == "y^2 = x^6 - 6*x^4 + 9*x^2 - 2"
        assert written_target(make_ring(6, 1), 0) == "y^2 = x^6 - 6*x^4 + 9*x^2 - 2"

    def test_g11_generic_twist_structure(self):
        # Coefficient of x^{11-2k} must be (-1)^k T(11,k) zeta^k u^k.
        spec = make_ring(11, 1)
        f = built_target(spec, 1)
        expected_magnitudes = (1, 11, 44, 77, 55, 11)
        for k in range(6):
            expected = scaled(
                zeta_power(spec, k) * root_power(spec, k),
                (-1) ** k * expected_magnitudes[k]
            )
            assert f.coeffs.get(11 - 2 * k) == expected

    def test_coefficient_construction_rule(self):
        for g, c, i in [(4, 2, 0), (9, Fraction(3, 5), 1), (12, -1, 1)]:
            spec = make_ring(g, c)
            f = built_target(spec, i)
            for k in range(g // 2 + 1):
                expected = scaled(
                    zeta_power(spec, i * k) * root_power(spec, k),
                    (-1) ** k * lucas_coeff(g, k)
                )
                assert f.coeffs.get(g - 2 * k) == expected

    def test_parity_sparsity_and_normalization(self):
        for g, c, i in [(8, 1, 0), (9, 2, 1), (14, Fraction(3, 5), 1), (1, 5, 0)]:
            spec = make_ring(g, c)
            f = built_target(spec, i)
            assert f.degree == g
            assert f.coeffs.get(g) == ring_one(spec)
            if g >= 1:
                assert g - 1 not in f.coeffs
            live = {g - 2 * k for k in range(g // 2 + 1)}
            for e in range(g + 1):
                if e not in live:
                    assert e not in f.coeffs

    @pytest.mark.parametrize("g", [1, 2, 7, 12, 13])
    def test_w_powers_end_at_ceil_half(self, g, monkeypatch):
        # The target reads w^0..w^(g//2), an honest check w^0..w^ceil(g/2);
        # only a faulted weight past ceil(g/2) runs the table on to w^(g-1).
        spec = make_ring(g, Fraction(-7, 11))
        w = zeta_power(spec, 1) * root_power(spec, 1)
        table = verify_morphism(spec, 1).zeta_table
        assert [curves._w_power(spec, table, b, 1) for b in range(len(table))] == [
            ring_power(w, b) for b in range((g + 1) // 2 + 1)
        ]
        if g > 2:
            # T(g, 1) + 1 adds weights at b = 1..g-1.
            fault_lucas_row(monkeypatch, curves, (g, 1, 1))
            assert len(verify_morphism(spec, 1).zeta_table) == g

    @pytest.mark.parametrize("c", [1, Fraction(-7, 11), 3], ids=str)
    def test_zeta_table_and_w_powers_match_ring_products(self, c):
        # Phi_105 and Phi_210 have many nonzero terms, so each fold of
        # z^phi(g) reaches many keys of the entry, and some cancel there.
        for g in [*range(1, 121), 105, 210]:
            spec = make_ring(g, c)
            for i in (0, 1):
                # Run on to k = g, where zeta^(ig) = 1 and w^g = c.
                table = curves._zeta_table(spec, i, g)
                assert len(table) == g + 1 and table[g] == {0: 1}, (g, i)
                w = zeta_power(spec, i) * root_power(spec, 1)
                # ring_power's repeated product by w, carried from k to k + 1.
                w_to_k = ring_power(w, 0)
                for k, entry in enumerate(table):
                    expected = {(a, 0): v for a, v in entry.items()}
                    assert zeta_power(spec, i * k).entries() == expected, (g, i, k)
                    assert curves._w_power(spec, table, k, 1) == w_to_k, (g, i, k)
                    w_to_k = w_to_k * w

    @pytest.mark.parametrize("c", [1, Fraction(-7, 11), 3, Fraction(5, 2)], ids=str)
    def test_target_text_is_the_folded_equation(self, c):
        # target_text writes the target from the row of T and the table of
        # zeta^(ik), with no element: it must read as build_target's
        # equation, with u folded to 1 when c = 1.  Phi_105 and Phi_210
        # have many terms, so there the zeta powers have several.
        for g in [*range(1, 121), 105, 210]:
            spec = make_ring(g, c)
            for i in (0, 1):
                assert written_target(spec, i) == folded_equation(built_target(spec, i)), (g, i)

    @pytest.mark.parametrize("c", [1, Fraction(-7, 11)], ids=str)
    def test_target_text_writes_a_faulted_row(self, c, monkeypatch):
        # The writer prints the row it reads, not honest values: an entry
        # off by one, one zeroed (its term is dropped), one with its sign
        # flipped, and one off by 2^70.
        faults = [(9, 2, 1), (12, 3, -lucas_row(12)[3]), (13, 6, -2 * lucas_row(13)[6]),
                  (105, 20, 2**70)]
        honest = {(g, i): written_target(make_ring(g, c), i) for g, _, _ in faults for i in (0, 1)}
        fault_lucas_row(monkeypatch, curves, *faults)
        for g, _, _ in faults:
            spec = make_ring(g, c)
            for i in (0, 1):
                text = written_target(spec, i)
                assert text == folded_equation(built_target(spec, i)) != honest[g, i], (g, i)

    def test_rejects_bad_twist_index(self, monkeypatch):
        # Refused before any ring product: by the target and its text, by
        # the table through which the pullback reads i, and by
        # verify_morphism.
        spec = make_ring(5, 1)
        forbid(
            monkeypatch,
            "ring work before the twist index was checked",
            (QuotientRingElement, "__mul__"),
            (QuotientRingElement, "__rmul__"),
        )
        for bad in (-1, 2, 5):
            for build in (built_target, written_target, pullback, verify_morphism):
                with pytest.raises(ValueError):
                    build(spec, bad)


class TestPullback:
    @pytest.mark.parametrize(
        "g, c, text",
        [
            (5, 1, "x^11 + x"),
            (6, 1, "x^13 + x"),
            (2, 1, "x^5 + x"),
        ],
    )
    def test_examples(self, g, c, text):
        assert pullback(make_ring(g, c), 0).to_text() == text

    def test_equals_source_polynomial(self):
        for g, c, i in [(3, 2, 1), (8, Fraction(3, 5), 0), (13, -1, 1)]:
            spec = make_ring(g, c)
            assert pullback(spec, i) == build_source(spec)

    def test_substitution_into_bivariate_identity(self):
        # The pullback is literally x * L(x^2, w) where L is the expanded
        # two-variable identity and w = zeta^i c^{1/g}; rebuild it that way
        # from the independent bivariate expansion and compare.
        for g, c, i in [(2, 1, 0), (5, 1, 1), (7, Fraction(3, 5), 1), (10, 2, 0)]:
            spec = make_ring(g, c)
            w = zeta_power(spec, i) * root_power(spec, 1)
            rebuilt = [from_rational(spec, 0)] * (2 * g + 2)
            w_to_b = ring_one(spec)
            for b, coeff in enumerate(lockwood_rhs(g).coeffs):
                a = g - b
                rebuilt[2 * a + 1] = rebuilt[2 * a + 1] + scaled(w_to_b, coeff)
                w_to_b = w_to_b * w
            assert RingPolynomial(spec, dict(enumerate(rebuilt))) == pullback(spec, i)

    def test_integer_stage_is_the_oracle_row(self, monkeypatch):
        # Put y = w/x in the oracle's sum for x^g + y^g and multiply by
        # x^(g+1): it becomes the pullback, with the coefficient of
        # x^(g-b) y^b at w^b.  The two routes share no code, so their rows
        # must agree for the same T, honest and faulted in both, where a
        # fault leaves the row of x^g + y^g.
        for g in range(1, 201):
            assert curves._pullback_weights(g, lucas_row(g)) == list(lockwood_rhs(g).coeffs), g
        faults = [(9, 2, 1), (12, 3, 3), (13, 6, -2), (101, 30, 2**100)]
        for module in (curves, lockwood):
            fault_lucas_row(monkeypatch, module, *faults)
        for g, _, _ in faults:
            weights = curves._pullback_weights(g, curves.lucas_row(g))
            assert weights == list(lockwood_rhs(g).coeffs) != [1] + [0] * (g - 1) + [1], g

    def test_packed_weights_match_list_rows(self):
        # The packed rows must unpack to the list rows' weights for any row
        # of T: honest, each entry off by one, and one entry off by 2^4000,
        # whose size then sets the slot width.
        rng = random.Random(2027)
        for g in range(1, 61):
            honest = lucas_row(g)
            rows = [honest]
            rows += [perturbed(honest, k, rng.choice((-1, 1))) for k in range(len(honest))]
            rows.append(perturbed(honest, rng.randrange(len(honest)), rng.choice((-1, 1)) << 4000))
            for row in rows:
                assert curves._pullback_weights(g, row) == pullback_weights_by_rows(g, row), g

    @pytest.mark.parametrize("c", [1, 2, -1, Fraction(3, 5), Fraction(-7, 11)], ids=str)
    def test_matches_all_ring_reference(self, c):
        for g in range(1, 21):
            spec = make_ring(g, c)
            for i in (0, 1):
                assert pullback(spec, i) == reference_pullback(spec, i), (g, c, i)

    @pytest.mark.parametrize("g", [1, 2, 7, 40, 80, 200])
    def test_ring_products_linear_in_g(self, g, monkeypatch):
        calls = []
        original = QuotientRingElement.__mul__

        def counting(self, other):
            calls.append(1)
            return original(self, other)

        spec = make_ring(g, Fraction(-7, 11))
        table = curves._zeta_table(spec, 1, (g + 1) // 2)
        monkeypatch.setattr(QuotientRingElement, "__mul__", counting)
        monkeypatch.setattr(QuotientRingElement, "__rmul__", counting)
        curves.pullback_rhs(spec, table, lucas_row(g))
        assert len(calls) <= g + 1

    def test_calls_no_binomial_and_no_bivariate_oracle(self, monkeypatch):
        forbid(
            monkeypatch,
            "pullback_rhs left its own expansion route",
            (combinatorics, "binomial"),
            (BivariatePolynomial, "__mul__"),
        )
        for g in (2, 9, 16):
            spec = make_ring(g, Fraction(3, 5))
            assert pullback(spec, g % 2) == build_source(spec)


def _nonzero_exponents(f: RingPolynomial) -> list[int]:
    return [exp for exp in range(f.degree + 1) if exp in f.coeffs]


class TestVerifyMorphism:
    @pytest.mark.parametrize(
        "g, c, i",
        [
            (5, 1, 0),
            (6, 1, 0),
            (11, 1, 1),
            (7, 3, 1),
            (1, 1, 0),
            (2, Fraction(-3, 7), 1),
        ],
    )
    def test_holds(self, g, c, i):
        spec = make_ring(g, c)
        check = verify_morphism(spec, i)
        source, pullback, residual = lifted(spec, i, check)
        assert check.holds and residual.coeffs == {}
        assert pullback == source

    def test_holds_for_large_genus(self):
        # Well past criterion 08's g <= 40; c cycles through non-unit
        # rationals of both signs and i alternates.  The loop takes under 1 s
        # on a 2-vCPU VM; the budget leaves room for that machine's speed drift,
        # while an expansion with O(g^2) ring products needs several minutes.
        cs = (Fraction(3, 5), Fraction(-7, 11), Fraction(2), Fraction(-3))
        start = time.perf_counter()
        for g in range(41, 201):
            c = cs[g % len(cs)]
            i = g % 2
            spec = make_ring(g, c)
            check = verify_morphism(spec, i)
            source, pullback, residual = lifted(spec, i, check)
            assert check.holds and residual.coeffs == {}, (g, c, i)
            assert pullback == source, (g, c, i)
        assert time.perf_counter() - start < 30.0

    @pytest.mark.parametrize("g", [1, 2, 7, 40, 79, 80])
    def test_w_powers_once_and_residual_adds_only_overlaps(self, g, monkeypatch):
        # w^0..w^ceil(g/2), which serve the target and the pullback both,
        # come from one table of zeta^(ik) with no ring product.  The
        # pullback makes one product, w^g = w^ceil(g/2) * w^(g//2), when
        # g > 1; at g = 1, w = u is read as c.  The residual is the
        # difference of two lists of integer weights, so it adds no
        # elements at all.
        calls = {"mul": 0, "add": 0}
        mul, add = QuotientRingElement.__mul__, QuotientRingElement.__add__

        def counting_mul(self, other):
            calls["mul"] += 1
            return mul(self, other)

        def counting_add(self, other):
            calls["add"] += 1
            return add(self, other)

        monkeypatch.setattr(QuotientRingElement, "__mul__", counting_mul)
        monkeypatch.setattr(QuotientRingElement, "__rmul__", counting_mul)
        monkeypatch.setattr(QuotientRingElement, "__add__", counting_add)
        assert verify_morphism(make_ring(g, Fraction(-7, 11)), 1).holds
        assert calls == {"mul": (g > 1), "add": 0}

    def test_one_row_of_t_reaches_target_and_pullback(self, monkeypatch):
        # verify_morphism reads T(g, .) once and hands the row to both
        # curves, so a fault injected through curves.lucas_row reaches the
        # target's coefficient as well as the pullback's residual.
        fail_morphism(monkeypatch)
        faulty, calls = curves.lucas_row, []
        monkeypatch.setattr(curves, "lucas_row", lambda g: calls.append(g) or faulty(g))
        spec = make_ring(9, Fraction(-7, 11))
        check = verify_morphism(spec, 1)
        assert calls == [9]
        f = built_target(spec, 1)
        w = zeta_power(spec, 1) * root_power(spec, 1)
        assert f.coeffs.get(5) == scaled(ring_power(w, 2), lucas_coeff(9, 2) + 1)
        assert target_text(spec, check.zeta_table, check.lucas) == folded_equation(f)
        assert not check.holds and lifted(spec, 1, check)[2].coeffs

    # Negative controls: a fault in either input of the pullback leaves a
    # nonzero residual, at exactly the x-powers that input reaches.
    def test_wrong_lucas_coefficient_leaves_its_terms(self, monkeypatch):
        # T(9, 2) + 1 adds w^2 x^5 (x^2 + w)^5 to the pullback: x^5..x^15.
        fail_morphism(monkeypatch)
        spec = make_ring(9, Fraction(-7, 11))
        residual = lifted(spec, 1, verify_morphism(spec, 1))[2]
        assert _nonzero_exponents(residual) == [5, 7, 9, 11, 13, 15]

    @pytest.mark.parametrize("g, k", [(9, 2), (12, 3), (13, 6)])
    @pytest.mark.parametrize("i", [0, 1])
    def test_wrong_lucas_coefficient_leaves_its_exact_residual(self, g, k, i, monkeypatch):
        # T(g, k) + delta adds delta (-1)^k w^k x^(2k+1) (x^2 + w)^(g-2k) to
        # the pullback: delta (-1)^k C(g-2k, b-k) w^b at x^(2g+1-2b) for
        # k <= b <= g-k.  The faults reach b > ceil(g/2), whose w^b is one
        # product of two listed powers; at g = 12 (phi = 4) that product
        # reduces through Phi_12 as well.
        delta = 3
        fault_lucas_row(monkeypatch, curves, (g, k, delta))
        spec = make_ring(g, Fraction(-7, 11))
        check = verify_morphism(spec, i)
        residual = lifted(spec, i, check)[2]
        w = zeta_power(spec, i) * root_power(spec, 1)
        expected = [from_rational(spec, 0)] * (2 * g + 2)
        for b in range(k, g - k + 1):
            expected[2 * g + 1 - 2 * b] = scaled(ring_power(w, b), 
                delta * (-1) ** k * math.comb(g - 2 * k, b - k)
            )
        assert residual == RingPolynomial(spec, dict(enumerate(expected)))
        assert check.residual == [
            delta * (-1) ** k * math.comb(g - 2 * k, b - k) if k <= b <= g - k else 0
            for b in range(g + 1)
        ]

    def test_wrong_w_leaves_only_the_linear_term(self, monkeypatch):
        # w = 2 zeta u makes the one product w^g = 2^g c, which misses c;
        # the weights stay honest, so only x^1 is left, written from that
        # product as 2^g c - c.
        double_w(monkeypatch)
        spec = make_ring(9, Fraction(-7, 11))
        check = verify_morphism(spec, 1)
        assert check.residual == [0] * 10 and not check.holds
        assert check.w_g == from_rational(spec, 2**9 * spec.c)
        residual = lifted(spec, 1, check)[2]
        assert _nonzero_exponents(residual) == [1]
        assert _curve_text(_morphism_curves(spec, check)[2]) == residual.to_text() == "-3577/11*x"

    def test_report_carries_equations(self):
        spec = make_ring(6, 1)
        check = verify_morphism(spec, 0)
        source, pullback, _ = lifted(spec, 0, check)
        assert source.equation_text() == "y^2 = x^13 + x"
        target = target_text(spec, check.zeta_table, check.lucas)
        assert target == "y^2 = x^6 - 6*x^4 + 9*x^2 - 2"
        assert target == folded_equation(built_target(spec, 0))
        assert pullback == source
        assert [_curve_text(f) for f in _morphism_curves(spec, check)] == ["x^13 + x", "x^13 + x", "0"]

    @pytest.mark.parametrize("c", [1, Fraction(-7, 11), 3], ids=str)
    def test_written_curves_are_the_lifted_polynomials(self, c, monkeypatch):
        # The commands write each r_b w^b from the table of zeta^(ik), run
        # on past ceil(g/2) when a weight is there; the reference lifts the
        # same weights into R(g, c) by repeated products by w.  Each curve's
        # text and each of its coefficients must read alike, for honest rows
        # and for rows with one entry off by one, which reach w^b for b from
        # k to g - k.  Phi_30 and Phi_105 have many terms.
        cases = [(g, None) for g in range(1, 41)] + [(30, 1), (105, 3)]
        cases += [(g, k) for g in (9, 12, 13) for k in range(g // 2 + 1)]
        for g, k in cases:
            spec = make_ring(g, c)
            with monkeypatch.context() as mp:
                if k is not None:
                    fault_lucas_row(mp, curves, (g, k, 1))
                for i in (0, 1):
                    check = verify_morphism(spec, i)
                    for written, f in zip(_morphism_curves(spec, check), lifted(spec, i, check)):
                        assert _curve_text(written) == f.to_text(), (g, k, i)
                        assert sorted(written) == sorted(f.coeffs), (g, k, i)
                        for e, p in f.coeffs.items():
                            assert _terms_text(written[e]) == p.to_text(), (g, k, i, e)


class TestCoefficientFacts:
    @pytest.mark.parametrize(
        "g, second, last, last_exponent",
        [
            (10, -10, -2, 0),
            (9, -9, 9, 1),
            (8, -8, 2, 0),
            (2, -2, -2, 0),
            (3, -3, -3, 1),
        ],
    )
    def test_closed_forms(self, g, second, last, last_exponent):
        facts = coefficient_facts(g)
        assert (facts.second, facts.last, facts.last_exponent) == (
            second,
            last,
            last_exponent,
        )

    def test_agrees_with_extracted_coefficients(self):
        for g in range(2, 61):
            facts = coefficient_facts(g)
            spec = make_ring(g, 1)
            f = built_target(spec, 0)
            assert f.coeffs.get(g - 2) == scaled(root_power(spec, 1), facts.second)
            k_last = g // 2 if g % 2 == 0 else (g - 1) // 2
            assert f.coeffs.get(facts.last_exponent) == scaled(root_power(spec, k_last), 
                facts.last
            )

    def test_rejects_small_g(self):
        for bad in (1, 0, -2):
            with pytest.raises(ValueError):
                coefficient_facts(bad)


class TestUnitRootSpecialization:
    def test_c1_i0_coefficients_are_signed_lucas_row(self):
        for g in range(1, 31):
            spec = make_ring(g, 1)
            f = built_target(spec, 0)
            row = lucas_row(g)
            for k in range(g // 2 + 1):
                folded = _u_to_one(f.coeffs.get(g - 2 * k))
                assert folded == from_rational(spec, (-1) ** k * row[k])

    @pytest.mark.parametrize("g", [*range(1, 41), 105])
    @pytest.mark.parametrize("i", [0, 1])
    def test_folded_target_is_the_curve_built_without_u(self, g, i):
        # Over c = 1, w = zeta^i u folds to zeta^i, so the target reads
        # (-1)^k T(g, k) zeta^(ik) at x^(g-2k), built here with no u at all
        # and T from its sum form.  Phi_105 has many terms, so there the
        # zeta powers have several.
        spec = make_ring(g, 1)
        without_u = RingPolynomial(spec, {
            g - 2 * k: scaled(zeta_power(spec, i * k), (-1) ** k * lucas_coeff_alt(g, k))
            for k in range(g // 2 + 1)
        })
        assert folded_equation(built_target(spec, i)) == f"y^2 = {without_u.to_text()}"


class TestTable:
    def test_row_texts(self):
        lines = table_text(table_rows(5, 11)).splitlines()[1:]
        rows = {int(line[:4]): line[5:] for line in lines}
        assert list(rows) == list(range(5, 12))
        assert rows[5] == "y^2 = x^5 - 5*zeta^i*x^3 + 5*zeta^(2i)*x"
        assert rows[7] == (
            "y^2 = x^7 - 7*zeta^i*x^5 + 14*zeta^(2i)*x^3 - 7*zeta^(3i)*x"
        )
        assert rows[10] == (
            "y^2 = x^10 - 10*zeta^i*x^8 + 35*zeta^(2i)*x^6 - 50*zeta^(3i)*x^4"
            " + 25*zeta^(4i)*x^2 - 2*zeta^(5i)"
        )

    def test_matches_terms_text(self):
        # Each term written directly, against the signed (q, factors) route of
        # _terms_text that ring elements and polynomials are written by.
        rows = table_rows(1, 150)
        expected = [
            f"{g:<4} y^2 = " + _terms_text(
                ((-1) ** k * t, (f"zeta^({k}i)" if k > 1 else "zeta^i" if k else "",
                                 _power_text("x", g - 2 * k)))
                for k, t in enumerate(row)
            )
            for g, row in rows
        ]
        assert table_text(rows).splitlines()[1:] == expected

    def test_g1_single_term(self):
        assert table_text(table_rows(1, 1)).splitlines()[1] == "1    y^2 = x"

    def test_entries_match_lucas_rows(self, capsys):
        assert table_rows(1, 25) == [(g, lucas_row(g)) for g in range(1, 26)]
        # Sign, zeta exponent and x exponent are written by the command line.
        assert cli.main(["--format", "json", "table", "1", "25"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [row["g"] for row in rows] == list(range(1, 26))
        for row in rows:
            g, terms = row["g"], row["coefficients"]
            coeffs = lucas_row(g)
            assert [t["k"] for t in terms] == list(range(len(coeffs)))
            assert [t["magnitude"] for t in terms] == list(coeffs)
            assert [t["sign"] for t in terms] == [(-1) ** k for k in range(len(coeffs))]
            assert [t["zeta_exp"] for t in terms] == list(range(len(coeffs)))
            assert [t["x_exp"] for t in terms] == [g - 2 * k for k in range(len(coeffs))]

    def test_text_block(self):
        text = table_text(table_rows(5, 6))
        lines = text.splitlines()
        assert lines[0].startswith("g")
        assert lines[1].startswith("5")
        assert "x^6 - 6*zeta^i*x^4" in lines[2]

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            table_rows(0, 5)
        with pytest.raises(ValueError):
            table_rows(7, 5)
