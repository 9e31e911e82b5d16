"""Exact arithmetic in the quotient ring R(g, c) = Q[z, u] / (Phi_g(z), u^g - c).

The class of z models a primitive g-th root of unity zeta (fixed, once and
for all, as z mod Phi_g); the class of u models a formal g-th root of the
nonzero rational c.  Elements are kept fully reduced in the monomial basis
z^a u^b with 0 <= a < phi(g) and 0 <= b < g.  An element is stored as a
dict of its nonzero integer numerators, keyed by (a, b), over one positive
denominator in lowest terms (its gcd with every numerator is 1, and 1 for
zero), so equal elements have equal fields and equality is plain field
comparison.  Every operation costs the nonzero terms it reads, not the
phi(g) * g slots of the basis: nearly every element of a morphism check
(w^k = zeta^{ik} u^k, the curves' coefficients) has one or a few.

R(g, c) is treated as a commutative ring, not a field: for special c (for
instance c = 1, where u^g - c factors) it is not a field, but every identity
verified by :mod:`vertalign.curves` is a polynomial identity that holds in
the quotient ring regardless, so no inversion is ever needed.

Arithmetic runs on integers alone.  Every element is made by ``_element``
from its numerators and denominator; a rational becomes an element by
``from_rational``, and no operation takes a rational factor.  ``Fraction``
appears only where c is read and where coefficients are handed out or
rendered.

Specs and elements are immutable; all operations are pure.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from fractions import Fraction

from .cyclotomic import cyclotomic

__all__ = [
    "RingSpec",
    "QuotientRingElement",
    "make_ring",
    "from_rational",
]


class RingSpec:
    """R(g, c), set by g and c alone; the u-basis width is g.

    ``phi_g`` (the cached ``cyclotomic(g)``), ``deg_z`` = phi(g), the
    z-basis width, and ``phi_low``, the pairs (j, Phi_g[j]) of Phi_g's
    nonzero coefficients below z^phi(g), are derived from g, take no part
    in equality, and are stored because every ring product reads them.
    Specs compare as the tuple (g, c), which returns early when both hold
    the same c object.
    """

    __slots__ = ("g", "c", "phi_g", "deg_z", "phi_low")

    def __init__(self, g: int, c: Fraction):
        self.g, self.c = g, c
        self.phi_g = cyclotomic(g)
        self.deg_z = len(self.phi_g) - 1
        self.phi_low = tuple((j, p) for j, p in enumerate(self.phi_g[:-1]) if p)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RingSpec):
            return NotImplemented
        return (self.g, self.c) == (other.g, other.c)


def make_ring(g: int, c: Fraction | int) -> RingSpec:
    """Validated spec for R(g, c).  Requires g >= 1 and c != 0."""
    if g < 1:
        raise ValueError(f"make_ring requires g >= 1, got g={g}")
    c = Fraction(c)
    if c == 0:
        raise ValueError("make_ring requires c != 0")
    return RingSpec(g, c)


def _reduce_z(terms: dict[tuple[int, int], int], spec: RingSpec) -> dict[tuple[int, int], int]:
    """``terms`` with every key (a, b) at a >= phi(g) reduced modulo Phi_g, in place.

    z^a = -sum_j Phi_g[j] z^(a - phi(g) + j) for a >= phi(g), so reducing
    level a adds only to lower levels.  The levels are visited from the top
    down, each complete when it is reached, and only through Phi_g's nonzero
    lower terms.
    """
    width, low = spec.deg_z, spec.phi_low
    over: dict[int, dict[int, int]] = {}
    for key in [key for key in terms if key[0] >= width]:
        over.setdefault(key[0], {})[key[1]] = terms.pop(key)
    for a in range(max(over, default=0), width - 1, -1):
        level = over.pop(a, None)
        if not level:
            continue
        for j, p in low:
            t = a - width + j
            if t >= width:
                target = over.setdefault(t, {})
                for b, v in level.items():
                    target[b] = target.get(b, 0) - v * p
            else:
                for b, v in level.items():
                    key = (t, b)
                    terms[key] = terms.get(key, 0) - v * p
    return terms


class QuotientRingElement:
    """A fully reduced element sum_{a,b} q_{a,b} z^a u^b of R(g, c).

    ``_terms[(a, b)] / _den`` is q_{a,b}.  ``_terms`` holds only nonzero
    numerators, so the zero element has none, and ``_den`` is positive and in
    lowest terms (1 for the zero element).  Immutable; every element is made
    by ``_element``, through the operators and ``from_rational``.
    """

    __slots__ = ("spec", "_terms", "_den")

    def entries(self) -> dict[tuple[int, int], Fraction | int]:
        """Nonzero coefficients keyed by (a, b).

        Each is a plain int when the denominator is 1, else a ``Fraction``
        in lowest terms.
        """
        den = self._den
        if den == 1:
            return dict(self._terms)
        return {key: Fraction(v, den) for key, v in self._terms.items()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuotientRingElement):
            return NotImplemented
        return (
            self.spec == other.spec and self._den == other._den and self._terms == other._terms
        )

    def __add__(self, other: "QuotientRingElement") -> "QuotientRingElement":
        spec = _common_spec(self, other)
        den = math.lcm(self._den, other._den)
        f, h = den // self._den, den // other._den
        terms = {key: f * v for key, v in self._terms.items()}
        for key, v in other._terms.items():
            terms[key] = terms.get(key, 0) + h * v
        return _element(spec, terms, den)

    def __mul__(self, other: "QuotientRingElement") -> "QuotientRingElement":
        """The product of two elements of one ring, reduced through u^g = c and Phi_g.

        Each pair of nonzero terms v1 z^a1 u^b1 and v2 z^a2 u^b2 adds v1 v2
        at (a1 + a2, b1 + b2), with u^g folded back to c past u^g; the keys
        at z^phi(g) and above are then reduced by ``_reduce_z``.  So a
        product costs its pairs of nonzero terms, on one path for every
        shape of factor.  The tests check it against sympy's reduction
        modulo u^g - c and Phi_g, which shares no code with it, for
        one-term, few-term and dense factors and for Phi_g with many terms.
        Both factors are elements: a rational is one by ``from_rational``.
        """
        if not isinstance(other, QuotientRingElement):
            return NotImplemented
        spec = _common_spec(self, other)
        g = spec.g
        right = other._terms.items()
        acc: dict[tuple[int, int], int] = {}
        wrapped: dict[tuple[int, int], int] = {}
        for (a1, b1), v1 in self._terms.items():
            for (a2, b2), v2 in right:
                b = b1 + b2
                if b < g:
                    key = (a1 + a2, b)
                    acc[key] = acc.get(key, 0) + v1 * v2
                else:
                    key = (a1 + a2, b - g)
                    wrapped[key] = wrapped.get(key, 0) + v1 * v2
        den = self._den * other._den
        if wrapped:
            # u^g folds back to c = p/q: over the common denominator q, the
            # wrapped sums are scaled by p and the rest by q.
            p, q = spec.c.numerator, spec.c.denominator
            if q != 1:
                acc = {key: q * v for key, v in acc.items()}
                den *= q
            for key, v in wrapped.items():
                acc[key] = acc.get(key, 0) + p * v
        return _element(spec, _reduce_z(acc, spec), den)

    __rmul__ = __mul__

    def to_text(self) -> str:
        """Canonical text: q*z^a*u^b terms in ascending lexicographic (a, b)."""
        if not self._terms:
            return "0"
        return _terms_text(_entry_terms(self.entries()))


def _element(
    spec: RingSpec, terms: Mapping[tuple[int, int], int], den: int
) -> QuotientRingElement:
    """The element terms/den: zero terms dropped, den > 0 in lowest terms."""
    terms = {key: v for key, v in terms.items() if v}
    if den != 1:
        # With no terms left the gcd is den itself, so zero gets den 1.
        common = math.gcd(den, *terms.values())
        if common != 1:
            terms = {key: v // common for key, v in terms.items()}
            den //= common
    element = object.__new__(QuotientRingElement)
    element.spec, element._terms, element._den = spec, terms, den
    return element


def _common_spec(x: QuotientRingElement, y: QuotientRingElement) -> RingSpec:
    # Elements of one ring share its spec object, so ``is`` settles nearly
    # every call without the tuple comparison.
    if x.spec is not y.spec and x.spec != y.spec:
        raise ValueError(
            f"ring mismatch: R({x.spec.g}, {x.spec.c}) vs R({y.spec.g}, {y.spec.c})"
        )
    return x.spec


def _power_text(name: str, exponent: int) -> str:
    """``name^exponent``: empty for 0, bare ``name`` for 1."""
    return "" if exponent == 0 else name if exponent == 1 else f"{name}^{exponent}"


def _entry_terms(
    entries: Mapping[tuple[int, int], Fraction | int]
) -> list[tuple[Fraction | int, tuple[str, str]]]:
    """The terms q*z^a*u^b of ``entries()`` in ascending (a, b), for ``_terms_text``."""
    return [
        (q, (_power_text("z", a), _power_text("u", b))) for (a, b), q in sorted(entries.items())
    ]


def _terms_text(terms: Iterable[tuple[Fraction | int, Iterable[str]]]) -> str:
    """A sum of nonzero terms q*f1*f2*..., each given as (q, factors).

    Empty factors are dropped, and |q| is written only when it is not 1 or
    no factor is left.  The first term is bare or ``-``, later ones start
    with ``+ `` or ``- ``; an empty sum is ``0``.
    """
    parts = []
    for q, factors in terms:
        body = [f for f in factors if f]
        if abs(q) != 1 or not body:
            body.insert(0, str(abs(q)))
        sign = ("- " if q < 0 else "+ ") if parts else ("-" if q < 0 else "")
        parts.append(sign + "*".join(body))
    return " ".join(parts) or "0"


def from_rational(spec: RingSpec, q: Fraction | int) -> QuotientRingElement:
    """Embed a rational as a ring element (the (a, b) = (0, 0) slot)."""
    return _element(spec, {(0, 0): q.numerator}, q.denominator)

